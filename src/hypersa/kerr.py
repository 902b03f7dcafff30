"""Coherent-probe bookkeeping for weak cross-Kerr parity readout.

A probe coherent state that crosses the Kerr medium with a photon present
picks up a phase that is an integer multiple of the single-pass shift theta.
Only that integer ever matters here, so a :class:`JointState` tracks, per
branch, one integer phase multiple per probe instead of a continuous phase,
and a probe is its id (every probe of a run shares its alpha and theta).
The one interaction is the parity gadget: two passes of opposite phase, one
per photon of a pair, onto one probe.  It stays exact: it permutes branch
keys and never touches amplitudes.

A :class:`JointState` is :class:`hypersa.states.PhotonState`'s container
keyed by ``(ket, multiples)``, and checks, prunes and freezes as it does.

X-quadrature homodyne readout resolves the magnitude of a probe's shift but
not its sign; measurement therefore groups branches by ``abs(multiple)``,
selects one magnitude class, drops the probe and returns the collapsed state
with the readout's one record, a :class:`ProbeReadout`.  Branch amplitudes
stay as they were (feed-forward phase correction is taken as perfect).  The
caller passes the one readout error, a misread probability, which
:meth:`hypersa.protocols.RunConfig.misread_prob` makes of the run's readout
model: the ``gaussian`` model's is :func:`gaussian_error_prob`, the overlap of
two unit-variance quadrature Gaussians separated by ``2*alpha*(1 - cos(theta))``.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .rng import pick
from .states import (Dof, BasisKet, PhotonState, _Amplitudes, _check_dof, _check_ket,
                     _check_photon_count, _check_photon_index, _checked, _checked_int)

JointKey = tuple[BasisKet, tuple[int, ...]]


def _check_probes(probes) -> tuple:
    if isinstance(probes, str):  # a str is a sequence of one-letter ids
        raise ValueError(f"probes must be a sequence of ids, got {probes!r}")
    probes = tuple(probes)
    if len(set(probes)) != len(probes):
        raise ValueError(f"duplicate probe ids in {list(probes)}")
    return probes


class JointState(_Amplitudes):
    """Photon amplitudes keyed by ``(ket, multiples)``, one integer phase
    multiple per probe id; construction checks probe ids, kets and multiples."""

    __slots__ = ("probes",)

    def __init__(self, n_photons: int, probes: Sequence[str],
                 amplitudes: Mapping[JointKey, complex]):
        _check_photon_count(n_photons)  # the count is refused before the probes
        object.__setattr__(self, "probes", _check_probes(probes))
        super().__init__(n_photons, amplitudes)

    def _check_key(self, key, n_photons: int) -> JointKey:
        ket, mults = key
        ket = _check_ket(ket, n_photons)
        if len(mults) != len(self.probes):
            raise ValueError(f"phase multiples {mults} do not match {len(self.probes)} probes")
        return ket, tuple(_checked_int("phase multiple", m, "an integer", -math.inf)
                          for m in mults)

    def probe_index(self, probe: str) -> int:
        if probe not in self.probes:
            raise ValueError(f"unknown probe {probe!r}; have {list(self.probes)}")
        return self.probes.index(probe)

    def photon_state(self) -> PhotonState:
        """Collapse-free view once every probe has been measured."""
        if self.probes:
            raise ValueError(f"probes {list(self.probes)} are still attached")
        return PhotonState._derived(self.n_photons,
                                    {ket: amp for (ket, _), amp in self._amps.items()})


class ProbeReadout(NamedTuple):
    """One homodyne record, JSON form {"probe": ..., "magnitude": ..., "p": ...};
    ``classes`` counts the magnitude classes the probe could show (1: certain)."""

    probe: str
    magnitude: int
    p: float
    classes: int


def attach_probes(state: PhotonState, probes: Sequence[str]) -> JointState:
    """Couple fresh probes (ids, all phase multiples zero) to a photon state."""
    _checked("state", state, "a PhotonState", lambda v: isinstance(v, PhotonState))
    probes = _check_probes(probes)
    zeros = (0,) * len(probes)
    return JointState._derived(state.n_photons,
                               {(ket, zeros): amp for ket, amp in state.items()}, probes)


def parity_gadget(joint: JointState, probe: str, ref_photon: int,
                  other_photon: int, dof: Dof) -> JointState:
    """Two-photon parity QND: branches where the photons' bits in ``dof``
    agree leave the probe alone; branches where they differ shift it by one
    multiple, positive when the reference photon's bit is 0.

    Physically two cross-Kerr passes with opposite signs: the probe gains
    +theta where the other photon's bit is 1 and -theta where the reference
    photon's bit is 1.  Both are applied in one walk, so the net multiple
    is (other bit) - (reference bit).  Amplitudes are untouched, so the
    norm is preserved exactly.
    """
    if ref_photon == other_photon:
        raise ValueError("parity gadget needs two distinct photons")
    _check_dof(dof)
    ref_photon = _check_photon_index(ref_photon, joint.n_photons)
    other_photon = _check_photon_index(other_photon, joint.n_photons)
    idx = joint.probe_index(probe)
    pos = 0 if dof == "P" else 1
    out: dict[JointKey, complex] = {}
    for (ket, mults), amp in joint._amps.items():
        bits = ket[pos]
        shift = int(bits[other_photon]) - int(bits[ref_photon])
        if shift:
            mults = mults[:idx] + (mults[idx] + shift,) + mults[idx + 1:]
        out[(ket, mults)] = amp  # the ket is kept, so no two branches collide
    return JointState._derived(joint.n_photons, out, joint.probes)


def magnitude_distribution(joint: JointState, probe: str) -> dict[int, float]:
    """Branch weight per homodyne magnitude class, ascending magnitude."""
    idx = joint.probe_index(probe)
    classes: dict[int, float] = {}
    for (ket, mults), amp in joint._amps.items():
        m = abs(mults[idx])
        classes[m] = classes.get(m, 0.0) + abs(amp) ** 2
    return dict(sorted(classes.items()))


def _check_alpha(alpha: float) -> float:
    """The probe amplitude, finite and > 0, or a ValueError."""
    return _checked("alpha", alpha, "finite and > 0", lambda v: 0 < v < math.inf)


def gaussian_error_prob(alpha: float, theta: float) -> float:
    """Misclassification probability of X-quadrature homodyne telling shift
    0 from shift +-theta: the overlap of two unit-variance Gaussians whose
    means sit ``2 alpha (1 - cos theta)`` apart, ``erfc(d/(2 sqrt 2))/2``.

    Zero separation (theta -> 0) gives the indistinguishable-distribution
    limit of exactly 0.5.
    """
    _check_alpha(alpha)
    _checked("theta", theta, "finite and in [0, pi/2)", lambda v: 0 <= v < math.pi / 2)
    return 0.5 * math.erfc(alpha * (1.0 - math.cos(theta)) / math.sqrt(2.0))


def misread(magnitude: int) -> int | None:
    """What a gaussian misread of ``magnitude`` reports: shifts 0 and
    +-theta are the confusable pair, so 0 and 1 swap; None for a magnitude
    that cannot be misread."""
    return 1 - magnitude if magnitude in (0, 1) else None


def homodyne_measure(joint: JointState, probe: str, misread_prob: float = 0.0,
                     rng=None) -> tuple[JointState, ProbeReadout]:
    """Measure one probe's X quadrature and detach it.

    Branches are grouped by the magnitude of the probe's phase multiple, and
    one class is selected by exact branch weight: a point mass, with
    probability exactly 1, or a :func:`~hypersa.rng.pick` from ``rng``.  The
    collapsed state is the renormalized projection onto that class, with the
    probe removed and branch amplitudes preserved.  A selected magnitude of 0
    or 1 is *reported* as the other with probability ``misread_prob`` (the
    run's is :meth:`RunConfig.misread_prob`; above 0 it is a second pick);
    the collapse still follows the selected class, so misreads corrupt only
    the readout.  Returns the collapsed state and the readout; ``p`` is the
    probability of the (class, report) event.
    """
    _checked("misread_prob", misread_prob, "a real number in [0, 1]", lambda v: 0 <= v <= 1)
    idx = joint.probe_index(probe)
    classes = magnitude_distribution(joint, probe)
    sampled = len(classes) != 1
    magnitude, weight = pick(classes.items(), rng) if sampled else next(iter(classes.items()))

    reported, p = magnitude, weight if sampled else 1.0
    if misread_prob > 0 and misread(magnitude) is not None:
        flipped, q = pick(((True, misread_prob), (False, 1.0 - misread_prob)), rng)
        reported, p = misread(magnitude) if flipped else magnitude, p * q

    scale = 1.0 / math.sqrt(weight)
    out: dict[JointKey, complex] = {}
    for (ket, mults), amp in joint._amps.items():
        if abs(mults[idx]) != magnitude:
            continue
        key = (ket, mults[:idx] + mults[idx + 1:])
        out[key] = out.get(key, 0j) + amp * scale
    probes = joint.probes[:idx] + joint.probes[idx + 1:]
    return (JointState._derived(joint.n_photons, out, probes),
            ProbeReadout(probe, reported, p, len(classes)))
