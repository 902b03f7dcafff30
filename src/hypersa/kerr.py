"""Coherent-probe bookkeeping for weak cross-Kerr parity readout.

A probe coherent state that crosses the Kerr medium with a photon present
picks up a phase that is an integer multiple of the single-pass shift theta.
Only that integer ever matters here, so a :class:`JointState` tracks, per
branch, one integer phase multiple per probe instead of a continuous phase.
The one interaction is the parity gadget: two passes of opposite phase, one
per photon of a pair, onto one probe.  It stays exact: it permutes branch
keys and never touches amplitudes.

X-quadrature homodyne readout resolves the magnitude of a probe's shift but
not its sign; measurement therefore groups branches by ``abs(multiple)``,
selects one magnitude class, and drops the probe, keeping branch amplitudes
as they were (feed-forward phase correction is taken as perfect).  The
``gaussian`` model adds the finite-distinguishability error of two unit-
variance quadrature Gaussians separated by ``2*alpha*(1 - cos(theta))``.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from .rng import as_generator, pick
from .states import Dof, PRUNE_EPS, BasisKet, PhotonState, _check_dof, _check_ket


class HomodyneModel(str, Enum):
    """Readout model: ``ideal`` never misreads a magnitude; ``gaussian``
    confuses magnitudes 0 and 1 with probability
    :func:`gaussian_error_prob` of the probe's alpha and theta."""

    IDEAL = "ideal"
    GAUSSIAN = "gaussian"


class ProbeRegister(NamedTuple("ProbeRegister", [("id", str), ("theta", float),
                                                 ("alpha", float)])):
    """A coherent probe: its id, single-pass phase shift theta (radians) and
    real amplitude alpha.  Both parameters must be finite and positive."""

    __slots__ = ()

    def __new__(cls, id: str, theta: float, alpha: float):
        # NaN fails the chained comparison, and a bool is no number
        for name, value in (("theta", theta), ("alpha", alpha)):
            if isinstance(value, bool) or not 0 < value < math.inf:
                raise ValueError(f"probe {name} must be finite and > 0, got {value}")
        return super().__new__(cls, id, theta, alpha)

    # _replace builds with _make, so a changed copy is validated again
    _make = classmethod(lambda cls, values: cls(*values))


JointKey = tuple[BasisKet, tuple[int, ...]]


class JointState:
    """Photon amplitudes extended with one integer phase multiple per probe.

    Keys are ``(ket, multiples)`` pairs; construction checks kets as
    :class:`PhotonState` does and multiples lengths, and prunes.  Immutable.
    """

    __slots__ = ("n_photons", "probes", "_amps")

    def __init__(self, n_photons: int, probes: Sequence[ProbeRegister],
                 amplitudes: Mapping[JointKey, complex]):
        probes = tuple(probes)
        ids = [p.id for p in probes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate probe ids in {ids}")
        amps: dict[JointKey, complex] = {}
        for (ket, mults), amp in amplitudes.items():
            ket = _check_ket(ket, n_photons)
            if len(mults) != len(probes):
                raise ValueError(f"phase multiples {mults} do not match "
                                 f"{len(probes)} probes")
            a = complex(amp)
            if abs(a) >= PRUNE_EPS:
                amps[(ket, tuple(mults))] = a
        for name, value in zip(self.__slots__, (n_photons, probes, amps)):
            object.__setattr__(self, name, value)

    @classmethod
    def _derived(cls, n_photons: int, probes: tuple[ProbeRegister, ...],
                 amplitudes: dict[JointKey, complex]) -> JointState:
        """Built from valid kets, probes and ``complex`` amplitudes, taken as they are."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, (n_photons, probes, amplitudes)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("JointState is immutable")

    def items(self) -> list[tuple[JointKey, complex]]:
        return sorted(self._amps.items())

    def __len__(self) -> int:
        return len(self._amps)

    def probe_index(self, probe: str) -> int:
        for i, p in enumerate(self.probes):
            if p.id == probe:
                return i
        raise ValueError(f"unknown probe {probe!r}; have "
                         f"{[p.id for p in self.probes]}")

    def photon_state(self) -> PhotonState:
        """Collapse-free view once every probe has been measured."""
        if self.probes:
            raise ValueError(f"probes {[p.id for p in self.probes]} are still attached")
        return PhotonState._derived(self.n_photons,
                                    {ket: amp for (ket, _), amp in self._amps.items()})


class HomodyneResult(NamedTuple):
    magnitude: int
    probability: float
    collapsed: JointState
    classes: int  # magnitude classes in the support; 1 is a point mass


def attach_probes(state: PhotonState,
                  probes: Sequence[ProbeRegister]) -> JointState:
    """Couple fresh probes (all phase multiples zero) to a photon state."""
    zeros = (0,) * len(probes)
    return JointState(state.n_photons, probes,
                      {(ket, zeros): amp for ket, amp in state.items()})


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
    for photon in (ref_photon, other_photon):
        if not 0 <= photon < joint.n_photons:
            raise ValueError(f"photon index {photon} out of range")
    idx = joint.probe_index(probe)
    pos = 0 if dof == "P" else 1
    out: dict[JointKey, complex] = {}
    for (ket, mults), amp in joint._amps.items():
        bits = ket[pos]
        shift = int(bits[other_photon]) - int(bits[ref_photon])
        if shift:
            mults = mults[:idx] + (mults[idx] + shift,) + mults[idx + 1:]
        out[(ket, mults)] = amp  # the ket is kept, so no two branches collide
    return JointState._derived(joint.n_photons, joint.probes, out)


def magnitude_distribution(joint: JointState, probe: str) -> dict[int, float]:
    """Branch weight per homodyne magnitude class, ascending magnitude."""
    idx = joint.probe_index(probe)
    classes: dict[int, float] = {}
    for (ket, mults), amp in joint._amps.items():
        m = abs(mults[idx])
        classes[m] = classes.get(m, 0.0) + abs(amp) ** 2
    return dict(sorted(classes.items()))


def gaussian_error_prob(alpha: float, theta: float) -> float:
    """Misclassification probability of X-quadrature homodyne telling shift
    0 from shift +-theta: the overlap of two unit-variance Gaussians whose
    means sit ``2 alpha (1 - cos theta)`` apart, ``erfc(d/(2 sqrt 2))/2``.

    Zero separation (theta -> 0) gives the indistinguishable-distribution
    limit of exactly 0.5.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    if not 0 <= theta < math.pi / 2:
        raise ValueError(f"theta must lie in [0, pi/2), got {theta}")
    return 0.5 * math.erfc(alpha * (1.0 - math.cos(theta)) / math.sqrt(2.0))


def misread(magnitude: int) -> int | None:
    """What a gaussian misread of ``magnitude`` reports: shifts 0 and
    +-theta are the confusable pair, so 0 and 1 swap; None for a magnitude
    that cannot be misread."""
    return 1 - magnitude if magnitude in (0, 1) else None


def homodyne_measure(joint: JointState, probe: str,
                     model: HomodyneModel | str = HomodyneModel.IDEAL,
                     seed=None) -> HomodyneResult:
    """Measure one probe's X quadrature and detach it.

    Branches are grouped by the magnitude of the probe's phase multiple; one
    class is selected by exact branch weight (a point-mass class needs no
    randomness and has probability exactly 1; otherwise a seed is
    required).  The collapsed state is the renormalized projection onto the
    selected class with the probe removed and branch amplitudes preserved.

    Under the gaussian model the *reported* magnitude flips between 0 and 1
    with probability :func:`gaussian_error_prob`; the collapse still follows
    the selected class, so misreads corrupt only the readout record.  The
    returned probability is that of the (class, report) event observed.
    """
    model = HomodyneModel(model)
    idx = joint.probe_index(probe)
    reg = joint.probes[idx]
    classes = magnitude_distribution(joint, probe)
    rng = as_generator(seed)

    if len(classes) == 1:
        magnitude, weight = next(iter(classes.items()))
    else:
        if rng is None:
            raise ValueError("magnitude distribution is not deterministic; "
                             "a seed is required to sample it")
        magnitude, weight = pick(classes.items(), rng)

    reported = magnitude
    probability = weight if len(classes) > 1 else 1.0
    if model is HomodyneModel.GAUSSIAN:
        if rng is None:
            raise ValueError("the gaussian readout model requires a seed")
        err = gaussian_error_prob(reg.alpha, reg.theta)
        wrong = misread(magnitude)
        if wrong is not None and rng.random() < err:
            reported = wrong
            probability *= err
        else:
            probability *= 1.0 - err

    scale = 1.0 / math.sqrt(weight)
    out: dict[JointKey, complex] = {}
    for (ket, mults), amp in joint._amps.items():
        if abs(mults[idx]) != magnitude:
            continue
        key = (ket, mults[:idx] + mults[idx + 1:])
        out[key] = out.get(key, 0j) + amp * scale
    # the one operation that adds amplitudes, so the one that can cancel them
    out = {key: a for key, a in out.items() if abs(a) >= PRUNE_EPS}
    probes = joint.probes[:idx] + joint.probes[idx + 1:]
    return HomodyneResult(reported, probability,
                          JointState._derived(joint.n_photons, probes, out), len(classes))
