"""The N-photon analysis pipeline, its :class:`RunConfig` and readout model
(:class:`HomodyneModel`), and the sign and bit decoders.

The discrimination of an N-photon hyperentangled input runs in three steps:

1. N-1 parity gadgets couple photon 0 with each other photon in the
   polarization DOF; homodyne magnitudes spell the polarization bit-string
   (with a leading 0 for the canonical representative).  A wave plate on
   every photon then rotates polarization into the parity-readout basis.
2. The same with fresh probes and beam splitters in the spatial DOF.
3. Detector counts decode the two signs: an even number of V clicks means
   the polarization superposition was "+", an even number of path-2 clicks
   the same for the spatial DOF.

The QND step splits the 4^N inputs into 4^(N-1) groups of four, and the
detector parities separate each group, so the map from input to readout is a
bijection.  :mod:`hypersa.verifier` checks that claim by enumeration.  It,
the noise study (:mod:`hypersa.noise`) and the tables (:mod:`hypersa.tables`)
live apart so that a process loads only what its subcommand runs; their
public names resolve here on first use, and they call this module's
functions through the module object, so a function replaced here is replaced
there.  Patch a moved name on its home module: setting
``protocols.StateCheck`` does not reach the verifier.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence

from . import _EXPORTS, _lazy_attributes, kerr
from .kerr import (JointState, ProbeReadout, _check_alpha, attach_probes, homodyne_measure,
                   parity_gadget)
from .optics import DetectorOutcome, outcome_json, sample_outcome
from .rng import stream
from .states import (HyperLabel, PhotonState, _check_dof, _check_photon_count, _checked,
                     _checked_int, apply_gate, split_product)

VERIFY_MAX_PHOTONS = 10  # 4^N enumeration guard
_PROBES = {"P": "alpha", "S": "beta"}  # each DOF's probe name prefix


class PhotonCountError(ValueError):
    """A photon count outside ``2 <= n <= VERIFY_MAX_PHOTONS``."""


def check_photon_count(n: int, what: str) -> int:
    """The enumeration guard for everything that walks all 4^n inputs (and
    for the CLI, which applies it to every subcommand); returns ``n``."""
    try:
        n = _checked_int("n", n, "an integer", -math.inf)
    except ValueError:
        raise PhotonCountError(f"{what} needs an integer photon count, "
                               f"got {n!r}") from None
    if not 2 <= n <= VERIFY_MAX_PHOTONS:
        raise PhotonCountError(f"{what} supports 2 <= n <= {VERIFY_MAX_PHOTONS}, "
                               f"got {n}")
    return n


class HomodyneModel(str, Enum):
    """Readout model: ``ideal`` never misreads a magnitude; ``gaussian`` swaps
    0 and 1 with the probability :meth:`RunConfig.misread_prob` gives."""

    IDEAL = "ideal"
    GAUSSIAN = "gaussian"


class RunConfig(NamedTuple("RunConfig", [("theta", float), ("alpha", float),
                                          ("model", HomodyneModel), ("trials", int),
                                          ("seed", int)])):
    """Knobs for a pipeline run.

    Defaults are illustrative.  ``trials`` sizes only the Monte Carlo
    study.  A config is an immutable tuple: it iterates and equals a plain
    tuple of the same values; ``cfg._replace(seed=1)`` returns a changed
    copy, validated again.
    """

    __slots__ = ()

    def __new__(cls, theta: float = 0.01, alpha: float = 5000.0,
                model: HomodyneModel = HomodyneModel.IDEAL, trials: int = 10000,
                seed: int = 0):
        # plain ints, so a numpy integer reaches no JSON output
        return super().__new__(
            cls,
            _checked("theta", theta, "finite and in (0, pi/2)", lambda v: 0 < v < math.pi / 2),
            _check_alpha(alpha),
            HomodyneModel(_checked("model", model, f"one of {', '.join(HomodyneModel)}",
                                   HomodyneModel)),
            _checked_int("trials", trials, "an integer >= 1", 1),
            _checked_int("seed", seed, "an integer >= 0", 0))

    # _replace builds with _make, so a changed copy is validated again
    _make = classmethod(lambda cls, values: cls(*values))

    def misread_prob(self) -> float:
        """Each probe's chance to report magnitude 0 as 1 or 1 as 0: 0.0 under
        the ideal model, :func:`~hypersa.kerr.gaussian_error_prob` under gaussian."""
        return (kerr.gaussian_error_prob(self.alpha, self.theta)
                if self.model is HomodyneModel.GAUSSIAN else 0.0)


class Transcript(NamedTuple):
    """What a single analysis run observed, plus the config that drove it."""

    probe_readouts: tuple[ProbeReadout, ...]
    detector_outcome: DetectorOutcome
    config: RunConfig

    def to_json_dict(self) -> dict:
        return {
            "probes": [{"probe": r.probe, "magnitude": r.magnitude, "p": r.p}
                       for r in self.probe_readouts],
            "detection": outcome_json(self.detector_outcome),
            "theta": self.config.theta,
            "alpha": self.config.alpha,
            "model": self.config.model.value,
            "seed": self.config.seed,
        }


def probe_ids(n: int, dofs: str = "PS") -> list[str]:
    """Probe names for an n-photon run: alpha1..alpha_{n-1}, beta1..beta_{n-1}."""
    n = _check_photon_count(n)
    return [f"{_PROBES[_check_dof(dof)]}{k}" for dof in dofs for k in range(1, n)]


def run_parity_stage(joint: JointState, dof: str,
                     cfg: RunConfig) -> tuple[JointState, list[ProbeReadout]]:
    """One QND stage: gadget photon 0 against each photon k >= 1 in ``dof``
    with ``dof``'s k-th probe (:func:`probe_ids`), then measure them in order."""
    pids = probe_ids(joint.n_photons, dof)
    for k, pid in enumerate(pids, 1):
        joint = parity_gadget(joint, pid, 0, k, dof)
    misread_prob, readouts = cfg.misread_prob(), []
    for pid in pids:
        joint, readout = homodyne_measure(joint, pid, misread_prob,
                                          stream(cfg.seed, f"probe:{pid}"))
        readouts.append(readout)
    return joint, readouts


def sign_basis_transform(state: PhotonState, dof: str) -> PhotonState:
    """The Hadamard (:func:`~hypersa.states.apply_gate`) on every photon's
    ``dof``, a wave plate ("P") or a beam splitter ("S") each: it rotates into
    the basis where GHZ-sign information becomes a count parity."""
    for photon in range(state.n_photons):
        state = apply_gate(state, photon, dof)
    return state


def pre_detection(state: PhotonState, cfg: RunConfig,
                  dof: str) -> tuple[PhotonState, list[ProbeReadout]]:
    """Everything before the detectors in one DOF: attach its fresh probes,
    run its parity stage and rotate it into the sign basis.  Returns the
    rotated photon state and the readouts; the other DOF is not touched."""
    joint = attach_probes(state, probe_ids(state.n_photons, dof))
    joint, readouts = run_parity_stage(joint, dof, cfg)
    return sign_basis_transform(joint.photon_state(), dof), readouts


def decode_signs(outcome: DetectorOutcome) -> tuple[str, str]:
    """Sign pair from detector parities: "+" iff the V count (polarization)
    or the path-2 count (spatial) is even."""
    v = sum(1 for r in outcome.records if r.pol == "V")
    x2 = sum(1 for r in outcome.records if r.mode == 2)
    return ("+" if v % 2 == 0 else "-", "+" if x2 % 2 == 0 else "-")


def _decode_bits(readouts: Sequence[ProbeReadout]) -> tuple[str, str]:
    """(polarization, spatial) bits, each DOF's from its own probes (alpha
    then beta) in order: photon 0 is the leading 0, each magnitude the next."""
    return tuple("0" + "".join(str(r.magnitude) for r in readouts
                               if r.probe.startswith(_PROBES[dof]))
                 for dof in "PS")


def hgsa_n_analyze(state: PhotonState, cfg: RunConfig) -> tuple[HyperLabel, Transcript]:
    """Full N-photon analysis: each factor (:func:`split_product`) runs its DOF's
    :func:`pre_detection`; the event joins one ``detection`` draw per factor, P first.

    Returns the decoded canonical label and the run transcript.  Under the
    ideal model the label is exact for any hyperentangled GHZ-class product
    input, whichever branch fires; a non-product input raises ValueError.
    """
    rng, readouts, events = stream(cfg.seed, "detection"), [], []
    for dof, factor in zip("PS", split_product(state)):
        rotated, reads = pre_detection(factor, cfg, dof)
        readouts += reads
        events.append(sample_outcome(rotated, rng))
    p, s = events
    # photon i's record: its path from the S draw, its polarization from the P draw
    records = tuple(r._replace(pol=q.pol) for r, q in zip(s.records, p.records))
    outcome = DetectorOutcome(records, p.probability * s.probability)
    p_sign, s_sign = decode_signs(outcome)
    p_bits, s_bits = _decode_bits(readouts)
    label = HyperLabel(p_sign, p_bits, s_sign, s_bits)
    return label, Transcript(tuple(readouts), outcome, cfg)


__getattr__, __dir__ = _lazy_attributes(globals(), {
    name: module for module in ("verifier", "noise", "tables")
    for name in _EXPORTS[module].split()})
