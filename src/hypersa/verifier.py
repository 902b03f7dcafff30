"""The exhaustive verifier: :func:`verify_complete` runs the analyser's own
split, per-DOF pass and bit decoder, called through the
:mod:`hypersa.states` and :mod:`hypersa.protocols` module objects, and walks
every detector branch where the analyser samples one.

It does so one degree of freedom at a time, as the analyser does: the
analyser splits its input into a polarization factor and a spatial factor
(:func:`hypersa.states.split_product`), runs each through only its own DOF's
stages and draws one detector event per factor; no caller hands a stage a
joint state.  So an input is classified correctly iff its polarization
factor and its spatial factor are, and the 2^N inputs P:s b;S:s b, one per
(sign, bits), give every factor of either DOF once: 2^(N+1) factor runs
cover all 4^N inputs.  Each factor run must leave its other DOF all 0s (the
``separation`` invariant), so a stage that moves the other DOF of a factor
fails.  A stage that reads or moves the other DOF only when that DOF is not
all 0s no factor run reaches, and the analyser never runs it either; the
tests hold the joint physics to an independent dense reference.

The proof runs under the ideal readout and depends on N alone.  The
``verify`` command runs the gaussian noise study
(:func:`~hypersa.noise.monte_carlo_misclassification`) beside it.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

from . import optics, protocols, states
from .protocols import HomodyneModel, RunConfig, check_photon_count
from .states import NORM_TOL, HyperLabel, PhotonState, canonical_bit_strings


class StateCheck(NamedTuple):
    """Per-input verification record: the decoded signature, how many
    detector branches the input has, whether every branch decoded right and,
    if not, the first invariant of :data:`_INVARIANTS` that broke."""

    label: str
    signature: tuple[int, ...]
    branches: int
    ok: bool
    broken: str = ""


#: What a verified input must satisfy, in the order a failure is named: each
#: factor run left its other DOF all 0s, then each DOF's point-mass readouts,
#: bits, detector branch probabilities (each a float in (0, 1], summing to 1)
#: and signs.
_INVARIANTS = ("separation", "P readout", "S readout", "P bits", "S bits",
               "P probabilities", "S probabilities", "P signs", "S signs")


class _DofCheck(NamedTuple):
    """One DOF's factor run: its probe magnitudes, how many detector
    branches it has, and the invariants that broke."""

    magnitudes: tuple[int, ...]
    support: int
    broken: frozenset[str]


def _factor_run(sign: str, bits: str, dof: str, factor: PhotonState,
                cfg: RunConfig) -> _DofCheck:
    """The (sign, bits) factor of ``dof`` through only ``dof``'s stages
    (:func:`~hypersa.protocols.pre_detection`), every detector branch
    decoded, and the invariants it broke."""
    rotated, readouts = protocols.pre_detection(factor, cfg, dof)
    own, other = "PS".index(dof), "SP".index(dof)  # (P, S) positions of each DOF
    outcomes = optics.detection_distribution(rotated)
    probs = [o.probability for o in outcomes]
    zeros = "0" * len(bits)
    broken = {"separation": any(ket[other] != zeros for ket, _ in rotated.items()),
              f"{dof} readout": any(r.classes != 1 for r in readouts),
              f"{dof} bits": protocols._decode_bits(readouts)[own] != bits,
              f"{dof} probabilities": not all(isinstance(p, float) and 0 < p <= 1 for p in probs)
              or abs(math.fsum(probs) - 1) > NORM_TOL,
              f"{dof} signs": {protocols.decode_signs(o)[own] for o in outcomes} != {sign}}
    # with the other DOF all 0s, each branch is one string of this DOF
    return _DofCheck(tuple(r.magnitude for r in readouts), len(rotated),
                     frozenset(k for k, bad in broken.items() if bad))


class VerificationReport(NamedTuple):
    """What :func:`verify_complete` established: each DOF's factor runs,
    ``factors[dof][sign, bits]``.  Every count is derived from them."""

    n_photons: int
    factors: dict[str, dict[tuple[str, str], _DofCheck]]

    @property
    def total_states(self) -> int:
        return 4 ** self.n_photons

    @property
    def correct(self) -> int:
        """An input is correct iff both its factors are."""
        return math.prod(sum(not c.broken for c in table.values())
                         for table in self.factors.values())

    @property
    def group_count(self) -> int:
        """Signatures join P and S magnitudes: distinct P times distinct S."""
        return math.prod(len({c.magnitudes for c in table.values()})
                         for table in self.factors.values())

    @property
    def all_correct(self) -> bool:
        """Every input correct, and each DOF's table keyed by exactly the 2^n
        (sign, bits) its factor runs must cover.  The keys are checked
        without :func:`canonical_bit_strings`, whose enumeration is under
        test: 2^n distinct keys, each a sign and n 0/1 characters from 0."""
        n = self.n_photons
        return self.correct == self.total_states and all(
            len(table) == 2 ** n and all(
                sign in ("+", "-") and len(bits) == n and bits[0] == "0"
                and set(bits) <= {"0", "1"} for sign, bits in table)
            for table in self.factors.values())

    @property
    def per_state(self) -> Iterator[StateCheck]:
        """The per-input records, built afresh on each read, in
        :func:`all_canonical_labels` order.  Each is assembled from the
        input's two factors: the signature is the polarization magnitudes
        then the spatial ones, ``branches`` the product of the two supports,
        and a failure names the first broken invariant of either factor."""
        p_checks, s_checks = self.factors["P"], self.factors["S"]
        for label in states._canonical_labels(self.n_photons):
            p, s = p_checks[label.p_sign, label.p_bits], s_checks[label.s_sign, label.s_bits]
            broken = (min(p.broken | s.broken, key=_INVARIANTS.index)
                      if p.broken or s.broken else "")
            yield StateCheck(label.literal(), p.magnitudes + s.magnitudes,
                             p.support * s.support, not broken, broken)

    def to_json_dict(self) -> dict:
        return {"n": self.n_photons, "total": self.total_states,
                "correct": self.correct, "groups": self.group_count}


def verify_complete(n: int) -> VerificationReport:
    """Check every canonical hyperentangled input: split it into its two
    factors as the analyser does, run the analyser's per-DOF pass
    (:func:`~hypersa.protocols.pre_detection`) and bit decoder on each, walk
    every detector branch symbolically, and report the QND group partition.
    What the analyser adds, joining the two factors' draws and labels, the
    tests cover.

    An input is correct when each factor run left its other DOF all 0s,
    every probe readout was a point mass, the readouts decode to its bits,
    each detector branch has a float probability in (0, 1], summing to 1,
    and every branch decodes to its signs.  Those checks split by degree of
    freedom (see the module notes), so the 2^n inputs P:s b;S:s b, one per
    (sign, bits), run every factor once.  The report keeps the two tables of
    factor runs; the per-input records are assembled from them only when
    read (:attr:`VerificationReport.per_state`).  Every factor run uses the
    ideal readout of the default :class:`~hypersa.protocols.RunConfig`, so
    the proof depends on ``n`` alone.
    """
    check_photon_count(n, "verification")
    ideal, factors = RunConfig(), {"P": {}, "S": {}}
    for bits, sign in itertools.product(canonical_bit_strings(n), "+-"):
        state = states.state_from_label(HyperLabel(sign, bits, sign, bits))
        for dof, factor in zip("PS", states.split_product(state)):
            factors[dof][sign, bits] = _factor_run(sign, bits, dof, factor, ideal)
    return VerificationReport(n, factors)


def cmd_verify(args) -> int:
    """``hypersa verify``: the proof, and under ``--model gaussian`` the noise
    study beside it; exit 0 only when every input is correct."""
    from .cli import EXIT_OK, _config, _csv_writer, _photon_count, _print_json
    n = _photon_count("verify", args.n)
    cfg = _config(args)
    # through protocols, where the package's callers (and tracers) find them
    report = protocols.verify_complete(n)
    noise = (protocols.monte_carlo_misclassification(n, cfg)
             if cfg.model is HomodyneModel.GAUSSIAN else None)
    if args.fmt == "json":
        doc = {**report.to_json_dict(), "model": cfg.model.value}
        if noise is not None:
            doc["noise"] = noise.to_json_dict()
        _print_json(doc)
    elif args.fmt == "csv":
        writer = _csv_writer()
        writer.writerow(["state"] + protocols.probe_ids(n) + ["branches", "ok"])
        for check in report.per_state:
            writer.writerow([check.label] + list(check.signature)
                            + [check.branches, int(check.ok)])
    else:
        print(f"n={report.n_photons} total={report.total_states} "
              f"correct={report.correct} groups={report.group_count} "
              f"model={cfg.model.value}")
        if noise is not None:
            from .noise import _print_probe_misreads
            print(f"noise: rate={noise.rate:.6f} "
                  f"wilson95=[{noise.wilson_low:.6f}, {noise.wilson_high:.6f}] "
                  f"predicted={noise.predicted:.6f} trials={noise.trials}")
            _print_probe_misreads(noise, cfg)
        if not report.all_correct:
            for check in report.per_state:
                if not check.ok:
                    print(f"FAIL {check.label} signature={check.signature} "
                          f"broken={check.broken}")
    return EXIT_OK if report.all_correct else 1
