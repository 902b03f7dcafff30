"""Analysis pipelines, decoders, table emitters and the exhaustive verifier.

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
bijection.  ``verify_complete`` checks that claim by enumeration: it runs the
analyser's own per-DOF pass (:func:`pre_detection`) and bit decoder, and
walks every detector branch symbolically where the analyser samples one.

It does so one degree of freedom at a time.  No stage couples the two DOFs:
the wave plates and the alpha gadgets act on polarization only, the beam
splitters and the beta gadgets on spatial mode only, and
:func:`decode_signs` reads the polarization sign from the V count and the
spatial sign from the path-2 count.  So a P-GHZ x S-GHZ input is
classified correctly iff its polarization factor and its spatial factor
are, and 2^N runs, each of one factor (the other DOF all 0s) through only
its own DOF's stages, cover all 4^N inputs.  A separation check makes sure
that no stage reads or moves the other DOF.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from typing import Iterator, NamedTuple, Sequence

from .kerr import (HomodyneModel, JointState, ProbeRegister, attach_probes,
                   gaussian_error_prob, homodyne_measure, misread,
                   parity_gadget)
from .optics import (DetectorOutcome, apply_bs, apply_wp,
                     detection_distribution, outcome_json, outcome_tokens,
                     sample_outcome)
from .rng import Stream
from .states import (HyperLabel, PhotonState, _check_dof, all_canonical_labels,
                     canonical_bit_strings, complement, equal_up_to_global_phase,
                     ghz_state, hyper_product, state_from_label)

VERIFY_MAX_PHOTONS = 10  # 4^N enumeration guard
_PROBES = {"P": "alpha", "S": "beta"}  # each DOF's probe name prefix
MC_CHUNK = 1 << 14  # Monte Carlo trials drawn at once; bounds its arrays


class PhotonCountError(ValueError):
    """A photon count outside ``2 <= n <= VERIFY_MAX_PHOTONS``."""


def check_photon_count(n: int, what: str) -> int:
    """The enumeration guard for everything that walks all 4^n inputs (and
    for the CLI, which applies it to every subcommand); returns ``n``."""
    try:
        n = operator.index(n)
    except TypeError:
        raise PhotonCountError(f"{what} needs an integer photon count, "
                               f"got {n!r}") from None
    if not 2 <= n <= VERIFY_MAX_PHOTONS:
        raise PhotonCountError(f"{what} supports 2 <= n <= {VERIFY_MAX_PHOTONS}, "
                               f"got {n}")
    return n


def stream(seed: int, name: str) -> Stream:
    """Named child stream, ``random.Random(f"{seed}:{name}")``: all
    randomness flows from one seed, split by purpose ("probe:alpha1",
    "detection", ...) so streams never collide.  A stream is seeded on its
    first draw, so a point-mass readout, which draws nothing, costs no
    seeding."""
    return Stream(seed, name)


class RunConfig(NamedTuple("RunConfig", [("theta", float), ("alpha", float),
                                          ("model", HomodyneModel), ("trials", int),
                                          ("seed", int)])):
    """Knobs for a pipeline run.

    ``alpha * theta**2`` is the weak-probe feasibility figure: magnitude
    discrimination is reliable when it is large.  Defaults are illustrative.
    ``trials`` sizes the Monte Carlo study, and the noise study that
    ``verify_complete`` attaches under the gaussian model.  A config is an
    immutable tuple: it iterates and equals a plain tuple of the same values;
    ``cfg._replace(seed=1)`` returns a changed copy, validated again.
    """

    __slots__ = ()

    def __new__(cls, theta: float = 0.01, alpha: float = 5000.0,
                model: HomodyneModel = HomodyneModel.IDEAL, trials: int = 10000,
                seed: int = 0):
        self = super().__new__(cls, theta, alpha, model, trials, seed)
        # chained comparisons are False for NaN, so these also reject it; a
        # non-number, a float count, a bool and an unknown model raise
        for name, rule, check in (
                ("theta", "finite and in (0, pi/2)", lambda v: 0 < v < math.pi / 2),
                ("alpha", "finite and > 0", lambda v: 0 < v < math.inf),
                ("model", f"one of {', '.join(HomodyneModel)}", HomodyneModel),
                ("trials", "an integer >= 1", lambda v: operator.index(v) >= 1),
                ("seed", "an integer >= 0", lambda v: operator.index(v) >= 0)):
            value = getattr(self, name)
            try:
                ok = not isinstance(value, bool) and check(value)
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {value!r}")
        return super().__new__(cls, theta, alpha, HomodyneModel(model), trials, seed)

    # _replace builds with _make, so a changed copy is validated again
    _make = classmethod(lambda cls, values: cls(*values))

    def feasibility(self) -> float:
        return self.alpha * self.theta ** 2


class ProbeReadout(NamedTuple):
    """One homodyne record, JSON form {"probe": ..., "magnitude": ..., "p": ...}.
    ``classes`` counts the magnitude classes the probe could have shown; 1
    means the readout was certain."""

    probe: str
    magnitude: int
    p: float
    classes: int


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
    return [f"{_PROBES[_check_dof(dof)]}{k}" for dof in dofs for k in range(1, n)]


def run_parity_stage(joint: JointState, dof: str, prefix: str,
                     cfg: RunConfig) -> tuple[JointState, list[ProbeReadout]]:
    """One QND stage: gadget photon 0 against each other photon in ``dof``
    using the probes ``prefix``1.., then measure those probes in order."""
    n = joint.n_photons
    for k in range(1, n):
        joint = parity_gadget(joint, f"{prefix}{k}", 0, k, dof)
    readouts = []
    for k in range(1, n):
        pid = f"{prefix}{k}"
        result = homodyne_measure(joint, pid, cfg.model,
                                  stream(cfg.seed, f"probe:{pid}"))
        readouts.append(ProbeReadout(pid, result.magnitude, result.probability,
                                     result.classes))
        joint = result.collapsed
    return joint, readouts


def sign_basis_transform(state: PhotonState, dofs: str = "SP") -> PhotonState:
    """Beam splitters ("S") and wave plates ("P") on every photon, in the
    order named: the DOFs rotate into the basis where GHZ-sign information
    becomes a count parity.  The elements commute; the two-DOF default puts
    every beam splitter first, so the spatial DOF cancels down to 2^(n-1)
    terms before the wave plates grow the polarization DOF."""
    for dof in dofs:
        rotate = {"P": apply_wp, "S": apply_bs}[_check_dof(dof)]
        for photon in range(state.n_photons):
            state = rotate(state, photon)
    return state


def pre_detection(state: PhotonState, cfg: RunConfig,
                  dofs: str = "PS") -> tuple[PhotonState, list[ProbeReadout]]:
    """Everything before the detectors, one DOF at a time in the order
    named: attach that DOF's fresh probes, run its parity stage and rotate
    it into the sign basis.  Returns the rotated photon state and the
    readouts, DOF by DOF; a DOF left out is not touched."""
    readouts = []
    for dof in dofs:
        joint = attach_probes(state, [ProbeRegister(pid, cfg.theta, cfg.alpha)
                                      for pid in probe_ids(state.n_photons, dof)])
        joint, reads = run_parity_stage(joint, dof, _PROBES[dof], cfg)
        readouts += reads
        state = sign_basis_transform(joint.photon_state(), dof)
    return state, readouts


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


def hgsa_n_analyze(n: int, state: PhotonState,
                   cfg: RunConfig) -> tuple[HyperLabel, Transcript]:
    """Full N-photon analysis: each DOF's QND parity stage and rotation in
    turn (:func:`pre_detection`), then the sign readout.

    Returns the decoded canonical label and the run transcript.  Under the
    ideal model the label is exact for any hyperentangled GHZ-class product
    input, whichever detector branch fires.
    """
    if n < 2:
        raise ValueError(f"analysis needs at least 2 photons, got {n}")
    if state.n_photons != n:
        raise ValueError(f"state has {state.n_photons} photons, expected {n}")
    rotated, readouts = pre_detection(state, cfg)
    outcome = sample_outcome(rotated, stream(cfg.seed, "detection"))
    p_sign, s_sign = decode_signs(outcome)
    p_bits, s_bits = _decode_bits(readouts)
    label = HyperLabel(p_sign, p_bits, s_sign, s_bits)
    return label, Transcript(tuple(readouts), outcome, cfg)


# --- exhaustive verification -------------------------------------------------

class StateCheck(NamedTuple):
    """Per-input verification record: the decoded signature, how many
    detector branches the input has, whether every branch decoded right and,
    if not, the first invariant of :data:`_INVARIANTS` that broke."""

    label: str
    signature: tuple[int, ...]
    branches: int
    ok: bool
    broken: str = ""


#: What a verified input must satisfy, in the order a failure is named: the
#: separation check, then each DOF's point-mass readouts, bits and signs.
_INVARIANTS = ("separation", "P readout", "S readout", "P bits", "S bits",
               "P signs", "S signs")


class _DofCheck(NamedTuple):
    """One DOF's factor run: its probe magnitudes, how many detector
    branches it has, and the invariants that broke."""

    magnitudes: tuple[int, ...]
    support: int
    broken: frozenset[str]


def _run_dof(state: PhotonState, dof: str, cfg: RunConfig
             ) -> tuple[PhotonState, list[ProbeReadout], set[str]]:
    """``state`` through only ``dof``'s stages: the rotated state, the
    readouts and the signs its detector branches decode to in ``dof``."""
    rotated, readouts = pre_detection(state, cfg, dof)
    i = "PS".index(dof)
    return rotated, readouts, {decode_signs(o)[i]
                               for o in detection_distribution(rotated)}


def _check_factor(sign: str, bits: str, dof: str, cfg: RunConfig,
                  separated: bool) -> _DofCheck:
    rotated, readouts, signs = _run_dof(ghz_state(sign, bits, dof), dof, cfg)
    broken = {"separation": not separated,
              f"{dof} readout": any(r.classes != 1 for r in readouts),
              f"{dof} bits": _decode_bits(readouts)["PS".index(dof)] != bits,
              f"{dof} signs": signs != {sign}}
    # the other DOF is all 0s, so each branch is one string of this DOF
    return _DofCheck(tuple(r.magnitude for r in readouts), len(rotated),
                     frozenset(k for k, bad in broken.items() if bad))


def _separated(n: int, cfg: RunConfig) -> bool:
    """The separation check: each DOF's stages, run on joint inputs whose
    halves differ in sign and in every free bit, give the readouts and signs
    of that DOF's factor run, and the rotated state is the factor's rotated
    state tensored with the untouched other half."""
    # 0..0 and 01..1 differ in every free bit, so each DOF's half runs as
    # both, beside a half in which every photon takes both values
    for bits in ("0" * n, "0" + "1" * (n - 1)):
        for sign in "+-":
            halves = {"P": (sign, bits),
                      "S": ("-" if sign == "+" else "+", "0" + complement(bits[1:]))}
            joint = state_from_label(HyperLabel(*halves["P"], *halves["S"]))
            for dof in "PS":
                rotated, readouts, signs = _run_dof(joint, dof, cfg)
                parts = {d: ghz_state(*halves[d], d) for d in "PS"}
                parts[dof], f_readouts, f_signs = _run_dof(parts[dof], dof, cfg)
                try:  # a factor run that moved its other DOF is no factor
                    expected = hyper_product(parts["P"], parts["S"])
                except ValueError:
                    return False
                if ((readouts, signs) != (f_readouts, f_signs)
                        or not equal_up_to_global_phase(rotated, expected)):
                    return False
    return True


class NoiseStats(NamedTuple):
    """Sampled misclassification statistics under the gaussian model."""

    trials: int
    errors: int
    rate: float
    wilson_low: float
    wilson_high: float
    predicted: float
    per_state: dict[str, tuple[int, int]]  # literal -> (trials, errors)
    per_probe_flips: dict[str, int]  # probe id -> misreads drawn

    def to_json_dict(self) -> dict:
        return {"trials": self.trials, "errors": self.errors, "rate": self.rate,
                "wilson_low": self.wilson_low, "wilson_high": self.wilson_high,
                "predicted": self.predicted,
                "per_state": {k: {"trials": t, "errors": e}
                              for k, (t, e) in self.per_state.items()},
                "per_probe_flips": self.per_probe_flips}


class VerificationReport(NamedTuple):
    """What :func:`verify_complete` established: each DOF's factor runs,
    ``factors[dof][sign, bits]``.  Every count is derived from them."""

    n_photons: int
    model: HomodyneModel
    factors: dict[str, dict[tuple[str, str], _DofCheck]]
    noise: NoiseStats | None = None

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
        return self.correct == self.total_states

    @property
    def per_state(self) -> Iterator[StateCheck]:
        """The per-input records, built afresh on each read, in
        :func:`all_canonical_labels` order.  Each is assembled from the
        input's two factors: the signature is the polarization magnitudes
        then the spatial ones, ``branches`` the product of the two supports,
        and a failure names the first broken invariant of either factor."""
        p_checks, s_checks = self.factors["P"], self.factors["S"]
        bits = canonical_bit_strings(self.n_photons)
        for p_bits, s_bits, p_sign, s_sign in itertools.product(bits, bits, "+-", "+-"):
            p, s = p_checks[p_sign, p_bits], s_checks[s_sign, s_bits]
            broken = (min(p.broken | s.broken, key=_INVARIANTS.index)
                      if p.broken or s.broken else "")
            yield StateCheck(f"P:{p_sign}{p_bits};S:{s_sign}{s_bits}",
                             p.magnitudes + s.magnitudes,
                             p.support * s.support, not broken, broken)

    def to_json_dict(self) -> dict:
        out = {"n": self.n_photons, "total": self.total_states,
               "correct": self.correct, "groups": self.group_count,
               "model": self.model.value}
        if self.noise is not None:
            out["noise"] = self.noise.to_json_dict()
        return out


def wilson_interval(errors: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial rate (default 95%)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def predicted_error_rate(n: int, cfg: RunConfig) -> float:
    """Chance that at least one of the 2(n-1) probes misreads: the binomial
    composition of the per-probe gaussian error."""
    if cfg.model is not HomodyneModel.GAUSSIAN:
        return 0.0
    p = gaussian_error_prob(cfg.alpha, cfg.theta)
    return 1.0 - (1.0 - p) ** (2 * (n - 1))


def _misread_label(label: HyperLabel, readouts: Sequence[ProbeReadout],
                   pattern: Sequence[bool]) -> HyperLabel:
    """The label the analyser decodes when exactly the probes flagged in
    ``pattern`` (one flag per readout) misread: ``label``'s signs, with the
    bits of the reported magnitudes."""
    reported = [r._replace(magnitude=misread(r.magnitude)) if flip else r
                for r, flip in zip(readouts, pattern)]
    p_bits, s_bits = _decode_bits(reported)
    return label._replace(p_bits=p_bits, s_bits=s_bits)


def monte_carlo_misclassification(n: int, cfg: RunConfig) -> NoiseStats:
    """Analyse cfg.trials uniformly drawn canonical inputs under cfg.model
    and tally wrong labels, with a Wilson 95% interval, the analytic
    prediction and the misreads drawn per probe.

    A trial differs from the ideal analysis of its input only in which
    probes misread: every readout is a point mass, and every detector branch
    decodes to the same signs (what :func:`verify_complete` proves).  So
    each drawn input is analysed once under the ideal readout, and each
    distinct misread pattern of it is decoded once per chunk.  Inputs and
    misreads are drawn from two named streams in chunks of ``MC_CHUNK`` trials;
    chunked draws equal one draw of every trial, so the result does not
    depend on the chunk size and memory does not grow with the trial count.
    """
    check_photon_count(n, "Monte Carlo study")
    labels = all_canonical_labels(n)
    probes = probe_ids(n)
    err = (gaussian_error_prob(cfg.alpha, cfg.theta)
           if cfg.model is HomodyneModel.GAUSSIAN else 0.0)
    ideal = cfg._replace(model=HomodyneModel.IDEAL)

    def analyse(pick: int) -> tuple[HyperLabel, tuple[ProbeReadout, ...]]:
        label, transcript = hgsa_n_analyze(n, state_from_label(labels[pick]), ideal)
        readouts = transcript.probe_readouts
        if any(r.classes != 1 or misread(r.magnitude) is None for r in readouts):
            raise ValueError(f"{labels[pick].literal()}: a readout is not a point "
                             f"mass at magnitude 0 or 1, so its trials cannot "
                             f"share one analysis: {readouts}")
        return label, readouts

    pick_rng = stream(cfg.seed, "montecarlo:inputs")
    flip_rng = stream(cfg.seed, "montecarlo:misreads")
    analysed: dict[int, tuple[HyperLabel, tuple[ProbeReadout, ...]]] = {}
    trials_per = [0] * len(labels)
    errors_per = [0] * len(labels)
    flips_per = [0] * len(probes)
    for start in range(0, cfg.trials, MC_CHUNK):
        size = min(MC_CHUNK, cfg.trials - start)
        flags = iter([u < err for u in flip_rng.random(size * len(probes))])
        rows = zip(pick_rng.integers(0, len(labels), size), *[flags] * len(probes))
        for (pick, *pattern), count in Counter(rows).items():
            if pick not in analysed:
                analysed[pick] = analyse(pick)
            trials_per[pick] += count
            if _misread_label(*analysed[pick], pattern) != labels[pick]:
                errors_per[pick] += count
            flips_per = [f + count * flip for f, flip in zip(flips_per, pattern)]
    errors = sum(errors_per)
    low, high = wilson_interval(errors, cfg.trials)
    return NoiseStats(cfg.trials, errors, errors / cfg.trials, low, high,
                      predicted_error_rate(n, cfg),
                      {lab.literal(): (t, e) for lab, t, e in
                       zip(labels, trials_per, errors_per)},
                      dict(zip(probes, flips_per)))


def verify_complete(n: int, cfg: RunConfig | None = None) -> VerificationReport:
    """Check every canonical hyperentangled input: run the analyser's
    per-DOF pass (:func:`pre_detection`) and bit decoder on each one-DOF
    factor, walk every detector branch symbolically, and report the QND
    group partition.  What the analyser adds to that pass, running it for
    both DOFs in one call and assembling the label, is not run here; the
    tests cover it.

    An input is correct when every probe readout was a point mass, the
    readouts decode to its bits and every branch decodes to its signs.
    Those checks split by degree of freedom (see the module notes): the
    analyser runs once per (sign, bits) of each DOF through only that DOF's
    stages, and if :func:`_separated` finds a stage that reads or moves the
    other DOF, every input fails with ``separation``.  The report keeps the
    two tables of factor runs; the per-input records are assembled from
    them only when read (:attr:`VerificationReport.per_state`).  The
    exhaustive pass always uses the ideal readout; with
    ``cfg.model == gaussian`` a sampled noise study is attached on top.
    """
    check_photon_count(n, "verification")
    if cfg is None:
        cfg = RunConfig()
    ideal = cfg._replace(model=HomodyneModel.IDEAL)
    separated = _separated(n, ideal)
    factors = {dof: {(sign, bits): _check_factor(sign, bits, dof, ideal, separated)
                     for bits in canonical_bit_strings(n) for sign in "+-"}
               for dof in "PS"}
    noise = (monte_carlo_misclassification(n, cfg)
             if cfg.model is HomodyneModel.GAUSSIAN else None)
    return VerificationReport(n, cfg.model, factors, noise)


# --- table emission -----------------------------------------------------------

class SignatureRow(NamedTuple):
    """One QND group: its display bit pair, the four member state literals
    in sign order (+,+), (+,-), (-,+), (-,-), and the probe shift pattern
    (0 = no shift, 1 = a +-theta shift) for alpha then beta probes."""

    p_bits: str
    s_bits: str
    members: tuple[str, ...]
    shifts: tuple[int, ...]


class DetectionRow(NamedTuple):
    """One detector-parity group: its index, the sign pair, the member state
    literals, and the outcome token strings the group can produce."""

    group: int
    p_sign: str
    s_sign: str
    members: tuple[str, ...]
    outcomes: tuple[str, ...]


def display_bits(bits: str) -> str:
    """Display representative of a GHZ bit class: the lower-Hamming-weight
    of the string and its complement (ties keep the leading-0 form)."""
    comp = complement(bits)
    return comp if comp.count("1") < bits.count("1") else bits


_SIGN_ORDER = (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))


def _member_literal(p_sign: str, p_bits: str, s_sign: str, s_bits: str) -> str:
    return f"P:{p_sign}{display_bits(p_bits)};S:{s_sign}{display_bits(s_bits)}"


def emit_signature_table(n: int) -> list[SignatureRow]:
    """The probe-shift signature of every QND group, 4^(n-1) rows, ordered by
    (polarization, spatial) bit class."""
    check_photon_count(n, "signature table")
    rows = []
    for p_bits in canonical_bit_strings(n):
        for s_bits in canonical_bit_strings(n):
            members = tuple(_member_literal(ps, p_bits, ss, s_bits)
                            for ps, ss in _SIGN_ORDER)
            shifts = tuple(int(c) for c in p_bits[1:] + s_bits[1:])
            rows.append(SignatureRow(display_bits(p_bits), display_bits(s_bits),
                                     members, shifts))
    return rows


def emit_detection_table(n: int) -> list[DetectionRow]:
    """The four detector-parity groups with their members and outcome sets.

    The outcome set is computed by actually transforming one member of the
    group; it depends only on the sign pair.  No rotation couples the DOFs,
    so the member's rotated state is the product of its two rotated factors.
    """
    check_photon_count(n, "detection table")
    rows = []
    for gi, (p_sign, s_sign) in enumerate(_SIGN_ORDER, start=1):
        members = tuple(_member_literal(p_sign, pb, s_sign, sb)
                        for pb in canonical_bit_strings(n)
                        for sb in canonical_bit_strings(n))
        rotated = hyper_product(*(sign_basis_transform(ghz_state(sign, "0" * n, dof), dof)
                                  for sign, dof in ((p_sign, "P"), (s_sign, "S"))))
        support = detection_distribution(rotated)
        rows.append(DetectionRow(gi, p_sign, s_sign, members,
                                 tuple(outcome_tokens(o) for o in support)))
    return rows
