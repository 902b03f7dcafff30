"""The Monte Carlo noise study: misclassification under the gaussian
homodyne model, against the analytic prediction.

The study runs the analyser's own code: the analysis, the bit decoder and
the named streams, each called through the :mod:`hypersa.protocols` module
object.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple, Sequence

from . import protocols, states
from .kerr import ProbeReadout, misread
from .protocols import HomodyneModel, RunConfig, check_photon_count, probe_ids
from .states import HyperLabel, _check_photon_count, _checked_int, all_canonical_labels

MC_CHUNK = 1 << 14  # Monte Carlo trials drawn at once; bounds its draw lists
_Z95 = 1.96  # the normal quantile of a two-sided 95% interval


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
        return {**self._asdict(), "per_state": {k: {"trials": t, "errors": e}
                                                for k, (t, e) in self.per_state.items()}}


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """Wilson score interval (95%) for a binomial rate."""
    trials = _checked_int("trials", trials, "an integer in [1, inf]", 1)
    errors = _checked_int("errors", errors, f"an integer in [0, {trials}]", 0, trials)
    z, p = _Z95, errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def predicted_error_rate(n: int, cfg: RunConfig) -> float:
    """Chance that at least one of the 2(n-1) probes misreads: the binomial
    composition of :meth:`RunConfig.misread_prob` (0.0 under ideal)."""
    n = _check_photon_count(n)
    return 1.0 - (1.0 - cfg.misread_prob()) ** (2 * (n - 1))


def _misread_label(label: HyperLabel, readouts: Sequence[ProbeReadout],
                   pattern: Sequence[bool]) -> HyperLabel:
    """The label the analyser decodes when exactly the probes flagged in
    ``pattern`` (one flag per readout) misread: ``label``'s signs, with the
    bits of the reported magnitudes."""
    reported = [r._replace(magnitude=misread(r.magnitude)) if flip else r
                for r, flip in zip(readouts, pattern)]
    p_bits, s_bits = protocols._decode_bits(reported)
    return label._replace(p_bits=p_bits, s_bits=s_bits)


def monte_carlo_misclassification(n: int, cfg: RunConfig) -> NoiseStats:
    """Analyse cfg.trials uniformly drawn canonical inputs under cfg.model
    and tally wrong labels, with a Wilson 95% interval, the analytic
    prediction and the misreads drawn per probe.

    A trial differs from the ideal analysis of its input only in which
    probes misread: every readout is a point mass, and every detector branch
    decodes to the same signs (what :func:`~hypersa.verifier.verify_complete`
    proves).  So each drawn input is analysed once under the ideal readout,
    and each distinct misread pattern of it is decoded once per chunk.
    Inputs and misreads are drawn from two named streams in chunks of
    :data:`hypersa.noise.MC_CHUNK` trials; chunked draws equal one draw
    of every trial, so the result does not depend on the chunk size.  The
    chunks bound the draw lists and the rows counted at once; the analyses
    kept per drawn input grow with the distinct inputs drawn, up to 4^n.
    """
    check_photon_count(n, "Monte Carlo study")
    labels = all_canonical_labels(n)
    probes = probe_ids(n)
    err = cfg.misread_prob()
    ideal = cfg._replace(model=HomodyneModel.IDEAL)

    def analyse(pick: int) -> tuple[HyperLabel, tuple[ProbeReadout, ...]]:
        state = states.state_from_label(labels[pick])
        label, transcript = protocols.hgsa_n_analyze(state, ideal)
        readouts = transcript.probe_readouts
        if any(r.classes != 1 or misread(r.magnitude) is None for r in readouts):
            raise ValueError(f"{labels[pick].literal()}: a readout is not a point "
                             f"mass at magnitude 0 or 1, so its trials cannot "
                             f"share one analysis: {readouts}")
        return label, readouts

    pick_rng = protocols.stream(cfg.seed, "montecarlo:inputs")
    flip_rng = protocols.stream(cfg.seed, "montecarlo:misreads")
    analysed: dict[int, tuple[HyperLabel, tuple[ProbeReadout, ...]]] = {}
    trials_per = [0] * len(labels)
    errors_per = [0] * len(labels)
    flips_per = [0] * len(probes)
    for start in range(0, cfg.trials, MC_CHUNK):
        size = min(MC_CHUNK, cfg.trials - start)
        flags = iter([flip_rng.random() < err for _ in range(size * len(probes))])
        picks = [pick_rng.randrange(len(labels)) for _ in range(size)]
        rows = zip(picks, *[flags] * len(probes))
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


def _print_probe_misreads(stats: NoiseStats, cfg: RunConfig) -> None:
    """One line per probe: the misread rate drawn against the model's."""
    expected = cfg.misread_prob()
    for probe, flips in stats.per_probe_flips.items():
        print(f"probe {probe}: misread rate {flips / stats.trials:.6f} "
              f"(gaussian_error_prob {expected:.6f})")


def cmd_montecarlo(args) -> int:
    """``hypersa montecarlo``: the study as text, JSON or one CSV row per input."""
    from .cli import EXIT_OK, _config, _csv_writer, _photon_count, _print_json
    n = _photon_count("montecarlo", args.n)
    if args.model != HomodyneModel.GAUSSIAN.value:
        raise ValueError("montecarlo requires --model gaussian")  # exit 2
    cfg = _config(args)
    # through protocols, where the package's callers (and tracers) find it
    stats = protocols.monte_carlo_misclassification(n, cfg)
    per_probe = cfg.misread_prob()
    if args.fmt == "json":
        _print_json({"n": n, "per_probe_error": per_probe, **stats.to_json_dict()})
    elif args.fmt == "csv":
        writer = _csv_writer()
        writer.writerow(["state", "trials", "errors", "rate"])
        for literal, (t, e) in sorted(stats.per_state.items()):
            writer.writerow([literal, t, e, f"{e / t:.6f}" if t else ""])
        writer.writerow(["TOTAL", stats.trials, stats.errors, f"{stats.rate:.6f}"])
    else:
        print(f"trials: {stats.trials}")
        print(f"aggregate error rate: {stats.rate:.6f} "
              f"wilson95=[{stats.wilson_low:.6f}, {stats.wilson_high:.6f}]")
        print(f"predicted: {stats.predicted:.6f} "
              f"(per-probe {per_probe:.6f} over {2 * (n - 1)} probes)")
        _print_probe_misreads(stats, cfg)
    return EXIT_OK
