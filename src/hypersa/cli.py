"""Command-line surface: single analyses, exhaustive verification, table
emission and Monte Carlo noise studies.

Data goes to stdout, diagnostics (including the ``alpha * theta^2``
weak-probe feasibility figure) to stderr.  Exit codes: 0 success, 2 parse
or usage error, 3 photon-count guard violation.  Every flag can be
defaulted through an environment variable with the ``HYPERSA_`` prefix
(e.g. ``HYPERSA_THETA=0.02``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import protocols
from .kerr import HomodyneModel, gaussian_error_prob
from .optics import outcome_tokens
from .protocols import (PhotonCountError, RunConfig, check_photon_count,
                        hgsa_n_analyze, probe_ids)
from .states import HyperLabel, parse_state_literal, state_from_label

ENV_PREFIX = "HYPERSA_"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GUARD = 3


def _env(name: str, cast, fallback):
    """Flag default, overridable through HYPERSA_<NAME>.  Env values are
    cast here because argparse only casts values given on the command line."""
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(f"environment variable {ENV_PREFIX}{name}={raw!r} "
                         f"is not a valid {cast.__name__}") from None


def _choice(options: tuple[str, ...]):
    def cast(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"{raw!r} not in {options}")
        return raw
    cast.__name__ = f"choice{options}"
    return cast


MODELS = tuple(m.value for m in HomodyneModel)
FORMATS = ("text", "json", "csv")


def _common_flags() -> argparse.ArgumentParser:
    """The flags every subcommand takes, on a parent parser to share."""
    cfg = RunConfig()  # the defaults
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--n", type=int, default=_env("N", int, None),
                        help="photon count")
    parser.add_argument("--theta", type=float, default=_env("THETA", float, cfg.theta),
                        help="cross-Kerr phase shift per pass (radians)")
    parser.add_argument("--alpha", type=float, default=_env("ALPHA", float, cfg.alpha),
                        help="coherent probe amplitude")
    parser.add_argument("--model", choices=MODELS,
                        default=_env("MODEL", _choice(MODELS), cfg.model.value),
                        help="homodyne readout model")
    parser.add_argument("--trials", type=int, default=_env("TRIALS", int, cfg.trials),
                        help="Monte Carlo trial count")
    parser.add_argument("--seed", type=int, default=_env("SEED", int, cfg.seed),
                        help="master seed; all streams derive from it")
    parser.add_argument("--format", choices=FORMATS,
                        default=_env("FORMAT", _choice(FORMATS), "text"),
                        dest="fmt", help="output format")
    return parser


def _photon_count(command: str, n: int | None) -> int:
    """``n`` (2 when not given) within the guard; :func:`main` exits 3 if not."""
    return check_photon_count(2 if n is None else n, command)


def _config(args) -> RunConfig:
    try:
        return RunConfig(theta=args.theta, alpha=args.alpha, model=args.model,
                         trials=args.trials, seed=args.seed)
    except ValueError as exc:
        # RunConfig names the field first, and each field has a flag of that name
        raise ValueError(f"--{exc}") from None


def _feasibility_note(cfg: RunConfig) -> None:
    print(f"feasibility alpha*theta^2 = {cfg.feasibility():g} "
          "(weak-probe discrimination wants this large)", file=sys.stderr)


def _csv_writer():
    import csv  # only --format csv needs it
    return csv.writer(sys.stdout)


def _label_json(label: HyperLabel) -> dict:
    out = {"p_sign": label.p_sign, "p_bits": label.p_bits,
           "s_sign": label.s_sign, "s_bits": label.s_bits,
           "literal": label.literal()}
    names = label.bell_names()
    if names:
        out["bell"] = {"P": names[0], "S": names[1]}
    return out


def cmd_analyze(args) -> int:
    try:
        query = parse_state_literal(args.state, args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    n = _photon_count("analyze", query.n_photons)
    cfg = _config(args)
    _feasibility_note(cfg)
    label, transcript = hgsa_n_analyze(n, state_from_label(query), cfg)
    if args.fmt == "json":
        doc = transcript.to_json_dict()
        doc["label"] = _label_json(label)
        print(json.dumps(doc, allow_nan=False))
    elif args.fmt == "csv":
        writer = _csv_writer()
        writer.writerow(["label"] + [r.probe for r in transcript.probe_readouts]
                        + ["detection"])
        writer.writerow([label.literal()]
                        + [r.magnitude for r in transcript.probe_readouts]
                        + [outcome_tokens(transcript.detector_outcome)])
    else:
        names = label.bell_names()
        alias = f"  ({names[0]}_P {names[1]}_S)" if names else ""
        print(f"label: {label.literal()}{alias}")
        for r in transcript.probe_readouts:
            print(f"probe {r.probe}: magnitude {r.magnitude} p={r.p:g}")
        print(f"detection: {outcome_tokens(transcript.detector_outcome)}")
    return EXIT_OK


def _print_probe_misreads(stats: protocols.NoiseStats, cfg: RunConfig) -> None:
    """One line per probe: the misread rate drawn against the model's."""
    expected = gaussian_error_prob(cfg.alpha, cfg.theta)
    for probe, flips in stats.per_probe_flips.items():
        print(f"probe {probe}: misread rate {flips / stats.trials:.6f} "
              f"(gaussian_error_prob {expected:.6f})")


def cmd_verify(args) -> int:
    n = _photon_count("verify", args.n)
    cfg = _config(args)
    _feasibility_note(cfg)
    report = protocols.verify_complete(n, cfg)
    if args.fmt == "json":
        print(json.dumps(report.to_json_dict(), allow_nan=False))
    elif args.fmt == "csv":
        writer = _csv_writer()
        writer.writerow(["state"] + probe_ids(n) + ["branches", "ok"])
        for check in report.per_state:
            writer.writerow([check.label] + list(check.signature)
                            + [check.branches, int(check.ok)])
    else:
        print(f"n={report.n_photons} total={report.total_states} "
              f"correct={report.correct} groups={report.group_count} "
              f"model={report.model.value}")
        if report.noise is not None:
            ns = report.noise
            print(f"noise: rate={ns.rate:.6f} "
                  f"wilson95=[{ns.wilson_low:.6f}, {ns.wilson_high:.6f}] "
                  f"predicted={ns.predicted:.6f} trials={ns.trials}")
            _print_probe_misreads(ns, cfg)
        if not report.all_correct:
            for check in report.per_state:
                if not check.ok:
                    print(f"FAIL {check.label} signature={check.signature} "
                          f"broken={check.broken}")
    return EXIT_OK if report.all_correct else 1


def _signature_text(rows: list[protocols.SignatureRow], n: int) -> str:
    head = ["state".ljust(12)] + [p.ljust(8) for p in probe_ids(n)]
    lines = ["".join(head)]
    for row in rows:
        cells = [f"P:{row.p_bits};S:{row.s_bits}".ljust(12)]
        cells += [("±θ" if s else "0").ljust(8) for s in row.shifts]
        lines.append("".join(cells))
    return "\n".join(lines)


def _detection_text(rows: list[protocols.DetectionRow]) -> str:
    lines = ["group  signs  outcomes"]
    for row in rows:
        lines.append(f"{row.group}      ({row.p_sign},{row.s_sign})  "
                     + " | ".join(row.outcomes))
        lines.append(f"       states: {', '.join(row.members)}")
    return "\n".join(lines)


def cmd_tables(args) -> int:
    n = _photon_count("tables", args.n)
    cfg = _config(args)
    _feasibility_note(cfg)
    sig_rows = protocols.emit_signature_table(n)
    det_rows = protocols.emit_detection_table(n)
    if args.fmt == "json":
        print(json.dumps({
            "signature_table": [row._asdict() for row in sig_rows],
            "detection_table": [row._asdict() for row in det_rows],
        }, allow_nan=False))
    elif args.fmt == "csv":
        writer = _csv_writer()
        writer.writerow(["state"] + probe_ids(n))
        for row in sig_rows:
            writer.writerow([f"P:{row.p_bits};S:{row.s_bits}"]
                            + ["t" if s else "0" for s in row.shifts])
        print()
        writer.writerow(["group", "p_sign", "s_sign", "states", "outcomes"])
        for row in det_rows:
            writer.writerow([row.group, row.p_sign, row.s_sign,
                             " ".join(row.members), " | ".join(row.outcomes)])
    else:
        print(f"probe shift signatures ({len(sig_rows)} groups):")
        print(_signature_text(sig_rows, n))
        print()
        print(f"detector parity groups ({len(det_rows)}):")
        print(_detection_text(det_rows))
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    n = _photon_count("montecarlo", args.n)
    if args.model != HomodyneModel.GAUSSIAN.value:
        print("error: montecarlo requires --model gaussian", file=sys.stderr)
        return EXIT_PARSE
    cfg = _config(args)
    _feasibility_note(cfg)
    stats = protocols.monte_carlo_misclassification(n, cfg)
    per_probe = gaussian_error_prob(cfg.alpha, cfg.theta)
    if args.fmt == "json":
        print(json.dumps({"n": n, "per_probe_error": per_probe,
                          **stats.to_json_dict()}, allow_nan=False))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersa",
        description="Hyperentangled Bell/GHZ state analysis simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()
    for name, help_, func in (
            ("analyze", "analyze one hyperentangled input", cmd_analyze),
            ("verify", "exhaustively verify all 4^n inputs", cmd_verify),
            ("tables", "emit signature and detection tables", cmd_tables),
            ("montecarlo", "sampled noise study (gaussian model)", cmd_montecarlo)):
        command = sub.add_parser(name, help=help_, parents=[common])
        if func is cmd_analyze:
            command.add_argument("state", help="state literal, e.g. 'P:+00;S:-01'")
        command.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except ValueError as exc:  # bad environment override
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except PhotonCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
