"""Command-line surface: single analyses, exhaustive verification, table
emission and Monte Carlo noise studies.  This module holds the parser, the
helpers every subcommand shares and ``analyze``; each other subcommand's
handler lives with the code it runs (:data:`COMMANDS`) and is imported only
when that subcommand runs.

Data goes to stdout, diagnostics (including the ``alpha * theta^2``
weak-probe feasibility figure) to stderr.  Exit codes: 0 success, 2 parse
or usage error, 3 photon-count guard violation; a closed stdout pipe ends
the process by SIGPIPE.  Every flag can be defaulted through an environment
variable with the ``HYPERSA_`` prefix (e.g. ``HYPERSA_THETA=0.02``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .optics import outcome_tokens
from .protocols import (HomodyneModel, PhotonCountError, RunConfig, check_photon_count,
                        hgsa_n_analyze)
from .states import HyperLabel, parse_state_literal, state_from_label

ENV_PREFIX = "HYPERSA_"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GUARD = 3


def _env(name: str, cast, fallback):
    """Flag default, overridable through HYPERSA_<NAME>; ``cast`` is the flag's
    type or choices.  argparse checks only values given as flags, so env values
    are checked here, and a bad one is worded as argparse words it as a flag."""
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    if isinstance(cast, tuple):
        if raw in cast:
            return raw
        problem = f"invalid choice: {raw!r} (choose from {', '.join(map(repr, cast))})"
    else:
        try:
            return cast(raw)
        except ValueError:
            problem = f"invalid {cast.__name__} value: {raw!r}"
    raise ValueError(f"environment variable {ENV_PREFIX}{name}={raw!r}: {problem}")


MODELS = tuple(m.value for m in HomodyneModel)
FORMATS = ("text", "json", "csv")

#: Subcommand -> (help line, module whose ``cmd_<subcommand>`` runs it).
COMMANDS = {"analyze": ("analyze one hyperentangled input", "cli"),
            "verify": ("exhaustively verify all 4^n inputs", "verifier"),
            "tables": ("emit signature and detection tables", "tables"),
            "montecarlo": ("sampled noise study (gaussian model)", "noise")}


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
                        default=_env("MODEL", MODELS, cfg.model.value),
                        help="homodyne readout model")
    parser.add_argument("--trials", type=int, default=_env("TRIALS", int, cfg.trials),
                        help="Monte Carlo trial count")
    parser.add_argument("--seed", type=int, default=_env("SEED", int, cfg.seed),
                        help="master seed; all streams derive from it")
    parser.add_argument("--format", choices=FORMATS,
                        default=_env("FORMAT", FORMATS, "text"),
                        dest="fmt", help="output format")
    return parser


def _photon_count(command: str, n: int | None) -> int:
    """``n`` (2 when not given) within the guard; :func:`main` exits 3 if not."""
    return check_photon_count(2 if n is None else n, command)


def _config(args) -> RunConfig:
    """The flags' config; its weak-probe feasibility figure ``alpha * theta**2``
    goes to stderr (magnitude discrimination is reliable when it is large)."""
    try:
        cfg = RunConfig(theta=args.theta, alpha=args.alpha, model=args.model,
                        trials=args.trials, seed=args.seed)
    except ValueError as exc:
        # RunConfig names the field first, and each field has a flag of that name
        raise ValueError(f"--{exc}") from None
    print(f"feasibility alpha*theta^2 = {cfg.alpha * cfg.theta ** 2:g} "
          "(weak-probe discrimination wants this large)", file=sys.stderr)
    return cfg


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, allow_nan=False))


def _csv_writer():
    import csv  # only --format csv needs it
    return csv.writer(sys.stdout)


def _label_json(label: HyperLabel) -> dict:
    out = {**label._asdict(), "literal": label.literal()}
    names = label.bell_names()
    if names:
        out["bell"] = {"P": names[0], "S": names[1]}
    return out


def cmd_analyze(args) -> int:
    if args.n is not None:  # an --n outside the guard exits 3 before the literal is read
        _photon_count("analyze", args.n)
    query = parse_state_literal(args.state, args.n)  # main exits 2 on its ValueError
    _photon_count("analyze", query.n_photons)
    cfg = _config(args)
    label, transcript = hgsa_n_analyze(state_from_label(query), cfg)
    if args.fmt == "json":
        doc = transcript.to_json_dict()
        doc["label"] = _label_json(label)
        _print_json(doc)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersa",
        description="Hyperentangled Bell/GHZ state analysis simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()
    for name, (help_, _) in COMMANDS.items():
        command = sub.add_parser(name, help=help_, parents=[common])
        if name == "analyze":
            command.add_argument("state", help="state literal, e.g. 'P:+00;S:-01'")
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
    # the handler's module, imported on this first use
    home = getattr(sys.modules[__package__], COMMANDS[args.command][1])
    try:
        return getattr(home, f"cmd_{args.command}")(args)
    except PhotonCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def _watched() -> bool:
    """Whether a tracer, profiler or debugger watches this process: through
    ``sys.settrace``/``sys.setprofile``, or (3.12+) a ``sys.monitoring`` tool,
    as cProfile and coverage's sysmon core are there."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or monitoring is not None
            and any(monitoring.get_tool(i) is not None for i in range(6)))


def entry() -> None:
    """Console-script hook: run :func:`main`, flush stdout and stderr, and end
    the process with ``os._exit``.  That skips interpreter teardown (module
    teardown and the final collections), about 10 ms of a call on a 2-CPU
    Linux machine with Python 3.11.  What is given up: atexit handlers and
    finalizers of other code do not run.  The CLI opens no files, starts no
    threads and registers no atexit handler.  Under a tracer, profiler or
    debugger (``python -m cProfile -m hypersa.cli``, pdb, coverage) the
    process exits normally, so their reports are written; so does an
    exception that escapes :func:`main`."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here at the latest
        sys.stderr.flush()
    except BrokenPipeError:  # the reader left (`| head`): die by SIGPIPE, as filters do
        import signal
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGPIPE)
    if not _watched():
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    # run as -m: the dispatch in main and the handlers' `from .cli import`
    # then find this module, not a second copy of it.  Under a runner that
    # keeps its own __main__ (python -m cProfile -m), they import hypersa.cli
    if vars(sys.modules[__name__]) is globals():
        sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    entry()
