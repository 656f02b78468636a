"""Command-line interface: run circuit files or built-in examples."""

from __future__ import annotations

import argparse
import os
import sys

from .assertions import DEFAULT_ALPHA, ProgramConfig
from .errors import QAssertError
from .examples import build_example, builtin_examples
from .parser import parse_circuit
from .runner import render_report, run_program
from .stats import DEFAULT_RESAMPLES


def _default_seed() -> int:
    env = os.environ.get("QASSERT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"QASSERT_SEED must be an integer, got {env!r}") from None
    return 0


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shots", type=int, default=None,
                        help="override the shot count for every checkpoint")
    parser.add_argument("--seed", type=int, default=None,
                        help="base random seed (default: $QASSERT_SEED or 0)")
    parser.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                        help="default critical p-value (default: %(default)s)")
    parser.add_argument("--resamples", type=int, default=DEFAULT_RESAMPLES,
                        help="Monte Carlo resamples for product checkpoints "
                             "(default: %(default)s)")
    parser.add_argument("--legacy-chisq", action="store_true",
                        help="route product checkpoints through the add-1 "
                             "chi-square baseline (comparison only)")
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        dest="fmt", help="report format (default: text)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qassert",
        description="Run circuits with statistical assertion checkpoints.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="run a circuit file")
    run_cmd.add_argument("file", help="circuit file path")
    _add_run_flags(run_cmd)

    example_cmd = sub.add_parser("example", help="run a built-in example")
    example_cmd.add_argument("name", help="example name (see list-examples)")
    example_cmd.add_argument("--secret", default=None,
                             help="secret bitstring (bv example)")
    example_cmd.add_argument("--input", default=None, dest="input_bits",
                             help="input bitstring (qft example)")
    example_cmd.add_argument("--inject-bug", default=None,
                             help="inject a named bug into the example")
    _add_run_flags(example_cmd)

    sub.add_parser("list-examples", help="list built-in examples")
    return parser


def _config_from_args(args: argparse.Namespace) -> ProgramConfig:
    seed = args.seed if args.seed is not None else _default_seed()
    return ProgramConfig(shots=args.shots, seed=seed, alpha=args.alpha,
                         resamples=args.resamples,
                         legacy_chisq=args.legacy_chisq)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-examples":
        for example in builtin_examples().values():
            extras = ""
            if example.params:
                extras += " params: " + ", ".join(f"--{p}" for p in example.params)
            if example.bugs:
                extras += " bugs: " + ", ".join(example.bugs)
            print(f"{example.name:10s} {example.description}{extras}")
        return 0

    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "run":
            with open(args.file, encoding="utf-8") as handle:
                circuit = parse_circuit(handle.read())
        else:
            circuit = build_example(args.name, secret=args.secret,
                                    input_bits=args.input_bits,
                                    inject_bug=args.inject_bug)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QAssertError, KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2

    report = run_program(circuit, config)
    sys.stdout.write(render_report(report, args.fmt))
    return report.exit_status()


if __name__ == "__main__":
    sys.exit(main())
