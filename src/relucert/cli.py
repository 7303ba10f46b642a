"""Command-line entry points.

Exit codes are frozen for CI: 0 = UNSAT (safe), 1 = SAT (counterexample),
2 = UNKNOWN, 3 = usage or parse error or an unwritable output path,
4 = oracle cap exceeded, 5 = an internal fault (an exception that escapes
a command, such as `lp.SelfCheckFailed`), reported as one
`error: <type>: <message>` line on stderr and never as a verdict.
Counters are printed as key=value lines for machine parsing.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .model import ParseError, DimensionError, format_rational, parse_problem
from .search import CapExceeded, Config, hsrv_verify, icl_verify, oracle_verify
from . import prooflog

EXIT_UNSAT = 0
EXIT_SAT = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_CAP = 4
EXIT_FAULT = 5


def _load(path):
    """The problem file's bytes, read once, and the problem they give: a
    proof's digest is taken of the bytes parsed.  None, with the error
    reported, if the file cannot be read or parsed."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return raw, parse_problem(raw)
    except (OSError, ParseError, DimensionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _write(path, mode, data) -> bool:
    try:
        with open(path, mode) as fh:
            fh.write(data)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _print_counters(budget):
    for key, value in budget.counters().items():
        print(f"{key}={value}")


def cmd_verify(args) -> int:
    loaded = _load(args.problem)
    if loaded is None:
        return EXIT_USAGE
    raw, (net, region, prop) = loaded
    config = Config(
        max_depth=args.max_depth,
        lp_budget=args.lp_budget,
        gate_budget=args.gate_budget,
        templates=args.templates,
    )
    driver = hsrv_verify if args.strategy == "hsrv" else icl_verify
    result = driver(net, region, prop, config)
    if result.budget is not None:
        _print_counters(result.budget)
    if result.status == "unsat":
        # built before the verdict line, so a fault in `emit` prints none
        proof = args.emit_proof and prooflog.emit(result.tree, prooflog.problem_digest(raw))
        print("UNSAT")
        if proof and not _write(args.emit_proof, "wb", proof):
            return EXIT_USAGE
        return EXIT_UNSAT
    if result.status == "sat":
        witness = [format_rational(v) for v in result.witness]
        print(f"SAT witness=[{', '.join(witness)}]")
        if args.witness and not _write(args.witness, "w", "\n".join(witness) + "\n"):
            return EXIT_USAGE
        return EXIT_SAT
    print(f"UNKNOWN reason={result.reason}")
    return EXIT_UNKNOWN


def cmd_check(args) -> int:
    loaded = _load(args.problem)
    if loaded is None:
        return EXIT_USAGE
    raw, problem = loaded
    try:
        with open(args.proof, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outcome = prooflog.check_proof(problem, data, prooflog.problem_digest(raw))
    if outcome.accepted:
        print("ACCEPT")
        return 0
    print(f"REJECT path={outcome.path} reason={outcome.reason}")
    return 1


def cmd_oracle(args) -> int:
    loaded = _load(args.problem)
    if loaded is None:
        return EXIT_USAGE
    _, (net, region, prop) = loaded
    try:
        result = oracle_verify(net, region, prop, cap=args.cap)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    if result.budget is not None:
        _print_counters(result.budget)
    if result.status == "unsat":
        print("UNSAT")
        return EXIT_UNSAT
    witness = [format_rational(v) for v in result.witness]
    print(f"SAT witness=[{', '.join(witness)}]")
    return EXIT_SAT


def nonnegative_int(text: str) -> int:
    """A nonnegative integer option value."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relucert",
        description="Certificate-carrying safety verification of ReLU networks "
                    "over box input domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="decide a safety query")
    verify.add_argument("problem")
    verify.add_argument("--strategy", choices=("icl", "hsrv"), default="icl")
    verify.add_argument("--emit-proof", metavar="PATH")
    verify.add_argument("--witness", metavar="PATH")
    verify.add_argument("--max-depth", type=nonnegative_int, default=64)
    verify.add_argument("--lp-budget", type=nonnegative_int, default=None)
    verify.add_argument("--gate-budget", type=nonnegative_int, default=None)
    verify.add_argument("--templates", choices=("default", "margin-only"),
                        default="default")
    verify.set_defaults(func=cmd_verify)

    check = sub.add_parser("check", help="replay a proof log")
    check.add_argument("problem")
    check.add_argument("proof")
    check.set_defaults(func=cmd_check)

    oracle = sub.add_parser("oracle", help="ground truth by exhaustive enumeration")
    oracle.add_argument("problem")
    oracle.add_argument("--cap", type=nonnegative_int, default=12)
    oracle.set_defaults(func=cmd_oracle)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused: parsing keeps no state."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else 0
    try:
        return args.func(args)
    except Exception as exc:  # a fault, which must not read as a verdict
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
