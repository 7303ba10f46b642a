"""Command-line entry points.

Exit codes are frozen for CI: 0 = UNSAT (safe), 1 = SAT (counterexample),
2 = UNKNOWN, 3 = usage or parse error or an unwritable output path,
4 = oracle cap exceeded, 5 = an internal fault (an exception that escapes
a command, such as `lp.SelfCheckFailed`), reported as one
`error: <type>: <message>` line on stderr and never as a verdict.
Counters are printed as key=value lines for machine parsing.

The command line is parsed by one table, `COMMANDS`: a command, then its
positionals and its flags in any order.  A flag is spelled out in full and
takes one value, as `--flag VALUE` or `--flag=VALUE`; the last of a
repeated flag wins, `--` ends the flags, and `-h`/`--help` prints the usage.
"""

from __future__ import annotations

import re
import sys
from typing import Callable, NamedTuple

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
    loaded = _load(args["problem"])
    if loaded is None:
        return EXIT_USAGE
    raw, (net, region, prop) = loaded
    config = Config(
        max_depth=args["--max-depth"],
        lp_budget=args["--lp-budget"],
        gate_budget=args["--gate-budget"],
        templates=args["--templates"],
    )
    driver = hsrv_verify if args["--strategy"] == "hsrv" else icl_verify
    result = driver(net, region, prop, config)
    if result.budget is not None:
        _print_counters(result.budget)
    if result.status == "unsat":
        # built before the verdict line, so a fault in `emit` prints none
        proof = args["--emit-proof"] and prooflog.emit(result.tree, prooflog.problem_digest(raw))
        print("UNSAT")
        if proof and not _write(args["--emit-proof"], "wb", proof):
            return EXIT_USAGE
        return EXIT_UNSAT
    if result.status == "sat":
        witness = [format_rational(v) for v in result.witness]
        print(f"SAT witness=[{', '.join(witness)}]")
        if args["--witness"] and not _write(args["--witness"], "w", "\n".join(witness) + "\n"):
            return EXIT_USAGE
        return EXIT_SAT
    print(f"UNKNOWN reason={result.reason}")
    return EXIT_UNKNOWN


def cmd_check(args) -> int:
    loaded = _load(args["problem"])
    if loaded is None:
        return EXIT_USAGE
    raw, problem = loaded
    try:
        with open(args["proof"], "rb") as fh:
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
    loaded = _load(args["problem"])
    if loaded is None:
        return EXIT_USAGE
    _, (net, region, prop) = loaded
    try:
        result = oracle_verify(net, region, prop, cap=args["--cap"])
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


def _count(text: str) -> int:
    """A nonnegative integer flag value."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not an integer") from None
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


class Command(NamedTuple):
    """A command: its handler, which takes the parsed arguments as one dict
    keyed by positional name and by flag, its positionals in order, and its
    flags, each mapped to its choices (a tuple) or to its converter (which
    raises ValueError), and to its default."""
    run: Callable[[dict], int]
    summary: str
    positionals: tuple[str, ...]
    flags: dict


COMMANDS = {
    "verify": Command(cmd_verify, "decide a safety query", ("problem",), {
        "--strategy": (("icl", "hsrv"), "icl"),
        "--emit-proof": (str, None),
        "--witness": (str, None),
        "--max-depth": (_count, 64),
        "--lp-budget": (_count, None),
        "--gate-budget": (_count, None),
        "--templates": (("default", "margin-only"), "default"),
    }),
    "check": Command(cmd_check, "replay a proof log", ("problem", "proof"), {}),
    "oracle": Command(cmd_oracle, "ground truth by exhaustive enumeration", ("problem",),
                      {"--cap": (_count, 12)}),
}

_HELP = ("-h", "--help")
_METAVAR = {str: "PATH", _count: "N"}
#: a token that starts with `-` and is still a value, not a flag
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


class _Usage(Exception):
    """The command line ends at its usage text: asked for by `-h`/`--help`
    (`error` None) or after a usage error.  `command` names the command
    whose usage is shown, None for every command."""

    def __init__(self, command: str | None = None, error: str | None = None):
        super().__init__(error)
        self.command = command
        self.error = error


def _usage(name: str | None) -> str:
    """The usage of one command, or of every command, and what each does."""
    names = [name] if name else list(COMMANDS)
    lines, about = [], []
    for n in names:
        command = COMMANDS[n]
        words = [n, *(p.upper() for p in command.positionals)]
        for flag, (kind, _) in command.flags.items():
            value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else _METAVAR[kind]
            words.append(f"[{flag} {value}]")
        lines.append(("       " if lines else "usage: ") + "relucert " + " ".join(words))
        about.append(f"  {n:<8}{command.summary}")
    return "\n".join(lines + [""] + about)


def _is_flag(token: str) -> bool:
    """Whether a token is a flag: `-` alone, a negative number and a token
    with a space in it are values."""
    return (token[:1] == "-" and len(token) > 1 and " " not in token
            and not _NEGATIVE.fullmatch(token))


def _parse(argv) -> tuple[Command, dict]:
    """The command `argv` names, and its arguments: each positional by name
    and each flag by itself, at its default where `argv` does not set it."""
    if not argv or argv[0] not in COMMANDS:
        if argv and argv[0] in _HELP:
            raise _Usage()
        raise _Usage(error=f"unknown command {argv[0]!r}" if argv else "no command given")
    name = argv[0]
    command = COMMANDS[name]
    args = {flag: default for flag, (_, default) in command.flags.items()}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            positionals.extend(tokens)
        elif not _is_flag(token):
            positionals.append(token)
        elif token in _HELP:
            raise _Usage(name)
        else:
            flag, eq, value = token.partition("=")
            if flag not in command.flags:
                raise _Usage(name, f"unknown flag {flag}")
            if not eq:
                value = next(tokens, None)
                if value is None or _is_flag(value):
                    raise _Usage(name, f"argument {flag}: expected a value")
            kind = command.flags[flag][0]
            if isinstance(kind, tuple):
                if value not in kind:
                    raise _Usage(name, f"argument {flag}: invalid choice {value!r} "
                                       f"(choose from {', '.join(kind)})")
            else:
                try:
                    value = kind(value)
                except ValueError as exc:
                    raise _Usage(name, f"argument {flag}: {exc}") from None
            args[flag] = value
    wanted = command.positionals
    if len(positionals) < len(wanted):
        missing = " ".join(p.upper() for p in wanted[len(positionals):])
        raise _Usage(name, f"{name}: missing {missing}")
    if len(positionals) > len(wanted):
        raise _Usage(name, f"{name}: unexpected argument {positionals[len(wanted)]!r}")
    args.update(zip(wanted, positionals))
    return command, args


def main(argv=None) -> int:
    """Run one command.  Its numbers have no length limit: CPython's limit
    on int <-> str conversion (4,300 digits) is lifted while the command
    runs and restored when it returns."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _command(sys.argv[1:] if argv is None else argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _command(argv) -> int:
    try:
        command, args = _parse(argv)
    except _Usage as stop:
        if stop.error is None:
            print(_usage(stop.command))
            return 0
        print(f"error: {stop.error}", file=sys.stderr)
        print(_usage(stop.command), file=sys.stderr)
        return EXIT_USAGE
    try:
        return command.run(args)
    except Exception as exc:  # a fault, which must not read as a verdict
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
