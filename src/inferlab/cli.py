"""Command line front end.

Exit codes: 0 when the run matches the stated expectation (checks hold, or
a witness was wanted and found), 1 when it does not, 2 for config, output
or protocol errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .adversary import (ADVERSARY_IDS, DEFAULT_BOUNDS, Bounds, OpponentError,
                        check_opponent, run_adversary)
from .catalog import LEARNER_IDS, learner
from .harness import (
    ConfigError,
    _adversary_row,
    demo_scenarios,
    exit_code,
    format_adversary_row,
    render_report,
    run_experiment,
    validate_config,
)
from .upset import combine, complement, parse, relate


def _cmd_check(args) -> int:
    try:
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: cannot read {args.config}: {exc}",
              file=sys.stderr)
        return 2
    cfg = validate_config(text)
    report = run_experiment(cfg)
    document = render_report(report, args.mode)
    out = args.output or cfg.output
    if out:
        try:
            Path(out).write_text(document)
        except OSError as exc:
            print(f"output error: cannot write {out}: {exc}", file=sys.stderr)
            return 2
        print(f"report written to {out}", file=sys.stderr)
    else:
        print(document, end="")
    return exit_code(report, cfg.expect)


def _cmd_adversary(args) -> int:
    try:
        bounds = Bounds(args.n_search, args.t_bound, args.rounds)
        check_opponent(args.id, learner(args.opponent).kind)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None
    witness = run_adversary(args.id, learner(args.opponent), bounds)
    row = _adversary_row(witness)
    print(format_adversary_row(row))
    found = witness.kind != "exhausted"
    if found and not row.verified:
        print("witness failed verification", file=sys.stderr)
        return 2
    return 0 if found == (args.expect == "witness") else 1


def _cmd_algebra(args) -> int:
    ops = args.operands
    arity = 1 if args.op == "complement" else 2
    try:
        if len(ops) != arity:
            raise ValueError(f"{args.op} takes {arity} operand"
                             f"{'s' if arity > 1 else ''}, got {len(ops)}")
        if args.op == "relate":
            print(relate(parse(ops[0]), parse(ops[1])).value)
        elif args.op == "complement":
            print(complement(parse(ops[0])))
        elif args.op == "member":
            if not (ops[1].isascii() and ops[1].isdigit()):
                raise ValueError("member takes a natural in decimal digits,"
                                 f" got {ops[1]!r}")
            print("yes" if parse(ops[0]).member(int(ops[1])) else "no")
        else:
            print(combine(args.op, parse(ops[0]), parse(ops[1])))
    except ValueError as exc:
        print(f"algebra error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_demo(args) -> int:
    scenarios = demo_scenarios()
    failures = 0
    for name, thunk in scenarios:
        holds, summary = thunk()
        failures += not holds
        print(f"{'ok  ' if holds else 'FAIL'} {name}: {summary}")
    print(f"{len(scenarios) - failures}/{len(scenarios)} scenarios hold")
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inferlab",
        description="run learners against informants and check restrictions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run an experiment config")
    check.add_argument("config", help="path to a JSON config")
    check.add_argument("--mode", choices=("text", "machine"), default="text")
    check.add_argument("--output", help="write the report here instead of "
                       "stdout (overrides the config)")
    check.set_defaults(func=_cmd_check)

    adv = sub.add_parser("adversary", help="run one separation game")
    adv.add_argument("id", choices=ADVERSARY_IDS)
    adv.add_argument("--opponent", required=True, choices=LEARNER_IDS)
    adv.add_argument("--n-search", type=int, default=DEFAULT_BOUNDS.n_search)
    adv.add_argument("--t-bound", type=int, default=DEFAULT_BOUNDS.t_bound)
    adv.add_argument("--rounds", type=int, default=DEFAULT_BOUNDS.rounds)
    adv.add_argument("--expect", choices=("witness", "exhausted"),
                     default="witness")
    adv.set_defaults(func=_cmd_adversary)

    algebra = sub.add_parser("algebra", help="set calculator in P|Q notation")
    algebra.add_argument("op", choices=("relate", "union", "intersection",
                                        "difference", "complement", "member"))
    algebra.add_argument("operands", nargs="+")
    algebra.set_defaults(func=_cmd_algebra)

    demo = sub.add_parser("demo", help="replay the named separation scenarios")
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except OpponentError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
