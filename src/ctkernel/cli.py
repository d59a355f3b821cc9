"""Command-line front end.

Subcommands::

    ctk eval  "<term>"                         evaluate to canonical form
    ctk check [--binary] "<term>" [: "<term>"] in "<type>"
    ctk enum  "<type>" --depth N               enumerate canonical witnesses
    ctk rule  "<rule>" | --file rules.txt      derivability vs admissibility
    ctk kripke model.txt --judgment "<j>" [--world w] [--check-monotone]

Exit codes: 0 success/verified, 1 parse or input error, 2 fuel
exhausted/diverged, 3 stuck, 4 refuted (or monotonicity counterexample),
5 unknown (bound exhausted / incomplete enumeration).
"""

from __future__ import annotations

import argparse
import sys

from .config import (
    DEFAULT_DEPTH, DEFAULT_FUEL, DEFAULT_INSTANCE_DEPTH, DEFAULT_SEARCH_DEPTH,
    RunConfig,
)

# Each command imports the modules it runs, so that a call loads only
# those: ``kripke`` never loads the checkers, nor ``eval`` the rule lab.

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DIVERGED = 2
EXIT_STUCK = 3
EXIT_REFUTED = 4
EXIT_UNKNOWN = 5

# exit code per verdict status, keyed by ``Status.value``
_STATUS_EXIT = {
    "verified": EXIT_OK,
    "refuted": EXIT_REFUTED,
    "unknown": EXIT_UNKNOWN,
    "diverged": EXIT_DIVERGED,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    common.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    common.add_argument("--search-depth", type=int, default=DEFAULT_SEARCH_DEPTH)
    common.add_argument("--machine", action="store_true",
                        help="emit one JSON document instead of text")

    parser = argparse.ArgumentParser(
        prog="ctk",
        description="semantic checker for a small computational type theory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a term")
    p_eval.add_argument("term")

    p_check = sub.add_parser(
        "check", parents=[common],
        help='membership: check "M" in "A"; equality: check --binary "M" : "N" in "A"',
    )
    p_check.add_argument("--binary", action="store_true")
    p_check.add_argument("query", nargs="+")

    p_enum = sub.add_parser("enum", parents=[common], help="enumerate canonical witnesses")
    p_enum.add_argument("type")

    p_rule = sub.add_parser("rule", parents=[common],
                            help="compare derivability and admissibility")
    p_rule.add_argument("rule", nargs="?")
    p_rule.add_argument("--file", help="rule file, one rule per blank-separated block")
    p_rule.add_argument(
        "--instance-depth", type=int, default=DEFAULT_INSTANCE_DEPTH,
        help="reported among the bounds; admissibility is exact over the "
             "True/False valuations, so it changes no verdict",
    )

    p_kripke = sub.add_parser("kripke", parents=[common], help="finite world-model forcing")
    p_kripke.add_argument("model")
    p_kripke.add_argument("--judgment", required=True)
    p_kripke.add_argument("--world")
    p_kripke.add_argument("--check-monotone", action="store_true")

    return parser


def _config(args) -> RunConfig:
    return RunConfig(
        fuel=args.fuel,
        depth=args.depth,
        search_depth=args.search_depth,
        output_mode="machine" if args.machine else "human",
    )


def _parse_term(text: str, role: str):
    from .syntax import parse
    from .terms import free_vars

    term = parse(text)
    fv = free_vars(term)
    if fv:
        print(
            f"warning: {role} has unbound variables: {', '.join(sorted(fv))}",
            file=sys.stderr,
        )
    return term


def _emit(out, cfg: RunConfig, command: str, verdict: str, payload, human,
          exit_code: int, **extra_cfg) -> int:
    """Print the result, as one JSON document or as text, and return the
    exit code.  ``payload()`` builds the document's trace and ``human()``
    the text; only the one printed is built."""
    if cfg.output_mode == "machine":
        print(_json_text({
            "command": command,
            "config": {"fuel": cfg.fuel, "depth": cfg.depth, "search_depth": cfg.search_depth,
                       **extra_cfg},
            "verdict": verdict,
            "trace": payload(),
        }), file=out)
    else:
        print(human(), file=out)
    return exit_code


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2)``, written by a loop over a stack: the
    standard encoder recurses about twice per trace level.  Keys are
    strings; each scalar, and each empty list or dict, is ``json.dumps``'s."""
    import json

    out, todo = [], [(doc, 0)]
    while todo:
        value, depth = todo.pop()
        if depth is None:  # literal text
            out.append(value)
        elif not (value and isinstance(value, (dict, list))):
            out.append(json.dumps(value))
        else:
            pad = "\n" + "  " * (depth + 1)
            if isinstance(value, dict):
                brackets, items = "{}", [(pad + json.dumps(k) + ": ", v) for k, v in value.items()]
            else:
                brackets, items = "[]", [(pad, v) for v in value]
            todo.append(("\n" + "  " * depth + brackets[1], None))
            for i, (text, v) in reversed(list(enumerate(items))):
                todo += [(v, depth + 1), (("," if i else brackets[0]) + text, None)]
    return "".join(out)


def _verdict_human(verdict) -> str:
    from .judgments import Status

    if verdict.status is Status.UNKNOWN:
        last = f"verdict: unknown (bound {verdict.bound} exhausted)"
    elif verdict.status is Status.DIVERGED:
        last = f"verdict: diverged ({verdict.fuel_report})"
    else:
        last = f"verdict: {verdict.status.value}"
    rendered = verdict.trace.render()
    return f"{rendered}\n{last}" if rendered else last


def _cmd_eval(args, cfg: RunConfig, out) -> int:
    from .evaluation import Canonical, FuelExhausted, evaluate
    from .syntax import pretty

    term = _parse_term(args.term, "term")
    result = evaluate(term, cfg.fuel)
    if isinstance(result, Canonical):
        text = pretty(result.term)
        return _emit(out, cfg, "eval", "canonical",
                     lambda: {"result": text, "steps": result.steps},
                     lambda: f"{text}\ncanonical ({result.steps} steps)", EXIT_OK)
    if isinstance(result, FuelExhausted):
        return _emit(out, cfg, "eval", "fuel-exhausted", lambda: {"remaining": result.remaining},
                     lambda: f"fuel exhausted after {cfg.fuel} steps at: {result.remaining}",
                     EXIT_DIVERGED)
    text = pretty(result.offending)
    return _emit(out, cfg, "eval", "stuck", lambda: {"offending": text},
                 lambda: f"stuck at: {text}", EXIT_STUCK)


def _split_check_query(query: list[str]):
    if "in" not in query:
        raise ValueError('check expects: <term> [: <term>] in <type>')
    idx = len(query) - 1 - query[::-1].index("in")
    lhs, type_parts = query[:idx], query[idx + 1:]
    if not lhs or not type_parts:
        raise ValueError('check expects: <term> [: <term>] in <type>')
    if ":" in lhs:
        c = lhs.index(":")
        left, right = lhs[:c], lhs[c + 1:]
        if not left or not right:
            raise ValueError('check expects: <term> : <term> in <type>')
        return " ".join(left), " ".join(right), " ".join(type_parts)
    return " ".join(lhs), None, " ".join(type_parts)


def _cmd_check(args, cfg: RunConfig, out) -> int:
    from .syntax import parse

    left_text, right_text, type_text = _split_check_query(args.query)
    if args.binary != (right_text is not None):
        raise ValueError("--binary requires two terms separated by ':' (and vice versa)")
    left = parse(left_text)
    ty = parse(type_text)
    if right_text is not None:
        from .binary import check_eq_member

        right = parse(right_text)
        verdict = check_eq_member(left, right, ty, cfg.fuel, cfg.depth)
    else:
        from .unary import check_member

        verdict = check_member(left, ty, cfg.fuel, cfg.depth)
    status = verdict.status.value
    return _emit(out, cfg, "check", status, verdict.trace.to_json,
                 lambda: _verdict_human(verdict), _STATUS_EXIT[status], binary=args.binary)


def _cmd_enum(args, cfg: RunConfig, out) -> int:
    from .syntax import parse, pretty
    from .unary import enumerate_canonical

    ty = parse(args.type)
    result = enumerate_canonical(ty, cfg.depth, cfg.fuel)
    if result.failure is not None:
        verdict = result.failure.status.value
        return _emit(out, cfg, "enum", verdict, lambda: {"witnesses": [], "complete": False},
                     lambda: f"enumeration failed: {verdict}", _STATUS_EXIT[verdict])
    verdict = "complete" if result.complete else "incomplete"
    witnesses = [pretty(w) for w in result.witnesses]
    return _emit(out, cfg, "enum", verdict,
                 lambda: {"witnesses": witnesses, "complete": result.complete},
                 lambda: "\n".join(witnesses + [verdict]),
                 EXIT_OK if result.complete else EXIT_UNKNOWN)


def _report_json(report) -> dict:
    from .rules import NotDerivable
    from .syntax import pretty

    adm = report.admissibility
    out = {
        "rule": report.rule.render(),
        "derivable": report.derivable,
        "admissible": adm.status.value,
        "flagged": report.flagged,
    }
    if isinstance(report.derivation, NotDerivable):
        out["exhausted"] = report.derivation.exhausted
        out["search_depth"] = report.derivation.at_depth
    if adm.bounds:
        out["bounds"] = dict(adm.bounds)
    if adm.instantiation:
        out["instantiation"] = {k: pretty(v) for k, v in adm.instantiation.items()}
        out["premise_witnesses"] = [pretty(w) for w in adm.premise_witnesses or ()]
    return out


def _cmd_rule(args, cfg: RunConfig, out) -> int:
    from .judgments import worst
    from .rules import compare_readings, parse_rule, parse_rule_file

    if bool(args.rule) == bool(args.file):
        raise ValueError("provide exactly one of an inline rule or --file")
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            schemes = parse_rule_file(fh.read())
        if not schemes:
            raise ValueError("no rules found in file")
    else:
        schemes = [parse_rule(args.rule)]
    reports = [
        compare_readings(
            scheme,
            search_depth=cfg.search_depth,
            instance_depth=args.instance_depth,
            witness_depth=cfg.depth,
            fuel=cfg.fuel,
        )
        for scheme in schemes
    ]
    status = worst(r.admissibility.status for r in reports).value
    return _emit(out, cfg, "rule", status,
                 lambda: ([_report_json(r) for r in reports] if len(reports) > 1
                          else _report_json(reports[0])),
                 lambda: "\n\n".join(r.render() for r in reports), _STATUS_EXIT[status],
                 instance_depth=args.instance_depth)


def _cmd_kripke(args, cfg: RunConfig, out) -> int:
    from . import worlds

    with open(args.model, "r", encoding="utf-8") as fh:
        model = worlds.parse_model(fh.read())
    judgment = worlds.parse_wjudgment(args.judgment)
    if args.check_monotone:
        counterexample = worlds.check_monotone(model, judgment)
        if counterexample is None:
            return _emit(out, cfg, "kripke", "pass", lambda: {"monotone": True},
                         lambda: "monotone: pass", EXIT_OK)
        u, v = counterexample
        return _emit(out, cfg, "kripke", "counterexample",
                     lambda: {"monotone": False, "at": [u, v]},
                     lambda: f"monotone: counterexample ({u} <= {v})", EXIT_REFUTED)
    if args.world is not None:
        forced = worlds.forces(model, args.world, judgment)
        verdict = "forced" if forced else "not-forced"
        return _emit(out, cfg, "kripke", verdict, lambda: {"world": args.world, "forced": forced},
                     lambda: f"{args.world}: {verdict}", EXIT_OK if forced else EXIT_REFUTED)
    forced = worlds._forcing(model, judgment)  # rejects an undeclared atom, worlds or none
    table = {w: w in forced for w in model.worlds}
    return _emit(out, cfg, "kripke", "report", lambda: {"forces": table},
                 lambda: "\n".join(f"{w}: {'forced' if ok else 'not-forced'}"
                                   for w, ok in table.items()), EXIT_OK)


_COMMANDS = {"eval": _cmd_eval, "check": _cmd_check, "enum": _cmd_enum,
             "rule": _cmd_rule, "kripke": _cmd_kripke}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args, _config(args), out)
    except (ValueError, OSError) as exc:  # ParseError, OpenTermError and ModelError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:  # a walk that still recurses met input deeper than the stack
        print("error: input nested too deep", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
