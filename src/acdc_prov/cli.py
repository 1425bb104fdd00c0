"""Command-line interface for checking provenance policies.

Graph, policy and environment arguments are paths; names that do not
resolve directly are looked up in the built-in corpus directory (or the
directory named by the ACDC_CORPUS_DIR environment variable). Exit codes:
0 for satisfied/clean/all-as-expected, 1 for violated/invalid/mismatch,
2 for unusable input, including input nested too deeply to process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .evaluator import EvaluationError, evaluate
from .events import EventError, extract_event, slice_by_agent
from .graph import GraphError
from .policy import Environment, PolicyError, bind, parse_policy
from .scenarios import SCENARIO_NAMES, _CORPUS, run_scenario
from .storage import (
    MalformedDocumentError,
    load_environment,
    load_graph,
    load_graph_unchecked,
    save_graph,
    verdict_to_dict,
)

__all__ = ["main", "build_parser", "corpus_dir"]

_CORPUS_DIR_VAR = "ACDC_CORPUS_DIR"


def corpus_dir() -> Path:
    """The directory searched for graph/policy/environment names."""
    override = os.environ.get(_CORPUS_DIR_VAR)
    if override:
        return Path(override)
    return Path(str(_CORPUS))


def _resolve(argument: str) -> Path:
    path = Path(argument)
    if path.exists():
        return path
    fallback = corpus_dir() / argument
    if fallback.exists():
        return fallback
    raise FileNotFoundError(
        f"no such file: {argument} (also looked under {corpus_dir()})"
    )


def cmd_check(args: argparse.Namespace) -> int:
    graph = load_graph(_resolve(args.graph).read_bytes())
    if args.slice:
        graph = slice_by_agent(graph, args.slice)
    policy_path = _resolve(args.policy)
    try:
        source = policy_path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise PolicyError(f"policy file {policy_path}: not valid UTF-8: {exc}") from None
    ast = parse_policy(source)
    env = load_environment(_resolve(args.env).read_bytes()) if args.env else Environment()
    bound = bind(ast, env, strict=args.strict)
    verdict = evaluate(bound, graph)
    if args.json:
        payload = verdict_to_dict(verdict)
        payload["unresolved"] = list(bound.unresolved)
        print(json.dumps(payload, indent=2))
    else:
        print("satisfied" if verdict.satisfied else "violated")
        for name in ("witness", "counterexample") if args.witness else ():
            assignment = getattr(verdict, name)
            if assignment is not None:
                bindings = ", ".join(f"{k} = {v}" for k, v in assignment.items())
                print(f"{name}: {bindings}")
        for note in verdict.diagnostics:
            print(f"note: {note}")
    return 0 if verdict.satisfied else 1


def cmd_validate(args: argparse.Namespace) -> int:
    graph = load_graph_unchecked(_resolve(args.graph).read_bytes())
    violations = graph.validate_typing()
    cycles = graph.validate_acyclic()
    valid = not violations and not cycles
    if args.json:
        report = {
            "valid": valid,
            "typing": [v.describe() for v in violations],
            "cycles": [list(c) for c in cycles],
        }
        print(json.dumps(report, indent=2))
    else:
        for violation in violations:
            print(f"typing: {violation.describe()}")
        for cycle in cycles:
            print(f"cycle: {' -> '.join(cycle)}")
        counts = f"{len(violations)} typing violation(s), {len(cycles)} cycle(s)"
        print("valid" if valid else f"invalid: {counts}")
    return 0 if valid else 1


def cmd_event(args: argparse.Namespace) -> int:
    graph = load_graph(_resolve(args.graph).read_bytes())
    sys.stdout.write(save_graph(extract_event(graph, args.activity)).decode("utf-8"))
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    checks = run_scenario(args.name)
    passed = all(check.ok for check in checks)
    if args.json:
        report = {
            "scenario": args.name,
            "pass": passed,
            "checks": [{**vars(check), "ok": check.ok} for check in checks],
        }
        print(json.dumps(report, indent=2))
    else:
        width = max(len(check.label) for check in checks)
        for check in checks:
            status = "ok" if check.ok else "MISMATCH"
            print(
                f"{check.label:<{width}}  expected={str(check.expected).lower():<5} "
                f"actual={str(check.actual).lower():<5} {status}"
            )
        agreed = sum(1 for check in checks if check.ok)
        print(f"{'PASS' if passed else 'FAIL'} ({agreed}/{len(checks)} checks)")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acdc-prov",
        description="Check first-order policies against typed provenance graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="evaluate a policy against a graph")
    check.add_argument("graph", help="graph document (path or corpus name)")
    check.add_argument("policy", help="policy file (path or corpus name)")
    check.add_argument("--env", help="environment file binding constants and sets")
    check.add_argument(
        "--strict",
        action="store_true",
        help="refuse policies with names the environment does not resolve",
    )
    check.add_argument(
        "--witness",
        action="store_true",
        help="print witness or counterexample bindings when available",
    )
    check.add_argument(
        "--slice",
        metavar="AGENT",
        help="evaluate on the per-agent slice of the graph instead",
    )
    check.add_argument("--json", action="store_true", help="machine-readable report")
    check.set_defaults(handler=cmd_check)

    validate = sub.add_parser(
        "validate", help="report typing violations and cycles in a graph document"
    )
    validate.add_argument("graph", help="graph document (path or corpus name)")
    validate.add_argument("--json", action="store_true", help="machine-readable report")
    validate.set_defaults(handler=cmd_validate)

    event = sub.add_parser(
        "event", help="print one activity's event subgraph as a graph document"
    )
    event.add_argument("graph", help="graph document (path or corpus name)")
    event.add_argument("--activity", required=True, help="activity vertex id")
    event.set_defaults(handler=cmd_event)

    scenario = sub.add_parser(
        "scenario", help="replay a built-in scenario and compare outcomes"
    )
    scenario.add_argument("name", choices=SCENARIO_NAMES)
    scenario.add_argument("--json", action="store_true", help="machine-readable report")
    scenario.set_defaults(handler=cmd_scenario)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (
        PolicyError,
        GraphError,
        EvaluationError,
        EventError,
        MalformedDocumentError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
