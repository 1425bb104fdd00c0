"""Acceptance gate: the headline behaviours, one PASS/FAIL line each.

Every test prints its criterion verdict straight to the real stdout so the
lines survive pytest's capture and appear in the run log.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from itertools import product

import pytest

from acdc_prov.cli import main
from acdc_prov.evaluator import conjoin, evaluate, evaluate_naive
from acdc_prov.events import slice_by_agent
from acdc_prov.graph import (
    LabeledEdge,
    ProvGraph,
    RelationLabel,
    TYPING_RULES,
    TypeViolationError,
    Vertex,
    VertexKind,
)
from acdc_prov.policy import (
    Environment,
    Exists,
    Forall,
    Not,
    bind,
    parse_policy,
    pretty_print,
)
from acdc_prov.scenarios import (
    BALLOT_STEPS,
    SCENARIO_NAMES,
    build_voting_trace,
    corpus_graphs,
)
from acdc_prov.storage import load_graph, save_graph
from randgen import (
    SORTS,
    extend_graph,
    grounded_positive_policy,
    random_environment,
    random_graph,
    random_graph_with_order,
    random_policy_ast,
)

STEP_POLICIES = (
    "keygen_done",
    "select_done",
    "print_done",
    "verify_done",
    "count_done",
    "print_receipt_done",
)


@contextmanager
def criterion(capsys, number: int, description: str):
    def report(outcome: str) -> None:
        with capsys.disabled():
            print(f"criterion {number} ({description}): {outcome}", flush=True)

    try:
        yield
    except BaseException:
        report("FAIL")
        raise
    report("PASS")


def test_criterion_1_clean_encapsulation(entries, capsys):
    with criterion(capsys, 1, "encapsulation policies hold on the clean trace"):
        graph = corpus_graphs()["encapsulate_bob"]
        bound = [entries[f"p{i}"].bound() for i in range(1, 10)]
        for name, policy in zip([f"p{i}" for i in range(1, 10)], bound):
            assert evaluate(policy, graph).satisfied, name
        assert evaluate(conjoin(bound), graph).satisfied
        assert evaluate(entries["encapsulate_all"].bound(), graph).satisfied


def test_criterion_2_foreign_inputs(entries, capsys):
    with criterion(capsys, 2, "foreign inputs flip exactly the attribution policies"):
        graph = corpus_graphs()["encapsulate_foreign_inputs"]
        assert evaluate(entries["p1"].bound(), graph).satisfied
        assert evaluate(entries["p2"].bound(), graph).satisfied
        assert not evaluate(entries["p3"].bound(), graph).satisfied
        assert not evaluate(entries["p4"].bound(), graph).satisfied
        assert not evaluate(entries["encapsulate_all"].bound(), graph).satisfied


def test_criterion_3_receipt_slices(entries, capsys):
    with criterion(capsys, 3, "receipt detection on per-voter slices"):
        graphs = corpus_graphs()
        receipt = entries["receipt_attributed"].bound()
        done = slice_by_agent(graphs["alice_trace_full"], "Alice")
        assert evaluate(receipt, done).satisfied
        partial = slice_by_agent(graphs["mallory_trace_to_count"], "Mallory")
        assert not evaluate(receipt, partial).satisfied
        resumed = slice_by_agent(graphs["alice_two_state"], "Alice")
        assert evaluate(receipt, resumed).satisfied


def test_criterion_4_blacklist(entries, capsys):
    with criterion(capsys, 4, "blacklist flags listed accounts only"):
        graph = corpus_graphs()["bob_trace_full"]
        entry = entries["blacklisted_actor"]
        listed = Environment(sets={"blacklist": frozenset({"Bob"})})
        assert evaluate(entry.bound(listed), graph).satisfied
        assert not evaluate(entry.bound(), graph).satisfied


def test_criterion_5_step_progress(entries, capsys):
    with criterion(capsys, 5, "step-completion policies track workflow progress"):
        for done in range(len(BALLOT_STEPS) + 1):
            trace = build_voting_trace("Voter", "m1", BALLOT_STEPS[:done])
            for position, name in enumerate(STEP_POLICIES):
                verdict = evaluate(entries[name].bound(), trace)
                assert verdict.satisfied == (position < done), (done, name)


def test_criterion_6_typing_table(capsys):
    with criterion(capsys, 6, "typing table decides all 216 kind/label combinations"):
        combinations = list(product(VertexKind, VertexKind, RelationLabel))
        assert len(combinations) == 216
        admitted = 0
        for src_kind, dst_kind, label in combinations:
            allowed = (src_kind, dst_kind) in TYPING_RULES[label]
            admitted += allowed
            vertices = {
                "a": Vertex("a", src_kind),
                "b": Vertex("b", dst_kind),
            }
            forced = ProvGraph(vertices, frozenset({LabeledEdge("a", "b", label)}))
            violations = forced.validate_typing()
            assert (not violations) == allowed, (src_kind, dst_kind, label)
            base = ProvGraph().extend(vertices.values())
            edge = [LabeledEdge("a", "b", label)]
            if allowed:
                assert base.extend(edges=edge).has_edge("a", "b", label)
            else:
                with pytest.raises(TypeViolationError):
                    base.extend(edges=edge)
        assert admitted == 23


def test_criterion_7_oracle_agreement(entries, capsys):
    with criterion(capsys, 7, "optimised and naive evaluation agree"):
        graphs = corpus_graphs()
        for entry, graph in product(entries.values(), graphs.values()):
            bound = entry.bound()
            assert evaluate(bound, graph).satisfied == evaluate_naive(bound, graph)
        for seed in range(1000):
            rng = random.Random(seed)
            graph = random_graph(rng)
            bound = bind(random_policy_ast(rng), random_environment(rng, graph))
            assert evaluate(bound, graph).satisfied == evaluate_naive(bound, graph), seed


def test_criterion_8_algebraic_laws(capsys):
    with criterion(capsys, 8, "duality, conjunction and monotonicity laws hold"):
        # quantifier duality, both directions
        for seed in range(500):
            rng = random.Random(seed)
            graph = random_graph(rng)
            env = random_environment(rng, graph)
            sort = rng.choice(SORTS)
            body = random_policy_ast(rng, max_quantifiers=1, max_depth=3, scope=("q",))

            def holds(ast) -> bool:
                return evaluate(bind(ast, env), graph).satisfied

            assert holds(Not(Exists("q", sort, body))) == holds(
                Forall("q", sort, Not(body))
            ), seed
            assert holds(Not(Forall("q", sort, body))) == holds(
                Exists("q", sort, Not(body))
            ), seed
            quantified = Exists("q", sort, body)
            assert holds(Not(quantified)) != holds(quantified), seed

        # conjoin is conjunction
        for seed in range(500):
            rng = random.Random(seed + 5_000)
            graph = random_graph(rng)
            env = random_environment(rng, graph)
            a = bind(random_policy_ast(rng, max_quantifiers=2, max_depth=3), env)
            b = bind(random_policy_ast(rng, max_quantifiers=2, max_depth=3), env)
            combined = conjoin([a, b])
            separate = (
                evaluate(a, graph).satisfied and evaluate(b, graph).satisfied
            )
            assert evaluate(combined, graph).satisfied == separate, seed
            assert evaluate_naive(combined, graph) == separate, seed

        # positive policies survive graph growth
        vacuous_guard = 0
        for seed in range(250):
            rng = random.Random(seed)
            graph, order = random_graph_with_order(rng, max_vertices=10, min_vertices=1)
            bound = bind(
                random_policy_ast(rng, positive=True), random_environment(rng, graph)
            )
            if evaluate(bound, graph).satisfied:
                assert evaluate(bound, extend_graph(rng, graph, order)).satisfied, seed
                vacuous_guard += 1
        assert vacuous_guard >= 5
        for seed in range(10_000, 10_250):
            rng = random.Random(seed)
            graph, order = random_graph_with_order(rng, max_vertices=10, min_vertices=1)
            ast, env = grounded_positive_policy(rng, graph)
            bound = bind(ast, env)
            if evaluate(bound, graph).satisfied:
                assert evaluate(bound, extend_graph(rng, graph, order)).satisfied, seed
                vacuous_guard += 1
        assert vacuous_guard >= 200


def test_criterion_9_round_trips(entries, capsys):
    with criterion(capsys, 9, "printing and serialisation round-trip"):
        for entry in entries.values():
            ast = parse_policy(entry.source)
            assert parse_policy(pretty_print(ast)) == ast, entry.name
        for seed in range(500):
            ast = random_policy_ast(random.Random(seed), max_quantifiers=4, max_depth=5)
            assert parse_policy(pretty_print(ast)) == ast, seed
        for name, graph in corpus_graphs().items():
            data = save_graph(graph)
            assert load_graph(data) == graph, name
            assert save_graph(load_graph(data)) == data, name
        for seed in range(500):
            graph = random_graph(random.Random(seed))
            data = save_graph(graph)
            assert load_graph(data) == graph, seed
            assert save_graph(load_graph(data)) == data, seed


def test_criterion_10_cli_agreement(entries, capsys):
    with criterion(capsys, 10, "the CLI agrees with the library"):
        for name in SCENARIO_NAMES:
            assert main(["scenario", name]) == 0, name
        graphs = corpus_graphs()
        for entry, (graph_name, graph) in product(entries.values(), graphs.items()):
            expected = evaluate(entry.bound(), graph).satisfied
            code = main(
                [
                    "check",
                    f"{graph_name}.json",
                    f"{entry.name}.pol",
                    "--env",
                    f"{entry.name}.env.json",
                ]
            )
            assert code == (0 if expected else 1), (entry.name, graph_name)
        capsys.readouterr()
