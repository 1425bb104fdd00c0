"""Scenario builders, the policy corpus, and the packaged walkthroughs."""

from __future__ import annotations

import pytest

from acdc_prov import scenarios
from acdc_prov.evaluator import evaluate
from acdc_prov.graph import RelationLabel, VertexKind
from acdc_prov.policy import Environment, parse_policy
from acdc_prov.scenarios import (
    BALLOT_STEPS,
    SCENARIO_NAMES,
    InvalidStepSequenceError,
    VotingStep,
    build_encapsulate_event,
    build_two_state_trace,
    build_voting_trace,
    corpus,
    corpus_by_name,
    corpus_graphs,
    run_scenario,
)

EXPECTED_CORPUS_NAMES = [
    "p1",
    "p2",
    "p3",
    "p4",
    "p5",
    "p6",
    "p7",
    "p8",
    "p9",
    "encapsulate_all",
    "receipt_attributed",
    "blacklisted_actor",
    "keygen_done",
    "select_done",
    "print_done",
    "verify_done",
    "count_done",
    "print_receipt_done",
]


# ---------------------------------------------------------------------------
# corpus integrity
# ---------------------------------------------------------------------------


def test_corpus_names_and_order():
    assert [entry.name for entry in corpus()] == EXPECTED_CORPUS_NAMES


def test_every_corpus_entry_parses_and_binds_strictly(entries):
    for entry in entries.values():
        bound = entry.bound(strict=True)
        assert bound.unresolved == ()
        assert parse_policy(entry.source) == bound.ast


def test_corpus_graphs_are_valid():
    graphs = corpus_graphs()
    assert set(graphs) == {
        "empty",
        "encapsulate_bob",
        "encapsulate_foreign_inputs",
        "alice_trace_full",
        "alice_two_state",
        "mallory_trace_to_count",
        "bob_trace_full",
    }
    for graph in graphs.values():
        assert not graph.validate_typing()
        assert not graph.validate_acyclic()


# ---------------------------------------------------------------------------
# encapsulation builders
# ---------------------------------------------------------------------------


def test_encapsulation_policies_are_owner_parametric(entries):
    graph = build_encapsulate_event("Alice")
    for name in [f"p{i}" for i in range(1, 10)]:
        entry = entries[name]
        constants = {
            n: ("Alice" if n == "Bob" else n) for n in entry.environment.constants
        }
        bound = entry.bound(Environment(constants=constants))
        assert evaluate(bound, graph).satisfied, name


def test_foreign_derivation_breaks_p7_only(entries, encapsulation):
    g = encapsulation.add_vertex("Key_Mallory", VertexKind.KEY_ENTITY)
    g = g.add_edge("SecureCapsule", "Key_Mallory", RelationLabel.WAS_DERIVED_FROM)
    verdict = evaluate(entries["p7"].bound(), g)
    assert not verdict.satisfied
    assert verdict.counterexample == {"k": "Key_Mallory"}
    for name in ("p1", "p2", "p5", "p6", "p9"):
        assert evaluate(entries[name].bound(), g).satisfied, name


def test_foreign_data_derivation_breaks_p8(entries, encapsulation):
    g = encapsulation.add_vertex("Smuggled", VertexKind.DATA_ENTITY)
    g = g.add_edge("SecureCapsule", "Smuggled", RelationLabel.WAS_DERIVED_FROM)
    assert not evaluate(entries["p8"].bound(), g).satisfied
    assert evaluate(entries["p5"].bound(), g).satisfied


# ---------------------------------------------------------------------------
# voting trace builders
# ---------------------------------------------------------------------------


def test_empty_trace_still_records_the_booth():
    g = build_voting_trace("Alice", "m1", ())
    assert set(g.vertices) == {"Alice", "m1"}
    assert g.has_edge("m1", "Alice", RelationLabel.ACTED_ON_BEHALF_OF)


def test_full_trace_shape(alice_trace):
    activities = {s.value for s in BALLOT_STEPS}
    assert activities <= set(alice_trace.vertices)
    assert alice_trace.has_edge("Tally", "m1", RelationLabel.WAS_ATTRIBUTED_TO)
    assert not alice_trace.has_edge("Tally", "Alice", RelationLabel.WAS_ATTRIBUTED_TO)
    assert alice_trace.has_edge("Receipt", "Alice", RelationLabel.WAS_ATTRIBUTED_TO)


def test_exit_may_close_a_trace():
    g = build_voting_trace("Alice", "m1", (*BALLOT_STEPS, VotingStep.EXIT))
    assert "Exit" in g.vertices
    assert g.has_edge("Exit", "ExitContract", RelationLabel.USED)
    partial = build_voting_trace("Alice", "m1", (VotingStep.KEY_GEN, VotingStep.EXIT))
    assert "Exit" in partial.vertices and "Select" not in partial.vertices


@pytest.mark.parametrize(
    "steps",
    [
        (VotingStep.SELECT,),
        (VotingStep.KEY_GEN, VotingStep.PRINT),
        (VotingStep.KEY_GEN, VotingStep.EXIT, VotingStep.SELECT),
        (VotingStep.KEY_GEN, VotingStep.KEY_GEN),
        (VotingStep.PRINT_RECEIPT,),
    ],
)
def test_illegal_step_sequences_are_rejected(steps):
    with pytest.raises(InvalidStepSequenceError):
        build_voting_trace("Alice", "m1", steps)


def test_two_state_trace_shares_only_voter_and_meets_at_machines(alice_trace):
    combined = build_two_state_trace("Alice", "m1", "m2")
    second_only = set(combined.vertices) - set(alice_trace.vertices)
    assert second_only == {"m2", "m2/KeyGen", "m2/KeyGenContract", "m2/VoterKey"}
    assert combined.has_edge("m2", "Alice", RelationLabel.ACTED_ON_BEHALF_OF)
    assert combined.has_edge(
        "m2/VoterKey", "Alice", RelationLabel.WAS_ATTRIBUTED_TO
    )
    # the first trace survives unchanged inside the union
    assert alice_trace.edges <= combined.edges


# ---------------------------------------------------------------------------
# packaged walkthroughs
# ---------------------------------------------------------------------------


def test_scenario_names():
    assert SCENARIO_NAMES == (
        "encapsulate",
        "duplicate-vote",
        "blacklist",
        "manipulation",
    )


@pytest.mark.parametrize(
    "name,count",
    [("encapsulate", 20), ("duplicate-vote", 3), ("blacklist", 2), ("manipulation", 42)],
)
def test_scenarios_pass(name, count):
    checks = run_scenario(name)
    assert len(checks) == count
    for check in checks:
        assert check.ok, f"{name}: {check.label}"


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_each_scenario_reads_the_corpus_once(name, monkeypatch):
    calls = []

    def counted():
        calls.append(name)
        return corpus()

    monkeypatch.setattr(scenarios, "corpus", counted)
    assert all(check.ok for check in run_scenario(name))
    assert len(calls) == 1


def test_unknown_scenario():
    with pytest.raises(ValueError):
        run_scenario("heist")


def test_manipulation_scenario_tracks_progress_exactly():
    checks = run_scenario("manipulation")
    by_prefix = {}
    for check in checks:
        done = int(check.label.split(" after ")[1].split(" of ")[0])
        by_prefix.setdefault(done, []).append(check.actual)
    for done, outcomes in by_prefix.items():
        assert outcomes == [i < done for i in range(6)]
