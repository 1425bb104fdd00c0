"""Scenario builders, the policy corpus, and the packaged walkthroughs."""

from __future__ import annotations

import pytest

from acdc_prov import scenarios
from acdc_prov.evaluator import evaluate
from acdc_prov.graph import (
    GraphError,
    LabeledEdge,
    ProvGraph,
    RelationLabel,
    Vertex,
    VertexKind,
    union,
)
from acdc_prov.policy import Environment, parse_policy
from acdc_prov.scenarios import (
    BALLOT_STEPS,
    SCENARIO_NAMES,
    InvalidStepSequenceError,
    VotingStep,
    build_encapsulate_event,
    build_encapsulate_with_foreign_inputs,
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
    g = encapsulation.extend(
        [Vertex("Key_Mallory", VertexKind.KEY_ENTITY)],
        [LabeledEdge("SecureCapsule", "Key_Mallory", RelationLabel.WAS_DERIVED_FROM)],
    )
    verdict = evaluate(entries["p7"].bound(), g)
    assert not verdict.satisfied
    assert verdict.counterexample == {"k": "Key_Mallory"}
    for name in ("p1", "p2", "p5", "p6", "p9"):
        assert evaluate(entries[name].bound(), g).satisfied, name


def test_foreign_data_derivation_breaks_p8(entries, encapsulation):
    g = encapsulation.extend(
        [Vertex("Smuggled", VertexKind.DATA_ENTITY)],
        [LabeledEdge("SecureCapsule", "Smuggled", RelationLabel.WAS_DERIVED_FROM)],
    )
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
# builders against the chained insertions they replaced
# ---------------------------------------------------------------------------

_K = VertexKind
_R = RelationLabel


def chained_encapsulate_event(owner):
    owner_key = f"Key_{owner}"
    g = ProvGraph()
    g = g.extend([Vertex(owner, _K.ACCOUNT_AGENT)])
    g = g.extend([Vertex("sgx", _K.NODE_AGENT)])
    g = g.extend([Vertex("Encapsulate", _K.ACTIVITY)])
    g = g.extend([Vertex("Plaintext", _K.DATA_ENTITY)])
    g = g.extend([Vertex("EncapsulateContract", _K.CONTRACT_ENTITY)])
    g = g.extend([Vertex("Key_SGX", _K.KEY_ENTITY)])
    g = g.extend([Vertex(owner_key, _K.KEY_ENTITY)])
    g = g.extend([Vertex("SecureCapsule", _K.DATA_ENTITY)])
    g = g.extend(edges=[LabeledEdge("sgx", owner, _R.ACTED_ON_BEHALF_OF)])
    g = g.extend(edges=[LabeledEdge("Encapsulate", "sgx", _R.WAS_ASSOCIATED_WITH)])
    for used in ("Plaintext", "EncapsulateContract", "Key_SGX", owner_key):
        g = g.extend(edges=[LabeledEdge("Encapsulate", used, _R.USED)])
    g = g.extend(edges=[LabeledEdge("SecureCapsule", "Encapsulate", _R.WAS_GENERATED_BY)])
    for source in ("EncapsulateContract", owner_key, "Plaintext", "Key_SGX"):
        g = g.extend(edges=[LabeledEdge("SecureCapsule", source, _R.WAS_DERIVED_FROM)])
    g = g.extend(edges=[LabeledEdge("Key_SGX", "sgx", _R.WAS_ATTRIBUTED_TO)])
    for owned in ("Plaintext", owner_key, "SecureCapsule"):
        g = g.extend(edges=[LabeledEdge(owned, owner, _R.WAS_ATTRIBUTED_TO)])
    return g


def chained_encapsulate_with_foreign_inputs(owner, outsider):
    foreign_key = f"Key_{outsider}"
    foreign_data = f"Plaintext_{outsider}"
    g = chained_encapsulate_event(owner)
    g = g.extend([Vertex(outsider, _K.ACCOUNT_AGENT)])
    g = g.extend([Vertex(foreign_key, _K.KEY_ENTITY)])
    g = g.extend([Vertex(foreign_data, _K.DATA_ENTITY)])
    g = g.extend(edges=[LabeledEdge("Encapsulate", foreign_key, _R.USED)])
    g = g.extend(edges=[LabeledEdge("Encapsulate", foreign_data, _R.USED)])
    g = g.extend(edges=[LabeledEdge(foreign_key, outsider, _R.WAS_ATTRIBUTED_TO)])
    g = g.extend(edges=[LabeledEdge(foreign_data, outsider, _R.WAS_ATTRIBUTED_TO)])
    return g


def chained_voting_trace(voter, machine, steps):
    """The chained builder for a legal ``steps``; it checks no order."""
    g = ProvGraph()
    g = g.extend([Vertex(voter, _K.ACCOUNT_AGENT)])
    g = g.extend([Vertex(machine, _K.NODE_AGENT)])
    g = g.extend(edges=[LabeledEdge(machine, voter, _R.ACTED_ON_BEHALF_OF)])
    for step in steps:
        activity = step.value
        contract = f"{step.value}Contract"
        g = g.extend([Vertex(activity, _K.ACTIVITY)])
        g = g.extend([Vertex(contract, _K.CONTRACT_ENTITY)])
        g = g.extend(edges=[LabeledEdge(activity, machine, _R.WAS_ASSOCIATED_WITH)])
        g = g.extend(edges=[LabeledEdge(activity, contract, _R.USED)])
        output = scenarios._STEP_OUTPUTS[step]
        if output is not None:
            output_id, output_kind = output
            owner = machine if step is VotingStep.COUNT else voter
            g = g.extend([Vertex(output_id, output_kind)])
            g = g.extend(edges=[LabeledEdge(output_id, activity, _R.WAS_GENERATED_BY)])
            g = g.extend(edges=[LabeledEdge(output_id, contract, _R.WAS_DERIVED_FROM)])
            g = g.extend(edges=[LabeledEdge(output_id, owner, _R.WAS_ATTRIBUTED_TO)])
    return g


def chained_two_state_trace(voter, first_machine, second_machine):
    first = chained_voting_trace(voter, first_machine, BALLOT_STEPS)
    second = chained_voting_trace(voter, second_machine, (VotingStep.KEY_GEN,))
    keep = {voter, second_machine}
    mapping = {
        vid: f"{second_machine}/{vid}" for vid in second.vertices if vid not in keep
    }
    return union(first, second.renamed(mapping))


def assert_same_graph(built, chained):
    """Equal vertices (ids, kinds and attrs, in insertion order) and edges."""
    assert [
        (vid, v.id, v.kind, dict(v.attrs)) for vid, v in built.vertices.items()
    ] == [(vid, v.id, v.kind, dict(v.attrs)) for vid, v in chained.vertices.items()]
    assert built.edges == chained.edges


LEGAL_STEPS = [
    (*BALLOT_STEPS[:done], *closing)
    for done in range(len(BALLOT_STEPS) + 1)
    for closing in ((), (VotingStep.EXIT,))
]


@pytest.mark.parametrize("voter, machine", [("Alice", "m1"), ("Mallory", "booth-7")])
@pytest.mark.parametrize("steps", LEGAL_STEPS, ids=lambda s: "-".join(x.value for x in s))
def test_voting_trace_matches_the_chained_builder(voter, machine, steps):
    assert_same_graph(
        build_voting_trace(voter, machine, steps),
        chained_voting_trace(voter, machine, steps),
    )


# The second and third pairs re-add ids the clean run already holds, with
# the same kind: the outsider is the owner, or "Key_SGX" is the foreign key.
@pytest.mark.parametrize(
    "owner, outsider", [("Bob", "Mallory"), ("Carol", "Carol"), ("Dave", "SGX")]
)
def test_encapsulation_builders_match_the_chained_builders(owner, outsider):
    assert_same_graph(build_encapsulate_event(owner), chained_encapsulate_event(owner))
    assert_same_graph(
        build_encapsulate_with_foreign_inputs(owner, outsider),
        chained_encapsulate_with_foreign_inputs(owner, outsider),
    )


@pytest.mark.parametrize("voter, first, second", [("Alice", "m1", "m2"), ("Bob", "b", "a")])
def test_two_state_trace_matches_the_chained_builder(voter, first, second):
    assert_same_graph(
        build_two_state_trace(voter, first, second),
        chained_two_state_trace(voter, first, second),
    )


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: build_voting_trace("m1", "m1", ()), GraphError),
        (lambda: build_voting_trace("Ballot", "m1", BALLOT_STEPS), GraphError),
        (lambda: build_encapsulate_event("sgx"), GraphError),
        (lambda: build_encapsulate_with_foreign_inputs("Bob", "Encapsulate"), GraphError),
        (lambda: build_voting_trace("", "m1", ()), ValueError),
        (lambda: build_encapsulate_event(""), ValueError),
        (lambda: build_encapsulate_with_foreign_inputs("Bob", ""), ValueError),
    ],
    ids=[
        "voter-is-machine", "voter-is-an-output", "owner-is-sgx", "outsider-is-activity",
        "empty-voter", "empty-owner", "empty-outsider",
    ],
)
def test_a_name_the_builders_cannot_use_is_refused(build, error):
    # A name taken by another kind breaks an edge's typing; an empty name
    # breaks the vertex record rule.
    with pytest.raises(error):
        build()


def test_builders_insert_nothing_one_at_a_time(monkeypatch):
    extend = ProvGraph.extend

    def batched_extend(self, vertices=(), edges=()):
        vertices, edges = list(vertices), list(edges)
        if len(vertices) + len(edges) < 2:
            raise AssertionError("a builder inserted a vertex or an edge on its own")
        return extend(self, vertices, edges)

    monkeypatch.setattr(ProvGraph, "extend", batched_extend)
    assert len(corpus_graphs()) == 7
    for steps in LEGAL_STEPS:
        build_voting_trace("Alice", "m1", steps)
    build_encapsulate_with_foreign_inputs("Carol", "Carol")
    for name in SCENARIO_NAMES:
        assert all(check.ok for check in run_scenario(name))


def test_evaluate_validates_no_builder_graph(entries, validations):
    graphs = [graph for name, graph in corpus_graphs().items() if name != "empty"]
    graphs.append(build_voting_trace("Alice", "m1", (VotingStep.KEY_GEN, VotingStep.EXIT)))
    reports, searches = validations
    for graph in graphs:
        for entry in entries.values():
            evaluate(entry.bound(), graph)
    assert reports == [] and searches == []


@pytest.mark.parametrize("name", ["encapsulate", "blacklist", "manipulation"])
def test_scenarios_without_slices_validate_nothing(name, validations):
    assert all(check.ok for check in run_scenario(name))
    assert validations == ([], [])


def test_duplicate_vote_validates_nothing(validations):
    # A union of known-valid graphs checks only the later graphs' records,
    # and slices of a known-valid graph are known valid: no report at all.
    assert all(check.ok for check in run_scenario("duplicate-vote"))
    assert validations == ([], [])


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
