"""Event extraction and per-agent slicing."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from acdc_prov.evaluator import InvalidGraphError, evaluate
from acdc_prov.events import (
    NoSuchActivityError,
    NoSuchAgentError,
    WrongKindError,
    extract_event,
    slice_by_agent,
)
from acdc_prov.graph import (
    LabeledEdge,
    ProvGraph,
    RelationLabel,
    Sort,
    Vertex,
    VertexKind,
    union,
)
from acdc_prov.scenarios import (
    BALLOT_STEPS,
    build_two_state_trace,
    build_voting_trace,
    corpus_graphs,
)
from acdc_prov.storage import load_graph, save_graph
from randgen import random_graph, random_graph_with_order


def _disjoint_copy(graph: ProvGraph, prefix: str, keep: set[str] | None = None) -> ProvGraph:
    keep = keep or set()
    mapping = {vid: f"{prefix}/{vid}" for vid in graph.vertices if vid not in keep}
    return graph.renamed(mapping)


# ---------------------------------------------------------------------------
# event extraction
# ---------------------------------------------------------------------------


def test_single_event_graph_extracts_to_itself(encapsulation):
    event = extract_event(encapsulation, "Encapsulate")
    assert type(event) is ProvGraph
    assert event.vertices["Encapsulate"].kind is VertexKind.ACTIVITY
    assert event == encapsulation


def test_extraction_ignores_unrelated_events(encapsulation):
    other = _disjoint_copy(encapsulation, "other")
    combined = union(encapsulation, other)
    assert extract_event(combined, "Encapsulate") == encapsulation
    assert extract_event(combined, "other/Encapsulate") == other


def test_keygen_event_has_the_expected_shape(alice_trace):
    event = extract_event(alice_trace, "KeyGen")
    assert set(event.vertices) == {
        "KeyGen",
        "KeyGenContract",
        "VoterKey",
        "Alice",
        "m1",
    }
    assert len(event.edges) == 6
    assert event.has_edge("KeyGen", "KeyGenContract", RelationLabel.USED)
    assert event.has_edge("VoterKey", "KeyGen", RelationLabel.WAS_GENERATED_BY)
    assert event.has_edge(
        "VoterKey", "KeyGenContract", RelationLabel.WAS_DERIVED_FROM
    )
    assert event.has_edge("VoterKey", "Alice", RelationLabel.WAS_ATTRIBUTED_TO)
    assert event.has_edge("KeyGen", "m1", RelationLabel.WAS_ASSOCIATED_WITH)
    assert event.has_edge("m1", "Alice", RelationLabel.ACTED_ON_BEHALF_OF)


def test_count_event_reaches_the_voter_through_the_machine(alice_trace):
    # The tally is attributed to the machine, not the voter; the voter still
    # belongs to the event because the machine acts on her behalf.
    event = extract_event(alice_trace, "Count")
    assert "Alice" in event.vertices
    assert event.has_edge("Tally", "m1", RelationLabel.WAS_ATTRIBUTED_TO)
    assert event.has_edge("m1", "Alice", RelationLabel.ACTED_ON_BEHALF_OF)
    assert "VoterKey" not in event.vertices


def test_event_of_isolated_activity_is_a_single_vertex():
    g = ProvGraph().extend([Vertex("Ping", VertexKind.ACTIVITY)])
    event = extract_event(g, "Ping")
    assert set(event.vertices) == {"Ping"}
    assert not event.edges


def test_event_keeps_derivations_between_its_entities(encapsulation):
    event = extract_event(encapsulation, "Encapsulate")
    assert event.has_edge(
        "SecureCapsule", "Plaintext", RelationLabel.WAS_DERIVED_FROM
    )


def test_extract_event_unknown_id():
    with pytest.raises(NoSuchActivityError):
        extract_event(ProvGraph(), "Encapsulate")


def test_extract_event_wrong_kind(encapsulation):
    with pytest.raises(WrongKindError):
        extract_event(encapsulation, "Bob")


# ---------------------------------------------------------------------------
# an event's edges are the subgraph its vertices induce
# ---------------------------------------------------------------------------


def _per_label_event_edges(graph: ProvGraph, activity: str) -> frozenset[LabeledEdge]:
    """An event's edges by the earlier per-label definition: each relation
    is kept only in the position the event's construction gives it."""
    R = RelationLabel
    inputs = {e.dst for e in graph.out_edges(activity, R.USED)}
    outputs = {e.src for e in graph.in_edges(activity, R.WAS_GENERATED_BY)}
    entities = inputs | outputs
    attributed = {
        e.dst for e in graph.edges if e.label is R.WAS_ATTRIBUTED_TO and e.src in entities
    }
    associated = {e.dst for e in graph.out_edges(activity, R.WAS_ASSOCIATED_WITH)}
    agents = attributed | associated
    principals = {
        e.dst for e in graph.edges if e.label is R.ACTED_ON_BEHALF_OF and e.src in agents
    }
    included = {activity} | entities | agents | principals

    def keep(e: LabeledEdge) -> bool:
        return (
            (e.label is R.USED and e.src == activity and e.dst in entities)
            or (e.label is R.WAS_GENERATED_BY and e.dst == activity and e.src in entities)
            or (e.label is R.WAS_DERIVED_FROM and e.src in entities and e.dst in entities)
            or (e.label is R.WAS_ATTRIBUTED_TO and e.src in entities and e.dst in included)
            or (e.label is R.WAS_ASSOCIATED_WITH and e.src == activity)
            or (e.label is R.ACTED_ON_BEHALF_OF and e.src in agents)
        )

    return frozenset(e for e in graph.edges if keep(e))


def _assert_events_match_per_label_definition(graph: ProvGraph) -> int:
    activities = sorted(graph.vertices_of_sort(Sort.ACTIVITY))
    for activity in activities:
        expected = _per_label_event_edges(graph, activity)
        assert extract_event(graph, activity).edges == expected, activity
    return len(activities)


@pytest.mark.parametrize("name", sorted(corpus_graphs()))
def test_corpus_events_match_per_label_definition(name):
    _assert_events_match_per_label_definition(corpus_graphs()[name])


@pytest.mark.parametrize("edge_chance", [0.1, 0.35, 0.5, 0.7])
def test_random_events_match_per_label_definition(edge_chance):
    events = 0
    for seed in range(60):
        rng = random.Random(f"events-{edge_chance}-{seed}")
        graph, _ = random_graph_with_order(rng, 24, 6, edge_chance)
        events += _assert_events_match_per_label_definition(graph)
    assert events > 100


def test_event_of_ill_typed_graph_keeps_edges_between_its_vertices(entries):
    # Only direct construction or an unchecked load makes such a graph. The
    # event keeps the ill-typed edge, and evaluation refuses the event
    # rather than judging a silently filtered one.
    R = RelationLabel
    vertices = {
        "Run": Vertex("Run", VertexKind.ACTIVITY),
        "In": Vertex("In", VertexKind.DATA_ENTITY),
        "Out": Vertex("Out", VertexKind.DATA_ENTITY),
    }
    edges = {
        LabeledEdge("Run", "In", R.USED),
        LabeledEdge("Out", "Run", R.WAS_GENERATED_BY),
        LabeledEdge("Out", "In", R.WAS_ASSOCIATED_WITH),
    }
    event = extract_event(ProvGraph(vertices, edges), "Run")
    assert event.edges == edges
    with pytest.raises(InvalidGraphError):
        evaluate(entries["p1"].bound(), event)


def test_slice_of_ill_typed_graph_is_refused_by_evaluation(entries):
    # The slice keeps the ill-typed edge, known or not to be there, and is
    # validated again rather than taken as valid.
    R = RelationLabel
    vertices = {
        "Run": Vertex("Run", VertexKind.ACTIVITY),
        "In": Vertex("In", VertexKind.DATA_ENTITY),
        "Bob": Vertex("Bob", VertexKind.ACCOUNT_AGENT),
    }
    edges = {
        LabeledEdge("Run", "In", R.USED),
        LabeledEdge("In", "Bob", R.WAS_ATTRIBUTED_TO),
        LabeledEdge("In", "Run", R.USED),
    }
    graph = ProvGraph(vertices, edges)
    for _ in range(2):
        sliced = slice_by_agent(graph, "Bob")
        assert sliced.edges == edges
        with pytest.raises(InvalidGraphError):
            evaluate(entries["p1"].bound(), sliced)
        assert graph.validate_typing()


def test_slices_and_events_of_a_checked_graph_validate_nothing(
    entries, alice_trace, validations
):
    graph = load_graph(save_graph(alice_trace))
    sliced = slice_by_agent(graph, "Alice")
    assert evaluate(entries["receipt_attributed"].bound(), sliced).satisfied
    event = extract_event(graph, "KeyGen")
    assert evaluate(entries["keygen_done"].bound(), event).satisfied
    assert validations == ([], [])


# ---------------------------------------------------------------------------
# slicing
# ---------------------------------------------------------------------------


def test_slice_of_single_owner_graph_is_the_whole_graph(encapsulation):
    assert slice_by_agent(encapsulation, "Bob") == encapsulation


def test_slice_recovers_each_voters_trace(alice_trace):
    carol_trace = _disjoint_copy(
        build_voting_trace("Carol", "m3", BALLOT_STEPS), "m3", keep={"Carol", "m3"}
    )
    combined = union(alice_trace, carol_trace)
    assert slice_by_agent(combined, "Alice") == alice_trace
    assert slice_by_agent(combined, "Carol") == carol_trace


def test_slice_is_idempotent(alice_trace):
    once = slice_by_agent(alice_trace, "Alice")
    assert slice_by_agent(once, "Alice") == once


def test_slice_spans_both_states_of_a_two_state_trace():
    combined = build_two_state_trace("Alice", "m1", "m2")
    sliced = slice_by_agent(combined, "Alice")
    assert sliced == combined
    assert "m2/KeyGen" in sliced.vertices
    assert sliced.has_edge("m2", "Alice", RelationLabel.ACTED_ON_BEHALF_OF)


def test_slice_of_uninvolved_agent_is_just_the_agent(alice_trace):
    g = alice_trace.extend([Vertex("Dana", VertexKind.ACCOUNT_AGENT)])
    sliced = slice_by_agent(g, "Dana")
    assert set(sliced.vertices) == {"Dana"}
    assert not sliced.edges


@pytest.mark.parametrize("voters, owners, step", [(10, 6, 1), (20, 4, 7)])
def test_slices_of_a_population_history_are_its_ground_truth(population, voters, owners, step):
    # The slices the benchmark's gate workload checks, derived from the
    # history's records: every voter of the audit-sized history, and three
    # voters of the gate-sized one.
    history = population.build_history(random.Random(1), voters=voters, owners=owners)
    graph = load_graph(history.document())
    for voter in history.voters()[::step]:
        ids, edges = history.slice_records(voter)
        part = slice_by_agent(graph, voter)
        assert (set(part.vertices), len(part.edges)) == (ids, edges), voter


def test_slice_unknown_agent(encapsulation):
    with pytest.raises(NoSuchAgentError):
        slice_by_agent(encapsulation, "Dana")


def test_slice_requires_an_account_agent(alice_trace):
    with pytest.raises(WrongKindError):
        slice_by_agent(alice_trace, "m1")
    with pytest.raises(WrongKindError):
        slice_by_agent(alice_trace, "KeyGen")


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_events_are_valid_single_activity_subgraphs(seed):
    graph = random_graph(random.Random(seed))
    for activity in graph.vertices_of_sort(Sort.ACTIVITY):
        sub = extract_event(graph, activity)
        assert set(sub.vertices) <= set(graph.vertices)
        assert sub.edges <= graph.edges
        assert sub.vertices_of_sort(Sort.ACTIVITY) == {activity}
        assert not sub.validate_typing() and not sub.validate_acyclic()


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_slices_are_valid_subgraphs(seed):
    graph = random_graph(random.Random(seed))
    for agent in graph.vertices_of_sort(Sort.ACCOUNT_AGENT):
        sliced = slice_by_agent(graph, agent)
        assert agent in sliced.vertices
        assert set(sliced.vertices) <= set(graph.vertices)
        assert sliced.edges <= graph.edges
        assert not sliced.validate_typing() and not sliced.validate_acyclic()
