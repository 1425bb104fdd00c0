"""Growing a graph with ``ProvGraph.extend``: the one checked way in."""

from __future__ import annotations

import random
import re
from bisect import bisect_left
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

from acdc_prov import graph as graph_module
from acdc_prov.graph import (
    TYPING_RULES,
    CycleIntroducedError,
    DuplicateIdError,
    GraphError,
    LabeledEdge,
    MissingVertexError,
    ProvGraph,
    RelationLabel,
    TypeViolation,
    TypeViolationError,
    Vertex,
    VertexKind,
    _check_edge,
    _edge_lists,
)
from acdc_prov.storage import load_graph, save_graph
from randgen import ALLOWED_BY_PAIR, KINDS, random_graph_with_order

ROOT = Path(__file__).resolve().parent.parent
K = VertexKind
R = RelationLabel


# ---------------------------------------------------------------------------
# the whole-graph check that ``extend`` replaced, kept as the oracle
# ---------------------------------------------------------------------------


def _oracle_scan(vertices, outgoing):
    """The one validation pass as it was: typing per edge, then a Kahn drain
    over every vertex; a dangling edge raises ``_check_edge``'s error."""
    violations = []
    indegree = dict.fromkeys(vertices, 0)
    for edge in chain.from_iterable(outgoing.values()):
        source = vertices.get(edge.src)
        target = vertices.get(edge.dst)
        if source is None or target is None:
            _check_edge(vertices, {}, edge)
        if (source.kind, target.kind) not in TYPING_RULES[edge.label]:
            violations.append(
                TypeViolation(edge.src, edge.dst, edge.label, source.kind, target.kind)
            )
        indegree[edge.dst] += 1
    ready = [vid for vid, count in indegree.items() if not count]
    for vid in ready:
        for edge in outgoing.get(vid, ()):
            indegree[edge.dst] -= 1
            if not indegree[edge.dst]:
                ready.append(edge.dst)
    violations.sort(key=lambda v: (v.src, v.dst, v.label.value))
    return violations, [vid for vid, count in indegree.items() if count]


def _oracle_checked_graph(vertices, edges) -> ProvGraph:
    """The graph of ``vertices`` and ``edges`` if ``_check_edge`` accepts
    every edge inserted in iteration order; otherwise the error of the first
    it rejects, prefixed with ``edges[i]``, found by bisecting over prefixes."""

    def refused(outgoing) -> bool:
        try:
            violations, undrained = _oracle_scan(vertices, outgoing)
        except MissingVertexError:
            return True
        return bool(violations or undrained)

    graph = ProvGraph(vertices, edges)
    if refused(graph._outgoing):
        ordered = list(edges)
        first = bisect_left(
            range(1, len(ordered) + 1),
            True,
            key=lambda stop: refused(_edge_lists(ordered[:stop], "src")),
        )
        try:
            _check_edge(vertices, _edge_lists(ordered[:first], "src"), ordered[first])
        except GraphError as exc:
            exc.args = (f"edges[{first}]: {exc}",)
            raise
    vars(graph)["_report"] = ((), ())
    return graph


# ---------------------------------------------------------------------------
# seeded differential against the oracle
# ---------------------------------------------------------------------------

_NEW_IDS = tuple(f"x{i:02d}" for i in range(12))


def _sorted_edges(edges) -> list[LabeledEdge]:
    return sorted(edges, key=lambda e: (e.src, e.dst, e.label.value))


def _append_case(seed: int):
    """A valid random base graph and new records for it: new vertices and
    repeats of old ones, then edges in any direction between any two ids,
    with injected repeats of old edges, self-loops, typing faults and
    missing endpoints. Returns the base, the records and the faults."""
    rng = random.Random(seed)
    base, order = random_graph_with_order(rng, max_vertices=10, min_vertices=1)
    new_ids = rng.sample(_NEW_IDS, rng.randint(0, 8))
    vertices = [Vertex(vid, rng.choice(KINDS)) for vid in new_ids]
    repeated = rng.sample(order, rng.randint(0, min(2, len(order))))
    vertices += [base.vertices[vid] for vid in repeated]
    rng.shuffle(vertices)
    kinds = {vid: base.vertices[vid].kind for vid in order} | {v.id: v.kind for v in vertices}
    pairs = [(a, b) for a in kinds for b in kinds if (kinds[a], kinds[b]) in ALLOWED_BY_PAIR]
    pairs = pairs or [(order[0], order[0])]
    from_new = [(a, b) for a, b in pairs if a not in base.vertices] or pairs
    old_edges = _sorted_edges(base.edges)
    edges, faults = [], []
    for _ in range(rng.randint(0, 10)):
        roll = rng.random()
        if roll < 0.08 and old_edges:
            edges.append(rng.choice(old_edges))
            faults.append("repeat")
            continue
        a, b = rng.choice(from_new if roll < 0.6 else pairs)
        labels = ALLOWED_BY_PAIR.get((kinds[a], kinds[b]), tuple(R))
        if roll < 0.1:
            b, labels = a, tuple(R)
            faults.append("self_loop")
        elif roll < 0.15:
            labels = [l for l in R if l not in labels] or list(R)
            faults.append("typing")
        elif roll < 0.18:
            b = "ghost"
            faults.append("missing")
        edges.append(LabeledEdge(a, b, rng.choice(labels)))
    return base, vertices, edges, faults


def _split_prefix(message: str) -> tuple[int, str]:
    match = re.fullmatch(r"edges\[(\d+)\]: (.*)", message, re.S)
    assert match, message
    return int(match[1]), match[2]


def _outcome(build):
    try:
        return build(), None
    except GraphError as exc:
        return None, exc


def _assert_agrees_with_the_oracle(base: ProvGraph, vertices, edges) -> str:
    """``base.extend`` and the oracle over the union of the records give
    equal graphs and reports, or the same error on the same record; returns
    the outcome's name."""
    old_edges = _sorted_edges(base.edges)
    merged = {v.id: v for v in (*base.vertices.values(), *vertices)}
    expected, oracle_error = _outcome(
        lambda: _oracle_checked_graph(merged, old_edges + edges)
    )
    extended, error = _outcome(lambda: base.extend(vertices, edges))
    if oracle_error is not None:
        assert type(error) is type(oracle_error), (error, oracle_error)
        index, message = _split_prefix(str(error))
        oracle_index, oracle_message = _split_prefix(str(oracle_error))
        assert (index, message) == (oracle_index - len(old_edges), oracle_message)
        assert getattr(error, "cycle", None) == getattr(oracle_error, "cycle", None)
        assert getattr(error, "violation", None) == getattr(oracle_error, "violation", None)
        cause = edges[index]
        if isinstance(error, CycleIntroducedError):
            if cause.src == cause.dst:
                return "self-loop"
            return "cycle from an old vertex" if cause.src in base.vertices else "cycle"
        return type(error).__name__
    assert error is None, error
    assert list(extended.vertices.items()) == list(expected.vertices.items())
    assert extended.edges == expected.edges
    assert vars(extended)["_report"] == ((), ())  # known valid, as the oracle's
    fresh = ProvGraph(extended.vertices, extended.edges)
    assert fresh.validate_typing() == fresh.validate_acyclic() == []
    assert extended.validate_typing() == expected.validate_typing() == []
    assert extended.validate_acyclic() == expected.validate_acyclic() == []
    for vid in extended.vertices:
        own = [e for e in extended.edges if e.src == vid]
        assert Counter(extended.out_edges(vid)) == Counter(own), vid
    return "accepted"


def test_extend_agrees_with_the_whole_graph_check():
    outcomes, faults = Counter(), Counter()
    for seed in range(4000):
        base, vertices, edges, injected = _append_case(seed)
        outcomes[_assert_agrees_with_the_oracle(base, vertices, edges)] += 1
        faults.update(injected)
    # Every kind of outcome and fault occurred often enough to matter.
    for fault in ("repeat", "self_loop", "typing", "missing"):
        assert faults[fault] >= 100, faults
    for outcome in ("accepted", "cycle from an old vertex", "self-loop"):
        assert outcomes[outcome] >= 100, outcomes
    assert outcomes["cycle"] >= 60, outcomes  # closed by an edge from a new vertex
    for error in ("TypeViolationError", "MissingVertexError"):
        assert outcomes[error] >= 100, outcomes


def test_extend_agrees_with_the_oracle_at_every_split():
    # One record list, split into a base and an append at every point.
    rng = random.Random(5)
    graph, _ = random_graph_with_order(rng, 14, min_vertices=14, edge_chance=0.5)
    vertices = list(graph.vertices.values())
    edges = _sorted_edges(graph.edges)
    # Two faulty records: an edge from the last edge's end back to the first
    # edge's start, and a self-loop.
    first, last = edges[0], edges[-1]
    edges.insert(len(edges) // 2, LabeledEdge(last.dst, first.src, first.label))
    edges.append(LabeledEdge(first.dst, first.dst, first.label))
    for v in range(len(vertices) + 1):
        base_vertices = vertices[:v]
        ids = {vertex.id for vertex in base_vertices}
        for e in range(0, len(edges) + 1, 3):
            inside = [x for x in edges[:e] if x.src in ids and x.dst in ids]
            try:
                base = ProvGraph().extend(base_vertices, inside)
            except GraphError:
                continue
            rest = [x for x in edges if x not in base.edges]
            _assert_agrees_with_the_oracle(base, vertices[v:], rest)


def test_a_taken_id_of_another_kind_is_refused_and_repeats_are_no_ops(alice_trace):
    taken = "vertex 'm1' already exists with kind node_agent"
    with pytest.raises(DuplicateIdError, match=taken):
        alice_trace.extend([Vertex("Note", K.DATA_ENTITY), Vertex("m1", K.ACCOUNT_AGENT)])
    taken = "vertex 'n' already exists with kind data_entity"
    with pytest.raises(DuplicateIdError, match=taken):
        ProvGraph().extend([Vertex("n", K.DATA_ENTITY), Vertex("n", K.KEY_ENTITY)])
    repeats = [alice_trace.vertices["m1"], Vertex("Alice", K.ACCOUNT_AGENT, {"x": "y"})]
    assert alice_trace.extend(repeats, list(alice_trace.edges)) is alice_trace
    grown = alice_trace.extend([Vertex("Note", K.DATA_ENTITY)] * 2)
    assert list(grown.vertices) == [*alice_trace.vertices, "Note"]


def test_one_record_paths_are_one_record_extends(alice_trace):
    with pytest.raises(TypeViolationError, match=r"^edges\[0\]: Used does not admit"):
        alice_trace.add_edge("m1", "Alice", R.USED)
    with pytest.raises(MissingVertexError, match=r"^edges\[0\]: edge endpoint 'ghost'"):
        alice_trace.add_edge("ghost", "Alice", R.WAS_ATTRIBUTED_TO)
    closing = r"^edges\[0\]: edge KeyGenContract -> VoterKey would close the cycle"
    with pytest.raises(CycleIntroducedError, match=closing):
        alice_trace.add_edge("KeyGenContract", "VoterKey", R.WAS_DERIVED_FROM)
    assert alice_trace.add_edge("m1", "Alice", R.ACTED_ON_BEHALF_OF) is alice_trace
    assert alice_trace.add_vertex("m1", K.NODE_AGENT) is alice_trace


def test_an_unvalidated_parent_hands_on_no_report():
    # Built directly, the parent is unchecked: its child validates in full.
    vertices = {"a": Vertex("a", K.NODE_AGENT), "b": Vertex("b", K.NODE_AGENT)}
    parent = ProvGraph(vertices, {LabeledEdge("a", "b", R.USED)})
    child = parent.extend([Vertex("c", K.DATA_ENTITY)])
    assert "_report" not in vars(child)
    assert len(child.validate_typing()) == 1


# ---------------------------------------------------------------------------
# an append costs the event
# ---------------------------------------------------------------------------


def _population(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import population

    return population


def _records(history) -> tuple[list[Vertex], list[LabeledEdge]]:
    vertices = [Vertex(vid, K(kind)) for vid, kind in history.kinds.items()]
    edges = [LabeledEdge(s, d, R(label)) for s, d, label in history.edges]
    return vertices, edges


def test_a_history_grown_one_session_at_a_time_saves_as_loaded(monkeypatch):
    # A 2.8k-vertex population history, appended session by session, then
    # owner by owner, then the foreign-input links between old vertices.
    population = _population(monkeypatch)
    history = population.build_history(random.Random(1), voters=200, owners=20)
    parts = []
    for session in history.sessions:
        parts.append(population.History())
        parts[-1].add_session(session)
    for owner in history.owners:
        parts.append(population.History())
        parts[-1].add_owner(owner)
    parts.append(population.History(owners=history.owners))
    parts[-1].link_foreign_inputs()
    graph = ProvGraph()
    for part in parts:
        graph = graph.extend(*_records(part))
    assert len(graph.vertices) >= 2500
    assert vars(graph)["_report"] == ((), ())
    document = history.document()
    assert save_graph(graph) == save_graph(load_graph(document)) == document


def test_appending_a_session_lists_only_its_edges(monkeypatch):
    # The check builds out-lists of the new edges only, and hands the
    # parent's on, however large the parent.
    population = _population(monkeypatch)
    history = population.build_history(random.Random(1), voters=200, owners=20)
    graph = load_graph(history.document())
    session = population.History()
    session.add_session(population.Session("voter-new", "voter-new/booth1", 6))
    listed = []
    edge_lists = graph_module._edge_lists

    def counting_lists(edges, end):
        edges = list(edges)
        listed.append(len(edges))
        return edge_lists(edges, end)

    monkeypatch.setattr(graph_module, "_edge_lists", counting_lists)
    grown = graph.extend(*_records(session))
    assert listed == [len(session.edges)]
    assert vars(grown)["_report"] == ((), ())
    assert grown.has_edge("voter-new/booth1/Receipt", "voter-new", R.WAS_ATTRIBUTED_TO)


def test_chained_one_record_calls_build_the_batched_graph():
    # The one chained exerciser: each record of a random graph inserted on
    # its own, through ``add_vertex`` and ``add_edge``.
    for seed in range(200):
        graph, order = random_graph_with_order(random.Random(seed), 12, min_vertices=1)
        chained = ProvGraph()
        for vid in order:
            chained = chained.add_vertex(vid, graph.vertices[vid].kind)
        for edge in _sorted_edges(graph.edges):
            chained = chained.add_edge(edge.src, edge.dst, edge.label)
        assert chained == graph and vars(chained)["_report"] == ((), ())


def test_edges_may_come_from_an_iterator(alice_trace):
    # A refused batch is read twice, so a one-shot iterator is listed first.
    note = Vertex("Note", K.DATA_ENTITY)
    attributed = LabeledEdge("Note", "Alice", R.WAS_ATTRIBUTED_TO)
    loop = LabeledEdge("Note", "Note", R.WAS_DERIVED_FROM)
    with pytest.raises(CycleIntroducedError, match=r"^edges\[1\]: self-loop on 'Note'"):
        alice_trace.extend([note], iter([attributed, loop]))
    grown = alice_trace.extend([note], iter([attributed]))
    assert grown.has_edge("Note", "Alice", R.WAS_ATTRIBUTED_TO)
