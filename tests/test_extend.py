"""Growing a graph with ``ProvGraph.extend``: the one checked way in."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
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
    union,
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


def test_one_record_extends_name_index_zero(alice_trace):
    ill_typed = LabeledEdge("m1", "Alice", R.USED)
    with pytest.raises(TypeViolationError, match=r"^edges\[0\]: Used does not admit"):
        alice_trace.extend(edges=[ill_typed])
    dangling = LabeledEdge("ghost", "Alice", R.WAS_ATTRIBUTED_TO)
    with pytest.raises(MissingVertexError, match=r"^edges\[0\]: edge endpoint 'ghost'"):
        alice_trace.extend(edges=[dangling])
    closing = r"^edges\[0\]: edge KeyGenContract -> VoterKey would close the cycle"
    derived = LabeledEdge("KeyGenContract", "VoterKey", R.WAS_DERIVED_FROM)
    with pytest.raises(CycleIntroducedError, match=closing):
        alice_trace.extend(edges=[derived])
    held = LabeledEdge("m1", "Alice", R.ACTED_ON_BEHALF_OF)
    assert alice_trace.extend(edges=[held]) is alice_trace
    assert alice_trace.extend([Vertex("m1", K.NODE_AGENT)]) is alice_trace


def test_an_unvalidated_parent_hands_on_no_report():
    # Built directly, the parent is unchecked: its child validates in full.
    vertices = {"a": Vertex("a", K.NODE_AGENT), "b": Vertex("b", K.NODE_AGENT)}
    parent = ProvGraph(vertices, {LabeledEdge("a", "b", R.USED)})
    child = parent.extend([Vertex("c", K.DATA_ENTITY)])
    assert "_report" not in vars(child)
    assert len(child.validate_typing()) == 1


# ---------------------------------------------------------------------------
# in-lists handed on: the same edges as a graph built in one go
# ---------------------------------------------------------------------------


def _assert_same_lists(graph: ProvGraph, whole: ProvGraph) -> None:
    """Each vertex's in- and out-lists hold the edges of ``whole``'s."""
    assert graph.vertices.keys() == whole.vertices.keys()
    for vid in whole.vertices:
        assert Counter(graph.in_edges(vid)) == Counter(whole.in_edges(vid)), vid
        assert Counter(graph.out_edges(vid)) == Counter(whole.out_edges(vid)), vid


@pytest.mark.parametrize("built", [False, True], ids=["unbuilt", "built"])
def test_in_lists_agree_with_a_graph_built_in_one_go_at_every_split(built):
    # One valid record list per seed, split into a base and an append at
    # every vertex and every edge; the base has built its in-lists or not.
    for seed in range(8):
        whole, order = random_graph_with_order(random.Random(seed), 12, 8, edge_chance=0.5)
        vertices = [whole.vertices[vid] for vid in order]
        edges = _sorted_edges(whole.edges)
        for v in range(len(vertices) + 1):
            ids = set(order[:v])
            for e in range(len(edges) + 1):
                inside = [x for x in edges[:e] if x.src in ids and x.dst in ids]
                base = ProvGraph().extend(vertices[:v], inside)
                parent = base._incoming if built else None
                child = base.extend(vertices[v:], edges)
                assert ("_incoming" in vars(child)) is built
                _assert_same_lists(child, whole)
                if built and child is not base:
                    ends = {x.dst for x in child.edges - base.edges}
                    handed_on = vars(child)["_incoming"]
                    assert {vid for vid in parent if handed_on[vid] is not parent[vid]} <= ends


@pytest.mark.parametrize("voters, owners", [(20, 4), (200, 20)], ids=["300V", "2.8kV"])
def test_in_lists_survive_a_history_grown_one_session_at_a_time(population, voters, owners):
    # Every other parent has built its in-lists, so the chain mixes lists
    # handed on, lists rebuilt from the edges and no lists at all. At 300 V
    # each step is compared with a graph built from its records; at 2.8k V,
    # to keep the test short, only the end.
    history = population.build_history(random.Random(1), voters=voters, owners=owners)
    graph = ProvGraph()
    for i, part in enumerate(_parts(population, history)):
        if i % 2:
            graph._incoming
        graph = graph.extend(*_records(part))
        if voters <= 20:
            _assert_same_lists(graph, ProvGraph(graph.vertices, graph.edges))
    _assert_same_lists(graph, load_graph(history.document()))


# ---------------------------------------------------------------------------
# ``union`` through ``extend``, against the whole-graph union it replaced
# ---------------------------------------------------------------------------


def _oracle_union(*graphs: ProvGraph) -> ProvGraph:
    """``union`` as it was: merge, then validate the merged graph's
    acyclicity from scratch."""
    vertices: dict[str, Vertex] = {}
    edges: set[LabeledEdge] = set()
    for graph in graphs:
        for vid, vertex in graph.vertices.items():
            existing = vertices.get(vid)
            if existing is None:
                vertices[vid] = vertex
            elif existing.kind is not vertex.kind:
                raise DuplicateIdError(
                    f"union maps '{vid}' to both {existing.kind.value} and "
                    f"{vertex.kind.value}"
                )
            elif vertex.attrs and vertex.attrs != existing.attrs:
                vertices[vid] = Vertex(
                    vid, existing.kind, {**existing.attrs, **vertex.attrs}
                )
        edges |= graph.edges
    merged = ProvGraph(vertices, edges)
    cycles = merged.validate_acyclic()
    if cycles:
        raise CycleIntroducedError(
            f"union closes the cycle {' -> '.join(cycles[0])}", cycle=cycles[0]
        )
    return merged


_UNION_IDS = tuple(f"u{i}" for i in range(8))
_ATTRS = ({}, {}, {"a": "1"}, {"a": "2"}, {"b": "1"})


def _union_inputs(seed: int) -> list[ProvGraph]:
    """Two or three well-typed graphs over one small id pool, so they share
    ids; each orders its ids on its own, so their edges may close cycles
    across graphs. Some ids change kind (a conflict), some vertices carry
    attrs, and some graphs are built directly, so not known valid."""
    rng = random.Random(seed)
    kinds = {vid: rng.choice(KINDS) for vid in _UNION_IDS}
    graphs = []
    for _ in range(rng.choice((2, 3))):
        order = rng.sample(_UNION_IDS, rng.randint(1, 6))
        own = {vid: rng.choice(KINDS) if rng.random() < 0.04 else kinds[vid] for vid in order}
        edges = []
        for i, src in enumerate(order):
            for dst in order[i + 1:]:
                allowed = ALLOWED_BY_PAIR.get((own[src], own[dst]))
                if allowed and rng.random() < 0.4:
                    edges.append(LabeledEdge(src, dst, rng.choice(allowed)))
        vertices = [Vertex(vid, kind, rng.choice(_ATTRS)) for vid, kind in own.items()]
        graph = ProvGraph().extend(vertices, edges)
        if rng.random() < 0.2:
            graph = ProvGraph(graph.vertices, graph.edges)
        graphs.append(graph)
    return graphs


def test_union_agrees_with_the_whole_graph_union():
    outcomes = Counter()
    for seed in range(3000):
        graphs = _union_inputs(seed)
        expected, oracle_error = _outcome(lambda: _oracle_union(*graphs))
        merged, error = _outcome(lambda: union(*graphs))
        assert type(error) is type(oracle_error), (seed, error, oracle_error)
        if error is not None:
            outcomes[type(error).__name__] += 1
            if isinstance(error, CycleIntroducedError):
                edges = set().union(*(graph.edges for graph in graphs))
                cycle = error.cycle
                steps = zip(cycle, (*cycle[1:], cycle[0]))
                assert all(any(LabeledEdge(s, d, l) in edges for l in R) for s, d in steps)
                index, _ = _split_prefix(str(error))
                assert index >= 0
            continue
        merged_attrs = any(len(v.attrs) > 1 for v in merged.vertices.values())
        outcomes["attrs merged" if merged_attrs else "accepted"] += 1
        assert list(merged.vertices.items()) == list(expected.vertices.items())
        assert merged.edges == expected.edges
        assert vars(merged)["_report"] == ((), ())
        fresh = ProvGraph(merged.vertices, merged.edges)
        assert fresh.validate_typing() == fresh.validate_acyclic() == []
        _assert_same_lists(merged, fresh)
    for outcome in ("accepted", "attrs merged", "DuplicateIdError", "CycleIntroducedError"):
        assert outcomes[outcome] >= 100, outcomes


def test_a_union_of_known_valid_graphs_computes_no_report(validations):
    first, _ = random_graph_with_order(random.Random(3), 12, 12)
    renamed = first.renamed({vid: f"{vid}'" for vid in first.vertices})
    assert vars(renamed)["_report"] == ((), ())
    merged = union(first, renamed)
    assert merged.edges == first.edges | renamed.edges
    assert vars(merged)["_report"] == ((), ())
    assert validations == ([], [])


_TWO_CYCLES = """
from acdc_prov.graph import (
    CycleIntroducedError, LabeledEdge, ProvGraph, RelationLabel, Vertex, VertexKind, union,
)
ids = [f"d{i}" for i in range(12)]
vertices = [Vertex(vid, VertexKind.DATA_ENTITY) for vid in ids]
pairs = [*zip(ids, ids[1:]), ("d1", "d3"), ("d2", "d4"), ("d6", "d8"), ("d7", "d9")]
derived = RelationLabel.WAS_DERIVED_FROM
first = ProvGraph().extend(vertices, [LabeledEdge(*p, derived) for p in pairs])
back = [LabeledEdge(*p, derived) for p in (("d9", "d1"), ("d11", "d6"))]
later = ProvGraph().extend(vertices, back)
for graphs in ((first, later), (ProvGraph(first.vertices, first.edges), later)):
    try:
        union(*graphs)
    except CycleIntroducedError as exc:
        print(repr((str(exc), exc.cycle)))
"""


def test_a_union_closing_two_cycles_reports_the_same_one_under_any_hash_seed():
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _TWO_CYCLES],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    # Every graph's edges are checked from the empty graph in (src, dst,
    # label) order, and walks break ties by id: d9 -> d1, the 16th, closes
    # the first cycle, whether or not the first graph is known valid.
    cycle = ("d9", "d1", "d2", "d4", "d5", "d6", "d7")
    closing = " -> ".join((*cycle, cycle[0]))
    message = f"edges[15]: edge d9 -> d1 would close the cycle {closing}"
    assert outputs[0].splitlines() == [repr((message, cycle))] * 2


def test_union_refuses_an_ill_typed_edge_of_a_graph_built_directly():
    agent, key = Vertex("n", VertexKind.NODE_AGENT), Vertex("k", VertexKind.KEY_ENTITY)
    ill_typed = ProvGraph(
        {"k": key, "n": agent}, {LabeledEdge("k", "n", RelationLabel.WAS_DERIVED_FROM)}
    )
    valid = ProvGraph().extend([Vertex("d", VertexKind.DATA_ENTITY)])
    valid.validate_typing()
    assert vars(valid)["_report"] == ((), ())
    for graphs in ((valid, ill_typed), (ProvGraph(valid.vertices, valid.edges), ill_typed)):
        with pytest.raises(TypeViolationError, match=r"^edges\[0\]: "):
            union(*graphs)


# ---------------------------------------------------------------------------
# an append costs the event
# ---------------------------------------------------------------------------


def _records(history) -> tuple[list[Vertex], list[LabeledEdge]]:
    vertices = [Vertex(vid, K(kind)) for vid, kind in history.kinds.items()]
    edges = [LabeledEdge(s, d, R(label)) for s, d, label in history.edges]
    return vertices, edges


def _parts(population, history) -> list:
    """``history`` as appends: session by session, then owner by owner, then
    the foreign-input links between old vertices."""
    parts = []
    for session in history.sessions:
        parts.append(population.History())
        parts[-1].add_session(session)
    for owner in history.owners:
        parts.append(population.History())
        parts[-1].add_owner(owner)
    parts.append(population.History(owners=history.owners))
    parts[-1].link_foreign_inputs()
    return parts


def test_a_history_grown_one_session_at_a_time_saves_as_loaded(population):
    # A 2.8k-vertex population history, appended one part at a time.
    history = population.build_history(random.Random(1), voters=200, owners=20)
    graph = ProvGraph()
    for part in _parts(population, history):
        graph = graph.extend(*_records(part))
    assert len(graph.vertices) >= 2500
    assert vars(graph)["_report"] == ((), ())
    document = history.document()
    assert save_graph(graph) == save_graph(load_graph(document)) == document


# The two population sizes each count pin is taken at: (voters, owners) of
# about 300 and 2.8k vertices, with the same voter shape.
_SIZES = pytest.mark.parametrize("voters, owners", [(20, 4), (200, 20)], ids=["300V", "2.8kV"])


@_SIZES
@pytest.mark.parametrize("built", [False, True], ids=["out-lists", "both-lists"])
def test_appending_a_session_lists_only_its_edges(
    population, monkeypatch, voters, owners, built
):
    # The check lists the new edges once per direction the parent has built,
    # and hands the parent's lists on, however large the parent: only the
    # lists of the new edges' ends are new.
    history = population.build_history(random.Random(1), voters=voters, owners=owners)
    graph = load_graph(history.document())
    parents = [graph._outgoing, *([graph._incoming] if built else [])]
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
    assert listed == [len(session.edges)] * len(parents)
    assert ("_incoming" in vars(grown)) is built
    for name, end, parent in zip(("_outgoing", "_incoming"), ("src", "dst"), parents):
        ends = {getattr(edge, end) for edge in grown.edges - graph.edges}
        handed_on = vars(grown)[name]
        assert {vid for vid, own in handed_on.items() if parent.get(vid) is not own} == ends
    assert vars(grown)["_report"] == ((), ())
    assert grown.has_edge("voter-new/booth1/Receipt", "voter-new", R.WAS_ATTRIBUTED_TO)
    receipt = LabeledEdge("voter-new/booth1/Receipt", "voter-new", R.WAS_ATTRIBUTED_TO)
    assert receipt in grown.in_edges("voter-new")


@_SIZES
def test_loading_scans_each_edge_once_and_walks_nothing(
    population, monkeypatch, voters, owners
):
    history = population.build_history(random.Random(1), voters=voters, owners=owners)
    scanned, walks = [], []
    scan, walk = graph_module._scan, graph_module._walk

    def counting_scan(vertices, outgoing):
        scanned.append(sum(map(len, outgoing.values())))
        return scan(vertices, outgoing)

    def counting_walk(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(graph_module, "_scan", counting_scan)
    monkeypatch.setattr(graph_module, "_walk", counting_walk)
    graph = load_graph(history.document())
    assert scanned == [len(history.edges)] == [len(graph.edges)]
    assert walks == []


class _Counted:
    """Counts the items read by iterating any instance, in ``_Counted.reads``."""

    reads = 0

    def __iter__(self):
        for item in super().__iter__():
            _Counted.reads += 1
            yield item


class _CountedList(_Counted, list):
    pass


class _CountedSet(_Counted, frozenset):
    pass


@_SIZES
def test_has_edge_reads_at_most_the_source_out_degree(population, voters, owners):
    history = population.build_history(random.Random(1), voters=voters, owners=owners)
    graph = load_graph(history.document())
    degree = {vid: len(own) for vid, own in graph._outgoing.items()}
    probes = [(e.src, e.dst, e.label) for e in _sorted_edges(graph.edges)]
    probes += [(src, src, label) for src, _, label in probes]  # absent
    probes += [("absent", "absent", R.USED)]
    # Every edge container the graph holds counts what is read from it.
    for name in ("_outgoing", "_incoming"):
        lists = getattr(graph, name)
        vars(graph)[name] = {vid: _CountedList(own) for vid, own in lists.items()}
    vars(graph)["edges"] = _CountedSet(graph.edges)
    for src, dst, label in probes:
        before = _Counted.reads
        assert graph.has_edge(src, dst, label) is (LabeledEdge(src, dst, label) in graph.edges)
        assert _Counted.reads - before <= degree.get(src, 0), (src, dst, label)
    assert max(degree.values()) <= 7  # the synthetic voting histories' bound


def test_chained_one_record_calls_build_the_batched_graph():
    # The one chained exerciser: each record of a random graph inserted on
    # its own, through a one-record ``extend``.
    for seed in range(200):
        graph, order = random_graph_with_order(random.Random(seed), 12, min_vertices=1)
        chained = ProvGraph()
        for vid in order:
            chained = chained.extend([Vertex(vid, graph.vertices[vid].kind)])
        for edge in _sorted_edges(graph.edges):
            chained = chained.extend(edges=[edge])
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
