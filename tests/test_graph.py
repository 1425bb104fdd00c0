"""Graph model: construction, typing enforcement, acyclicity, queries."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from acdc_prov.graph import (
    CycleIntroducedError,
    DuplicateIdError,
    LabeledEdge,
    MissingVertexError,
    ProvGraph,
    RelationLabel,
    Sort,
    TYPING_RULES,
    TypeViolation,
    TypeViolationError,
    Vertex,
    VertexKind,
    _walk,
    union,
)
from acdc_prov.events import extract_event, slice_by_agent
from acdc_prov.storage import load_graph, load_graph_unchecked, save_graph
from acdc_prov.scenarios import corpus_graphs
from randgen import random_graph, random_graph_with_order, random_large_graph
from test_extend import _Counted, _CountedList

ROOT = Path(__file__).resolve().parent.parent

K = VertexKind
R = RelationLabel


def two_vertex_graph(src_kind: K, dst_kind: K) -> ProvGraph:
    return ProvGraph().extend([Vertex("a", src_kind), Vertex("b", dst_kind)])


# ---------------------------------------------------------------------------
# vertices
# ---------------------------------------------------------------------------


def test_extend_by_a_vertex_returns_new_graph():
    empty = ProvGraph()
    g = empty.extend([Vertex("k", K.KEY_ENTITY)])
    assert "k" in g.vertices
    assert "k" not in empty.vertices


def test_extend_by_a_held_vertex_of_the_same_kind_is_a_no_op():
    g = ProvGraph().extend([Vertex("k", K.KEY_ENTITY)])
    assert g.extend([Vertex("k", K.KEY_ENTITY)]) == g


def test_extend_rejects_a_kind_change():
    g = ProvGraph().extend([Vertex("k", K.KEY_ENTITY)])
    with pytest.raises(DuplicateIdError):
        g.extend([Vertex("k", K.DATA_ENTITY)])


@pytest.mark.parametrize(
    "make",
    [
        lambda: Vertex("", K.KEY_ENTITY),
        lambda: Vertex("k", K.KEY_ENTITY, {"x": 1}),
        lambda: Vertex("k", K.KEY_ENTITY, {1: "x"}),
        lambda: Vertex("k", K.KEY_ENTITY, {"x": None}),
        lambda: Vertex("\ud800", K.KEY_ENTITY),
        lambda: Vertex("k", K.KEY_ENTITY, {"\udfff": "x"}),
        lambda: two_vertex_graph(K.DATA_ENTITY, K.DATA_ENTITY).renamed({"a": ""}),
        lambda: Vertex("k", K.KEY_ENTITY, None),
        lambda: Vertex(7, K.KEY_ENTITY),
        lambda: ProvGraph({"x": Vertex("a", K.ACTIVITY)}),
        lambda: ProvGraph({"": Vertex("a", K.ACTIVITY)}),
        lambda: Vertex("a", "activity"),
        lambda: Vertex("a", Sort.ACTIVITY),
        lambda: Vertex("a", None),
        lambda: two_vertex_graph(K.ACTIVITY, K.KEY_ENTITY).extend(
            edges=[LabeledEdge("a", "b", "Used")]
        ),
        lambda: ProvGraph(
            two_vertex_graph(K.ACTIVITY, K.KEY_ENTITY).vertices,
            {LabeledEdge("a", "b", "Used")},
        ).validate_typing(),
    ],
    ids=[
        "empty-id", "int-value", "int-key", "none-value", "surrogate-id",
        "surrogate-key", "renamed-to-empty", "attrs-none", "int-id",
        "key-not-id", "empty-key", "kind-name", "sort-kind", "no-kind",
        "label-name", "unchecked-label-name",
    ],
)
def test_a_vertex_record_that_breaks_the_rule_is_refused(make):
    # Every vertex, however it is made, keeps one rule, so any graph of
    # them saves to a document that loads back.
    with pytest.raises(ValueError):
        make()


def test_a_kind_that_is_not_a_vertex_kind_is_refused_by_name():
    message = "vertex kind must be a VertexKind, not 'activity'"
    with pytest.raises(ValueError, match=f"^{message}$"):
        Vertex("a", "activity")


@pytest.mark.parametrize("label", ["Used", "used", None, K.ACTIVITY])
def test_an_edge_label_that_is_not_a_relation_label_is_refused(label):
    # The refusal names the label, where it used to surface as a bare
    # KeyError from the typing table.
    g = two_vertex_graph(K.ACTIVITY, K.KEY_ENTITY)
    bad = LabeledEdge("a", "b", label)
    message = f"edge label must be a RelationLabel, not {label!r}"
    with pytest.raises(ValueError, match=f"^edges\\[1\\]: {re.escape(message)}$"):
        g.extend(edges=[LabeledEdge("a", "b", R.USED), bad])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ProvGraph(g.vertices, {bad}).validate_typing()
    with pytest.raises(ValueError, match=re.escape(message)):
        ProvGraph(g.vertices, {bad}).validate_acyclic()


@pytest.mark.parametrize("label", ["Used", None, K.ACTIVITY])
def test_direct_construction_refuses_an_edge_label_that_is_not_a_relation_label(label):
    # Such an edge used to be taken: ``has_edge`` then answered for the
    # string "Used" but not for ``R.USED``, and ``save_graph`` raised
    # AttributeError.
    vertices = two_vertex_graph(K.ACTIVITY, K.KEY_ENTITY).vertices
    message = f"edge label must be a RelationLabel, not {label!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ProvGraph(vertices, {LabeledEdge("a", "b", label)})


def test_vertex_attrs_are_kept():
    g = ProvGraph().extend([Vertex("k", K.KEY_ENTITY, {"display": "owner key"})])
    assert g.vertices["k"].attrs == {"display": "owner key"}


# ---------------------------------------------------------------------------
# edges
# ---------------------------------------------------------------------------


def test_extend_by_an_edge_and_has_edge():
    used = LabeledEdge("a", "b", R.USED)
    g = two_vertex_graph(K.ACTIVITY, K.KEY_ENTITY).extend(edges=[used])
    assert g.has_edge("a", "b", R.USED)
    assert not g.has_edge("b", "a", R.USED)
    assert not g.has_edge("a", "b", R.WAS_DERIVED_FROM)
    assert not g.has_edge("a", "missing", R.USED)


def test_extend_by_a_held_edge_is_a_no_op():
    used = LabeledEdge("a", "b", R.USED)
    g = two_vertex_graph(K.ACTIVITY, K.KEY_ENTITY).extend(edges=[used])
    assert g.extend(edges=[used]) == g


def test_extend_by_an_edge_requires_endpoints():
    g = ProvGraph().extend([Vertex("a", K.ACTIVITY)])
    with pytest.raises(MissingVertexError):
        g.extend(edges=[LabeledEdge("a", "ghost", R.USED)])


def test_extend_rejects_wrong_direction_delegation():
    # Delegation runs node agent -> account agent, never the reverse.
    g = two_vertex_graph(K.ACCOUNT_AGENT, K.NODE_AGENT)
    with pytest.raises(TypeViolationError) as err:
        g.extend(edges=[LabeledEdge("a", "b", R.ACTED_ON_BEHALF_OF)])
    assert err.value.violation.src_kind is K.ACCOUNT_AGENT
    assert "ActedOnBehalfOf" in str(err.value)


def test_extend_rejects_association_with_account_agent():
    g = two_vertex_graph(K.ACTIVITY, K.ACCOUNT_AGENT)
    with pytest.raises(TypeViolationError):
        g.extend(edges=[LabeledEdge("a", "b", R.WAS_ASSOCIATED_WITH)])


def test_extend_rejects_two_cycle():
    g = two_vertex_graph(K.DATA_ENTITY, K.DATA_ENTITY)
    g = g.extend(edges=[LabeledEdge("a", "b", R.WAS_DERIVED_FROM)])
    with pytest.raises(CycleIntroducedError) as err:
        g.extend(edges=[LabeledEdge("b", "a", R.WAS_DERIVED_FROM)])
    assert set(err.value.cycle) == {"a", "b"}


def test_extend_rejects_longer_cycle():
    g = ProvGraph().extend(
        [Vertex(vid, K.DATA_ENTITY) for vid in "abc"],
        [LabeledEdge(*pair, R.WAS_DERIVED_FROM) for pair in ("ab", "bc")],
    )
    with pytest.raises(CycleIntroducedError):
        g.extend(edges=[LabeledEdge("c", "a", R.WAS_DERIVED_FROM)])


def test_extend_rejects_self_loop():
    g = ProvGraph().extend([Vertex("d", K.DATA_ENTITY)])
    with pytest.raises(CycleIntroducedError):
        g.extend(edges=[LabeledEdge("d", "d", R.WAS_DERIVED_FROM)])


def test_parallel_labels_between_same_vertices():
    g = two_vertex_graph(K.DATA_ENTITY, K.CONTRACT_ENTITY)
    g = g.extend(edges=[LabeledEdge("a", "b", R.WAS_DERIVED_FROM)])
    # A second label on the same ordered pair is a distinct edge.
    g2 = two_vertex_graph(K.ACTIVITY, K.CONTRACT_ENTITY)
    g2 = g2.extend(edges=[LabeledEdge("a", "b", R.USED)])
    assert len(g.edges) == 1 and len(g2.edges) == 1


# ---------------------------------------------------------------------------
# typing table
# ---------------------------------------------------------------------------


def test_typing_table_has_23_admitted_combinations():
    assert sum(len(pairs) for pairs in TYPING_RULES.values()) == 23


@pytest.mark.parametrize(
    "label,src,dst",
    [
        (R.USED, K.ACTIVITY, K.KEY_ENTITY),
        (R.USED, K.ACTIVITY, K.CONTRACT_ENTITY),
        (R.USED, K.ACTIVITY, K.DATA_ENTITY),
        (R.WAS_GENERATED_BY, K.DATA_ENTITY, K.ACTIVITY),
        (R.WAS_ATTRIBUTED_TO, K.KEY_ENTITY, K.NODE_AGENT),
        (R.WAS_ATTRIBUTED_TO, K.DATA_ENTITY, K.ACCOUNT_AGENT),
        (R.WAS_DERIVED_FROM, K.DATA_ENTITY, K.KEY_ENTITY),
        (R.ACTED_ON_BEHALF_OF, K.NODE_AGENT, K.ACCOUNT_AGENT),
        (R.WAS_ASSOCIATED_WITH, K.ACTIVITY, K.NODE_AGENT),
    ],
)
def test_representative_rows_are_admitted(label, src, dst):
    assert (src, dst) in TYPING_RULES[label]


@pytest.mark.parametrize(
    "label,src,dst",
    [
        (R.USED, K.KEY_ENTITY, K.ACTIVITY),
        (R.WAS_GENERATED_BY, K.ACTIVITY, K.DATA_ENTITY),
        (R.WAS_ATTRIBUTED_TO, K.ACTIVITY, K.ACCOUNT_AGENT),
        (R.ACTED_ON_BEHALF_OF, K.ACCOUNT_AGENT, K.NODE_AGENT),
        (R.WAS_ASSOCIATED_WITH, K.ACTIVITY, K.ACCOUNT_AGENT),
        (R.WAS_DERIVED_FROM, K.DATA_ENTITY, K.ACTIVITY),
    ],
)
def test_representative_rows_are_rejected(label, src, dst):
    assert (src, dst) not in TYPING_RULES[label]


def test_validate_typing_reports_forced_violation():
    # Direct construction bypasses the insertion checks on purpose.
    vertices = {
        "a": Vertex("a", K.ACTIVITY),
        "b": Vertex("b", K.ACCOUNT_AGENT),
    }
    bad = ProvGraph(vertices, frozenset({LabeledEdge("a", "b", R.WAS_ASSOCIATED_WITH)}))
    violations = bad.validate_typing()
    assert len(violations) == 1
    assert violations[0].src == "a" and violations[0].dst == "b"
    assert violations[0].dst_kind is K.ACCOUNT_AGENT
    assert "WasAssociatedWith" in violations[0].describe()


def test_validate_typing_lists_violations_by_src_dst_label():
    # One vertex per kind and every labeled edge between two of them: the
    # report holds exactly the edges the table refuses, in sorted order,
    # whatever order the edge set iterates in.
    vertices = {kind.value: Vertex(kind.value, kind) for kind in K}
    edges = frozenset(
        LabeledEdge(s.value, t.value, label)
        for s in K
        for t in K
        for label in R
        if s is not t
    )
    violations = ProvGraph(vertices, edges).validate_typing()
    refused = [
        (e.src, e.dst, e.label)
        for e in sorted(edges, key=lambda e: (e.src, e.dst, e.label.value))
        if (vertices[e.src].kind, vertices[e.dst].kind) not in TYPING_RULES[e.label]
    ]
    assert len(refused) > 100
    assert [(v.src, v.dst, v.label) for v in violations] == refused


def test_validate_acyclic_reports_forced_cycle():
    vertices = {
        "x": Vertex("x", K.DATA_ENTITY),
        "y": Vertex("y", K.DATA_ENTITY),
    }
    edges = frozenset(
        {
            LabeledEdge("x", "y", R.WAS_DERIVED_FROM),
            LabeledEdge("y", "x", R.WAS_DERIVED_FROM),
        }
    )
    cycles = ProvGraph(vertices, edges).validate_acyclic()
    assert cycles == [("x", "y")]


def test_naming_cycles_reads_each_edge_a_fixed_number_of_times():
    # 100 three-vertex cycles, each feeding one hub of 2000 leaves. The
    # walk that names a cycle reads only its own component's edges, so the
    # hub's fan-out is not read once per cycle: the scan, both traversals
    # and the components' own lists each read every edge once.
    vertices = [Vertex("hub", K.DATA_ENTITY)]
    edges = []
    for i in range(2000):
        vertices.append(Vertex(f"leaf{i}", K.DATA_ENTITY))
        edges.append(LabeledEdge("hub", f"leaf{i}", R.WAS_DERIVED_FROM))
    for i in range(100):
        ring = [f"c{i}a", f"c{i}b", f"c{i}c"]
        vertices += [Vertex(vid, K.DATA_ENTITY) for vid in ring]
        for src, dst in zip(ring, ring[1:] + ring[:1]):
            edges.append(LabeledEdge(src, dst, R.WAS_DERIVED_FROM))
        edges.append(LabeledEdge(ring[0], "hub", R.WAS_DERIVED_FROM))
    graph = ProvGraph({v.id: v for v in vertices}, edges)
    vars(graph)["_outgoing"] = {
        vid: _CountedList(own) for vid, own in graph._outgoing.items()
    }
    before = _Counted.reads
    cycles = graph.validate_acyclic()
    assert cycles == sorted((f"c{i}a", f"c{i}b", f"c{i}c") for i in range(100))
    assert _Counted.reads - before <= 4 * len(graph.edges)


def test_validate_clean_graph(encapsulation):
    assert encapsulation.validate_typing() == []
    assert encapsulation.validate_acyclic() == []


# ---------------------------------------------------------------------------
# sorts and queries
# ---------------------------------------------------------------------------


def test_vertices_of_sort_on_encapsulation(encapsulation):
    assert encapsulation.vertices_of_sort(Sort.KEY_ENTITY) == {"Key_SGX", "Key_Bob"}
    assert encapsulation.vertices_of_sort(Sort.ACTIVITY) == {"Encapsulate"}
    assert encapsulation.vertices_of_sort(Sort.ENTITY) == {
        "Key_SGX",
        "Key_Bob",
        "Plaintext",
        "SecureCapsule",
        "EncapsulateContract",
    }
    assert encapsulation.vertices_of_sort(Sort.AGENT) == {"sgx", "Bob"}
    assert encapsulation.vertices_of_sort(Sort.VERTEX) == set(encapsulation.vertices)


def test_vertices_of_sort_on_empty_graph():
    assert ProvGraph().vertices_of_sort(Sort.VERTEX) == set()


def test_kinds_are_read_through_vertices(encapsulation):
    assert encapsulation.vertices["sgx"].kind is K.NODE_AGENT
    with pytest.raises(KeyError):
        encapsulation.vertices["nobody"]


def test_out_and_in_edges(encapsulation):
    used = {e.dst for e in encapsulation.out_edges("Encapsulate", R.USED)}
    assert used == {"Plaintext", "EncapsulateContract", "Key_SGX", "Key_Bob"}
    generated = {e.src for e in encapsulation.in_edges("Encapsulate", R.WAS_GENERATED_BY)}
    assert generated == {"SecureCapsule"}
    assert len(list(encapsulation.out_edges("Encapsulate"))) == 5


# ---------------------------------------------------------------------------
# renaming and union
# ---------------------------------------------------------------------------


def test_renamed_rewrites_vertices_and_edges(encapsulation):
    renamed = encapsulation.renamed({"Bob": "Alice"})
    assert "Bob" not in renamed.vertices
    assert renamed.has_edge("sgx", "Alice", R.ACTED_ON_BEHALF_OF)
    assert len(renamed.edges) == len(encapsulation.edges)


def test_renamed_rejects_collisions():
    g = two_vertex_graph(K.DATA_ENTITY, K.DATA_ENTITY)
    with pytest.raises(DuplicateIdError):
        g.renamed({"a": "b"})


def test_union_merges_and_checks_kinds(encapsulation):
    other = ProvGraph().extend([Vertex("Extra", K.DATA_ENTITY)])
    merged = union(encapsulation, other)
    assert set(merged.vertices) == set(encapsulation.vertices) | {"Extra"}
    conflicting = ProvGraph().extend([Vertex("Bob", K.NODE_AGENT)])
    with pytest.raises(DuplicateIdError):
        union(encapsulation, conflicting)


def test_union_rejects_cross_graph_cycles():
    g = two_vertex_graph(K.DATA_ENTITY, K.DATA_ENTITY)
    a = g.extend(edges=[LabeledEdge("a", "b", R.WAS_DERIVED_FROM)])
    b = g.extend(edges=[LabeledEdge("b", "a", R.WAS_DERIVED_FROM)])
    with pytest.raises(CycleIntroducedError):
        union(a, b)


# ---------------------------------------------------------------------------
# read-only values, validated once
# ---------------------------------------------------------------------------


def _graph_with_attrs() -> ProvGraph:
    vertices = [
        Vertex(vid, kind, {"display": vid.lower()})
        for vid, kind in (
            ("Run", K.ACTIVITY),
            ("Out", K.DATA_ENTITY),
            ("m1", K.NODE_AGENT),
            ("Bob", K.ACCOUNT_AGENT),
        )
    ]
    return ProvGraph().extend(
        vertices,
        [
            LabeledEdge("Out", "Run", R.WAS_GENERATED_BY),
            LabeledEdge("Out", "Bob", R.WAS_ATTRIBUTED_TO),
            LabeledEdge("Run", "m1", R.WAS_ASSOCIATED_WITH),
            LabeledEdge("m1", "Bob", R.ACTED_ON_BEHALF_OF),
        ],
    )


_GRAPH_SOURCES = {
    "empty": lambda: ProvGraph(),
    "constructor": lambda: ProvGraph({"Run": Vertex("Run", K.ACTIVITY, {"display": "run"})}),
    "extend": _graph_with_attrs,
    "load_graph": lambda: load_graph(save_graph(_graph_with_attrs())),
    "load_graph_unchecked": lambda: load_graph_unchecked(save_graph(_graph_with_attrs())),
    "union": lambda: union(
        _graph_with_attrs(),
        ProvGraph().extend([Vertex("Bob", K.ACCOUNT_AGENT, {"x": "y"})]),
    ),
    "renamed": lambda: _graph_with_attrs().renamed({"Bob": "Alice"}),
    "extract_event": lambda: extract_event(_graph_with_attrs(), "Run"),
    "slice_by_agent": lambda: slice_by_agent(_graph_with_attrs(), "Bob"),
}


@pytest.mark.parametrize("make", _GRAPH_SOURCES.values(), ids=_GRAPH_SOURCES.keys())
def test_graphs_are_read_only(make):
    graph = make()
    before = save_graph(graph)
    with pytest.raises(TypeError):
        graph.vertices["Intruder"] = Vertex("Intruder", K.ACTIVITY)
    for vertex in graph.vertices.values():
        assert vertex.attrs
        with pytest.raises(TypeError):
            vertex.attrs["display"] = "changed"
    assert save_graph(graph) == before


def test_graphs_keep_private_copies_of_their_inputs():
    attrs = {"display": "first"}
    vertices = {"x": Vertex("x", K.DATA_ENTITY, attrs), "y": Vertex("y", K.DATA_ENTITY)}
    edges = {LabeledEdge("x", "y", R.WAS_DERIVED_FROM)}
    graph = ProvGraph(vertices, edges)
    added = ProvGraph().extend([Vertex("z", K.DATA_ENTITY, attrs)])
    attrs["display"] = "second"
    vertices["w"] = vertices.pop("y")
    edges.add(LabeledEdge("y", "x", R.WAS_DERIVED_FROM))
    assert set(graph.vertices) == {"x", "y"}
    assert graph.vertices["x"].attrs == {"display": "first"}
    assert added.vertices["z"].attrs == {"display": "first"}
    assert graph.edges == frozenset({LabeledEdge("x", "y", R.WAS_DERIVED_FROM)})
    assert isinstance(graph.edges, frozenset)


def test_validation_reports_are_fresh_lists():
    vertices = {
        "a": Vertex("a", K.NODE_AGENT),
        "b": Vertex("b", K.NODE_AGENT),
        "x": Vertex("x", K.DATA_ENTITY),
        "y": Vertex("y", K.DATA_ENTITY),
    }
    edges = {
        LabeledEdge("a", "b", R.USED),
        LabeledEdge("x", "y", R.WAS_DERIVED_FROM),
        LabeledEdge("y", "x", R.WAS_DERIVED_FROM),
    }
    graph = ProvGraph(vertices, edges)
    graph.validate_typing().clear()
    graph.validate_acyclic().append(("a",))
    violations = graph.validate_typing()
    assert [(v.src, v.dst) for v in violations] == [("a", "b")]
    assert graph.validate_acyclic() == [("x", "y")]


def test_read_only_graphs_still_copy_and_pickle(alice_trace):
    graph = alice_trace.extend([Vertex("Note", K.DATA_ENTITY, {"display": "memo"})])
    for twin in (copy.copy(graph), copy.deepcopy(graph), pickle.loads(pickle.dumps(graph))):
        assert twin == graph
        assert save_graph(twin) == save_graph(graph)
        with pytest.raises(TypeError):
            twin.vertices["Note"].attrs["display"] = "changed"


# ---------------------------------------------------------------------------
# the adjacency index answers as the edge scans it replaced
# ---------------------------------------------------------------------------


def _scan_edges(graph: ProvGraph, end: str, vid: str, label: R | None) -> list:
    """The oracle for ``out_edges`` (``end="src"``) and ``in_edges``
    (``end="dst"``): a filtered iteration over every edge, sorted, as a
    vertex's lists keep its edges in the order they were added."""
    return _sorted_edges(
        e
        for e in graph.edges
        if getattr(e, end) == vid and (label is None or e.label is label)
    )


def _sorted_edges(edges) -> list:
    return sorted(edges, key=lambda e: (e.src, e.dst, e.label.value))


def _assert_index_matches_scans(
    graph: ProvGraph, rng: random.Random | None = None, ids: list[str] | None = None
):
    """Compare every query with its scan, over ``ids`` (by default the
    graph's ids) and two absent ids; on graphs of more than 40 vertices,
    probe ``has_edge`` at every edge, at each edge with one field changed,
    and at 5000 random triples."""
    ids = sorted(graph.vertices if ids is None else ids) + ["absent", ""]
    if len(graph.vertices) <= 40:
        probes = [(s, d, l) for s in ids for d in ids for l in R]
    else:
        rng = rng or random.Random(0)
        probes = [(e.src, e.dst, e.label) for e in graph.edges]
        for src, dst, label in list(probes):
            probes += [
                (dst, src, label),
                (src, rng.choice(ids), label),
                (src, dst, rng.choice(list(R))),
            ]
        probes += [
            (rng.choice(ids), rng.choice(ids), rng.choice(list(R))) for _ in range(5000)
        ]
    for src, dst, label in probes:
        expected = LabeledEdge(src, dst, label) in graph.edges
        assert graph.has_edge(src, dst, label) is expected, (src, dst, label)
    for vid in ids:
        for label in (None, *R):
            outgoing = _scan_edges(graph, "src", vid, label)
            incoming = _scan_edges(graph, "dst", vid, label)
            assert _sorted_edges(graph.out_edges(vid, label)) == outgoing
            assert _sorted_edges(graph.in_edges(vid, label)) == incoming


def test_index_matches_the_scans_on_the_corpus():
    for graph in corpus_graphs().values():
        _assert_index_matches_scans(graph)


def test_index_matches_the_scans_on_random_graphs():
    for seed in range(40):
        _assert_index_matches_scans(random_graph(random.Random(seed)))
    for seed in range(3):
        rng = random.Random(seed)
        _assert_index_matches_scans(random_large_graph(rng), rng)


def test_index_matches_the_scans_at_high_degree():
    # "Hub" uses 3000 entities and 3000 activities use "Contract"; half
    # the entities were generated by one of those activities, so the
    # long lists mix labels.
    entities = [f"e{i:04d}" for i in range(3000)]
    activities = [f"a{i:04d}" for i in range(3000)]
    vertices = {vid: Vertex(vid, K.DATA_ENTITY) for vid in entities}
    vertices |= {vid: Vertex(vid, K.ACTIVITY) for vid in ["Hub", *activities]}
    vertices["Contract"] = Vertex("Contract", K.CONTRACT_ENTITY)
    edges = {LabeledEdge("Hub", e, R.USED) for e in entities}
    edges |= {LabeledEdge(a, "Contract", R.USED) for a in activities}
    edges |= {
        LabeledEdge(e, a, R.WAS_GENERATED_BY) for e, a in zip(entities[::2], activities)
    }
    graph = ProvGraph(vertices, edges)
    assert graph.validate_typing() == graph.validate_acyclic() == []
    ids = ["Hub", "Contract", "e0000", "e0001", "e2999", "a0000", "a2999"]
    for twin in (graph, load_graph(save_graph(graph))):
        _assert_index_matches_scans(twin, random.Random(0), ids)
        assert len(list(twin.out_edges("Hub", R.USED))) == 3000
        assert len(list(twin.in_edges("Contract"))) == 3000


def test_index_matches_the_scans_on_derived_graphs(encapsulation, alice_trace):
    built = _graph_with_attrs().extend(
        [Vertex("In", K.KEY_ENTITY)], [LabeledEdge("Run", "In", R.USED)]
    )
    for graph in (
        built,
        encapsulation.renamed({"Bob": "Alice", "Encapsulate": "Seal"}),
        union(encapsulation, alice_trace, built),
    ):
        _assert_index_matches_scans(graph)


def test_derived_graphs_answer_from_their_own_edges(alice_trace):
    graph = alice_trace.extend([Vertex("Note", K.DATA_ENTITY)])
    new_edge = ("Note", "Alice", R.WAS_ATTRIBUTED_TO)
    assert not graph.has_edge(*new_edge)
    assert list(graph.out_edges("Note")) == []
    assert list(graph.in_edges("Alice", R.ACTED_ON_BEHALF_OF))
    lists = [vars(graph)[name] for name in ("_outgoing", "_incoming")]
    derived = {
        "extend_edge": graph.extend(edges=[LabeledEdge(*new_edge)]),
        "extend_vertex": graph.extend([Vertex("Other", K.DATA_ENTITY)]),
        "renamed": graph.renamed({"Note": "Memo"}),
        "union": union(graph, ProvGraph().extend([Vertex("Other", K.DATA_ENTITY)])),
        "copy": copy.copy(graph),
        "deepcopy": copy.deepcopy(graph),
        "pickle": pickle.loads(pickle.dumps(graph)),
    }
    for name, twin in derived.items():
        _assert_index_matches_scans(twin)
        # None holds the parent's lists; ``extend`` hands on a copy of the
        # out-lists, sharing only the lists its new edges leave untouched.
        held = list(vars(twin).values())
        assert not any(mine is theirs for mine in held for theirs in lists), name
    handed_on = vars(derived["extend_edge"])["_outgoing"]
    assert handed_on["Note"] is not lists[0].get("Note")
    assert all(handed_on[vid] is own for vid, own in lists[0].items())
    assert derived["extend_edge"].has_edge(*new_edge)
    assert list(derived["extend_edge"].out_edges("Note")) == [LabeledEdge(*new_edge)]
    assert not graph.has_edge(*new_edge)


def test_the_index_is_built_at_most_once_per_graph(monkeypatch, alice_trace):
    built: list[tuple[int, str]] = []
    for name in ("_outgoing", "_incoming"):
        compute = ProvGraph.__dict__[name].func

        def counting_lists(self, name=name, compute=compute):
            built.append((id(self), name))
            return compute(self)

        lists = cached_property(counting_lists)
        lists.__set_name__(ProvGraph, name)
        monkeypatch.setattr(ProvGraph, name, lists)

    def query(graph: ProvGraph) -> None:
        for vid in graph.vertices:
            for label in R:
                graph.has_edge(vid, "Alice", label)
                list(graph.out_edges(vid, label))
                list(graph.in_edges(vid, label))
        for activity in graph.vertices_of_sort(Sort.ACTIVITY):
            extract_event(graph, activity)

    # ``extend`` hands on the out-lists its check built from the parent's,
    # and a checked load is an ``extend`` of the empty graph.
    graph = alice_trace.extend([Vertex("Note", K.DATA_ENTITY)])
    loaded = load_graph(save_graph(graph))
    assert built == [] and all("_outgoing" in vars(g) for g in (graph, loaded))
    for extended in (graph, loaded):
        query(extended)
        assert extended.validate_typing() == extended.validate_acyclic() == []
        query(extended)
    assert built == [(id(graph), "_incoming"), (id(loaded), "_incoming")]
    del built[:]
    # A graph built directly validates from the out-lists its queries read.
    direct = ProvGraph(graph.vertices, graph.edges)
    direct.has_edge("Alice", "m1", R.USED)
    assert direct.validate_typing() == direct.validate_acyclic() == []
    assert built == [(id(direct), "_outgoing")]


def test_an_indexed_graph_builds_no_edges_to_answer(monkeypatch, alice_trace):
    ids = list(alice_trace.vertices)
    probes = [(s, d, l) for s in ids for d in ("Alice", "m1") for l in R]
    expected = [LabeledEdge(*p) in alice_trace.edges for p in probes]
    outgoing = {v: _scan_edges(alice_trace, "src", v, None) for v in ids}
    incoming = {v: _scan_edges(alice_trace, "dst", v, R.USED) for v in ids}
    alice_trace.has_edge("Alice", "m1", R.USED)

    class NoEdges:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a query built a LabeledEdge")

    monkeypatch.setattr("acdc_prov.graph.LabeledEdge", NoEdges)
    assert [alice_trace.has_edge(*p) for p in probes] == expected
    assert {v: _sorted_edges(alice_trace.out_edges(v)) for v in ids} == outgoing
    assert {v: _sorted_edges(alice_trace.in_edges(v, R.USED)) for v in ids} == incoming


def test_the_adjacency_costs_little_beyond_the_loaded_graph(population):
    # A 2.8k-vertex population history, queried in both directions and
    # validated, holds at most 1.5 times the memory of the same document
    # loaded without checks and never queried.
    data = population.build_history(random.Random(1), voters=200, owners=20).document()

    def traced(load, touch) -> int:
        tracemalloc.start()
        try:
            graph = load(data)
            touch(graph)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    def query(graph: ProvGraph) -> None:
        edge = min(graph.edges, key=lambda e: (e.src, e.dst, e.label.value))
        assert graph.has_edge(edge.src, edge.dst, edge.label)
        assert edge in graph.out_edges(edge.src) and edge in graph.in_edges(edge.dst)
        assert graph.validate_typing() == graph.validate_acyclic() == []

    bare = traced(load_graph_unchecked, lambda graph: None)
    for load in (load_graph, load_graph_unchecked):
        assert traced(load, query) <= 1.5 * bare, load.__name__


# ---------------------------------------------------------------------------
# the one validation pass agrees with the separate typing and cycle reports
# ---------------------------------------------------------------------------


def _typing_report(graph: ProvGraph) -> list[TypeViolation]:
    """The oracle for ``validate_typing``: every edge checked on its own."""
    violations = []
    for edge in graph.edges:
        src_kind = graph.vertices[edge.src].kind
        dst_kind = graph.vertices[edge.dst].kind
        if (src_kind, dst_kind) not in TYPING_RULES[edge.label]:
            violations.append(
                TypeViolation(edge.src, edge.dst, edge.label, src_kind, dst_kind)
            )
    violations.sort(key=lambda v: (v.src, v.dst, v.label.value))
    return violations


def _tarjan(vertex_ids, successors) -> list[list[str]]:
    """Tarjan's strongly connected components over every vertex."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0
    for root in sorted(vertex_ids):
        if root in index:
            continue
        work = [(root, iter(successors.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            vid, neighbours = work[-1]
            pushed = False
            for nxt in neighbours:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(successors.get(nxt, ()))))
                    pushed = True
                    break
                if nxt in on_stack:
                    low[vid] = min(low[vid], index[nxt])
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[vid])
            if low[vid] == index[vid]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == vid:
                        break
                components.append(component)
    return components


def _cycle_report(graph: ProvGraph) -> list[tuple[str, ...]]:
    """The oracle for ``validate_acyclic``: Tarjan over the whole graph,
    then the shortest closed walk through each cyclic component's smallest
    id."""
    successors: dict[str, set[str]] = {}
    outgoing: dict[str, list[LabeledEdge]] = {}  # what ``_walk`` reads
    for edge in graph.edges:
        successors.setdefault(edge.src, set()).add(edge.dst)
        outgoing.setdefault(edge.src, []).append(edge)
    cycles = []
    for component in _tarjan(graph.vertices, successors):
        start = min(component)
        if len(component) > 1 or start in successors.get(start, ()):
            cycles.append(_walk(outgoing, start, start))
    return sorted(cycles, key=lambda c: (min(c), len(c), c))


_REPORT_FAULTS = ("typing", "self_loop", "cycle")


def _faulty_graph(seed: int) -> tuple[ProvGraph, list[str]]:
    """A random DAG with 0-3 injected typing edges, self-loops or
    backward edges, each closing a cycle; returns the kinds injected."""
    rng = random.Random(seed)
    graph, order = random_graph_with_order(
        rng, max_vertices=16, min_vertices=3, edge_chance=rng.uniform(0.1, 0.5)
    )
    kinds = {vid: graph.vertices[vid].kind for vid in order}
    faults = []
    for fault in rng.choices(_REPORT_FAULTS, k=rng.randint(0, 3)):
        if fault == "typing":
            a, b = rng.sample(order, 2)
            labels = [l for l in R if (kinds[a], kinds[b]) not in TYPING_RULES[l]]
        elif fault == "self_loop":
            a = b = rng.choice(order)
            labels = list(R)
        else:  # backward along ``order``, admitted by the table where possible
            i, j = sorted(rng.sample(range(len(order)), 2))
            a, b = order[j], order[i]
            labels = [l for l in R if (kinds[a], kinds[b]) in TYPING_RULES[l]]
        edge = LabeledEdge(a, b, rng.choice(labels or list(R)))
        if edge not in graph.edges:
            graph = ProvGraph(graph.vertices, graph.edges | {edge})
            faults.append(fault)
    return graph, faults


def _faulty_history() -> ProvGraph:
    """A ~3k-vertex population history with three 2-cycles: two Used
    edges reversed as WasGeneratedBy, well typed, and a WasAssociatedWith
    edge reversed as Used, a typing fault. Needs ``perfbench`` on the
    import path."""
    import population

    history = population.build_history(random.Random(7), voters=200, owners=20)
    graph = load_graph_unchecked(history.document())
    edges = sorted(graph.edges, key=lambda e: (e.src, e.dst, e.label.value))
    used = [e for e in edges if e.label is R.USED]
    associated = [e for e in edges if e.label is R.WAS_ASSOCIATED_WITH]
    faults = {
        LabeledEdge(e.dst, e.src, R.WAS_GENERATED_BY)
        for e in random.Random(7).sample(used, 2)
    }
    faults.add(LabeledEdge(associated[0].dst, associated[0].src, R.USED))
    return ProvGraph(graph.vertices, graph.edges | faults)


def validation_differential(seeds: range) -> dict:
    """Compare both validation reports with the oracles on each seed's
    faulty graph and on a faulty population history. Reports the cases
    where they differ, a digest of every report, and counts."""
    mismatches, outcomes = [], []
    counts = dict.fromkeys(_REPORT_FAULTS, 0) | {"ill_typed": 0, "cycles": [0, 0, 0]}
    cases = [(seed, *_faulty_graph(seed)) for seed in seeds]
    cases.append(("history", _faulty_history(), []))
    for case, graph, faults in cases:
        for fault in faults:
            counts[fault] += 1
        typing, cycles = graph.validate_typing(), graph.validate_acyclic()
        if typing != _typing_report(graph) or cycles != _cycle_report(graph):
            mismatches.append(case)
        counts["ill_typed"] += bool(typing)
        counts["cycles"][min(len(cycles), 2)] += 1
        if case == "history":
            counts["history"] = [len(graph.vertices), len(typing), len(cycles)]
        outcomes.append(repr((typing, cycles)))
    digest = hashlib.sha256("\n".join(outcomes).encode("utf-8")).hexdigest()
    return {"mismatches": mismatches, "digest": digest, "counts": counts}


def test_validation_matches_the_separate_reports_under_two_hash_seeds():
    # Set and dict orders inside the pass change with the hash seed; the
    # reports must not.
    script = (
        "import json\n"
        "from test_graph import validation_differential\n"
        "print(json.dumps(validation_differential(range(320))))\n"
    )
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "tests", "perfbench"))
    reports = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed}
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        reports.append(json.loads(result.stdout))
    for report in reports:
        assert report["mismatches"] == []
        counts = report["counts"]
        assert all(counts[fault] >= 100 for fault in _REPORT_FAULTS), counts
        no_cycle, one_cycle, several = counts["cycles"]
        assert no_cycle >= 50 and one_cycle >= 50 and several >= 20, counts
        assert counts["ill_typed"] >= 100, counts
        vertices, typing, cycles = counts["history"]
        assert vertices >= 2500 and typing == 1 and cycles == 3, counts
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_randomly_built_graphs_always_validate(seed):
    graph = random_graph(random.Random(seed))
    assert graph.validate_typing() == []
    assert graph.validate_acyclic() == []


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_insertion_accepts_exactly_the_typing_table(seed):
    rng = random.Random(seed)
    src_kind, dst_kind = rng.choice(list(K)), rng.choice(list(K))
    label = rng.choice(list(R))
    g = two_vertex_graph(src_kind, dst_kind)
    if (src_kind, dst_kind) in TYPING_RULES[label]:
        assert g.extend(edges=[LabeledEdge("a", "b", label)]).has_edge("a", "b", label)
    else:
        with pytest.raises(TypeViolationError):
            g.extend(edges=[LabeledEdge("a", "b", label)])
