"""Serialisation: graph documents, environment files, verdict reports."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from importlib import resources
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import acdc_prov
from acdc_prov import graph as graph_module
from acdc_prov.evaluator import evaluate
from acdc_prov.events import EventError, extract_event, slice_by_agent
from acdc_prov.graph import (
    TYPING_RULES,
    CycleIntroducedError,
    GraphError,
    LabeledEdge,
    MissingVertexError,
    ProvGraph,
    RelationLabel,
    TypeViolationError,
    Vertex,
    VertexKind,
    _check_edge,
    union,
)
from acdc_prov.policy import Environment
from acdc_prov.scenarios import (
    BALLOT_STEPS,
    build_encapsulate_event,
    build_encapsulate_with_foreign_inputs,
    build_two_state_trace,
    build_voting_trace,
    corpus,
    corpus_graphs,
)
from acdc_prov.storage import (
    FORMAT_VERSION,
    MalformedDocumentError,
    UnknownKindError,
    UnknownLabelError,
    load_environment,
    load_graph,
    load_graph_unchecked,
    save_environment,
    save_graph,
    verdict_to_dict,
)
from randgen import LABELS, random_graph, random_graph_with_order

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = """\
{
  "version": "acdc-prov/1",
  "vertices": [
    {
      "id": "Bob",
      "kind": "account_agent"
    },
    {
      "id": "sgx",
      "kind": "node_agent",
      "attrs": {
        "role": "enclave"
      }
    }
  ],
  "edges": [
    {
      "src": "sgx",
      "dst": "Bob",
      "label": "ActedOnBehalfOf"
    }
  ]
}
"""


def _golden_graph() -> ProvGraph:
    return ProvGraph().extend(
        [
            Vertex("Bob", VertexKind.ACCOUNT_AGENT),
            Vertex("sgx", VertexKind.NODE_AGENT, {"role": "enclave"}),
        ],
        [LabeledEdge("sgx", "Bob", RelationLabel.ACTED_ON_BEHALF_OF)],
    )


def _doc(vertices, edges, version=FORMAT_VERSION) -> str:
    return json.dumps({"version": version, "vertices": vertices, "edges": edges})


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def test_save_graph_produces_the_documented_bytes():
    assert save_graph(_golden_graph()) == GOLDEN.encode("utf-8")


def test_save_graph_of_empty_graph():
    assert save_graph(ProvGraph()) == (
        '{\n  "version": "acdc-prov/1",\n  "vertices": [],\n  "edges": []\n}\n'
    ).encode("utf-8")


def test_loading_non_canonical_text_then_saving_canonicalises():
    shuffled = """
    {"edges": [{"label": "ActedOnBehalfOf", "dst": "Bob", "src": "sgx"}],
     "vertices": [
        {"kind": "node_agent", "id": "sgx", "attrs": {"role": "enclave"}},
        {"id": "Bob", "kind": "account_agent"}],
     "version": "acdc-prov/1"}
    """
    loaded = load_graph(shuffled)
    assert loaded == _golden_graph()
    assert save_graph(loaded) == GOLDEN.encode("utf-8")


def test_round_trip_preserves_graphs(encapsulation, alice_trace):
    for graph in (ProvGraph(), _golden_graph(), encapsulation, alice_trace):
        assert load_graph(save_graph(graph)) == graph


def test_round_trip_accepts_str_input(encapsulation):
    assert load_graph(save_graph(encapsulation).decode("utf-8")) == encapsulation


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_preserves_random_graphs(seed):
    graph = random_graph(random.Random(seed))
    data = save_graph(graph)
    assert load_graph(data) == graph
    assert save_graph(load_graph(data)) == data


_NAMES = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)
_ATTRS = st.dictionaries(_NAMES, _NAMES, max_size=2)
_REFUSED = (GraphError, EventError, ValueError)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_every_graph_the_library_builds_saves_and_reloads(data):
    # Each construction may refuse what it is given; what it builds must
    # save to a document that loads back equal.
    graphs: list[ProvGraph] = []

    def keep(make, *args):
        with contextlib.suppress(*_REFUSED):
            graphs.append(make(*args))

    name = partial(data.draw, _NAMES)
    steps = BALLOT_STEPS[: data.draw(st.integers(0, len(BALLOT_STEPS)))]
    keep(build_voting_trace, name(), name(), steps)
    keep(build_two_state_trace, name(), name(), name())
    keep(build_encapsulate_event, name())
    keep(build_encapsulate_with_foreign_inputs, name(), name())
    chained = ProvGraph()
    for _ in range(data.draw(st.integers(0, 6))):
        kind = data.draw(st.sampled_from(VertexKind))
        with contextlib.suppress(*_REFUSED):
            chained = chained.extend([Vertex(name(), kind, data.draw(_ATTRS))])
    for _ in range(data.draw(st.integers(0, 8)) if chained.vertices else 0):
        ends = st.sampled_from(sorted(chained.vertices))
        label = data.draw(st.sampled_from(RelationLabel))
        with contextlib.suppress(*_REFUSED):
            edge = LabeledEdge(data.draw(ends), data.draw(ends), label)
            chained = chained.extend(edges=[edge])
    graphs.append(chained)
    keep(chained.renamed, {vid: name() for vid in chained.vertices})
    keep(union, chained, *graphs[:2])
    for graph in list(graphs):
        for vid, vertex in graph.vertices.items():
            if vertex.kind is VertexKind.ACTIVITY:
                keep(extract_event, graph, vid)
            elif vertex.kind is VertexKind.ACCOUNT_AGENT:
                keep(slice_by_agent, graph, vid)
    for graph in graphs:
        assert load_graph_unchecked(save_graph(graph)) == graph


def _module_at(path: Path):
    """Import the standalone script or module at ``path``."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
    return module


def test_round_trip_at_population_scale(population):
    history = population.build_history(random.Random(5), voters=600, owners=30)
    assert history.size[0] >= 8000
    doc = history.document()  # canonical, written straight from its records
    graph = load_graph(doc)
    assert save_graph(graph) == doc
    unchecked = load_graph_unchecked(doc)
    assert graph == unchecked
    assert unchecked.validate_typing() == [] and unchecked.validate_acyclic() == []
    assert graph.validate_typing() == [] and graph.validate_acyclic() == []
    # Each edge holds its endpoints' own id strings, not copies of its own.
    for loaded in (graph, unchecked):
        vertices = loaded.vertices
        for edge in loaded.edges:
            assert edge.src is vertices[edge.src].id and edge.dst is vertices[edge.dst].id


# ---------------------------------------------------------------------------
# malformed documents
# ---------------------------------------------------------------------------


def test_rejects_unsupported_version():
    with pytest.raises(MalformedDocumentError, match="unsupported version"):
        load_graph(_doc([], [], version="acdc-prov/2"))
    with pytest.raises(MalformedDocumentError, match="unsupported version"):
        load_graph(json.dumps({"vertices": [], "edges": []}))


def test_rejects_non_object_top_level():
    with pytest.raises(MalformedDocumentError, match="top-level"):
        load_graph("[]")


def test_rejects_missing_sections():
    with pytest.raises(MalformedDocumentError, match="'vertices' must be a list"):
        load_graph(json.dumps({"version": FORMAT_VERSION, "edges": []}))
    with pytest.raises(MalformedDocumentError, match="'edges' must be a list"):
        load_graph(json.dumps({"version": FORMAT_VERSION, "vertices": []}))


def test_rejects_unknown_kind_with_index():
    doc = _doc([{"id": "a", "kind": "super_entity"}], [])
    with pytest.raises(UnknownKindError, match=r"vertices\[0\]"):
        load_graph(doc)


@pytest.mark.parametrize(
    "label, error, message",
    [
        ("Consumed", UnknownLabelError, "edges[0]: unknown label 'Consumed'"),
        (None, MalformedDocumentError, "edges[0]: 'label' must be a string"),
        (["Used"], MalformedDocumentError, "edges[0]: 'label' must be a string"),
    ],
    ids=["unknown", "null", "list"],
)
def test_rejects_unknown_label_with_index(label, error, message):
    doc = _doc(
        [{"id": "a", "kind": "activity"}, {"id": "b", "kind": "data_entity"}],
        [{"src": "a", "dst": "b", "label": label}],
    )
    with pytest.raises(MalformedDocumentError) as info:
        load_graph(doc)
    assert type(info.value) is error
    assert str(info.value) == message


def test_rejects_duplicate_vertex_ids():
    doc = _doc(
        [{"id": "a", "kind": "activity"}, {"id": "a", "kind": "activity"}], []
    )
    with pytest.raises(MalformedDocumentError, match=r"vertices\[1\]: duplicate"):
        load_graph(doc)


def test_rejects_duplicate_edges():
    edge = {"src": "a", "dst": "b", "label": "Used"}
    doc = _doc(
        [{"id": "a", "kind": "activity"}, {"id": "b", "kind": "data_entity"}],
        [edge, dict(edge)],
    )
    with pytest.raises(MalformedDocumentError, match=r"edges\[1\]: duplicate"):
        load_graph(doc)


_LOADERS = pytest.mark.parametrize("load", [load_graph, load_graph_unchecked])
_SURROGATE = "'utf-8' codec can't encode character '\\ud800' in position 0"


@_LOADERS
@pytest.mark.parametrize(
    "attrs, message",
    [
        ({"n": 1}, "'attrs' must map strings to strings"),
        ([], "'attrs' must map strings to strings"),
        (None, "'attrs' must map strings to strings"),
        ({"n": "\ud800"}, _SURROGATE),
        ({"\ud800": "n"}, _SURROGATE),
    ],
    ids=["int-value", "list", "null", "surrogate-value", "surrogate-key"],
)
def test_rejects_bad_attrs(load, attrs, message):
    doc = _doc([{"id": "a", "kind": "activity", "attrs": attrs}], [])
    with pytest.raises(MalformedDocumentError) as info:
        load(doc)
    assert str(info.value).startswith(f"vertices[0]: {message}")


@_LOADERS
@pytest.mark.parametrize(
    "record, message",
    [
        ({"id": "", "kind": "activity"}, "'id' must be a non-empty string"),
        ({"kind": "activity"}, "'id' must be a non-empty string"),
        ({"id": "\ud800", "kind": "activity"}, _SURROGATE),
        ("a", "must be an object"),
        (["a", "activity"], "must be an object"),
    ],
    ids=["empty", "missing", "surrogate", "string-record", "list-record"],
)
def test_rejects_bad_id(load, record, message):
    with pytest.raises(MalformedDocumentError) as info:
        load(_doc([record], []))
    assert str(info.value).startswith(f"vertices[0]: {message}")


@_LOADERS
@pytest.mark.parametrize(
    "record", ["a", ["a", "b", "Used"]], ids=["string-record", "list-record"]
)
def test_rejects_an_edge_record_that_is_not_an_object(load, record):
    doc = _doc([{"id": "a", "kind": "activity"}, {"id": "b", "kind": "data_entity"}], [record])
    with pytest.raises(MalformedDocumentError) as info:
        load(doc)
    assert str(info.value) == "edges[0]: must be an object"


@_LOADERS
@pytest.mark.parametrize(
    "records, error, message",
    [
        (
            [{"id": "", "kind": "activity", "attrs": {"x": 1}}],
            MalformedDocumentError,
            "vertices[0]: 'id' must be a non-empty string",
        ),
        (
            [{"id": "a", "kind": "nope", "attrs": {"x": 1}}],
            UnknownKindError,
            "vertices[0]: unknown kind 'nope'",
        ),
        (
            [{"id": "a", "kind": None, "attrs": None}],
            MalformedDocumentError,
            "vertices[0]: 'kind' must be a string",
        ),
        (
            [{"id": "a", "kind": "activity"}, {"id": "a", "kind": "activity", "attrs": {"x": None}}],
            MalformedDocumentError,
            "vertices[1]: 'attrs' must map strings to strings",
        ),
    ],
    ids=["bad-id-bad-attrs", "unknown-kind-bad-attrs", "bad-kind-bad-attrs", "bad-attrs-duplicate-id"],
)
def test_a_record_with_two_faults_reports_the_first(load, records, error, message):
    # Faults are reported in record order: id, kind, attrs, then duplicate id.
    with pytest.raises(MalformedDocumentError) as info:
        load(_doc(records, []))
    assert type(info.value) is error
    assert str(info.value) == message


def test_rejects_invalid_json_with_position():
    with pytest.raises(MalformedDocumentError, match=r"invalid JSON.*line 1"):
        load_graph("{")


def test_rejects_json_nested_too_deeply():
    # The decoder's recursion limit, reached in-process, is unusable input.
    with pytest.raises(MalformedDocumentError, match="^invalid JSON: nested too deeply$"):
        load_graph("[" * 100000)


def test_rejects_invalid_utf8():
    with pytest.raises(MalformedDocumentError, match="not valid UTF-8"):
        load_graph(b"\xff\xfe{}")


def test_missing_endpoint_reports_the_edge_index():
    doc = _doc(
        [{"id": "a", "kind": "activity"}],
        [{"src": "a", "dst": "ghost", "label": "Used"}],
    )
    with pytest.raises(MissingVertexError, match=r"edges\[0\]"):
        load_graph(doc)
    with pytest.raises(MalformedDocumentError, match=r"edges\[0\].*ghost"):
        load_graph_unchecked(doc)


def test_type_violation_reports_the_edge_index():
    doc = _doc(
        [{"id": "a", "kind": "node_agent"}, {"id": "b", "kind": "node_agent"}],
        [{"src": "a", "dst": "b", "label": "Used"}],
    )
    with pytest.raises(TypeViolationError, match=r"edges\[0\]") as err:
        load_graph(doc)
    assert err.value.violation.src == "a"


def test_cycle_reports_the_closing_edge_index():
    doc = _doc(
        [{"id": "x", "kind": "data_entity"}, {"id": "y", "kind": "data_entity"}],
        [
            {"src": "x", "dst": "y", "label": "WasDerivedFrom"},
            {"src": "y", "dst": "x", "label": "WasDerivedFrom"},
        ],
    )
    with pytest.raises(CycleIntroducedError, match=r"edges\[1\]") as err:
        load_graph(doc)
    assert err.value.cycle


def _hostile_chain(last: str) -> tuple[str, list[str]]:
    """A 4001-vertex WasDerivedFrom chain, one record per link, each link
    added at the chain's head, so that checking record i alone searches
    the i links before it; then one last record ``d0000 -> d4000`` with
    label ``last``. Returns the document and the vertex ids in chain
    order."""
    ids = [f"d{i:04d}" for i in range(4001)]
    records = [
        {"src": ids[i + 1], "dst": ids[i], "label": "WasDerivedFrom"}
        for i in range(4000)
    ]
    records.append({"src": ids[0], "dst": ids[-1], "label": last})
    return _doc([{"id": vid, "kind": "data_entity"} for vid in ids], records), ids


@pytest.mark.parametrize("last", ["Used", "WasDerivedFrom"])
def test_hostile_load_searches_for_a_cycle_at_most_once(monkeypatch, last):
    data, ids = _hostile_chain(last)
    walks = []
    walk = graph_module._walk

    def counting_walk(outgoing, origin, target):
        walks.append((origin, target))
        return walk(outgoing, origin, target)

    monkeypatch.setattr(graph_module, "_walk", counting_walk)
    if last == "Used":
        allowed = ", ".join(
            sorted(f"{s.value} -> {t.value}" for s, t in TYPING_RULES[RelationLabel.USED])
        )
        error = TypeViolationError
        message = (
            f"edges[4000]: Used does not admit data_entity -> data_entity "
            f"(edge d0000 -> d4000; allowed: {allowed})"
        )
    else:  # closes d0000 -> d4000 -> d3999 -> ... -> d0001 -> d0000
        error = CycleIntroducedError
        cycle = (ids[0], *reversed(ids[1:]))
        message = (
            f"edges[4000]: edge d0000 -> d4000 would close the cycle "
            f"{' -> '.join((*cycle, ids[0]))}"
        )
    with pytest.raises(error) as err:
        load_graph(data)
    assert str(err.value) == message
    if last == "Used":
        assert (err.value.violation.src, err.value.violation.dst) == (ids[0], ids[-1])
    else:
        assert err.value.cycle == cycle
    assert len(walks) <= 1


_DIAMOND_CLOSED = _doc(
    [{"id": vid, "kind": "data_entity"} for vid in "abcd"],
    [
        {"src": src, "dst": dst, "label": "WasDerivedFrom"}
        for src, dst in ("ab", "ac", "bd", "cd", "da")
    ],
)


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_cycle_report_is_the_lexicographically_first_shortest(hash_seed):
    # d -> a closes two shortest cycles, through b and through c. The
    # report must not depend on string hashing, so load in a fresh
    # interpreter under more than one hash seed.
    script = (
        "import sys\n"
        "from acdc_prov.storage import load_graph\n"
        "try:\n"
        "    load_graph(sys.stdin.read())\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc, exc.cycle)\n"
    )
    src = Path(acdc_prov.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
    result = subprocess.run(
        [sys.executable, "-c", script],
        input=_DIAMOND_CLOSED,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == (
        "CycleIntroducedError edges[4]: edge d -> a would close the cycle "
        "d -> a -> b -> d ('d', 'a', 'b')\n"
    )


def test_unchecked_load_defers_typing_to_validation():
    doc = _doc(
        [{"id": "a", "kind": "node_agent"}, {"id": "b", "kind": "node_agent"}],
        [{"src": "a", "dst": "b", "label": "Used"}],
    )
    graph = load_graph_unchecked(doc)
    violations = graph.validate_typing()
    assert len(violations) == 1
    assert (violations[0].src, violations[0].dst) == ("a", "b")


# ---------------------------------------------------------------------------
# the one-pass checked load agrees with checking record by record
# ---------------------------------------------------------------------------


def _load_graph_per_record(data: str) -> ProvGraph:
    """The oracle: each edge record checked in document order, as a
    one-edge ``extend`` would insert it, each error prefixed with its
    index. The documents are well-formed, so records are read without checks."""
    doc = json.loads(data)
    vertices = {
        r["id"]: Vertex(r["id"], VertexKind(r["kind"]), r.get("attrs", {}))
        for r in doc["vertices"]
    }
    edges = [
        LabeledEdge(r["src"], r["dst"], RelationLabel(r["label"])) for r in doc["edges"]
    ]
    outgoing: dict[str, list[LabeledEdge]] = {}
    for i, edge in enumerate(edges):
        try:
            _check_edge(vertices, outgoing, edge)
        except TypeViolationError as exc:
            raise TypeViolationError(f"edges[{i}]: {exc}", exc.violation) from None
        except CycleIntroducedError as exc:
            raise CycleIntroducedError(f"edges[{i}]: {exc}", exc.cycle) from None
        except GraphError as exc:
            raise type(exc)(f"edges[{i}]: {exc}") from None
        outgoing.setdefault(edge.src, []).append(edge)
    return ProvGraph(vertices, edges)


_FAULTS = ("missing", "typing", "self_loop", "cycle")


def _faulty_document(seed: int) -> tuple[str, list[str]]:
    """A random graph's document, edges in shuffled order, with 0-3
    injected bad edges at random positions; every fourth seed gets a
    cycle-closing edge and a typing fault instead, in either order. Returns
    the document and the kinds of the faults injected."""
    rng = random.Random(seed)
    graph, order = random_graph_with_order(rng, max_vertices=16, min_vertices=3)
    kinds = {vid: graph.vertices[vid].kind for vid in order}
    edges = sorted((e.src, e.dst, e.label) for e in graph.edges)
    rng.shuffle(edges)
    reach = {vid: set() for vid in order}  # edges run forward along ``order``
    for vid in reversed(order):
        for src, dst, _ in edges:
            if src == vid:
                reach[vid] |= {dst} | reach[dst]
    if seed % 4 == 0:
        faults = rng.sample(["cycle", "typing"], 2)
    else:
        faults = [rng.choice(_FAULTS) for _ in range(rng.randint(0, 3))]
    injected = []
    for fault in faults:
        if fault == "missing":
            vid = rng.choice(order)
            bad = rng.choice([(vid, "ghost"), ("ghost", vid)]) + (rng.choice(LABELS),)
        elif fault == "typing":
            candidates = [
                (a, b, label)
                for a in order
                for b in order
                for label in LABELS
                if a != b and (kinds[a], kinds[b]) not in TYPING_RULES[label]
            ]
            bad = rng.choice(candidates)
        elif fault == "self_loop":
            vid = rng.choice(order)
            admitted = [l for l in LABELS if (kinds[vid],) * 2 in TYPING_RULES[l]]
            bad = (vid, vid, rng.choice(admitted or LABELS))
        else:
            candidates = [
                (b, a, label)
                for a in order
                for b in sorted(reach[a])
                for label in LABELS
                if (kinds[b], kinds[a]) in TYPING_RULES[label]
            ]
            if not candidates:
                continue
            bad = rng.choice(candidates)
        if bad in edges:
            continue
        edges.insert(rng.randint(0, len(edges)), bad)
        injected.append(fault)
    records = [
        {"src": src, "dst": dst, "label": label.value} for src, dst, label in edges
    ]
    vertices = [{"id": vid, "kind": kinds[vid].value} for vid in order]
    return _doc(vertices, records), injected


def _outcome(load, data: str):
    try:
        return save_graph(load(data)).decode("utf-8")
    except GraphError as exc:
        return [
            type(exc).__name__,
            str(exc),
            list(getattr(exc, "cycle", ())),
            repr(getattr(exc, "violation", None)),
        ]


def load_graph_differential(seeds: range) -> dict:
    """Load each seed's faulty document through ``load_graph`` and the
    oracle. Reports the seeds where they differ, a digest of every outcome,
    and how often each fault kind was injected and each error raised."""
    mismatches, outcomes = [], []
    counts = dict.fromkeys(_FAULTS, 0)
    for seed in seeds:
        data, injected = _faulty_document(seed)
        for fault in injected:
            counts[fault] += 1
        got = _outcome(load_graph, data)
        if got != _outcome(_load_graph_per_record, data):
            mismatches.append(seed)
        if isinstance(got, str):
            graph = load_graph(data)
            fresh = ProvGraph(graph.vertices, graph.edges)
            if graph.validate_typing() or fresh.validate_typing():
                mismatches.append(seed)
            if graph.validate_acyclic() or fresh.validate_acyclic():
                mismatches.append(seed)
            counts["accepted"] = counts.get("accepted", 0) + 1
        else:
            counts[got[0]] = counts.get(got[0], 0) + 1
            if seed % 4 == 0:  # a cycle and a typing fault: the first wins
                counts[f"pair:{got[0]}"] = counts.get(f"pair:{got[0]}", 0) + 1
        outcomes.append(got)
    digest = hashlib.sha256(json.dumps(outcomes).encode("utf-8")).hexdigest()
    return {"mismatches": mismatches, "digest": digest, "counts": counts}


def test_checked_load_matches_the_per_record_oracle_under_two_hash_seeds():
    # Enum and string hashes, and so set and dict orders inside the check,
    # change with the hash seed; every outcome must not.
    script = (
        "import json\n"
        "from test_storage import load_graph_differential\n"
        "print(json.dumps(load_graph_differential(range(320))))\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
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
        assert all(counts[fault] >= 40 for fault in _FAULTS), counts
        for outcome in ("accepted", "MissingVertexError", "TypeViolationError",
                        "CycleIntroducedError"):
            assert counts.get(outcome, 0) >= 20, counts
        assert counts.get("pair:CycleIntroducedError", 0) >= 10, counts
        assert counts.get("pair:TypeViolationError", 0) >= 10, counts
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------


def test_environment_round_trip():
    env = Environment(
        constants={"Bob": "Bob", "Root": "r0"},
        sets={"blacklist": {"Eve", "Bob"}, "known": frozenset()},
    )
    assert load_environment(save_environment(env)) == env


def test_environment_file_shape():
    env = Environment(constants={"B": "b"}, sets={"s": {"y", "x"}})
    assert json.loads(save_environment(env)) == {
        "constants": {"B": "b"},
        "sets": {"s": ["x", "y"]},
    }


def test_environment_defaults_to_empty_sections():
    env = load_environment("{}")
    assert env == Environment()


def test_environment_rejects_bad_shapes():
    with pytest.raises(MalformedDocumentError, match="top-level"):
        load_environment("[]")
    with pytest.raises(MalformedDocumentError, match="'constants'"):
        load_environment(json.dumps({"constants": {"a": 1}}))
    with pytest.raises(MalformedDocumentError, match="'sets'"):
        load_environment(json.dumps({"sets": []}))
    with pytest.raises(MalformedDocumentError, match=r"sets\['s'\]"):
        load_environment(json.dumps({"sets": {"s": "Bob"}}))


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"constants": {"Bob": "\ud800"}}, "constants['Bob']: 'utf-8' codec can't encode"),
        ({"constants": {"Bob": ""}}, "constants['Bob']: vertex id must be a non-empty"),
        ({"sets": {"s": ["Bob", "\ud800"]}}, "sets['s']: 'utf-8' codec can't encode"),
        ({"sets": {"s": [""]}}, "sets['s']: vertex id must be a non-empty string"),
    ],
    ids=["surrogate-constant", "empty-constant", "surrogate-member", "empty-member"],
)
def test_environment_rejects_ids_that_break_the_vertex_id_rule(doc, message):
    # The environment, not the loader, keeps the rule, and the loader
    # reports it as a malformed document.
    with pytest.raises(MalformedDocumentError) as info:
        load_environment(json.dumps(doc))
    assert str(info.value).startswith(message)


# ---------------------------------------------------------------------------
# verdict reports
# ---------------------------------------------------------------------------


def test_verdict_to_dict_shapes(entries, encapsulation):
    satisfied = evaluate(entries["p1"].bound(), encapsulation)
    assert verdict_to_dict(satisfied) == {
        "satisfied": True,
        "witness": {"k": "Key_Bob"},
        "counterexample": None,
        "diagnostics": [],
    }
    failed = evaluate(entries["p1"].bound(), ProvGraph())
    assert verdict_to_dict(failed) == {
        "satisfied": False,
        "witness": None,
        "counterexample": None,
        "diagnostics": [],
    }


# ---------------------------------------------------------------------------
# the packaged corpus: hand-written policies, graphs from the builders
# ---------------------------------------------------------------------------


def _corpus_file(name: str) -> bytes:
    return resources.files("acdc_prov").joinpath("corpus", name).read_bytes()


def test_corpus_directory_holds_exactly_the_corpus():
    names = [entry.name for entry in corpus()]
    assert len(names) == 18
    expected = {f"{name}.json" for name in corpus_graphs()}
    assert len(expected) == 7
    for name in names:
        expected |= {f"{name}.pol", f"{name}.env.json"}
    expected.add("blacklist_bob.env.json")
    shipped = resources.files("acdc_prov").joinpath("corpus")
    assert sorted(path.name for path in shipped.iterdir()) == sorted(expected)
    for name in names:
        assert _corpus_file(f"{name}.pol").decode("utf-8").startswith(f"# {name}: ")


def test_corpus_script_renders_every_shipped_graph_byte_for_byte():
    script = _module_at(ROOT / "scripts" / "build_corpus_data.py")
    shipped = {
        path.name: path.read_bytes()
        for path in (ROOT / "src" / "acdc_prov" / "corpus").glob("*.json")
        if not path.name.endswith(".env.json")
    }
    rendered = script.render()
    assert len(rendered) == 7
    assert sorted(rendered) == sorted(shipped)
    for name, data in rendered.items():
        assert data == shipped[name], name


def test_every_shipped_environment_re_saves_byte_for_byte():
    shipped = resources.files("acdc_prov").joinpath("corpus")
    documents = [path for path in shipped.iterdir() if path.name.endswith(".env.json")]
    assert len(documents) == 19
    for path in documents:
        data = path.read_bytes()
        assert save_environment(load_environment(data)) == data, path.name


def test_packaged_blacklist_example():
    env = load_environment(_corpus_file("blacklist_bob.env.json"))
    assert env == Environment(sets={"blacklist": {"Bob"}})
