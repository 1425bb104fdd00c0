"""Serialisation: graph documents, environment files, verdict reports."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import acdc_prov
from acdc_prov.evaluator import evaluate
from acdc_prov.graph import (
    CycleIntroducedError,
    MissingVertexError,
    ProvGraph,
    RelationLabel,
    TypeViolationError,
    VertexKind,
)
from acdc_prov.policy import Environment, parse_policy
from acdc_prov.scenarios import corpus, corpus_graphs
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
from randgen import random_graph

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
    g = ProvGraph()
    g = g.add_vertex("Bob", VertexKind.ACCOUNT_AGENT)
    g = g.add_vertex("sgx", VertexKind.NODE_AGENT, {"role": "enclave"})
    return g.add_edge("sgx", "Bob", RelationLabel.ACTED_ON_BEHALF_OF)


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


def test_rejects_unknown_label_with_index():
    doc = _doc(
        [{"id": "a", "kind": "activity"}, {"id": "b", "kind": "data_entity"}],
        [{"src": "a", "dst": "b", "label": "Consumed"}],
    )
    with pytest.raises(UnknownLabelError, match=r"edges\[0\].*Consumed"):
        load_graph(doc)


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


def test_rejects_bad_attrs():
    doc = _doc([{"id": "a", "kind": "activity", "attrs": {"n": 1}}], [])
    with pytest.raises(MalformedDocumentError, match=r"vertices\[0\].*attrs"):
        load_graph(doc)


def test_rejects_bad_id():
    with pytest.raises(MalformedDocumentError, match=r"vertices\[0\].*id"):
        load_graph(_doc([{"id": "", "kind": "activity"}], []))
    with pytest.raises(MalformedDocumentError, match=r"vertices\[0\].*id"):
        load_graph(_doc([{"kind": "activity"}], []))


def test_rejects_invalid_json_with_position():
    with pytest.raises(MalformedDocumentError, match=r"invalid JSON.*line 1"):
        load_graph("{")


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
# the packaged corpus is in sync with the builders
# ---------------------------------------------------------------------------


def _corpus_file(name: str) -> bytes:
    return resources.files("acdc_prov").joinpath("corpus", name).read_bytes()


def test_packaged_graphs_match_their_builders():
    for name, graph in corpus_graphs().items():
        assert _corpus_file(f"{name}.json") == save_graph(graph), name


def test_packaged_policies_match_their_sources():
    for entry in corpus():
        text = _corpus_file(f"{entry.name}.pol").decode("utf-8")
        assert parse_policy(text) == parse_policy(entry.source), entry.name


def test_packaged_environments_match_their_defaults():
    for entry in corpus():
        data = _corpus_file(f"{entry.name}.env.json")
        assert load_environment(data) == entry.environment, entry.name


def test_packaged_blacklist_example():
    env = load_environment(_corpus_file("blacklist_bob.env.json"))
    assert env == Environment(sets={"blacklist": {"Bob"}})
