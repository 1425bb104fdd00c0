"""On-disk formats: graph documents, environment files, verdict reports.

A graph document is JSON of the shape::

    {"version": "acdc-prov/1",
     "vertices": [{"id": "...", "kind": "...", "attrs": {...}}, ...],
     "edges": [{"src": "...", "dst": "...", "label": "..."}, ...]}

with kinds in lowercase snake case and labels matching the six relation
labels. ``save_graph`` is canonical -- vertices sorted by id, edges by
(src, dst, label), two-space indentation, UTF-8 -- so equal graphs always
serialise to identical bytes, loading a saved graph returns an equal
graph, and re-saving a loaded document canonicalises it.

An environment file is JSON of the shape
``{"constants": {name: vertex id}, "sets": {name: [vertex ids]}}``.
"""

from __future__ import annotations

import json
from typing import Any

from .graph import LabeledEdge, ProvGraph, RelationLabel, Vertex, VertexKind
from .evaluator import Verdict
from .policy import Environment

__all__ = [
    "FORMAT_VERSION",
    "load_graph",
    "load_graph_unchecked",
    "save_graph",
    "load_environment",
    "save_environment",
    "verdict_to_dict",
    "MalformedDocumentError",
    "UnknownKindError",
    "UnknownLabelError",
]

FORMAT_VERSION = "acdc-prov/1"


class MalformedDocumentError(Exception):
    """The document is not a well-formed graph or environment file."""


class UnknownKindError(MalformedDocumentError):
    """A vertex record names a kind outside the six vertex kinds."""


class UnknownLabelError(MalformedDocumentError):
    """An edge record names a label outside the six relation labels."""


def _decode(data: bytes | str) -> Any:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocumentError(f"not valid UTF-8: {exc}") from None
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(
            f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from None
    except RecursionError:
        raise MalformedDocumentError("invalid JSON: nested too deeply") from None


def _parse_graph_document(
    data: bytes | str,
) -> tuple[dict[str, Vertex], dict[LabeledEdge, None]]:
    doc = _decode(data)
    if not isinstance(doc, dict):
        raise MalformedDocumentError("top-level value must be an object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise MalformedDocumentError(
            f"unsupported version {version!r}; expected {FORMAT_VERSION!r}"
        )
    raw_vertices = doc.get("vertices")
    if not isinstance(raw_vertices, list):
        raise MalformedDocumentError("'vertices' must be a list")
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise MalformedDocumentError("'edges' must be a list")

    # The id and kind are checked here, to report them before ``Vertex`` checks
    # the rest; names are read from each enum's value map, faster than a call.
    kinds = VertexKind._value2member_map_
    vertices: dict[str, Vertex] = {}
    for i, record in enumerate(raw_vertices):
        if not isinstance(record, dict):
            raise MalformedDocumentError(f"vertices[{i}]: must be an object")
        vid = record.get("id")
        if not isinstance(vid, str) or not vid:
            raise MalformedDocumentError(
                f"vertices[{i}]: 'id' must be a non-empty string"
            )
        kind_name = record.get("kind")
        if not isinstance(kind_name, str):
            raise MalformedDocumentError(f"vertices[{i}]: 'kind' must be a string")
        kind = kinds.get(kind_name)
        if kind is None:
            raise UnknownKindError(f"vertices[{i}]: unknown kind {kind_name!r}")
        try:
            vertex = Vertex(vid, kind, record.get("attrs", {}))
        except ValueError as exc:
            raise MalformedDocumentError(f"vertices[{i}]: {exc}") from None
        if vid in vertices:
            raise MalformedDocumentError(f"vertices[{i}]: duplicate vertex id {vid!r}")
        vertices[vid] = vertex

    labels = RelationLabel._value2member_map_
    edges: dict[LabeledEdge, None] = {}  # in document order
    for i, record in enumerate(raw_edges):
        if not isinstance(record, dict):
            raise MalformedDocumentError(f"edges[{i}]: must be an object")
        src = record.get("src")
        dst = record.get("dst")
        if not isinstance(src, str) or not isinstance(dst, str):
            raise MalformedDocumentError(
                f"edges[{i}]: 'src' and 'dst' must be strings"
            )
        label_name = record.get("label")
        if not isinstance(label_name, str):
            raise MalformedDocumentError(f"edges[{i}]: 'label' must be a string")
        label = labels.get(label_name)
        if label is None:
            raise UnknownLabelError(f"edges[{i}]: unknown label {label_name!r}")
        src = vertices[src].id if src in vertices else src  # one string per id
        dst = vertices[dst].id if dst in vertices else dst
        count = len(edges)
        edges[LabeledEdge(src, dst, label)] = None
        if len(edges) == count:
            raise MalformedDocumentError(
                f"edges[{i}]: duplicate edge {src} -> {dst} ({label_name})"
            )

    return vertices, edges


def load_graph(data: bytes | str) -> ProvGraph:
    """Parse a graph document into ``ProvGraph().extend(vertices, edges)``:
    always well typed and acyclic, and known to be. A refused edge record's
    error names its index in document order, ``edges[i]``."""
    vertices, edges = _parse_graph_document(data)
    return ProvGraph().extend(vertices.values(), edges)


def load_graph_unchecked(data: bytes | str) -> ProvGraph:
    """Parse a graph document without enforcing typing or acyclicity.

    Edge endpoints must still exist. This is the loading path for
    diagnostic validation, where the point is to report violations rather
    than refuse the file.
    """
    vertices, edges = _parse_graph_document(data)
    for i, edge in enumerate(edges):
        for endpoint in (edge.src, edge.dst):
            if endpoint not in vertices:
                raise MalformedDocumentError(
                    f"edges[{i}]: endpoint {endpoint!r} is not a declared vertex"
                )
    return ProvGraph(vertices, frozenset(edges))


def save_graph(graph: ProvGraph) -> bytes:
    """Serialise a graph to canonical UTF-8 document bytes."""
    vertices = []
    for vid in sorted(graph.vertices):
        vertex = graph.vertices[vid]
        record: dict[str, Any] = {"id": vid, "kind": vertex.kind.value}
        if vertex.attrs:
            record["attrs"] = {k: vertex.attrs[k] for k in sorted(vertex.attrs)}
        vertices.append(record)
    edges = [
        {"src": e.src, "dst": e.dst, "label": e.label.value}
        for e in sorted(graph.edges, key=lambda e: (e.src, e.dst, e.label.value))
    ]
    doc = {"version": FORMAT_VERSION, "vertices": vertices, "edges": edges}
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def load_environment(data: bytes | str) -> Environment:
    """Parse an environment file into an Environment."""
    doc = _decode(data)
    if not isinstance(doc, dict):
        raise MalformedDocumentError("top-level value must be an object")
    constants = doc.get("constants", {})
    if not isinstance(constants, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in constants.items()
    ):
        raise MalformedDocumentError("'constants' must map strings to strings")
    sets = doc.get("sets", {})
    if not isinstance(sets, dict):
        raise MalformedDocumentError("'sets' must be an object")
    for name, members in sets.items():
        if not isinstance(members, list):
            raise MalformedDocumentError(f"sets[{name!r}]: must be a list of strings")
    try:
        return Environment(constants, sets)
    except ValueError as exc:  # a binding ``Environment`` refuses
        raise MalformedDocumentError(str(exc)) from None


def save_environment(env: Environment) -> bytes:
    """Serialise an environment to canonical UTF-8 bytes."""
    doc = {
        "constants": {k: env.constants[k] for k in sorted(env.constants)},
        "sets": {k: sorted(env.sets[k]) for k in sorted(env.sets)},
    }
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def verdict_to_dict(verdict: Verdict) -> dict[str, Any]:
    """Flatten a Verdict into JSON-serialisable primitives."""
    return {
        "satisfied": verdict.satisfied,
        "witness": dict(verdict.witness) if verdict.witness is not None else None,
        "counterexample": (
            dict(verdict.counterexample)
            if verdict.counterexample is not None
            else None
        ),
        "diagnostics": list(verdict.diagnostics),
    }
