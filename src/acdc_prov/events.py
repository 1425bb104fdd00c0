"""Event extraction and per-agent slicing of provenance graphs.

An *event* is the one-activity neighbourhood of a graph: the activity, the
entities it used and generated, the agents one attribution hop away plus
the associated node agents, the account agents those agents act on behalf
of, and every edge between two of these vertices (the induced subgraph).
A per-agent *slice* is the union of all events an account agent appears
in; chains longer than one attribution hop are deliberately out of scope.
Both are plain ``ProvGraph``s, known valid when the graph cut is.
"""

from __future__ import annotations

from .graph import LabeledEdge, ProvGraph, RelationLabel, Sort, Vertex, VertexKind, _graph

__all__ = [
    "extract_event",
    "slice_by_agent",
    "EventError",
    "NoSuchActivityError",
    "NoSuchAgentError",
    "WrongKindError",
]


class EventError(Exception):
    """Base class for event extraction and slicing errors."""


class NoSuchActivityError(EventError):
    """The requested activity id is not in the graph."""


class NoSuchAgentError(EventError):
    """The requested agent id is not in the graph."""


class WrongKindError(EventError):
    """The requested vertex exists but has the wrong kind."""


def _typed(graph: ProvGraph, vid: str, kind: VertexKind, missing: type) -> Vertex:
    """``vid``'s vertex; ``missing`` if absent, WrongKindError if not ``kind``."""
    vertex = graph.vertices.get(vid)
    if vertex is None:
        raise missing(f"no vertex '{vid}' in the graph")
    if vertex.kind is not kind:
        raise WrongKindError(f"'{vid}' has kind {vertex.kind.value}, expected {kind.value}")
    return vertex


def extract_event(graph: ProvGraph, activity: str) -> ProvGraph:
    """Return the event subgraph around ``activity``.

    The subgraph is the one induced by these vertices: exactly one activity
    (the named one), its used and generated entities, the agents attributed
    by them, the associated node agents, and the account agents the included
    agents act on behalf of, with every edge of ``graph`` whose source and
    destination are both included.
    """
    _typed(graph, activity, VertexKind.ACTIVITY, NoSuchActivityError)
    inputs = {e.dst for e in graph.out_edges(activity, RelationLabel.USED)}
    outputs = {e.src for e in graph.in_edges(activity, RelationLabel.WAS_GENERATED_BY)}
    entities = inputs | outputs
    attributed = {
        e.dst
        for e in graph.edges
        if e.label is RelationLabel.WAS_ATTRIBUTED_TO and e.src in entities
    }
    associated = {
        e.dst for e in graph.out_edges(activity, RelationLabel.WAS_ASSOCIATED_WITH)
    }
    agents = attributed | associated
    principals = {
        e.dst
        for e in graph.edges
        if e.label is RelationLabel.ACTED_ON_BEHALF_OF and e.src in agents
    }
    included = {activity} | entities | agents | principals

    edges = {e for e in graph.edges if e.src in included and e.dst in included}
    vertices = {vid: graph.vertices[vid] for vid in sorted(included)}
    return graph._vouch(_graph(vertices, edges))


def slice_by_agent(graph: ProvGraph, agent: str) -> ProvGraph:
    """Union of every event whose subgraph contains ``agent``.

    ``agent`` must be an account agent; the agent vertex itself is always
    part of the slice, even when it appears in no event.
    """
    vertices = {agent: _typed(graph, agent, VertexKind.ACCOUNT_AGENT, NoSuchAgentError)}
    edges: set[LabeledEdge] = set()
    for activity in sorted(graph.vertices_of_sort(Sort.ACTIVITY)):
        event = extract_event(graph, activity)
        if agent in event.vertices:
            vertices.update(event.vertices)
            edges |= event.edges
    return graph._vouch(_graph(vertices, edges))
