"""Typed provenance graphs.

A provenance record is a finite directed acyclic graph. Vertices carry one
of six kinds: three entity refinements (keys, contracts, data), two agent
refinements (nodes acting in the system, accounts they act for), and
activities. Edges carry one of six causal relation labels, and each label
admits only a fixed set of (source kind, destination kind) combinations --
see ``TYPING_RULES``.

Graphs are read-only values, down to each vertex's ``attrs``, and validate
at most once; a graph grows, and a union is built, only through ``extend``,
which takes a batch of records and checks only the new ones. Vertices are
looked up by id, ``graph.vertices[vid]``, and compare by id, kind and attrs.
As no graph changes, each keeps one adjacency: every vertex's out- and
in-lists of edges, each built once on first use, or handed on by ``extend``.
Queries and checks read only these lists: ``has_edge`` scans the source's
out-list, so it costs the source's out-degree.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Collection, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from types import MappingProxyType

__all__ = [
    "VertexKind",
    "Sort",
    "RelationLabel",
    "Vertex",
    "LabeledEdge",
    "TypeViolation",
    "Cycle",
    "ProvGraph",
    "TYPING_RULES",
    "SORT_KINDS",
    "union",
    "GraphError",
    "DuplicateIdError",
    "MissingVertexError",
    "TypeViolationError",
    "CycleIntroducedError",
]


class VertexKind(Enum):
    """The six vertex kinds of a provenance graph."""

    KEY_ENTITY = "key_entity"
    CONTRACT_ENTITY = "contract_entity"
    DATA_ENTITY = "data_entity"
    NODE_AGENT = "node_agent"
    ACCOUNT_AGENT = "account_agent"
    ACTIVITY = "activity"

    # Members are singletons, so identity hashing agrees with equality and
    # avoids Enum.__hash__, a Python-level call paid by every edge hash and
    # typing-table lookup.
    __hash__ = object.__hash__


class Sort(Enum):
    """Quantification sorts: the six kinds plus their natural unions."""

    KEY_ENTITY = "key_entity"
    CONTRACT_ENTITY = "contract_entity"
    DATA_ENTITY = "data_entity"
    NODE_AGENT = "node_agent"
    ACCOUNT_AGENT = "account_agent"
    ACTIVITY = "activity"
    ENTITY = "entity"
    AGENT = "agent"
    VERTEX = "vertex"

    __hash__ = object.__hash__


class RelationLabel(Enum):
    """The six causal relation labels."""

    USED = "Used"
    WAS_DERIVED_FROM = "WasDerivedFrom"
    WAS_ATTRIBUTED_TO = "WasAttributedTo"
    ACTED_ON_BEHALF_OF = "ActedOnBehalfOf"
    WAS_ASSOCIATED_WITH = "WasAssociatedWith"
    WAS_GENERATED_BY = "WasGeneratedBy"

    __hash__ = object.__hash__


_ENTITY_KINDS = (
    VertexKind.KEY_ENTITY,
    VertexKind.CONTRACT_ENTITY,
    VertexKind.DATA_ENTITY,
)
_AGENT_KINDS = (VertexKind.NODE_AGENT, VertexKind.ACCOUNT_AGENT)
_NO_ATTRS: Mapping[str, str] = MappingProxyType({})  # read-only, so vertices share it

SORT_KINDS: Mapping[Sort, frozenset[VertexKind]] = {
    Sort.KEY_ENTITY: frozenset({VertexKind.KEY_ENTITY}),
    Sort.CONTRACT_ENTITY: frozenset({VertexKind.CONTRACT_ENTITY}),
    Sort.DATA_ENTITY: frozenset({VertexKind.DATA_ENTITY}),
    Sort.NODE_AGENT: frozenset({VertexKind.NODE_AGENT}),
    Sort.ACCOUNT_AGENT: frozenset({VertexKind.ACCOUNT_AGENT}),
    Sort.ACTIVITY: frozenset({VertexKind.ACTIVITY}),
    Sort.ENTITY: frozenset(_ENTITY_KINDS),
    Sort.AGENT: frozenset(_AGENT_KINDS),
    Sort.VERTEX: frozenset(VertexKind),
}


def _pairs(
    sources: tuple[VertexKind, ...], targets: tuple[VertexKind, ...]
) -> frozenset[tuple[VertexKind, VertexKind]]:
    return frozenset((s, t) for s in sources for t in targets)


# Which (source kind, destination kind) combinations each relation admits.
# Everything outside this table is a typing violation.
TYPING_RULES: Mapping[RelationLabel, frozenset[tuple[VertexKind, VertexKind]]] = {
    RelationLabel.WAS_ATTRIBUTED_TO: _pairs(_ENTITY_KINDS, _AGENT_KINDS),
    RelationLabel.WAS_DERIVED_FROM: _pairs(_ENTITY_KINDS, _ENTITY_KINDS),
    RelationLabel.USED: _pairs((VertexKind.ACTIVITY,), _ENTITY_KINDS),
    RelationLabel.ACTED_ON_BEHALF_OF: _pairs(
        (VertexKind.NODE_AGENT,), (VertexKind.ACCOUNT_AGENT,)
    ),
    RelationLabel.WAS_ASSOCIATED_WITH: _pairs(
        (VertexKind.ACTIVITY,), (VertexKind.NODE_AGENT,)
    ),
    RelationLabel.WAS_GENERATED_BY: _pairs(_ENTITY_KINDS, (VertexKind.ACTIVITY,)),
}


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


class GraphError(Exception):
    """Base class for graph construction and validation errors."""


class DuplicateIdError(GraphError):
    """A vertex id is already taken by a vertex of a different kind."""


class MissingVertexError(GraphError):
    """An operation referenced a vertex id that is not in the graph."""


class TypeViolationError(GraphError):
    """An edge insertion violated the relation typing table."""

    def __init__(self, message: str, violation: TypeViolation):
        super().__init__(message)
        self.violation = violation


class CycleIntroducedError(GraphError):
    """An edge insertion (or merge) would close a directed cycle."""

    def __init__(self, message: str, cycle: Cycle = ()):
        super().__init__(message)
        self.cycle = cycle


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


def _check_id(vid: object) -> None:
    """Refuse an id that is not a non-empty UTF-8 string (a ValueError)."""
    if not isinstance(vid, str) or not vid:
        raise ValueError("vertex id must be a non-empty string")
    vid.encode("utf-8")  # UnicodeEncodeError, a ValueError, on a lone surrogate


@dataclass(frozen=True)
class Vertex:
    """A vertex: a non-empty string id, a VertexKind, str-to-str attrs, all UTF-8."""

    id: str
    kind: VertexKind
    attrs: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        attrs = self.attrs
        _check_id(self.id)
        if type(self.kind) is not VertexKind:
            raise ValueError(f"vertex kind must be a VertexKind, not {self.kind!r}")
        if attrs or type(attrs) is not dict:  # no type tests on {}, the usual case
            if not isinstance(attrs, Mapping) or not all(
                isinstance(s, str) for item in attrs.items() for s in item
            ):
                raise ValueError("'attrs' must map strings to strings")
            for text in (*attrs, *attrs.values()):
                text.encode("utf-8")
        attrs = MappingProxyType(dict(attrs)) if attrs else _NO_ATTRS
        object.__setattr__(self, "attrs", attrs)

    def __reduce__(self):
        return Vertex, (self.id, self.kind, dict(self.attrs))


@dataclass(frozen=True)
class LabeledEdge:
    """A directed edge ``src -> dst`` carrying a relation label."""

    src: str
    dst: str
    label: RelationLabel


@dataclass(frozen=True)
class TypeViolation:
    """A report that an edge's endpoint kinds are not admitted by its label."""

    src: str
    dst: str
    label: RelationLabel
    src_kind: VertexKind
    dst_kind: VertexKind

    def describe(self) -> str:
        allowed = sorted(
            f"{s.value} -> {t.value}" for s, t in TYPING_RULES[self.label]
        )
        return (
            f"{self.label.value} does not admit {self.src_kind.value} -> "
            f"{self.dst_kind.value} (edge {self.src} -> {self.dst}; allowed: "
            f"{', '.join(allowed)})"
        )


Cycle = tuple[str, ...]
"""A directed cycle, reported as the vertex-id sequence it passes through."""

_OutLists = Mapping[str, Collection[LabeledEdge]]  # per-vertex lists, from ``_edge_lists``


@dataclass(frozen=True)
class ProvGraph:
    """A read-only typed provenance graph that validates at most once.

    Direct construction refuses an edge whose label is not a RelationLabel
    (ValueError) and skips the other edge checks, not ``Vertex``'s; a graph
    ``extend`` grows from a valid one is valid, and known to be.
    ``validate_typing``/``validate_acyclic`` check any instance, once, and
    raise MissingVertexError for an edge whose endpoint is absent.
    """

    vertices: Mapping[str, Vertex] = field(default_factory=dict)
    edges: frozenset[LabeledEdge] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        vertices: dict[str, Vertex] = {}
        for vid, vertex in self.vertices.items():
            if vid != vertex.id:
                raise ValueError(f"vertices key {vid!r} is not its vertex's id")
            vertices[vid] = vertex
        edges = frozenset(self.edges)
        for edge in edges:
            if edge.label not in TYPING_RULES:
                raise ValueError(f"edge label must be a RelationLabel, not {edge.label!r}")
        object.__setattr__(self, "vertices", MappingProxyType(vertices))
        object.__setattr__(self, "edges", edges)

    def __reduce__(self):
        return ProvGraph, (dict(self.vertices), self.edges)

    # -- construction -------------------------------------------------------

    def extend(
        self, vertices: Iterable[Vertex] = (), edges: Iterable[LabeledEdge] = ()
    ) -> ProvGraph:
        """Return a graph that also holds ``vertices``, then ``edges``.

        A vertex whose id is held keeps the held record, or raises
        DuplicateIdError if the kinds differ; an edge already held is a no-op.
        New edges must pass ``_check_edge`` inserted in order, else the first
        refused raises its error prefixed by its index, ``edges[i]``, found by
        bisecting over prefixes (refusal persists).
        The result keeps both directions' lists built, sharing those no new
        edge touches, and is known valid when this graph is or has no edges.

        Only new records are checked: each new edge's endpoints and typing,
        and one Kahn drain over the new edges, which leaves any cycle of new
        edges. Any other new cycle (this graph being acyclic, old edges
        joining old vertices) leaves the old vertices by a new ``u -> v``, so
        a walk from ``v`` over the merged out-lists reaches ``u``.
        """
        merged = self.vertices.copy()
        for vertex in vertices:
            existing = merged.setdefault(vertex.id, vertex)
            if existing.kind is not vertex.kind:
                raise DuplicateIdError(
                    f"vertex '{vertex.id}' already exists with kind "
                    f"{existing.kind.value}, cannot re-add as {vertex.kind.value}"
                )
        old = self._outgoing if self.edges else {}
        edges = edges if isinstance(edges, Collection) else list(edges)  # read twice if refused

        def checked(records: Collection[LabeledEdge]):
            """The new edges of ``records`` and the merged out-lists, or None."""
            fresh = dict.fromkeys(records)  # a dict's keys keep their hashes
            ends = merged  # the vertices the drain runs over
            if self.edges:
                fresh = {edge: None for edge in fresh if edge not in self.edges}
                ends = {v: merged[v] for e in fresh for v in (e.src, e.dst) if v in merged}
            lists = _edge_lists(fresh, "src")
            try:
                if any(_scan(ends, lists)):
                    return None
            except (MissingVertexError, ValueError):  # a dangling or unlabelled edge
                return None
            if old:
                lists = _merged(old, lists)
                if any(_walk(lists, e.dst, e.src) for e in fresh if e.src in self.vertices):
                    return None
            return fresh, lists

        result = checked(edges)
        if result is None:
            ordered = list(edges)
            stops = range(1, len(ordered) + 1)
            first = bisect_left(stops, True, key=lambda stop: not checked(ordered[:stop]))
            try:
                _check_edge(merged, checked(ordered[:first])[1], ordered[first])
            except (GraphError, ValueError) as exc:
                exc.args = (f"edges[{first}]: {exc}",)
                raise
        fresh, outgoing = result
        if len(merged) == len(self.vertices) and not fresh:
            return self
        caches = {"_outgoing": outgoing}
        if "_incoming" in vars(self):
            caches["_incoming"] = _merged(self._incoming, _edge_lists(fresh, "dst"))
        return self._vouch(_graph(merged, self.edges.union(fresh), **caches))

    def _vouch(self, graph: ProvGraph) -> ProvGraph:
        """``graph``, a subgraph, checked ``extend`` or one-to-one renaming of
        this graph, known valid when this graph is known valid or has no edges."""
        if not self.edges or vars(self).get("_report") == ((), ()):
            vars(graph)["_report"] = ((), ())
        return graph

    def renamed(self, mapping: Mapping[str, str]) -> ProvGraph:
        """Return a copy with vertex ids rewritten through ``mapping``.

        Ids absent from the mapping are kept. The rewrite must not merge
        two vertices into one id, so the copy is known valid when this graph is.
        """
        def rewrite(vid: str) -> str:
            return mapping.get(vid, vid)

        vertices: dict[str, Vertex] = {}
        for vid, vertex in self.vertices.items():
            new_id = rewrite(vid)
            if new_id in vertices:
                raise DuplicateIdError(f"renaming maps two vertices onto '{new_id}'")
            vertices[new_id] = Vertex(new_id, vertex.kind, vertex.attrs)
        edges = (LabeledEdge(rewrite(e.src), rewrite(e.dst), e.label) for e in self.edges)
        return self._vouch(_graph(vertices, edges))

    # -- queries -------------------------------------------------------------

    def has_edge(self, src: str, dst: str, label: RelationLabel) -> bool:
        """Return True iff the labeled edge is present."""
        for edge in self._outgoing.get(src, ()):
            if edge.dst == dst and edge.label is label:
                return True
        return False

    def vertices_of_sort(self, sort: Sort) -> set[str]:
        """Return the ids of all vertices whose kind belongs to ``sort``."""
        kinds = SORT_KINDS[sort]
        return {vid for vid, v in self.vertices.items() if v.kind in kinds}

    def out_edges(
        self, src: str, label: RelationLabel | None = None
    ) -> Iterator[LabeledEdge]:
        """Yield edges leaving ``src`` (optionally restricted to ``label``)."""
        for edge in self._outgoing.get(src, ()):
            if label is None or edge.label is label:
                yield edge

    def in_edges(
        self, dst: str, label: RelationLabel | None = None
    ) -> Iterator[LabeledEdge]:
        """Yield edges entering ``dst`` (optionally restricted to ``label``)."""
        for edge in self._incoming.get(dst, ()):
            if label is None or edge.label is label:
                yield edge

    _outgoing = cached_property(lambda self: _edge_lists(self.edges, "src"))
    _incoming = cached_property(lambda self: _edge_lists(self.edges, "dst"))

    # -- validation ----------------------------------------------------------

    def validate_typing(self) -> list[TypeViolation]:
        """Return one TypeViolation per edge not admitted by its label."""
        return list(self._report[0])

    def validate_acyclic(self) -> list[Cycle]:
        """Return every directed cycle, one representative per strongly
        connected component, as a vertex-id sequence. Empty iff acyclic.

        A component's representative is the shortest closed walk through
        its smallest id, the lexicographically first if several tie."""
        return list(self._report[1])

    @cached_property
    def _report(self) -> tuple[tuple[TypeViolation, ...], tuple[Cycle, ...]]:
        """Both reports from one ``_scan``. Kosaraju's search runs only if
        its Kahn drain leaves vertices, and only over those: every cycle lies
        among them."""
        outgoing = self._outgoing
        violations, undrained = _scan(self.vertices, outgoing)
        cycles: list[Cycle] = []
        if undrained:
            for component in _strongly_connected(undrained, outgoing):
                members = set(component)  # every closed walk stays among them
                inner = {v: [e for e in outgoing.get(v, ()) if e.dst in members] for v in members}
                start = min(component)
                if inner[start]:  # more than one member, or a self-loop
                    cycles.append(_walk(inner, start, start))
        cycles.sort(key=lambda c: (min(c), len(c), c))
        return tuple(violations), tuple(cycles)


def _edge_lists(edges: Iterable[LabeledEdge], end: str) -> dict[str, list[LabeledEdge]]:
    """Each vertex's edges, in the order of ``edges``, keyed by its id at ``end``."""
    lists: dict[str, list[LabeledEdge]] = {}
    for edge in edges:
        lists.setdefault(getattr(edge, end), []).append(edge)
    return lists


def _merged(old: _OutLists, new: _OutLists) -> dict[str, list[LabeledEdge]]:
    """``old``'s lists with ``new``'s appended, sharing those ``new`` lacks."""
    return {**old, **{vid: [*old.get(vid, ()), *own] for vid, own in new.items()}}


def _graph(vertices: dict[str, Vertex], edges: Iterable[LabeledEdge], **caches) -> ProvGraph:
    """A graph of ``vertices``, keyed by id, with ``caches`` set: no copy, no check."""
    graph = object.__new__(ProvGraph)
    vars(graph).update(caches, vertices=MappingProxyType(vertices), edges=frozenset(edges))
    return graph


def _walk(outgoing: _OutLists, origin: str, target: str) -> tuple[str, ...] | None:
    """The shortest walk ``origin .. v`` such that ``v -> target`` is an edge,
    or None; a closed walk when ``origin == target``.

    The search is breadth first and visits successors in sorted order, so
    every vertex is reached from its earliest-visited predecessor and, of
    several shortest walks, the lexicographically first is returned.
    """
    previous: dict[str, str | None] = {origin: None}
    queue: deque[str] = deque([origin])
    while queue:
        vid = queue.popleft()
        for nxt in sorted([edge.dst for edge in outgoing.get(vid, ())]):
            if nxt == target:
                walk: list[str] = []
                node: str | None = vid
                while node is not None:
                    walk.append(node)
                    node = previous[node]
                walk.reverse()
                return tuple(walk)
            if nxt not in previous:
                previous[nxt] = vid
                queue.append(nxt)
    return None


def _check_edge(
    vertices: Mapping[str, Vertex], outgoing: _OutLists, edge: LabeledEdge
) -> None:
    """Raise the error that keeps ``edge`` out of a graph with these vertices
    and out-lists: a label that is not a RelationLabel (ValueError), a
    missing endpoint, endpoint kinds its label does not admit, a self-loop,
    or a directed cycle the edge would close."""
    src, dst, label = edge.src, edge.dst, edge.label
    if label not in TYPING_RULES:
        raise ValueError(f"edge label must be a RelationLabel, not {label!r}")
    for vid in (src, dst):
        if vid not in vertices:
            raise MissingVertexError(f"edge endpoint '{vid}' is not in the graph")
    src_kind = vertices[src].kind
    dst_kind = vertices[dst].kind
    if (src_kind, dst_kind) not in TYPING_RULES[label]:
        violation = TypeViolation(src, dst, label, src_kind, dst_kind)
        raise TypeViolationError(violation.describe(), violation)
    if src == dst:
        raise CycleIntroducedError(
            f"self-loop on '{src}' rejected: graphs must stay acyclic",
            cycle=(src,),
        )
    walk = _walk(outgoing, dst, src)
    if walk is not None:
        raise CycleIntroducedError(
            f"edge {src} -> {dst} would close the cycle "
            f"{' -> '.join((src, *walk, src))}",
            cycle=(src, *walk),
        )


def _scan(
    vertices: Mapping[str, Vertex], outgoing: _OutLists
) -> tuple[list[TypeViolation], list[str]]:
    """One pass over the edges in ``outgoing`` and one Kahn drain (Kahn 1962):
    the sorted typing violations and the vertices the drain leaves, on or
    downstream of a cycle; a dangling or unlabelled edge raises its error."""
    violations: list[TypeViolation] = []
    indegree = dict.fromkeys(vertices, 0)
    for edge in chain.from_iterable(outgoing.values()):
        source = vertices.get(edge.src)
        target = vertices.get(edge.dst)
        if source is None or target is None or edge.label not in TYPING_RULES:
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


def _strongly_connected(ids: Iterable[str], outgoing: _OutLists) -> list[list[str]]:
    """The strongly connected components (Kosaraju; Sharir 1981) of the
    subgraph on ``ids``, which must hold every successor of its members: a
    depth-first pass lists the members as they finish, then, latest first,
    each unclaimed member claims the unclaimed members that reach it."""
    finished: list[str] = []
    seen: set[str] = set()
    work = [(None, iter(ids))]  # a root above every member, so one pass visits all
    while work:
        for nxt in work[-1][1]:
            if nxt not in seen:
                seen.add(nxt)
                work.append((nxt, (edge.dst for edge in outgoing.get(nxt, ()))))
                break
        else:
            finished.append(work.pop()[0])
    finished.pop()  # the root, finished last
    incoming = _edge_lists(chain.from_iterable(outgoing.get(v, ()) for v in finished), "dst")
    claimed: set[str] = set()
    components: list[list[str]] = []
    for root in reversed(finished):
        if root not in claimed:
            claimed.add(root)
            components.append([root])
            for vid in components[-1]:
                for edge in incoming.get(vid, ()):
                    if edge.src not in claimed:
                        claimed.add(edge.src)
                        components[-1].append(edge.src)
    return components


def union(*graphs: ProvGraph) -> ProvGraph:
    """Merge graphs by vertex id, keeping the union of all edges.

    The same id must carry the same kind everywhere (DuplicateIdError
    otherwise); attrs are merged with later graphs winning on conflicts.
    It is the empty graph ``extend``ed by the merged vertices and every
    graph's edges, sorted by (src, dst, label) as ``edges[i]`` counts.
    """
    vertices: dict[str, Vertex] = {}
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
    edges = sorted(
        set().union(*(g.edges for g in graphs)), key=lambda e: (e.src, e.dst, e.label.value)
    )
    return ProvGraph().extend(vertices.values(), edges)
