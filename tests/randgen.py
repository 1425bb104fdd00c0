"""Seeded random generators shared by the property and acceptance tests.

Graphs are generated constructively along a random vertex order with all
edges pointing forward in that order, so every generated graph is a DAG by
construction and every edge label is drawn from the combinations the
typing table admits.
"""

from __future__ import annotations

import random

from acdc_prov.graph import (
    LabeledEdge,
    ProvGraph,
    RelationLabel,
    Sort,
    TYPING_RULES,
    Vertex,
    VertexKind,
)
from acdc_prov.policy import (
    And,
    Const,
    ConstRef,
    EdgeAtom,
    Environment,
    Exists,
    Forall,
    Implies,
    MemberAtom,
    Not,
    Or,
    Policy,
    Term,
    Var,
)

KINDS = tuple(VertexKind)
LABELS = tuple(RelationLabel)
SORTS = tuple(Sort)

# (src kind, dst kind) -> labels the typing table admits for that pair
ALLOWED_BY_PAIR: dict[tuple[VertexKind, VertexKind], tuple[RelationLabel, ...]] = {}
for _label, _pairs in TYPING_RULES.items():
    for _pair in _pairs:
        ALLOWED_BY_PAIR[_pair] = ALLOWED_BY_PAIR.get(_pair, ()) + (_label,)
ALLOWED_BY_PAIR = {
    pair: tuple(sorted(labels, key=lambda l: l.value))
    for pair, labels in ALLOWED_BY_PAIR.items()
}

_ID_POOL = tuple(f"v{i:02d}" for i in range(24))
_EXTRA_ID_POOL = tuple(f"w{i:02d}" for i in range(12))
_LARGE_ID_POOL = tuple(f"n{i:03d}" for i in range(400))

VAR_NAMES = ("x", "y", "z", "u", "t")
CONST_NAMES = ("c1", "c2", "c3")
SET_NAMES = ("s1", "s2")


def random_graph_with_order(
    rng: random.Random,
    max_vertices: int = 12,
    min_vertices: int = 0,
    edge_chance: float = 0.35,
) -> tuple[ProvGraph, list[str]]:
    """A random well-typed DAG plus the vertex order it was built along."""
    count = rng.randint(min_vertices, max_vertices)
    order = rng.sample(_ID_POOL, count)
    kinds = {vid: rng.choice(KINDS) for vid in order}
    edges = []
    for i in range(count):
        for j in range(i + 1, count):
            src, dst = order[i], order[j]
            allowed = ALLOWED_BY_PAIR.get((kinds[src], kinds[dst]))
            if allowed and rng.random() < edge_chance:
                edges.append(LabeledEdge(src, dst, rng.choice(allowed)))
    vertices = [Vertex(vid, kind) for vid, kind in kinds.items()]
    return ProvGraph().extend(vertices, edges), order


def random_graph(
    rng: random.Random, max_vertices: int = 12, min_vertices: int = 0
) -> ProvGraph:
    return random_graph_with_order(rng, max_vertices, min_vertices)[0]


def random_large_graph(
    rng: random.Random, vertices: int = 200, max_out_degree: int = 6
) -> ProvGraph:
    """A random well-typed DAG of ``vertices`` vertices (at most 400) with
    up to ``max_out_degree`` forward edges per vertex."""
    order = rng.sample(_LARGE_ID_POOL, vertices)
    kinds = {vid: rng.choice(KINDS) for vid in order}
    edges = set()
    for i, src in enumerate(order[:-1]):
        for _ in range(rng.randint(0, max_out_degree)):
            dst = order[rng.randrange(i + 1, vertices)]
            allowed = ALLOWED_BY_PAIR.get((kinds[src], kinds[dst]))
            if allowed:
                edges.add(LabeledEdge(src, dst, rng.choice(allowed)))
    return ProvGraph().extend([Vertex(vid, kind) for vid, kind in kinds.items()], edges)


def extend_graph(
    rng: random.Random,
    graph: ProvGraph,
    order: list[str],
    max_extra: int = 5,
    edge_chance: float = 0.35,
) -> ProvGraph:
    """A strict supergraph of ``graph``: extra vertices appended after the
    original order, extra forward edges anywhere."""
    pool = [vid for vid in (*_ID_POOL, *_EXTRA_ID_POOL) if vid not in graph.vertices]
    new_ids = rng.sample(pool, rng.randint(1, max_extra))
    kinds = {vid: graph.vertices[vid].kind for vid in order}
    kinds.update((vid, rng.choice(KINDS)) for vid in new_ids)
    full_order = order + new_ids
    edges = []
    for i in range(len(full_order)):
        for j in range(max(i + 1, len(order)), len(full_order)):
            src, dst = full_order[i], full_order[j]
            allowed = ALLOWED_BY_PAIR.get((kinds[src], kinds[dst]))
            if allowed and rng.random() < edge_chance:
                edges.append(LabeledEdge(src, dst, rng.choice(allowed)))
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            src, dst = order[i], order[j]
            allowed = ALLOWED_BY_PAIR.get((kinds[src], kinds[dst]))
            if allowed and rng.random() < 0.1:
                edges.append(LabeledEdge(src, dst, rng.choice(allowed)))
    return graph.extend([Vertex(vid, kinds[vid]) for vid in new_ids], edges)


def random_environment(rng: random.Random, graph: ProvGraph) -> Environment:
    """Constants and sets over the graph's ids: mostly resolved, sometimes
    pointing at absent vertices, sometimes left unresolved entirely."""
    graph_ids = sorted(graph.vertices)
    constants: dict[str, str] = {}
    for name in CONST_NAMES:
        roll = rng.random()
        if roll < 0.7 and graph_ids:
            constants[name] = rng.choice(graph_ids)
        elif roll < 0.85:
            constants[name] = "absent"
    sets: dict[str, frozenset[str]] = {}
    for name in SET_NAMES:
        if rng.random() < 0.75:
            members = {vid for vid in graph_ids if rng.random() < 0.3}
            if rng.random() < 0.25:
                members.add("absent")
            sets[name] = frozenset(members)
    return Environment(constants=constants, sets=sets)


def grounded_positive_policy(
    rng: random.Random, graph: ProvGraph
) -> tuple[Policy, Environment]:
    """A positive policy whose atoms are drawn from the graph's actual
    edges, plus an environment grounding its constants. Unlike
    ``random_policy_ast(positive=True)`` the result is usually satisfied,
    which keeps monotonicity checks from passing vacuously."""
    edges = sorted(graph.edges, key=lambda e: (e.src, e.dst, e.label.value))
    constants: dict[str, str] = {}

    def const_for(vid: str) -> ConstRef:
        name = f"g{len(constants)}"
        constants[name] = vid
        return ConstRef(name)

    def atom() -> Policy:
        if not edges:
            return Const(True)
        e = rng.choice(edges)
        roll = rng.random()
        if roll < 0.4:
            return EdgeAtom(const_for(e.src), const_for(e.dst), e.label)
        var = rng.choice(VAR_NAMES)
        if roll < 0.7:
            sort = Sort(graph.vertices[e.src].kind.value)
            return Exists(var, sort, EdgeAtom(Var(var), const_for(e.dst), e.label))
        sort = Sort(graph.vertices[e.dst].kind.value)
        return Exists(var, sort, EdgeAtom(const_for(e.src), Var(var), e.label))

    node = atom()
    for _ in range(rng.randint(0, 2)):
        node = (And if rng.random() < 0.7 else Or)(node, atom())
    return node, Environment(constants=constants)


def _random_term(rng: random.Random, scope: list[str]) -> Term:
    if scope and rng.random() < 0.7:
        return Var(rng.choice(scope))
    return ConstRef(rng.choice(CONST_NAMES))


def _random_atom(rng: random.Random, scope: list[str]) -> Policy:
    roll = rng.random()
    if roll < 0.7:
        return EdgeAtom(_random_term(rng, scope), _random_term(rng, scope), rng.choice(LABELS))
    if roll < 0.9:
        return MemberAtom(_random_term(rng, scope), rng.choice(SET_NAMES))
    return Const(rng.random() < 0.5)


def random_policy_ast(
    rng: random.Random,
    max_quantifiers: int = 3,
    max_depth: int = 4,
    scope: tuple[str, ...] = (),
    positive: bool = False,
) -> Policy:
    """A well-scoped random policy AST.

    ``positive`` restricts the shape to the monotone fragment: existential
    quantifiers, conjunction, disjunction, and atoms only.
    """

    def build(scope: list[str], quantifiers: int, depth: int) -> Policy:
        roll = rng.random()
        if depth <= 0:
            return _random_atom(rng, scope)
        if quantifiers > 0 and roll < 0.35:
            free = [name for name in VAR_NAMES if name not in scope]
            if free:
                var = free[0]
                sort = rng.choice(SORTS)
                node = Exists if positive or rng.random() < 0.5 else Forall
                return node(var, sort, build(scope + [var], quantifiers - 1, depth - 1))
        if roll < 0.55:
            return And(
                build(scope, quantifiers, depth - 1), build(scope, quantifiers, depth - 1)
            )
        if roll < 0.7:
            return Or(
                build(scope, quantifiers, depth - 1), build(scope, quantifiers, depth - 1)
            )
        if positive:
            return _random_atom(rng, scope)
        if roll < 0.8:
            return Implies(
                build(scope, quantifiers, depth - 1), build(scope, quantifiers, depth - 1)
            )
        if roll < 0.9:
            return Not(build(scope, quantifiers, depth - 1))
        return _random_atom(rng, scope)

    return build(list(scope), max_quantifiers, max_depth)
