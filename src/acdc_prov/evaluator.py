"""Finite-model evaluation of bound policies over provenance graphs.

Quantifiers range over the vertices of the supplied graph only, split by
sort; an existential over an empty domain is false and a universal over an
empty domain is vacuously true. Atoms that mention a constant or set name
the binding left unresolved evaluate to false and contribute a diagnostic
note. Vertex-id domains are enumerated in lexicographic order, which makes
witnesses and counterexamples deterministic.

``evaluate`` short-circuits; ``evaluate_naive`` recomputes the same
semantics by materialising every sort domain and the full Cartesian product
of quantified assignments without any pruning. The two must always agree --
the naive route exists as an independent oracle for the optimised one and
must not be folded into it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .graph import Cycle, ProvGraph, Sort, TypeViolation
from .policy import (
    And,
    BoundPolicy,
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
    bind,
)

__all__ = [
    "Verdict",
    "evaluate",
    "evaluate_naive",
    "conjoin",
    "EvaluationError",
    "InvalidGraphError",
    "EmptyPolicyListError",
    "ConflictingBindingError",
]


class EvaluationError(Exception):
    """Base class for evaluation and composition errors."""


class InvalidGraphError(EvaluationError):
    """The graph under evaluation fails typing or acyclicity validation."""

    def __init__(self, violations: list[TypeViolation], cycles: list[Cycle]):
        self.violations = violations
        self.cycles = cycles
        parts = [v.describe() for v in violations]
        parts += [f"cycle: {' -> '.join(c)}" for c in cycles]
        super().__init__("graph fails validation: " + "; ".join(parts))


class EmptyPolicyListError(EvaluationError):
    """conjoin() needs at least one policy."""


class ConflictingBindingError(EvaluationError):
    """Two policies resolve the same name to different values."""


@dataclass(frozen=True)
class Verdict:
    """The outcome of evaluating a bound policy on one graph.

    ``witness`` is present only when the policy is satisfied and its
    outermost connective chain is existential; ``counterexample`` only when
    it is unsatisfied under an outermost universal chain. Both map the
    leading quantifier variables to vertex ids.
    """

    satisfied: bool
    witness: Mapping[str, str] | None = None
    counterexample: Mapping[str, str] | None = None
    diagnostics: tuple[str, ...] = ()


def _require_valid(graph: ProvGraph) -> None:
    violations = graph.validate_typing()
    cycles = graph.validate_acyclic()
    if violations or cycles:
        raise InvalidGraphError(violations, cycles)


def _domain(graph: ProvGraph, sort) -> list[str]:
    return sorted(graph.vertices_of_sort(sort))


class _Evaluator:
    """Short-circuiting recursive evaluation with diagnostic collection."""

    def __init__(self, policy: BoundPolicy, graph: ProvGraph):
        self.policy = policy
        self.graph = graph
        self.diagnostics: list[str] = []
        self._noted: set[str] = set()
        self._domains: dict[Sort, list[str]] = {}

    def domain(self, sort: Sort) -> list[str]:
        domain = self._domains.get(sort)
        if domain is None:
            domain = self._domains[sort] = _domain(self.graph, sort)
        return domain

    def run(self, node: Policy, bindings: dict[str, str]) -> bool:
        if isinstance(node, Exists):
            for vid in self.domain(node.sort):
                bindings[node.var] = vid
                if self.run(node.body, bindings):
                    del bindings[node.var]
                    return True
            bindings.pop(node.var, None)
            return False
        if isinstance(node, Forall):
            for vid in self.domain(node.sort):
                bindings[node.var] = vid
                if not self.run(node.body, bindings):
                    del bindings[node.var]
                    return False
            bindings.pop(node.var, None)
            return True
        if isinstance(node, And):
            return self.run(node.left, bindings) and self.run(node.right, bindings)
        if isinstance(node, Or):
            return self.run(node.left, bindings) or self.run(node.right, bindings)
        if isinstance(node, Implies):
            if not self.run(node.left, bindings):
                return True
            return self.run(node.right, bindings)
        if isinstance(node, Not):
            return not self.run(node.operand, bindings)
        if isinstance(node, Const):
            return node.value
        if isinstance(node, EdgeAtom):
            src = self.resolve(node.source, bindings)
            dst = self.resolve(node.target, bindings)
            if src is None or dst is None:
                return False
            return self.graph.has_edge(src, dst, node.label)
        if isinstance(node, MemberAtom):
            vid = self.resolve(node.term, bindings)
            if vid is None:
                return False
            members = self.policy.sets.get(node.set_name)
            if members is None:
                self.note(f"set '{node.set_name}' is unbound; membership tests on it are false")
                return False
            return vid in members
        raise TypeError(f"not a policy node: {node!r}")

    def resolve(self, term: Term, bindings: Mapping[str, str]) -> str | None:
        if isinstance(term, Var):
            try:
                return bindings[term.name]
            except KeyError:
                raise ValueError(
                    f"variable '{term.name}' is not bound by an enclosing quantifier"
                ) from None
        if isinstance(term, ConstRef):
            vid = self.policy.constants.get(term.name)
            if vid is None:
                self.note(f"constant '{term.name}' is unbound; atoms naming it are false")
            return vid
        raise TypeError(f"not a term: {term!r}")

    def note(self, message: str) -> None:
        if message not in self._noted:
            self._noted.add(message)
            self.diagnostics.append(message)


def _leading_chain(ast: Policy) -> tuple[list[str], list[Sort], Policy]:
    """The variables and sorts of the outermost run of quantifiers of the
    root's kind, and the body under them (no variables if the root is not a
    quantifier)."""
    names: list[str] = []
    sorts: list[Sort] = []
    node = ast
    while isinstance(node, (Exists, Forall)) and type(node) is type(ast):
        names.append(node.var)
        sorts.append(node.sort)
        node = node.body
    return names, sorts, node


def evaluate(policy: BoundPolicy, graph: ProvGraph) -> Verdict:
    """Decide whether ``graph`` satisfies ``policy``.

    The graph must pass typing and acyclicity validation
    (InvalidGraphError otherwise). Satisfied policies whose outermost
    connectives form an existential chain come with a witness for that
    chain; unsatisfied policies under a universal chain come with a
    counterexample.

    The leading chain is searched once, its assignments in lexicographic
    order (outermost variable slowest); the first assignment that settles
    the verdict is the witness or counterexample.
    """
    _require_valid(graph)
    evaluator = _Evaluator(policy, graph)
    names, sorts, body = _leading_chain(policy.ast)
    existential = isinstance(policy.ast, Exists)
    satisfied = not existential
    settling: dict[str, str] | None = None
    if not names:
        satisfied = evaluator.run(body, {})
    else:
        bindings: dict[str, str] = {}
        domains = [evaluator.domain(sort) for sort in sorts]
        for values in itertools.product(*domains):
            bindings.update(zip(names, values))
            if evaluator.run(body, bindings) is existential:
                satisfied = existential
                settling = dict(zip(names, values))
                break
    return Verdict(
        satisfied=satisfied,
        witness=settling if satisfied else None,
        counterexample=None if satisfied else settling,
        diagnostics=tuple(evaluator.diagnostics),
    )


# ---------------------------------------------------------------------------
# naive oracle
# ---------------------------------------------------------------------------


def evaluate_naive(policy: BoundPolicy, graph: ProvGraph) -> bool:
    """Reference evaluation: same semantics as ``evaluate``, no pruning.

    Every quantifier materialises its full domain and evaluates its body
    for every assignment before reducing; connectives evaluate both sides.
    Kept deliberately independent of ``evaluate`` as its oracle.
    """
    _require_valid(graph)
    return _naive(policy, graph, policy.ast, {})


def _naive(
    policy: BoundPolicy, graph: ProvGraph, node: Policy, bindings: dict[str, str]
) -> bool:
    if isinstance(node, (Exists, Forall)):
        outcomes = [
            _naive(policy, graph, node.body, {**bindings, node.var: vid})
            for vid in _domain(graph, node.sort)
        ]
        return any(outcomes) if isinstance(node, Exists) else all(outcomes)
    if isinstance(node, And):
        left = _naive(policy, graph, node.left, bindings)
        right = _naive(policy, graph, node.right, bindings)
        return left and right
    if isinstance(node, Or):
        left = _naive(policy, graph, node.left, bindings)
        right = _naive(policy, graph, node.right, bindings)
        return left or right
    if isinstance(node, Implies):
        left = _naive(policy, graph, node.left, bindings)
        right = _naive(policy, graph, node.right, bindings)
        return (not left) or right
    if isinstance(node, Not):
        return not _naive(policy, graph, node.operand, bindings)
    if isinstance(node, Const):
        return node.value
    if isinstance(node, EdgeAtom):
        src = _naive_term(policy, node.source, bindings)
        dst = _naive_term(policy, node.target, bindings)
        if src is None or dst is None:
            return False
        return graph.has_edge(src, dst, node.label)
    if isinstance(node, MemberAtom):
        vid = _naive_term(policy, node.term, bindings)
        members = policy.sets.get(node.set_name)
        if vid is None or members is None:
            return False
        return vid in members
    raise TypeError(f"not a policy node: {node!r}")


def _naive_term(
    policy: BoundPolicy, term: Term, bindings: Mapping[str, str]
) -> str | None:
    if isinstance(term, Var):
        try:
            return bindings[term.name]
        except KeyError:
            raise ValueError(
                f"variable '{term.name}' is not bound by an enclosing quantifier"
            ) from None
    if isinstance(term, ConstRef):
        return policy.constants.get(term.name)
    raise TypeError(f"not a term: {term!r}")


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def conjoin(policies: Sequence[BoundPolicy]) -> BoundPolicy:
    """Combine bound policies into one right-folded conjunction.

    The resolution tables are merged; the same name resolving to different
    values is a ConflictingBindingError, and an empty sequence is an
    EmptyPolicyListError. A name one policy left unresolved may be resolved
    by another's table in the combined binding.
    """
    policies = list(policies)
    if not policies:
        raise EmptyPolicyListError("conjoin needs at least one policy")
    constants: dict[str, str] = {}
    sets: dict[str, frozenset[str]] = {}
    for policy in policies:
        for name, vid in policy.constants.items():
            if constants.get(name, vid) != vid:
                raise ConflictingBindingError(
                    f"constant '{name}' is bound to both '{constants[name]}' and '{vid}'"
                )
            constants[name] = vid
        for name, members in policy.sets.items():
            if sets.get(name, members) != members:
                raise ConflictingBindingError(
                    f"set '{name}' is bound to two different id sets"
                )
            sets[name] = members
    combined = policies[-1].ast
    for policy in reversed(policies[:-1]):
        combined = And(policy.ast, combined)
    return bind(combined, Environment(constants=constants, sets=sets))
