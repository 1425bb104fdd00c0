"""Finite-model evaluation of bound policies over provenance graphs.

Quantifiers range over the vertices of the supplied graph only, split by
sort; an existential over an empty domain is false and a universal over an
empty domain is vacuously true. Atoms that mention a constant or set name
the binding left unresolved evaluate to false and contribute a diagnostic
note. Vertex-id domains are enumerated in lexicographic order, which makes
witnesses and counterexamples deterministic.

``evaluate`` compiles the whole policy, once per call, into a plan of
closures: variables and resolved constants are slots of one list, each
quantifier (the leading chain's too) holds its sorted domain and stops at the
value that settles it, and each maximal ``and``/``or``/``=>`` chain is one
n-ary node. It short-circuits left to right as a walk of the AST would,
testing the same atoms in the same order, each one probe of the graph's edge
index; on return the chain's slots hold the settling assignment.
``evaluate_naive`` recomputes the same semantics by materialising every sort
domain and the full Cartesian product of quantified assignments without any
pruning. The two must always agree -- the naive route exists as an
independent oracle for the optimised one and must not be folded into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

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


class _Plan:
    """One bound policy compiled for one graph into closures over ``slots``."""

    def __init__(self, policy: BoundPolicy, graph: ProvGraph):
        self.policy = policy
        self.slots: list[str | None] = []
        self.notes: dict[str, None] = {}  # the diagnostics, in the order reached
        self.graph = graph
        self.domains: dict[Sort, list[str]] = {}

    def slot(self, value: str | None = None) -> int:
        self.slots.append(value)
        return len(self.slots) - 1

    def domain(self, sort: Sort) -> list[str]:
        if sort not in self.domains:
            self.domains[sort] = _domain(self.graph, sort)
        return self.domains[sort]

    def compile(self, node: Policy, scope: Mapping[str, int]) -> Callable[[], bool]:
        slots = self.slots
        if isinstance(node, (Exists, Forall)):
            slot, domain = self.slot(), self.domain(node.sort)
            body = self.compile(node.body, {**scope, node.var: slot})
            settle = isinstance(node, Exists)  # the body value that decides it

            def quantifier() -> bool:
                for vid in domain:
                    slots[slot] = vid
                    if body() is settle:
                        return settle
                return not settle
            return quantifier
        if isinstance(node, (And, Or, Implies)):
            # A stack, not recursion, collects the operands of the maximal
            # spine left to right: a => b => c runs as (not a) or (not b) or c.
            kind = type(node)
            settle = kind is not And  # the operand value that decides it
            operands, stack = [], [node]
            while stack:
                node = stack.pop()
                if isinstance(node, kind):
                    left = Not(node.left) if kind is Implies else node.left
                    stack += (node.right, left)
                else:
                    operands.append(self.compile(node, scope))

            def spine() -> bool:
                for operand in operands:
                    if operand() is settle:
                        return settle
                return not settle
            return spine
        if isinstance(node, Not):
            operand = self.compile(node.operand, scope)
            return lambda: not operand()
        if isinstance(node, Const):
            value = node.value
            return lambda: value
        if isinstance(node, EdgeAtom):
            src, dst = self.term(node.source, scope), self.term(node.target, scope)
            if type(src) is int and type(dst) is int:
                has_edge, label = self.graph.has_edge, node.label
                return lambda: has_edge(slots[src], slots[dst], label)
            return self.unresolved(src, dst)
        if isinstance(node, MemberAtom):
            slot = self.term(node.term, scope)
            members = self.policy.sets.get(node.set_name)
            if type(slot) is not int:
                return self.unresolved(slot)
            if members is None:
                return self.unresolved(
                    f"set '{node.set_name}' is unbound; membership tests on it are false"
                )
            return lambda: slots[slot] in members
        raise TypeError(f"not a policy node: {node!r}")

    def term(self, term: Term, scope: Mapping[str, int]) -> int | str | ValueError:
        """The slot holding ``term``'s vertex id, else the diagnostic of an
        unresolved constant or the error of a variable outside any quantifier."""
        if isinstance(term, Var):
            if term.name in scope:
                return scope[term.name]
            unbound = f"variable '{term.name}' is not bound by an enclosing quantifier"
            return ValueError(unbound)
        if isinstance(term, ConstRef):
            vid = self.policy.constants.get(term.name)
            if vid is None:
                return f"constant '{term.name}' is unbound; atoms naming it are false"
            return self.slot(vid)
        raise TypeError(f"not a term: {term!r}")

    def unresolved(self, *names: int | str | ValueError) -> Callable[[], bool]:
        """An atom that an unresolved name makes false: when reached, it
        notes each diagnostic in order and raises at an unbound variable."""
        reached = [name for name in names if type(name) is not int]

        def atom() -> bool:
            for name in reached:
                if isinstance(name, ValueError):
                    raise name
                self.notes.setdefault(name)
            return False
        return atom


def evaluate(policy: BoundPolicy, graph: ProvGraph) -> Verdict:
    """Decide whether ``graph`` satisfies ``policy``.

    The graph must pass typing and acyclicity validation
    (InvalidGraphError otherwise). Satisfied policies whose outermost
    connectives form an existential chain come with a witness for that
    chain; unsatisfied policies under a universal chain come with a
    counterexample.

    The leading chain runs as the plan's own nested quantifiers, trying
    assignments in lexicographic order (outermost variable slowest). Each
    stops at the value that settles it and leaves it in its slot, so the
    chain's slots, the plan's first, hold the witness or counterexample.
    Each quantifier is one nested call, so an AST about 1000 quantifiers
    deep raises RecursionError, as ``pretty_print`` does; parsing stops at
    100 levels.
    """
    _require_valid(graph)
    plan = _Plan(policy, graph)
    satisfied = plan.compile(policy.ast, {})()
    names, node, kind = [], policy.ast, type(policy.ast)
    while type(node) is kind and kind in (Exists, Forall):
        names.append(node.var)
        node = node.body
    # A repeated name is the inner one, as in the body.
    settling = dict(zip(names, plan.slots)) or None
    return Verdict(
        satisfied=satisfied,
        witness=settling if satisfied and kind is Exists else None,
        counterexample=None if satisfied or kind is Exists else settling,
        diagnostics=tuple(plan.notes),
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
