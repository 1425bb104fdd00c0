"""First-order policy language over provenance graphs.

Grammar (whitespace-insensitive, ``#`` starts a line comment)::

    policy   := expr EOF
    expr     := quant | impl
    quant    := ("exists" | "forall") IDENT ":" sort "." expr
    impl     := orex ("=>" orex)*                  # right-associative
    orex     := andex ("or" andex)*                # left-associative
    andex    := unary ("and" unary)*               # left-associative
    unary    := "not" unary | atom | "true" | "false" | "(" expr ")"
    atom     := "edge" "(" term "," term "," LABEL ")"
              | "member" "(" term "," IDENT ")"
    term     := IDENT
    sort     := key_entity | contract_entity | data_entity | node_agent
              | account_agent | activity | entity | agent | vertex

Token classes are the alternatives of one regular expression, ``_TOKEN``.
Operator precedence, loosest first: quantifier bodies extend to the end of
the enclosing scope, then ``=>``, ``or``, ``and``, ``not``; the parser and
the printer both take the connectives' precedence and associativity from
``_BINARY``. An identifier in term position is a variable when a
quantifier of that name is in scope and a named constant otherwise;
rebinding a name that is already in scope is an error.

Parentheses, ``not`` and quantifiers nest at most 100 levels deep, each
counting as one level: the parser recurses on each of them, and the limit
keeps it well inside Python's recursion limit.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Collection, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, NamedTuple

from .graph import RelationLabel, Sort, _check_id

__all__ = [
    "Policy",
    "Exists",
    "Forall",
    "And",
    "Or",
    "Not",
    "Implies",
    "EdgeAtom",
    "MemberAtom",
    "Const",
    "Term",
    "Var",
    "ConstRef",
    "parse_policy",
    "pretty_print",
    "Environment",
    "BoundPolicy",
    "bind",
    "PolicyError",
    "ParseError",
    "ShadowingError",
    "UnknownLabelError",
    "UnknownSortError",
    "StrictBindingError",
]


# ---------------------------------------------------------------------------
# abstract syntax
# ---------------------------------------------------------------------------


class Term:
    """Base class for the two term forms appearing inside atoms."""


@dataclass(frozen=True)
class Var(Term):
    """A quantified variable occurrence."""

    name: str


@dataclass(frozen=True)
class ConstRef(Term):
    """A named constant, resolved to a vertex id through an Environment."""

    name: str


class Policy:
    """Base class for policy AST nodes."""


@dataclass(frozen=True)
class Exists(Policy):
    var: str
    sort: Sort
    body: Policy


@dataclass(frozen=True)
class Forall(Policy):
    var: str
    sort: Sort
    body: Policy


@dataclass(frozen=True)
class And(Policy):
    left: Policy
    right: Policy


@dataclass(frozen=True)
class Or(Policy):
    left: Policy
    right: Policy


@dataclass(frozen=True)
class Not(Policy):
    operand: Policy


@dataclass(frozen=True)
class Implies(Policy):
    left: Policy
    right: Policy


@dataclass(frozen=True)
class EdgeAtom(Policy):
    """Does the graph contain the edge ``source -> target`` with ``label``?"""

    source: Term
    target: Term
    label: RelationLabel


@dataclass(frozen=True)
class MemberAtom(Policy):
    """Does the term's vertex id belong to the named id set?"""

    term: Term
    set_name: str


@dataclass(frozen=True)
class Const(Policy):
    """A propositional constant: ``true`` or ``false``."""

    value: bool


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


class PolicyError(Exception):
    """Base class for policy-language errors."""


class ParseError(PolicyError):
    """The input is not a well-formed policy. Carries a 1-based position."""

    def __init__(self, message: str, line: int, column: int, expected: Iterable[str] = ()):
        self.line = line
        self.column = column
        self.expected = frozenset(expected)
        super().__init__(f"{message} (line {line}, column {column})")


class ShadowingError(ParseError):
    """A quantifier rebinds a variable name that is already in scope."""


class UnknownLabelError(ParseError):
    """An edge atom names a label outside the six relation labels."""


class UnknownSortError(ParseError):
    """A quantifier names a sort outside the nine quantification sorts."""


class StrictBindingError(PolicyError):
    """Strict binding found names the environment does not resolve."""

    def __init__(self, unresolved: Iterable[str]):
        self.unresolved = tuple(sorted(unresolved))
        super().__init__(
            "environment does not resolve: " + ", ".join(self.unresolved)
        )


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_KEYWORDS = frozenset(
    {"exists", "forall", "and", "or", "not", "true", "false", "edge", "member"}
)


class _Token(NamedTuple):
    kind: str  # keyword, punctuation, "ident" or "eof"
    value: str
    line: int
    column: int


# One alternative per token class, tried in order. ``\w`` is a letter, digit
# or ``_``; a word must also start with a letter or ``_``, for which ``re``
# has no class, so ``_tokenize`` checks its first character.
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<blank>[ \t\r]+)|(?P<comment>#[^\n]*)"
    r"|(?P<punctuation>[(),:.]|=>)|(?P<word>\w+)|(?P<other>.)"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, value = match.lastgroup, match.group()
        column = match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "punctuation":
            tokens.append(_Token(value, value, line, column))
        elif kind == "word" and (value[0].isalpha() or value[0] == "_"):
            tokens.append(_Token(value if value in _KEYWORDS else "ident", value, line, column))
        elif kind != "blank" and kind != "comment":
            raise ParseError(f"unexpected character {value[0]!r}", line, column)
    # A comment takes no columns, so end of input after one is at its '#'.
    column = len(text[line_start:].partition("#")[0]) + 1
    tokens.append(_Token("eof", "", line, column))
    return tokens


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_PREC_QUANT = 0
_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_NOT = 4


# connective -> (keyword, precedence, context of the left and right operands).
# The printer parenthesises an operand whose precedence is below its context,
# and the parser folds a chain towards the side whose context is the
# connective's own precedence.
_BINARY = {
    Implies: ("=>", _PREC_IMPLIES, _PREC_OR, _PREC_IMPLIES),
    Or: ("or", _PREC_OR, _PREC_OR, _PREC_AND),
    And: ("and", _PREC_AND, _PREC_AND, _PREC_NOT),
}

# The parser's levels, loosest first.
_LEVELS = sorted(_BINARY, key=lambda kind: _BINARY[kind][1])

_MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.scope: list[str] = []
        self.depth = 0

    def nested(self, opener: _Token, parse: Callable[[], Policy]) -> Policy:
        """Run ``parse`` one nesting level below ``opener``."""
        if self.depth == _MAX_NESTING:
            raise ParseError(
                f"policy nested deeper than {_MAX_NESTING} levels",
                opener.line,
                opener.column,
            )
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def eat(self, kind: str) -> _Token:
        token = self.current
        if token.kind != kind:
            raise ParseError(
                f"expected {kind!r} but found {token.value or 'end of input'!r}",
                token.line,
                token.column,
                expected={kind},
            )
        self.pos += 1
        return token

    def parse(self) -> Policy:
        node = self.expr()
        token = self.current
        if token.kind != "eof":
            raise ParseError(
                f"unexpected trailing input {token.value!r}",
                token.line,
                token.column,
                expected={"eof"},
            )
        return node

    def expr(self) -> Policy:
        if self.current.kind in ("exists", "forall"):
            return self.quantifier()
        return self.binary()

    def quantifier(self) -> Policy:
        keyword = self.eat(self.current.kind)
        name_token = self.eat("ident")
        if name_token.value in self.scope:
            raise ShadowingError(
                f"variable {name_token.value!r} is already bound in this scope",
                name_token.line,
                name_token.column,
            )
        self.eat(":")
        sort_token = self.eat("ident")
        try:
            sort = Sort(sort_token.value)
        except ValueError:
            raise UnknownSortError(
                f"unknown sort {sort_token.value!r}",
                sort_token.line,
                sort_token.column,
                expected=frozenset(s.value for s in Sort),
            ) from None
        self.eat(".")
        self.scope.append(name_token.value)
        body = self.nested(keyword, self.expr)
        self.scope.pop()
        node = Exists if keyword.kind == "exists" else Forall
        return node(name_token.value, sort, body)

    def binary(self, level: int = 0) -> Policy:
        """Parse a chain of ``_LEVELS[level]``'s connective. Its operands are
        chains of the next tighter level, or unary after the tightest."""
        kind = _LEVELS[level]
        keyword, precedence, _, right = _BINARY[kind]
        level += 1
        operands = []
        while True:
            operands.append(self.binary(level) if level < len(_LEVELS) else self.unary())
            if self.current.kind != keyword:
                break
            self.pos += 1
        if right == precedence:
            return functools.reduce(lambda chain, operand: kind(operand, chain), reversed(operands))
        return functools.reduce(kind, operands)

    def unary(self) -> Policy:
        token = self.current
        if token.kind == "not":
            self.eat("not")
            return Not(self.nested(token, self.unary))
        if token.kind == "(":
            self.eat("(")
            node = self.nested(token, self.expr)
            self.eat(")")
            return node
        if token.kind in ("true", "false"):
            self.pos += 1
            return Const(token.kind == "true")
        if token.kind == "edge":
            return self.edge_atom()
        if token.kind == "member":
            return self.member_atom()
        raise ParseError(
            f"expected an atom, 'not', 'true', 'false' or '(' but found "
            f"{token.value or 'end of input'!r}",
            token.line,
            token.column,
            expected={"edge", "member", "not", "true", "false", "("},
        )

    def edge_atom(self) -> Policy:
        self.eat("edge")
        self.eat("(")
        source = self.term()
        self.eat(",")
        target = self.term()
        self.eat(",")
        label_token = self.eat("ident")
        try:
            label = RelationLabel(label_token.value)
        except ValueError:
            raise UnknownLabelError(
                f"unknown relation label {label_token.value!r}",
                label_token.line,
                label_token.column,
                expected=frozenset(l.value for l in RelationLabel),
            ) from None
        self.eat(")")
        return EdgeAtom(source, target, label)

    def member_atom(self) -> Policy:
        self.eat("member")
        self.eat("(")
        term = self.term()
        self.eat(",")
        set_token = self.eat("ident")
        self.eat(")")
        return MemberAtom(term, set_token.value)

    def term(self) -> Term:
        token = self.eat("ident")
        return (Var if token.value in self.scope else ConstRef)(token.value)


def parse_policy(text: str) -> Policy:
    """Parse policy source text into an AST.

    Raises ParseError (or a subclass) with a 1-based line/column position
    on any non-conforming input, including parentheses, ``not`` and
    quantifiers nested more than 100 levels deep; the position is that of
    the token that opens the 101st level.
    """
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

def pretty_print(ast: Policy) -> str:
    """Render an AST as canonical policy text with minimal parentheses.

    For well-scoped ASTs (every Var under a quantifier of its name, no
    ConstRef shadowed by an enclosing quantifier) the output re-parses to
    a structurally identical AST.
    """
    return _render(ast, _PREC_QUANT)


def _render(node: Policy, context: int) -> str:
    if isinstance(node, (Exists, Forall)):
        keyword = "exists" if isinstance(node, Exists) else "forall"
        text = f"{keyword} {node.var}: {node.sort.value} . {_render(node.body, _PREC_QUANT)}"
        return f"({text})" if context > _PREC_QUANT else text
    if isinstance(node, (Implies, Or, And)):
        return _render_spine(node, context)
    if isinstance(node, Not):
        return f"not {_render(node.operand, _PREC_NOT)}"
    if isinstance(node, EdgeAtom):
        return (
            f"edge({_render_term(node.source)}, {_render_term(node.target)}, "
            f"{node.label.value})"
        )
    if isinstance(node, MemberAtom):
        return f"member({_render_term(node.term)}, {node.set_name})"
    if isinstance(node, Const):
        return "true" if node.value else "false"
    raise TypeError(f"not a policy node: {node!r}")


def _render_spine(node: Implies | Or | And, context: int) -> str:
    """Render the maximal spine of ``node``'s connective in order, with a
    stack instead of recursion; only its other operands recurse."""
    kind = type(node)
    keyword, precedence, left, right = _BINARY[kind]
    parts: list[str] = []
    stack: list[tuple[Policy | str, int]] = [(node, context)]
    while stack:
        item, context = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, kind):
            wrap = context > precedence
            stack.append((")" if wrap else "", context))
            stack += ((item.right, right), (f" {keyword} ", context), (item.left, left))
            stack.append(("(" if wrap else "", context))
        else:
            parts.append(_render(item, context))
    return "".join(parts)


def _render_term(term: Term) -> str:
    if isinstance(term, (Var, ConstRef)):
        return term.name
    raise TypeError(f"not a term: {term!r}")


# ---------------------------------------------------------------------------
# binding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Environment:
    """Names available to a policy: constants (vertex ids) and id sets, kept
    as read-only copies. Names are strings, ids keep ``Vertex``'s id rule,
    and a set is a collection of ids, not a string or a mapping; else a
    ValueError names the binding."""

    constants: Mapping[str, str] = field(default_factory=dict)
    sets: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        constants, sets = dict(self.constants), dict(self.sets)
        for name, vid in constants.items():
            _ids("constants", name, (vid,))
        for name, ids in sets.items():
            sets[name] = _ids("sets", name, ids)
        object.__setattr__(self, "constants", MappingProxyType(constants))
        object.__setattr__(self, "sets", MappingProxyType(sets))

    def __reduce__(self):
        return Environment, (dict(self.constants), dict(self.sets))


def _ids(table: str, name: object, ids: Collection[object]) -> frozenset[str]:
    """The ``ids`` bound to ``name`` in ``table``, else a ValueError naming both."""
    try:
        if not isinstance(name, str):
            raise ValueError("a name must be a string")
        if isinstance(ids, (str, Mapping)) or not isinstance(ids, Collection):
            raise ValueError(f"a {type(ids).__name__} is not a collection of ids")
        for vid in ids:
            _check_id(vid)
    except ValueError as exc:
        raise ValueError(f"{table}[{name!r}]: {exc}") from None
    return frozenset(ids)


@dataclass(frozen=True)
class BoundPolicy:
    """A parsed policy together with its name-resolution table.

    ``constants`` and ``sets`` hold the resolved names, read-only from
    ``bind``; the unresolved remainder is kept so evaluation can report it
    (unresolved names make the atoms that mention them false).
    """

    ast: Policy
    constants: Mapping[str, str]
    sets: Mapping[str, frozenset[str]]
    unresolved_constants: tuple[str, ...]
    unresolved_sets: tuple[str, ...]

    def __reduce__(self):  # copied and pickled by binding the ast to its tables again
        return bind, (self.ast, Environment(self.constants, self.sets))

    @property
    def unresolved(self) -> tuple[str, ...]:
        """All unresolved names, sorted."""
        return tuple(sorted((*self.unresolved_constants, *self.unresolved_sets)))


def referenced_names(ast: Policy) -> tuple[set[str], set[str]]:
    """Return the (constant names, set names) referenced by ``ast``."""
    constants: set[str] = set()
    sets: set[str] = set()
    stack = [ast]
    while stack:
        node = stack.pop()
        if isinstance(node, (Exists, Forall)):
            stack.append(node.body)
        elif isinstance(node, (And, Or, Implies)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, EdgeAtom):
            for term in (node.source, node.target):
                if isinstance(term, ConstRef):
                    constants.add(term.name)
        elif isinstance(node, MemberAtom):
            if isinstance(node.term, ConstRef):
                constants.add(node.term.name)
            sets.add(node.set_name)
    return constants, sets


def bind(ast: Policy, env: Environment, strict: bool = False) -> BoundPolicy:
    """Resolve the constant and set names of ``ast`` against ``env``.

    Non-strict binding records unresolved names and leaves them to falsify
    the atoms that mention them at evaluation time; strict binding raises
    StrictBindingError instead. Nothing checks that a resolved vertex id
    exists in the graph evaluated: an edge atom naming an absent id is
    false, with no note, and a membership atom only compares ids.
    """
    constant_names, set_names = referenced_names(ast)
    constants = {n: env.constants[n] for n in constant_names if n in env.constants}
    sets = {n: env.sets[n] for n in set_names if n in env.sets}
    unresolved_constants = tuple(sorted(constant_names - constants.keys()))
    unresolved_sets = tuple(sorted(set_names - sets.keys()))
    if strict and (unresolved_constants or unresolved_sets):
        raise StrictBindingError((*unresolved_constants, *unresolved_sets))
    tables = MappingProxyType(constants), MappingProxyType(sets)  # read-only
    return BoundPolicy(ast, *tables, unresolved_constants, unresolved_sets)
