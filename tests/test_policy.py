"""Policy language: parsing, printing, scoping, binding."""

from __future__ import annotations

import copy
import functools
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from acdc_prov import policy
from acdc_prov.evaluator import evaluate
from acdc_prov.graph import RelationLabel, Sort
from acdc_prov.policy import (
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
    ParseError,
    ShadowingError,
    StrictBindingError,
    UnknownLabelError,
    UnknownSortError,
    Var,
    bind,
    parse_policy,
    pretty_print,
)
from acdc_prov.scenarios import corpus
from randgen import random_policy_ast


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_simple_existential():
    ast = parse_policy("exists k: key_entity . edge(Encapsulate, k, Used)")
    assert ast == Exists(
        "k",
        Sort.KEY_ENTITY,
        EdgeAtom(ConstRef("Encapsulate"), Var("k"), RelationLabel.USED),
    )


def test_parse_distinguishes_vars_from_constants():
    ast = parse_policy("exists k: key_entity . edge(k, Bob, WasAttributedTo)")
    atom = ast.body
    assert atom.source == Var("k")
    assert atom.target == ConstRef("Bob")


def test_out_of_scope_name_parses_as_constant():
    ast = parse_policy(
        "(exists k: key_entity . edge(k, k, WasDerivedFrom)) and member(k, listed)"
    )
    assert ast.right == MemberAtom(ConstRef("k"), "listed")


def test_quantifier_body_extends_to_scope_end():
    ast = parse_policy("exists k: key_entity . member(k, a) and member(k, b)")
    assert isinstance(ast, Exists)
    assert isinstance(ast.body, And)


def test_implication_is_right_associative():
    ast = parse_policy("true => false => true")
    assert ast == Implies(Const(True), Implies(Const(False), Const(True)))


def test_and_binds_tighter_than_or():
    ast = parse_policy("true and false or true")
    assert ast == Or(And(Const(True), Const(False)), Const(True))


def test_not_binds_tighter_than_and():
    ast = parse_policy("not true and false")
    assert ast == And(Not(Const(True)), Const(False))


def test_parentheses_override_precedence():
    ast = parse_policy("true and (false or true)")
    assert ast == And(Const(True), Or(Const(False), Const(True)))


def test_comments_and_whitespace_are_ignored():
    ast = parse_policy(
        """
        # the owner's key must have been used
        exists k: key_entity .
            edge(Encapsulate, k, Used)   # trailing note
        """
    )
    assert isinstance(ast, Exists)


def test_nested_quantifiers():
    ast = parse_policy(
        "forall k: key_entity . exists n: node_agent . edge(k, n, WasAttributedTo)"
    )
    assert isinstance(ast, Forall)
    assert isinstance(ast.body, Exists)


def test_member_atom():
    ast = parse_policy("exists b: account_agent . member(b, blacklist)")
    assert ast.body == MemberAtom(Var("b"), "blacklist")


def test_all_nine_sorts_parse():
    for sort in Sort:
        ast = parse_policy(f"exists x: {sort.value} . true")
        assert ast.sort is sort


# ---------------------------------------------------------------------------
# parse errors
# ---------------------------------------------------------------------------


def test_shadowing_is_rejected():
    with pytest.raises(ShadowingError) as err:
        parse_policy("exists k: key_entity . exists k: data_entity . true")
    assert err.value.line == 1
    assert err.value.column == 31


def test_shadowing_allows_sequential_reuse():
    # The same name in two sibling scopes is not shadowing.
    ast = parse_policy(
        "(exists k: key_entity . member(k, s)) and (exists k: data_entity . member(k, s))"
    )
    assert isinstance(ast.left, Exists) and isinstance(ast.right, Exists)


def test_unknown_label_is_rejected_with_position():
    with pytest.raises(UnknownLabelError) as err:
        parse_policy("exists k: key_entity . edge(a, k, Generated)")
    assert err.value.line == 1
    assert err.value.column == 35
    assert "Generated" in str(err.value)


def test_unknown_sort_is_rejected():
    with pytest.raises(UnknownSortError) as err:
        parse_policy("exists k: secret_entity . true")
    assert "secret_entity" in str(err.value)
    assert "key_entity" in err.value.expected


def test_truncated_input_reports_expected_tokens():
    with pytest.raises(ParseError) as err:
        parse_policy("exists k: key_entity .")
    assert err.value.line == 1
    assert err.value.expected


def test_trailing_input_is_rejected():
    with pytest.raises(ParseError):
        parse_policy("true true")


def test_unexpected_character_is_rejected():
    with pytest.raises(ParseError) as err:
        parse_policy("exists k: key_entity . edge(k; k, Used)")
    assert err.value.column == 30


def test_empty_input_is_rejected():
    with pytest.raises(ParseError):
        parse_policy("   # only a comment\n")


def test_keyword_cannot_be_a_variable():
    with pytest.raises(ParseError):
        parse_policy("exists edge: key_entity . true")


def test_error_position_spans_lines():
    with pytest.raises(UnknownLabelError) as err:
        parse_policy("exists k: key_entity .\n  edge(k, k, Madeup)")
    assert err.value.line == 2


# Each opener adds one nesting level; "mixed" cycles through all three in
# an order the grammar accepts.
_OPENERS = {
    "parentheses": lambda i: "(",
    "nots": lambda i: "not ",
    "quantifiers": lambda i: f"exists x{i}: vertex . ",
    "mixed": lambda i: ("(", f"forall x{i}: vertex . ", "not ")[i % 3],
}


def _nested(kind: str, depth: int) -> tuple[str, int]:
    """A policy nested ``depth`` levels deep, and the column of its last opener."""
    openers = [_OPENERS[kind](i) for i in range(depth)]
    closers = ")" * openers.count("(")
    return "".join(openers) + "true" + closers, len("".join(openers[:-1])) + 1


@pytest.mark.parametrize("kind", _OPENERS)
def test_nesting_up_to_the_limit_parses(kind):
    text, _ = _nested(kind, 100)
    ast = parse_policy(text)
    assert parse_policy(pretty_print(ast)) == ast


@pytest.mark.parametrize("depth", [101, 3000])
@pytest.mark.parametrize("kind", _OPENERS)
def test_nesting_past_the_limit_is_a_parse_error(kind, depth):
    text, _ = _nested(kind, depth)
    _, column = _nested(kind, 101)
    with pytest.raises(ParseError, match="nested deeper than 100 levels") as err:
        parse_policy(text)
    assert (err.value.line, err.value.column) == (1, column)


def _random_levels(rng: random.Random, count: int) -> list[tuple[str, str, str]]:
    """``count`` nesting levels, outermost first, as (text before the opener,
    the opener, text after the closer): a parenthesis, ``not`` or quantifier,
    where a parenthesis or ``not`` may follow an operand and a connective, a
    parenthesis may be followed by one, and no quantifier follows a ``not``."""
    blank = lambda: rng.choice((" ", " ", "\n", "\n  "))
    atom = lambda i: rng.choice(
        ("true", "false", f"edge(x{rng.randrange(i + 1)}, c,{blank()}Used)", f"member(x{i}, s)")
    )
    connective = lambda: rng.choice((" and", " or", " =>")) + blank()
    levels = []
    for i in range(count):
        after_not = bool(levels) and levels[-1][1].startswith("not")
        kinds = ("(", "not") if after_not else ("(", "not", "exists", "forall")
        kind = rng.choice(kinds)
        before = ""
        if kind in ("(", "not") and not after_not and rng.random() < 0.3:
            before = atom(i) + connective()
        if kind == "(":
            after = ")" + (connective() + atom(i) if rng.random() < 0.3 else "")
            levels.append((before, "(", after))
        elif kind == "not":
            levels.append((before, "not" + blank(), ""))
        else:
            sort = rng.choice(list(Sort)).value
            levels.append((before, f"{kind} x{i}: {sort} .{blank()}", ""))
    return levels


def _deep_text(levels: list[tuple[str, str, str]]) -> tuple[str, tuple[int, int]]:
    """The policy ``levels`` nest, and the line and column of its last opener."""
    prefix = "".join(before + opener for before, opener, _ in levels[:-1]) + levels[-1][0]
    line = prefix.count("\n") + 1
    column = len(prefix) - prefix.rfind("\n")
    suffix = "".join(after for _, _, after in reversed(levels))
    return prefix + levels[-1][1] + "member(c, s)" + suffix, (line, column)


@pytest.mark.parametrize("seed", range(25))
def test_random_policies_at_the_nesting_limit_round_trip(seed):
    rng = random.Random(seed)
    levels = _random_levels(rng, 101)
    for depth in (rng.randint(90, 99), 100):
        ast = parse_policy(_deep_text(levels[:depth])[0])
        assert parse_policy(pretty_print(ast)) == ast
    text, position = _deep_text(levels)
    with pytest.raises(ParseError, match="nested deeper than 100 levels") as err:
        parse_policy(text)
    assert (err.value.line, err.value.column) == position


def _fold_right(kind, operands: list):
    return functools.reduce(lambda right, left: kind(left, right), reversed(operands))


def _right_spine(node, kind) -> list:
    """The operands along the right spine of ``kind`` nodes, in order,
    gathered with a loop: a 5000-deep AST is too deep to compare with ==."""
    operands = []
    while isinstance(node, kind):
        operands.append(node.left)
        node = node.right
    return operands + [node]


def test_fifty_arrows_parse_to_the_right_nested_chain():
    atoms = [f"edge(c{i}, d{i}, Used)" for i in range(51)]
    expected = _fold_right(
        Implies,
        [EdgeAtom(ConstRef(f"c{i}"), ConstRef(f"d{i}"), RelationLabel.USED) for i in range(51)],
    )
    assert parse_policy(" => ".join(atoms)) == expected


def test_5000_arrows_parse_without_recursion():
    ast = parse_policy("true" + " => true" * 5000)
    assert _right_spine(ast, Implies) == [Const(True)] * 5001


@pytest.mark.parametrize(
    "text, position",
    [
        ("true =>", (1, 8)),
        ("true => => true", (1, 9)),
        ("true => exists x: vertex . true", (1, 9)),
        ("(true => true", (1, 14)),
        ("true => true)", (1, 13)),
        ("=> true", (1, 1)),
        ("true =>\n  false =>\n =>", (3, 2)),
    ],
)
def test_implication_parse_errors_keep_their_positions(text, position):
    with pytest.raises(ParseError) as err:
        parse_policy(text)
    assert (err.value.line, err.value.column) == position


# ---------------------------------------------------------------------------
# the character-loop lexer and per-level parse methods, kept as the oracle
# ---------------------------------------------------------------------------


def _oracle_tokenize(text: str) -> list:
    tokens = []
    line, column = 1, 1
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            column = 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch == "#":
            while i < length and text[i] != "\n":
                i += 1
            continue
        if ch in "(),:.":
            tokens.append(policy._Token(ch, ch, line, column))
            i += 1
            column += 1
            continue
        if text.startswith("=>", i):
            tokens.append(policy._Token("=>", "=>", line, column))
            i += 2
            column += 2
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < length and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = word if word in policy._KEYWORDS else "ident"
            tokens.append(policy._Token(kind, word, line, column))
            column += i - start
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(policy._Token("eof", "", line, column))
    return tokens


class _OracleParser(policy._Parser):
    def expr(self):
        if self.current.kind in ("exists", "forall"):
            return self.quantifier()
        return self.implication()

    def implication(self):
        operands = [self.disjunction()]
        while self.current.kind == "=>":
            self.eat("=>")
            operands.append(self.disjunction())
        node = operands.pop()
        while operands:
            node = Implies(operands.pop(), node)
        return node

    def disjunction(self):
        node = self.conjunction()
        while self.current.kind == "or":
            self.eat("or")
            node = Or(node, self.conjunction())
        return node

    def conjunction(self):
        node = self.unary()
        while self.current.kind == "and":
            self.eat("and")
            node = And(node, self.unary())
        return node


def oracle_parse(text: str):
    return _OracleParser(_oracle_tokenize(text)).parse()


def outcome(parse, text: str):
    """The AST ``parse`` makes of ``text``, or its error's class, message,
    position and expected set."""
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.column, exc.expected


# Words, punctuation, blanks and characters that are letters, digits or
# numerals in some script but not in others: 'é' is a letter, '²' and 'Ⅻ'
# are numerals a word may contain but not start with, '٠' is a decimal
# digit, and NBSP and the BOM are neither blanks nor word characters.
_DIFF_TOKENS = (
    "exists", "forall", "and", "or", "not", "true", "false", "edge", "member",
    "(", ")", ",", ":", ".", "=>", "=", ">", "=>>", "==>", "#", "# note", "\n",
    "\r\n", "\r", "\t", " ", "\xa0", "\ufeff", "é", "²", "٠", "Ⅻ", "x²", "aé",
    "Ⅻa", "_", "_x", "1", "1a", "٠x", "x1", "@", ";", "x", "k", "Bob", "m1",
    *(label.value for label in RelationLabel),
    *(sort.value for sort in Sort),
)  # fmt: skip
_SEPARATORS = ("", " ", " ", "\n", "\r\n", "\t")


def _random_token_stream(rng: random.Random) -> str:
    text = "".join(
        rng.choice(_DIFF_TOKENS) + rng.choice(_SEPARATORS) for _ in range(rng.randint(0, 30))
    )
    return text + "# end of input" if rng.random() < 0.2 else text


def _edited(rng: random.Random, text: str) -> str:
    """``text`` with up to three edits, each deleting a character, replacing
    one with a token or inserting a token."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        filler = rng.choice(("", rng.choice(_DIFF_TOKENS)))
        text = text[:i] + filler + text[i + rng.randint(0, 1) :]
    return text


def _differential_texts() -> list[str]:
    rng = random.Random(20240611)
    texts = [entry.source for entry in corpus()]
    texts += [_random_token_stream(rng) for _ in range(8000)]
    for _ in range(4000):
        text = pretty_print(random_policy_ast(rng, max_quantifiers=4, max_depth=5))
        texts.append(_edited(rng, text) if rng.random() < 0.6 else text)
    return texts


def test_lexer_and_parser_agree_with_the_oracle():
    """Same AST, or same error class, message, position and expected set,
    on the corpus, random token streams and (edited) printed ASTs."""
    texts = _differential_texts()
    outcomes = [(outcome(parse_policy, t), outcome(oracle_parse, t)) for t in texts]
    differ = [t for t, (new, old) in zip(texts, outcomes) if new != old]
    assert not differ, differ[:5]
    errors = sum(isinstance(new, tuple) for new, _ in outcomes)
    assert 0.3 * len(texts) < errors < 0.9 * len(texts)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("1a", "unexpected character '1'", (1, 1)),
        ("x and ²", "unexpected character '²'", (1, 7)),
        ("x\xa0and y", "unexpected character '\\xa0'", (1, 2)),
        ("\ufefftrue", "unexpected character '\\ufeff'", (1, 1)),
        ("true =\n> false", "unexpected character '='", (1, 6)),
        ("true and # c", "expected an atom", (1, 10)),
        ("true and\r\n  # c\n", "expected an atom", (3, 1)),
    ],
)
def test_lexer_edge_cases_keep_their_errors(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_policy(text)
    assert str(err.value).startswith(message)
    assert (err.value.line, err.value.column) == position
    assert outcome(oracle_parse, text) == outcome(parse_policy, text)


def test_words_may_hold_numerals_and_letters_of_any_script():
    ast = parse_policy("member(xé²Ⅻ٠, _s)")
    assert ast == MemberAtom(ConstRef("xé²Ⅻ٠"), "_s")


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def test_pretty_print_simple_policy():
    text = "exists k: key_entity . edge(Encapsulate, k, Used)"
    assert pretty_print(parse_policy(text)) == text


def test_pretty_print_uses_minimal_parentheses():
    ast = And(Const(True), Or(Const(False), Const(True)))
    assert pretty_print(ast) == "true and (false or true)"
    ast = Or(And(Const(True), Const(False)), Const(True))
    assert pretty_print(ast) == "true and false or true"


def test_pretty_print_parenthesises_quantifier_operands():
    ast = And(Exists("k", Sort.KEY_ENTITY, Const(True)), Const(False))
    assert pretty_print(ast) == "(exists k: key_entity . true) and false"


def test_pretty_print_implication_chains():
    ast = Implies(Const(True), Implies(Const(False), Const(True)))
    assert pretty_print(ast) == "true => false => true"
    ast = Implies(Implies(Const(True), Const(False)), Const(True))
    assert pretty_print(ast) == "(true => false) => true"


def test_pretty_print_right_nested_connectives():
    ast = And(Const(True), And(Const(False), Const(True)))
    assert pretty_print(ast) == "true and (false and true)"
    ast = And(And(Const(True), Const(False)), Const(True))
    assert pretty_print(ast) == "true and false and true"


def test_pretty_print_negation():
    ast = Not(And(Const(True), Const(False)))
    assert pretty_print(ast) == "not (true and false)"
    ast = And(Not(Const(True)), Const(False))
    assert pretty_print(ast) == "not true and false"


def test_corpus_style_policy_round_trips():
    text = (
        "forall k: key_entity . edge(Encapsulate, k, Used) => "
        "(edge(k, Bob, WasAttributedTo) or (exists n: node_agent . "
        "edge(k, n, WasAttributedTo) and edge(n, Bob, ActedOnBehalfOf)))"
    )
    ast = parse_policy(text)
    assert parse_policy(pretty_print(ast)) == ast


# The canonical text of each corpus policy, as the recursive printer
# rendered it before spines were printed with a loop.
_CORPUS_TEXTS = {
    "p1": "exists k: key_entity . edge(Encapsulate, k, Used)",
    "p2": "exists d: data_entity . edge(Encapsulate, d, Used)",
    "p3": "forall k: key_entity . edge(Encapsulate, k, Used) => edge(k, Bob, WasAttributedTo) or (exists n: node_agent . edge(k, n, WasAttributedTo) and edge(n, Bob, ActedOnBehalfOf))",
    "p4": "forall d: data_entity . edge(Encapsulate, d, Used) => edge(d, Bob, WasAttributedTo)",
    "p5": "exists d: data_entity . edge(SecureCapsule, d, WasDerivedFrom)",
    "p6": "exists k: key_entity . edge(SecureCapsule, k, WasDerivedFrom)",
    "p7": "forall k: key_entity . edge(SecureCapsule, k, WasDerivedFrom) => edge(k, Bob, WasAttributedTo) or (exists n: node_agent . edge(k, n, WasAttributedTo) and edge(n, Bob, ActedOnBehalfOf))",
    "p8": "forall d: data_entity . edge(SecureCapsule, d, WasDerivedFrom) => edge(d, Bob, WasAttributedTo)",
    "p9": "edge(SecureCapsule, EncapsulateContract, WasDerivedFrom)",
    "encapsulate_all": "(exists k: key_entity . edge(Encapsulate, k, Used)) and (exists d: data_entity . edge(Encapsulate, d, Used)) and (forall k: key_entity . edge(Encapsulate, k, Used) => edge(k, Bob, WasAttributedTo) or (exists n: node_agent . edge(k, n, WasAttributedTo) and edge(n, Bob, ActedOnBehalfOf))) and (forall d: data_entity . edge(Encapsulate, d, Used) => edge(d, Bob, WasAttributedTo)) and (exists d: data_entity . edge(SecureCapsule, d, WasDerivedFrom)) and (exists k: key_entity . edge(SecureCapsule, k, WasDerivedFrom)) and (forall k: key_entity . edge(SecureCapsule, k, WasDerivedFrom) => edge(k, Bob, WasAttributedTo) or (exists n: node_agent . edge(k, n, WasAttributedTo) and edge(n, Bob, ActedOnBehalfOf))) and (forall d: data_entity . edge(SecureCapsule, d, WasDerivedFrom) => edge(d, Bob, WasAttributedTo)) and edge(SecureCapsule, EncapsulateContract, WasDerivedFrom)",
    "receipt_attributed": "exists d: data_entity . exists a: activity . exists v: account_agent . edge(a, PrintReceiptContract, Used) and edge(d, a, WasGeneratedBy) and edge(d, PrintReceiptContract, WasDerivedFrom) and edge(d, v, WasAttributedTo)",
    "blacklisted_actor": "exists b: account_agent . member(b, blacklist) and (exists n: node_agent . edge(n, b, ActedOnBehalfOf))",
    "keygen_done": "exists k: key_entity . exists a: activity . exists v: account_agent . edge(a, KeyGenContract, Used) and edge(k, a, WasGeneratedBy) and edge(k, KeyGenContract, WasDerivedFrom) and edge(k, v, WasAttributedTo)",
    "select_done": "exists d: data_entity . exists a: activity . exists v: account_agent . edge(a, SelectContract, Used) and edge(d, a, WasGeneratedBy) and edge(d, SelectContract, WasDerivedFrom) and edge(d, v, WasAttributedTo)",
    "print_done": "exists d: data_entity . exists a: activity . exists v: account_agent . edge(a, PrintContract, Used) and edge(d, a, WasGeneratedBy) and edge(d, PrintContract, WasDerivedFrom) and edge(d, v, WasAttributedTo)",
    "verify_done": "exists d: data_entity . exists a: activity . exists v: account_agent . edge(a, VerifyContract, Used) and edge(d, a, WasGeneratedBy) and edge(d, VerifyContract, WasDerivedFrom) and edge(d, v, WasAttributedTo)",
    "count_done": "exists d: data_entity . exists a: activity . exists n: node_agent . exists v: account_agent . edge(a, CountContract, Used) and edge(d, a, WasGeneratedBy) and edge(d, CountContract, WasDerivedFrom) and edge(d, n, WasAttributedTo) and edge(n, v, ActedOnBehalfOf)",
    "print_receipt_done": "exists d: data_entity . exists a: activity . exists v: account_agent . edge(a, PrintReceiptContract, Used) and edge(d, a, WasGeneratedBy) and edge(d, PrintReceiptContract, WasDerivedFrom) and edge(d, v, WasAttributedTo)",
}


def test_pretty_print_of_the_corpus_is_unchanged():
    printed = {entry.name: pretty_print(parse_policy(entry.source)) for entry in corpus()}
    assert printed == _CORPUS_TEXTS


_ATOMS = [f"edge(c{i}, d{i}, Used)" for i in range(50)]
_ATOM_ASTS = [
    EdgeAtom(ConstRef(f"c{i}"), ConstRef(f"d{i}"), RelationLabel.USED) for i in range(50)
]




# 50-operand spines nested to either side, and their text as the recursive
# printer rendered it: a left operand needs parentheses under => only, a
# right operand under "and" and "or" only.
_SPINE_TEXTS = {
    (And, "left"): " and ".join(_ATOMS),
    (And, "right"): " and (".join(_ATOMS[:-1]) + " and " + _ATOMS[-1] + ")" * 48,
    (Or, "left"): " or ".join(_ATOMS),
    (Or, "right"): " or (".join(_ATOMS[:-1]) + " or " + _ATOMS[-1] + ")" * 48,
    (Implies, "left"): "(" * 48 + _ATOMS[0] + " => " + ") => ".join(_ATOMS[1:]),
    (Implies, "right"): " => ".join(_ATOMS),
}


@pytest.mark.parametrize(
    "kind, side", _SPINE_TEXTS, ids=[f"{k.__name__}-{s}" for k, s in _SPINE_TEXTS]
)
def test_pretty_print_of_50_deep_spines_is_unchanged(kind, side):
    ast = functools.reduce(kind, _ATOM_ASTS) if side == "left" else _fold_right(kind, _ATOM_ASTS)
    assert pretty_print(ast) == _SPINE_TEXTS[(kind, side)]


@pytest.mark.parametrize("keyword", ["and", "or", "=>"])
def test_chains_of_5000_operands_round_trip(keyword):
    text = f" {keyword} ".join(["true"] * 5000)
    ast = parse_policy(text)
    assert pretty_print(ast) == text
    assert pretty_print(parse_policy(pretty_print(ast))) == text


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pretty_print_round_trips_random_asts(seed):
    ast = random_policy_ast(random.Random(seed), max_quantifiers=4, max_depth=5)
    assert parse_policy(pretty_print(ast)) == ast


# ---------------------------------------------------------------------------
# binding
# ---------------------------------------------------------------------------


def test_bind_resolves_constants_and_sets():
    ast = parse_policy(
        "exists b: account_agent . member(b, blacklist) and edge(b, Root, ActedOnBehalfOf)"
    )
    env = Environment(
        constants={"Root": "r1", "Unused": "u1"},
        sets={"blacklist": {"b1", "b2"}},
    )
    bound = bind(ast, env)
    assert bound.constants == {"Root": "r1"}
    assert bound.sets == {"blacklist": frozenset({"b1", "b2"})}
    assert bound.unresolved == ()


def test_bind_records_unresolved_names():
    ast = parse_policy("edge(SecureCapsule, EncapsulateContract, WasDerivedFrom)")
    bound = bind(ast, Environment())
    assert bound.unresolved_constants == ("EncapsulateContract", "SecureCapsule")
    assert bound.unresolved == ("EncapsulateContract", "SecureCapsule")


def test_bind_strict_raises_on_unresolved():
    ast = parse_policy("exists k: key_entity . edge(Encapsulate, k, Used)")
    with pytest.raises(StrictBindingError) as err:
        bind(ast, Environment(), strict=True)
    assert err.value.unresolved == ("Encapsulate",)


def test_bind_strict_passes_when_fully_resolved():
    ast = parse_policy("exists k: key_entity . edge(Encapsulate, k, Used)")
    bound = bind(ast, Environment(constants={"Encapsulate": "Encapsulate"}), strict=True)
    assert isinstance(bound, BoundPolicy)


def test_bind_does_not_check_vertex_existence():
    ast = parse_policy("edge(A, B, Used)")
    bound = bind(ast, Environment(constants={"A": "nowhere", "B": "also-nowhere"}))
    assert bound.unresolved == ()


def test_environment_normalises_sets():
    env = Environment(sets={"s": {"a", "b"}})
    assert isinstance(env.sets["s"], frozenset)


@pytest.mark.parametrize(
    "constants, sets, message",
    [
        ({"Bob": "\ud800"}, {}, "constants['Bob']: 'utf-8' codec can't encode"),
        ({"Bob": ""}, {}, "constants['Bob']: vertex id must be a non-empty string"),
        ({"Bob": 7}, {}, "constants['Bob']: vertex id must be a non-empty string"),
        ({7: "Bob"}, {}, "constants[7]: a name must be a string"),
        ({}, {"s": "Bob"}, "sets['s']: a str is not a collection of ids"),
        ({}, {"s": {"Bob": "x"}}, "sets['s']: a dict is not a collection of ids"),
        ({}, {"s": 7}, "sets['s']: a int is not a collection of ids"),
        ({}, {"s": ["Bob", None]}, "sets['s']: vertex id must be a non-empty string"),
        ({}, {"s": ["\udfff"]}, "sets['s']: 'utf-8' codec can't encode"),
        ({}, {("s",): ["Bob"]}, "sets[('s',)]: a name must be a string"),
    ],
    ids=[
        "surrogate-id", "empty-id", "int-id", "int-name", "bare-string-set",
        "mapping-set", "int-set", "none-member", "surrogate-member", "tuple-set-name",
    ],
)
def test_an_environment_that_breaks_the_binding_rule_is_refused(constants, sets, message):
    # Ids keep the vertex id rule, so a bound name can name a vertex and
    # the environment saves; a bare string is not read as a set of letters.
    with pytest.raises(ValueError) as info:
        Environment(constants=constants, sets=sets)
    assert str(info.value).startswith(message)


def test_an_environment_keeps_read_only_copies():
    constants, members = {"Bob": "Bob"}, {"Bob"}
    env = Environment(constants=constants, sets={"blacklist": members})
    constants["Bob"] = "Eve"
    members.add("Eve")
    assert env.constants == {"Bob": "Bob"}
    assert env.sets == {"blacklist": frozenset({"Bob"})}
    with pytest.raises(TypeError):
        env.constants["Bob"] = "Eve"
    with pytest.raises(TypeError):
        env.sets["blacklist"] = frozenset({"Eve"})


def test_bind_hands_out_read_only_tables(encapsulation):
    # A verdict depends only on the policy and the graph: the tables that
    # evaluation reads cannot be changed after binding.
    ast = parse_policy("edge(sgx, Bob, ActedOnBehalfOf) and member(Bob, listed)")
    bound = bind(ast, Environment({"sgx": "sgx", "Bob": "Bob"}, {"listed": ["Bob"]}))
    assert evaluate(bound, encapsulation).satisfied
    with pytest.raises(TypeError):
        bound.constants["Bob"] = "Mallory"
    with pytest.raises(TypeError):
        bound.sets["listed"] = frozenset()
    assert evaluate(bound, encapsulation).satisfied


def test_environments_and_bound_policies_copy_and_pickle():
    env = Environment({"Root": "r1", "Bob": "Bob"}, {"blacklist": {"b1", "b2"}, "none": ()})
    ast = parse_policy("member(Bob, blacklist) or edge(Bob, Root, Used) or member(Bob, gone)")
    bound = bind(ast, env)
    for original in (env, bound):
        for twin in (
            copy.copy(original),
            copy.deepcopy(original),
            pickle.loads(pickle.dumps(original)),
        ):
            assert twin == original
            with pytest.raises(TypeError):
                twin.constants["Bob"] = "Eve"
    assert pickle.loads(pickle.dumps(bound)).unresolved == ("gone",)
