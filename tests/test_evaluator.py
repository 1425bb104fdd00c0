"""Evaluator semantics: both routes, witnesses, diagnostics, conjunction."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from acdc_prov.evaluator import (
    ConflictingBindingError,
    EmptyPolicyListError,
    InvalidGraphError,
    Verdict,
    conjoin,
    evaluate,
    evaluate_naive,
)
from acdc_prov import evaluator
from acdc_prov.graph import (
    LabeledEdge,
    MissingVertexError,
    ProvGraph,
    RelationLabel,
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
    Not,
    Sort,
    Var,
    bind,
    parse_policy,
    pretty_print,
)
from acdc_prov.scenarios import corpus, corpus_by_name, corpus_graphs
from acdc_prov.storage import load_environment, load_graph, load_graph_unchecked, save_graph
from randgen import (
    SORTS,
    VAR_NAMES,
    random_environment,
    random_graph,
    random_large_graph,
    random_policy_ast,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _bound(entries, name, env=None):
    return entries[name].bound(env)


# ---------------------------------------------------------------------------
# core semantics
# ---------------------------------------------------------------------------


def test_p1_satisfied_on_encapsulation(entries, encapsulation):
    verdict = evaluate(_bound(entries, "p1"), encapsulation)
    assert verdict.satisfied
    assert verdict.witness == {"k": "Key_Bob"}
    assert verdict.counterexample is None
    assert verdict.diagnostics == ()


def test_existential_is_false_on_empty_graph(entries):
    verdict = evaluate(_bound(entries, "p1"), ProvGraph())
    assert not verdict.satisfied
    assert verdict.witness is None
    assert verdict.counterexample is None


def test_universal_is_vacuously_true_on_empty_graph(entries):
    verdict = evaluate(_bound(entries, "p3"), ProvGraph())
    assert verdict.satisfied
    assert verdict.witness is None


def test_member_atom_consults_the_bound_set(encapsulation):
    ast = parse_policy("exists b: account_agent . member(b, listed)")
    hit = bind(ast, Environment(sets={"listed": {"Bob"}}))
    miss = bind(ast, Environment(sets={"listed": frozenset()}))
    assert evaluate(hit, encapsulation).witness == {"b": "Bob"}
    assert not evaluate(miss, encapsulation).satisfied


def test_unresolved_constant_falsifies_atom_with_diagnostic(entries, encapsulation):
    bound = bind(parse_policy(entries["p9"].source), Environment())
    verdict = evaluate(bound, encapsulation)
    assert not verdict.satisfied
    assert any("SecureCapsule" in note for note in verdict.diagnostics)


def test_unresolved_set_falsifies_membership_with_diagnostic(entries, encapsulation):
    bound = bind(parse_policy(entries["blacklisted_actor"].source), Environment())
    verdict = evaluate(bound, encapsulation)
    assert not verdict.satisfied
    assert any("blacklist" in note for note in verdict.diagnostics)


def test_short_circuit_skips_diagnostics_for_unevaluated_branches():
    graph = ProvGraph()
    bound = bind(parse_policy("true or edge(Ghost, Ghost2, Used)"), Environment())
    verdict = evaluate(bound, graph)
    assert verdict.satisfied
    assert verdict.diagnostics == ()


def test_false_antecedent_satisfies_implication_but_keeps_diagnostic():
    graph = ProvGraph()
    bound = bind(parse_policy("edge(Ghost, Ghost2, Used) => false"), Environment())
    verdict = evaluate(bound, graph)
    assert verdict.satisfied
    assert any("Ghost" in note for note in verdict.diagnostics)


def test_diagnostics_are_deduplicated(encapsulation):
    bound = bind(
        parse_policy("forall k: key_entity . edge(k, Ghost, WasAttributedTo)"),
        Environment(),
    )
    verdict = evaluate(bound, encapsulation)
    notes = [note for note in verdict.diagnostics if "Ghost" in note]
    assert len(notes) == 1


# ---------------------------------------------------------------------------
# witnesses and counterexamples
# ---------------------------------------------------------------------------


def test_witness_covers_the_leading_existential_chain(encapsulation):
    bound = bind(
        parse_policy("exists k: key_entity . exists d: data_entity . true"),
        Environment(),
    )
    verdict = evaluate(bound, encapsulation)
    assert verdict.witness == {"k": "Key_Bob", "d": "Plaintext"}


def test_witness_is_lexicographically_first(encapsulation):
    bound = bind(
        parse_policy("exists k: key_entity . edge(k, Bob, WasAttributedTo)"),
        Environment(constants={"Bob": "Bob"}),
    )
    # Key_Bob and Key_SGX both satisfy nothing here except Key_Bob; widen to a
    # tautological body so both keys qualify and the first one must be chosen.
    assert evaluate(bound, encapsulation).witness == {"k": "Key_Bob"}
    tautology = bind(parse_policy("exists k: key_entity . true"), Environment())
    assert evaluate(tautology, encapsulation).witness == {"k": "Key_Bob"}


def test_witness_is_sound(entries, encapsulation):
    verdict = evaluate(_bound(entries, "p1"), encapsulation)
    assert encapsulation.has_edge("Encapsulate", verdict.witness["k"], RelationLabel.USED)


def test_no_witness_when_root_is_not_existential(entries, encapsulation):
    assert evaluate(_bound(entries, "p9"), encapsulation).satisfied
    assert evaluate(_bound(entries, "p9"), encapsulation).witness is None
    conj = conjoin([_bound(entries, "p1"), _bound(entries, "p2")])
    verdict = evaluate(conj, encapsulation)
    assert verdict.satisfied and verdict.witness is None


def test_counterexample_for_failed_universal(entries, tampered_encapsulation):
    verdict = evaluate(_bound(entries, "p3"), tampered_encapsulation)
    assert not verdict.satisfied
    assert verdict.counterexample == {"k": "Key_Mallory"}
    verdict = evaluate(_bound(entries, "p4"), tampered_encapsulation)
    assert verdict.counterexample == {"d": "Plaintext_Mallory"}


def test_no_counterexample_when_root_is_not_universal(entries):
    verdict = evaluate(_bound(entries, "p1"), ProvGraph())
    assert not verdict.satisfied
    assert verdict.counterexample is None


# ---------------------------------------------------------------------------
# graph validation at the evaluation boundary
# ---------------------------------------------------------------------------


def _badly_typed_graph() -> ProvGraph:
    vertices = {
        "a": Vertex("a", VertexKind.NODE_AGENT),
        "b": Vertex("b", VertexKind.NODE_AGENT),
    }
    return ProvGraph(vertices, frozenset({LabeledEdge("a", "b", RelationLabel.USED)}))


def _cyclic_graph() -> ProvGraph:
    vertices = {
        "x": Vertex("x", VertexKind.DATA_ENTITY),
        "y": Vertex("y", VertexKind.DATA_ENTITY),
        "z": Vertex("z", VertexKind.DATA_ENTITY),
    }
    edges = frozenset(
        {
            LabeledEdge("x", "y", RelationLabel.WAS_DERIVED_FROM),
            LabeledEdge("y", "x", RelationLabel.WAS_DERIVED_FROM),
            LabeledEdge("z", "x", RelationLabel.WAS_DERIVED_FROM),
        }
    )
    return ProvGraph(vertices, edges)


@pytest.mark.parametrize("broken", [_badly_typed_graph, _cyclic_graph])
def test_both_routes_reject_invalid_graphs(entries, broken):
    bound = _bound(entries, "p1")
    with pytest.raises(InvalidGraphError):
        evaluate(bound, broken())
    with pytest.raises(InvalidGraphError):
        evaluate_naive(bound, broken())


def test_invalid_graph_error_carries_details(entries):
    with pytest.raises(InvalidGraphError) as err:
        evaluate(_bound(entries, "p1"), _cyclic_graph())
    assert err.value.cycles
    with pytest.raises(InvalidGraphError) as err:
        evaluate(_bound(entries, "p1"), _badly_typed_graph())
    assert err.value.violations


def test_a_graph_is_validated_once_across_evaluations(entries, alice_trace, validations):
    graph = ProvGraph(alice_trace.vertices, alice_trace.edges)  # not yet validated
    bound = _bound(entries, "receipt_attributed")
    verdicts = [evaluate(bound, graph) for _ in range(3)]
    reports, searches = validations
    assert len(reports) == 1 and reports[0] is graph
    assert searches == []  # an acyclic graph needs no cycle names
    assert verdicts[0] == verdicts[1] == verdicts[2]


@pytest.mark.parametrize(
    "load, expected",
    [(load_graph, 0), (load_graph_unchecked, 1)],  # load_graph checked it already
    ids=["load_graph", "load_graph_unchecked"],
)
def test_loaded_graphs_validate_only_when_unchecked(
    entries, alice_trace, validations, load, expected
):
    graph = load(save_graph(alice_trace))
    reports, searches = validations
    reports.clear()
    bound = _bound(entries, "receipt_attributed")
    verdicts = [evaluate(bound, graph) for _ in range(3)]
    assert len(reports) == expected and all(g is graph for g in reports)
    assert searches == []
    assert verdicts == [evaluate(bound, alice_trace)] * 3


@pytest.mark.parametrize("broken", [_badly_typed_graph, _cyclic_graph])
def test_invalid_graph_is_rejected_on_every_call(entries, broken, validations):
    graph, bound = broken(), _bound(entries, "p1")
    for _ in range(3):
        with pytest.raises(InvalidGraphError):
            evaluate(bound, graph)
    reports, searches = validations
    assert reports == [graph]
    # Kosaraju's search names cycles once, over the vertices on them only.
    assert searches == ([["x", "y"]] if broken is _cyclic_graph else [])


def test_dangling_edge_is_a_missing_vertex_everywhere(entries):
    # Direct construction skips the endpoint check; validation and
    # evaluation both name the missing endpoint, as inserting the edge would.
    vertices = {"a": Vertex("a", VertexKind.ACTIVITY)}
    graph = ProvGraph(vertices, {LabeledEdge("a", "zz", RelationLabel.USED)})
    checks = (
        graph.validate_typing,
        graph.validate_acyclic,
        lambda: evaluate(_bound(entries, "p1"), graph),
    )
    for check in checks:
        with pytest.raises(MissingVertexError) as err:
            check()
        assert str(err.value) == "edge endpoint 'zz' is not in the graph"


def test_unscoped_variable_is_an_error_on_both_routes(encapsulation):
    ast = EdgeAtom(Var("x"), ConstRef("Bob"), RelationLabel.WAS_ATTRIBUTED_TO)
    bound = bind(ast, Environment(constants={"Bob": "Bob"}))
    with pytest.raises(ValueError):
        evaluate(bound, encapsulation)
    with pytest.raises(ValueError):
        evaluate_naive(bound, encapsulation)


# ---------------------------------------------------------------------------
# the naive oracle agrees
# ---------------------------------------------------------------------------


def test_routes_agree_on_the_corpus(entries, encapsulation, tampered_encapsulation, alice_trace):
    for graph in (ProvGraph(), encapsulation, tampered_encapsulation, alice_trace):
        for entry in entries.values():
            bound = entry.bound()
            assert evaluate(bound, graph).satisfied == evaluate_naive(bound, graph)


@settings(deadline=None)
@given(SEEDS)
def test_routes_agree_on_random_inputs(seed):
    rng = random.Random(seed)
    graph = random_graph(rng)
    ast = random_policy_ast(rng)
    bound = bind(ast, random_environment(rng, graph))
    assert evaluate(bound, graph).satisfied == evaluate_naive(bound, graph)


@settings(deadline=None, max_examples=100)
@given(SEEDS)
def test_routes_agree_on_random_inputs_of_200_vertices(seed):
    rng = random.Random(seed)
    graph = random_large_graph(rng)
    ast = random_policy_ast(rng, max_quantifiers=2, max_depth=3)
    bound = bind(ast, random_environment(rng, graph))
    assert evaluate(bound, graph).satisfied == evaluate_naive(bound, graph)


def test_a_rebound_name_is_scoped_like_the_oracle(encapsulation):
    # The parser rejects rebinding a name in scope; an AST built directly
    # may do it, and then the inner quantifier's variable is the one seen
    # inside it and the outer one is seen again after it.
    rebound = Exists(
        "x",
        Sort.KEY_ENTITY,
        And(
            Exists("x", Sort.AGENT, Const(True)),
            EdgeAtom(ConstRef("Encapsulate"), Var("x"), RelationLabel.USED),
        ),
    )
    bound = bind(rebound, Environment(constants={"Encapsulate": "Encapsulate"}))
    verdict = evaluate(bound, encapsulation)
    assert verdict.satisfied and evaluate_naive(bound, encapsulation)
    assert verdict.witness == {"x": "Key_Bob"}


@settings(deadline=None)
@given(SEEDS)
def test_negation_duality(seed):
    rng = random.Random(seed)
    graph = random_graph(rng)
    ast = random_policy_ast(rng, max_quantifiers=2, max_depth=3)
    env = random_environment(rng, graph)
    direct = evaluate(bind(ast, env), graph).satisfied
    negated = evaluate(bind(Not(ast), env), graph).satisfied
    assert direct != negated


def _settling_assignment(bound, graph):
    """The expected (witness, counterexample) of ``bound`` on ``graph``,
    derived from their definition without ``evaluate``: the first
    assignment of the leading quantifier chain, in lexicographic order with
    the outermost variable slowest, whose body the naive oracle evaluates
    to the chain's settling value (true under ``exists``, false under
    ``forall``). The body is evaluated with the chain's variables turned
    into constants: printed, re-parsed and bound with the assignment added
    to the environment."""
    root = bound.ast
    names, sorts, body = [], [], root
    while isinstance(body, (Exists, Forall)) and type(body) is type(root):
        names.append(body.var)
        sorts.append(body.sort)
        body = body.body
    if not names:
        return None, None
    existential = isinstance(root, Exists)
    grounded = parse_policy(pretty_print(body))
    domains = [sorted(graph.vertices_of_sort(sort)) for sort in sorts]
    for values in itertools.product(*domains):
        assignment = dict(zip(names, values))
        env = Environment(
            constants={**bound.constants, **assignment}, sets=dict(bound.sets)
        )
        if evaluate_naive(bind(grounded, env), graph) == existential:
            return (assignment, None) if existential else (None, assignment)
    return None, None


def _assert_settled_by_definition(bound, graph):
    verdict = evaluate(bound, graph)
    witness, counterexample = _settling_assignment(bound, graph)
    assert verdict.satisfied == evaluate_naive(bound, graph)
    assert verdict.witness == witness
    assert verdict.counterexample == counterexample


def test_witnesses_and_counterexamples_follow_their_definition_on_the_corpus():
    for graph in corpus_graphs().values():
        for entry in corpus():
            _assert_settled_by_definition(entry.bound(), graph)


@settings(deadline=None, max_examples=100)
@given(SEEDS)
def test_witnesses_and_counterexamples_follow_their_definition_on_random_inputs(seed):
    rng = random.Random(seed)
    graph = random_graph(rng)
    names = VAR_NAMES[: rng.randint(1, 3)]
    ast = random_policy_ast(rng, max_quantifiers=1, max_depth=3, scope=names)
    quantifier = rng.choice((Exists, Forall))
    for name in reversed(names):
        ast = quantifier(name, rng.choice(SORTS), ast)
    _assert_settled_by_definition(bind(ast, random_environment(rng, graph)), graph)


# ---------------------------------------------------------------------------
# the leading chain as a loop: the search the plan's quantifiers replaced
# ---------------------------------------------------------------------------


def _chain_loop_verdict(bound, graph):
    """``evaluate`` with its leading quantifier chain run as a loop, as it
    was before the chain became part of the plan: the chain's variables
    take the plan's first slots, the body alone is compiled, and the
    product over the chain's domains is written into those slots one
    assignment at a time until the body returns the chain's settling
    value. That assignment is the witness or counterexample."""
    evaluator._require_valid(graph)
    plan = evaluator._Plan(bound, graph)
    names, domains, body = [], [], bound.ast
    while isinstance(body, (Exists, Forall)) and type(body) is type(bound.ast):
        names.append(body.var)
        domains.append(plan.domain(body.sort))
        body = body.body
    run = plan.compile(body, {name: plan.slot() for name in names})
    existential = isinstance(bound.ast, Exists)
    satisfied, settling = not existential, None
    slots, width = plan.slots, len(names)
    for values in itertools.product(*domains):  # one empty assignment if no chain
        slots[:width] = values
        if run() is existential:
            satisfied, settling = existential, dict(zip(names, values)) or None
            break
    return Verdict(
        satisfied=satisfied,
        witness=settling if satisfied else None,
        counterexample=None if satisfied else settling,
        diagnostics=tuple(plan.notes),
    )


def _outcome(route, bound, graph):
    try:
        return route(bound, graph)
    except ValueError as error:  # a variable outside every quantifier
        return type(error), str(error)


def _assert_same_as_the_chain_loop(bound, graph):
    expected = _outcome(_chain_loop_verdict, bound, graph)
    assert _outcome(evaluate, bound, graph) == expected


def test_the_chain_loop_agrees_on_the_corpus():
    for graph in corpus_graphs().values():
        for entry in corpus():
            _assert_same_as_the_chain_loop(entry.bound(), graph)


def test_the_chain_loop_agrees_on_random_inputs():
    outcomes = set()
    for seed in range(400):
        rng = random.Random(seed)
        graph = random_graph(rng)
        # The chain may bind a name twice; the body may also name "t",
        # which no quantifier binds.
        names = [rng.choice(VAR_NAMES[:3]) for _ in range(rng.randint(1, 3))]
        scope = (*dict.fromkeys(names), *(("t",) if rng.random() < 0.15 else ()))
        ast = random_policy_ast(rng, max_quantifiers=1, max_depth=3, scope=scope)
        quantifier = rng.choice((Exists, Forall))
        for name in reversed(names):
            ast = quantifier(name, rng.choice(SORTS), ast)
        bound = bind(ast, random_environment(rng, graph))
        _assert_same_as_the_chain_loop(bound, graph)
        verdict = _outcome(evaluate, bound, graph)
        if isinstance(verdict, tuple):
            outcomes.add("unbound variable")
        else:
            outcomes.add((quantifier, verdict.satisfied, bool(verdict.diagnostics)))
    # Every kind of outcome occurred, so none of them agreed vacuously.
    assert len(outcomes) == 9


def _assert_same_on_a_history(population, voters, owners, booth_policies, owner_policies):
    """Both routes on a seeded population history: each of
    ``booth_policies`` under the history's booth environment, each of
    ``owner_policies`` under every owner's."""
    history = population.build_history(random.Random(1), voters=voters, owners=owners)
    graph = load_graph(history.document())
    booth = load_environment(history.booth_environment())
    entries = corpus_by_name()
    for name in booth_policies:
        _assert_same_as_the_chain_loop(entries[name].bound(booth), graph)
    for owner in history.owners:
        env = load_environment(owner.environment())
        for name in owner_policies:
            _assert_same_as_the_chain_loop(entries[name].bound(env), graph)


_ENCAPSULATION_POLICIES = [f"p{i}" for i in range(1, 10)] + ["encapsulate_all"]


def test_the_chain_loop_agrees_on_an_audit_sized_history(population):
    # 177 vertices: every corpus policy under the booth environment and
    # under every owner's, which leaves the voting policies' contracts
    # unresolved. count_done under an owner's walks its whole 4-variable
    # product, 0.4 s a call, so it has the booth environment only.
    names = [entry.name for entry in corpus()]
    owner_policies = [n for n in names if n != "count_done"]
    _assert_same_on_a_history(population, 10, 6, names, owner_policies)


def test_the_chain_loop_agrees_on_an_872_vertex_history(population):
    # count_done is left out: it takes most of a minute at this size.
    booth_policies = ["receipt_attributed", "blacklisted_actor"]
    _assert_same_on_a_history(population, 60, 10, booth_policies, _ENCAPSULATION_POLICIES)


def test_verdicts_on_an_audit_sized_history_are_its_ground_truth(population):
    # The answers the benchmark's audit workload checks, derived from the
    # history's records: every voting policy under the booth environment,
    # each encapsulation policy under every owner's.
    history = population.build_history(random.Random(1), voters=10, owners=6)
    graph = load_graph(history.document())
    entries = corpus_by_name()
    booth = load_environment(history.booth_environment())
    for name in population.VOTING_POLICIES:
        verdict = evaluate(entries[name].bound(booth), graph)
        assert verdict == Verdict(*history.expected(name)), name
    for owner in history.owners:
        env = load_environment(owner.environment())
        for name in population.ENCAPSULATION_POLICIES:
            verdict = evaluate(entries[name].bound(env), graph)
            assert verdict == Verdict(*history.expected(name, owner=owner)), (name, owner)


@pytest.mark.parametrize("depth", [100, 400])
@pytest.mark.parametrize("quantifier, body", [(Exists, Const(True)), (Forall, Const(False))])
def test_a_leading_chain_hundreds_deep_settles_every_variable(
    encapsulation, depth, quantifier, body
):
    # Each quantifier of the chain is one nested call; a chain about as
    # deep as the interpreter's recursion limit raises RecursionError.
    names = [f"x{i}" for i in range(depth)]
    ast = body
    for name in reversed(names):
        ast = quantifier(name, Sort.VERTEX, ast)
    verdict = evaluate(bind(ast, Environment()), encapsulation)
    settling = dict.fromkeys(names, min(encapsulation.vertices))
    assert verdict.satisfied is (quantifier is Exists)
    assert (verdict.witness or verdict.counterexample) == settling


# ---------------------------------------------------------------------------
# the same atoms in the same order
# ---------------------------------------------------------------------------

# For every corpus policy (bound to its own environment) on every corpus
# graph: the number of ``has_edge`` calls ``evaluate`` makes, and the
# SHA-256 of their arguments, one "src<TAB>dst<TAB>label" line per call.
# Recorded from the recursive evaluator the compiled plan replaced.
_HAS_EDGE_TRACES = json.loads(
    (Path(__file__).parent / "has_edge_traces.json").read_text(encoding="utf-8")
)


def test_evaluate_tests_the_same_atoms_in_the_same_order(monkeypatch):
    calls: list[str] = []
    has_edge = ProvGraph.has_edge

    def logged(graph, src, dst, label):
        calls.append(f"{src}\t{dst}\t{label.value}")
        return has_edge(graph, src, dst, label)

    monkeypatch.setattr(ProvGraph, "has_edge", logged)
    traces = {}
    for entry in corpus():
        for name, graph in corpus_graphs().items():
            calls.clear()
            evaluate(entry.bound(), graph)
            digest = hashlib.sha256("\n".join(calls).encode()).hexdigest()
            traces[f"{entry.name}|{name}"] = [len(calls), digest]
    assert traces == _HAS_EDGE_TRACES


# ---------------------------------------------------------------------------
# conjunction
# ---------------------------------------------------------------------------


def test_conjoin_rejects_empty_input():
    with pytest.raises(EmptyPolicyListError):
        conjoin([])


def test_conjoin_of_one_policy_is_that_policy(entries, encapsulation):
    single = conjoin([_bound(entries, "p1")])
    assert single.ast == _bound(entries, "p1").ast
    assert evaluate(single, encapsulation).satisfied


def test_conjoin_folds_to_the_right(entries):
    p1, p2, p3 = (_bound(entries, name) for name in ("p1", "p2", "p3"))
    combined = conjoin([p1, p2, p3])
    assert combined.ast == And(p1.ast, And(p2.ast, p3.ast))


def test_conjoin_matches_manual_conjunction(entries, encapsulation, tampered_encapsulation):
    parts = [_bound(entries, name) for name in ("p1", "p2", "p3", "p4")]
    combined = conjoin(parts)
    for graph in (encapsulation, tampered_encapsulation):
        expected = all(evaluate(p, graph).satisfied for p in parts)
        assert evaluate(combined, graph).satisfied == expected
        assert evaluate_naive(combined, graph) == expected


def test_conjoin_rejects_conflicting_constants():
    ast = parse_policy("member(Bob, s)")
    a = bind(ast, Environment(constants={"Bob": "Bob"}, sets={"s": {"Bob"}}))
    b = bind(ast, Environment(constants={"Bob": "Alice"}, sets={"s": {"Bob"}}))
    with pytest.raises(ConflictingBindingError):
        conjoin([a, b])


def test_conjoin_rejects_conflicting_sets():
    ast = parse_policy("member(Bob, s)")
    a = bind(ast, Environment(constants={"Bob": "Bob"}, sets={"s": {"Bob"}}))
    b = bind(ast, Environment(constants={"Bob": "Bob"}, sets={"s": {"Alice"}}))
    with pytest.raises(ConflictingBindingError):
        conjoin([a, b])


def test_conjoin_resolves_names_across_policies(encapsulation):
    lonely = bind(
        parse_policy("edge(SecureCapsule, EncapsulateContract, WasDerivedFrom)"),
        Environment(constants={"SecureCapsule": "SecureCapsule"}),
    )
    assert lonely.unresolved == ("EncapsulateContract",)
    helper = bind(
        parse_policy("member(EncapsulateContract, known)"),
        Environment(
            constants={"EncapsulateContract": "EncapsulateContract"},
            sets={"known": {"EncapsulateContract"}},
        ),
    )
    combined = conjoin([lonely, helper])
    assert combined.unresolved == ()
    assert evaluate(combined, encapsulation).satisfied


def _trues(count: int) -> list:
    return [bind(parse_policy("true"), Environment())] * count


def test_a_conjunction_of_3000_policies_evaluates_and_prints():
    combined = conjoin(_trues(3000))
    verdict = evaluate(combined, ProvGraph())
    assert verdict == Verdict(satisfied=True)
    assert pretty_print(combined.ast).count(" and ") == 2999


def test_a_conjunction_of_3000_policies_reports_an_unresolved_name_once():
    parts = _trues(3000)
    parts[1500] = bind(parse_policy("not edge(Ghost, Ghost, Used)"), Environment())
    verdict = evaluate(conjoin(parts), ProvGraph())
    assert verdict.satisfied
    assert verdict.diagnostics == ("constant 'Ghost' is unbound; atoms naming it are false",)


@pytest.mark.parametrize(
    "text, satisfied",
    [
        (" or ".join(["false"] * 4999 + ["true"]), True),
        (" and ".join(["true"] * 4999 + ["false"]), False),
        ("true" + " => true" * 4999 + " => false", False),
        ("false" + " => false" * 4999, True),
    ],
    ids=["or", "and", "implies", "implies-false-premise"],
)
def test_parsed_chains_of_5000_operands_evaluate(text, satisfied):
    bound = bind(parse_policy(text), Environment())
    assert evaluate(bound, ProvGraph()).satisfied is satisfied
