"""The exit-code contract under fuzzed input.

Random token streams, and corpus graph, policy and environment files with
random byte and JSON mutations, go to ``parse_policy``, ``load_graph``,
``load_environment`` and ``cli.main``, all in-process. Each library
function returns or raises its documented error class, and ``parse_policy``
agrees with the oracle lexer and parser kept in ``test_policy``. ``main``
returns 0 (satisfied), 1 (violated) or 2 (unusable input, with a first
stderr line that starts ``error: ``), and lets no exception escape.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from acdc_prov.cli import corpus_dir, main
from acdc_prov.graph import GraphError, RelationLabel, Sort
from acdc_prov.policy import parse_policy
from acdc_prov.storage import MalformedDocumentError, load_environment, load_graph
from test_policy import oracle_parse, outcome

CORPUS = corpus_dir()
GRAPHS = sorted(
    p.name for p in CORPUS.glob("*.json") if not p.name.endswith(".env.json")
)
POLICIES = sorted(p.stem for p in CORPUS.glob("*.pol"))

_TOKENS = (
    "exists", "forall", "and", "or", "not", "true", "false", "edge", "member",
    "(", ")", ",", ":", ".", "=>", "=", ">", "#", "\n", "\r\n", "\t", "@", "1",
    "1a", "é", "²", "٠", "Ⅻ", "x²", "\xa0", "\ufeff", "_", "x", "y", "Alice",
    "m1", "Blacklist",
    *(label.value for label in RelationLabel),
    *(sort.value for sort in Sort),
)  # fmt: skip

token_streams = st.builds(
    lambda tokens, sep: sep.join(tokens),
    st.lists(st.sampled_from(_TOKENS), max_size=40),
    st.sampled_from([" ", "", "\n"]),
)

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _slots(doc) -> list[tuple[object, object]]:
    """Every (container, key) pair of a decoded JSON document."""
    found = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in list(keys):
            found.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return found


def _strings(doc) -> list[str]:
    """Every string in a decoded JSON document, keys included."""
    return sorted({s for c, k in _slots(doc) for s in (k, c[k]) if isinstance(s, str)})


def mutate(data: st.DataObject, blob: bytes) -> bytes:
    """``blob`` with up to three byte edits. A JSON document may instead have up
    to three edge endpoints moved to another vertex id or to an absent one,
    or up to three values replaced, deleted, swapped within their container
    or replaced by another string of the document."""
    doc = json.loads(blob) if blob.lstrip().startswith(b"{") else None
    how = "bytes"
    if doc is not None:
        how = data.draw(st.sampled_from(["edges", "values", "bytes"]))
    if how == "edges" and doc.get("edges"):
        ids = [vertex["id"] for vertex in doc["vertices"]] + ["absent"]
        for _ in range(data.draw(st.integers(1, 3))):
            edge = data.draw(st.sampled_from(doc["edges"]))
            end = data.draw(st.sampled_from(["src", "dst"]))
            edge[end] = data.draw(st.sampled_from(ids))
        return json.dumps(doc).encode("utf-8")
    if how != "bytes":
        pool = _strings(doc) or [""]
        for _ in range(data.draw(st.integers(1, 3))):
            slots = _slots(doc)
            if not slots:
                break
            container, key = data.draw(st.sampled_from(slots))
            action = data.draw(st.sampled_from(["replace", "delete", "reuse", "swap"]))
            if action == "delete":
                del container[key]
            elif action == "swap":
                siblings = [k for c, k in slots if c is container]
                other = data.draw(st.sampled_from(siblings))
                container[key], container[other] = container[other], container[key]
            elif action == "reuse":
                container[key] = data.draw(st.sampled_from(pool))
            else:
                container[key] = data.draw(_JSON_VALUES)
        return json.dumps(doc).encode("utf-8")
    edited = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3))):
        position = data.draw(st.integers(0, len(edited)))
        action = data.draw(st.sampled_from(["set", "insert", "delete"]))
        byte = data.draw(st.integers(0, 255))
        if action == "insert" or position == len(edited):
            edited.insert(position, byte)
        elif action == "set":
            edited[position] = byte
        else:
            del edited[position]
    return bytes(edited)


@settings(deadline=None, max_examples=200)
@given(token_streams)
def test_parse_policy_returns_or_raises_a_policy_error(text):
    # Same AST as the character-loop lexer's parse, or the same ParseError.
    assert outcome(parse_policy, text) == outcome(oracle_parse, text)


@settings(deadline=None, max_examples=100)
@given(st.data(), st.sampled_from(POLICIES))
def test_mutated_policies_parse_or_raise_a_policy_error(data, name):
    text = mutate(data, (CORPUS / f"{name}.pol").read_bytes()).decode("utf-8", errors="replace")
    assert outcome(parse_policy, text) == outcome(oracle_parse, text)


@settings(deadline=None, max_examples=100)
@given(st.data(), st.sampled_from(GRAPHS))
def test_mutated_graphs_load_or_raise_a_documented_error(data, name):
    try:
        load_graph(mutate(data, (CORPUS / name).read_bytes()))
    except (MalformedDocumentError, GraphError):
        pass


@settings(deadline=None, max_examples=100)
@given(st.data(), st.sampled_from(POLICIES))
def test_mutated_environments_load_or_raise_a_malformed_document_error(data, name):
    try:
        load_environment(mutate(data, (CORPUS / f"{name}.env.json").read_bytes()))
    except MalformedDocumentError:
        pass


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(deadline=None, max_examples=100)
@given(
    data=st.data(),
    graph=st.sampled_from(GRAPHS),
    policy=st.sampled_from(POLICIES),
    mutated=st.sampled_from(["graph", "graph", "policy", "env", "tokens", None]),
    command=st.sampled_from(
        ["check", "check --json", "check --strict", "slice", "validate", "event"]
    ),
)
def test_main_keeps_the_exit_code_contract(
    workdir, data, graph, policy, mutated, command
):
    files = {
        "graph": (CORPUS / graph).read_bytes(),
        "policy": (CORPUS / f"{policy}.pol").read_bytes(),
        "env": (CORPUS / f"{policy}.env.json").read_bytes(),
    }
    if mutated == "tokens":
        files["policy"] = data.draw(token_streams).encode("utf-8")
    elif mutated is not None:
        files[mutated] = mutate(data, files[mutated])
    paths = {}
    for role, blob in files.items():
        paths[role] = str(workdir / f"{role}.input")
        (workdir / f"{role}.input").write_bytes(blob)
    target = data.draw(
        st.sampled_from(["Alice", "Bob", "Encapsulate", "KeyGen", "m1", "-"])
    )
    argv = {
        "validate": ["validate", paths["graph"]],
        "event": ["event", paths["graph"], f"--activity={target}"],
        "slice": ["check", paths["graph"], paths["policy"], f"--slice={target}"],
    }.get(command, [*command.split(), paths["graph"], paths["policy"]])
    if argv[0] == "check":
        argv += ["--env", paths["env"], "--witness"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
    else:
        assert out.getvalue()
