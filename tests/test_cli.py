"""Command-line behaviour, driven through main() in-process, and through a
fresh interpreter where the exit code and stderr of the process matter."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import acdc_prov
from acdc_prov.cli import corpus_dir, main
from acdc_prov.events import slice_by_agent
from acdc_prov.graph import ProvGraph, RelationLabel, Vertex, VertexKind
from acdc_prov.scenarios import SCENARIO_NAMES, corpus_graphs
from acdc_prov.storage import load_graph, save_graph


def _write(tmp_path, name: str, data: bytes | str):
    path = tmp_path / name
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.write_bytes(data)
    return path


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_satisfied_by_corpus_name(capsys):
    code = main(
        ["check", "encapsulate_bob.json", "p1.pol", "--env", "p1.env.json"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "satisfied"


def test_check_violated_by_corpus_name(capsys):
    code = main(
        [
            "check",
            "encapsulate_foreign_inputs.json",
            "p3.pol",
            "--env",
            "p3.env.json",
            "--witness",
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "violated"
    assert "counterexample: k = Key_Mallory" in out


def test_check_prints_witness_bindings(capsys):
    code = main(
        [
            "check",
            "encapsulate_bob.json",
            "p1.pol",
            "--env",
            "p1.env.json",
            "--witness",
        ]
    )
    assert code == 0
    assert "witness: k = Key_Bob" in capsys.readouterr().out


def test_check_json_payload(capsys):
    code = main(
        [
            "check",
            "encapsulate_bob.json",
            "p1.pol",
            "--env",
            "p1.env.json",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "satisfied": True,
        "witness": {"k": "Key_Bob"},
        "counterexample": None,
        "diagnostics": [],
        "unresolved": [],
    }


def test_check_without_env_reports_unresolved_notes(capsys):
    code = main(["check", "encapsulate_bob.json", "p1.pol"])
    assert code == 1
    assert "note:" in capsys.readouterr().out


def test_check_strict_rejects_missing_bindings(capsys):
    code = main(["check", "encapsulate_bob.json", "p1.pol", "--strict"])
    assert code == 2
    assert "Encapsulate" in capsys.readouterr().err


def test_check_slice_matches_pre_sliced_graph(tmp_path, capsys):
    combined = corpus_graphs()["alice_two_state"]
    pre_sliced = _write(
        tmp_path, "sliced.json", save_graph(slice_by_agent(combined, "Alice"))
    )
    code_sliced = main(
        [
            "check",
            "alice_two_state.json",
            "receipt_attributed.pol",
            "--env",
            "receipt_attributed.env.json",
            "--slice",
            "Alice",
            "--json",
        ]
    )
    out_sliced = capsys.readouterr().out
    code_direct = main(
        [
            "check",
            str(pre_sliced),
            "receipt_attributed.pol",
            "--env",
            "receipt_attributed.env.json",
            "--json",
        ]
    )
    out_direct = capsys.readouterr().out
    assert (code_sliced, out_sliced) == (code_direct, out_direct) == (0, out_direct)


def test_check_slice_of_unknown_agent_is_an_input_error(capsys):
    code = main(
        ["check", "encapsulate_bob.json", "p1.pol", "--slice", "Dana"]
    )
    assert code == 2
    assert "Dana" in capsys.readouterr().err


def test_check_missing_file_is_an_input_error(capsys):
    code = main(["check", "no_such_graph.json", "p1.pol"])
    assert code == 2
    assert "no such file" in capsys.readouterr().err


def test_check_malformed_policy_is_an_input_error(tmp_path, capsys):
    policy = _write(tmp_path, "broken.pol", "exists k: key_entity .")
    code = main(["check", "encapsulate_bob.json", str(policy)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("role", ["policy", "graph", "env"])
def test_check_of_a_file_that_is_not_utf8_names_the_problem(tmp_path, capsys, role):
    files = {
        "graph": corpus_dir().joinpath("encapsulate_bob.json").read_bytes(),
        "policy": corpus_dir().joinpath("p1.pol").read_bytes(),
        "env": corpus_dir().joinpath("p1.env.json").read_bytes(),
    }
    files[role] = files[role][:20] + b"\xff" + files[role][20:]
    paths = {name: str(_write(tmp_path, name, blob)) for name, blob in files.items()}
    code = main(["check", paths["graph"], paths["policy"], "--env", paths["env"]])
    assert code == 2
    reason = "not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 20"
    prefix = f"policy file {paths['policy']}: " if role == "policy" else ""
    assert capsys.readouterr().err.startswith(f"error: {prefix}{reason}")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_clean_graph(capsys):
    assert main(["validate", "encapsulate_bob.json"]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_validate_reports_typing_violations(tmp_path, capsys):
    doc = {
        "version": "acdc-prov/1",
        "vertices": [
            {"id": "a", "kind": "node_agent"},
            {"id": "b", "kind": "node_agent"},
        ],
        "edges": [{"src": "a", "dst": "b", "label": "Used"}],
    }
    path = _write(tmp_path, "bad.json", json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.count("typing:") == 1
    assert "invalid: 1 typing violation(s), 0 cycle(s)" in out


def test_validate_reports_cycles(tmp_path, capsys):
    doc = {
        "version": "acdc-prov/1",
        "vertices": [
            {"id": "x", "kind": "data_entity"},
            {"id": "y", "kind": "data_entity"},
        ],
        "edges": [
            {"src": "x", "dst": "y", "label": "WasDerivedFrom"},
            {"src": "y", "dst": "x", "label": "WasDerivedFrom"},
        ],
    }
    path = _write(tmp_path, "cyclic.json", json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "cycle: x -> y" in out
    assert "invalid: 0 typing violation(s), 1 cycle(s)" in out


def test_validate_json_report(tmp_path, capsys):
    doc = {
        "version": "acdc-prov/1",
        "vertices": [
            {"id": "x", "kind": "data_entity"},
            {"id": "y", "kind": "data_entity"},
        ],
        "edges": [
            {"src": "x", "dst": "y", "label": "WasDerivedFrom"},
            {"src": "y", "dst": "x", "label": "WasDerivedFrom"},
        ],
    }
    path = _write(tmp_path, "cyclic.json", json.dumps(doc))
    assert main(["validate", str(path), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False
    assert report["typing"] == []
    assert report["cycles"] == [["x", "y"]]


_SURROGATE_ID = json.dumps(
    {"version": "acdc-prov/1", "vertices": [{"id": "\ud800", "kind": "activity"}], "edges": []}
)


@pytest.mark.parametrize(
    "text, error",
    [
        ("not json at all", "invalid JSON"),
        (_SURROGATE_ID, "vertices[0]: 'utf-8' codec can't encode character '\\ud800'"),
    ],
    ids=["not-json", "surrogate-id"],
)
def test_validate_garbage_is_an_input_error(tmp_path, capsys, text, error):
    path = _write(tmp_path, "garbage.json", text)
    assert main(["validate", str(path)]) == 2
    assert error in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert main(["validate", "missing.json"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# event
# ---------------------------------------------------------------------------


def test_event_prints_the_event_subgraph(capsys):
    from acdc_prov.events import extract_event

    code = main(["event", "alice_trace_full.json", "--activity", "KeyGen"])
    assert code == 0
    out = capsys.readouterr().out
    expected = extract_event(corpus_graphs()["alice_trace_full"], "KeyGen")
    assert out == save_graph(expected).decode("utf-8")
    assert load_graph(out) == expected


def test_event_unknown_activity(capsys):
    assert main(["event", "alice_trace_full.json", "--activity", "Dance"]) == 2
    assert "Dance" in capsys.readouterr().err


def test_event_wrong_kind(capsys):
    assert main(["event", "alice_trace_full.json", "--activity", "Alice"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenarios_all_pass(name, capsys):
    assert main(["scenario", name]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "MISMATCH" not in out


def test_scenario_json_report(capsys):
    assert main(["scenario", "blacklist", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "blacklist"
    assert report["pass"] is True
    assert len(report["checks"]) == 2
    assert all(check["ok"] for check in report["checks"])


def test_scenario_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit) as err:
        main(["scenario", "heist"])
    assert err.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# name resolution
# ---------------------------------------------------------------------------


def test_corpus_dir_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ACDC_CORPUS_DIR", str(tmp_path))
    assert corpus_dir() == tmp_path
    g = ProvGraph().extend([Vertex("Solo", VertexKind.ACTIVITY)])
    _write(tmp_path, "solo.json", save_graph(g))
    _write(tmp_path, "anything.pol", "exists a: activity . true\n")
    assert main(["check", "solo.json", "anything.pol"]) == 0
    assert capsys.readouterr().out.strip() == "satisfied"
    # built-in names no longer resolve once the override points elsewhere
    assert main(["check", "encapsulate_bob.json", "anything.pol"]) == 2
    capsys.readouterr()


def test_direct_paths_beat_corpus_names(tmp_path, monkeypatch, capsys):
    g = ProvGraph().extend([Vertex("OnlyHere", VertexKind.ACCOUNT_AGENT)])
    _write(tmp_path, "encapsulate_bob.json", save_graph(g))
    probe = _write(tmp_path, "probe.pol", "exists a: activity . true\n")
    # from elsewhere the name finds the corpus graph, which has an activity
    assert main(["check", "encapsulate_bob.json", str(probe)]) == 0
    capsys.readouterr()
    # inside tmp_path the local file shadows the corpus name; it has none
    monkeypatch.chdir(tmp_path)
    assert main(["check", "encapsulate_bob.json", str(probe)]) == 1
    capsys.readouterr()


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["check"])
    assert err.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# deeply nested input
# ---------------------------------------------------------------------------

_DEEP_INPUTS = {
    "check-graph": ("deep.json", "[" * 100_000, ["check", "deep.json", "p1.pol"]),
    "validate-graph": ("deep.json", "[" * 100_000, ["validate", "deep.json"]),
    "parentheses": (
        "deep.pol",
        "(" * 3000 + "true" + ")" * 3000 + "\n",
        ["check", "empty.json", "deep.pol"],
    ),
    "nots": ("deep.pol", "not " * 3000 + "true\n", ["check", "empty.json", "deep.pol"]),
}


def _run_cli(tmp_path, argv: list[str]) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter inside ``tmp_path``."""
    src = Path(acdc_prov.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "acdc_prov.cli", *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("case", _DEEP_INPUTS)
def test_deeply_nested_input_is_unusable_input(tmp_path, case):
    name, text, argv = _DEEP_INPUTS[case]
    _write(tmp_path, name, text)
    result = _run_cli(tmp_path, argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


_AT_THE_LIMIT = {
    "parentheses": "(" * 100 + "true" + ")" * 100,
    "nots": "not " * 100 + "true",
    "quantifiers": "".join(f"exists x{i}: vertex . " for i in range(100)) + "true",
}


@pytest.mark.parametrize("case", _AT_THE_LIMIT)
def test_input_at_the_nesting_limit_is_checked(tmp_path, capsys, case):
    # The deepest policy the parser accepts is answered within the default
    # recursion limit, so no RecursionError reaches main().
    policy = _write(tmp_path, "deep.pol", _AT_THE_LIMIT[case] + "\n")
    assert main(["check", "alice_trace_full.json", str(policy), "--witness"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "satisfied"


@pytest.mark.parametrize("keyword", ["and", "=>"], ids=["ands", "arrows"])
def test_long_connective_chains_are_checked(tmp_path, keyword):
    # Chains of connectives have no nesting limit: the parser and the
    # evaluator loop along a chain instead of recursing once per operand.
    _write(tmp_path, "long.pol", f" {keyword} ".join(["true"] * 5000) + "\n")
    result = _run_cli(tmp_path, ["check", "empty.json", "long.pol"])
    assert (result.returncode, result.stdout, result.stderr) == (0, "satisfied\n", "")


def test_an_environment_binding_a_surrogate_is_unusable_input(tmp_path):
    # No vertex can carry that id, so there is no verdict to give.
    _write(tmp_path, "bad.env.json", json.dumps({"constants": {"Bob": "\ud800"}}))
    argv = ["check", "encapsulate_bob.json", "p3.pol", "--env", "bad.env.json"]
    result = _run_cli(tmp_path, argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: constants['Bob']: ")
    assert "Traceback" not in result.stderr
