"""The benchmark harness still runs, and every answer it checks is right.

One short pass of each workload, run as the benchmark runs it:
``perfbench/run.py`` from the repository root. The harness checks each
slice, verdict, witness and counterexample against the ground truth of
its generated history; ``ingest`` also checks the error class and record
index of each injected cycle or typing fault, byte-exact saves and both
validation reports, and ``cli`` the exit codes and output of ``check`` and
all four scenarios run as subprocesses. Its last output line reports the
outcome. A traced pass of ``audit`` also reports the time of each corpus
policy's evaluation.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["gate", "audit", "ingest", "cli"])
def test_one_pass_of_the_benchmark_is_correct(workload):
    command = [sys.executable, "perfbench/run.py", "--workload", workload]
    command += ["--seed", "1", "--seconds", "0.1", "--trace", "0"]
    result = subprocess.run(
        command,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout.splitlines()[-1])
    assert outcome["correct"] is True
    assert outcome["failed"] == 0
    assert outcome["attempted"] > 0


def test_a_traced_pass_of_audit_times_every_corpus_policy():
    command = [sys.executable, "perfbench/run.py", "--workload", "audit"]
    command += ["--seed", "1", "--seconds", "0.1", "--trace", "1"]
    result = subprocess.run(
        command,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout.splitlines()[-1])
    assert outcome["correct"] is True
    timings = {
        name: metric["value"]
        for name, metric in outcome["metrics"].items()
        if name.startswith("evaluator.evaluate_ms.")
    }
    assert len(timings) == 18
    assert all(math.isfinite(value) for value in timings.values())
