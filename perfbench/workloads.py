"""The four workloads: what one operation does and how its answer is checked.

Each workload is a closed loop with one client: the next operation starts
only when the previous one has returned, as a booth or an auditor waits
for each answer. Operations come in passes of a fixed mix, and a run
measures whole passes, so every run weighs the same mix of operations.

- ``gate``: the booth check. Slice the shared history by the voter at the
  booth, then ask whether the voter already holds a receipt and whether
  the voter is blacklisted. Stresses ``events`` (slicing the whole
  history) and bypasses the evaluator's cost, as the slice is small.
- ``audit``: whole-history compliance questions, every corpus policy,
  with the encapsulation policies re-aimed at each owner. Parse, bind and
  evaluate per question; stresses ``policy`` and ``evaluator`` and
  bypasses ``events``.
- ``ingest``: the write path. Load a fresh document (checked
  construction), save it back and compare bytes, and run the unchecked
  load plus both validations. One document in eight carries a bad edge.
  Stresses ``storage`` and ``graph``.
- ``cli``: the command line run as subprocesses, one at a time: a sliced
  receipt check, an owner's input-exclusivity check and the four
  scenarios. The only workload that reaches ``cli`` and ``scenarios``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

from acdc_prov import (
    Environment,
    SCENARIO_NAMES,
    bind,
    corpus_by_name,
    evaluate,
    load_environment,
    load_graph,
    load_graph_unchecked,
    parse_policy,
    run_scenario,
    save_graph,
    slice_by_agent,
)
from acdc_prov import cli
from acdc_prov.graph import SORT_KINDS, CycleIntroducedError, Sort, TypeViolationError

from population import (
    ENCAPSULATION_POLICIES,
    VOTING_POLICIES,
    History,
    build_history,
    inject_fault,
)
from tracing import OUTSIDE, Tracer

Op = Callable[[], bool]

# The console-script entry point of ``acdc-prov``, run from source.
CLI_ENTRY = "import sys; from acdc_prov.cli import main; sys.exit(main())"


def verdict_matches(verdict, expected) -> bool:
    satisfied, witness, counterexample = expected
    return (
        verdict.satisfied == satisfied
        and (dict(verdict.witness) if verdict.witness is not None else None) == witness
        and (
            dict(verdict.counterexample) if verdict.counterexample is not None else None
        )
        == counterexample
        and verdict.diagnostics == ()
    )


class Workload:
    """Inputs, set-up and operations of one workload.

    ``__init__`` generates the inputs (the benchmark's own work, untimed);
    ``setup`` makes the program calls that precede the first operation and
    returns what the operations use, which the runner keeps in ``state``;
    ``passes`` yields the operations of one pass.
    """

    name = ""
    # latency_tail_ms is this fixed percentile, not the highest one that
    # still has ten samples beyond it: where latencies cluster by kind of
    # operation, a percentile that moves with the sample count jumps
    # between clusters when a run completes one pass more or less. Each
    # workload's percentile is chosen to lie inside a cluster of its mix
    # and, at the benchmark's run length, to have at least ten samples
    # beyond it.
    tail_percentile = 95.0

    def __init__(self, seed: int, tracer: Tracer, root: Path, work: Path):
        self.rng = random.Random(f"{self.name}-{seed}")
        self.seed = seed
        self.tracer = tracer
        self.root = root
        self.work = work
        self.corpus = corpus_by_name()
        self.probe_failures = 0
        self._evaluated: list = []
        self._validated: dict[int, tuple[object, float]] = {}

    # -- program calls, traced ------------------------------------------

    def load(self, doc: bytes):
        graph = self.tracer.call("storage.load_graph", load_graph, doc)
        self.tracer.count("graph.vertices", len(graph.vertices))
        self.tracer.count("graph.edges", len(graph.edges))
        return graph

    def bind_policy(self, name: str, env: Environment):
        ast = self.tracer.call("policy.parse_policy", parse_policy, self.corpus[name].source)
        return self.tracer.call("policy.bind", bind, ast, env)

    def slice(self, graph, agent: str):
        part = self.tracer.call("events.slice_by_agent", slice_by_agent, graph, agent)
        self.tracer.count("events.slice_vertices", len(part.vertices))
        self.tracer.count("events.slice_edges", len(part.edges))
        self.tracer.count("events.slice_fraction", len(part.vertices) / len(graph.vertices))
        return part

    def evaluate(self, bound, graph, policy: str):
        verdict = self.tracer.call("evaluator.evaluate", evaluate, bound, graph, tag=policy)
        if self.tracer.enabled:
            self._evaluated.append((graph, verdict))
        return verdict

    def after_op(self) -> None:
        """Counts for the evaluations an operation made, taken outside its
        timing: verdicts, domain sizes, and the time ``evaluate`` spends
        re-validating its graph (validation alone, on the same graph)."""
        for graph, verdict in self._evaluated:
            key = id(graph)
            if key not in self._validated:
                start = perf_counter()
                self.tracer.call("graph.validate_typing", graph.validate_typing)
                self.tracer.call("graph.validate_acyclic", graph.validate_acyclic)
                self._validated[key] = (graph, perf_counter() - start)
            self.tracer.count("evaluator.revalidate_s", self._validated[key][1])
            outcome = "true" if verdict.satisfied else "false"
            self.tracer.count(f"evaluator.verdicts_{outcome}", 1)
            kinds = Counter(v.kind for v in graph.vertices.values())
            for sort in Sort:
                size = sum(kinds[k] for k in SORT_KINDS[sort])
                self.tracer.count(f"evaluator.domain.{sort.value}", size)
        self._evaluated.clear()

    # -- to be provided by each workload ---------------------------------

    def setup(self):
        raise NotImplementedError

    def passes(self) -> Iterator[Op]:
        raise NotImplementedError

    def sizes(self) -> list[tuple[int, int]]:
        """(V, E) of every history the run's operations act on."""
        raise NotImplementedError

    def cli_commands(self) -> list[tuple[list[str], int]]:
        """Command lines the in-process ``cli.main`` probe replays, with
        their expected exit codes."""
        path = self.write("probe-history.json", self.doc)
        voter = self.returned_voter(self.history)  # completed a ballot
        return [(["check", str(path), "receipt_attributed.pol",
                  "--env", "receipt_attributed.env.json", "--slice", voter, "--json"], 0)]

    # -- helpers ---------------------------------------------------------

    def write(self, name: str, data: bytes) -> Path:
        path = self.work / name
        path.write_bytes(data)
        return path

    @staticmethod
    def returned_voter(history: History) -> str:
        """A voter with two booth sessions, the largest slice."""
        counts = Counter(s.voter for s in history.sessions)
        return min(v for v, n in counts.items() if n == max(counts.values()))

    def run_cli(self, args: list[str], code: str = CLI_ENTRY) -> subprocess.CompletedProcess:
        env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        return subprocess.run(
            [sys.executable, "-c", code, *args],
            cwd=self.root,
            env=env,
            capture_output=True,
            timeout=120,
        )

    def probe(self, check: bool) -> None:
        if not check:
            self.probe_failures += 1

    # -- layer probes (traced runs only) ---------------------------------

    def probe_layers(self) -> None:
        """Call, once, every public function the operations did not, on
        this workload's own inputs, so a traced run reports every layer."""
        t = self.tracer
        t.request = OUTSIDE
        seen = t.recorded()

        def missing(name: str, tag: str | None = None) -> bool:
            return (name, tag) not in seen

        history, doc = self.history, self.doc
        graph = self.load(doc) if missing("storage.load_graph") else load_graph(doc)
        if missing("storage.save_graph"):
            self.probe(t.call("storage.save_graph", save_graph, graph) == doc)
        if missing("storage.load_graph_unchecked"):
            t.call("storage.load_graph_unchecked", load_graph_unchecked, doc)
        if missing("graph.validate_typing") or missing("graph.validate_acyclic"):
            self.probe(t.call("graph.validate_typing", graph.validate_typing) == [])
            self.probe(t.call("graph.validate_acyclic", graph.validate_acyclic) == [])

        voter = self.returned_voter(history)
        owner = next(o for o in history.owners if o.foreign)
        voter_slice = self.slice(graph, voter)
        ids, edges = history.slice_records(voter)
        self.probe(set(voter_slice.vertices) == ids and len(voter_slice.edges) == edges)
        owner_slice = slice_by_agent(graph, owner.name)
        booth = t.call("storage.load_environment", load_environment, history.booth_environment())
        aimed = t.call("storage.load_environment", load_environment, owner.environment())
        for name in VOTING_POLICIES + ENCAPSULATION_POLICIES:
            if not missing("evaluator.evaluate", name):
                continue
            if name in ENCAPSULATION_POLICIES:
                bound, part = self.bind_policy(name, aimed), owner_slice
                expected = history.expected(name, owner=owner)
            else:
                bound, part = self.bind_policy(name, booth), voter_slice
                expected = history.expected(name, voter=voter)
            self.probe(verdict_matches(self.evaluate(bound, part, name), expected))
            self.after_op()

        for name in SCENARIO_NAMES:
            if missing("scenarios.run_scenario", name):
                checks = t.call("scenarios.run_scenario", run_scenario, name, tag=name)
                self.probe(all(c.ok for c in checks))
        self.probe_cli()

    def probe_cli(self) -> None:
        t = self.tracer
        for _ in range(3):
            with t.span("cli.interpreter"):
                self.probe(self.run_cli([], code="pass").returncode == 0)
            with t.span("cli.import"):
                self.probe(self.run_cli([], code="import acdc_prov.cli").returncode == 0)
        for argv, expected in self.cli_commands():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = t.call("cli.main", cli.main, argv, tag=argv[0])
            self.probe(code == expected)


class Gate(Workload):
    """About 20 voters and 4 owners; one operation per voter at the booth."""

    name = "gate"

    def __init__(self, *args):
        super().__init__(*args)
        self.history = build_history(self.rng, voters=20, owners=4)
        self.doc = self.history.document()
        self.env_doc = self.history.booth_environment()
        self.order = self.history.voters()
        self.rng.shuffle(self.order)
        self.expected = {
            voter: {
                policy: self.history.expected(policy, voter=voter)
                for policy in ("receipt_attributed", "blacklisted_actor")
            }
            for voter in self.order
        }
        self.slices = {voter: self.history.slice_records(voter) for voter in self.order}

    def setup(self):
        graph = self.load(self.doc)
        env = self.tracer.call("storage.load_environment", load_environment, self.env_doc)
        bound = {
            name: self.bind_policy(name, env)
            for name in ("receipt_attributed", "blacklisted_actor")
        }
        return graph, bound

    def passes(self) -> Iterator[Op]:
        for voter in self.order:
            yield partial(self.op, voter)

    def op(self, voter: str) -> bool:
        graph, policies = self.state
        part = self.slice(graph, voter)
        ids, edges = self.slices[voter]
        ok = set(part.vertices) == ids and len(part.edges) == edges
        for name, bound in policies.items():
            verdict = self.evaluate(bound, part, name)
            ok = verdict_matches(verdict, self.expected[voter][name]) and ok
        return ok

    def sizes(self):
        return [self.history.size]


class Audit(Workload):
    """About 10 voters and 6 owners, a third of them tampered with; every
    corpus policy once per pass, encapsulation policies once per owner."""

    name = "audit"
    # A pass sorts into 61 light questions (~4 ms), the six
    # step policies (~130 ms) and count_done (~2 s). The 98th percentile
    # lies near the top of the step-policy cluster; the 95th, in its
    # middle, moved with the host's speed as much as a median does.
    tail_percentile = 98.0

    def __init__(self, *args):
        super().__init__(*args)
        self.history = build_history(self.rng, voters=10, owners=6)
        self.doc = self.history.document()
        self.env_docs = {None: self.history.booth_environment()}
        for owner in self.history.owners:
            self.env_docs[owner.name] = owner.environment()
        self.questions = [(name, None) for name in VOTING_POLICIES] + [
            (name, owner) for owner in self.history.owners for name in ENCAPSULATION_POLICIES
        ]
        self.rng.shuffle(self.questions)
        self.expected = {
            (name, owner): self.history.expected(name, owner=owner)
            for name, owner in self.questions
        }

    def setup(self):
        graph = self.load(self.doc)
        envs = {
            key: self.tracer.call("storage.load_environment", load_environment, doc)
            for key, doc in self.env_docs.items()
        }
        return graph, envs

    def passes(self) -> Iterator[Op]:
        for name, owner in self.questions:
            yield partial(self.op, name, owner)

    def op(self, name: str, owner) -> bool:
        graph, envs = self.state
        env = envs[owner.name if owner else None]
        verdict = self.evaluate(self.bind_policy(name, env), graph, name)
        return verdict_matches(verdict, self.expected[(name, owner)])

    def sizes(self):
        return [self.history.size]


class Ingest(Workload):
    """Fresh documents of about 600 vertices and 1.3k edges, eight per
    pass; the eighth carries a bad edge, alternately a cycle and a typing
    violation."""

    name = "ingest"
    VOTERS, OWNERS = 44, 4

    def __init__(self, *args):
        super().__init__(*args)
        self.history = build_history(self.rng, self.VOTERS, self.OWNERS)
        self.doc = self.history.document()
        self.generated = 0
        self.doc_sizes: list[tuple[int, int]] = []

    def setup(self) -> None:
        # A warm-up document of the stream's size, outside the timed loop.
        graph = self.load(self.doc)
        self.tracer.call("storage.save_graph", save_graph, graph)

    def passes(self) -> Iterator[Op]:
        for slot in range(8):
            index = self.generated
            self.generated += 1
            rng = random.Random(f"ingest-{self.seed}-{index}")
            history = build_history(rng, self.VOTERS, self.OWNERS)
            fault = None
            if slot == 7:
                kind = "cycle" if (index // 8) % 2 == 0 else "typing"
                doc, fault = inject_fault(rng, history, kind)
            else:
                doc = history.document()
            if len(self.doc_sizes) < 8:
                self.doc_sizes.append(history.size)
            yield partial(self.op, doc, fault)

    def op(self, doc: bytes, fault) -> bool:
        t = self.tracer
        try:
            graph = self.load(doc)
        except (CycleIntroducedError, TypeViolationError) as exc:
            ok = (
                fault is not None
                and type(exc).__name__ == fault.error
                and str(exc).startswith(f"edges[{fault.index}]: ")
            )
        else:
            ok = fault is None and t.call("storage.save_graph", save_graph, graph) == doc
        loose = t.call("storage.load_graph_unchecked", load_graph_unchecked, doc)
        violations = t.call("graph.validate_typing", loose.validate_typing)
        cycles = t.call("graph.validate_acyclic", loose.validate_acyclic)
        reported = [
            (v.src, v.dst, v.label.value, v.src_kind.value, v.dst_kind.value)
            for v in violations
        ]
        expected_violations = [fault.violation] if fault and fault.violation else []
        expected_cycles = [fault.cycle] if fault and fault.cycle else []
        return ok and reported == expected_violations and cycles == expected_cycles

    def sizes(self):
        return self.doc_sizes


class Cli(Workload):
    """The audit-sized history checked through ``acdc-prov`` subprocesses:
    per pass one sliced receipt check, one owner check and the four
    scenarios, with the voter and the owner rotating between passes."""

    name = "cli"

    def __init__(self, *args):
        super().__init__(*args)
        self.history = build_history(self.rng, voters=10, owners=6)
        self.doc = self.history.document()
        self.path = self.write("history.json", self.doc)
        self.voters = self.history.voters()
        self.rng.shuffle(self.voters)
        self.owners = list(self.history.owners)
        self.rng.shuffle(self.owners)
        self.env_docs = {o.name: o.environment() for o in self.owners}
        self.env_paths = {name: self.write(f"{name}.env.json", doc)
                          for name, doc in self.env_docs.items()}
        self.rounds = 0
        # Compile the package once, as an installed CLI would be.
        self.run_cli([], code="import acdc_prov.cli")

    def setup(self) -> None:
        # What each check invocation does before evaluating, in-process.
        self.load(self.doc)
        env = self.tracer.call(
            "storage.load_environment", load_environment, self.env_docs[self.owners[0].name]
        )
        self.bind_policy("p3", env)
        self.bind_policy("receipt_attributed", self.corpus["receipt_attributed"].environment)

    def commands(self, voter: str, owner) -> list[tuple[list[str], int, Callable]]:
        """(argv, expected exit code, output check) of one pass."""
        receipt = self.history.expected("receipt_attributed", voter=voter)
        clean = owner.foreign is None
        ops = [
            (
                ["check", str(self.path), "receipt_attributed.pol", "--env",
                 "receipt_attributed.env.json", "--slice", voter, "--json"],
                0 if receipt[0] else 1,
                partial(self.check_receipt, receipt),
            ),
            (
                ["check", str(self.path), "p3.pol", "--env", str(self.env_paths[owner.name])],
                0 if clean else 1,
                partial(self.check_text, b"satisfied\n" if clean else b"violated\n"),
            ),
        ]
        for name in SCENARIO_NAMES:
            ops.append((["scenario", name, "--json"], 0, partial(self.check_scenario, name)))
        return ops

    def passes(self) -> Iterator[Op]:
        voter = self.voters[self.rounds % len(self.voters)]
        owner = self.owners[self.rounds % len(self.owners)]
        self.rounds += 1
        for argv, code, check in self.commands(voter, owner):
            yield partial(self.op, argv, code, check)

    def op(self, argv: list[str], code: int, check) -> bool:
        with self.tracer.span("cli.run", tag=argv[0]):
            result = self.run_cli(argv)
        return result.returncode == code and check(result.stdout)

    @staticmethod
    def check_receipt(expected, stdout: bytes) -> bool:
        report = json.loads(stdout)
        return (
            report["satisfied"] == expected[0]
            and report["witness"] == expected[1]
            and report["counterexample"] == expected[2]
            and report["diagnostics"] == []
            and report["unresolved"] == []
        )

    @staticmethod
    def check_text(expected: bytes, stdout: bytes) -> bool:
        return stdout == expected

    @staticmethod
    def check_scenario(name: str, stdout: bytes) -> bool:
        report = json.loads(stdout)
        return report["scenario"] == name and report["pass"] is True

    def cli_commands(self):
        voter = self.returned_voter(self.history)
        return [(argv, code) for argv, code, _ in self.commands(voter, self.owners[0])]

    def sizes(self):
        return [self.history.size]


WORKLOADS = {w.name: w for w in (Gate, Audit, Ingest, Cli)}

