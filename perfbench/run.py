"""Benchmark of acdc-prov: one workload, one seed, one run.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there, and nothing else is needed. Workloads: gate, audit,
ingest, cli (see workloads.py). The seed fixes every input; the same seed
gives the same inputs.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from spans recorded around the
program calls, plus the tracing overhead. The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. A fuller record (machine, seed, input sizes, sample counts,
tail percentile) is written to ``.perfbench/results/``; ``python3
perfbench/report.py`` prints every recorded metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from population import ENCAPSULATION_POLICIES, VOTING_POLICIES
from tracing import OUTSIDE, Tracer

# setup_s is the median of SETUP_REPEATS set-ups before the first pass
# and of more after every pass, for at least SETUP_GAP_SECONDS each time,
# so set-up is sampled across the same stretch of time as the operations.
SETUP_REPEATS = 3
SETUP_GAP_SECONDS = 0.1
# Metrics written to the run record but left off the result line. On a
# shared host whose speed switches between two levels for minutes at a
# time, a run's median latency falls on one level or the other, so it
# spreads across runs by more than any bound allows (see README.md).
RECORD_ONLY = ("latency_p50_ms",)
HELD_OUT_SEED = 90001  # kept out of tuning; re-check gain claims on it


def import_program(root: Path) -> None:
    """Import acdc_prov from ``root/src``, refusing any other copy."""
    src = root / "src"
    if not (src / "acdc_prov" / "__init__.py").is_file():
        sys.exit(f"error: no acdc_prov sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import acdc_prov

    if Path(acdc_prov.__file__).resolve().parent != (src / "acdc_prov").resolve():
        sys.exit(f"error: imported acdc_prov from {acdc_prov.__file__}, not {src}")


def time_setup(workload, setup_times: list[float], seconds: float) -> None:
    """Repeat the set-up, discarding its result, for at least ``seconds``."""
    spent = 0.0
    while True:
        start = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - start)
        spent += setup_times[-1]
        if spent >= seconds:
            return


def measure(workload, seconds: float, alternate_tracing: bool = False,
            setup_times: list[float] | None = None) -> dict:
    """Run whole passes of operations until they have taken ``seconds``.

    Each operation is timed from its start to its return, whatever its
    outcome; a failed operation stays in the timings. Input generation
    between operations, and set-ups timed into ``setup_times`` between
    passes, are outside the timed window. With ``alternate_tracing``,
    every second pass is traced, so traced and untraced passes see the
    same machine conditions.
    """
    tracer = workload.tracer
    latencies: list[float] = []
    traced: list[bool] = []
    failed = 0
    busy = 0.0
    passes = 0
    while busy < seconds or (alternate_tracing and passes < 2):
        if alternate_tracing:
            tracer.enabled = passes % 2 == 1
        for op in workload.passes():
            tracer.request = len(latencies)
            start = perf_counter()
            try:
                with tracer.span("op"):
                    ok = op()
            except Exception:
                ok = False
                if failed < 3:
                    traceback.print_exc(file=sys.stderr)
            elapsed = perf_counter() - start
            latencies.append(elapsed)
            traced.append(tracer.enabled)
            busy += elapsed
            failed += not ok
            tracer.request = OUTSIDE
            if tracer.enabled:
                workload.after_op()
        passes += 1
        if setup_times is not None:
            time_setup(workload, setup_times, SETUP_GAP_SECONDS)
    return {
        "latencies": latencies,
        "traced": traced,
        "failed": failed,
        "busy": busy,
        "passes": passes,
    }


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """(value, samples beyond it) of ``percentile``, by nearest rank. Runs
    measure whole passes of a fixed mix, so the rank falls at the same
    place in the mix in every run (see Workload.tail_percentile)."""
    ordered = sorted(latencies)
    rank = math.ceil(len(ordered) * percentile / 100)
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, sample: dict, setup_times: list[float], children: bool) -> dict:
    latencies = sample["latencies"]
    tail_s, _ = tail(latencies, workload.tail_percentile)
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return {
        "ops_per_s": (len(latencies) / sample["busy"], "ops/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, sample: dict) -> dict:
    from acdc_prov import SCENARIO_NAMES, Sort

    t = workload.tracer
    ms = "ms"
    metrics = {}
    for name in (
        "storage.load_graph",
        "storage.load_graph_unchecked",
        "storage.save_graph",
        "storage.load_environment",
        "graph.validate_typing",
        "graph.validate_acyclic",
        "events.slice_by_agent",
        "policy.parse_policy",
        "policy.bind",
        "evaluator.evaluate",
        "cli.main",
    ):
        metrics[f"{name}_ms"] = (t.median_ms(name), ms)
    for policy in VOTING_POLICIES + ENCAPSULATION_POLICIES:
        metrics[f"evaluator.evaluate_ms.{policy}"] = (
            t.median_ms("evaluator.evaluate", policy), ms)
    for scenario in SCENARIO_NAMES:
        metrics[f"scenarios.run_scenario_ms.{scenario}"] = (
            t.median_ms("scenarios.run_scenario", scenario), ms)
    interpreter = statistics.median(t.durations_ms("cli.interpreter"))
    metrics["cli.interpreter_ms"] = (interpreter, ms)
    metrics["cli.import_ms"] = (statistics.median(t.durations_ms("cli.import")) - interpreter, ms)
    for name in ("graph.vertices", "graph.edges", "events.slice_vertices",
                 "events.slice_edges"):
        metrics[name] = (t.median_count(name), "count")
    metrics["events.slice_fraction"] = (t.median_count("events.slice_fraction"), "fraction")
    evaluate_s = sum(t.durations_ms("evaluator.evaluate")) / 1e3
    metrics["evaluator.revalidate_share"] = (
        sum(t.counts["evaluator.revalidate_s"]) / evaluate_s, "fraction")
    for sort in Sort:
        name = f"evaluator.domain.{sort.value}"
        metrics[name] = (t.median_count(name), "count")
    for outcome in ("true", "false"):
        metrics[f"evaluator.verdicts_{outcome}"] = (
            float(len(t.counts[f"evaluator.verdicts_{outcome}"])), "count")
    shares = t.self_shares()
    for layer in ("storage", "graph", "events", "policy", "evaluator", "scenarios", "cli",
                  "harness"):
        metrics[f"{layer}.self_share"] = (shares.get(layer, 0.0), "fraction")
    pairs = list(zip(sample["latencies"], sample["traced"]))
    mean_traced = statistics.mean(x for x, on in pairs if on)
    mean_untraced = statistics.mean(x for x, on in pairs if not on)
    metrics["trace.overhead_share"] = ((mean_traced - mean_untraced) / mean_untraced, "fraction")
    return metrics


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("gate", "audit", "ingest", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    import_program(root)
    from workloads import WORKLOADS

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = root / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        tracer = Tracer(enabled=False)
        workload = WORKLOADS[args.workload](args.seed, tracer, root, work)
        start = perf_counter()
        workload.state = workload.setup()
        setup_times = [perf_counter() - start]

        if args.trace:
            # Traced and untraced passes alternate; the difference of their
            # mean latencies is the tracing overhead.
            tracer.enabled = True
            workload.state = workload.setup()
            sample = measure(workload, args.seconds, alternate_tracing=True)
            tracer.enabled = True
            workload.probe_layers()
            metrics = per_layer(workload, sample)
            tracer.write(results / f"{args.workload}-seed{args.seed}-spans.jsonl")
        else:
            for _ in range(SETUP_REPEATS - 1):
                time_setup(workload, setup_times, 0.0)
            sample = measure(workload, args.seconds, setup_times=setup_times)
            metrics = end_to_end(workload, sample, setup_times, children=args.workload == "cli")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(sample["latencies"])
    failed = sample["failed"]
    _, beyond = tail(sample["latencies"], workload.tail_percentile)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": args.seed == HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "input_sizes": [{"vertices": v, "edges": e} for v, e in workload.sizes()],
        "samples": {
            "operations": attempted,
            "passes": sample["passes"],
            "setup_repeats": len(setup_times),
            "tail_percentile": workload.tail_percentile,
            "tail_samples_beyond": beyond,
        },
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "probe_failures": workload.probe_failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()
                    if name not in RECORD_ONLY},
        "record_only": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()
                        if name in RECORD_ONLY},
    }
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0 and workload.probe_failures == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
