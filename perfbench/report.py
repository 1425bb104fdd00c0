"""Print every recorded benchmark metric by name, with its unit, per workload.

    python3 perfbench/report.py [results-dir]

Reads the run records ``perfbench/run.py`` writes (by default to
``.perfbench/results/`` under the current directory).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    results = Path(argv[0]) if argv else Path(".perfbench") / "results"
    records = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(results.glob("*-trace[01].json"))
    ]
    if not records:
        print(f"no run records under {results}", file=sys.stderr)
        return 1
    records.sort(key=lambda r: (r["workload"], r["trace"], r["seed"]))
    workload = None
    for r in records:
        if r["workload"] != workload:
            workload = r["workload"]
            print(f"== {workload}")
        m, s = r["machine"], r["samples"]
        sizes = ", ".join(f"{x['vertices']}V/{x['edges']}E" for x in r["input_sizes"][:3])
        more = " ..." if len(r["input_sizes"]) > 3 else ""
        print(
            f"-- seed {r['seed']}{' (held out)' if r['held_out_seed'] else ''}, "
            f"trace {r['trace']}, {r['seconds']:g} s; Python {m['python']}, "
            f"nproc {m['nproc']}, {m['cpu_model']}"
        )
        print(
            f"   inputs {sizes}{more}; {s['operations']} ops in {s['passes']} passes, "
            f"setup x{s['setup_repeats']}, tail p{s['tail_percentile']:.2f} "
            f"({s['tail_samples_beyond']} beyond); attempted {r['attempted']}, "
            f"failed {r['failed']}, error_rate {r['error_rate']:.4f} fraction"
        )
        for name, metric in r["metrics"].items():
            print(f"   {name:44s} {metric['value']:14.6g} {metric['unit']}")
        for name, metric in r.get("record_only", {}).items():
            print(f"   {name:44s} {metric['value']:14.6g} {metric['unit']} (record only)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
