"""Run every workload on several seeds and record the end-to-end baseline.

    python3 perfbench/baseline.py

Runs each workload once per seed in SEEDS, for BENCHMARK.json's
run_seconds, and writes perfbench/baseline.json: for each workload and
end-to-end metric, the value of every run, the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread, which is the distance
between the quartiles as a share of the median.  Takes about half a minute
per run.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(10))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {"seeds": SEEDS, "seconds": seconds,
           "machine": f"{platform.processor() or platform.machine()}, "
                      f"Python {platform.python_version()}",
           "workloads": {}}
    for wl in bench["workloads"]:
        runs = []
        for seed in SEEDS:
            r = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload",
                 wl["name"], "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if r.returncode != 0:
                print(r.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(r.stdout.strip().splitlines()[-1]))
            print(wl["name"], seed, runs[-1]["correct"], runs[-1]["failed"],
                  "of", runs[-1]["attempted"], flush=True)
        summary = {"correct": [x["correct"] for x in runs],
                   "fail_frac": [x["failed"] / x["attempted"] for x in runs],
                   "metrics": {}}
        for m in bench["end_to_end"]:
            vals = [x["metrics"][m["name"]]["value"] for x in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary["metrics"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": m["bound"],
                "values": vals}
            print(f"  {m['name']:12s} median {med:.6g} {m['unit']}  "
                  f"spread {(q3 - q1) / med:.4f} (bound {m['bound']})",
                  flush=True)
        out["workloads"][wl["name"]] = summary
        (BENCH / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
