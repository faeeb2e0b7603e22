"""gammalab benchmark: one workload per run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 25 \
        --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the same workload with spans around the package's layers, writes them
under ``perfbench/out/`` and prints the per-layer metrics together with
the tracing overhead.  Workloads and their checks are described in
``perfbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
REFERENCE = BENCH / "reference" / "verify_all.json"
SWEEP_REFERENCE = BENCH / "reference" / "sweep.json"
# what the `gammalab` console script runs
CONSOLE = "import sys; from gammalab.cli import main; sys.exit(main())"
# fresh set-up processes per run, half before and half after the workload
SETUP_SAMPLES = 16
# tails are taken per block of this many samples, then the median of blocks
TAIL_BLOCK = 200
TIMEOUT_S = 150.0

sys.path.insert(0, str(BENCH))
from tracer import KERNELS, ROUTE_KINDS  # noqa: E402
from yardstick import REF_S, scale, yardstick_all_cpus  # noqa: E402

clock = time.perf_counter


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def build() -> None:
    """Check the source tree and byte-compile it, so no run pays for it."""
    if not (SRC / "gammalab" / "__init__.py").is_file():
        raise BenchError(f"no gammalab package under {SRC}")
    r = subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(SRC / "gammalab")], capture_output=True,
                       text=True, timeout=TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError("byte-compiling src/gammalab failed:\n" + r.stdout)


def run_json(args: list[str], stdin: str | None = None) -> dict:
    """Run a worker mode and parse the JSON line it prints."""
    r = subprocess.run([sys.executable, str(WORKER), *args], input=stdin,
                       capture_output=True, text=True, env=child_env(),
                       timeout=TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError(f"worker {args[0]} failed:\n{r.stderr[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def cold_run(argv: list[str], trace_dir: Path | None = None):
    """One `gammalab ARGV` process: (wall seconds, exit code, peak RSS MB)."""
    if trace_dir is None:
        cmd = [sys.executable, "-c", CONSOLE, *argv]
    else:
        cmd = [sys.executable, str(WORKER), "cli", str(trace_dir), "--",
               *argv]
    with open(OUT / "stderr.txt", "w") as err:
        t0 = clock()
        p = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                             stderr=err)
        watchdog = threading.Timer(TIMEOUT_S, p.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            watchdog.cancel()
        wall = clock() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, usage.ru_maxrss / 1024.0


class Scaler:
    """Scales each interval by the yardstick timed on either side of it."""

    def __init__(self):
        self.yard_s = [yardstick_all_cpus()]

    def next_scale(self) -> float:
        self.yard_s.append(yardstick_all_cpus())
        return scale(self.yard_s[-2], self.yard_s[-1])


def setup_samples(count: int) -> list[dict]:
    """Scaled set-up steps (import_s, constants_s, registry_s) of ``count``
    fresh processes, each run on the same single CPU as its yardstick."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        scaler, out = Scaler(), []
        for _ in range(count):
            steps = run_json(["setup"])
            factor = scaler.next_scale()
            out.append({k: v * factor for k, v in steps.items()})
    finally:
        os.sched_setaffinity(0, cpus)
    return out


# ---------------------------------------------------------------------------
# checks of `verify --json` output
# ---------------------------------------------------------------------------

def _drifted(a: dict, b: dict) -> bool:
    va, vb = float(a["value"]), float(b["value"])
    if va == vb or (math.isnan(va) and math.isnan(vb)):
        return False
    return not abs(va - vb) <= float(a["abs_err"]) + float(b["abs_err"])


def _without_reported(record: dict) -> dict:
    rec = dict(record)
    diag = {k: v for k, v in rec.pop("diagnostics", {}).items()
            if k != "reported"}
    if diag:
        rec["diagnostics"] = diag
    return rec


def check_report(verdicts: list[dict], reference: list[dict],
                 serial: list[dict] | None = None,
                 reported_missing: frozenset = frozenset()
                 ) -> tuple[int, bool]:
    """(failed verdicts, whether a failure is outside the known defects).

    A verdict fails when its status differs from the reference, when a
    route value drifts from the reference by more than both errors, or
    (``serial`` given) when its record differs from the serial run's.  The
    known difference from the serial run is a missing
    ``diagnostics.reported`` on the ``(id, params)`` in ``reported_missing``.
    """
    if len(verdicts) != len(reference):
        return len(reference), True
    failed, unexpected = 0, False
    for i, (v, ref) in enumerate(zip(verdicts, reference)):
        bad = (v["id"] != ref["id"] or v["params"] != ref["params"]
               or v["status"] != ref["status"]
               or _drifted(v["lhs"], ref["lhs"])
               or _drifted(v["rhs"], ref["rhs"]))
        unexpected |= bad
        if serial is not None and v != serial[i]:
            bad = True
            known = (v["id"], tuple(v["params"])) in reported_missing
            unexpected |= not known or v != _without_reported(serial[i])
        failed += bad
    return failed, unexpected


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def run_cli(spec: dict, seconds: float, trace: bool) -> dict:
    """Cold `gammalab verify --all` runs until ``seconds`` have passed."""
    reference = json.loads(REFERENCE.read_text())
    json_path, md_path = OUT / "report.json", OUT / "report.md"

    def cli_argv(parallelism: int) -> list[str]:
        return ["verify", "--all", "--no-timing", "--json", str(json_path),
                "--md", str(md_path), "--parallelism", str(parallelism)]

    def read_verdicts() -> list[dict]:
        verdicts = json.loads(json_path.read_text())["verdicts"]
        json_path.unlink()
        if not md_path.read_text().startswith("# Identity"):
            raise BenchError("markdown report missing")
        return verdicts

    serial = None
    reported_missing = frozenset((rid, tuple(params)) for rid, params
                                 in spec.get("reported_missing", ()))
    if spec["parallelism"] > 1:
        # the serial run the parallel records must equal, outside the timing
        _, rc, _ = cold_run(cli_argv(1))
        serial = read_verdicts() if rc == 0 else None
        if serial is None or check_report(serial, reference)[0]:
            raise BenchError("the serial reference run failed its checks")

    res = {"iter_s": [], "traced_iter_s": [], "raw_iter_s": [], "rss": [],
           "attempted": 0, "failed": 0, "correct": True, "trace_dirs": []}
    scaler = Scaler()
    start = clock()
    i = 0
    while clock() - start < seconds or len(res["iter_s"]) < 20:
        traced = trace and i % 2 == 1
        trace_dir = None
        if traced:
            trace_dir = OUT / "spans" / f"run{i}"
            trace_dir.mkdir(parents=True)
            res["trace_dirs"].append(trace_dir)
        wall, rc, rss = cold_run(cli_argv(spec["parallelism"]), trace_dir)
        i += 1
        res["traced_iter_s" if traced else "iter_s"].append(
            wall * scaler.next_scale())
        if not traced:
            res["raw_iter_s"].append(wall)
            res["rss"].append(rss)
        res["attempted"] += len(reference)
        if rc != 0:
            res["failed"] += len(reference)
            res["correct"] = False
            err = (OUT / "stderr.txt").read_text().strip().splitlines()
            res["detail"] = [(f"gammalab exit code {rc}", err[-1:])]
            continue
        failed, unexpected = check_report(read_verdicts(), reference, serial,
                                          reported_missing)
        res["failed"] += failed
        res["correct"] &= not unexpected
    n = len(reference)
    res["op_s"] = [w / n for w in res["iter_s"]]
    res["ops_per_iteration"] = n
    res["peak_rss_mb"] = statistics.median(res["rss"])
    res["yardstick_s"] = scaler.yard_s
    return res


def run_sweep(spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Passes over the sweep's pool, each in a fresh worker process, while
    one more pass, as long as the last, still ends within ``seconds``.

    A fresh process per pass keeps the pool's repeated inputs from hitting
    the module-level caches.  Every pass fails the same verdicts; correct
    turns false on a failure that reference/sweep.json does not list.
    """
    known = {(i, rid) for i, rid, _ in
             json.loads(SWEEP_REFERENCE.read_text())["failing"]}
    res = {"iter_s": [], "op_s": [], "traced_iter_s": [], "raw_iter_s": [],
           "yardstick_s": [], "rss": [], "trace_dirs": []}
    tally, unknown = Counter(), set()
    start, pass_s = clock(), 0.0
    k = 0
    while k < 2 or clock() - start + pass_s <= seconds:
        t0 = clock()
        traced = trace and k % 2 == 1
        trace_dir = None
        if traced:
            trace_dir = OUT / "spans" / f"pass{k}"
            trace_dir.mkdir(parents=True)
            res["trace_dirs"].append(trace_dir)
        r = run_json(["sweep"], json.dumps(
            {"seed": seed, "pass": k,
             "trace_dir": str(trace_dir) if traced else None}))
        k += 1
        pass_s = clock() - t0
        tally.update(r["tally"])
        unknown.update((i, rid, status) for i, rid, status in r["failures"]
                       if (i, rid) not in known)
        if traced:
            res["traced_iter_s"] += r["iter_s"]
            continue
        for key in ("iter_s", "op_s", "raw_iter_s", "yardstick_s"):
            res[key] += r[key]
        res["rss"].append(r["peak_rss_mb"])
    res.update(ops_per_iteration=r["ops_per_iteration"],
               peak_rss_mb=statistics.median(res["rss"]),
               attempted=tally["attempted"], failed=tally["failed"],
               correct=not unknown)
    res["detail"] = [("passes over the pool", k), *sorted(
        (f"per pass, {key}", n // k) for key, n in tally.items()
        if key.startswith("status:"))]
    if unknown:
        res["detail"].append(("failing beyond reference/sweep.json",
                              sorted(unknown)[:20]))
    return res


def run_kernels(spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Passes over the kernel grid in one reused process."""
    from inputs import kernel_grid
    from oracle import reference
    refs = [[[v.real, v.imag] if isinstance(v, complex) else v
             for v in reference(name, args)]
            for name, _, args in kernel_grid(seed)]
    trace_dir = OUT / "spans" / "worker"
    if trace:
        trace_dir.mkdir(parents=True)
    res = run_json(["kernels"], json.dumps(
        {"seed": seed, "seconds": seconds, "refs": refs,
         "trace_dir": str(trace_dir) if trace else None}))
    t = res["tally"] = Counter(res["tally"])
    res.update(attempted=t["attempted"], failed=t["failed"],
               correct=t["failed"] == 0,
               trace_dirs=[trace_dir] if trace else [])
    res["detail"] = sorted((k, v) for k, v in res["tally"].items()
                           if k.startswith("fail:"))
    return res


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(samples: list[float], unit: int = 1) -> tuple[float, float, int]:
    """(value, percentile, blocks): the highest percentile that still has
    at least ten samples above it.

    Samples are split, in order, into blocks of whole iterations of
    ``unit`` samples each, at least TAIL_BLOCK samples a block (one block
    when there are fewer); the value is the median over blocks of each
    block's tail, so that one stall does not set it.
    """
    size = unit * -(-TAIL_BLOCK // unit)
    n_blocks = max(1, len(samples) // size)
    cuts = [b * size for b in range(n_blocks)] + [len(samples)]
    blocks = [sorted(samples[a:b]) for a, b in zip(cuts, cuts[1:])]
    if len(blocks[0]) < 11:
        raise BenchError(f"{len(samples)} samples are too few for a tail")
    first = len(blocks[0])
    return (statistics.median(b[-11] for b in blocks),
            100.0 * (first - 10) / first, n_blocks)


def end_to_end(res: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    it, op = res["iter_s"], res["op_s"]
    wt, wq, wb = tail(it)
    ot, oq, ob = tail(op, len(op) // len(it))
    ops = res["ops_per_iteration"] * len(it)
    m = {
        "wall_s.p50": (statistics.median(it), "s"),
        "wall_s.tail": (wt, "s"),
        "ops_per_s": (ops / sum(it), "1/s"),
        "op_s.p50": (statistics.median(op), "s"),
        "op_s.tail": (ot, "s"),
        "setup_s": (statistics.median(sum(s.values()) for s in setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = [f"wall_s.tail is p{wq:.1f}, the median over {wb} block(s) of "
             f"{len(it)} iterations",
             f"op_s.tail is p{oq:.1f}, the median over {ob} block(s) of "
             f"{len(op)} operations",
             f"setup_s is the median of {len(setups)} fresh processes",
             "times are scaled to the yardstick's reference "
             f"{REF_S * 1e3:g} ms (perfbench/yardstick.py); this run's "
             "yardstick median "
             f"{statistics.median(res['yardstick_s']) * 1e3:.3f} ms, "
             "unscaled wall_s.p50 "
             f"{statistics.median(res['raw_iter_s']):.6g} s"]
    return m, notes


def _load_spans(dirs: list[Path]):
    total, self_s, calls, counts = Counter(), Counter(), Counter(), Counter()
    n_spans = 0
    for d in dirs:
        for f in sorted(d.glob("spans-*.json")):
            doc = json.loads(f.read_text())
            # a span still open when its process ended is None
            spans = doc["spans"]
            child = [0.0] * len(spans)
            for s in filter(None, spans):
                if s[3] >= 0:
                    child[s[3]] += s[2] - s[1]
            for s, covered in zip(spans, child):
                if s is not None:
                    name, t0, t1, _ = s
                    total[name] += t1 - t0
                    self_s[name] += t1 - t0 - covered
                    calls[name] += 1
                    n_spans += 1
            counts.update(doc["counts"])
    return total, self_s, calls, counts, n_spans


def per_layer(res: dict, setups: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics (per iteration) and a table of every span name."""
    total, self_s, calls, counts, n_spans = _load_spans(res["trace_dirs"])
    n = len(res["traced_iter_s"])

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m = {}
    for k in ("import_s", "constants_s", "registry_s"):
        m[f"cli.setup.{k}"] = (statistics.median(s[k] for s in setups), "s")
    for name in ("series_catalog", "series_catalog.ps"):
        m[f"{name}.calls"] = (calls[name] / n, "count")
        m[f"{name}.s"] = (total[name] / n, "s")
        m[f"{name}.terms"] = (counts[f"{name}.terms"] / n, "count")
    m["series_catalog.ns_per_term"] = (ratio(
        total["series_catalog"], counts["series_catalog.terms"], 1e9), "ns")
    m["integral_catalog.calls"] = (calls["integral_catalog"] / n, "count")
    m["integral_catalog.s"] = (total["integral_catalog"] / n, "s")
    m["integral_catalog.evals"] = (counts["integral_catalog.evals"] / n,
                                   "count")
    m["integral_catalog.unconverged"] = (
        counts["integral_catalog.unconverged"] / n, "count")
    m["integral_catalog.ns_per_eval"] = (ratio(
        total["integral_catalog"], counts["integral_catalog.evals"], 1e9),
        "ns")
    m["quad.integrate.calls"] = (calls["quad.integrate"] / n, "count")
    m["quad.integrate.evals"] = (counts["quad.integrate.evals"] / n, "count")
    for kind in ROUTE_KINDS:
        name = f"registry.route.{kind}"
        m[f"{name}.calls"] = (calls[name] / n, "count")
        m[f"{name}.s"] = (total[name] / n, "s")
    m["registry.verify.calls"] = (calls["registry.verify"] / n, "count")
    m["registry.verify.self_s"] = (self_s["registry.verify"] / n, "s")
    m["registry.probe.s"] = (total["registry.probe"] / n, "s")
    m["registry.route_failures"] = (counts["registry.route_failures"] / n,
                                    "count")
    m["registry.executor.s"] = (total["registry.executor"] / n, "s")
    # summed verdict wall_time over parallelism x elapsed suite time
    capacity = ratio(counts["registry.executor.parallelism"],
                     calls["registry.executor"]) * total["registry.executor"]
    m["registry.executor.busy_frac"] = (
        ratio(counts["registry.executor.busy_s"], capacity), "ratio")
    for fn in KERNELS:
        name = f"kernels.{fn}"
        m[f"{name}.calls"] = (calls[name] / n, "count")
        m[f"{name}.s"] = (total[name] / n, "s")
        m[f"{name}.us_per_call"] = (ratio(total[name], calls[name], 1e6),
                                    "us")
    for part in ("build", "json", "md"):
        m[f"report.{part}_s"] = (total[f"report.{part}"] / n, "s")
    m["trace.overhead_s"] = (statistics.median(res["traced_iter_s"])
                             - statistics.median(res["iter_s"]), "s")
    m["trace.spans"] = (n_spans / n, "count")
    table = {name: {"calls": calls[name] / n, "s": total[name] / n,
                    "self_s": self_s[name] / n} for name in sorted(total)}
    return m, table


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    specs = json.loads((BENCH / "workloads.json").read_text())
    if args.workload not in specs:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(specs)}", file=sys.stderr)
        return 2
    spec = specs[args.workload]
    trace = bool(args.trace)
    if spec["parallelism"] == 1:
        # the serial workloads and their yardstick share one CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        build()
        shutil.rmtree(OUT, ignore_errors=True)
        OUT.mkdir(parents=True)
        setups = setup_samples(SETUP_SAMPLES // 2)
        if spec["kind"] == "cli":
            res = run_cli(spec, args.seconds, trace)
        elif spec["kind"] == "sweep":
            res = run_sweep(spec, args.seed, args.seconds, trace)
        else:
            res = run_kernels(spec, args.seed, args.seconds, trace)
        setups += setup_samples(SETUP_SAMPLES - len(setups))
        if trace:
            metrics, table = per_layer(res, setups)
            notes = [f"{len(res['traced_iter_s'])} traced and "
                     f"{len(res['iter_s'])} untraced iterations; values are "
                     "per traced iteration; span times are unscaled, "
                     "trace.overhead_s and cli.setup.* are scaled"]
        else:
            metrics, notes = end_to_end(res, setups)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "per_layer" if trace else "end_to_end"]
        if [(d["name"], d["unit"]) for d in declared] != [
                (k, u) for k, (_, u) in metrics.items()]:
            raise BenchError("metrics differ from those BENCHMARK.json "
                             "declares")
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  {spec['process']}; parallelism {spec['parallelism']}; "
          f"{res['ops_per_iteration']} operations per iteration")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':40s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted})")
    for note in notes + [f"{k}: {v}" for k, v in res.get("detail", [])]:
        print(f"  {note}")
    if trace:
        summary = {"workload": args.workload, "seed": args.seed,
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "spans": table}
        path = OUT / f"trace-{args.workload}.json"
        path.write_text(json.dumps(summary, indent=1))
        print(f"  spans and layer counts: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": bool(res["correct"]), "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
