"""Child processes of the benchmark; each prints one JSON line on stdout.

    worker.py setup                     time `import gammalab` + Registry()
    worker.py cli TRACE_DIR -- ARGS...  a `gammalab ARGS` run with spans on
    worker.py sweep                     one pass over the sweep's pool;
                                        reads its request (seed, pass, trace
                                        dir) as JSON on stdin
    worker.py kernels                   a reused process; reads its request
                                        (seed, seconds, trace dir, kernel
                                        references) as JSON on stdin

Nothing here imports gammalab at module level: the timed imports are the
first ones in the process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from array import array
from collections import Counter

clock = time.perf_counter


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def phased_import() -> dict:
    """Import gammalab and build ``Registry()``, timing the three set-up
    steps a CLI run pays for: import the kernels, compute the constants,
    import the registry (and the rest of the package) and build it.

    The package object is created without running its ``__init__`` so that
    ``gammalab.kernels`` can be imported on its own; ``__init__`` runs last,
    when every submodule it names is already loaded.
    """
    import importlib.util
    t0 = clock()
    spec = importlib.util.find_spec("gammalab")
    pkg = importlib.util.module_from_spec(spec)
    sys.modules["gammalab"] = pkg
    import gammalab.kernels as kernels
    t1 = clock()
    kernels.get_constants()
    t2 = clock()
    from gammalab.registry import Registry
    Registry()
    spec.loader.exec_module(pkg)
    t3 = clock()
    return {"import_s": t1 - t0, "constants_s": t2 - t1,
            "registry_s": t3 - t2}


def run_cli_traced(trace_dir: str, argv: list[str]) -> int:
    from gammalab.cli import main
    from tracer import Tracer
    tracer = Tracer(trace_dir)
    tracer.install()
    rc = main(argv)
    tracer.dump()
    return rc


def _timed_loop(more, one_iteration, check):
    """Run iterations while ``more(iterations done, seconds elapsed)``.

    Returns iteration times and per-op latencies, both scaled by the
    yardstick timed on either side of the iteration, and the raw iteration
    times and yardstick times.  ``check`` runs after each iteration,
    outside its time.
    """
    from yardstick import scale, yardstick
    iter_s, op_s, raw_s, yard_s = [], array("d"), [], [yardstick()]
    start = clock()
    while more(len(iter_s), clock() - start):
        first = len(op_s)
        t0 = clock()
        out = one_iteration(op_s)
        raw_s.append(clock() - t0)
        yard_s.append(yardstick())
        factor = scale(yard_s[-2], yard_s[-1])
        iter_s.append(raw_s[-1] * factor)
        for i in range(first, len(op_s)):
            op_s[i] *= factor
        check(out)
    return {"iter_s": iter_s, "op_s": op_s, "raw_iter_s": raw_s,
            "yardstick_s": yard_s}


def run_sweep(req: dict) -> dict:
    """One pass over the pool, in the order the seed and pass number give.

    ``failures`` lists ``[round, id, status]`` of each failing verdict, with
    the status ``raised`` for an exception and ``mismatched`` for a verdict
    that answers another request.
    """
    from inputs import sweep_order, sweep_pool, sweep_records
    from gammalab.registry import Registry
    reg = Registry()
    records = sweep_records(reg)
    expected = {r.id: r.expected for r in records}
    pool = sweep_pool(records)
    order = sweep_order(req["seed"], req["pass"])
    rounds = iter(order)
    tally, failures = Counter(), []

    def one_round(op_s):
        i = next(rounds)
        batch = pool[i]
        out = []
        for rid, params in batch:
            t0 = clock()
            try:
                v = reg.verify_identity(rid, params)
            except Exception as exc:  # counted and reported, not fatal
                v = exc
            op_s.append(clock() - t0)
            out.append((rid, params, v))
        return i, out

    def check(out):
        i, out = out
        for rid, params, v in out:
            tally["attempted"] += 1
            if isinstance(v, Exception):
                status = "raised"
            elif v.id != rid or v.params != params:
                status = "mismatched"
            else:
                status = v.status
                if not v.note.startswith("route failure") and (
                        expected[rid] != "CONFIRMED"
                        or status == "CONFIRMED"):
                    continue
            tally["failed"] += 1
            tally[f"status:{rid}:{status}"] += 1
            failures.append([i, rid, status])

    if req.get("trace_dir"):
        from tracer import Tracer
        tracer = Tracer(req["trace_dir"])
        tracer.install()
    res = _timed_loop(lambda n, _: n < len(order), one_round, check)
    if req.get("trace_dir"):
        tracer.dump()
    res.update(ops_per_iteration=len(records), peak_rss_mb=peak_rss_mb(),
               tally=tally, failures=failures)
    return res


def run_kernels(req: dict) -> dict:
    from inputs import kernel_grid
    import gammalab.kernels as kernels
    grid = kernel_grid(req["seed"])
    refs = [[complex(*r) if isinstance(r, list) else r for r in pt]
            for pt in req["refs"]]
    tally = Counter()
    calls = []

    def resolve():
        # looked up again once tracing has rebound the kernels
        calls[:] = [(getattr(kernels, fn), args) for _, fn, args in grid]

    def one_pass(op_s):
        out = []
        for fn, args in calls:
            t0 = clock()
            try:
                r = fn(*args)
            except Exception as exc:  # counted and reported, not fatal
                r = exc
            op_s.append(clock() - t0)
            out.append(r)
        return out

    def check(out):
        for (name, _, _), r, ref in zip(grid, out, refs):
            tally["attempted"] += 1
            rs = r if isinstance(r, tuple) else (r,)
            ok = not isinstance(r, Exception) and all(
                abs(x.value - y) <= x.abs_err for x, y in zip(rs, ref))
            if not ok:
                tally["failed"] += 1
                tally[f"fail:{name}"] += 1

    resolve()
    seconds = req["seconds"]
    res = {"ops_per_iteration": len(grid)}
    if req.get("trace_dir"):
        # first half untraced, second half traced: the difference of the
        # two medians is the tracing overhead
        def more(n, t):
            return t < seconds / 2 or n < 20
        res.update(_timed_loop(more, one_pass, check))
        from tracer import Tracer
        tracer = Tracer(req["trace_dir"])
        tracer.install()
        resolve()
        res["traced_iter_s"] = _timed_loop(more, one_pass, check)["iter_s"]
        tracer.dump()
    else:
        res.update(_timed_loop(lambda n, t: t < seconds or n < 20, one_pass,
                               check))
    res["peak_rss_mb"] = peak_rss_mb()
    res["tally"] = tally
    return res


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        print(json.dumps(phased_import()))
        return 0
    if mode == "cli":
        return run_cli_traced(argv[1], argv[3:])
    req = json.load(sys.stdin)
    run = {"sweep": run_sweep, "kernels": run_kernels}[mode]
    print(json.dumps(run(req), default=list))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
