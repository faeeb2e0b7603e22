"""Regenerate the benchmark's reference files.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose verdicts have been adjudicated.

``reference/verify_all.json``: the verdicts of a serial CLI run, which every
`verify-all` and `verify-all-p2` iteration is checked against (status, and
each route's value and abs_err).

``reference/sweep.json``: the failing verdicts of one pass over the sweep's
pool (inputs.py), which every `sweep` pass is checked against: a failure
it does not list turns ``correct`` false.

``reference/kernel_args.json``: the arguments the catalog passes to each
public kernel, or to the private helper it calls in the kernel's place,
recorded in-process over one `verify --all` suite and SWEEP_ROUNDS sweep
rounds of each of SWEEP_SEEDS.  Each parameter is kept as KNOTS + 1
quantiles, from its least to its greatest value; the `kernels` workload
draws its grid between them (inputs.py), so it sees the catalog's mix of
arguments.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from collections import Counter, defaultdict

import inputs
from run import (CONSOLE, OUT, REFERENCE, SRC, SWEEP_REFERENCE, child_env,
                 run_json)

KERNEL_ARGS = REFERENCE.parent / "kernel_args.json"
SWEEP_SEEDS = range(10)
SWEEP_ROUNDS = 40
KNOTS = 20


def _x(x):
    return (x,)


# grid kernel -> {function the catalog calls: its arguments -> the
# kernel's parameters (None: not this kernel)}
SOURCES = {
    "log_gamma": {"log_gamma": _x, "_lgamma": _x},
    "digamma": {"_digamma_real": _x, "_digamma_pos": _x},
    # the catalog reaches the complex kernel only through lambda_fn, which
    # evaluates psi(1 + iv) for v != 0
    "digamma_complex": {"lambda_fn": lambda v: (1.0, v) if v else None},
    "polygamma": {"polygamma": lambda k, x: (k, x),
                  "_psi1": lambda x: (1, x), "_psi2": lambda x: (2, x)},
    "lambda_fn": {"lambda_fn": _x},
    "sici": {"sici": _x, "_sici_raw": _x},
    "exp_integral": {"exp_integral": _x},
    "zeta_family": {"_hurwitz": lambda s, a: (s, a)},
    "log_barnes_g": {"log_barnes_g": _x, "_lnG": _x},
    "clausen_cl2": {"clausen_cl2": _x, "_cl2": _x},
    "bernoulli_poly": {"bernoulli_poly": lambda n, x: (n, x),
                       "_bpoly": lambda n, x: (n, x)},
}


def write_verify_all() -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / "reference-run.json"
    subprocess.run([sys.executable, "-c", CONSOLE, "verify", "--all",
                    "--no-timing", "--json", str(path)], check=True,
                   env=child_env(), stdout=subprocess.DEVNULL)
    verdicts = json.loads(path.read_text())["verdicts"]
    keep = ("id", "params", "status", "lhs", "rhs")
    ref = [{k: v[k] for k in keep} for v in verdicts]
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(ref, indent=0) + "\n")
    print(f"{len(ref)} verdicts written to {REFERENCE}")


def write_sweep() -> None:
    res = run_json(["sweep"], json.dumps(
        {"seed": 0, "pass": 0, "trace_dir": None}))
    failing = sorted(res["failures"])
    out = {"pool": f"the first {inputs.SWEEP_ROUNDS} rounds of seed "
                   f"{inputs.SWEEP_POOL_SEED}",
           "verdicts": res["tally"]["attempted"], "failed": len(failing),
           "failing": failing}
    # one failing verdict a line
    head = json.dumps({k: v for k, v in out.items() if k != "failing"})
    rows = ",\n".join(json.dumps(f) for f in failing)
    SWEEP_REFERENCE.write_text(f'{head[:-1]}, "failing": [\n{rows}\n]}}\n')
    print(f"{len(failing)} of {out['verdicts']} sweep verdicts fail; "
          f"written to {SWEEP_REFERENCE}")


def write_kernel_args() -> None:
    sys.path.insert(0, str(SRC))
    import gammalab
    import gammalab.kernels as K
    from gammalab.registry import Registry
    from inputs import sweep_records, sweep_rounds

    seen, via = defaultdict(list), defaultdict(Counter)

    def recorder(fname, fn):
        targets = [(kernel, conv) for kernel, src in SOURCES.items()
                   for name, conv in src.items() if name == fname]

        def recorded(*args, **kwargs):
            # calls made inside the kernels module are not the catalog's
            if sys._getframe(1).f_globals["__name__"] != K.__name__:
                for kernel, conv in targets:
                    params = conv(*args)
                    if params is not None:
                        seen[kernel].append(params)
                        via[kernel][fname] += 1
            return fn(*args, **kwargs)
        return recorded

    names = {n for src in SOURCES.values() for n in src}
    wrapped = {id(getattr(K, n)): recorder(n, getattr(K, n)) for n in names}
    for mod in [m for n, m in sys.modules.items() if n.startswith("gammalab")]:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])

    reg = Registry()
    reg.run_suite()
    records = sweep_records(reg)
    for seed in SWEEP_SEEDS:
        rounds = sweep_rounds(records, seed)
        for _ in range(SWEEP_ROUNDS):
            for rid, params in next(rounds):
                reg.verify_identity(rid, params)

    out = {"recorded_over": f"one `verify --all` suite and {SWEEP_ROUNDS} "
                            f"sweep rounds of seeds {SWEEP_SEEDS.start}-"
                            f"{SWEEP_SEEDS.stop - 1}",
           "gammalab": gammalab.__version__, "kernels": {}}
    for kernel, src in SOURCES.items():
        calls = seen.get(kernel)
        if not calls:
            print(f"{kernel}: the catalog never calls it")
            continue
        knots = [[min(col), *statistics.quantiles(col, n=KNOTS,
                                                  method="inclusive"),
                  max(col)] for col in zip(*calls)]
        out["kernels"][kernel] = {"calls": len(calls),
                                  "via": dict(sorted(via[kernel].items())),
                                  "knots": knots}
        print(f"{kernel}: {len(calls)} calls")
    KERNEL_ARGS.write_text(json.dumps(out, indent=1) + "\n")
    print(f"argument knots written to {KERNEL_ARGS}")


def main() -> int:
    write_verify_all()
    write_sweep()
    write_kernel_args()
    return 0


if __name__ == "__main__":
    sys.exit(main())
