"""Seeded inputs for the ``sweep`` and ``kernels`` workloads.

The worker generates them from the seed it is given; run.py generates the
kernel grid from the same seed for the mpmath references.  Only the seed
crosses the process boundary.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# points per public kernel in one pass over the grid
KERNEL_POINTS = 64


# the sweep's fixed pool of rounds: the first SWEEP_ROUNDS rounds of seed
# SWEEP_POOL_SEED.  Every run verifies the same pool, so every run fails
# the same verdicts and reports the same share of failures.  136 draws per
# identity show a defect that hits 5% of draws with a chance above 99.9%.
SWEEP_POOL_SEED = 0
SWEEP_ROUNDS = 136


def sweep_rounds(records, seed: int):
    """Yield rounds; each holds one uniform parameter tuple per record, drawn
    over the record's declared ``param_domain``."""
    rng = random.Random(seed)
    while True:
        yield [(r.id, tuple(rng.uniform(lo, hi) for lo, hi in r.param_domain))
               for r in records]


def sweep_pool(records):
    """The pool's rounds, in draw order."""
    rounds = sweep_rounds(records, SWEEP_POOL_SEED)
    return [next(rounds) for _ in range(SWEEP_ROUNDS)]


def sweep_order(seed: int, pass_no: int) -> list[int]:
    """The order in which pass ``pass_no`` of a run with ``seed`` visits the
    pool's rounds."""
    order = list(range(SWEEP_ROUNDS))
    random.Random(f"{seed}/{pass_no}").shuffle(order)
    return order


def sweep_records(registry):
    """The parametric identities, in id order."""
    return [r for r in registry.list_identities()
            if r.param_names and r.probe is None]


KERNEL_ARGS = Path(__file__).resolve().parent / "reference" \
    / "kernel_args.json"

# grid kernel -> its call arguments from one draw of each parameter
KERNEL_ARGS_OF = {
    "log_gamma": None, "digamma": None,
    "digamma_complex": lambda re, im: (complex(re, im),),
    "polygamma": lambda k, x: (round(k), x),
    "lambda_fn": None, "sici": None,
    "exp_integral": None,
    "zeta_family": lambda s, a: ("hurwitz", s, a),
    "log_barnes_g": None, "clausen_cl2": None,
    "bernoulli_poly": lambda n, x: (round(n), x),
}


def _between(rng, knots):
    """A draw from the piecewise-uniform distribution between quantile
    knots: each gap between neighbouring knots gets the same share."""
    u = rng.random() * (len(knots) - 1)
    i = int(u)
    return knots[i] + (u - i) * (knots[i + 1] - knots[i])


def _draw(rng, name, knots):
    while True:
        p = [_between(rng, k) for k in knots]
        # digamma has poles at 0, -1, -2, ...
        if name != "digamma" or p[0] > 0.0 or p[0] != int(p[0]):
            break
    return (KERNEL_ARGS_OF[name] or (lambda *a: a))(*p)


def kernel_knots():
    """Quantile knots of each parameter of each grid kernel.

    They are those of the arguments the catalog passes to the kernel
    (reference/kernel_args.json, written by make_reference.py).  polygamma
    is the one public kernel the catalog never calls: for it, k is 1 or 2
    (its whole documented domain) and x is uniform on [0.01, 50], a range
    chosen here, not taken from any caller.
    """
    knots = {name: k["knots"] for name, k in
             json.loads(KERNEL_ARGS.read_text())["kernels"].items()}
    knots.setdefault("polygamma", [[1, 2], [1e-2, 50.0]])
    return knots


def kernel_grid(seed: int):
    """``[(grid_name, kernel, args)]``: KERNEL_POINTS draws per kernel."""
    rng = random.Random(seed)
    knots = kernel_knots()
    grid = []
    for name in KERNEL_ARGS_OF:
        fn = "digamma" if name == "digamma_complex" else name
        grid += [(name, fn, _draw(rng, name, knots[name]))
                 for _ in range(KERNEL_POINTS)]
    return grid
