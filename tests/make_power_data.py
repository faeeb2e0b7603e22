"""Write ``data/power.json``, the refutation power ``test_power.py`` holds
the suite to:

    python tests/make_power_data.py

A verdict is only as sharp as its bars: a wrong identity whose two sides
differ by less than 100 times the bars is not REFUTED.  This measures how
wrong an identity must be before it is.  For every expected-CONFIRMED
record that is not a divergence probe, at its first default point, each
route is evaluated once.  Two wrong twins of the identity then go through
``Registry.verify_identity`` with those values and bars: the relative twin,
whose right side is rhs (1 + delta), and the absolute twin, whose right side
is rhs + delta max(1, |rhs|), for delta = 10^-k, k = 4..14.  The file holds,
per record and twin, the smallest delta whose twin is REFUTED, or null when
no delta of the grid is.  Takes about a second.
"""

import json
import statistics
from pathlib import Path

from gammalab.registry import Recipe, Registry

OUT = Path(__file__).resolve().parent / "data" / "power.json"
DELTAS = [10.0 ** -k for k in range(4, 15)]
TWINS = {
    "relative": lambda rv, delta: rv * (1.0 + delta),
    "absolute": lambda rv, delta: rv + delta * max(1.0, abs(rv)),
}


def smallest_refuted(registry: Registry | None = None) -> dict:
    """{record id: {twin: smallest REFUTED delta or None}}."""
    registry = registry or Registry()
    out = {}
    for rec in registry.list_identities(expected="CONFIRMED"):
        if rec.probe is not None:
            continue
        params = rec.default_params[0]
        lhs = rec.lhs.evaluate(params)
        rv, re_ = rec.rhs.evaluate(params)
        out[rec.id] = {}
        for twin, wrong in TWINS.items():
            refuted = [delta for delta in DELTAS if Registry([rec._replace(
                lhs=Recipe("lhs", lambda p, o: lhs),
                rhs=Recipe(twin, lambda p, o: (wrong(rv, delta), re_)))]
            ).verify_identity(rec.id, params).status == "REFUTED"]
            out[rec.id][twin] = min(refuted, default=None)
    return out


def median_delta(power: dict, twin: str) -> float:
    """The median over records of the smallest REFUTED delta, a record that
    no delta refutes counting as infinite."""
    return statistics.median(
        float("inf") if p[twin] is None else p[twin] for p in power.values())


if __name__ == "__main__":
    power = smallest_refuted()
    OUT.write_text(json.dumps(power, indent=1, sort_keys=True) + "\n")
    print(f"{len(power)} records written to {OUT}; median smallest REFUTED "
          + ", ".join(f"{t} {median_delta(power, t):g}" for t in TWINS))
