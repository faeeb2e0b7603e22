"""Every convergent power series in ``src/gammalab`` sums in
``kernels._power_sum``.

That loop is the one place its stop test, a term at most 1e-18 of the sum,
is written.  A second hand-written series loop would bring its own copy of
that literal, or a stop test of its own: any float literal between 1e-30
and 1e-15 inside a comparison fails here.  Two are allowed: the loop's own
1e-18, and the 5e-17 at which ``_e1_cf``'s continued fraction, not a
series, stops.  The divergent asymptotic sums keep their fixed lengths, and
``_ein`` its 20-term ``math.fsum``, the one convergent series kept off the
loop; neither compares a term with a small literal.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gammalab"
FILES = sorted(p.name for p in SRC.glob("*.py"))
ALLOWED = {"kernels.py": [("_e1_cf", 5e-17), ("_power_sum", 1e-18)]}


def _small_float(node):
    return (isinstance(node, ast.Constant) and type(node.value) is float
            and 1e-30 < node.value < 1e-15)


def findings(source):
    """(top-level name, value) of each float literal equal to 1e-18, and of
    each literal in (1e-30, 1e-15) inside a comparison."""
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        in_compare = {id(sub) for node in ast.walk(top)
                      if isinstance(node, ast.Compare)
                      for sub in ast.walk(node) if _small_float(sub)}
        found += [(where, node.value) for node in ast.walk(top)
                  if _small_float(node)
                  and (node.value == 1e-18 or id(node) in in_compare)]
    return sorted(found)


@pytest.mark.parametrize("name", FILES)
def test_stop_test_only_in_power_sum(name):
    assert findings((SRC / name).read_text()) == ALLOWED.get(name, [])


@pytest.mark.parametrize("code", [
    "def f(x):\n    while abs(t) > 1e-18 * abs(acc):\n        pass",
    "TOL = 1.0e-18",
    "g = lambda t, s: t < 1e-18 * (abs(s) + 1e-30)",
    "def f(t, s):\n    return abs(t) <= 1e-19 * max(abs(s), 1e-25)",
    "def f(t):\n    if 2.0 * abs(t) <= 5e-16:\n        return t",
])
def test_guard_catches_a_second_loop(code):
    assert findings(code)


@pytest.mark.parametrize("code", [
    "# stops at 1e-18 of the sum\nx = '1e-18'",
    "EPS = 1e-19\nok = abs(t) <= 1e-14 * abs(s)",
    "def f(t):\n    return abs(t) < 1e-30 or abs(t) < 1e-15",
])
def test_guard_passes_other_literals(code):
    assert findings(code) == []
