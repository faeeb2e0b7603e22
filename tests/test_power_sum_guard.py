"""Every convergent power series in ``src/gammalab`` sums in
``kernels._power_sum``.

That loop is the one place its stop test, a term at most 1e-18 of the sum,
is written.  A second hand-written Maclaurin loop would bring its own copy
of the literal, and fails here.  The divergent asymptotic sums keep their
fixed lengths and ``series_catalog._ps_fast`` its capped loop with a rest
bound; neither uses 1e-18.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gammalab"
FILES = sorted(p.name for p in SRC.glob("*.py"))
HOME = ("kernels.py", "_power_sum")


def findings(source):
    """The top-level name around each float literal equal to 1e-18."""
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Constant)
                    and type(node.value) is float and node.value == 1e-18):
                found.append(where)
    return found


@pytest.mark.parametrize("name", FILES)
def test_stop_test_only_in_power_sum(name):
    found = findings((SRC / name).read_text())
    assert found == ([HOME[1]] if name == HOME[0] else [])


@pytest.mark.parametrize("code", [
    "def f(x):\n    while abs(t) > 1e-18 * abs(acc):\n        pass",
    "TOL = 1.0e-18",
    "g = lambda t, s: t < 1e-18 * (abs(s) + 1e-30)",
])
def test_guard_catches_a_second_loop(code):
    assert len(findings(code)) == 1


@pytest.mark.parametrize("code", [
    "def f(t, s):\n    return abs(t) <= 1e-19 * max(abs(s), 1e-25)",
    "# stops at 1e-18 of the sum\nx = '1e-18'",
])
def test_guard_passes_other_literals(code):
    assert findings(code) == []
