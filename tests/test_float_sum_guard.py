"""No float total in ``src/gammalab`` goes through the builtin ``sum``.

Python 3.12 gave the builtin ``sum`` a compensated float loop, so a float
total taken with it can differ in its last bit between 3.11 and 3.12, and
with it a report's bytes.  ``math.fsum`` is correctly rounded on every
version.  Every builtin ``sum(`` call left is in ``ALLOWED``, with the
reason its result cannot move a reproducible report.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gammalab"
FILES = sorted(p.name for p in SRC.glob("*.py"))

ALLOWED = {
    ("report.py", "build_report", "sum(v.wall_time for v in verdicts)"):
        "the summed route time, a wall-clock figure that `--no-timing` "
        "leaves out of the report",
}


def findings(source):
    """Counter of (top-level name, call source with its whitespace runs made
    single spaces) for each builtin ``sum`` call.  The source text, not
    ``ast.unparse``, whose output differs between Python versions."""
    found = Counter()
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "sum"):
                text = ast.get_source_segment(source, node)
                found[where, " ".join(text.split())] += 1
    return found


@pytest.mark.parametrize("name", FILES)
def test_no_builtin_sum(name):
    found = findings((SRC / name).read_text())
    assert [k for k in found if (name, *k) not in ALLOWED] == []
    # every entry still names a call that is there
    assert [k for k in ALLOWED if k[0] == name and k[1:] not in found] == []


@pytest.mark.parametrize("code", [
    "def f(n):\n    return sum(1.0 / k for k in range(1, n + 1))",
    "def f(xs):\n    return sum(xs)",
    "g = lambda xs: 2.0 * sum([x * x for x in xs])",
])
def test_guard_catches_builtin_sum(code):
    assert sum(findings(code).values()) == 1


@pytest.mark.parametrize("code", [
    "def f(n):\n    return math.fsum(1.0 / k for k in range(1, n + 1))",
    "def f(xs):\n    return np.sum(xs) + self.sum(xs)",
])
def test_guard_passes_other_sums(code):
    assert findings(code) == Counter()
