"""The closed forms of the catalog take no cancelling trig or square form
as written: sin, cos or tan of a multiple of pi (``kernels._sincos_pi``
reduces pi x exactly), ``1.0 - math.cos(..)`` (``kernels._versin``) and
``log1p(-x * x)`` (log1p(x) + log1p(-x)).

A trig call whose argument is built from the exact endpoint distances
``da``, ``db`` or ``d`` alone passes.  Every other call that matches is in
``ALLOWED``, with the reason it cannot cancel.  The guard reads each
call's own argument: a multiple of pi bound to a name first is not traced.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gammalab"
FILES = ("registry.py", "series_catalog.py", "integral_catalog.py")
TRIG = {"sin", "cos", "tan"}
PIS = {"_PI", "_TWO_PI"}
EXACT = {"da", "db", "d"}

_FACTOR = ("a bounded factor of a quadrature integrand: only its absolute "
           "error enters the integral")
_FOURIER = ("a Fourier term times a coefficient that falls with n: only its "
            "absolute error enters the sum")
ALLOWED = {
    ("integral_catalog.py", "q_2_1", "math.cos(p * _PI * x)"): _FACTOR,
    ("integral_catalog.py", "q_2_2", "math.sin(p * _PI * x)"): _FACTOR,
    ("integral_catalog.py", "q_2_6", "math.sin(p * _PI * x)"): _FACTOR,
    ("integral_catalog.py", "q_2_9", "math.cos(2.0 * p * _PI * x)"): _FACTOR,
    ("integral_catalog.py", "q_2_10", "math.cos(2.0 * p * _PI * x)"):
        _FACTOR,
    ("integral_catalog.py", "q_2_12",
     "math.sin((2.0 * x - 1.0) * p * _PI)"): _FACTOR,
    ("integral_catalog.py", "q_6_10", "math.cos(_PI * x)"): _FACTOR,
    ("integral_catalog.py", "q_6_15", "math.sin(_PI * x)"): _FACTOR,
    ("integral_catalog.py", "q_6_24", "math.cos(_PI * x)"): _FACTOR,
    ("integral_catalog.py", "q_6_34", "math.cos(_PI * x)"): _FACTOR,
    ("integral_catalog.py", "q_6_38", "math.cos(_PI * x)"): _FACTOR,
    ("integral_catalog.py", "q_7_15", "math.sin(_PI * x)"): _FACTOR,
    ("integral_catalog.py", "q_6_14_2", "math.sin(_PI * x)"):
        "taken only where da = x >= 1/2, at b = 1/2, where sin(pi x) = 1",
    ("series_catalog.py", "fs_4_16", "math.cos(_TWO_PI * n * x)"): _FOURIER,
    ("series_catalog.py", "fs_4_16", "math.sin(_TWO_PI * n * x)"): _FOURIER,
    ("series_catalog.py", "fs_6_2", "math.cos(_TWO_PI * n * x)"): _FOURIER,
    ("series_catalog.py", "fs_8_13", "math.cos(_TWO_PI * n * t)"): _FOURIER,
    ("series_catalog.py", "fs_8_14", "math.sin(_TWO_PI * n * t)"): _FOURIER,
    ("series_catalog.py", "log_weighted_sin_sum",
     "math.sin(_TWO_PI * n * x)"): _FOURIER,
}


def _is_math(node, attrs):
    f = getattr(node, "func", None)
    return (isinstance(node, ast.Call) and isinstance(f, ast.Attribute)
            and f.attr in attrs and isinstance(f.value, ast.Name)
            and f.value.id == "math")


def _same(a, b):
    return ast.dump(a) == ast.dump(b)


def _is_square(node, squares):
    """x * x, x ** 2, or a name bound to one of them."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _same(node.left, node.right)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return isinstance(node.right, ast.Constant) and node.right.value == 2
    return isinstance(node, ast.Name) and node.id in squares


def _is_minus_square(arg, squares):
    """-(x * x), -x2 with x2 a square, or -x * x (which parses as (-x) * x)."""
    if isinstance(arg, ast.UnaryOp) and isinstance(arg.op, ast.USub):
        return _is_square(arg.operand, squares)
    return (isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mult)
            and isinstance(arg.left, ast.UnaryOp)
            and isinstance(arg.left.op, ast.USub)
            and _same(arg.left.operand, arg.right))


def findings(source):
    """Counter of (top-level name, call source) for each call that matches
    one of the three patterns."""
    found = Counter()
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        squares = {t.id for a in ast.walk(top) if isinstance(a, ast.Assign)
                   and _is_square(a.value, ()) for t in a.targets
                   if isinstance(t, ast.Name)}
        for node in ast.walk(top):
            bad = None
            if _is_math(node, TRIG) and node.args:
                names = {n.id for n in ast.walk(node.args[0])
                         if isinstance(n, ast.Name)}
                if names & PIS and not names - PIS - {"min"} <= EXACT:
                    bad = node
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                  and isinstance(node.left, ast.Constant)
                  and node.left.value == 1 and _is_math(node.right, {"cos"})):
                bad = node
            elif (_is_math(node, {"log1p"}) and node.args
                  and _is_minus_square(node.args[0], squares)):
                bad = node
            if bad is not None:
                found[where, ast.unparse(bad)] += 1
    return found


@pytest.mark.parametrize("name", FILES)
def test_closed_forms_take_no_cancelling_form(name):
    found = findings((SRC / name).read_text())
    assert [k for k in found if (name, *k) not in ALLOWED] == []
    # every entry still names a call that is there
    assert [k for k in ALLOWED if k[0] == name and k[1:] not in found] == []


@pytest.mark.parametrize("code", [
    "def f(x):\n    return _PI / math.sin(_PI * x)",
    "def f(mu):\n    return math.sin(mu * _PI)",
    "def f(u):\n    return math.cos(_TWO_PI * u) + 1.0",
    "def f(p):\n    return math.tan(0.5 * p * _PI)",
    "def f(p):\n    return 1.0 - math.cos(p)",
    "def f(x):\n    return math.log1p(-x * x)",
    "def f(x):\n    return math.log1p(-(x * x))",
    "def f(x):\n    return math.log1p(-x ** 2)",
    "def f(x):\n    x2 = x * x\n    return -math.log1p(-x2) - x2",
    "g = lambda x: math.sin(_PI * x)",
])
def test_guard_catches_each_pattern(code):
    assert sum(findings(code).values()) == 1


@pytest.mark.parametrize("code", [
    "def f(x, da, db):\n    return math.sin(_PI * min(da, db))",
    "def f(d):\n    return math.cos(0.5 * _PI * d) / math.sin(_PI * d)",
    "def f(x):\n    s, c = K._sincos_pi(x)\n    return K._versin(s, c)",
    "def f(x):\n    return math.log1p(x) + math.log1p(-x)",
    "def f(x, n):\n    return math.log1p(-0.25 / (n * n)) + math.sin(x)",
])
def test_guard_passes_the_exact_forms(code):
    assert findings(code) == Counter()
