"""Numerical integration built on the double-exponential transformation.

Two rules share one level-doubling loop and one stopping test.  Each level
halves the step of a trapezoid rule in a variable whose map makes the
integrand decay double-exponentially at both ends.

* ``integrate(f, a, b, limits)`` on a finite (a, b), by tanh-sinh,
  x = (a+b)/2 + (b-a)/2 * tanh((pi/2) sinh t).  Integrands receive
  ``(x, da, db)`` where ``da``/``db`` are the exact distances to the
  endpoints; singular factors like ``log x`` must be evaluated as
  ``log(da)`` so that nodes hugging an endpoint keep full precision.  A
  log singularity needs no declaration.  ``limits=(lo, hi)`` names a
  removable 0/0 value at an endpoint: nodes closer to that endpoint than
  1e-8 of the interval use it instead of calling f.
* ``integrate_semi_infinite(f, scale)`` on [0, inf), by exp-sinh,
  t = scale * exp(u - e^-u).  ``f(t)`` receives the exact t and must decay
  like e^(-t/scale): the last node is at t = 163 scale.  A scale that is
  wrong by a small factor costs levels, not the bound: one 4x too small
  still leaves only e^-40 of f past the last node.  A slower part of an
  integrand must be split off in closed form first.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache, partial

from .errors import DomainError, EvaluationError

__all__ = ["QuadResult", "integrate", "integrate_semi_infinite"]

_EPS = 2.220446049250313e-16
_T_MAX = 4.0
_U_MAX = math.log(60.0) + 1.0
_DEFAULT_MAX_LEVEL = 10
_MIN_LEVEL, _MAX_LEVEL = 3, 14


# value, abs_err: float; evals: int, integrand calls; converged: bool, the
# error estimate met the tolerance within the level cap
QuadResult = namedtuple("QuadResult", "value abs_err evals converged")


@lru_cache(maxsize=None)
def _nodes(level: int) -> tuple[tuple[float, float], ...]:
    """Positive-t abscissae new at this level: (1-sigma, weight).

    sigma = 1/(1+exp(-pi*sinh t)) is the relative position in (0,1) of the
    node at t, and 1-sigma that of its mirror at -t, so both lie 1-sigma of
    the interval from their nearer endpoint; weight = pi*cosh(t)*sigma*
    (1-sigma).  Level 0 holds t = h, 2h, ...; later levels only the odd
    multiples of their h.
    """
    h = 2.0 ** (-level)
    ks = range(1, int(_T_MAX / h) + 1) if level == 0 else range(
        1, int(_T_MAX / h) + 1, 2)
    out = []
    for k in ks:
        t = k * h
        ps = math.pi * math.sinh(t)
        om = 1.0 / (1.0 + math.exp(ps))     # 1 - sigma, exactly
        w = math.pi * math.cosh(t) * (1.0 - om) * om
        out.append((om, w))
    return tuple(out)


def _not_finite(x: float, v: float) -> EvaluationError:
    return EvaluationError(f"integrand not finite at x={x!r}: {v!r}")


def _overflowed(level: int) -> EvaluationError:
    # finite values whose weighted sum left the float range; raising here
    # keeps every later level, and its abs_acc, finite
    return EvaluationError(f"integrand sum overflowed at level {level}")


@lru_cache(maxsize=None)
def _exp_sinh_nodes(level: int) -> tuple[tuple[float, float], ...]:
    """Exp-sinh abscissae new at this level: (x, dx/du) at x = exp(u - e^-u)
    for u in [-4, log 60 + 1], the integers at level 0 and later only the
    odd multiples of their h."""
    h = 2.0 ** (-level)
    k0, k1 = -4 * 2 ** level, int(_U_MAX / h)
    ks = range(k0, k1 + 1) if level == 0 else range(k0 + 1, k1 + 1, 2)
    out = []
    for k in ks:
        e = math.exp(-k * h)
        x = math.exp(k * h - e)
        out.append((x, x * (1.0 + e)))
    return tuple(out)


def _add_level(f, a, b, width, cut, limits, level, acc, abs_acc):
    """Add w*(f(hi) + f(lo)) to ``acc`` and w*|f(hi) + f(lo)| to
    ``abs_acc`` for each tanh-sinh node pair of one level, in node order;
    return both sums and the number of evaluations.

    Both nodes of a pair lie d = width*(1-sigma) < width/2 from their
    nearer endpoint, so only that endpoint's limit can stand in for f.
    The node near b is evaluated first.  Finiteness is tested once per
    level, on ``abs_acc``, which any inf or NaN value makes non-finite;
    only then, or when f raises, is the level walked again to name the
    first non-finite value in node order.  A level whose values are all
    finite but whose sum overflowed raises too.
    """
    nodes = _nodes(level)
    lo_lim, hi_lim = limits
    try:
        for om, w in nodes:
            d = width * om
            e = width - d
            hi = (hi_lim if d < cut and hi_lim is not None
                  else f(b - d, e, d))
            lo = (lo_lim if d < cut and lo_lim is not None
                  else f(a + d, d, e))
            v = hi + lo
            acc += w * v
            abs_acc += w * abs(v)
    except Exception:
        # a non-finite value before the node that raised fails first; a
        # deterministic f raises its own error again when the walk reaches
        # that node, so the bare raise only serves an f that does not
        _check_finite(_level_values(f, a, b, width, cut, limits, nodes))
        raise
    if not math.isfinite(abs_acc):
        _check_finite(_level_values(f, a, b, width, cut, limits, nodes))
        raise _overflowed(level)
    return acc, abs_acc, 2 * len(nodes)


def _level_values(f, a, b, width, cut, limits, nodes):
    """(x, f) at the nodes of ``_add_level`` that call f, in its order."""
    lo_lim, hi_lim = limits
    for om, _ in nodes:
        d = width * om
        e = width - d
        if not (d < cut and hi_lim is not None):
            yield b - d, f(b - d, e, d)
        if not (d < cut and lo_lim is not None):
            yield a + d, f(a + d, d, e)


def _check_finite(values):
    """Raise for the first (x, f) of ``values`` whose f is not finite."""
    for x, v in values:
        if not math.isfinite(v):
            raise _not_finite(x, v)


def _add_half_line(f, scale, level, acc, abs_acc):
    """``_add_level`` for the exp-sinh nodes of one level: w*f(scale*x)."""
    nodes = _exp_sinh_nodes(level)
    try:
        for x, w in nodes:
            v = f(scale * x)
            acc += w * v
            abs_acc += w * abs(v)
    except Exception:
        # as in _add_level: a deterministic f raises again in the walk
        _check_finite((scale * x, f(scale * x)) for x, _ in nodes)
        raise
    if not math.isfinite(abs_acc):
        _check_finite((scale * x, f(scale * x)) for x, _ in nodes)
        raise _overflowed(level)
    return acc, abs_acc, len(nodes)


def _check_max_level(max_level: int) -> None:
    if not _MIN_LEVEL <= max_level <= _MAX_LEVEL:
        raise DomainError(f"quadrature level cap must be in "
                          f"[{_MIN_LEVEL}, {_MAX_LEVEL}]")


def _levels(add, total, abs_total, evals, scale, tol, max_level):
    """The level-doubling loop and stopping test of both rules.  ``add`` is
    ``_add_level`` or ``_add_half_line`` with its integrand bound; ``total``,
    ``abs_total`` and ``evals`` are the rule's sums before level 0, and
    ``scale`` maps the rule's own variable to the integral's."""
    _check_max_level(max_level)
    total, abs_total, n = add(0, total, abs_total)
    evals += n
    value = total
    prev = prev2 = None
    err = abs(value)
    for level in range(1, max_level + 1):
        new, abs_total, n = add(level, 0.0, abs_total)
        evals += n
        h = 0.5 ** level
        prev2, prev = prev, value
        total += new
        value = h * total
        # 10 e1^2/e2 while the differences shrink, floored at the rounding
        e1 = abs(value - prev)
        e2 = 0.0 if prev2 is None else abs(prev - prev2)
        est = e1 * (e1 / e2) if e2 > e1 else e1
        err = max(10.0 * est, 40.0 * _EPS * h * abs_total)
        if err * scale <= tol and level >= _MIN_LEVEL:
            return QuadResult(value * scale, err * scale, evals, True)
    return QuadResult(value * scale, err * scale, evals, False)


def integrate(
    f: Callable[[float, float, float], float],
    a: float,
    b: float,
    limits: tuple[float | None, float | None] = (None, None),
    tol: float = 1e-10,
    max_level: int = _DEFAULT_MAX_LEVEL,
) -> QuadResult:
    """Integrate f over (a, b); f is called as f(x, x-a, b-x).

    ``limits`` holds the removable value of f at a and at b, or None.
    """
    if not (a < b):
        raise DomainError(f"integrate requires a < b, got [{a}, {b}]")
    width = b - a
    # nodes nearer than this to an endpoint with a limit take the limit
    cut = 1e-8 * width
    half = 0.5 * width
    # level 0 also holds the centre, t = 0
    fmid = f(a + half, half, width - half)
    if not math.isfinite(fmid):
        raise _not_finite(a + half, fmid)
    return _levels(partial(_add_level, f, a, b, width, cut, limits),
                   0.25 * math.pi * fmid, 0.25 * math.pi * abs(fmid), 1,
                   width, tol, max_level)


def integrate_semi_infinite(
    f: Callable[[float], float],
    scale: float,
    tol: float = 1e-10,
    max_level: int = _DEFAULT_MAX_LEVEL,
) -> QuadResult:
    """Integrate f over [0, inf); f is called as f(t) and must decay like
    e^(-t/scale)."""
    if not 0.0 < scale < math.inf:
        raise DomainError(f"scale must be positive and finite, got {scale}")
    return _levels(partial(_add_half_line, f, scale), 0.0, 0.0, 0, scale,
                   tol, max_level)
