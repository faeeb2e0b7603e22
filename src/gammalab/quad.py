"""Numerical integration built on the double-exponential transformation.

The tanh-sinh substitution x = (a+b)/2 + (b-a)/2 * tanh((pi/2) sinh t)
turns endpoint log-singular integrands into smooth, double-exponentially
decaying ones, so one fixed rule family with level doubling covers every
integrand this package meets.  Two calls cover every interval:

* ``integrate(f, a, b, limits)`` on a finite (a, b).  Integrands receive
  ``(x, da, db)`` where ``da``/``db`` are the exact distances to the
  endpoints; singular factors like ``log x`` must be evaluated as
  ``log(da)`` so that nodes hugging an endpoint keep full precision.  A
  log singularity needs no declaration.  ``limits=(lo, hi)`` names a
  removable 0/0 value at an endpoint: nodes closer to that endpoint than
  1e-8 of the interval use it instead of calling f.
* ``integrate_semi_infinite(f, rate, ..., tail)`` on [0, inf).  ``f(t)``
  receives the exact t.  The rule runs on [0, T] with T = 46/rate, and
  ``tail(T)`` returns ``(value, bound)`` for the rest, added to the value
  and the error.  The default tail is ``(0, 2|f(T)|/rate)``: it bounds the
  rest when |f(t)| <= |f(T)| e^(-rate (t-T)) for t >= T, that is when f
  decays at least at ``rate`` from T on.  An integrand that decays more
  slowly, or oscillates with a non-decaying envelope, must pass its own
  tail.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import DomainError, EvaluationError

__all__ = ["QuadResult", "integrate", "integrate_semi_infinite"]

_EPS = 2.220446049250313e-16
_T_MAX = 4.0
_DEFAULT_MAX_LEVEL = 10


class QuadResult(NamedTuple):
    value: float
    abs_err: float
    evals: int
    converged: bool


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


def _add_level(f, nodes, a, b, width, cut, limits, acc, abs_acc):
    """Add w*(f(hi) + f(lo)) to ``acc`` and w*|f(hi) + f(lo)| to
    ``abs_acc`` for each node pair of one level, in node order.

    Both nodes of a pair lie d = width*(1-sigma) < width/2 from their
    nearer endpoint, so only that endpoint's limit can stand in for f.
    The node near b is evaluated first.
    """
    lo_lim, hi_lim = limits
    isfinite = math.isfinite
    for om, w in nodes:
        d = width * om
        e = width - d
        if d < cut and hi_lim is not None:
            hi = hi_lim
        else:
            hi = f(b - d, e, d)
            if not isfinite(hi):
                raise _not_finite(b - d, hi)
        if d < cut and lo_lim is not None:
            lo = lo_lim
        else:
            lo = f(a + d, d, e)
            if not isfinite(lo):
                raise _not_finite(a + d, lo)
        v = hi + lo
        acc += w * v
        abs_acc += w * abs(v)
    return acc, abs_acc


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
    if max_level > 14:
        raise DomainError("level cap is 14")
    width = b - a
    # nodes nearer than this to an endpoint with a limit take the limit
    cut = 1e-8 * width
    half = 0.5 * width
    # level 0: t = 0 plus the cached positive abscissae, mirrored
    fmid = f(a + half, half, width - half)
    if not math.isfinite(fmid):
        raise _not_finite(a + half, fmid)
    total = 0.25 * math.pi * fmid
    abs_total = 0.25 * math.pi * abs(fmid)
    nodes = _nodes(0)
    total, abs_total = _add_level(f, nodes, a, b, width, cut, limits, total,
                                  abs_total)
    evals = 1 + 2 * len(nodes)
    h = 1.0
    value = h * total
    prev = None
    prev2 = None
    err = abs(value)
    converged = False
    for level in range(1, max_level + 1):
        nodes = _nodes(level)
        new, abs_total = _add_level(f, nodes, a, b, width, cut, limits, 0.0,
                                    abs_total)
        evals += 2 * len(nodes)
        h *= 0.5
        prev2, prev = prev, value
        total += new
        value = h * total
        e1 = abs(value - prev)
        floor = 40.0 * _EPS * h * abs_total
        if prev2 is not None:
            e2 = abs(prev - prev2)
            if e1 == 0.0:
                est = 0.0
            elif e2 > e1:
                est = e1 * (e1 / e2)
            else:
                est = e1
        else:
            est = e1
        err = max(10.0 * est, floor)
        if err * width <= tol and level >= 3:
            converged = True
            break
    return QuadResult(value * width, err * width, evals, converged)


def integrate_semi_infinite(
    f: Callable[[float], float],
    rate: float,
    tol: float = 1e-10,
    max_level: int = _DEFAULT_MAX_LEVEL,
    tail: Callable[[float], tuple[float, float]] | None = None,
) -> QuadResult:
    """Integrate f over [0, inf); f is called as f(t).

    The rule runs on [0, T], T = 46/rate; ``tail(T)`` gives the value and
    error bound of the integral over [T, inf), by default
    ``(0, 2|f(T)|/rate)`` (see the module docstring for when that holds).
    """
    if not rate > 0.0:
        raise DomainError(f"decay rate must be positive, got {rate}")
    t_split = 46.0 / rate

    def g(x: float, da: float, db: float) -> float:
        return f(da)

    core = integrate(g, 0.0, t_split, tol=tol, max_level=max_level)
    evals = core.evals
    if tail is None:
        tail_value = 0.0
        tail_bound = 2.0 * abs(f(t_split)) / rate + 1e-280
        evals += 1
    else:
        tail_value, tail_bound = tail(t_split)
    return QuadResult(core.value + tail_value, core.abs_err + tail_bound,
                      evals, core.converged)
