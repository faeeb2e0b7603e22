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
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import DomainError, EvaluationError

__all__ = ["QuadResult", "integrate", "integrate_semi_infinite"]

_EPS = 2.220446049250313e-16
_T_MAX = 4.0
_DEFAULT_MAX_LEVEL = 10


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_err: float
    evals: int
    converged: bool


@lru_cache(maxsize=None)
def _nodes(level: int) -> tuple[tuple[float, float, float], ...]:
    """Positive-t abscissae new at this level: (sigma, 1-sigma, weight).

    sigma = 1/(1+exp(-pi*sinh t)) is the relative position in (0,1);
    weight = pi*cosh(t)*sigma*(1-sigma).  Level 0 holds t = h, 2h, ...;
    later levels only the odd multiples of their h.
    """
    h = 2.0 ** (-level)
    ks = range(1, int(_T_MAX / h) + 1) if level == 0 else range(
        1, int(_T_MAX / h) + 1, 2)
    out = []
    for k in ks:
        t = k * h
        ps = math.pi * math.sinh(t)
        om = 1.0 / (1.0 + math.exp(ps))     # 1 - sigma, exactly
        sg = 1.0 - om
        w = math.pi * math.cosh(t) * sg * om
        out.append((sg, om, w))
    return tuple(out)


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
    lo_lim, hi_lim = limits
    cut = 1e-8 * width

    def eval_at(sigma: float, om_sigma: float) -> float:
        # sigma is the relative distance from a
        if sigma <= om_sigma:
            da = width * sigma
            x = a + da
            db = width - da
        else:
            db = width * om_sigma
            x = b - db
            da = width - db
        if da < cut and lo_lim is not None:
            return lo_lim
        if db < cut and hi_lim is not None:
            return hi_lim
        v = f(x, da, db)
        if not math.isfinite(v):
            raise EvaluationError(f"integrand not finite at x={x!r}: {v!r}")
        return v

    evals = 0
    # level 0: t = 0 plus the cached positive abscissae, mirrored
    fmid = eval_at(0.5, 0.5)
    total = 0.25 * math.pi * fmid
    abs_total = 0.25 * math.pi * abs(fmid)
    evals += 1
    for sg, om, w in _nodes(0):
        v = eval_at(sg, om) + eval_at(om, sg)
        total += w * v
        abs_total += w * abs(v)
        evals += 2
    h = 1.0
    value = h * total
    prev = None
    prev2 = None
    err = abs(value)
    converged = False
    for level in range(1, max_level + 1):
        new = 0.0
        for sg, om, w in _nodes(level):
            v = eval_at(sg, om) + eval_at(om, sg)
            new += w * v
            abs_total += w * abs(v)
            evals += 2
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
