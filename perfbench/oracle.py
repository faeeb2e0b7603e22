"""30-digit mpmath values for the ``kernels`` grid (computed before timing)."""

from __future__ import annotations

import mpmath as mp


def _lambda(v):
    # Lambda(v) = lim (sum_{j<n} j/(j^2+v^2) - log n) = -Re psi(1 + i v)
    return -mp.re(mp.digamma(mp.mpc(1, v)))


_REFS = {
    "log_gamma": lambda x: mp.loggamma(x),
    "digamma": lambda x: mp.digamma(x),
    "digamma_complex": lambda z: mp.digamma(mp.mpc(z.real, z.imag)),
    "polygamma": lambda k, x: mp.polygamma(k, x),
    "lambda_fn": _lambda,
    "sici": lambda x: (mp.si(x), mp.ci(x)),
    "exp_integral": lambda x: mp.ei(x),
    "zeta_family": lambda kind, s, a: mp.zeta(s, a),
    "log_barnes_g": lambda x: mp.log(mp.barnesg(x)),
    "clausen_cl2": lambda t: mp.clsin(2, t),
    "bernoulli_poly": lambda n, x: mp.bernpoly(n, x),
}


def reference(name: str, args: tuple):
    """Reference value(s) as Python floats/complex; ``sici`` gives a pair."""
    with mp.workdps(30):
        val = _REFS[name](*args)
    vals = val if isinstance(val, tuple) else (val,)
    return [complex(v) if isinstance(v, mp.mpc) else float(v) for v in vals]
