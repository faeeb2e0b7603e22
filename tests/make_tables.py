"""Print the literal tables of ``kernels`` and ``series_catalog``, each entry
``float()`` of its mpmath value at ``DPS`` digits, the double nearest it:

    python tests/make_tables.py

The blocks it prints are pasted into the source as they stand:
``kernels._ZETA_M1`` (zeta(k) - 1, k = 2 .. 53), ``kernels._ZETA_PRIME``
(zeta'(k), k = 2 .. 93), ``kernels._LGAMMA1P_COEFFS`` ((-1)^k zeta(k, 3)/k,
k = 2 .. 25) and ``series_catalog._LOG_G_RESIDUALS`` (FS-4.16's a_n - A_n
and b_n - B_n, n = 1 .. 11).  ``test_tables.py`` recomputes every entry
with the functions below.
"""

import mpmath as mp

DPS = 50
ZETA_M1_K = range(2, 54)
ZETA_PRIME_K = range(2, 94)
LGAMMA1P_K = range(2, 26)
# FS-4.16 sums its residuals to n = 11; its expansions keep six orders
RESIDUAL_N = range(1, 12)
ORDERS = 6


def zeta_m1(k):
    return mp.zeta(k, 2)


def zeta_prime(k):
    return mp.zeta(k, 1, 1)


def lgamma1p_coeff(k):
    return (-1) ** k * mp.zeta(k, 3) / k


def t_n(n):
    """T_n = sum_{m != n} log m/(m^2 - n^2): the terms m <= M = 4n summed
    directly, and the tail -sum_j n^(2j) zeta'(2j+2, M+1), whose orders
    shrink by (n/(M+1))^2 < 1/16, to below 10^-dps of the first.  mpmath's
    zeta'(s, a) loses up to 12 of its digits at these s, so it takes 25
    more."""
    m_last = 4 * n
    direct = mp.fsum(mp.log(m) / (m * m - n * n)
                     for m in range(1, m_last + 1) if m != n)
    orders = int(mp.mp.dps / 1.2) + 2
    with mp.workdps(mp.mp.dps + 25):
        tail = mp.fsum(mp.mpf(n) ** (2 * j) * mp.zeta(2 * j + 2, m_last + 1, 1)
                       for j in range(orders))
    return direct - tail


def tn_expansion(n):
    """T~_n = pi^2/(4n) + (log n/4 + zeta'(0) - 1/2)/n^2
    + sum_{j<=ORDERS} zeta'(-2j)/n^(2j+2), zeta'(-2j) =
    (-1)^j (2j)! zeta(2j+1)/(2 (2 pi)^(2j))."""
    n = mp.mpf(n)
    zp0 = -mp.log(2 * mp.pi) / 2
    return (mp.pi ** 2 / (4 * n) + (mp.log(n) / 4 + zp0 - mp.mpf(1) / 2)
            / n ** 2 + mp.fsum(
                (-1) ** j * mp.factorial(2 * j) * mp.zeta(2 * j + 1)
                / (2 * (2 * mp.pi) ** (2 * j)) / n ** (2 * j + 2)
                for j in range(1, ORDERS + 1)))


def residual_a(n, tn=None):
    """a_n - A_n = (T~_n - T_n)/pi^2."""
    return (tn_expansion(n) - (t_n(n) if tn is None else tn)) / mp.pi ** 2


def residual_b(n):
    """b_n - B_n = (H~_n - H_n)/(2 pi n), H~_n = log n + gamma + 1/(2n)
    - sum_{k<=ORDERS} B_2k/(2k n^2k)."""
    h = mp.fsum(mp.mpf(1) / m for m in range(1, n + 1))
    h_asym = mp.log(n) + mp.euler + mp.mpf(1) / (2 * n) - mp.fsum(
        mp.bernoulli(2 * k) / (2 * k * mp.mpf(n) ** (2 * k))
        for k in range(1, ORDERS + 1))
    return (h_asym - h) / (2 * mp.pi * n)


def values():
    """{name: tuple of mpmath values at ``DPS`` digits, or of pairs for the
    residuals}."""
    with mp.workdps(DPS):
        return {
            "_ZETA_M1": tuple(zeta_m1(k) for k in ZETA_M1_K),
            "_ZETA_PRIME": tuple(zeta_prime(k) for k in ZETA_PRIME_K),
            "_LGAMMA1P_COEFFS": tuple(lgamma1p_coeff(k) for k in LGAMMA1P_K),
            "_LOG_G_RESIDUALS": tuple((residual_a(n), residual_b(n))
                                      for n in RESIDUAL_N),
        }


def nearest(value):
    """The double nearest an mpmath value, or a tuple of them."""
    if isinstance(value, tuple):
        return tuple(map(nearest, value))
    return float(value)


def block(name, values, width=79):
    """``name = (...)`` with the entries' reprs packed into lines."""
    items = [repr(v) + "," for v in values]
    items[-1] = items[-1][:-1] + ")"
    lines = ["   "]
    for item in items:
        if len(lines[-1]) + 1 + len(item) > width:
            lines.append("   ")
        lines[-1] += " " + item
    return f"{name} = (\n" + "\n".join(lines)


if __name__ == "__main__":
    for name, table in values().items():
        print(block(name, nearest(table)))
        print()
