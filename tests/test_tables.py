"""The stored tables of ``kernels``, ``series_catalog`` and ``registry``
against mpmath: every entry is the double nearest its value, the closed
forms past the zeta tables are correctly rounded to k = 1100, 1 - eta(k) is
within 2 ulps, and FS-4.16's residuals agree with the S-4.4-Tn series within
its own bar.  ``make_tables.py`` prints the tables; it is the reference
here."""

import math

import pytest

mp = pytest.importorskip("mpmath")

import make_tables as T  # noqa: E402
from gammalab import kernels as K  # noqa: E402
from gammalab import registry as R  # noqa: E402
from gammalab import series_catalog as S  # noqa: E402

STORED = {
    "_ZETA_M1": K._ZETA_M1,
    "_ZETA_PRIME": K._ZETA_PRIME,
    "_LGAMMA1P_COEFFS": K._LGAMMA1P_COEFFS,
    "_LOG_G_RESIDUALS": S._LOG_G_RESIDUALS,
    "_ALT_TAILS_2_10": R._ALT_TAILS_2_10,
    "_ALT_TAIL_8_15": R._ALT_TAIL_8_15,
}


@pytest.fixture(scope="module")
def values():
    assert T.DPS >= 40
    return T.values()


@pytest.mark.parametrize("name", sorted(STORED))
def test_every_literal_is_the_nearest_double(name, values):
    assert STORED[name] == T.nearest(values[name])


def test_table_lookups():
    # the functions read the tables over their whole length
    assert [K._zeta_m1(k) for k in T.ZETA_M1_K] == list(K._ZETA_M1)
    assert [K._zeta_prime_int(k) for k in T.ZETA_PRIME_K] == list(
        K._ZETA_PRIME)
    assert len(K._LGAMMA1P_COEFFS) == len(T.LGAMMA1P_K)
    assert len(S._LOG_G_RESIDUALS) == S._TN_ASYMPTOTIC_N - 1


def test_one_minus_eta_within_two_ulps():
    # derived from the stored zeta(k) - 1 on first use, over the whole table
    with mp.workdps(T.DPS):
        refs = [T.one_minus_eta(k) for k in T.ONE_MINUS_ETA_K]
    table = K._one_minus_eta()
    assert len(table) == len(refs)
    for k, e, ref in zip(T.ONE_MINUS_ETA_K, table, refs):
        assert abs(e - ref) <= 2 * math.ulp(e), k


def _dirichlet(k, weight):
    """sum_{n>=2} weight(n) n^-k at 30 digits, for k >= 54: the terms past
    n = N are below 10^-32 of the first."""
    n_last = int(2 * 10 ** (32 / k)) + 2
    with mp.workdps(30):
        return float(mp.fsum(weight(n) * mp.mpf(n) ** -k
                             for n in range(2, n_last + 1)))


def test_closed_forms_past_the_tables_are_correctly_rounded():
    # zeta(k) - 1 as 2^-k + 3^-k from k = 54, zeta'(k) as its first two
    # terms from k = 94, each the double nearest the value up to k = 1100
    for k in range(T.ZETA_M1_K.stop, 1101):
        assert K._zeta_m1(k) == _dirichlet(k, lambda n: 1), k
    for k in range(T.ZETA_PRIME_K.stop, 1101):
        assert K._zeta_prime_int(k) == _dirichlet(k, lambda n: -mp.log(n)), k


def test_log_g_residuals_within_half_an_ulp_and_the_tn_bar(values):
    # each residual within half an ulp of its value, and a_n - A_n within
    # the S-4.4-Tn series' own bar of (T~_n - T_n)/pi^2 with T_n that
    # series' value, so that route stays checked
    assert S._LOG_G_ROUNDING >= 0.5 * math.fsum(
        math.ulp(a) + math.ulp(b) for a, b in S._LOG_G_RESIDUALS)
    pairs = zip(T.RESIDUAL_N, S._LOG_G_RESIDUALS, values["_LOG_G_RESIDUALS"])
    with mp.workdps(T.DPS):
        for n, (a, b), (ref_a, ref_b) in pairs:
            assert abs(a - ref_a) <= 0.5 * math.ulp(a), n
            assert abs(b - ref_b) <= 0.5 * math.ulp(b), n
            tn = S.sum_catalog("S-4.4-Tn", (float(n),))
            routed = T.residual_a(n, mp.mpf(tn.value))
            assert abs(a - routed) <= tn.abs_err / math.pi ** 2, n
