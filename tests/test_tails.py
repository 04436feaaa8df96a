import decimal
import math
import sys
import time
from decimal import Decimal

import numpy as np
import pytest
from scipy import special

from expvar.tails import chisq_sf, f_sf, t_quantile, t_sf

# ---------------------------------------------------------------------------
# quadrature oracle: integrate hand-written densities over [x, inf) via the
# substitution t = x + tan(u), Simpson rule with 1e6 intervals
# ---------------------------------------------------------------------------

N_QUAD = 1_000_000


def _t_density(t, df):
    c = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    return np.exp(c - (df + 1) / 2 * np.log1p(t * t / df))


def _f_density(x, d1, d2):
    c = (d1 / 2) * math.log(d1 / d2) - (math.lgamma(d1 / 2) + math.lgamma(d2 / 2)
                                        - math.lgamma((d1 + d2) / 2))
    with np.errstate(divide="ignore"):
        logpdf = c + (d1 / 2 - 1) * np.log(x) - (d1 + d2) / 2 * np.log1p(d1 * x / d2)
    return np.where(x > 0, np.exp(logpdf), 0.0)


def _upper_tail_quadrature(density, x):
    u = np.linspace(0.0, math.pi / 2, N_QUAD + 1)
    t = x + np.tan(u[:-1])
    integrand = np.zeros_like(u)
    integrand[:-1] = density(t) / np.cos(u[:-1]) ** 2
    h = u[1] - u[0]
    weights = np.ones_like(u)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return h / 3.0 * float(weights @ integrand)


T_POINTS = [(0.5, 3.0), (1.2, 4.5), (2.0, 6.0), (2.5, 8.0), (1.8, 12.0),
            (3.0, 15.0), (2.2, 25.0), (1.5, 40.0), (3.5, 55.5), (0.8, 100.0)]
F_POINTS = [(1.5, 2.0, 10.0), (2.5, 3.0, 8.0), (3.0, 5.0, 12.0),
            (1.2, 4.0, 20.0), (4.0, 6.0, 15.0), (2.0, 11.0, 56.75),
            (5.0, 2.0, 30.0), (1.8, 8.0, 40.0), (3.5, 3.5, 9.5),
            (2.8, 7.0, 22.5)]


@pytest.mark.parametrize("x,df", T_POINTS)
def test_t_sf_matches_quadrature(x, df):
    oracle = _upper_tail_quadrature(lambda t: _t_density(t, df), x)
    assert t_sf(x, df) == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("x,d1,d2", F_POINTS)
def test_f_sf_matches_quadrature(x, d1, d2):
    oracle = _upper_tail_quadrature(lambda t: _f_density(t, d1, d2), x)
    assert f_sf(x, d1, d2) == pytest.approx(oracle, rel=1e-6)


# ---------------------------------------------------------------------------
# reference values and basic contracts
# ---------------------------------------------------------------------------


def test_chisq_reference_values():
    assert chisq_sf(24.41725, 1) == pytest.approx(7.757113e-07, rel=1e-3)
    assert chisq_sf(0.0, 1) == 1.0
    p = chisq_sf(1302.27988, 1)
    assert 0.0 < p < 1e-250
    assert p == pytest.approx(3.612198e-285, rel=1e-3)


def test_f_reference_value():
    assert f_sf(27.95, 11, 56.75) == pytest.approx(5.896146e-19, rel=1e-2)


def test_monotone_non_increasing():
    xs = np.linspace(0.0, 20.0, 40)
    for fn in (lambda x: chisq_sf(x, 3), lambda x: f_sf(x, 4, 17.5),
               lambda x: t_sf(x, 7.3)):
        values = [fn(x) for x in xs]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_t_symmetry_and_quantile_inverse():
    assert t_sf(0.0, 5.0) == pytest.approx(0.5)
    assert t_sf(-2.0, 7.0) == pytest.approx(1.0 - t_sf(2.0, 7.0), abs=1e-14)
    for p in (0.6, 0.9, 0.975, 0.999):
        for df in (2.5, 10.0, 55.0):
            q = t_quantile(p, df)
            assert t_sf(q, df) == pytest.approx(1.0 - p, rel=1e-10)


def test_domain_errors():
    with pytest.raises(ValueError):
        chisq_sf(-1.0, 1)
    with pytest.raises(ValueError):
        chisq_sf(1.0, 0)
    with pytest.raises(ValueError):
        f_sf(-0.5, 2, 3)
    with pytest.raises(ValueError):
        f_sf(1.0, 2, -3)
    with pytest.raises(ValueError):
        t_quantile(0.0, 5)
    with pytest.raises(ValueError):
        t_quantile(1.0, 5)
    with pytest.raises(ValueError):
        t_sf(float("nan"), 5)


def test_tail_calls_are_fast():
    chisq_sf(1.0, 1)  # warm up
    start = time.perf_counter()
    for _ in range(100):
        chisq_sf(24.41725, 1)
        f_sf(27.95, 11, 56.75)
        t_sf(2.0, 55.0)
    elapsed = (time.perf_counter() - start) / 300.0
    assert elapsed < 1e-3


# ---------------------------------------------------------------------------
# scipy.special as the oracle of the math-only implementation
# ---------------------------------------------------------------------------

ORACLE_DF = (0.7, 1.5, 2.0, 2.5, 4.5, 7.3, 10.0, 19.5, 20.5, 55.5, 56.75, 100.0,
             1000.0)


def _rel(got, want):
    if want == 0.0:  # both underflow
        return abs(got)
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("df", ORACLE_DF)
def test_t_sf_matches_scipy(df):
    for x in (0.01, 0.3, 1.0, 1.96, 2.5, 4.0, 8.0, 30.0, 300.0):
        for t in (x, -x):
            assert _rel(t_sf(t, df), float(special.stdtr(df, -t))) <= 1e-12, t


@pytest.mark.parametrize("df", ORACLE_DF)
def test_t_quantile_matches_scipy(df):
    for p in (1e-10, 0.001, 0.025, 0.1, 0.4, 0.6, 0.9, 0.975, 0.999, 1 - 1e-10):
        assert _rel(t_quantile(p, df), float(special.stdtrit(df, p))) <= 1e-12, p


@pytest.mark.parametrize("df", (0.5, 1.0, 2.0, 3.0, 4.5, 7.3, 11.0, 20.0, 100.0, 1000.0))
def test_chisq_sf_matches_scipy(df):
    for x in (1e-6, 0.1, 0.5, 1.0, 3.84, 10.0, 24.41725, 100.0, 1302.27988):
        assert _rel(chisq_sf(x, df), float(special.chdtrc(df, x))) <= 1e-12, x


@pytest.mark.parametrize("df1", (1.0, 2.0, 3.5, 11.0, 49.0, 150.0))
def test_f_sf_matches_scipy(df1):
    for df2 in (2.0, 5.5, 56.75, 300.0):
        for x in (0.01, 0.5, 1.0, 2.0, 5.0, 27.95, 200.0):
            assert _rel(f_sf(x, df1, df2), float(special.fdtrc(df1, df2, x))) <= 1e-12, \
                (df2, x)


def test_criterion_1_underflow_points_match_scipy():
    assert _rel(chisq_sf(24.41725, 1), float(special.chdtrc(1, 24.41725))) <= 1e-12
    p = chisq_sf(1302.27988, 1)
    assert 0.0 < p < 1e-250
    assert _rel(p, float(special.chdtrc(1, 1302.27988))) <= 1e-12
    assert _rel(f_sf(27.95, 11, 56.75), float(special.fdtrc(11, 56.75, 27.95))) <= 1e-12


def test_large_df_tails_stay_close_to_scipy():
    # at df in the tens of thousands (the residual df of a 60k-row table)
    # the continued fraction loses a few more digits: measured below 3e-12
    # up to df 1e5 and below 4e-11 at df 1e6
    for df in (59990.0, 1e5, 1e6):
        for x in (0.5, 1.96, 4.0, 8.0):
            assert _rel(t_sf(x, df), float(special.stdtr(df, -x))) <= 1e-10, (df, x)
        assert _rel(t_quantile(0.975, df), float(special.stdtrit(df, 0.975))) <= 1e-10
        assert _rel(f_sf(2.0, 3.0, df), float(special.fdtrc(3.0, df, 2.0))) <= 1e-10


@pytest.mark.parametrize("df", (1e7, 1e9, 1e12, 1e15))
def test_extreme_df_tails_match_scipy(df):
    # one beta parameter huge, the other small: the expansion, not the
    # continued fraction, which lost about df * eps (3e-2 at df 1e15)
    for x in (0.01, 0.5, 1.96, 2.0, 6.0, 20.0, 37.0):
        assert _rel(t_sf(x, df), float(special.stdtr(df, -x))) <= 1e-10, x
        assert _rel(t_sf(-x, df), float(special.stdtr(df, x))) <= 1e-10, x
    for p in (1e-10, 0.001, 0.025, 0.4, 0.975, 1 - 1e-10):
        assert _rel(t_quantile(p, df), float(special.stdtrit(df, p))) <= 1e-10, p
    for df1 in (1.0, 2.0, 3.0, 3.5, 11.0, 99.0, 150.0):
        for x in (0.01, 0.5, 1.0, 2.0, 3.0, 27.95):
            want = float(special.fdtrc(df1, df, x))
            if want > 1e-300:  # subnormal values carry few digits
                assert _rel(f_sf(x, df1, df), want) <= 1e-10, (df1, x)


@pytest.mark.parametrize("df", (1e-8, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 1.0))
def test_t_quantile_is_infinite_exactly_when_beyond_the_double_range(df):
    top = t_sf(sys.float_info.max, df)
    # the tail at the largest double: w = df / (df + x^2) underflows there,
    # and I_w(a, 1/2) = w^a / (a B(a, 1/2)) to within a relative O(w)
    a = 0.5 * df
    log_w = math.log(df) - 2.0 * math.log(sys.float_info.max)
    want = 0.5 * math.exp(a * log_w - math.log(a) - float(special.betaln(a, 0.5)))
    assert _rel(top, want) <= 1e-12 or want < 1e-300
    for p in (0.6, 0.75, 0.9, 0.975, 0.999):
        q = t_quantile(p, df)
        if top > 1.0 - p:
            assert q == math.inf, p
        else:
            assert math.isfinite(q) and _rel(t_sf(q, df), 1.0 - p) <= 1e-12, p
    assert t_quantile(0.975, 1e-3) == math.inf


def _f_sf_exact(x, df1, df2):
    """P(F_{df1, df2} > x) for even df1, to 40 digits: the tail is I_w(a, n)
    with a = df2 / 2, n = df1 / 2 and w = df2 / (df2 + df1 x), and for whole n
    that is the finite sum w^a sum_{j < n} (a)_j / j! (1 - w)^j."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a, X = Decimal(df2) / 2, Decimal(x)
        w = Decimal(df2) / (Decimal(df2) + Decimal(df1) * X)
        y = Decimal(df1) * X / (Decimal(df2) + Decimal(df1) * X)
        term = total = Decimal(1)
        for j in range(1, int(df1) // 2):
            term *= (a + j - 1) / j * y
            total += term
        return float(w ** a * total)


@pytest.mark.parametrize("df1", (150, 200, 400, 1000, 5000))
def test_f_sf_with_both_df_large_matches_exact_sum(df1):
    # the continued fraction lost about df2 * 1e-17 here (4.2e-10 at
    # f_sf(1.1, 400, 1e8)); a tail exp(-E) carries at least E * eps of
    # rounding from its exponent alone, which sets the bound deep in the tail
    for df2 in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
        for x in (0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6):
            want = _f_sf_exact(x, df1, df2)
            tol = max(1e-13, 10 * sys.float_info.epsilon * -math.log(want))
            assert _rel(f_sf(x, df1, df2), want) <= tol, (df2, x)


def test_f_sf_both_df_large_matches_scipy():
    for x, df1, df2 in ((1.1, 400, 1e8), (1.1, 1000, 1e8), (1.1, 150, 1e7), (0.9, 5000, 1e6)):
        assert _rel(f_sf(x, df1, df2), float(special.fdtrc(df1, df2, x))) <= 1e-13, (x, df1, df2)
