"""Upper-tail probabilities and quantiles for the test statistics.

Computed with the math module alone. The F and t tails are regularized
incomplete beta functions, evaluated by Lentz's continued fraction
(Press et al., Numerical Recipes 3rd ed. §6.4); the power prefactor
x^a (1-x)^b / B(a, b) is assembled from Stirling-series corrections when
a parameter is large, so that no large log-gamma values cancel
(DiDonato & Morris 1992, ACM TOMS 18:360). When one beta parameter is
large, the fraction loses about (large parameter) x eps to rounding near
x = 1, so there the other parameter is lowered into (0, 1] by a sum of
positive terms and the rest is summed from DiDonato and Morris's
asymptotic expansion in incomplete gamma functions (BGRAT, their eq. 9)
instead. The chi-square tail is the
regularized upper incomplete gamma function, erfc for one degree of
freedom and a series or continued fraction otherwise. The t quantile
takes Newton steps from Hill's approximation (1970, CACM Alg. 396).
Real-valued degrees of freedom are supported throughout (the denominator
df of the F and t references are generally fractional after the
Satterthwaite correction), and the chi-square tail stays meaningful down
to the smallest normal doubles.
"""

from __future__ import annotations

import math
import sys

_EPS = sys.float_info.epsilon
_MAX = sys.float_info.max
_LOG_MAX = math.log(_MAX)
#: Guard against division by zero in the modified Lentz recurrences.
_TINY = 1e-300
_MAX_TERMS = 100_000
#: From here on a log-gamma value is split into Stirling's formula and
#: its small correction, which then cancel without loss.
_STIRLING_FROM = 10.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
#: I_x(a, b) with a at least this and b at most _EXPANSION_MAX_B is summed
#: by the asymptotic expansion rather than the continued fraction. Lowering
#: b takes one term per unit of b, about 2 us each, which the cap bounds.
_EXPANSION_FROM = 1000.0
_EXPANSION_MAX_B = 5000.0
_EXPANSION_TERMS = 30


def _check_df(df: float, name: str = "df") -> float:
    df = float(df)
    if not math.isfinite(df) or df <= 0:
        raise ValueError(f"{name} must be positive and finite, got {df}")
    return df


def _stirling_correction(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), for z >= 10."""
    w = 1.0 / (z * z)
    return (1.0 / 12.0 + w * (-1.0 / 360.0 + w * (1.0 / 1260.0 + w * (
        -1.0 / 1680.0 + w * (1.0 / 1188.0 + w * (-691.0 / 360360.0)))))) / z


def _lgamma_drop(a: float, b: float) -> float:
    """lgamma(a) - lgamma(a + b), without cancellation for large a."""
    if a < _STIRLING_FROM:
        return math.lgamma(a) - math.lgamma(a + b)
    return (-(a - 0.5) * math.log1p(b / a) - b * math.log(a + b) + b
            + _stirling_correction(a) - _stirling_correction(a + b))


def _log_beta_power(a: float, b: float, x: float, y: float) -> float:
    """log(x^a y^b / B(a, b)), where y = 1 - x is given separately."""
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    log_y = math.log1p(-x) if x < 0.5 else math.log(y)
    small, large = min(a, b), max(a, b)
    if small >= _STIRLING_FROM:
        # a log(x (a+b) / a) + b log(y (a+b) / b): both through the one
        # difference d = x (a+b) - a, whose rounding then cancels near
        # the mode, where the two terms nearly cancel each other. log x and
        # log y are taken directly only where log1p's argument is below
        # -1/2, so that 1 + d / a is small and would carry d's rounding;
        # elsewhere log y + log(c / b) can cancel to a small difference
        c = a + b
        d = x * b - y * a
        ta = a * math.log1p(d / a) if d >= -0.5 * a else a * (log_x + math.log(c / a))
        tb = b * math.log1p(-d / b) if d <= 0.5 * b else b * (log_y + math.log(c / b))
        return (ta + tb + 0.5 * math.log(a * b / c) - _HALF_LOG_2PI
                - _stirling_correction(a) - _stirling_correction(b)
                + _stirling_correction(c))
    log_beta = math.lgamma(small) + _lgamma_drop(large, small)
    return a * log_x + b * log_y - log_beta


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b); converges fast for x < (a+1)/(a+b+2)."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= _TINY else _TINY)
    h = d
    for m in range(1, _MAX_TERMS):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                   -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            delta = d * c
            h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, b={b})")


def _beta_expansion(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) for a >= _EXPANSION_FROM and 0 < b <= 1 (BGRAT).

    I_x(a, b) = M sum_n p_n J_n, with T = a + (b - 1) / 2, u = -T log x,
    J_0 = Q(b, u) / H(b, u) for H = u^b e^-u / Gamma(b), the J_n and p_n
    by the recurrences of DiDonato & Morris (1992, eqs. 9.3-9.6), and
    M = H Gamma(a + b) / (Gamma(a) T^b).
    """
    t = a + 0.5 * (b - 1.0)
    lx = math.log1p(-y) if y < 0.35 else math.log(x)
    u = -t * lx
    h = math.exp(_log_gamma_power(b, u))
    if h == 0.0:
        return 0.0
    q = math.erfc(math.sqrt(u)) if b == 0.5 else _gamma_upper(b, u)
    j = q / h
    total = j
    p = [1.0]
    lx2 = 0.25 * lx * lx
    lxp = 1.0
    t4 = 4.0 * t * t
    b2n = b
    for n in range(1, _EXPANSION_TERMS):
        pn = sum((m * b - n) * p[n - m] / math.factorial(2 * m + 1) for m in range(1, n))
        p.append(pn / n + (b - 1.0) / math.factorial(2 * n + 1))
        j = (b2n * (b2n + 1.0) * j + (u + b2n + 1.0) * lxp) / t4
        lxp *= lx2
        b2n += 2.0
        term = p[n] * j
        total += term
        if abs(term) <= _EPS * abs(total):
            break
    return h * math.exp(-_lgamma_drop(a, b) - b * math.log(t)) * total


def _beta_lower(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) for x below the mean, where the fraction converges fast.

    With a large and b small, b is first lowered into (0, 1] by
    I_x(a, c + 1) = I_x(a, c) + x^a y^c / (c B(a, c)), whose added terms
    are all positive, and the rest is summed by the expansion.
    """
    if a >= _EXPANSION_FROM and b <= _EXPANSION_MAX_B:
        low = b - math.ceil(b) + 1.0
        steps = sum(math.exp(_log_beta_power(a, c, x, y)) / c
                    for c in (low + k for k in range(round(b - low))))
        return steps + _beta_expansion(a, low, x, y)
    return math.exp(_log_beta_power(a, b, x, y)) * _beta_fraction(a, b, x) / a


def _beta_pair(a: float, b: float, x: float, y: float) -> tuple[float, float]:
    """(I_x(a, b), 1 - I_x(a, b)) with y = 1 - x given separately.

    The fraction is evaluated on the side of the mean where it converges,
    and the other value is its complement; that side's value stays below
    about 0.95, so the subtraction loses no relative precision.
    """
    if x == 0.0:
        return 0.0, 1.0
    if y == 0.0:
        return 1.0, 0.0
    if x < (a + 1.0) / (a + b + 2.0):
        w = _beta_lower(a, b, x, y)
        return w, 1.0 - w
    w = _beta_lower(b, a, y, x)
    return 1.0 - w, w


def _split(u: float, v: float) -> tuple[float, float]:
    """(u / (u + v), v / (u + v)) for u, v >= 0, safe for v = inf."""
    if v >= u:
        r = u / v
        return r / (1.0 + r), 1.0 / (1.0 + r)
    r = v / u
    return 1.0 / (1.0 + r), r / (1.0 + r)


def _log_gamma_power(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a))."""
    if a < _STIRLING_FROM:
        return a * math.log(x) - x - math.lgamma(a)
    r = (x - a) / a
    if abs(r) <= 0.5:
        core = a * (math.log1p(r) - r)
    else:
        core = a * math.log(x / a) - (x - a)
    return core + 0.5 * math.log(a) - _HALF_LOG_2PI - _stirling_correction(a)


def _gamma_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x), x > 0."""
    front = math.exp(_log_gamma_power(a, x))
    if x < a + 1.0:
        # series for the lower function P, then its complement
        term = total = 1.0 / a
        ap = a
        for _ in range(_MAX_TERMS):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _EPS:
                return 1.0 - front * total
        raise ArithmeticError(f"incomplete gamma series did not converge (a={a})")
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return front * h
    raise ArithmeticError(f"incomplete gamma fraction did not converge (a={a})")


def chisq_sf(x: float, df: float) -> float:
    """P(Chi2_df > x), the upper tail of the chi-square distribution."""
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    df = _check_df(df)
    if x == 0.0:
        return 1.0
    if df == 1.0:
        return math.erfc(math.sqrt(0.5 * x))
    return _gamma_upper(0.5 * df, 0.5 * x)


def f_sf(x: float, df1: float, df2: float) -> float:
    """P(F_{df1, df2} > x); df2 may be fractional."""
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise ValueError(f"F statistic must be >= 0, got {x}")
    df1, df2 = _check_df(df1, "df1"), _check_df(df2, "df2")
    w, v = _split(df2 / df1, x)
    return _beta_pair(0.5 * df2, 0.5 * df1, w, v)[0]


def _t_two_sided(x: float, df: float) -> tuple[float, float]:
    """(P(|T_df| > |x|), P(|T_df| <= |x|))."""
    x = abs(x)
    if x == 0.0:
        return 1.0, 0.0
    w, v = _split(df / x, x)  # df / (df + x^2), without overflow in x^2
    if w < _TINY:
        # I_w(a, 1/2) = w^a / (a B(a, 1/2)) (1 + O(w)), from log w: at a
        # small df, w can underflow while the tail is still of order one
        a = 0.5 * df
        log_w = math.log(df) - 2.0 * math.log(x) - math.log1p(df / x / x)
        outside = math.exp(a * log_w - math.log(a) - math.lgamma(0.5)
                           - _lgamma_drop(a, 0.5))
        return outside, 1.0 - outside
    return _beta_pair(0.5 * df, 0.5, w, v)


def t_sf(x: float, df: float) -> float:
    """P(T_df > x); symmetric, so the lower tail is t_sf(-x, df)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"t statistic must be finite, got {x}")
    outside, inside = _t_two_sided(x, _check_df(df))
    return 0.5 * outside if x > 0 else 0.5 + 0.5 * inside


def _t_log_density(x: float, df: float) -> float:
    half = 0.5 * df
    return (-_lgamma_drop(half, 0.5) - 0.5 * math.log(df * math.pi)
            - (half + 0.5) * math.log1p(x * x / df))


def _normal_lower_deviate(p: float) -> float:
    """Rough lower-tail normal quantile for p <= 1/2 (Abramowitz & Stegun
    26.2.23, absolute error below 4.5e-4); a start value only."""
    t = math.sqrt(-2.0 * math.log(p))
    return -(t - (2.515517 + t * (0.802853 + t * 0.010328))
             / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))))


def _hill_start(tail: float, df: float) -> float:
    """Hill's approximation to the upper ``tail`` quantile of T_df."""
    P = 2.0 * tail
    if df <= 1.0:
        return 1.0 / math.tan(0.5 * math.pi * P) if df == 1.0 else 1.0
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    y = (d * P) ** (2.0 / df)
    if (df < 2.1 and P > 0.5) or y > 0.05 + a:
        x = _normal_lower_deviate(0.5 * P)
        y = x * x
        if df < 5.0:
            c += 0.3 * (df - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        y = ((1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
              + 0.5 / (df + 4.0)) * y - 1.0) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)


def _t_upper_quantile(tail: float, df: float) -> float:
    """q > 0 with P(T_df > q) = tail, for 0 < tail < 1/2.

    Newton steps on log P(T > q) against log q, kept inside a bracket that
    every evaluation narrows. A step that leaves the bracket, or cannot
    be taken, is replaced by the bracket's geometric midpoint, or by
    squaring while no upper end is known.
    """
    if 0.5 * _t_two_sided(_MAX, df)[0] > tail:
        return math.inf  # the quantile lies beyond the double range
    try:
        q = _hill_start(tail, df)
    except (ValueError, OverflowError, ZeroDivisionError):
        q = 2.0
    if not (math.isfinite(q) and q > 0.0):
        q = 2.0
    lo, hi = 0.0, math.inf
    log_tail = math.log(tail)
    for _ in range(200):
        sf = 0.5 * _t_two_sided(q, df)[0]
        if sf == tail:
            return q
        if sf > tail:
            lo = q
        else:
            hi = q
        nxt = math.nan
        if sf > 0.0:
            # the slope of log sf against log q is -q pdf / sf
            log_ratio = math.log(sf) - math.log(q) - _t_log_density(q, df)
            if log_ratio < _LOG_MAX:
                step = (math.log(sf) - log_tail) * math.exp(log_ratio)
                if step < _LOG_MAX:
                    nxt = q * math.exp(step)
        if not lo < nxt < hi:
            if hi < math.inf:
                nxt = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else 0.5 * hi
            else:
                nxt = max(2.0, lo * lo) if lo < 1e154 else _MAX
        if abs(nxt - q) <= 2.0 * _EPS * q:
            return nxt
        q = nxt
    raise ArithmeticError(f"t quantile did not converge (tail={tail}, df={df})")


def t_quantile(p: float, df: float) -> float:
    """Value q with P(T_df <= q) = p."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {p}")
    df = _check_df(df)
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return _t_upper_quantile(1.0 - p, df)
    return -_t_upper_quantile(p, df)
