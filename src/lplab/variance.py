"""Closed-form theory for Var ||G||_p across the three growth regimes of p.

For a standard Gaussian vector G in R^n the variance of the p-norm
changes character twice as p grows: below p1 = 2 log n / log(2e) it is a
power of n, between p1 and p2 = xi^2 (xi the upper 1/n quantile of |g|)
it collapses double-exponentially fast, and above p2 it settles at the
1/log n scale of the max norm.  This module implements the regime
classification, the predicted variance in each regime, the coordinate
truncation level M(p) that tightens the analysis, upper/lower variance
envelopes, small-ball and negative-moment bounds, and a battery of
pointwise identities relating them (lemma_checks).

Everything returns LogValue: the MID-regime prediction reaches
e^{-n^{2/p} p/(2e)} which underflows doubles on reasonable grids.
Boundary ties are resolved leftward (p = p1 counts as LOW, p = p2 as
MID) and p = inf is a first-class input mapping to the HIGH limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .config import DEFAULT_CONSTANTS, Constants
from .errors import DomainError
from .gaussian import _validate_p, quantile_tail, upper_quantile
from .logdomain import LogValue
from .truncated import TruncationSpec, trunc_moment_chi, trunc_moment_min

REGIME_LOW = "LOW"
REGIME_MID = "MID"
REGIME_HIGH = "HIGH"


@dataclass(frozen=True, slots=True)
class RegimePoint:
    """A classified (n, p) pair with its regime boundaries.

    p1 = 2 log n / log(2e), p2 = xi^2 where xi is the upper 1/n quantile
    of |g|.  For n at or above the configured minimum, p1 < p2 < 2 log n.
    """

    n: int
    p: float
    xi: float
    p1: float
    p2: float
    regime: str


def _mid_decay(log_n: float, p: float) -> float:
    """(p/(2e)) n^{2/p}, the MID regime's double-exponential rate."""
    return (p / (2.0 * math.e)) * math.exp(2.0 * log_n / p)


def _high_factor(point: RegimePoint) -> float:
    """log(1 - (xi^2 - xi)/p), the HIGH regime's correction to 1/log n."""
    return math.log1p(-(point.p2 - point.xi) / point.p)


def _check_cap(T: float, xi: float) -> None:
    """The one truncation-level rule: T >= xi, the upper 1/n quantile."""
    if not T >= xi:
        raise DomainError(f"need T >= xi = {xi:.6g}, got T = {T}")


def classify(n: int, p: float, constants: Constants = DEFAULT_CONSTANTS) -> RegimePoint:
    """Locate (n, p) relative to the two transition windows.

    Boundaries are closed on the left: p = p1 is LOW, p = p2 is MID.
    """
    if n < constants.n_min:
        raise DomainError(f"need n >= {constants.n_min}, got {n}")
    p = _validate_p(p)
    log_n = math.log(n)
    xi = upper_quantile(n)
    p1 = 2.0 * log_n / math.log(2.0 * math.e)
    p2 = xi * xi
    if p <= p1:
        regime = REGIME_LOW
    elif p <= p2:
        regime = REGIME_MID
    else:
        regime = REGIME_HIGH
    return RegimePoint(n=n, p=p, xi=xi, p1=p1, p2=p2, regime=regime)


def truncation_level_M(n: int, p: float, constants: Constants = DEFAULT_CONSTANTS) -> LogValue:
    """The coordinate cap M(p) balancing truncation bias against tail mass.

    log M = (1/p) log(n (p/e)^{p/2}) while p <= xi^2, and
    log M = log xi + (1/p) log(p / (xi + p - xi^2)) past that;
    M(inf) = xi.  Always M >= xi.
    """
    point = classify(n, p, constants)
    if math.isinf(point.p):
        return LogValue(math.log(point.xi))
    if point.p <= point.p2:
        log_m = (math.log(n) + 0.5 * point.p * (math.log(point.p) - 1.0)) / point.p
    else:
        log_m = math.log(point.xi) + math.log(
            point.p / (point.xi + point.p - point.p2)
        ) / point.p
    return LogValue(log_m)


def predict_variance(
    n: int, p: float, constants: Constants = DEFAULT_CONSTANTS
) -> tuple[LogValue, RegimePoint]:
    """Predicted order of Var ||G||_p (constants deliberately omitted).

    LOW:  (2^p / p) n^{2/p - 1}
    MID:  exp(-(p/2e) n^{2/p} + log n) / (sqrt(log n) (sqrt(log n) + p - p1))
    HIGH: (1/log n)(1 - (xi^2 - xi)/p), with the p = inf limit 1/log n
    """
    point = classify(n, p, constants)
    log_n = math.log(n)
    if math.isinf(point.p):
        return LogValue(-math.log(log_n)), point
    if point.regime == REGIME_LOW:
        log_v = point.p * math.log(2.0) - math.log(point.p) + (2.0 / point.p - 1.0) * log_n
    elif point.regime == REGIME_MID:
        sqrt_log = math.sqrt(log_n)
        log_v = (
            -_mid_decay(log_n, point.p)
            + log_n
            - math.log(sqrt_log * (sqrt_log + point.p - point.p1))
        )
    else:
        log_v = -math.log(log_n) + _high_factor(point)
    return LogValue(log_v), point


def upper_envelope(n: int, p: float, constants: Constants = DEFAULT_CONSTANTS) -> LogValue:
    """Upper bound shape for Var ||G||_p, valid for every p >= 1.

    Follows the regime formulas and caps the HIGH branch at 1/log n;
    for p > 3 log n (including inf) the 1/log n cap is the bound.
    """
    point = classify(n, p, constants)
    log_n = math.log(n)
    cap = -math.log(log_n)
    if math.isinf(point.p) or point.p > 3.0 * log_n:
        return LogValue(cap)
    value, _ = predict_variance(n, point.p, constants)
    if point.regime == REGIME_HIGH:
        return LogValue(min(value.log, cap))
    return value


def lower_envelope(n: int, p: float, constants: Constants = DEFAULT_CONSTANTS) -> LogValue:
    """Lower bound shape for Var ||G||_p.

    LOW and MID reuse the prediction; HIGH uses (xi^4/p^3)(1-(xi^2-xi)/p),
    which degrades past p = O(log n) and is therefore floored at
    c/log n once p >= floor_threshold_C * log n (the floor is the
    max-norm scale, toward which the p-norm variance flattens).
    """
    point = classify(n, p, constants)
    log_n = math.log(n)
    floor_active_from = constants.floor_threshold_C * log_n
    floor = math.log(constants.envelope_floor_c) - math.log(log_n)
    if math.isinf(point.p):
        return LogValue(floor)
    if point.regime != REGIME_HIGH:
        value, _ = predict_variance(n, point.p, constants)
        return value
    high = 4.0 * math.log(point.xi) - 3.0 * math.log(point.p) + _high_factor(point)
    if point.p >= floor_active_from:
        return LogValue(max(high, floor))
    return LogValue(high)


def tail_term(n: int, T: float, constants: Constants = DEFAULT_CONSTANTS) -> LogValue:
    """n T^{-3} e^{-T^2/2}: the variance cost of capping coordinates at T.

    Requires n >= n_min and T >= xi; the truncation level is chosen per
    p, but the bound itself depends only on (n, T).
    """
    _check_cap(T, classify(n, 1.0, constants).xi)
    if math.isinf(T):
        return LogValue(-math.inf)
    return LogValue(math.log(n) - 3.0 * math.log(T) - 0.5 * T * T)


def a_quantity(n: int, p: float, T: float, constants: Constants = DEFAULT_CONSTANTS) -> LogValue:
    """The concentration quantity A >= 1 entering the n^{-1+2/p}/(1+log A) gain.

    A = max(1, [E(|g|^{2p-2} 1{|g|<=T}) / (E(|g|^{p-1} 1{|g|<=T}))^2]
               * [(n E min(xi,|g|)^p)^{2-2/p}
                  / (T^{2p-2} + (n E min(T,|g|)^p)^{2-2/p})])
    """
    point = classify(n, p, constants)
    band = 3.0 * math.log(n)
    if point.p > band:
        raise DomainError(f"need p <= 3 log n = {band:.4g}, got {point.p}")
    if math.isinf(T):
        raise DomainError("a_quantity requires a finite truncation level")
    _check_cap(T, point.xi)
    p = point.p
    log_n = math.log(n)
    two_m2p = 2.0 - 2.0 / p
    num1 = trunc_moment_chi(TruncationSpec(2.0 * p - 2.0, T))
    den1 = trunc_moment_chi(TruncationSpec(p - 1.0, T))
    log_ratio1 = num1.log - 2.0 * den1.log
    log_num2 = two_m2p * (log_n + trunc_moment_min(TruncationSpec(p, point.xi)).log)
    log_cap_power = (2.0 * p - 2.0) * math.log(T)
    log_min_power = two_m2p * (log_n + trunc_moment_min(TruncationSpec(p, T)).log)
    log_den2 = float(np.logaddexp(log_cap_power, log_min_power))
    log_a = log_ratio1 + log_num2 - log_den2
    return LogValue(max(0.0, log_a))


def _check_q(q: float) -> None:
    """The exponent of a small-ball or negative-moment sum: finite q >= 1."""
    if not q >= 1.0:
        raise DomainError(f"need q >= 1, got {q}")
    if math.isinf(q):
        raise DomainError(f"need finite q, got {q}")


def _check_small_ball(q: float, tau: float) -> None:
    """The one small-ball rule: tau in (0, 1/2) and finite q >= 1."""
    if not 0.0 < tau < 0.5:
        raise DomainError(f"need tau in (0, 1/2), got {tau}")
    _check_q(q)


def _check_negative_moment(n: int, q: float, L: float, constants: Constants) -> None:
    """The one negative-moment rule: finite q >= 1, L >= 0, q L <= K log max(n, 2).

    It caps L at K log n / q, so the log of (sum_i xi_{1-i/n}^q)^{-L} is
    O(log^2 n) and a LogValue holds it exactly.  It does not keep the
    value inside the double range: at q = 1, K = 6 and L at its limit
    the bound falls below the smallest normal double from n ~ 6·10^4
    and below the smallest subnormal from n ~ 8·10^4.
    """
    _check_q(q)
    if not L >= 0.0:
        raise DomainError(f"need L >= 0, got {L}")
    K = constants.negative_moment_K
    limit = K * math.log(max(n, 2))
    if q * L > limit:
        raise DomainError(f"need q*L <= {K} log n = {limit:.4g}, got {q * L}")


def small_ball_bound(
    n: int, q: float, tau: float, constants: Constants = DEFAULT_CONSTANTS
) -> LogValue:
    """Bound on P{sum_i min(|g_i|, T)^q <= tau * sum_i xi_{1-i/n}^q}.

    min(C' exp(-c n^{(1-(2 tau)^{2/q})/4}),
        n (4 (2 tau)^{1/q} sqrt(2 log n))^{n/2});
    the first branch wins for moderate tau, the second for tiny tau.
    Requires n >= n_min, tau in (0, 1/2) and finite q >= 1.
    """
    classify(n, 1.0, constants)
    _check_small_ball(q, tau)
    log_n = math.log(n)
    exponent = (1.0 - (2.0 * tau) ** (2.0 / q)) / 4.0
    branch1 = math.log(constants.small_ball_C) - constants.small_ball_c * n**exponent
    branch2 = log_n + 0.5 * n * (
        math.log(4.0 * math.sqrt(2.0 * log_n)) + math.log(2.0 * tau) / q
    )
    return LogValue(min(branch1, branch2))


# tracemalloc peak of quantile_power_sum per term of its sum: 57.0 bytes
# at n = 10^5, 10^6 and 4·10^6 (its float64 arrays of n - 1 terms)
_POWER_SUM_BYTES_PER_TERM = 57


def quantile_power_sum(n: int, q: float, constants: Constants = DEFAULT_CONSTANTS) -> LogValue:
    """sum_{i=1}^{n} xi_{1-i/n}^q in one array pass (the i = n term is 0).

    The n-term arrays must fit constants.memory_guard_bytes; a larger n
    is refused before any is built.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if not q > 0.0:
        raise DomainError(f"need q > 0, got {q}")
    guard = constants.memory_guard_bytes
    if _POWER_SUM_BYTES_PER_TERM * n > guard:
        raise DomainError(f"a quantile sum of {n} terms exceeds the memory guard ({guard} bytes)")
    xi = quantile_tail(np.arange(1, n) / n)
    return LogValue(float(logsumexp(q * np.log(xi))))


def negative_moment_bound(
    n: int, q: float, L: float, constants: Constants = DEFAULT_CONSTANTS
) -> LogValue:
    """(sum_i xi_{1-i/n}^q)^{-L}, with the sum evaluated as n E min(|g|, xi)^q.

    The scaled-moment form replaces the n-term quantile sum; the two
    agree within a constant factor (checked in tests).  Requires finite
    q >= 1, L >= 0 and q L <= K log n with configured K.
    """
    point = classify(n, 1.0, constants)
    _check_negative_moment(n, q, L, constants)
    if L == 0.0:
        return LogValue(0.0)
    log_sum = math.log(n) + trunc_moment_min(TruncationSpec(q, point.xi)).log
    return LogValue(-L * log_sum)


@dataclass(frozen=True, slots=True)
class LemmaCheckEntry:
    n: int
    p: float
    name: str
    passed: bool
    detail: str


def auto_p_grid(n: int, constants: Constants = DEFAULT_CONSTANTS) -> list[float]:
    """The default p grid: dense below p1, sqrt(log n)-steps to p2, a
    coarse stretch to 3 log n, then inf."""
    point = classify(n, 1.0, constants)
    log_n = math.log(n)
    grid: list[float] = list(np.linspace(1.0, point.p1, 20))
    step = math.sqrt(log_n)
    x = point.p1 + step
    while x < point.p2:
        grid.append(x)
        x += step
    grid.extend(np.linspace(point.p2, 3.0 * log_n, 6))
    cleaned: list[float] = []
    for value in sorted(grid):
        if not cleaned or value - cleaned[-1] > 1e-9:
            cleaned.append(float(value))
    cleaned.append(math.inf)
    return cleaned


def _log_mom2p_scale(point: RegimePoint) -> tuple[float, float]:
    """Closed-form scale for E(|g|^{2p-2} 1{|g|<=M}) as (lower, upper) logs."""
    n, p = point.n, point.p
    log_n = math.log(n)
    if point.regime == REGIME_LOW:
        log_scale = (p - 1.0) * (math.log(2.0 * p) - 1.0)
        return log_scale, log_scale
    if point.regime == REGIME_MID:
        sqrt_log = math.sqrt(log_n)
        log_scale = (
            2.0 * log_n
            + p * (math.log(p) - 1.0)
            - _mid_decay(log_n, p)
            - math.log(sqrt_log * (sqrt_log + p - point.p1))
        )
        return log_scale, log_scale
    xi = point.xi
    log_den = math.log(n) + math.log(xi + p - point.p2)
    log_lower = 2.0 * p * math.log(xi) - log_den
    log_upper = math.log(p) + (2.0 * p - 2.0) * math.log(xi) - log_den
    return log_lower, log_upper


def _log_mexpm_ratio(point: RegimePoint, log_m: float, m_sq: float) -> float:
    """log of M^{-1} e^{-M^2/2} over its closed-form scale.

    Up to p2 the scale is n^{-1/p} p^{-1/2} e^{-(p/(2e)) n^{2/p}}; there
    log M = (log n)/p + (log p - 1)/2 and M^2 = (p/e) n^{2/p}, so the
    terms cancel and the log ratio is 1/2 exactly.  Formed as a
    difference, two terms of size n^{2/p} left a rounding error that
    overflowed or flipped the verdict (at n = 10^10, p = 1, it read 2048).
    Past p2 the scale is n^{-1} (1 - (xi^2 - xi)/p) and M^2 stays near
    xi^2, so the terms are formed in floating point.
    """
    if point.p <= point.p2:
        return 0.5
    return -log_m - 0.5 * m_sq + math.log(point.n) - _high_factor(point)


def lemma_checks(
    n_values: list[int] | None = None,
    p_values: list[float] | None = None,
    constants: Constants = DEFAULT_CONSTANTS,
) -> tuple[LemmaCheckEntry, ...]:
    """Pointwise verification of the structural identities behind the bounds.

    Per (n, p): (a) M >= xi; (b) 2p-2 <= M^2 on LOW; (c) p <= M^2 <= 2p
    on MID; (d) M^2 <= p^{1+1/p} on HIGH; (e) the exponential-vs-power
    inequality exp(-n^{2/p} p/(2e)) <= n^{-2} 2^p on p <= 2 log n;
    (f) the truncated 2p-2 moment within configured factors of its
    closed-form scale; (g) M^{-1} e^{-M^2/2} likewise.  Each p outside
    [1, 3 log n], inf included, is skipped; a request that leaves
    nothing to check is refused.
    """
    if n_values is None:
        n_values = [1000, 10000]
    entries: list[LemmaCheckEntry] = []
    slack = 1e-9
    for n in n_values:
        classify(n, 1.0, constants)
        # n^{2/p} and M^2 <= n^2, at p down to 1, must be doubles
        if n > 2.0**512:
            raise DomainError("lemma checks need n <= 2^512, so that n^2 is a double")
        grid = p_values if p_values is not None else auto_p_grid(n, constants)
        log_n = math.log(n)
        for p in grid:
            if math.isinf(p) or p > 3.0 * log_n:
                continue
            point = classify(n, p, constants)
            log_m = truncation_level_M(n, p, constants).log
            m_sq = math.exp(2.0 * log_m)

            def add(name: str, passed: bool, detail: str) -> None:
                entries.append(LemmaCheckEntry(n, p, name, passed, detail))

            add(
                "M_geq_xi",
                log_m >= math.log(point.xi) - slack,
                f"log M = {log_m:.6g}, log xi = {math.log(point.xi):.6g}",
            )
            if point.regime == REGIME_LOW:
                add(
                    "low_2p_minus_2_leq_M2",
                    2.0 * p - 2.0 <= m_sq * (1.0 + slack),
                    f"2p-2 = {2 * p - 2:.6g}, M^2 = {m_sq:.6g}",
                )
            elif point.regime == REGIME_MID:
                add(
                    "mid_p_leq_M2_leq_2p",
                    p * (1.0 - slack) <= m_sq <= 2.0 * p * (1.0 + slack),
                    f"p = {p:.6g}, M^2 = {m_sq:.6g}, 2p = {2 * p:.6g}",
                )
            else:
                add(
                    "high_M2_leq_p_power",
                    m_sq <= p ** (1.0 + 1.0 / p) * (1.0 + slack),
                    f"M^2 = {m_sq:.6g}, p^(1+1/p) = {p ** (1 + 1 / p):.6g}",
                )
            if p <= 2.0 * log_n:
                lhs = p * math.log(2.0) + _mid_decay(log_n, p)
                add(
                    "exp_vs_power",
                    lhs >= 2.0 * log_n * (1.0 - slack),
                    f"p log 2 + n^{{2/p}} p/(2e) = {lhs:.9g} vs 2 log n = {2 * log_n:.9g}",
                )
            moment = trunc_moment_chi(TruncationSpec(2.0 * p - 2.0, math.exp(log_m)))
            scale_lo, scale_hi = _log_mom2p_scale(point)
            ratio_lo = math.exp(moment.log - scale_lo)
            ratio_hi = math.exp(moment.log - scale_hi)
            add(
                "mom2p_containment",
                (
                    ratio_lo >= constants.mom2p_lo * (1.0 - slack)
                    and ratio_hi <= constants.mom2p_hi * (1.0 + slack)
                ),
                f"ratio vs lower scale = {ratio_lo:.4g}, vs upper scale = {ratio_hi:.4g}",
            )
            ratio = math.exp(_log_mexpm_ratio(point, log_m, m_sq))
            add(
                "mexpm_containment",
                constants.mexpm_lo * (1.0 - slack)
                <= ratio
                <= constants.mexpm_hi * (1.0 + slack),
                f"ratio = {ratio:.4g}",
            )
            log_a = a_quantity(n, p, math.exp(log_m), constants).log
            add(
                "log_a_slope_floor",
                1.0 + log_a >= constants.log_a_slope * p * (1.0 - slack),
                f"1 + log A = {1.0 + log_a:.6g} vs c_A p = {constants.log_a_slope * p:.6g}",
            )
    if not entries:
        raise DomainError("no p in [1, 3 log n] for any n: nothing to check")
    return tuple(entries)
