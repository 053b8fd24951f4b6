"""Truncated Gaussian moments via peak-localized quadrature.

The workhorse integral is ∫₀ᵃ x^q e^{-x²/2} dx with q as large as a few
thousand: the integrand then peaks e^{1600} above double range and is
negligible outside a narrow window around its peak at min(√q, a).  We
locate the peak, shift the log-integrand so the peak is 0, clip to the
region within 60 e-folds of the peak (clipped mass below 1e-25 of the
total, far under the 1e-18 drop the accuracy contract needs), and only
then hand the now tame integrand to Gauss-Kronrod panels.  Results are
carried as LogValue.

Also here: the two moment flavors E(|g|^q·1{|g|<=a}) and E min(|g|,a)^q,
and the closed-form scale expressions for the integral's two regimes
(peak inside the interval vs. mass piled at the endpoint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .config import DEFAULT_CONSTANTS
from .errors import DomainError, NumericalError
from .gaussian import _LOG_SQRT_2_OVER_PI, abs_moment, abs_tail_log
from .logdomain import BoundBracket, LogValue

# e-folds below the peak at which the integrand is clipped
_CLIP_EFOLDS = 60.0
_QUAD_REL_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class TruncationSpec:
    """Exponent q >= 0 and truncation point a in (0, inf]."""

    q: float
    a: float

    def __post_init__(self) -> None:
        q = float(self.q)
        a = float(self.a)
        if math.isnan(q) or q < 0.0 or math.isinf(q):
            raise DomainError("truncation exponent q must be finite and >= 0")
        if math.isnan(a) or a <= 0.0:
            raise DomainError("truncation point a must be positive (or inf)")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "a", a)

    @property
    def regime(self) -> str:
        """"low" when the peak √q falls inside [0, a], "high" otherwise."""
        if math.isinf(self.a):
            return "low"
        return "low" if self.q <= self.a * self.a else "high"

    @property
    def x_max(self) -> float:
        return min(math.sqrt(self.q), self.a)


@dataclass(frozen=True, slots=True)
class HalfMaxWindow:
    """The interval [x_left, x_right] where the integrand is >= f_max/2."""

    x_left: float
    x_max: float
    x_right: float
    f_max: LogValue

    @property
    def width(self) -> float:
        return self.x_right - self.x_left

    @property
    def degenerate(self) -> bool:
        """True for q = 0, where the peak sits at the left endpoint."""
        return self.x_max == 0.0


def _log_f(q: float, x: float) -> float:
    """log of x^q e^{-x²/2}; 0^0 is 1 by the q = 0 convention."""
    if x == 0.0:
        return 0.0 if q == 0.0 else -math.inf
    return q * math.log(x) - 0.5 * x * x


def _solve_left(q: float, x_max: float, target: float) -> float:
    """The x in [0, x_max] with log f(x) = target (log f increasing there)."""
    lo, hi = 0.0, x_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _log_f(q, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _solve_right(q: float, x_max: float, end: float, target: float) -> float:
    """The x in [x_max, end] with log f(x) = target, or end if f stays above."""
    if _log_f(q, end) >= target:
        return end
    lo, hi = x_max, end
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _log_f(q, mid) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _integration_end(spec: TruncationSpec) -> float:
    if math.isinf(spec.a):
        x_max = spec.x_max
        return x_max + 12.0 * math.sqrt(1.0 + x_max)
    return spec.a


def half_max_window(spec: TruncationSpec) -> HalfMaxWindow:
    """Where x^q e^{-x²/2} stays within a factor 2 of its max on [0, a].

    The integrand is log-concave, so the super-level set is an interval;
    each endpoint either solves f = f_max/2 or coincides with 0 or a.
    For q = 0 the peak sits at 0 and the left half is degenerate.
    """
    x_max = spec.x_max
    peak = _log_f(spec.q, x_max)
    target = peak - math.log(2.0)
    x_left = 0.0 if spec.q == 0.0 else _solve_left(spec.q, x_max, target)
    x_right = _solve_right(spec.q, x_max, _integration_end(spec), target)
    return HalfMaxWindow(x_left, x_max, x_right, LogValue(peak))


def incomplete_integral(spec: TruncationSpec) -> LogValue:
    """∫₀ᵃ x^q e^{-x²/2} dx in log-domain, relative error <= 1e-10.

    For a = inf the integration stops at x_max + 12·sqrt(1 + x_max); the
    discarded tail is below f(cut)/(cut - q/cut) <= e^{-60}·f_max, which
    is negligible against the half-max window's contribution.
    """
    x_max = spec.x_max
    peak = _log_f(spec.q, x_max)
    target = peak - _CLIP_EFOLDS
    left = 0.0 if spec.q == 0.0 else _solve_left(spec.q, x_max, target)
    right = _solve_right(spec.q, x_max, _integration_end(spec), target)

    def shifted(x: float) -> float:
        return math.exp(_log_f(spec.q, x) - peak)

    interior = [x_max] if left < x_max < right else None
    value, abserr = quad(
        shifted, left, right, points=interior, epsabs=1e-300, epsrel=_QUAD_REL_TOL, limit=200
    )
    if value <= 0.0 or abserr > 1e-10 * value:
        raise NumericalError(
            f"quadrature failed accuracy contract for q={spec.q}, a={spec.a}"
        )
    return LogValue(peak + math.log(value))


def trunc_moment_chi(spec: TruncationSpec) -> LogValue:
    """E(|g|^q · 1{|g| <= a}) = sqrt(2/pi)·∫₀ᵃ x^q e^{-x²/2} dx."""
    integral = incomplete_integral(spec)
    return LogValue(_LOG_SQRT_2_OVER_PI + integral.log)


def trunc_moment_min(spec: TruncationSpec) -> LogValue:
    """E min(|g|, a)^q = E(|g|^q·1{|g|<=a}) + a^q·P{|g| > a}."""
    if math.isinf(spec.a):
        return abs_moment(spec.q) if spec.q > 0.0 else LogValue(0.0)
    chi = trunc_moment_chi(spec)
    cap_term = LogValue(spec.q * math.log(spec.a) + abs_tail_log(spec.a))
    return chi + cap_term


def moment_scale(spec: TruncationSpec) -> tuple[LogValue, str]:
    """Closed-form scale of incomplete_integral, with its regime flag.

    Peak inside the window (q <= a²): (q/e)^{q/2}.
    Mass at the endpoint (q >= a², a finite): a^{q+1}e^{-a²/2}/(a+q-a²).
    The true integral matches the returned expression up to universal
    constant factors; at q = a² the two expressions agree up to a
    constant that does not depend on q.
    """
    if spec.q < 1.0 or spec.a < 1.0:
        raise DomainError("moment_scale requires q >= 1 and a >= 1")
    if spec.regime == "low":
        return LogValue(0.5 * spec.q * (math.log(spec.q) - 1.0)), "low"
    log_expr = (
        (spec.q + 1.0) * math.log(spec.a)
        - 0.5 * spec.a * spec.a
        - math.log(spec.a + spec.q - spec.a * spec.a)
    )
    return LogValue(log_expr), "high"


def moment_bracket(
    spec: TruncationSpec, factors: tuple[float, float] | None = None
) -> BoundBracket:
    """Bracket the incomplete integral by constant multiples of its scale.

    ``factors`` defaults to the calibrated containment window from the
    constants config; the quadrature value must land inside the bracket.
    """
    if factors is None:
        factors = (
            DEFAULT_CONSTANTS.moment_bracket_lo,
            DEFAULT_CONSTANTS.moment_bracket_hi,
        )
    lo_factor, hi_factor = factors
    if not 0.0 < lo_factor <= hi_factor:
        raise DomainError("bracket factors must satisfy 0 < lo <= hi")
    expression, _regime = moment_scale(spec)
    return BoundBracket(
        LogValue(expression.log + math.log(lo_factor)),
        LogValue(expression.log + math.log(hi_factor)),
        {"moment_bracket_lo": lo_factor, "moment_bracket_hi": hi_factor},
    )
