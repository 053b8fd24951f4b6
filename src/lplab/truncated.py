"""Truncated Gaussian moments in closed form.

The workhorse integral is ∫₀ᵃ x^q e^{-x²/2} dx with q as large as a few
thousand, where its value overflows doubles, so it is carried as a
LogValue.  Substituting t = x²/2 gives the lower incomplete gamma
function (DLMF 8.2.1):

    ∫₀ᵃ x^q e^{-x²/2} dx = 2^{(q-1)/2} γ(s, x),   s = (q+1)/2,  x = a²/2,

evaluated on one of two branches:

- x <= max(s, 4): Kummer's form γ(s, x) = x^s e^{-x} M(1, s+1, x) / s
  (DLMF 8.5.1), i.e. log I = (q+1) log a - x - log(q+1) + log M.  It
  takes log a rather than log x, so tiny a is fine, M is a sum of
  positive terms, and nothing cancels against s·log x.
- otherwise, a = inf included: log I = ((q-1)/2) log 2 + log Γ(s) +
  log P(s, x), with P the regularized gamma function, which is at
  least about 1/2 past the peak and tends to 1.

Also here: the two moment flavors E(|g|^q·1{|g|<=a}) and E min(|g|,a)^q,
the half-max window of the integrand, and the closed-form scale
expressions for the integral's two regimes (peak inside the interval
vs. mass piled at the endpoint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammainc, hyp1f1

from .config import DEFAULT_CONSTANTS
from .errors import DomainError
from .gaussian import _LOG_SQRT_2_OVER_PI, abs_moment, abs_tail_log
from .logdomain import BoundBracket, LogValue, log_sum_exp

# up to this x = a²/2 the Kummer branch serves x > s too: scipy's P(s, x)
# is 1 - Q(s, x) for x > max(1, s), and against mpmath it is off by up to
# 5e-15 relative for s < 3 and x < 3.5, where Kummer's form stays within
# 1.4e-15; past x = 4 both are within 7e-16
_KUMMER_FLOOR = 4.0


@dataclass(frozen=True, slots=True)
class TruncationSpec:
    """Exponent q >= 0 and truncation point a in (0, inf]."""

    q: float
    a: float

    def __post_init__(self) -> None:
        q = float(self.q)
        a = float(self.a)
        if not 0.0 <= q < math.inf:
            raise DomainError("truncation exponent q must be finite and >= 0")
        if not a > 0.0:
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


def _bisect(q: float, above: float, below: float, target: float) -> float:
    """The x between above (log f >= target) and below (log f < target)
    where log f crosses target; log f is monotone between the two."""
    for _ in range(200):
        mid = 0.5 * (above + below)
        if mid == above or mid == below:
            break
        if _log_f(q, mid) >= target:
            above = mid
        else:
            below = mid
    return 0.5 * (above + below)


def half_max_window(spec: TruncationSpec) -> HalfMaxWindow:
    """Where x^q e^{-x²/2} stays within a factor 2 of its max on [0, a].

    The integrand is log-concave, so the super-level set is an interval;
    each endpoint either solves f = f_max/2 or coincides with 0 or a.
    For q = 0 the peak sits at 0 and the left half is degenerate.
    """
    q, x_max = spec.q, spec.x_max
    peak = _log_f(q, x_max)
    target = peak - math.log(2.0)
    x_left = 0.0 if q == 0.0 else _bisect(q, x_max, 0.0, target)
    # for a = inf, 12·sqrt(1 + x_max) past the peak f is far below f_max/2
    end = spec.a if math.isfinite(spec.a) else x_max + 12.0 * math.sqrt(1.0 + x_max)
    x_right = end if _log_f(q, end) >= target else _bisect(q, x_max, end, target)
    return HalfMaxWindow(x_left, x_max, x_right, LogValue(peak))


def incomplete_integral(spec: TruncationSpec) -> LogValue:
    """∫₀ᵃ x^q e^{-x²/2} dx in log-domain, from the incomplete gamma function.

    Against 40-digit mpmath on 15,867 cases, q in [0, 6000] and a in
    [1e-3, 100] or inf, dense around x = s and x = 4, the worst
    |Δ log I| / max(|log I|, 1) is 1.4e-15.
    """
    q, a = spec.q, spec.a
    s = 0.5 * (q + 1.0)
    x = 0.5 * a * a
    if x <= max(s, _KUMMER_FLOOR):
        return LogValue(
            (q + 1.0) * math.log(a) - x - math.log(q + 1.0) + math.log(hyp1f1(1.0, s + 1.0, x))
        )
    return LogValue(0.5 * (q - 1.0) * math.log(2.0) + math.lgamma(s) + math.log(gammainc(s, x)))


def trunc_moment_chi(spec: TruncationSpec) -> LogValue:
    """E(|g|^q · 1{|g| <= a}) = sqrt(2/pi)·∫₀ᵃ x^q e^{-x²/2} dx."""
    integral = incomplete_integral(spec)
    return LogValue(_LOG_SQRT_2_OVER_PI + integral.log)


def trunc_moment_min(spec: TruncationSpec) -> LogValue:
    """E min(|g|, a)^q = E(|g|^q·1{|g|<=a}) + a^q·P{|g| > a}."""
    if math.isinf(spec.a):
        return abs_moment(spec.q) if spec.q > 0.0 else LogValue(0.0)
    cap_term = spec.q * math.log(spec.a) + abs_tail_log(spec.a)
    return LogValue(log_sum_exp([trunc_moment_chi(spec).log, cap_term]))


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
    constants config; the integral must land inside the bracket.
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
    )
