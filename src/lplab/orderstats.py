"""Order statistics of |g| for an n-dimensional standard Gaussian vector.

g_i* denotes the i-th largest absolute coordinate.  The exact law of
g_i* against a quantile threshold is a partial binomial sum; everything
here is kept in log-domain because those sums span hundreds of e-folds
(the probability that all 10^4 coordinates stay below the 0.7-quantile
is e^{-3566}).

The three lower-deviation bounds carry calibrated constants from the
config; they are upper bounds on P{g_i* <= u * typical value} in three
ranges of i, and the tests check that they dominate empirical
frequencies, not that they are tight.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, logsumexp

from .config import DEFAULT_CONSTANTS, Constants
from .errors import DomainError
from .gaussian import quantile_tail
from .logdomain import LogValue
from .montecarlo import _uniforms


def _validate_n_i(n: int, i: int) -> None:
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if not 1 <= i <= n:
        raise DomainError(f"need 1 <= i <= n, got i={i}, n={n}")


def orderstat_cdf_exact(n: int, i: int, beta: float) -> LogValue:
    """P{g_i* <= xi_(1-beta)}: exactly the P{Bin(n, beta) <= i-1} sum.

    The event says fewer than i coordinates exceed the upper-beta
    quantile, and coordinate exceedances are i.i.d. Bernoulli(beta).
    """
    _validate_n_i(n, i)
    if not 0.0 < beta < 1.0:
        raise DomainError(f"need beta in (0, 1), got {beta}")
    j = np.arange(i)
    log_terms = (
        gammaln(n + 1)
        - gammaln(j + 1)
        - gammaln(n - j + 1)
        + j * math.log(beta)
        + (n - j) * math.log1p(-beta)
    )
    return LogValue(min(float(logsumexp(log_terms)), 0.0))


def chernoff_bound(n: int, i: int, beta: float) -> LogValue:
    """exp(-(beta*n - i + 1)^2 / (2*beta*n)), an upper bound on the exact CDF.

    Only stated for i <= beta*n (the lower-tail side of the binomial).
    """
    _validate_n_i(n, i)
    if not 0.0 < beta < 1.0:
        raise DomainError(f"need beta in (0, 1), got {beta}")
    bn = beta * n
    if i > bn:
        raise DomainError(f"bound requires i <= beta*n, got i={i}, beta*n={bn}")
    gap = bn - i + 1.0
    return LogValue(-gap * gap / (2.0 * bn))


def deviation_bound_initial(
    n: int, i: int, u: float, constants: Constants = DEFAULT_CONSTANTS
) -> LogValue:
    """Bound on P{g_i* <= u * xi_(1-1/n)} for the top few order statistics.

    Valid for i <= sqrt(n) and u in [1/sqrt(log n), 1 - C/log n]; the
    bound is exp(-(c i / u) * (n / (i sqrt(log n)))^(1 - u^2)).
    """
    _validate_n_i(n, i)
    log_n = math.log(n)
    if i * i > n:
        raise DomainError(f"initial-range bound requires i <= sqrt(n), got i={i}")
    u_lo = 1.0 / math.sqrt(log_n)
    u_hi = 1.0 - constants.dev_initial_C / log_n
    if not u_lo <= u <= u_hi:
        raise DomainError(
            f"need u in [{u_lo:.4g}, {u_hi:.4g}] for n={n}, got {u}"
        )
    c = constants.dev_initial_c
    exponent = (c * i / u) * (n / (i * math.sqrt(log_n))) ** (1.0 - u * u)
    return LogValue(-exponent)


def deviation_bound_intermediate(
    n: int, i: int, u: float, constants: Constants = DEFAULT_CONSTANTS
) -> LogValue:
    """Bound on P{g_i* <= u * xi_(1-i/n)} for i up to n/2.

    exp(-c (1-u)^2 i log(n/i)); weaker than the initial-range bound for
    small i but valid over the whole intermediate range.
    """
    _validate_n_i(n, i)
    if 2 * i > n:
        raise DomainError(f"intermediate bound requires i <= n/2, got i={i}, n={n}")
    if not 0.0 < u < 1.0:
        raise DomainError(f"need u in (0, 1), got {u}")
    c = constants.dev_intermediate_c
    return LogValue(-c * (1.0 - u) ** 2 * i * math.log(n / i))


def deviation_bound_crude(n: int, u: float) -> LogValue:
    """min(1, (4u)^(n/2)): i-free bound for very small u, any i <= n/2."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if u < 0.0 or math.isnan(u):
        raise DomainError(f"need u >= 0, got {u}")
    if u == 0.0:
        return LogValue(-math.inf)
    return LogValue(min(0.0, 0.5 * n * math.log(4.0 * u)))


def sample_top_orderstats(n: int, k_top: int, rng: np.random.Generator) -> np.ndarray:
    """Draw (g_1*, ..., g_k_top*) without materializing all n coordinates.

    Uniform order statistics admit the representation
    U_(n-j+1) = exp(-S_j) with S_j a partial sum of scaled exponentials,
    so the top k absolute values are quantile_tail(1 - exp(-S_j)).
    Exact in distribution; O(k_top) work per draw.  The caller owns the
    generator; concurrent use requires disjoint generators.
    """
    if not 1 <= k_top <= n:
        raise DomainError(f"need 1 <= k_top <= n, got k_top={k_top}, n={n}")
    exponentials = -np.log(_uniforms(rng, (k_top,)))
    denominators = n - np.arange(k_top, dtype=np.float64)
    partial = np.cumsum(exponentials / denominators)
    # tail probability of the j-th top coordinate: 1 - exp(-S_j)
    tails = -np.expm1(-partial)
    return quantile_tail(tails)
