"""Order statistics of |g| for an n-dimensional standard Gaussian vector.

g_i* denotes the i-th largest absolute coordinate.  The exact law of
g_i* against a quantile threshold is a partial binomial sum; everything
here is kept in log-domain because those sums span hundreds of e-folds
(the probability that all 10^4 coordinates stay below the 0.7-quantile
is e^{-3566}).  The Chernoff bound sits above the exact CDF, and
sample_top_orderstats draws the top few order statistics directly.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.special import logsumexp

from .config import DEFAULT_CONSTANTS, Constants
from .errors import DomainError
from .gaussian import quantile_tail
from .logdomain import LogValue
from .montecarlo import _uniforms

# tracemalloc peak of orderstat_cdf_exact per term of its binomial sum:
# 65.0 bytes at i = 10^5, 10^6 and 4·10^6 (its float64 arrays of i terms)
_CDF_BYTES_PER_TERM = 65


def _validate_n_i(n: int, i: int) -> None:
    """The one (n, i) rule: 2 <= n, n a double (the sums scale n and its log), 1 <= i <= n."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if n > sys.float_info.max:
        raise DomainError(f"need n <= {sys.float_info.max:.4g}, the largest double")
    if not 1 <= i <= n:
        raise DomainError(f"need 1 <= i <= n, got i={i}, n={n}")


def _check_beta(beta: float) -> None:
    """The one beta rule: an exceedance probability in (0, 1)."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"need beta in (0, 1), got {beta}")


def orderstat_cdf_exact(
    n: int, i: int, beta: float, constants: Constants = DEFAULT_CONSTANTS
) -> LogValue:
    """P{g_i* <= xi_(1-beta)}: exactly the P{Bin(n, beta) <= i-1} sum.

    The event says fewer than i coordinates exceed the upper-beta
    quantile, and coordinate exceedances are i.i.d. Bernoulli(beta).
    The log terms start at n log(1 - beta) and grow by the log ratio
    log((n - j) / (j + 1)) + log(beta / (1 - beta)) of consecutive
    terms, so no two large logs cancel: against 50-digit mpmath at
    n = 10^6, beta = 0.01 the log CDF is within 4e-11 absolute up to
    i = 5000, where differences of lgamma values lost about 1e-9.  The
    i-term arrays must fit constants.memory_guard_bytes.
    """
    _validate_n_i(n, i)
    _check_beta(beta)
    guard = constants.memory_guard_bytes
    if _CDF_BYTES_PER_TERM * i > guard:
        raise DomainError(f"a binomial sum of {i} terms exceeds the memory guard ({guard} bytes)")
    j = np.arange(i - 1)
    # float(n): n - j overflows int64 past 9.2e18
    steps = np.log((float(n) - j) / (j + 1)) + (math.log(beta) - math.log1p(-beta))
    log_terms = n * math.log1p(-beta) + np.concatenate(([0.0], np.cumsum(steps)))
    return LogValue(min(float(logsumexp(log_terms)), 0.0))


def chernoff_bound(n: int, i: int, beta: float) -> LogValue:
    """exp(-(beta*n - i + 1)^2 / (2*beta*n)), an upper bound on the exact CDF.

    Only stated for i <= beta*n (the lower-tail side of the binomial).
    """
    _validate_n_i(n, i)
    _check_beta(beta)
    bn = beta * n
    if i > bn:
        raise DomainError(f"bound requires i <= beta*n, got i={i}, beta*n={bn}")
    gap = bn - i + 1.0
    square = gap * gap
    if math.isinf(square):
        # gap^2 overflows once beta*n passes about 1.3e154; gap <= beta*n
        # keeps both factors finite
        return LogValue(-(gap / 2.0) * (gap / bn))
    return LogValue(-square / (2.0 * bn))


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
