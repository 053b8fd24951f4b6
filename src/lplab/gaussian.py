"""Scalar machinery for the absolute value of a standard Gaussian.

Everything downstream is built on three primitives: the upper tail of
|g| with full relative precision far into the tail, its inverse (the
quantile, by tail or by CDF value), and absolute moments.  The tail is
the delicate one: quantiles of order 1 - 1/n are needed for n up to 1e8
and beyond, and the deviation tests probe tails of size e^{-800}, so
tail and quantile both work on the log scale, through scipy's log_ndtr
and its inverse ndtri_exp.  The quantile takes arrays, so a sum over n
quantiles is one call.

Also hosts the one row reducer behind every lp norm: the Monte Carlo
estimators and the random sections call `_reduce_rows`, and `lp_norm`
and `lp_norm_rows` are that call with input checks.  A row x with
m = max|x_i| is reduced as m·exp(log(Σ(|x_i|/m)^p)/p): the ratios lie in
[0, 1], so the powered sum stays in [1, n] for any p and cannot
overflow, and ratios that underflow lose nothing the result can hold.
Going through the log costs about |log m|·ε of relative error, where
the direct form m·s^{1/p} costs a few ulp: against 50-digit mpmath the
norms are within 7.7e-16 relative on rows of O(1) entries and within
6.8e-14 on rows near 1e±200.  A zero row has norm 0.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr, ndtri_exp

from .errors import DomainError
from .logdomain import LogValue

# log sqrt(2/pi), the normalizing constant of the |g| density
_LOG_SQRT_2_OVER_PI = 0.5 * math.log(2.0 / math.pi)
_LOG_2 = math.log(2.0)


def abs_tail_log(t: float) -> float:
    """log P{|g| >= t} = log 2 + log Phi(-t), for t >= 0.

    scipy's log_ndtr keeps full relative precision into the far tail
    (on t in [1, 1000] it agrees with 50-digit mpmath to 5e-16 relative)
    and gives exactly 0.0 at t = 0 and -inf at t = inf.  For t < 1,
    where the log is close to 0, the contract is absolute: the error
    stays below 7e-16, while the relative error grows as t -> 0
    (1.5e-13 near t = 1e-3).
    """
    t = float(t)
    if not t >= 0.0:
        raise DomainError("abs_tail_log requires t >= 0")
    return _LOG_2 + float(log_ndtr(-t))


def quantile_tail(tail: float | np.ndarray) -> float | np.ndarray:
    """The t >= 0 with P{|g| >= t} = tail, for tail in (0, 1].

    Parameterizing by the tail instead of the CDF value keeps full
    precision for quantiles of order 1 - 1/n: the caller knows 1/n
    exactly, while 1 - 1/n rounds.  Evaluated as -ndtri_exp(log(tail/2))
    on the log scale, so tails down to the smallest double are fine.
    Over tails 1e-300..1/2 it agrees with 40-digit mpmath to 4e-16
    relative; above 1/2 the error grows with the condition number
    tail / (2 phi(t) t), which is about 9 at tail 0.9 and 1/(1 - tail)
    near 1.  Takes a float or an array: a float returns a float, an
    array an array of the same shape, elementwise the same bits.
    """
    x = np.asarray(tail, dtype=float)
    # one test rejects NaN together with the out-of-range values
    if not ((x > 0.0) & (x <= 1.0)).all():
        raise DomainError("quantile_tail requires tail in (0, 1]")
    # 0.0 - (...) turns the -0.0 of tail = 1 into +0.0
    t = 0.0 - ndtri_exp(np.log(x) - _LOG_2)
    return float(t) if x.ndim == 0 else t


def quantile(alpha: float) -> float:
    """The t with P{|g| <= t} = alpha, for alpha in [0, 1).

    Accepts the CDF value; for alpha very close to 1 the conversion
    1 - alpha is limited by double spacing near 1, so callers that know
    the tail directly should use quantile_tail.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise DomainError("quantile requires alpha in [0, 1)")
    return quantile_tail(1.0 - alpha)


def upper_quantile(n: int) -> float:
    """The quantile of order 1 - 1/n of |g|, via the exact tail 1/n."""
    if n < 2:
        raise DomainError("upper_quantile requires n >= 2")
    # 1 / n is correctly rounded for any int n; 1.0 / n overflows past 1.8e308
    return quantile_tail(1 / n)


def quantile_approx(n: int, i: int) -> float:
    """Closed-form approximation to the quantile of order 1 - i/n.

    Returns sqrt(2·log(n/i)) - (log log(n/i)) / (2·sqrt(2·log(n/i))).
    Valid when log(n/i) > 1; the discrepancy against the exact quantile
    is of order 1/sqrt(log(n/i)).
    """
    n = int(n)
    i = int(i)
    if i < 1 or 2 * i > n:
        raise DomainError("quantile_approx requires 1 <= i <= n/2")
    try:
        ratio_log = math.log(n / i)
    except OverflowError:  # n / i past 1.8e308
        ratio_log = math.log(n) - math.log(i)
    if ratio_log <= 1.0:
        raise DomainError("quantile_approx requires log(n/i) > 1")
    w = math.sqrt(2.0 * ratio_log)
    return w - 0.5 * math.log(ratio_log) / w


def abs_moment(p: float) -> LogValue:
    """E|g|^p = (1/sqrt(pi))·2^{p/2}·Gamma((p+1)/2), for p > -1."""
    p = float(p)
    if not -1.0 < p < math.inf:
        raise DomainError("abs_moment requires finite p > -1")
    log_val = 0.5 * p * math.log(2.0) + math.lgamma(0.5 * (p + 1.0)) - 0.5 * math.log(math.pi)
    return LogValue(log_val)


def _validate_p(p: float) -> float:
    """The one p rule: ||.||_p is a norm for p >= 1 and p = inf.

    Like every range test here it is written so that NaN fails it.
    """
    p = float(p)
    if not p >= 1.0:
        raise DomainError(f"need p >= 1 or inf, got {p}")
    return p


# doubles per reducer tile: about 64 rows at n = 1000, one row from n = 65536
_TILE_ELEMS = 1 << 16


def _tile_rows(n: int) -> int:
    """Rows of n doubles per reducer tile."""
    return max(1, _TILE_ELEMS // max(n, 1))


def _workspace_elems(rows: int, n: int, requests: list[tuple[float, bool, bool]]) -> int:
    """Doubles of a `_reduce_rows` workspace for blocks of at most rows x n.

    One tile per kind of magnitude asked for (plain, capped) and one for
    the powers.
    """
    kinds = len({capped for _, capped, _ in requests})
    return (kinds + 1) * min(_tile_rows(n), rows) * n


def _max_factored(
    magnitudes: np.ndarray, peaks: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(peaks, their logs, magnitudes / peaks into out); a peak of 0, inf or NaN scales by 1."""
    safe = np.where((peaks > 0.0) & (peaks < np.inf), peaks, 1.0)
    return peaks, np.log(safe), np.divide(magnitudes, safe[:, None], out=out)


def _reduce_rows(
    block: np.ndarray,
    requests: list[tuple[float, bool, bool]],
    T: float,
    workspace: np.ndarray | None = None,
    basis: np.ndarray | None = None,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Per-row statistics of a block, one output row per request.

    A request (p, capped, log) asks, for each row x, for the lp norm of
    a (log false; p = inf allowed) or for log sum_i a_i^p, max-factored
    and -inf for a zero row (log true), where a = min(|x|, T) if capped
    and a = |x| otherwise.  The block is walked in tiles of about
    _TILE_ELEMS doubles; each tile's magnitudes, row peaks and scaled
    copy are built once and serve every request.

    |x|, the scaled copies, min(., T) and the powers are written with
    out= into `workspace`, a float64 array of at least
    `_workspace_elems(rows, n, requests)` elements (one is allocated for
    the call if None), so a tile makes no temporary of its size.  A
    caller that reduces many blocks passes the same workspace to each.

    With `basis`, an n x k matrix B, the block is m x k points y and the
    rows reduced are their images x = B y, formed a tile at a time in
    one more tile of scratch (pass no workspace: the call allocates
    it).  The first request must be a norm, (p, False, False); the call
    returns (out, gradients), row j of gradients being B^T grad ||x||_p
    at the image of point j (NaN at p = inf).  With
    s = sum_i (|x_i|/m)^p, the gradient is ||x||_p (|x|/m)^p / (x s)
    elementwise, 0 where x_i = 0: the power tile the norm was summed
    from, divided in place by x, so it costs a divide and a k-column
    matmul but no second power.
    """
    rows = block.shape[0]
    n = block.shape[1] if basis is None else basis.shape[0]
    out = np.empty((len(requests), rows))
    tile = _tile_rows(n)
    kinds = {capped for _, capped, _ in requests}
    size = min(tile, rows) * n
    gradients = None if basis is None else np.full((rows, basis.shape[1]), math.nan)
    count = len(kinds) + 1 + (basis is not None)
    if workspace is None:
        workspace = np.empty(count * size)
    slots = [workspace[j * size : (j + 1) * size] for j in range(count)]
    # with a basis, the points' images take the first slot
    images = None if basis is None else slots.pop(0)
    for start in range(0, rows, tile):
        part = block[start : start + tile]
        if basis is not None:
            part = np.matmul(part, basis.T, out=images[: len(part) * n].reshape(-1, n))
        powers, *scaled = (slot[: part.size].reshape(part.shape) for slot in slots)
        # |x| goes into the last slot: the plain kind is divided out of
        # it into the other one before the capped kind caps it in place
        magnitudes = np.abs(part, out=scaled[-1])
        peaks = magnitudes.max(axis=1)
        factored = {}
        if False in kinds:
            factored[False] = _max_factored(magnitudes, peaks, scaled[0])
        if True in kinds:
            # the peak of min(|x|, T) is min(peak, T), exactly
            capped = np.minimum(magnitudes, T, out=scaled[-1])
            factored[True] = _max_factored(capped, np.minimum(peaks, T), scaled[-1])
        for k, (p, capped, log) in enumerate(requests):
            row_peaks, log_peaks, ratios = factored[capped]
            if math.isinf(p) and not log:
                out[k, start : start + tile] = row_peaks
                continue
            sums = np.power(ratios, p, out=powers).sum(axis=1)
            # a zero row has sums 0; np.where discards its log, while a
            # NaN row keeps its NaN
            with np.errstate(divide="ignore"):
                log_sums = np.where(row_peaks == 0.0, -np.inf, p * log_peaks + np.log(sums))
            out[k, start : start + tile] = log_sums if log else np.exp(log_sums / p)
            if gradients is not None and k == 0:
                gradients[start : start + tile] = _norm_gradients(
                    part, powers, basis, out[0, start : start + tile] / sums
                )
    return out if gradients is None else (out, gradients)


def _norm_gradients(
    block: np.ndarray, powers: np.ndarray, basis: np.ndarray, scales: np.ndarray
) -> np.ndarray:
    """B^T (powers / block) scaled by row, with 0 where block is 0; powers is overwritten."""
    with np.errstate(invalid="ignore"):
        np.divide(powers, block, out=powers)
    gradients = powers @ basis
    # 0 / 0 where a coordinate is 0: it adds nothing to the gradient
    if np.isnan(gradients).any():
        powers[block == 0.0] = 0.0
        gradients = powers @ basis
    gradients *= scales[:, None]
    return gradients


def lp_norm(x, p: float) -> float:
    """(Σ|x_i|^p)^{1/p} of a nonempty vector, max|x_i| at p = inf."""
    p = _validate_p(p)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("lp_norm requires a nonempty 1-d vector")
    return float(_reduce_rows(x[None, :], [(p, False, False)], math.inf)[0, 0])


def lp_norm_rows(rows: np.ndarray, p: float) -> np.ndarray:
    """Row-wise lp norms of a 2-d array, through the tiled reducer."""
    p = _validate_p(p)
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise DomainError("lp_norm_rows requires a nonempty 2-d array")
    return _reduce_rows(rows, [(p, False, False)], math.inf)[0]
