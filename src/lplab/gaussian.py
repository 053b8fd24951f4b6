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
estimators and the random sections call `_reduce_rows`.  A row x with
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
    magnitudes: np.ndarray, peaks: np.ndarray, logs: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """magnitudes / peaks into out, their logs into logs; a peak of 0, inf or NaN scales by 1."""
    safe = np.where((peaks > 0.0) & (peaks < np.inf), peaks, 1.0)
    np.log(safe, out=logs)
    return np.divide(magnitudes, safe[:, None], out=out)


def _finish(sums: np.ndarray, p: float, log: bool, peaks: np.ndarray, logs: np.ndarray) -> None:
    """Max-factored power sums, in place, to log power sums (log) or lp norms."""
    # a zero row has sums 0; np.where discards its log, while a NaN row
    # keeps its NaN
    with np.errstate(divide="ignore"):
        log_sums = np.where(peaks == 0.0, -np.inf, p * logs + np.log(sums))
    sums[:] = log_sums if log else np.exp(log_sums / p)


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
    copy are built once and serve every request.  Each request's power
    sums and each kind's row peaks and their logs are kept for the whole
    block and finished into norms or logs once, after the tile loop.

    A row whose peak is <= T has capped ratios min(|x|, T)/min(m, T)
    equal to its plain ratios |x|/m, bit for bit.  So a capped request
    at a p also asked plain takes the plain power sums on those rows,
    and only the rows where the cap binds are powered and summed: they
    are gathered from the capped tile into the plain slot of the
    workspace, which every plain request has read by then.

    |x|, the scaled copies, min(., T), the gathered rows and the powers
    are written with out= into `workspace`, a float64 array of at least
    `_workspace_elems(rows, n, requests)` elements (one is allocated for
    the call if None), so a tile makes no temporary of its size.  A
    caller that reduces many blocks passes the same workspace to each.

    With `basis`, an n x k matrix B, the block is m x k points y and the
    rows reduced are their images x = B y, formed a tile at a time in
    one more tile of scratch (pass no workspace: the call allocates
    it).  The first request must be a norm, (p, False, False), and the
    call returns (out, gradients), row j of gradients being
    B^T grad ||x||_p at the image of point j (NaN at p = inf).  With
    s = sum_i (|x_i|/m)^p, the gradient is ||x||_p (|x|/m)^p / (x s)
    elementwise, 0 where x_i = 0.  Each tile divides the powers its
    sums were summed from in place by x and multiplies them by B; after
    the finish each row is scaled by ||x||_p / s once.  A gradient costs
    a divide and a k-column matmul but no second power.
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
    # the row peaks of each kind and their logs, kept for the whole block
    peaks = {False: np.empty(rows), True: np.empty(rows)}
    logs = {kind: np.empty(rows) for kind in kinds}
    summed = [k for k, (p, _, log) in enumerate(requests) if log or not math.isinf(p)]
    # each capped request at a p also asked plain, and the plain one; the
    # plain requests then go first, so that their slot can take the
    # gathered capped rows
    reused = {}
    if len(kinds) == 2:
        summed.sort(key=lambda k: requests[k][1])
        plain = {requests[k][0]: k for k in summed if not requests[k][1]}
        reused = {
            k: plain[requests[k][0]] for k in summed if requests[k][1] and requests[k][0] in plain
        }
    for start in range(0, rows, tile):
        part = block[start : start + tile]
        span = slice(start, start + len(part))
        if basis is not None:
            part = np.matmul(part, basis.T, out=images[: len(part) * n].reshape(-1, n))
        powers, *scaled = (slot[: part.size].reshape(part.shape) for slot in slots)
        # |x| goes into the last slot: the plain kind is divided out of
        # it into the other one before the capped kind caps it in place
        magnitudes = np.abs(part, out=scaled[-1])
        row_peaks = magnitudes.max(axis=1, out=peaks[False][span])
        ratios = {}
        if False in kinds:
            ratios[False] = _max_factored(magnitudes, row_peaks, logs[False][span], scaled[0])
        if True in kinds:
            # the peak of min(|x|, T) is min(peak, T), exactly
            capped = np.minimum(magnitudes, T, out=scaled[-1])
            capped_peaks = np.minimum(row_peaks, T, out=peaks[True][span])
            ratios[True] = _max_factored(capped, capped_peaks, logs[True][span], scaled[-1])
        gathered = None
        for k in summed:
            p, capped, log = requests[k]
            if k in reused:
                if gathered is None:
                    bound = np.flatnonzero(row_peaks > T)
                    # mode="clip" writes straight into out=; the default
                    # buffers a copy
                    gathered = np.take(
                        ratios[True], bound, axis=0, mode="clip", out=scaled[0][: len(bound)]
                    )
                out[k, span] = out[reused[k], span]
                out[k, start + bound] = np.power(gathered, p, out=powers[: len(bound)]).sum(axis=1)
                continue
            out[k, span] = np.power(ratios[capped], p, out=powers).sum(axis=1)
            if basis is not None and k == 0:
                # where a coordinate is 0 its power is already 0, which the divide leaves in place
                np.divide(powers, part, out=powers, where=part != 0.0)
                gradients[span] = powers @ basis
    # the finish overwrites the sums that scale the gradients
    sums = None if basis is None else out[0].copy()
    for k, (p, capped, log) in enumerate(requests):
        if math.isinf(p) and not log:
            out[k] = peaks[capped]
        else:
            _finish(out[k], p, log, peaks[capped], logs[capped])
    if basis is not None and 0 in summed:
        gradients *= (out[0] / sums)[:, None]
    return out if gradients is None else (out, gradients)
