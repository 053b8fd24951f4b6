"""Seeded Monte Carlo estimators for p-norm statistics of Gaussian vectors.

Reproducibility contract: every estimator is a pure function of
(seed, streams, samples, shape).  Streams use a counter-based generator
keyed by (seed, stream_index), so stream s always produces the same
draws no matter how many other streams run or in what order; per-stream
moment accumulators are merged along a fixed pairwise tree ordered by
stream index.  Rerunning any estimator therefore reproduces identical
output bits, which the test suite asserts.

Gaussians come from the inverse CDF applied to 53-bit uniforms rather
than rejection sampling: inverse transform keeps the quantile coupling
(sample i of stream s is a fixed monotone function of one uniform),
which the order-statistic tests rely on.

Accumulation tracks central moments up to order four so that variance
estimates carry honest standard errors (variance of the sample variance
needs the fourth moment).

One sampling loop serves every estimator.  `_stream_blocks` yields the
blocks of each stream in order: the stream's quota split into chunks of
`_chunk_rows` rows (pairs of vectors for the lower identity).
The row reducer `gaussian._reduce_rows`, which also serves
`lp_norm_rows` and so the random sections, turns a block into per-row
statistics, walking it in row tiles of about 2^16 doubles: a tile's
|x|, row peaks and max-scaled copy (and their capped forms
min(|x|, T)) are built once and serve every norm and log power sum
asked for, so `mc_grid_stats` estimates a whole grid of p, caps and a
negative moment from one generation of the draws.  The tile height
cannot change a bit of the output: each value is a reduction over one
row alone, written into a full-chunk vector, and every accumulator
still sees one batch per chunk, with the same chunk boundaries and
merge tree as a single-estimator call.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .config import DEFAULT_CONSTANTS, Constants
from .errors import DomainError
from .gaussian import _reduce_rows
from .logdomain import LogValue
from .variance import quantile_power_sum

_U53 = float(1 << 53)
# doubles per sample chunk; net evaluation blocks use the same budget
_CHUNK_ELEMS = 1 << 21
# z for the 95% Wilson interval
_WILSON_Z = 1.959963984540054


@dataclass(frozen=True, slots=True)
class RngStream:
    """One reproducible substream: counter-based, keyed by (seed, index)."""

    seed: int
    stream_index: int

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 bits")
        if self.stream_index < 0:
            raise DomainError("stream_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.stream_index], dtype=np.uint64))
        )


def _uniforms(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Open-interval (0,1) uniforms built from raw 53-bit integers."""
    raw = gen.integers(0, 1 << 53, size=shape, dtype=np.uint64)
    return (raw.astype(np.float64) + 0.5) / _U53


def gaussian_draws(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return ndtri(_uniforms(gen, shape))


@dataclass(frozen=True, slots=True)
class MomentAccumulator:
    """Count, mean and central sums of powers 2..4; exact merge rules."""

    count: int
    mean: float
    m2: float
    m3: float
    m4: float

    @classmethod
    def empty(cls) -> "MomentAccumulator":
        return cls(0, 0.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_batch(cls, values: np.ndarray) -> "MomentAccumulator":
        values = np.asarray(values, dtype=np.float64)
        count = int(values.size)
        if count == 0:
            return cls.empty()
        mean = float(values.mean())
        deltas = values - mean
        sq = deltas * deltas
        return cls(
            count,
            mean,
            float(sq.sum()),
            float((sq * deltas).sum()),
            float((sq * sq).sum()),
        )

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        if self.count == 0:
            return other
        if other.count == 0:
            return self
        na, nb = float(self.count), float(other.count)
        n = na + nb
        delta = other.mean - self.mean
        mean = self.mean + delta * nb / n
        m2 = self.m2 + other.m2 + delta * delta * na * nb / n
        m3 = (
            self.m3
            + other.m3
            + delta**3 * na * nb * (na - nb) / n**2
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n
        )
        m4 = (
            self.m4
            + other.m4
            + delta**4 * na * nb * (na * na - na * nb + nb * nb) / n**3
            + 6.0 * delta * delta * (na * na * other.m2 + nb * nb * self.m2) / n**2
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n
        )
        return MomentAccumulator(int(n), mean, m2, m3, m4)


def merge_pairwise(accumulators: list[MomentAccumulator]) -> MomentAccumulator:
    """Reduce stream accumulators along a fixed binary tree (by index)."""
    if not accumulators:
        return MomentAccumulator.empty()
    level = list(accumulators)
    while len(level) > 1:
        merged = []
        for j in range(0, len(level) - 1, 2):
            merged.append(level[j].merge(level[j + 1]))
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return level[0]


@dataclass(frozen=True, slots=True)
class MCEstimate:
    mean: float
    variance: float
    stderr_mean: float
    stderr_variance: float
    samples: int
    seed: int
    streams: int

    def __post_init__(self) -> None:
        if self.variance < 0.0:
            raise DomainError("variance cannot be negative")


def _estimate(acc: MomentAccumulator, seed: int, streams: int) -> MCEstimate:
    n = acc.count
    if n < 2:
        raise DomainError("need at least 2 samples for a variance estimate")
    variance = acc.m2 / (n - 1)
    pop_var = acc.m2 / n
    fourth = acc.m4 / n
    var_of_var = max(fourth - pop_var * pop_var, 0.0) / n
    return MCEstimate(
        mean=acc.mean,
        variance=variance,
        stderr_mean=math.sqrt(variance / n) if variance > 0.0 else 0.0,
        stderr_variance=math.sqrt(var_of_var),
        samples=n,
        seed=seed,
        streams=streams,
    )


def _stream_quota(samples: int, streams: int, index: int) -> int:
    base, extra = divmod(samples, streams)
    return base + (1 if index < extra else 0)


def _chunk_rows(n: int, constants: Constants) -> int:
    rows = max(1, min(_CHUNK_ELEMS // max(n, 1), 8192))
    if rows * n * 8 > constants.memory_guard_bytes:
        raise DomainError(
            f"a single sample chunk ({rows}x{n} doubles) exceeds the memory guard"
        )
    return rows


def _validate_mc_args(n: int, samples: int, streams: int, constants: Constants) -> int:
    """Check the sampling budget and return the chunk height in rows."""
    if samples < 2:
        raise DomainError(f"need samples >= 2, got {samples}")
    if streams < 1:
        raise DomainError(f"need streams >= 1, got {streams}")
    chunk = _chunk_rows(n, constants)
    # an empty stream would still build a generator and an accumulator
    if streams > samples:
        raise DomainError(f"need streams <= samples, got {streams} > {samples}")
    return chunk


def default_samples(n: int) -> int:
    """Sample budget keeping runtimes in the seconds-to-minutes range."""
    return 100_000 if n <= 10_000 else 10_000


def _stream_blocks(
    n: int, samples: int, seed: int, streams: int, chunk: int, paired: bool = False
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (stream_index, block) for every chunk of every stream, in order.

    Stream s draws its quota of samples in chunks of at most `chunk` rows.
    With paired=True a sample is a pair of vectors: a chunk of r samples
    is one (2r, n) block whose first r rows pair with its last r.
    """
    width = 2 if paired else 1
    step = max(chunk // width, 1)
    for index in range(streams):
        gen = RngStream(seed, index).generator()
        remaining = _stream_quota(samples, streams, index)
        while remaining > 0:
            rows = min(step, remaining)
            yield index, gaussian_draws(gen, (width * rows, n))
            remaining -= rows


def _fold_streams(
    blocks: Iterator[tuple[int, np.ndarray]],
    statistics: Callable[[np.ndarray], list[np.ndarray]],
    count: int,
    streams: int,
) -> list[MomentAccumulator]:
    """Moments of `count` per-row statistics, merged per stream, then pairwise.

    statistics(block) returns `count` arrays of per-row values; each
    becomes one batch merged into its stream's accumulator.
    """
    per_stream = [[MomentAccumulator.empty()] * streams for _ in range(count)]
    for index, block in blocks:
        for accs, values in zip(per_stream, statistics(block), strict=True):
            accs[index] = accs[index].merge(MomentAccumulator.from_batch(values))
    return [merge_pairwise(accs) for accs in per_stream]


@dataclass(frozen=True, slots=True)
class MCGridStats:
    """Every estimate of one fused pass, in request order.

    norms[k] is the mc_norm_stats estimate at p_values[k]; truncated[k]
    is the (f_T, gap^2) pair of mc_truncated_stats at the same p, empty
    without a cap; negative is the mc_negative_moment estimate or None.
    """

    norms: tuple[MCEstimate, ...]
    truncated: tuple[tuple[MCEstimate, MCEstimate], ...]
    negative: MCEstimate | None


def _check_cap(T: float) -> None:
    if not T > 0.0:
        raise DomainError(f"need T > 0, got {T}")


def mc_grid_stats(
    n: int,
    p_values: Sequence[float],
    samples: int,
    seed: int,
    streams: int = 4,
    constants: Constants = DEFAULT_CONSTANTS,
    T: float | None = None,
    negative: tuple[float, float] | None = None,
) -> MCGridStats:
    """Norm, truncation and negative-moment statistics from one set of draws.

    Field for field equal to mc_norm_stats at each p, plus
    mc_truncated_stats(p, T) at each p when T is given, plus
    mc_negative_moment(q, L, T, or inf without T) when negative = (q, L),
    all with the same seed and streams; but every stream is drawn once
    and every block reduced once.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    p_values = list(p_values)
    for p in p_values:
        if not p >= 1.0:
            raise DomainError(f"need p >= 1 or inf, got {p}")
    if T is not None:
        _check_cap(T)
    if negative is not None:
        q, L = negative
        if q < 1.0:
            raise DomainError(f"need q >= 1, got {q}")
        if L < 0.0:
            raise DomainError(f"need L >= 0, got {L}")
        if q * L > constants.negative_moment_K * math.log(max(n, 2)):
            raise DomainError(
                f"need q*L <= {constants.negative_moment_K} log n, got {q * L}"
            )
    if not p_values and negative is None:
        raise DomainError("need a p value or a negative moment to estimate")
    chunk = _validate_mc_args(n, samples, streams, constants)
    cap = math.inf if T is None else T
    capped = not math.isinf(cap)
    width = len(p_values)
    requests = [(p, False, False) for p in p_values]
    if capped:
        requests += [(p, True, False) for p in p_values]
    if negative is not None:
        requests.append((q, capped, True))

    def statistics(block: np.ndarray) -> list[np.ndarray]:
        reduced = _reduce_rows(block, requests, cap)
        norms = reduced[:width]
        values = list(norms)
        if T is not None:
            capped_norms = reduced[width : 2 * width] if capped else norms
            for norm, capped_norm in zip(norms, capped_norms):
                gaps = norm - capped_norm
                values += [capped_norm, gaps * gaps]
        if negative is not None:
            values.append(np.exp(-L * reduced[-1]))
        return values

    count = width * (3 if T is not None else 1) + (negative is not None)
    blocks = _stream_blocks(n, samples, seed, streams, chunk)
    estimates = [
        _estimate(acc, seed, streams)
        for acc in _fold_streams(blocks, statistics, count, streams)
    ]
    truncated = ()
    if T is not None:
        pairs = estimates[width : 3 * width]
        truncated = tuple(zip(pairs[0::2], pairs[1::2]))
    return MCGridStats(
        norms=tuple(estimates[:width]),
        truncated=truncated,
        negative=estimates[-1] if negative is not None else None,
    )


def mc_norm_stats(
    n: int,
    p: float,
    samples: int,
    seed: int,
    streams: int = 4,
    constants: Constants = DEFAULT_CONSTANTS,
) -> MCEstimate:
    """Estimate mean and variance of ||G||_p over `samples` fresh vectors."""
    return mc_grid_stats(n, [p], samples, seed, streams, constants).norms[0]


def mc_truncated_stats(
    n: int,
    p: float,
    T: float,
    samples: int,
    seed: int,
    streams: int = 4,
    constants: Constants = DEFAULT_CONSTANTS,
) -> tuple[MCEstimate, MCEstimate]:
    """Statistics of the capped norm f_T and of the squared gap, coupled.

    f_T(G) = (sum_i min(T, |g_i|)^p)^{1/p} caps coordinates at T; the
    second estimate is of (||G||_p - f_T(G))^2 on the same draws, the
    variance cost of the truncation.
    """
    return mc_grid_stats(n, [p], samples, seed, streams, constants, T=T).truncated[0]


def mc_negative_moment(
    n: int,
    q: float,
    L: float,
    T: float,
    samples: int,
    seed: int,
    streams: int = 4,
    constants: Constants = DEFAULT_CONSTANTS,
) -> MCEstimate:
    """Estimate E (sum_i min(|g_i|, T)^q)^{-L}.

    The per-sample value is exponentiated from the log of the capped
    power sum, so large q stays finite.  Precondition q L <= K log n
    keeps the target moment bounded away from underflow.
    """
    return mc_grid_stats(
        n, [], samples, seed, streams, constants, T=T, negative=(q, L)
    ).negative


def mc_lower_identity(
    n: int,
    p: float,
    samples: int,
    seed: int,
    streams: int = 4,
    constants: Constants = DEFAULT_CONSTANTS,
) -> MCEstimate:
    """Estimate (n/2p^2) E[(|g_1|^p - |h_1|^p)^2 (S_g + S_h)^{2/p - 2}].

    G and H are independent Gaussian vectors with power sums S = ||.||_p^p.
    The quantity is a variance lower bound for ||G||_p; each sample is
    assembled in log-domain because |g_1|^p alone overflows for large p.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not p >= 1.0 or math.isinf(p):
        raise DomainError(f"need finite p >= 1, got {p}")
    chunk = _validate_mc_args(n, samples, streams, constants)
    log_prefactor = math.log(n) - math.log(2.0) - 2.0 * math.log(p)

    def statistics(block: np.ndarray) -> list[np.ndarray]:
        # rows [0, r) are the G of each pair, rows [r, 2r) the H
        rows = block.shape[0] // 2
        with np.errstate(divide="ignore"):
            la = p * np.log(np.abs(block[:rows, 0]))
            lb = p * np.log(np.abs(block[rows:, 0]))
        hi = np.maximum(la, lb)
        lo = np.minimum(la, lb)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_diff = np.where(lo == hi, -np.inf, hi + np.log1p(-np.exp(lo - hi)))
        log_sums = _reduce_rows(block, [(p, False, True)], math.inf)[0]
        log_ss = np.logaddexp(log_sums[:rows], log_sums[rows:])
        return [np.exp(log_prefactor + 2.0 * log_diff + (2.0 / p - 2.0) * log_ss)]

    blocks = _stream_blocks(n, samples, seed, streams, chunk, paired=True)
    (acc,) = _fold_streams(blocks, statistics, 1, streams)
    return _estimate(acc, seed, streams)


@dataclass(frozen=True, slots=True)
class SmallBallEstimate:
    probability: float
    wilson_low: float
    wilson_high: float
    successes: int
    samples: int
    log_threshold: float
    seed: int
    streams: int


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """Score interval for a binomial proportion; behaves at 0 and 1."""
    if trials < 1:
        raise DomainError("need at least one trial")
    if not 0 <= successes <= trials:
        raise DomainError("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    # at the extremes the exact endpoints are 0 and 1; rounding through
    # the sqrt can land an ulp off, so pin them
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return (low, high)


def mc_small_ball(
    n: int,
    q: float,
    tau: float,
    T: float,
    samples: int,
    seed: int,
    streams: int = 4,
    constants: Constants = DEFAULT_CONSTANTS,
) -> SmallBallEstimate:
    """Frequency of {sum_i min(|g_i|, T)^q <= tau * sum_i xi_{1-i/n}^q}."""
    if not 0.0 < tau < 0.5:
        raise DomainError(f"need tau in (0, 1/2), got {tau}")
    if q < 1.0:
        raise DomainError(f"need q >= 1, got {q}")
    _check_cap(T)
    chunk = _validate_mc_args(n, samples, streams, constants)
    log_threshold = math.log(tau) + quantile_power_sum(n, q).log
    request = [(q, not math.isinf(T), True)]
    successes = 0
    for _, block in _stream_blocks(n, samples, seed, streams, chunk):
        log_sums = _reduce_rows(block, request, T)[0]
        successes += int((log_sums <= log_threshold).sum())
    low, high = wilson_interval(successes, samples)
    return SmallBallEstimate(
        probability=successes / samples,
        wilson_low=low,
        wilson_high=high,
        successes=successes,
        samples=samples,
        log_threshold=log_threshold,
        seed=seed,
        streams=streams,
    )


def threshold_log_value(n: int, q: float, tau: float) -> LogValue:
    """tau * sum_i xi_{1-i/n}^q as a LogValue (the small-ball threshold)."""
    return LogValue(math.log(tau) + quantile_power_sum(n, q).log)
