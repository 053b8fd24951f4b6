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

One scheduler runs the streams of every estimator.  `_fold_streams`
cuts the streams into runs of 2^j consecutive streams and deals the
runs round-robin to a thread pool of min(usable cores, streams)
workers (fewer if the memory guard admits fewer workers, each holding
its reducer scratch and the output rows of the block it reduces), one
task per worker however many streams there are
(`_strided_shares`, which also runs the trials of the random
sections).  A worker runs its streams one after another; the
estimator's stream function draws each stream's quota and returns that
stream's own state, which the worker merges into its run as the fixed
pairwise tree would, so a worker holds a few states however many
streams it runs.  A run starts at a multiple of its length, so it is a
subtree of that tree; the main thread merges the run states, in run
order, along the same tree and returns the one state for all streams.
Philox is counter-based, so a stream's draws do not depend on which
thread runs it or when, and the reproducibility contract above holds
for any worker count.

Both estimators draw through one block loop, `_row_values`.  It cuts
a quota into chunks of `_chunk_rows` rows, each one accumulator batch,
or, past `_SEGMENT_ELEMS` coordinates, into one segment of a lone row
at a time, and hands the reducer each block as a `_DrawnRows`, which
draws a tile's rows only when the reducer reaches that tile, straight
into the slot of the reducer's scratch that takes |x|: the uniforms are
written there, ndtri runs in place, and the reducer takes |x| in place.
That scratch is the drawing thread's own and is kept between calls
(`gaussian._scratch_tiles`), so a worker allocates no array for its
draws, holds no tile beside its scratch, and reduces each tile while it
is still in cache.

The row reducer `gaussian._reduce_rows`, which also serves the random
sections, turns a chunk into per-row statistics, walking it in row
tiles of about 2^16 doubles: a tile's |x|, row peaks and max-scaled
copy (and their capped forms min(|x|, T)) are built once and serve
every norm and log power sum asked for, so `mc_grid_stats` estimates
a whole grid of p, caps and a negative moment from one generation of
the draws.  A row whose peak is <= T has the same capped and plain
ratios, so a capped p that is also asked plain reuses the plain power
sums there and powers only the rows over T; the sums are finished
into norms and logs once per chunk, not once per tile.  The tile
height cannot change a bit of the output: Philox draws the same
values however a stream is split into calls (`_uniforms`), each value
is a reduction over one row alone, written into a full-chunk vector,
and every accumulator still sees one batch per chunk, with the same
chunk boundaries and merge tree as a single-estimator call.

`mc_small_ball` settles and counts a sample on one running value, the
logaddexp of its segments' log power sums, which never decreases: once
it passes the threshold the sample is a failure and the rest of its
draws are stepped over (`_row_values`).  A long sample's first segment
is cut at a head sized from the threshold (`_head_length`), past which
the sample's power sum stays at or below the threshold with chance at
most `_HEAD_MISS`, so most samples settle after the head; at n = 10^5,
q = 2, tau = 1/4 the head is 26,036 of the segment's 32,768
coordinates.  Its counts keep their bits at any worker count.
"""

from __future__ import annotations

import math
import operator
import os
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TypeVar

import numpy as np
from scipy.special import ndtri

from .config import DEFAULT_CONSTANTS, Constants
from .errors import DomainError
from .gaussian import _reduce_rows, _scratch_shape, _validate_p
from .truncated import TruncationSpec, trunc_moment_min
from .variance import _check_negative_moment, _check_small_ball, quantile_power_sum

# doubles per sample chunk, one accumulator batch
_CHUNK_ELEMS = 1 << 21
# doubles per segment of a long small-ball row (`_row_values`)
_SEGMENT_ELEMS = 1 << 15
# the chance that a long small-ball row is still undecided after its head
# (`_head_length`); it sets how many rows take an extra reducer call, not a count
_HEAD_MISS = 1e-3
# workers never outnumber the cores this process may run on
_USABLE_CORES = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
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


def _uniforms(
    gen: np.random.Generator, shape: tuple[int, ...], buffer: np.ndarray | None = None
) -> np.ndarray:
    """Open-interval (0,1) uniforms (k + 1/2) / 2^53 on the 53-bit integers k.

    The uniforms fill the leading elements of `buffer` (a float64 array
    with at least prod(shape) elements; a new one if None) and come back
    as a view of the given shape, with no other array alive.
    `Generator.random` writes k 2^-53, k the top 53 bits of one 64-bit
    Philox output, which are the integers `Generator.integers(0, 2^53)`
    draws from the same outputs; k 2^-53 + 2^-54 rounds as k + 1/2 does,
    scaled by 2^-53, so it equals (k + 1/2) / 2^53 bit for bit.  Each
    value uses one output, so any split of a stream into calls draws the
    same values.
    """
    size = math.prod(shape)
    if buffer is None:
        buffer = np.empty(size)
    flat = buffer.reshape(-1)[:size]
    gen.random(out=flat)
    flat += 2.0**-54
    return flat.reshape(shape)


def _skip_uniforms(gen: np.random.Generator, position: int, count: int) -> None:
    """Step gen past `count` uniforms, as if `_uniforms` had drawn them.

    `position` is the number of outputs gen has produced so far.  Philox
    makes its 64-bit outputs four at a time, from one counter value, and
    `advance(m)` moves the counter m values on but drops the outputs
    still buffered, so the outputs up to the next multiple of four are
    drawn, whole groups of four are stepped over on the counter and the
    remainder is drawn; advance(0) would drop a partly used group.
    """
    bits = gen.bit_generator
    head = min(-position % 4, count)
    blocks, tail = divmod(count - head, 4)
    bits.random_raw(head)
    if blocks:
        bits.advance(blocks)
    bits.random_raw(tail)


def gaussian_draws(
    gen: np.random.Generator, shape: tuple[int, ...], buffer: np.ndarray | None = None
) -> np.ndarray:
    """Standard Gaussians ndtri(u) of `_uniforms`, computed in place in `buffer`."""
    draws = _uniforms(gen, shape, buffer)
    return ndtri(draws, out=draws)


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
    """Reduce stream accumulators along a fixed binary tree (by index, `_merge_run`).

    Any states with a merge method reduce along the same tree.
    """
    if not accumulators:
        return MomentAccumulator.empty()
    return _merge_run(accumulators, lambda left, right: left.merge(right))


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


def _chunk_rows(n: int) -> int:
    """Rows per sample chunk, one accumulator batch: about `_CHUNK_ELEMS` doubles, at most 8192."""
    return max(1, min(_CHUNK_ELEMS // max(n, 1), 8192))


def _block_rows(n: int, width: int) -> int:
    """Rows per `_row_values` block: a chunk of whole rows, or the lone row of a segment."""
    return _chunk_rows(n) if width == n else 1


def _validate_mc_args(
    n: int, samples: int, streams: int, held: int, constants: Constants
) -> None:
    """Check the budget, and that the `held` doubles of one worker fit the guard.

    A worker holds its reducer scratch, which the draws go into, and the
    reduced block's output rows.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if samples < 2:
        raise DomainError(f"need samples >= 2, got {samples}")
    if streams < 1:
        raise DomainError(f"need streams >= 1, got {streams}")
    guard = constants.memory_guard_bytes
    if held * 8 > guard:
        raise DomainError(
            f"the reducer scratch and block outputs of a worker ({held} doubles)"
            f" exceed the memory guard ({guard} bytes)"
        )
    # an empty stream would still build a generator and an accumulator
    if streams > samples:
        raise DomainError(f"need streams <= samples, got {streams} > {samples}")


def default_samples(n: int) -> int:
    """Sample budget keeping runtimes in the seconds-to-minutes range."""
    return 100_000 if n <= 10_000 else 10_000


State = TypeVar("State")
Share = TypeVar("Share")


def _strided_shares(share: Callable[[range], Share], count: int, limit: int) -> list[Share]:
    """share(range(w, count, W)) for each worker w < W, on a pool of W threads.

    W = min(usable cores, count, limit).  Items are dealt round-robin,
    one task per worker, so W tasks are submitted however large count
    is; the results come back in worker order, and item i is the
    (i // W)-th of share i % W.
    """
    workers = min(_USABLE_CORES, count, limit)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(share, [range(w, count, workers) for w in range(workers)]))


def _merge_run(states: Iterable[State], merge: Callable[[State, State], State]) -> State:
    """The states merged along a fixed binary tree by index, holding O(log count) of them.

    The tree pairs neighbours level by level and carries an odd tail up
    a level.  Each state is merged with the pending one of equal size on
    its left, as a level pairs neighbours; the leftover blocks, largest
    first, merge from the right, as the carried tails do.
    """
    pending: list[tuple[int, State]] = []
    for state in states:
        size = 1
        while pending and pending[-1][0] == size:
            state = merge(pending.pop()[1], state)
            size *= 2
        pending.append((size, state))
    state = pending.pop()[1]
    while pending:
        state = merge(pending.pop()[1], state)
    return state


def _fold_streams(
    stream: Callable[[np.random.Generator, int], State],
    merge: Callable[[State, State], State],
    held: int,
    samples: int,
    seed: int,
    streams: int,
    constants: Constants,
) -> State:
    """stream(generator, quota) of each stream, the states merged pairwise by index.

    Stream s gets RngStream(seed, s).generator() and its `_stream_quota`.

    The streams are cut into runs of 2^j consecutive streams, 2^j the
    largest power of two at most streams / W for W workers, and the runs
    are dealt to `_strided_shares` workers, capped so that the memory
    guard admits the `held` doubles of each worker: the reducer scratch
    its streams draw into and the output rows of the block it reduces
    (`_validate_mc_args`).  A worker merges each run's
    states as it makes them (`_merge_run`): a run starts at a multiple of
    its length, so it is an exact subtree of `_merge_run`'s tree over all
    streams (the last run, if short, is that tree's node over the tail),
    and `_merge_run` over the run states, in run order, returns the bits
    of `_merge_run` over the stream states.
    """
    limit = max(1, constants.memory_guard_bytes // (8 * held))
    run = 1 << ((streams // min(_USABLE_CORES, streams, limit)).bit_length() - 1)
    runs = -(-streams // run)

    def run_states(r: int) -> Iterator[State]:
        for index in range(r * run, min(r * run + run, streams)):
            gen = RngStream(seed, index).generator()
            yield stream(gen, _stream_quota(samples, streams, index))

    def share(indices: range) -> list[State]:
        return [_merge_run(run_states(r), merge) for r in indices]

    shares = _strided_shares(share, runs, limit)
    workers = len(shares)
    return _merge_run((shares[r % workers][r // workers] for r in range(runs)), merge)


class _DrawnRows:
    """rows x n Gaussians of a stream, drawn as the row reducer walks them.

    Every block of both estimators is one (`_row_values`).
    `_reduce_rows` reads a block only through its shape and one draw(out)
    per row tile, in order; each draws the next out.shape[0] rows of the
    stream into out, a tile of the reducer's own scratch
    (`gaussian_draws`), so the block is never held whole and each tile
    is reduced while it is still in cache.
    """

    def __init__(self, gen: np.random.Generator, rows: int, n: int) -> None:
        self.shape = (rows, n)
        self._gen = gen

    def draw(self, out: np.ndarray) -> np.ndarray:
        return gaussian_draws(self._gen, out.shape, out)


def _row_values(
    gen: np.random.Generator,
    quota: int,
    n: int,
    width: int,
    reduce: Callable[[_DrawnRows], np.ndarray],
    threshold: float = math.inf,
    head: int = 0,
) -> Iterator[np.ndarray]:
    """reduce over the quota's rows of n Gaussians, one `_DrawnRows` block at a time.

    With width = n each block is a chunk of `_block_rows` whole rows
    and each yield is reduce of it.  With width < n each block is one
    segment of a lone row: coordinates [0, head) and [head, width) if
    0 < head < width, else [0, width), then width-wide segments, the
    last one short.  The row's value is reduce of its first segment,
    np.logaddexp-ed with reduce of each later one (reduce then gives
    logs of sums of nonnegative terms).  That value never decreases
    (`mc_small_ball`), so once it passes threshold before the row's
    last segment it is yielded as it stands and the rest of the row's
    draws are stepped over on the counter (`_skip_uniforms`): the next
    row gets the very draws it gets when no row stops early.
    """
    rows = _block_rows(n, width)
    starts = sorted({0, head, *range(width, n, width)})
    segments = list(zip(starts, [*starts[1:], n]))
    for start in range(0, quota, rows):
        for offset, stop in segments:
            block = _DrawnRows(gen, min(rows, quota - start), stop - offset)
            part = reduce(block)
            values = part if offset == 0 else np.logaddexp(values, part)
            if stop < n and values[0] > threshold:
                _skip_uniforms(gen, start * n + stop, n - stop)
                break
        yield values


@dataclass(frozen=True, slots=True)
class MCGridStats:
    """Every estimate of one fused pass, in request order.

    norms[k] estimates the mean and variance of ||G||_p at p_values[k].
    truncated[k] is a coupled pair at the same p, empty without a cap T:
    the capped norm f_T(G) = (sum_i min(T, |g_i|)^p)^{1/p}, and the
    squared gap (||G||_p - f_T(G))^2 on the same draws, the variance
    cost of the truncation.  negative estimates
    E (sum_i min(|g_i|, T)^q)^{-L} (T = inf without a cap), or is None.
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

    The `MCGridStats` fields: a norm estimate at each p, the (f_T, gap^2)
    pair at each p when T > 0 is given (inf for no cap), and the
    negative moment when negative = (q, L).  Every stream is drawn once,
    a reducer tile at a time straight into the reducer's scratch, and
    each tile is reduced once, right after it is drawn; each estimate
    has the bits of a call that asks for it alone, with the same seed
    and streams.

    The negative moment's per-sample value is exponentiated from the log
    of the capped power sum, so large q stays finite.  It requires
    finite q >= 1, L >= 0 and q L <= K log n, the domain of
    `negative_moment_bound`.  The rule does not keep the samples out of
    double underflow: at q = 1 and L at its limit they are subnormal
    from n ~ 6·10^4 and read 0.0 from n ~ 8·10^4 (at n = 10^5, L = 69
    the bound is e^{-778.8}, and the estimated mean is 0.0).
    """
    p_values = [_validate_p(p) for p in p_values]
    if T is not None:
        _check_cap(T)
    if negative is not None:
        q, L = negative
        _check_negative_moment(n, q, L, constants)
    if not p_values and negative is None:
        raise DomainError("need a p value or a negative moment to estimate")
    cap = math.inf if T is None else T
    capped = not math.isinf(cap)
    width = len(p_values)
    requests = [(p, False, False) for p in p_values]
    if capped:
        requests += [(p, True, False) for p in p_values]
    if negative is not None:
        requests.append((q, capped, True))
    rows = _block_rows(n, n)
    # the reducer scratch, the block's row of each request and, with a
    # cap, its row of squared gaps at each p
    outputs = len(requests) + (width if T is not None else 0)
    held = math.prod(_scratch_shape(rows, n, requests)) + rows * outputs
    _validate_mc_args(n, samples, streams, held, constants)

    count = width * (3 if T is not None else 1) + (negative is not None)

    def reduce(block: _DrawnRows) -> np.ndarray:
        return _reduce_rows(block, requests, cap)

    def stream(gen: np.random.Generator, quota: int) -> list[MomentAccumulator]:
        accs = [MomentAccumulator.empty()] * count
        for reduced in _row_values(gen, quota, n, n, reduce):
            norms = reduced[:width]
            values = list(norms)
            if T is not None:
                capped_norms = reduced[width : 2 * width] if capped else norms
                for norm, capped_norm in zip(norms, capped_norms):
                    gaps = norm - capped_norm
                    values += [capped_norm, gaps * gaps]
            if negative is not None:
                values.append(np.exp(-L * reduced[-1]))
            accs = [
                acc.merge(MomentAccumulator.from_batch(batch))
                for acc, batch in zip(accs, values, strict=True)
            ]
        return accs

    def merge(
        left: list[MomentAccumulator], right: list[MomentAccumulator]
    ) -> list[MomentAccumulator]:
        return [a.merge(b) for a, b in zip(left, right, strict=True)]

    accumulators = _fold_streams(stream, merge, held, samples, seed, streams, constants)
    estimates = [_estimate(acc, seed, streams) for acc in accumulators]
    truncated = ()
    if T is not None:
        pairs = estimates[width : 3 * width]
        truncated = tuple(zip(pairs[0::2], pairs[1::2]))
    return MCGridStats(
        norms=tuple(estimates[:width]),
        truncated=truncated,
        negative=estimates[-1] if negative is not None else None,
    )


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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% score interval for a binomial proportion; behaves at 0 and 1."""
    if trials < 1:
        raise DomainError("need at least one trial")
    if not 0 <= successes <= trials:
        raise DomainError("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = _WILSON_Z * _WILSON_Z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = (
        _WILSON_Z
        * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    # at the extremes the exact endpoints are 0 and 1; rounding through
    # the sqrt can land an ulp off, so pin them
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return (low, high)


def _head_length(n: int, q: float, T: float, log_threshold: float) -> int:
    """The head L of a long small-ball row (`mc_small_ball`), or 0 for none.

    L is the least integer with L mu - t >= sqrt(2 L m2 log(1/eps)),
    mu and m2 the first two moments of min(|g|, T)^q, t = e^log_threshold
    and eps = `_HEAD_MISS`; by Maurer's lower-tail bound for sums of
    independent nonnegative variables (JIPAM 4(1), 2003), the sum S_L of
    a row's first L terms then has P(S_L <= t) <= eps.  It is 0 for n <= `_SEGMENT_ELEMS` and when
    L would reach a segment.  The bound is divided through by mu, so
    that heavy q cannot overflow it: L >= t / mu and L >= 2 m2 / mu^2,
    so either ratio at a segment or more means no head.
    """
    if n <= _SEGMENT_ELEMS:
        return 0
    log_mean = trunc_moment_min(TruncationSpec(q, T)).log
    log_spread = trunc_moment_min(TruncationSpec(2.0 * q, T)).log - 2.0 * log_mean
    if max(log_threshold - log_mean, log_spread) >= math.log(_SEGMENT_ELEMS):
        return 0
    scaled = math.exp(log_threshold - log_mean)
    spread = 2.0 * math.exp(log_spread) * math.log(1.0 / _HEAD_MISS)

    def meets(L: int) -> bool:
        return L - scaled >= math.sqrt(L * spread)

    # the bound holds from L = root^2 on, root the positive root of
    # x^2 - sqrt(spread) x - scaled; the loop steps past its rounding
    root = 0.5 * (math.sqrt(spread) + math.sqrt(spread + 4.0 * scaled))
    L = math.floor(root * root)
    while not meets(L):
        L += 1
    return L if L < _SEGMENT_ELEMS else 0


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
    """Frequency of {sum_i min(|g_i|, T)^q <= tau * sum_i xi_{1-i/n}^q}.

    Requires tau in (0, 1/2), finite q >= 1 and a cap T > 0 (inf for none);
    the threshold's n quantiles must fit constants.memory_guard_bytes
    (`quantile_power_sum`).

    Every sample is drawn and reduced through `_row_values`: one of at
    most `_SEGMENT_ELEMS` coordinates in a chunk of samples, a longer
    one a segment of at most `_SEGMENT_ELEMS` coordinates at a time, and
    each is counted on the running logaddexp of its segments' log power
    sums.  That value never decreases: numpy's logaddexp(a, b) is
    max(a, b) plus the term log1p(exp(-|a - b|)) >= 0, and a rounded sum
    with a nonnegative term is not below max(a, b).  So a sample whose
    value passes log_threshold before its last segment would fail whole;
    it is counted there, and the rest of its draws are skipped.

    A long sample's first segment is cut at a head of L coordinates
    (`_head_length`), computed once per call: the least L with
    L mu - t >= sqrt(2 L m2 log(1/eps)), for t the threshold, mu and m2
    the first two moments of min(|g|, T)^q and eps = `_HEAD_MISS`, so
    that a sample's first L terms stay at or below t with chance at most
    eps.  Most samples are then settled after L coordinates rather than
    a whole segment, and one still undecided goes on to [L, 2^15) at
    the cost of one more reducer call and no more draws.  There is no
    head when L would reach a segment, as for heavy tails and for
    thresholds near a sample's mean.  eps sets only how many samples
    take that extra call, never a count: with or without a head a
    sample is counted on the running value of its blocks, and where a
    block ends moves that value by rounding alone.
    """
    _check_small_ball(q, tau)
    _check_cap(T)
    width = min(n, _SEGMENT_ELEMS)
    rows = _block_rows(n, width)
    request = [(q, not math.isinf(T), True)]
    # the reducer scratch and the block's row of log sums
    held = math.prod(_scratch_shape(rows, width, request)) + rows
    _validate_mc_args(n, samples, streams, held, constants)
    log_threshold = math.log(tau) + quantile_power_sum(n, q, constants).log
    head = _head_length(n, q, T, log_threshold)

    def log_sums(block: _DrawnRows) -> np.ndarray:
        return _reduce_rows(block, request, T)[0]

    def stream(gen: np.random.Generator, quota: int) -> int:
        blocks = _row_values(gen, quota, n, width, log_sums, log_threshold, head)
        return sum(int(np.count_nonzero(values <= log_threshold)) for values in blocks)

    successes = _fold_streams(stream, operator.add, held, samples, seed, streams, constants)
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
