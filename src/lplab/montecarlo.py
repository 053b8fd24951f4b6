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

One sampling loop serves every estimator.  `_fold_streams` cuts the
streams into runs of 2^j consecutive streams and deals the runs
round-robin to a thread pool of min(usable cores, streams) workers
(fewer if the memory guard admits fewer blocks in flight), one task per
worker however many streams there are (`_strided_shares`, which also
runs the trials of the random sections).  A worker runs its streams one
after another; each draws its quota in chunks of `_chunk_rows` rows and
folds them, in chunk order, into that stream's own state, which the
worker merges into its run as the fixed pairwise tree would, so a
worker holds a few states however many streams it runs.  A run starts
at a multiple of its length, so it is a subtree of that tree; the main
thread merges the run states, in run order, along the same tree and
returns the one state for all streams.  Philox is counter-based, so a
stream's draws do not depend on which thread runs it or when, and the
reproducibility contract above holds for any worker count.

Each worker allocates one float64 buffer for its largest chunk and one
reducer workspace, and draws and reduces every chunk of its streams in
them: the uniforms are written straight into the buffer, ndtri runs in
place, and the reducer writes each tile's intermediates into the
workspace.  A fresh block per chunk would
be freed into the allocating thread's malloc arena, where glibc keeps
it, so per-chunk blocks on several threads raise the peak resident size
by about a block per thread per arena.

The row reducer `gaussian._reduce_rows`, which also serves the random
sections, turns a block into per-row statistics, walking it in row
tiles of about 2^16 doubles: a tile's |x|, row peaks and max-scaled
copy (and their capped forms min(|x|, T)) are built once and serve
every norm and log power sum asked for, so `mc_grid_stats` estimates
a whole grid of p, caps and a negative moment from one generation of
the draws.  The tile height cannot change a bit of the output: each
value is a reduction over one row alone, written into a full-chunk
vector, and every accumulator still sees one batch per chunk, with the
same chunk boundaries and merge tree as a single-estimator call.

`mc_small_ball` decides each long sample (more than `_SEGMENT_ELEMS`
coordinates) from a prefix: every term of its sum is >= 0, so the
driver draws the sample segment by segment into a one-row buffer and
counts it as a failure once the prefix sum passes the threshold by a
margin that covers rounding.  The rest of that sample's outputs are
stepped over on the Philox counter (`_skip_uniforms`), so every later
sample sees the draws it would see unsettled; a sample that never
settles is reduced whole, as before.  The counts and intervals keep
their bits, and so does their independence of the worker count.
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
from .gaussian import _reduce_rows, _validate_p, _workspace_elems
from .logdomain import LogValue
from .variance import _check_negative_moment, _check_small_ball, quantile_power_sum

# doubles per sample chunk
_CHUNK_ELEMS = 1 << 21
# doubles per segment of a row that may settle early (`_fold_streams`)
_SEGMENT_ELEMS = 1 << 15
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


def _chunk_rows(n: int, constants: Constants) -> int:
    rows = max(1, min(_CHUNK_ELEMS // max(n, 1), 8192))
    if rows * n * 8 > constants.memory_guard_bytes:
        raise DomainError(
            f"a single sample chunk ({rows}x{n} doubles) exceeds the memory guard"
        )
    return rows


def _validate_mc_args(n: int, samples: int, streams: int, constants: Constants) -> int:
    """Check the sampling budget and return the chunk height in rows."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
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
    fold: Callable[[State, np.ndarray, np.ndarray], State],
    merge: Callable[[State, State], State],
    initial: State,
    n: int,
    samples: int,
    seed: int,
    streams: int,
    chunk: int,
    constants: Constants,
    requests: list[tuple[float, bool, bool]],
    settle: tuple[float, float] | None = None,
) -> State:
    """Fold each stream's blocks into a state; the states merged pairwise by index.

    Stream s starts from `initial` and applies
    state = fold(state, block, workspace) to its quota drawn in chunks
    of at most `chunk` rows, in order (fold must keep neither array).

    With settle = (T, bound), requests[0] a log power sum capped at T
    and rows of more than `_SEGMENT_ELEMS` doubles, each row is drawn
    alone, in segments of that many doubles, into a one-row buffer.
    After each segment but the last, the logaddexp of the segments'
    `_reduce_rows` log power sums is compared with bound; once it
    exceeds bound the row is settled: it is never folded, and the rest
    of its draws are stepped over on the counter (`_skip_uniforms`), so
    the next row gets the very draws it gets unsettled.  A row that does
    not settle is folded as a (1, n) block.  Shorter rows, and every
    call without settle, take the chunk path.

    The streams are cut into runs of 2^j consecutive streams, 2^j the
    largest power of two at most streams / W for W workers, and the runs
    are dealt to `_strided_shares` workers, capped so that the memory
    guard admits every block in flight.  A worker merges each run's
    states as it folds them (`_merge_run`): a run starts at a multiple of
    its length, so it is an exact subtree of `_merge_run`'s tree over all
    streams (the last run, if short, is that tree's node over the tail),
    and `_merge_run` over the run states, in run order, returns the bits
    of `_merge_run` over the stream states.  A worker draws all its
    blocks into one buffer and passes fold one `_reduce_rows` workspace
    for `requests`.
    """
    segmented = settle is not None and n > _SEGMENT_ELEMS
    step = 1 if segmented else chunk
    block_rows = min(step, _stream_quota(samples, streams, 0))
    limit = max(1, constants.memory_guard_bytes // (8 * block_rows * n))
    run = 1 << ((streams // min(_USABLE_CORES, streams, limit)).bit_length() - 1)
    runs = -(-streams // run)

    def settled(
        gen: np.random.Generator, position: int, buffer: np.ndarray, workspace: np.ndarray
    ) -> bool:
        """Draw the row at stream output `position` into buffer; True if its prefix settles it."""
        cap, bound = settle
        prefix = -math.inf
        end = 0
        while n - end > _SEGMENT_ELEMS:
            segment = gaussian_draws(gen, (1, _SEGMENT_ELEMS), buffer[end:])
            end += _SEGMENT_ELEMS
            prefix = np.logaddexp(prefix, _reduce_rows(segment, requests[:1], cap, workspace)[0, 0])
            if prefix > bound:
                _skip_uniforms(gen, position + end, n - end)
                return True
        gaussian_draws(gen, (1, n - end), buffer[end:])
        return False

    def run_states(r: int, buffer: np.ndarray, workspace: np.ndarray) -> Iterator[State]:
        for index in range(r * run, min(r * run + run, streams)):
            gen = RngStream(seed, index).generator()
            state = initial
            remaining = _stream_quota(samples, streams, index)
            if segmented:
                for row in range(remaining):
                    if not settled(gen, row * n, buffer, workspace):
                        state = fold(state, buffer.reshape(1, n), workspace)
            else:
                while remaining > 0:
                    rows = min(step, remaining)
                    block = gaussian_draws(gen, (rows, n), buffer)
                    state = fold(state, block, workspace)
                    remaining -= rows
            yield state

    def share(indices: range) -> list[State]:
        buffer = np.empty(block_rows * n)
        workspace = np.empty(_workspace_elems(block_rows, n, requests))
        return [_merge_run(run_states(r, buffer, workspace), merge) for r in indices]

    shares = _strided_shares(share, runs, limit)
    workers = len(shares)
    return _merge_run((shares[r % workers][r // workers] for r in range(runs)), merge)


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
    negative moment when negative = (q, L).  Every stream is drawn once
    and every block reduced once; each estimate has the bits of a call
    that asks for it alone, with the same seed and streams.

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
    chunk = _validate_mc_args(n, samples, streams, constants)
    cap = math.inf if T is None else T
    capped = not math.isinf(cap)
    width = len(p_values)
    requests = [(p, False, False) for p in p_values]
    if capped:
        requests += [(p, True, False) for p in p_values]
    if negative is not None:
        requests.append((q, capped, True))

    def fold(
        accs: list[MomentAccumulator], block: np.ndarray, workspace: np.ndarray
    ) -> list[MomentAccumulator]:
        reduced = _reduce_rows(block, requests, cap, workspace)
        norms = reduced[:width]
        values = list(norms)
        if T is not None:
            capped_norms = reduced[width : 2 * width] if capped else norms
            for norm, capped_norm in zip(norms, capped_norms):
                gaps = norm - capped_norm
                values += [capped_norm, gaps * gaps]
        if negative is not None:
            values.append(np.exp(-L * reduced[-1]))
        return [
            acc.merge(MomentAccumulator.from_batch(batch))
            for acc, batch in zip(accs, values, strict=True)
        ]

    def merge(
        left: list[MomentAccumulator], right: list[MomentAccumulator]
    ) -> list[MomentAccumulator]:
        return [a.merge(b) for a, b in zip(left, right, strict=True)]

    count = width * (3 if T is not None else 1) + (negative is not None)
    accumulators = _fold_streams(
        fold, merge, [MomentAccumulator.empty()] * count, n, samples, seed, streams, chunk,
        constants, requests,
    )
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

    Every term is >= 0, so a sample whose sum over a prefix of its
    coordinates already exceeds the threshold is a failure.  A sample of
    more than `_SEGMENT_ELEMS` coordinates is counted as a failure, and
    the rest of its draws skipped (`_fold_streams`), once the log of its
    computed prefix sum exceeds log_threshold + 4 delta, where
    delta = 2^-48 (n + q) (2 + |log_threshold|); every other sample is
    reduced whole and compared with the threshold, as before, so each
    count equals the whole-row count.

    The margin covers rounding.  A power sum of at most n terms,
    computed by `_reduce_rows` or as a logaddexp of such sums, is within
    a factor 1 +- eta of the exact one, with
    eta = 2^-48 (n + q) (1 + |L|) at log value L: (n - 1) 2^-53 from the
    summation, (q + 2) 2^-53 from a rounded ratio raised to the q, and a
    few 2^-53 |L| from the logs, products and logaddexps.  A prefix
    whose exact log is more than 1 below log_threshold never settles,
    and one more than 1 above it settles a sample that fails anyway.
    Nearer, eta <= delta and e^{4 delta} > (1 + delta) / (1 - delta), so
    a settled sample has

        full computed >= true full (1 - delta) >= true prefix (1 - delta)
                      >= computed prefix (1 - delta) / (1 + delta)
                      >  threshold,

    the middle step because the terms are >= 0.
    """
    _check_small_ball(q, tau)
    _check_cap(T)
    chunk = _validate_mc_args(n, samples, streams, constants)
    log_threshold = threshold_log_value(n, q, tau, constants).log
    request = [(q, not math.isinf(T), True)]
    # 4 delta of the docstring
    margin = 2.0**-46 * (n + q) * (2.0 + abs(log_threshold))

    def fold(successes: int, block: np.ndarray, workspace: np.ndarray) -> int:
        log_sums = _reduce_rows(block, request, T, workspace)[0]
        return successes + int((log_sums <= log_threshold).sum())

    successes = _fold_streams(
        fold, operator.add, 0, n, samples, seed, streams, chunk, constants, request,
        settle=(T, log_threshold + margin),
    )
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


def threshold_log_value(
    n: int, q: float, tau: float, constants: Constants = DEFAULT_CONSTANTS
) -> LogValue:
    """tau * sum_i xi_{1-i/n}^q as a LogValue (the small-ball threshold)."""
    return LogValue(math.log(tau) + quantile_power_sum(n, q, constants).log)
