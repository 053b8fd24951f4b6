"""The fused Monte Carlo engine against the per-estimator results.

The golden values are the repr of every field of each estimator as
computed by the earlier per-estimator chunk loops (one generation and
one reduction per estimator call).  The fused engine keeps the chunk
boundaries and reduces every row by itself, so it must reproduce them
bit for bit, whatever the tile height, the number of worker threads
and whatever else is estimated from the same draws.  The inputs cross
chunk boundaries (n = 3000 gives 699-row chunks) and tile boundaries.

The small-ball log_threshold fields and the negative-moment reference
columns of the stdout golden come from the |g| quantile, not from the
draws.  They were re-pinned when the quantile moved to scipy, each one
closer to a 40-digit mpmath value than before; the stdout hash also
covers the echoed constants, three fewer since schema version 2, one
fewer (lower_validity_C) since schema version 3 and six fewer since
schema version 4.
"""

import dataclasses
import hashlib
import math
import operator
import sys
import tracemalloc

import numpy as np
import pytest

import lplab.gaussian
import lplab.montecarlo
from lplab import (
    DEFAULT_CONSTANTS,
    RngStream,
    gaussian_draws,
    mc_grid_stats,
    mc_small_ball,
    merge_pairwise,
    threshold_log_value,
)
from lplab.cli import main
from lplab.errors import DomainError

GOLDEN = [
    (
        lambda: mc_grid_stats(30, [1.0], 1500, 7, 3).norms[0],
        ('24.068728510740538', '10.748240918523269', '0.08464924066807794', '0.38974983699902366', '1500', '7', '3'),
    ),
    (
        lambda: mc_grid_stats(30, [3.5], 1500, 7, 3).norms[0],
        ('3.22001520159083', '0.18685136462003268', '0.011160984562902824', '0.006729458773839909', '1500', '7', '3'),
    ),
    (
        lambda: mc_grid_stats(30, [math.inf], 1500, 7, 3).norms[0],
        ('2.3164788850233387', '0.19668253465835867', '0.011450837950658418', '0.007677324695409697', '1500', '7', '3'),
    ),
    (
        lambda: mc_grid_stats(3000, [12.0], 1600, 5, 2).norms[0],
        ('4.157298770890831', '0.0382185303810103', '0.004887390048699964', '0.002417692381813061', '1600', '5', '2'),
    ),
    (
        lambda: mc_grid_stats(3000, [8.0], 1600, 5, 2, T=2.5).truncated[0],
        (
            ('4.421898894876364', '0.001952411883326192', '0.0011046526273353402', '6.936310862920808e-05', '1600', '5', '2'),
            ('0.20357247068462297', '0.01662209634320727', '0.003223167729812481', '0.002461580423873465', '1600', '5', '2'),
        ),
    ),
    (
        lambda: mc_grid_stats(40, [math.inf], 900, 3, 4, T=1.2).truncated[0],
        (
            ('1.1999999999999997', '4.93586495202246e-32', '7.405602197752771e-18', '0.0', '900', '3', '4'),
            ('1.7087963560224304', '1.5168938803946435', '0.04105408195152995', '0.11902808147083263', '900', '3', '4'),
        ),
    ),
    (
        lambda: mc_grid_stats(40, [3.0], 900, 3, 4, T=math.inf).truncated[0],
        (
            ('3.9440233769268502', '0.20208671245385684', '0.014984685235779779', '0.010102580188661912', '900', '3', '4'),
            ('0.0', '0.0', '0.0', '0.0', '900', '3', '4'),
        ),
    ),
    (
        lambda: mc_grid_stats(3000, [], 1600, 5, 2, T=2.5, negative=(6.9, 1.0)).negative,
        ('1.6351599819669228e-05', '1.4082597263192692e-12', '2.9667529876104332e-08', '5.230072899770224e-14', '1600', '5', '2'),
    ),
    (
        lambda: mc_grid_stats(20, [], 1000, 4, 3, T=math.inf, negative=(2.0, 1.0)).negative,
        ('0.05627388796936266', '0.0003659776967152881', '0.0006049609051131222', '2.7552388402782274e-05', '1000', '4', '3'),
    ),
    (
        lambda: mc_small_ball(3000, 2.0, 0.4, math.inf, 1600, 5, 2),
        ('0.0', '0.0', '0.0023951611922532253', '0', '1600', '7.087350040239698', '5', '2'),
    ),
    (
        lambda: mc_small_ball(4, 2.0, 0.45, math.inf, 3000, 2, 3),
        ('0.06266666666666666', '0.054540801402863825', '0.07191109828222125', '188', '3000', '-0.16735764789162488', '2', '3'),
    ),
    (
        lambda: mc_small_ball(4, 3.0, 0.45, 1.0, 3000, 2, 3),
        ('0.10933333333333334', '0.09866229125278743', '0.12100358255126727', '328', '3000', '-0.17714478148085866', '2', '3'),
    ),
    (
        lambda: mc_small_ball(50, 3.0, 0.3, 1.5, 2000, 8, 3),
        ('0.0', '0.0', '0.001917047281252934', '0', '2000', '2.998018987782384', '8', '3'),
    ),
]

# mc_small_ball above one segment of _SEGMENT_ELEMS = 2^15 doubles, as
# computed chunk by chunk before samples were settled from a prefix of
# their coordinates: the cases settle samples after one, two and three
# segments, skipping from every stream position mod 4, and keep 10, 5,
# 6 and 0 samples that never settle
SETTLING_GOLDEN = [
    (
        (100001, 50.0, 0.45, math.inf, 48, 6, 3),
        ('0.20833333333333334', '0.11730272957905595', '0.34258901272617925', '10', '48', '73.73882835647635', '6', '3'),
    ),
    (
        (65538, 40.0, 0.4, 4.5, 48, 7, 3),
        ('0.10416666666666667', '0.045321719041813105', '0.2216742169438633', '5', '48', '58.049227850561614', '7', '3'),
    ),
    (
        (70003, 30.0, 0.45, math.inf, 48, 8, 2),
        ('0.125', '0.058570514385719794', '0.24700458286386834', '6', '48', '43.925118890711175', '8', '2'),
    ),
    (
        (100000, 1.0, 0.3, 2.0, 24, 5, 2),
        ('0.0', '0.0', '0.13797620467498017', '0', '24', '10.08313124539339', '5', '2'),
    ),
]

# stdout of `lplab mc --n 100 --p 2,7,inf --truncate 2 --negative 2,1
# --samples 2000 --seed 9`: every row kind, computed the same way
MC_ARGV = [
    "mc", "--n", "100", "--p", "2,7,inf", "--truncate", "2",
    "--negative", "2,1", "--samples", "2000", "--seed", "9",
]
MC_STDOUT_SHA256 = "b63e19cf76a17bd5c8031b2ceb87612ddec83dc325e97ef753765bc960b442b5"


def fields(estimate):
    return tuple(repr(getattr(estimate, f.name)) for f in dataclasses.fields(estimate))


def reprs(result):
    if isinstance(result, tuple):
        return tuple(fields(estimate) for estimate in result)
    return fields(result)


@pytest.mark.parametrize("call, expected", GOLDEN)
def test_golden_fields(call, expected):
    assert reprs(call()) == expected


@pytest.mark.parametrize("tile_elems", [1, 7 * 3000, 1 << 30])
def test_golden_fields_any_tile(monkeypatch, tile_elems):
    # one row per tile, a few rows, and the whole block in one tile
    monkeypatch.setattr(lplab.gaussian, "_TILE_ELEMS", tile_elems)
    for call, expected in GOLDEN:
        assert reprs(call()) == expected


def test_mc_stdout_golden(capsys):
    assert main(MC_ARGV) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == MC_STDOUT_SHA256


class TestWorkers:
    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_goldens_at_any_worker_count(self, monkeypatch, capsys, pool_sizes, cores):
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", cores)
        # switch threads often, so streams interleave at fine grain
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for call, expected in GOLDEN:
                assert reprs(call()) == expected
            assert main(MC_ARGV) == 0
        finally:
            sys.setswitchinterval(interval)
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == MC_STDOUT_SHA256
        # each golden runs with 2, 3 or 4 streams
        assert max(pool_sizes) == cores

    def test_guard_admitting_one_block_runs_one_worker(self, monkeypatch, pool_sizes):
        # n = 3000 draws 699-row blocks of 16,776,000 bytes
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", 3)
        block = 699 * 3000 * 8
        one = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=2 * block - 1)
        estimate = mc_grid_stats(3000, [12.0], 1600, 5, 2, constants=one).norms[0]
        assert reprs(estimate) == GOLDEN[3][1]
        two = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=2 * block)
        assert mc_grid_stats(3000, [12.0], 1600, 5, 2, constants=two).norms[0] == estimate
        assert pool_sizes == [1, 2]

    def test_threads_bounded_by_cores_and_streams(self, monkeypatch, capsys, pool_sizes):
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", 3)
        argv = ["mc", "--n", "20", "--p", "2", "--samples", "64", "--seed", "1"]
        assert main([*argv, "--streams", "64"]) == 0
        assert main([*argv, "--streams", "2"]) == 0
        assert pool_sizes == [3, 2]

    def test_one_task_per_worker(self, monkeypatch, capsys, pools):
        # 3000 streams on 3 workers are 3 tasks of 1000 streams each, with
        # the stdout of one worker running all 3000 in one task
        argv = ["mc", "--n", "2", "--p", "2", "--samples", "6000", "--streams", "3000"]
        outs = []
        for cores in (1, 3):
            monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", cores)
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert pools.sizes == pools.tasks == [1, 3]

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_runs_are_subtrees_of_the_merge_tree(self, monkeypatch, cores):
        # a state that records how it was merged: the run states of the
        # workers, merged pairwise, must build the very tree that
        # merge_pairwise builds over the streams one by one
        class Tree:
            def __init__(self, shape):
                self.shape = shape

            def merge(self, other):
                return Tree((self.shape, other.shape))

        def fold(state, block, workspace):
            return Tree(float(block[0, 0]))

        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", cores)
        request = [(2.0, False, False)]
        for streams in [*range(1, 19), 31, 32, 33, 100]:
            leaves = [
                Tree(float(gaussian_draws(RngStream(4, s).generator(), (1, 2))[0, 0]))
                for s in range(streams)
            ]
            merged = lplab.montecarlo._fold_streams(
                fold, Tree.merge, None, 2, streams, 4, streams, 8, DEFAULT_CONSTANTS, request
            )
            assert merged.shape == merge_pairwise(leaves).shape

    @pytest.mark.parametrize("cores", [1, 3])
    def test_held_states_do_not_grow_with_streams(self, monkeypatch, cores):
        # workers merge their runs of streams as they fold them, so 2000
        # streams of one sample each hold a few states per worker rather
        # than one per stream (about 470 bytes each, 940 KB in all)
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", cores)
        tracemalloc.start()
        try:
            mc_grid_stats(2, [2.0], 2000, 0, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 200_000

    def test_domain_error_in_a_worker_exits_two(self, capsys):
        # the seed is first checked where a worker keys its stream
        argv = ["mc", "--n", "10", "--p", "2", "--samples", "10", "--seed", str(2**64)]
        assert main(argv) == 2
        assert "seed must fit in 64 bits" in capsys.readouterr().err


class TestSettledRows:
    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_goldens_at_any_worker_count(self, monkeypatch, pools, fine_switching, cores):
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", cores)
        for args, expected in SETTLING_GOLDEN:
            assert reprs(mc_small_ball(*args)) == expected
        assert pools.sizes == [min(cores, args[-1]) for args, _ in SETTLING_GOLDEN]

    @pytest.mark.parametrize("cores", [1, 2])
    def test_unsettled_rows_are_the_rows_of_the_unbroken_streams(self, monkeypatch, cores):
        # n is two segments and 5 doubles, so a sample settles after one
        # segment, after two or never, and the rows after it start at
        # every position mod 4; each row folded must be the stream's own
        # row, bit for bit, however many draws were stepped over before it
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", cores)
        segment = 1 << 15
        n, samples, streams, seed, q, bound = 2 * segment + 5, 16, 2, 3, 30.0, 45.05
        whole = np.concatenate([
            gaussian_draws(RngStream(seed, s).generator(), (samples // streams, n))
            for s in range(streams)
        ])
        first, both = (
            np.log(np.sum(np.abs(whole[:, : k * segment]) ** q, axis=1)) for k in (1, 2)
        )
        assert [(first > bound).sum(), ((first <= bound) & (both > bound)).sum()] == [4, 4]
        assert np.abs(np.concatenate([first, both]) - bound).min() > 1e-3

        def fold(rows, block, workspace):
            return rows + (block[0].copy(),)

        folded = lplab.montecarlo._fold_streams(
            fold, operator.add, (), n, samples, seed, streams, 1, DEFAULT_CONSTANTS,
            [(q, False, True)], settle=(math.inf, bound),
        )
        expected = whole[both <= bound]
        assert len(folded) == len(expected) == 8
        assert all(np.array_equal(row, want) for row, want in zip(folded, expected))

    def test_benchmark_shape_draws_a_third(self, monkeypatch):
        # at tau = 0.25 a sample of 10^5 squares passes the threshold
        # within its first 2^15 coordinates, so the rest is never drawn
        drawn = []

        def counting(gen, shape, buffer=None):
            drawn.append(math.prod(shape))
            return gaussian_draws(gen, shape, buffer)

        monkeypatch.setattr(lplab.montecarlo, "gaussian_draws", counting)
        n, samples = 10**5, 96
        estimate = mc_small_ball(n, 2.0, 0.25, math.inf, samples, 0)
        assert reprs(estimate) == (
            '0.0', '0.0', '0.038475587857675686', '0', '96', '10.12651591904987', '0', '4'
        )
        assert sum(drawn) <= 0.4 * samples * n

    @pytest.mark.parametrize("offset, settles", [(32 * 40_000 * 2.0**-52, False), (1e-6, True)])
    def test_prefix_settles_only_beyond_the_margin(self, monkeypatch, offset, settles):
        # n = 40,000 is one 2^15 segment and a short last one; the first
        # segment's log power sum is reported as the threshold plus
        # offset.  32 n 2^-52 lies inside the margin, which is more than
        # 64 n 2^-52, so it must not settle a sample; 1e-6, far past the
        # margin, must
        n, samples = 40_000, 6
        reduce_rows = lplab.montecarlo._reduce_rows
        threshold = threshold_log_value(n, 2.0, 0.25).log
        drawn = []

        def segment_at_offset(block, requests, T, workspace=None):
            if block.shape[1] < n:
                return np.full((1, 1), threshold + offset)
            return reduce_rows(block, requests, T, workspace)

        def counting(gen, shape, buffer=None):
            drawn.append(math.prod(shape))
            return gaussian_draws(gen, shape, buffer)

        monkeypatch.setattr(lplab.montecarlo, "_reduce_rows", segment_at_offset)
        monkeypatch.setattr(lplab.montecarlo, "gaussian_draws", counting)
        mc_small_ball(n, 2.0, 0.25, math.inf, samples, 0, 2)
        assert sum(drawn) == samples * ((1 << 15) if settles else n)


class TestGrid:
    @pytest.mark.parametrize(
        "n, p_values, samples, streams",
        [(300, [1.0, 2.0, 7.5, math.inf], 1200, 3), (2500, [2.0, math.inf], 1000, 1)],
    )
    @pytest.mark.parametrize("T", [1.8, math.inf, None])
    def test_rows_equal_single_estimators(self, n, p_values, samples, streams, T):
        q, L = 3.0, 0.5
        stats = mc_grid_stats(n, p_values, samples, 4, streams, T=T, negative=(q, L))
        assert len(stats.norms) == len(p_values)
        for p, norm in zip(p_values, stats.norms):
            assert norm == mc_grid_stats(n, [p], samples, 4, streams).norms[0]
        if T is None:
            assert stats.truncated == ()
        else:
            for p, pair in zip(p_values, stats.truncated, strict=True):
                assert pair == mc_grid_stats(n, [p], samples, 4, streams, T=T).truncated[0]
        cap = math.inf if T is None else T
        alone = mc_grid_stats(n, [], samples, 4, streams, T=cap, negative=(q, L))
        assert stats.negative == alone.negative

    def test_without_negative(self):
        stats = mc_grid_stats(20, [2.0], 500, 1)
        assert stats.negative is None
        assert stats.norms == mc_grid_stats(20, [2.0], 500, 1, negative=(2.0, 1.0)).norms

    def test_validation(self):
        with pytest.raises(DomainError):
            mc_grid_stats(20, [], 500, 1)
        with pytest.raises(DomainError):
            mc_grid_stats(20, [2.0, 0.5], 500, 1)
        with pytest.raises(DomainError):
            mc_grid_stats(20, [2.0, -math.inf], 500, 1)
        with pytest.raises(DomainError):
            mc_grid_stats(20, [2.0], 500, 1, T=0.0)
        with pytest.raises(DomainError):
            mc_grid_stats(20, [2.0], 500, 1, negative=(0.5, 1.0))
        with pytest.raises(DomainError, match="need q >= 1"):
            mc_grid_stats(20, [2.0], 500, 1, negative=(math.nan, 1.0))
        with pytest.raises(DomainError, match="need L >= 0"):
            mc_grid_stats(20, [2.0], 500, 1, negative=(2.0, math.nan))
        # q L = inf * 0 is NaN, which no bound on q L refuses
        with pytest.raises(DomainError, match="need finite q"):
            mc_grid_stats(20, [2.0], 500, 1, negative=(math.inf, 0.0))


def test_streams_beyond_samples_refused():
    # every stream must draw at least one sample; an empty one would
    # still cost a generator and an accumulator
    with pytest.raises(DomainError, match="streams <= samples"):
        mc_grid_stats(5, [2.0], 3, seed=0, streams=4)
    with pytest.raises(DomainError, match="streams <= samples"):
        mc_small_ball(5, 2.0, 0.3, math.inf, 10, seed=0, streams=11)
