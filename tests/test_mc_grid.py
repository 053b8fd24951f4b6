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
from hypothesis import example, given, settings, strategies as st

import lplab.gaussian
import lplab.montecarlo
import lplab.truncated
from lplab import (
    DEFAULT_CONSTANTS,
    RngStream,
    gaussian_draws,
    mc_grid_stats,
    mc_small_ball,
    merge_pairwise,
    quantile_power_sum,
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
    (
        # the benchmark's grid at n = 1000, T = 3.5, pinned from the fused
        # engine: 62% of its rows have peak <= T, so its capped power sums
        # come both from the plain ones and from the rows over T
        lambda: every_estimate(
            mc_grid_stats(1000, [2.0, 8.0, 12.0, math.inf], 1200, 11, 3, T=3.5, negative=(6.9, 1.0))
        ),
        (
            ('31.63303499071631', '0.4898763865239462', '0.02020471039394746', '0.02009156015005358', '1200', '11', '3'),
            ('4.210456601600635', '0.035189764879584466', '0.005415238135698225', '0.0018473286790516782', '1200', '11', '3'),
            ('3.736601136285508', '0.05621684370161664', '0.006844513843316208', '0.0033034677624102756', '1200', '11', '3'),
            ('3.441415326149787', '0.10677464400714368', '0.009432861178134293', '0.0055176077890587', '1200', '11', '3'),
            ('31.61963082003157', '0.48509200859715085', '0.020105803652120592', '0.019844327894095796', '1200', '11', '3'),
            ('0.000929922558483387', '1.6151155785124945e-05', '0.00011601420812816041', '7.44117064955718e-06', '1200', '11', '3'),
            ('4.171435501935849', '0.020447152749261926', '0.004127867967573366', '0.0008004246391315472', '1200', '11', '3'),
            ('0.009287050070259779', '0.0021784923283331824', '0.0013473716167453527', '0.0007802515286361195', '1200', '11', '3'),
            ('3.67385143573044', '0.023595150764537397', '0.004434255928238074', '0.0009146846280896421', '1200', '11', '3'),
            ('0.022108001487901208', '0.009348665566286348', '0.002791156505567532', '0.0029497104190488533', '1200', '11', '3'),
            ('3.338617353815576', '0.03506930325391337', '0.005405961466590485', '0.0014982295175260472', '1200', '11', '3'),
            ('0.04903339182325144', '0.027478481956368095', '0.004785262266965112', '0.006744624451349588', '1200', '11', '3'),
            ('3.2025369053605776e-05', '5.123330508952463e-11', '2.066262831973154e-07', '2.5273258296308825e-12', '1200', '11', '3'),
        ),
    ),
    (
        # from n = 2^16 a reducer tile is one whole row, so with a cap the
        # drawn row is capped in place in the scratch slot it is drawn into
        lambda: every_estimate(
            mc_grid_stats(70_000, [2.0, 12.0, math.inf], 12, 3, 3, T=4.0, negative=(2.0, 1.0))
        ),
        (
            ('264.4708591351875', '0.42376494908041235', '0.1879195193605524', '0.12522754709307887', '12', '3', '3'),
            ('5.450636495278925', '0.004061480947171441', '0.018397193959884754', '0.0014866209216793105', '12', '3', '3'),
            ('4.333959030689664', '0.043498180745118936', '0.06020671387334288', '0.010903188271424996', '12', '3', '3'),
            ('264.4578994813066', '0.42024280953044735', '0.18713693950563923', '0.12399261796551012', '12', '3', '3'),
            ('0.0002696517226717497', '1.2500096057354733e-07', '0.00010206246476772093', '5.433228727439894e-08', '12', '3', '3'),
            ('5.402848197453908', '0.0009235657749725973', '0.00877290228949632', '0.0002776818197406992', '12', '3', '3'),
            ('0.0041443408169972665', '3.9029628404112155e-05', '0.0018034602944550825', '2.0048768803705887e-05', '12', '3', '3'),
            ('4.0', '0.0', '0.0', '0.0', '12', '3', '3'),
            ('0.1514019665288727', '0.027260098325030856', '0.04766209039078372', '0.008806756686750383', '12', '3', '3'),
            ('1.429861925271226e-05', '4.935139021755751e-15', '2.0279585428363977e-08', '1.4558515190587112e-15', '12', '3', '3'),
        ),
    ),
    (
        # the same one-row tiles, read a segment at a time; 10 of 12 count
        lambda: mc_small_ball(70_000, 30.0, 0.45, 4.0, 12, 3, 3),
        ('0.8333333333333334', '0.5519691377470266', '0.9530348578161463', '10', '12', '43.92504793331624', '3', '3'),
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

# stdout of the mc-grid benchmark's argv at seed 0, pinned from the fused engine
BENCH_MC_ARGV = [
    "mc", "--n", "1000", "--p", "2,8,12,inf", "--truncate", "3.5",
    "--negative", "6.9,1.0", "--samples", "4000", "--seed", "0", "--streams", "4",
]
BENCH_MC_STDOUT_SHA256 = "c202cb3cecfa781010433739c55925786a502d595615d2d12400cc511820b7c3"


def every_estimate(stats):
    """The estimates of an MCGridStats in field order, each truncated pair flattened."""
    return (*stats.norms, *(e for pair in stats.truncated for e in pair), stats.negative)


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
def test_golden_fields_any_tile(monkeypatch, capsys, tile_elems):
    # one row per tile, a few rows, and the whole chunk in one tile; the
    # tile is also the block a stream draws at a time
    monkeypatch.setattr(lplab.gaussian, "_TILE_ELEMS", tile_elems)
    for call, expected in GOLDEN:
        assert reprs(call()) == expected
    for args, expected in SETTLING_GOLDEN:
        assert reprs(mc_small_ball(*args)) == expected
    assert main(BENCH_MC_ARGV) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BENCH_MC_STDOUT_SHA256


def test_mc_stdout_golden(capsys):
    assert main(MC_ARGV) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == MC_STDOUT_SHA256


def test_benchmark_mc_stdout_golden(capsys):
    assert main(BENCH_MC_ARGV) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BENCH_MC_STDOUT_SHA256


def test_grid_golden_has_rows_on_both_sides_of_the_cap():
    # the n = 1000, T = 3.5 golden draws 400 rows from each of streams
    # 0-2 at seed 11; the reducer takes the capped power sums of a row
    # whose peak is <= T from its plain ones, and caps the others
    peaks = np.concatenate(
        [np.abs(gaussian_draws(RngStream(11, s).generator(), (400, 1000))).max(axis=1)
         for s in range(3)]
    )
    assert 0.4 <= (peaks <= 3.5).mean() <= 0.8


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
        # n = 3000 draws one 21-row reducer tile at a time into its
        # worker's reducer scratch, which keeps two such tiles (the drawn
        # and scaled |x|, and the powers), 1,008,000 bytes; over a 699-row
        # chunk the reducer holds four rows (the output, the peaks, the
        # logs and the finish) and the estimator two (from_batch's
        # temporaries), and a tile two vectors and numpy's iterator buffer
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", 3)
        held = (2 * 21 * 3000 + 6 * 699 + 2 * 21 + np.getbufsize()) * 8
        one = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=2 * held - 1)
        estimate = mc_grid_stats(3000, [12.0], 1600, 5, 2, constants=one).norms[0]
        assert reprs(estimate) == GOLDEN[3][1]
        two = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=2 * held)
        assert mc_grid_stats(3000, [12.0], 1600, 5, 2, constants=two).norms[0] == estimate
        assert pool_sizes == [1, 2]

    def test_guard_counts_the_reducer_scratch(self, monkeypatch):
        # from n = 2^16 a reducer tile is one whole row, and a capped grid
        # keeps three of them (plain, capped, powers), the row drawn into
        # the capped one: at n = 4·10^6 that is 96 MB (beside 13 doubles
        # of the one-row chunk's rows, 2 of the tile's and numpy's 8192
        # of iterator buffer), refused by a 64 MiB guard before anything
        # is drawn; at n = 2·10^6 it is 48 MB, admitted, and the call's
        # traced peak is those three rows, with no fourth beside them
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", 1)
        guard = 64 << 20
        constants = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=guard)

        def no_draws(*args):
            raise AssertionError("drew before the guard")

        with monkeypatch.context() as patched:
            patched.setattr(lplab.montecarlo, "gaussian_draws", no_draws)
            with pytest.raises(DomainError, match=r"\(12008207 doubles\) exceed the memory guard"):
                mc_grid_stats(4_000_000, [2.0, 8.0], 2, 0, 1, constants, T=3.0)
        tracemalloc.start()
        try:
            mc_grid_stats(2_000_000, [2.0, 8.0], 2, 0, 1, constants, T=3.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 2_000_000 * 3 * 8 <= peak <= 2_000_000 * 3.5 * 8

    def test_guard_counts_the_block_outputs(self, monkeypatch, pool_sizes):
        # 500 p values at n = 1000 reduce a chunk of up to 2097 rows into
        # 500 output rows, 8.4 MB beside the 1 MB of reducer scratch that
        # the draws go into and five more rows (the peaks, the logs, the
        # finish and from_batch's two temporaries): a 16 MiB guard admits
        # one such worker, not two, and the call's traced peak, which
        # holds the outputs of a stream's 2000-row chunk, stays inside
        # the guard; 1000 p values are 16.8 MB of output rows, refused
        # before any draw
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", 2)
        guard = 16 << 20
        constants = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=guard)
        wide = list(np.linspace(2.0, 40.0, 500))
        held = 2 * 65 * 1000 + 2097 * (500 + 5) + 2 * 65 + np.getbufsize()
        assert 8 * held <= guard < 2 * 8 * held
        peak = traced_peak(lambda: mc_grid_stats(1000, wide, 4000, 0, 2, constants))
        assert pool_sizes == [1]
        assert 8 * (2 * 65 * 1000 + 2000 * 500) <= peak <= guard

        def no_draws(*args):
            raise AssertionError("drew before the guard")

        monkeypatch.setattr(lplab.montecarlo, "gaussian_draws", no_draws)
        wider = list(np.linspace(2.0, 40.0, 1000))
        with pytest.raises(DomainError, match=r"\(2245807 doubles\) exceed the memory guard"):
            mc_grid_stats(1000, wider, 4000, 0, 2, constants)

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

        def stream(gen, quota):
            return Tree(float(gaussian_draws(gen, (quota, 2))[0, 0]))

        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", cores)
        for streams in [*range(1, 19), 31, 32, 33, 100]:
            leaves = [
                Tree(float(gaussian_draws(RngStream(4, s).generator(), (1, 2))[0, 0]))
                for s in range(streams)
            ]
            merged = lplab.montecarlo._fold_streams(
                stream, Tree.merge, 16, streams, 4, streams, DEFAULT_CONSTANTS
            )
            assert merged.shape == merge_pairwise(leaves).shape

    @pytest.mark.parametrize("cores", [1, 3])
    def test_each_stream_gets_its_generator_and_quota(self, monkeypatch, cores):
        # 100 samples over 7 streams: the first 100 mod 7 = 2 streams
        # draw one more; the states come back merged in stream order
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", cores)

        def stream(gen, quota):
            return ((quota, gen.random()),)

        merged = lplab.montecarlo._fold_streams(stream, operator.add, 8, 100, 4, 7, DEFAULT_CONSTANTS)
        assert merged == tuple(
            (quota, RngStream(4, s).generator().random())
            for s, quota in enumerate([15, 15, 14, 14, 14, 14, 14])
        )

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


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkerFigure:
    # a worker is admitted by one figure: a reducer call's doubles, as
    # gaussian._reducer_doubles states them, and the rows its estimator
    # makes of a chunk; at n = 2 a chunk has 8192 rows, so its per-row
    # vectors outweigh the reducer scratch, and before they were counted
    # the first two calls below peaked at about 803 KB traced against a
    # figure of 327,680 bytes, and the capped grid at 2,393,712 against
    # 2,031,232

    @pytest.mark.parametrize(
        "call",
        [
            lambda constants: mc_grid_stats(2, [2.0], 32768, 0, 2, constants),
            lambda constants: mc_small_ball(2, 2.0, 0.3, 2.0, 32768, 0, 2, constants),
            lambda constants: mc_grid_stats(
                20, [2.0, 12.0], 20000, 0, 2, constants, T=2.0, negative=(2.0, 1.0)
            ),
        ],
        ids=["grid", "small-ball", "capped-grid"],
    )
    def test_traced_peak_within_the_admitted_bytes(self, monkeypatch, pools, call):
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", 1)
        held = []
        validate = lplab.montecarlo._validate_mc_args

        def recording(n, samples, streams, doubles, constants):
            held.append(doubles)
            return validate(n, samples, streams, doubles, constants)

        monkeypatch.setattr(lplab.montecarlo, "_validate_mc_args", recording)
        call(DEFAULT_CONSTANTS)
        peak = traced_peak(lambda: call(DEFAULT_CONSTANTS))
        assert pools.sizes[-1] == 1
        assert peak <= 8 * held[-1]

    @pytest.mark.parametrize(
        "n, T", [(2, 2.0), (2, math.inf), (50, 1.5), (3000, math.inf)], ids=str
    )
    def test_small_ball_lets_each_block_go(self, monkeypatch, n, T):
        # a stream of three chunks peaks as one of a single chunk: the
        # block loop and the count let a chunk's log sums go before the
        # next chunk is reduced, so the small ball's figure is the
        # reducer call's alone; holding them peaked a row higher (65.6 KB
        # at 8192-row chunks, 5.6-5.9 KB at n = 3000's 699)
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", 1)
        rows = lplab.montecarlo._block_rows(n, n)
        peaks = []
        for chunks in (1, 3):
            mc_small_ball(n, 2.0, 0.3, T, chunks * rows, 0, 1)
            peaks.append(traced_peak(lambda: mc_small_ball(n, 2.0, 0.3, T, chunks * rows, 0, 1)))
        assert peaks[1] - peaks[0] < 4 * rows

    def test_small_guard_runs_fewer_workers(self, monkeypatch, pools, fine_switching):
        # a 1 MiB guard admitted both n = 2 calls on 2 workers, which
        # together peaked at 1.27-1.46 MiB traced; it now admits one, and
        # the call stays inside the guard with its estimates unchanged
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", 2)
        guard = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=1 << 20)
        for call in (
            lambda constants: mc_grid_stats(2, [2.0], 32768, 0, 2, constants),
            lambda constants: mc_small_ball(2, 2.0, 0.3, 2.0, 32768, 0, 2, constants),
        ):
            assert call(guard) == call(DEFAULT_CONSTANTS)
            assert traced_peak(lambda: call(guard)) <= 1 << 20
        assert pools.sizes == [1, 2, 1, 1, 2, 1]

    @pytest.mark.parametrize("cores", [3, 96])
    def test_benchmark_shapes_keep_their_workers(self, monkeypatch, capsys, pools, cores):
        # under the default guard the mc-grid argv and the tails small
        # ball each run on one pool of min(cores, 4) workers, one per
        # stream, so a larger worker figure cannot make them serial
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", cores)
        assert main(BENCH_MC_ARGV) == 0
        mc_small_ball(100_000, 2.0, 0.25, math.inf, 480, 0)
        assert pools.sizes == [min(cores, 4)] * 2


class TestTileDraws:
    # a stream draws a reducer tile of rows at a time straight into its
    # worker's reducer scratch, so a one-worker call holds the scratch
    # tiles and a few vectors over a chunk's rows, and never a chunk of
    # draws (8 MB and 16.8 MB below) or a tile beside the scratch

    def test_grid_at_the_benchmark_shape(self, monkeypatch):
        # 1000-row chunks of 65-row tiles; the reducer keeps three tiles
        # (plain, capped, powers), and a chunk's 13 statistics take a few
        # dozen vectors of its 1000 rows
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", 1)
        tile = lplab.gaussian._tile_rows(1000) * 1000
        peak = traced_peak(lambda: mc_grid_stats(
            1000, [2.0, 8.0, 12.0, math.inf], 4000, 0, 4, T=3.5, negative=(6.9, 1.0)
        ))
        assert peak < 8 * (3 * tile + 48 * 1000)

    def test_short_row_small_ball(self, monkeypatch):
        # a stream's 800 rows come in a 699-row and a 101-row chunk at
        # n = 3000, each drawn and reduced one 21-row tile at a time; the
        # reducer keeps two tiles (plain, powers)
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", 1)
        tile = lplab.gaussian._tile_rows(3000) * 3000
        peak = traced_peak(lambda: mc_small_ball(3000, 2.0, 0.4, math.inf, 1600, 5, 2))
        assert peak < 8 * (2 * tile + 48 * 800)


class TestBlockLoop:
    # both estimators draw through `_row_values`: a chunk of whole rows
    # is one reducer call, drawn a tile at a time into the reducer's
    # scratch, and a long row is one reducer call per segment drawn

    @pytest.mark.parametrize(
        "args, calls, expected",
        [
            # two streams of 8000 rows in 699-row chunks at n = 3000
            (
                (3000, 2.0, 0.4, math.inf, 16000, 5, 2),
                24,
                ('0.0', '0.0', '0.00024003354635688813', '0', '16000', '7.087350040239698', '5', '2'),
            ),
            # three streams of about 6667 rows, one 8192-row chunk each
            (
                (50, 3.0, 0.3, 1.5, 20000, 8, 3),
                3,
                ('0.0003', '0.0001374997137187844', '0.0006544211207521783', '6', '20000', '2.998018987782384', '8', '3'),
            ),
            # the tails benchmark's shape: every sample stops in its first segment
            (
                (100_000, 2.0, 0.25, math.inf, 480, 0),
                480,
                ('0.0', '0.0', '0.007939499087277936', '0', '480', '10.12651591904987', '0', '4'),
            ),
        ],
    )
    def test_small_ball_reducer_calls(self, monkeypatch, args, calls, expected):
        blocks = record_reducer_blocks(monkeypatch)
        assert reprs(mc_small_ball(*args)) == expected
        assert len(blocks) == calls
        assert all(isinstance(block, lplab.montecarlo._DrawnRows) for block in blocks)

    def test_grid_reducer_calls(self, monkeypatch, capsys):
        # the mc-grid benchmark's four streams of 1000 rows, one chunk each
        blocks = record_reducer_blocks(monkeypatch)
        assert main(BENCH_MC_ARGV) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == BENCH_MC_STDOUT_SHA256
        assert len(blocks) == 4
        assert all(isinstance(block, lplab.montecarlo._DrawnRows) for block in blocks)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: mc_small_ball(100_000, 2.0, 0.25, math.inf, 8, 0, 2),
            lambda: mc_small_ball(3000, 2.0, 0.4, math.inf, 1600, 5, 2),
            lambda: mc_grid_stats(3000, [12.0], 1600, 5, 2),
        ],
        ids=["long_row_small_ball", "short_row_small_ball", "grid"],
    )
    def test_draws_land_in_the_reducer_scratch(self, monkeypatch, call):
        # a segment of a long row, and each tile of a chunk, the last one
        # of a chunk shorter, is drawn into the drawing thread's own
        # reducer scratch, so no worker allocates a buffer for its draws
        shared = []

        def recording(gen, shape, buffer=None):
            shared.append(np.shares_memory(buffer, lplab.gaussian._scratch.buffer))
            return gaussian_draws(gen, shape, buffer)

        monkeypatch.setattr(lplab.montecarlo, "gaussian_draws", recording)
        call()
        assert shared and all(shared)


def record_reducer_blocks(monkeypatch):
    """The blocks `montecarlo` hands the row reducer from now on, in call order."""
    reduce_rows = lplab.montecarlo._reduce_rows
    blocks = []

    def recording(block, requests, T):
        blocks.append(block)
        return reduce_rows(block, requests, T)

    monkeypatch.setattr(lplab.montecarlo, "_reduce_rows", recording)
    return blocks


def fold_row_values(n, samples, seed, streams, log_sums, threshold):
    """Every value `_row_values` yields over the streams, in stream order.

    The blocks are those of `mc_small_ball`: chunks of whole rows read a
    reducer tile at a time, or one 2^15-double segment of a longer row.
    """
    width = min(n, 1 << 15)
    rows = lplab.montecarlo._block_rows(n, width)
    scratch = math.prod(lplab.gaussian._scratch_shape(rows, width, [(1.0, False, True)]))

    def stream(gen, quota):
        blocks = lplab.montecarlo._row_values(gen, quota, n, width, log_sums, threshold)
        return tuple(value for values in blocks for value in values)

    return lplab.montecarlo._fold_streams(
        stream, operator.add, scratch, samples, seed, streams, DEFAULT_CONSTANTS
    )


class TestSettledRows:
    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_goldens_at_any_worker_count(self, monkeypatch, pools, fine_switching, cores):
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", cores)
        for args, expected in SETTLING_GOLDEN:
            assert reprs(mc_small_ball(*args)) == expected
        assert pools.sizes == [min(cores, args[-1]) for args, _ in SETTLING_GOLDEN]

    @pytest.mark.parametrize("cores", [1, 2])
    def test_row_values_are_those_of_the_unbroken_streams(self, monkeypatch, cores):
        # n is two segments and 5 doubles, so a row stops after one
        # segment, after two or never, and the rows after it start at
        # every position mod 4; each value folded must be the running
        # logaddexp of the stream's own segment sums up to the segment
        # where the row stopped, bit for bit, however many draws were
        # stepped over before it
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", cores)
        segment = 1 << 15
        n, samples, streams, seed, q, threshold = 2 * segment + 5, 16, 2, 3, 30.0, 45.05
        whole = np.concatenate([
            gaussian_draws(RngStream(seed, s).generator(), (samples // streams, n))
            for s in range(streams)
        ])

        # part is a lazy block in the loop and an array below; its draw
        # draws the one row of the former
        def log_sums(part):
            if not isinstance(part, np.ndarray):
                part = part.draw(np.empty(part.shape))
            return np.log(np.sum(np.abs(part) ** q, axis=1))

        running = np.logaddexp.accumulate(
            [log_sums(whole[:, start : start + segment]) for start in range(0, n, segment)]
        ).T
        first = running[:, 0] > threshold
        second = ~first & (running[:, 1] > threshold)
        assert [first.sum(), second.sum()] == [4, 4]
        assert np.abs(running - threshold).min() > 1e-3
        # a row that stops early would fail whole
        assert (running[first | second, 2] > threshold).all()

        folded = fold_row_values(n, samples, seed, streams, log_sums, threshold)
        expected = np.where(first, running[:, 0], np.where(second, running[:, 1], running[:, 2]))
        assert np.array(folded).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize(
        "n, rows, quota", [(50, 1310, 1500), (1 << 15, 2, 5), ((1 << 15) + 1, 1, 3)]
    )
    def test_short_row_values_are_those_of_the_unbroken_streams(
        self, monkeypatch, cores, n, rows, quota
    ):
        # a row of at most one segment is drawn whole, in a chunk read a
        # reducer tile of rows at a time, and each quota ends on a tile
        # short of a full one; a row one double past a segment is drawn in
        # two segments.  With no threshold to pass, each value folded must
        # be the logaddexp of _reduce_rows over the unbroken stream's row
        # segments, bit for bit
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", cores)
        segment, streams, seed, request = 1 << 15, 2, 4, [(3.0, True, True)]
        assert min(lplab.gaussian._tile_rows(n), lplab.montecarlo._chunk_rows(n)) == rows
        whole = np.concatenate([
            gaussian_draws(RngStream(seed, s).generator(), (quota, n)) for s in range(streams)
        ])

        def log_sums(part):
            return lplab.montecarlo._reduce_rows(part, request, 2.0)[0]

        expected = np.logaddexp.reduce(
            [log_sums(whole[:, start : start + segment]) for start in range(0, n, segment)]
        )
        folded = fold_row_values(n, quota * streams, seed, streams, log_sums, math.inf)
        assert np.array(folded).tobytes() == expected.tobytes()

    def test_reducer_sees_one_segment_at_a_time(self, monkeypatch):
        # a long row is reduced in segments of 2^15 doubles and never
        # whole: the first settling golden's n = 100001 is three full
        # segments and one of 1697, and 10 of its 48 rows reach the last
        reduce_rows = lplab.montecarlo._reduce_rows
        widths = []

        def recording(block, requests, T):
            widths.append(block.shape[1])
            return reduce_rows(block, requests, T)

        monkeypatch.setattr(lplab.montecarlo, "_reduce_rows", recording)
        args, expected = SETTLING_GOLDEN[0]
        assert reprs(mc_small_ball(*args)) == expected
        assert set(widths) == {1 << 15, 100_001 - 3 * (1 << 15)}

    def test_memory_guard_checks_the_row_drawn(self, monkeypatch):
        # past one segment a stream draws one segment at a time, so an
        # 8 MiB guard admits the small ball at n = 10^5 (512 KB of reducer
        # scratch that a segment is drawn into, beside its 5.7 MB quantile
        # sum); mc_grid_stats draws a one-row tile into its 1.6 MB of
        # scratch at that n and into 6.4 MB at n = 4·10^5, which the guard
        # admits too, but it refuses before any draw the 9.6 MB of scratch
        # at n = 6·10^5, beside the rows of its 3-row chunk and numpy's
        # iterator buffer
        guard = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=8 << 20)
        args = (100_000, 2.0, 0.25, math.inf, 4, 0, 2)
        assert mc_small_ball(*args, constants=guard) == mc_small_ball(*args)
        for n in (100_000, 400_000):
            grid = (n, [2.0], 4, 0, 2)
            assert mc_grid_stats(*grid, constants=guard) == mc_grid_stats(*grid)

        def no_draws(*args):
            raise AssertionError("drew before the guard")

        monkeypatch.setattr(lplab.montecarlo, "gaussian_draws", no_draws)
        with pytest.raises(DomainError, match=r"\(1208212 doubles\) exceed the memory guard"):
            mc_grid_stats(600_000, [2.0], 4, 0, 2, constants=guard)

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

    @pytest.mark.parametrize("above", [False, True])
    def test_row_stops_only_past_the_threshold(self, monkeypatch, above):
        # n = 40,000 is a head of 10,663 coordinates, the rest of the
        # first 2^15 segment and a short last one.  The log power sum of
        # the head, or of the rest of the segment, is reported as the
        # threshold itself, which must not stop a row, or as the next
        # double above it, which must, and every other block's as -inf,
        # an empty sum, which leaves the running value where it is
        n, samples, segment = 40_000, 6, 1 << 15
        threshold = math.log(0.25) + quantile_power_sum(n, 2.0).log
        head = lplab.montecarlo._head_length(n, 2.0, math.inf, threshold)
        assert head == 10_663
        first = np.nextafter(threshold, math.inf) if above else threshold
        for width, stop in [(head, head), (segment - head, segment)]:
            drawn = []

            def block_at(block, requests, T):
                # the block draws only as it is read
                block.draw(np.empty(block.shape))
                return np.full((1, 1), first if block.shape[1] == width else -math.inf)

            def counting(gen, shape, buffer=None):
                drawn.append(math.prod(shape))
                return gaussian_draws(gen, shape, buffer)

            with monkeypatch.context() as patched:
                patched.setattr(lplab.montecarlo, "_reduce_rows", block_at)
                patched.setattr(lplab.montecarlo, "gaussian_draws", counting)
                mc_small_ball(n, 2.0, 0.25, math.inf, samples, 0, 2)
            assert sum(drawn) == samples * (stop if above else n)

    def test_benchmark_shape_settles_on_the_head(self, monkeypatch):
        # at the tails benchmark's shape every sample passes the
        # threshold within its head of 26,036 coordinates: one reducer
        # call and 26,036 draws a sample
        head = lplab.montecarlo._head_length(10**5, 2.0, math.inf, 10.12651591904987)
        assert head == 26_036
        blocks = record_reducer_blocks(monkeypatch)
        drawn = []

        def counting(gen, shape, buffer=None):
            drawn.append(math.prod(shape))
            return gaussian_draws(gen, shape, buffer)

        monkeypatch.setattr(lplab.montecarlo, "gaussian_draws", counting)
        estimate = mc_small_ball(10**5, 2.0, 0.25, math.inf, 480, 0)
        assert reprs(estimate) == (
            '0.0', '0.0', '0.007939499087277936', '0', '480', '10.12651591904987', '0', '4'
        )
        assert [block.shape for block in blocks] == [(1, head)] * 480
        assert sum(drawn) == 480 * head

    @settings(derandomize=True, deadline=None)
    @given(a=st.floats(allow_nan=False), b=st.floats(allow_nan=False))
    @example(a=-math.inf, b=-math.inf)
    @example(a=-math.inf, b=-3.0)
    @example(a=45.05, b=45.05)
    @example(a=45.05, b=45.05 - 40.5)
    @example(a=-2.0, b=700.0)
    @example(a=0.0, b=-800.0)
    @example(a=1e300, b=1e300)
    @example(a=1e300, b=-1e300)
    @example(a=-1e300, b=np.nextafter(-1e300, 0.0))
    def test_logaddexp_is_not_below_its_larger_argument(self, a, b):
        # the running value of a long small-ball row never decreases, so
        # a row that passes the threshold early would pass it whole
        assert np.logaddexp(a, b) >= max(a, b)


def forced_head(monkeypatch, head):
    """Make every mc_small_ball call cut its long rows at `head` (0 for none)."""
    monkeypatch.setattr(lplab.montecarlo, "_head_length", lambda *args: head)


class TestHead:
    # a long small-ball row's first segment is cut at a head sized from
    # the threshold; the head sets how soon a sample settles, never a count

    @pytest.mark.parametrize(
        "args",
        [(100_000, 2.0, 0.25, math.inf, 48), (70_000, 2.0, 0.1, 3.0, 60)],
        ids=["tails", "capped"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_counts_equal_a_head_free_run(self, monkeypatch, args, seed):
        with_head = mc_small_ball(*args, seed, 3)
        forced_head(monkeypatch, 0)
        assert mc_small_ball(*args, seed, 3) == with_head

    @pytest.mark.parametrize("head", [1, 1000, (1 << 15) - 1])
    def test_forced_head_keeps_the_goldens(self, monkeypatch, head):
        # the settling goldens' heavy tails get no head of their own; a
        # forced one of 1 or 1000 coordinates leaves most samples
        # undecided after it, so they go on to the rest of the first
        # segment, and one a coordinate short of it leaves a one-wide
        # rest; every count is kept
        forced_head(monkeypatch, head)
        blocks = record_reducer_blocks(monkeypatch)
        for args, expected in SETTLING_GOLDEN:
            del blocks[:]
            assert reprs(mc_small_ball(*args)) == expected
            if head <= 1000:
                rests = sum(block.shape[1] == (1 << 15) - head for block in blocks)
                assert rests > args[4] // 2

    @pytest.mark.parametrize(
        "n, q, tau, T, expected",
        [
            (100_000, 2.0, 0.25, math.inf, 26_036),
            (70_000, 2.0, 0.1, 3.0, 7_588),
            (40_000, 2.0, 0.25, math.inf, 10_663),
            (100_000, 1.0, 0.3, 2.0, 31_462),
        ],
    )
    def test_head_is_the_least_length_that_meets_the_bound(self, n, q, tau, T, expected):
        # L mu - t >= sqrt(2 L m2 log(1/eps)), the moments those of
        # min(|g|, T)^q, bounds P(S_L <= t) by eps (Maurer's lower tail)
        t = math.log(tau) + quantile_power_sum(n, q).log
        head = lplab.montecarlo._head_length(n, q, T, t)
        mu = lplab.truncated.trunc_moment_min(lplab.truncated.TruncationSpec(q, T)).to_float()
        m2 = lplab.truncated.trunc_moment_min(lplab.truncated.TruncationSpec(2 * q, T)).to_float()
        spread = 2.0 * m2 * math.log(1.0 / lplab.montecarlo._HEAD_MISS)

        def meets(L):
            return L * mu - math.exp(t) >= math.sqrt(L * spread)

        assert head == expected
        assert meets(head) and not meets(head - 1)

    def test_no_head_past_a_segment_or_within_one(self):
        head_length = lplab.montecarlo._head_length
        segment = 1 << 15
        # the settling goldens' heavy tails: L would pass a segment
        for (n, q, tau, T, *_), _ in SETTLING_GOLDEN[:3]:
            assert head_length(n, q, T, math.log(tau) + quantile_power_sum(n, q).log) == 0
        # a threshold of segment - 100 squares needs more than 100 past it
        assert head_length(10**5, 2.0, math.inf, math.log(segment - 100)) == 0
        assert 0 < head_length(10**5, 2.0, math.inf, math.log(segment - 2000)) < segment
        # one segment, or less, has no head however low the threshold
        for n in (segment, 50):
            assert head_length(n, 2.0, math.inf, 0.0) == 0
        # q = 1000, whose moments pass the double range, has none either
        assert head_length(10**5, 1000.0, math.inf, 3000.0) == 0


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
