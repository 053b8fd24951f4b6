"""Monte Carlo engine: reproducibility, accumulators, and exact-law oracles."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

import lplab.montecarlo
from lplab import (
    DEFAULT_CONSTANTS,
    MomentAccumulator,
    RngStream,
    default_samples,
    gaussian_draws,
    mc_grid_stats,
    mc_small_ball,
    merge_pairwise,
    quantile_power_sum,
    wilson_interval,
)
from lplab.errors import DomainError
from lplab.montecarlo import _skip_uniforms


class TestRngStream:
    def test_same_key_same_draws(self):
        a = gaussian_draws(RngStream(11, 2).generator(), (3, 7))
        b = gaussian_draws(RngStream(11, 2).generator(), (3, 7))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = gaussian_draws(RngStream(11, 0).generator(), (64,))
        b = gaussian_draws(RngStream(11, 1).generator(), (64,))
        assert not np.array_equal(a, b)

    def test_draws_are_inverse_cdf_of_lattice_uniforms(self):
        # the pipeline is: 53-bit integers -> (k + 1/2)/2^53 -> ndtri,
        # for a small block and for one of 150,000 draws
        for shape in [(4, 5), (3, 50_000)]:
            gen = np.random.Generator(
                np.random.Philox(key=np.array([21, 3], dtype=np.uint64))
            )
            raw = gen.integers(0, 1 << 53, size=shape, dtype=np.uint64)
            manual = ndtri((raw.astype(np.float64) + 0.5) / float(1 << 53))
            lib = gaussian_draws(RngStream(21, 3).generator(), shape)
            assert np.array_equal(manual, lib)

    def test_half_offset_matches_integer_form_at_edges(self):
        # the uniforms are k 2^-53 + 2^-54; from k = 2^52 on, k + 1/2 is a
        # tie that rounds to even, and so does the sum, scaled by 2^-53
        for k in [0, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1]:
            assert k * 2.0**-53 + 2.0**-54 == (float(k) + 0.5) / 2.0**53

    def test_reused_buffer_with_short_last_chunk(self):
        # chunks of 3, 3 and 1 rows drawn into one 3-row buffer continue
        # the stream exactly as one call for all 7 rows
        n = 40_000
        whole = gaussian_draws(RngStream(21, 3).generator(), (7, n))
        gen = RngStream(21, 3).generator()
        buffer = np.empty(3 * n)
        rows = []
        for height in (3, 3, 1):
            block = gaussian_draws(gen, (height, n), buffer)
            assert block.shape == (height, n)
            assert np.shares_memory(block, buffer)
            rows.append(block.copy())
        assert np.array_equal(np.concatenate(rows), whole)

    def test_draw_allocates_one_block(self):
        # one 20 x 10^5 block is 16 MB; integer tiles add 512 KiB at a time
        shape = (20, 100_000)
        # a first call settles lazy state, so the traced one counts only its arrays
        gaussian_draws(RngStream(5, 0).generator(), (10,))
        tracemalloc.start()
        try:
            draws = gaussian_draws(RngStream(5, 0).generator(), shape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert draws.shape == shape
        assert peak <= draws.nbytes + 4 * 8 * (1 << 16)

    @pytest.mark.parametrize("start", range(8))
    def test_skip_continues_the_unbroken_stream(self, start):
        # from every position mod 4, stepping over 0 to 3 outputs plus 0
        # to 3 groups of four leaves the stream where drawing them would
        for outputs in range(4):
            for groups in range(4):
                count = outputs + 4 * groups
                whole = RngStream(8, 1).generator().random(start + count + 9)
                gen = RngStream(8, 1).generator()
                gen.random(start)
                _skip_uniforms(gen, start, count)
                assert np.array_equal(gen.random(9), whole[start + count :])

    def test_key_validation(self):
        with pytest.raises(DomainError):
            RngStream(-1, 0)
        with pytest.raises(DomainError):
            RngStream(0, -1)
        with pytest.raises(DomainError):
            RngStream(2**64, 0)

    def test_no_endpoint_uniforms(self):
        # lattice uniforms can never hit 0 or 1, so draws stay finite
        draws = gaussian_draws(RngStream(0, 0).generator(), (10000,))
        assert np.all(np.isfinite(draws))


class TestMomentAccumulator:
    def test_from_batch_matches_numpy(self):
        xs = np.random.default_rng(42).normal(size=257)
        acc = MomentAccumulator.from_batch(xs)
        mean = xs.mean()
        d = xs - mean
        assert acc.count == 257
        assert acc.mean == pytest.approx(mean, rel=1e-14)
        assert acc.m2 == pytest.approx((d**2).sum(), rel=1e-13)
        assert acc.m3 == pytest.approx((d**3).sum(), rel=1e-12)
        assert acc.m4 == pytest.approx((d**4).sum(), rel=1e-13)

    def test_merge_matches_single_pass(self):
        xs = np.random.default_rng(7).normal(loc=3.0, size=400)
        whole = MomentAccumulator.from_batch(xs)
        merged = MomentAccumulator.from_batch(xs[:150]).merge(
            MomentAccumulator.from_batch(xs[150:])
        )
        assert merged.count == whole.count
        assert merged.mean == pytest.approx(whole.mean, rel=1e-13)
        assert merged.m2 == pytest.approx(whole.m2, rel=1e-12)
        assert merged.m3 == pytest.approx(whole.m3, rel=1e-9)
        assert merged.m4 == pytest.approx(whole.m4, rel=1e-12)

    def test_merge_with_empty_is_identity(self):
        xs = np.arange(10.0)
        acc = MomentAccumulator.from_batch(xs)
        assert acc.merge(MomentAccumulator.empty()) == acc
        assert MomentAccumulator.empty().merge(acc) == acc

    def test_pairwise_merge_fixed_tree(self):
        xs = np.random.default_rng(3).normal(size=31)
        cuts = [0, 5, 14, 18, 25, 31]
        parts = [
            MomentAccumulator.from_batch(xs[a:b]) for a, b in zip(cuts, cuts[1:])
        ]
        tree = merge_pairwise(parts)
        assert tree == merge_pairwise(parts)
        whole = MomentAccumulator.from_batch(xs)
        assert tree.count == whole.count
        assert tree.mean == pytest.approx(whole.mean, rel=1e-13)
        assert tree.m2 == pytest.approx(whole.m2, rel=1e-12)
        assert tree.m4 == pytest.approx(whole.m4, rel=1e-12)

    def test_pairwise_empty_list(self):
        assert merge_pairwise([]) == MomentAccumulator.empty()

    def test_pairwise_merge_is_the_level_tree(self):
        # reference: pair neighbours level by level, carrying an odd tail;
        # another tree would change the last bits of the merged moments
        def levels(states):
            while len(states) > 1:
                merged = [a.merge(b) for a, b in zip(states[::2], states[1::2])]
                states = merged + states[2 * len(merged) :]
            return states[0]

        xs = np.random.default_rng(5).normal(size=(299, 3))
        parts = [MomentAccumulator.from_batch(row) for row in xs]
        for count in range(1, 300):
            assert merge_pairwise(parts[:count]) == levels(parts[:count])


class TestNormStats:
    def test_bit_reproducible(self):
        a = mc_grid_stats(20, [3.0], 4000, seed=1, streams=4).norms[0]
        b = mc_grid_stats(20, [3.0], 4000, seed=1, streams=4).norms[0]
        assert a == b

    def test_seed_and_stream_count_change_output(self):
        base = mc_grid_stats(20, [3.0], 4000, seed=1, streams=4).norms[0]
        assert mc_grid_stats(20, [3.0], 4000, seed=2, streams=4).norms[0] != base
        assert mc_grid_stats(20, [3.0], 4000, seed=1, streams=5).norms[0] != base

    def test_scalar_case_folded_gaussian(self):
        # n = 1: the norm is |g| for every p, so mean -> sqrt(2/pi),
        # variance -> 1 - 2/pi
        est = mc_grid_stats(1, [1.0], 20000, seed=7).norms[0]
        assert abs(est.mean - math.sqrt(2.0 / math.pi)) <= 4.0 * est.stderr_mean
        assert abs(est.variance - (1.0 - 2.0 / math.pi)) <= 4.0 * est.stderr_variance

    def test_scalar_case_p_independent(self):
        a = mc_grid_stats(1, [1.0], 5000, seed=7).norms[0]
        b = mc_grid_stats(1, [math.inf], 5000, seed=7).norms[0]
        assert b.mean == pytest.approx(a.mean, rel=1e-12)
        assert b.variance == pytest.approx(a.variance, rel=1e-12)

    def test_chi_two_degrees(self):
        # ||G||_2 with n = 2 is a chi(2) variable: mean sqrt(pi/2),
        # variance 2 - pi/2
        est = mc_grid_stats(2, [2.0], 40000, seed=3).norms[0]
        assert abs(est.mean - math.sqrt(math.pi / 2.0)) <= 4.0 * est.stderr_mean
        assert abs(est.variance - (2.0 - math.pi / 2.0)) <= 4.0 * est.stderr_variance

    def test_stderr_definition(self):
        est = mc_grid_stats(5, [2.0], 1000, seed=0).norms[0]
        assert est.stderr_mean == pytest.approx(
            math.sqrt(est.variance / est.samples), rel=1e-12
        )
        assert est.samples == 1000

    def test_validation(self):
        with pytest.raises(DomainError):
            mc_grid_stats(0, [2.0], 100, seed=0)
        with pytest.raises(DomainError):
            mc_grid_stats(5, [0.5], 100, seed=0)
        with pytest.raises(DomainError):
            mc_grid_stats(5, [2.0], 1, seed=0)
        with pytest.raises(DomainError):
            mc_grid_stats(5, [2.0], 100, seed=0, streams=0)

    def test_memory_guard(self):
        # one chunk row at n = 10^6 is 8 MB; a 1 MiB guard must refuse
        # before anything is allocated
        tiny = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=1_048_576)
        with pytest.raises(DomainError, match="memory guard"):
            mc_grid_stats(10**6, [2.0], 2, seed=0, constants=tiny)

    def test_default_samples_schedule(self):
        assert default_samples(1000) == 100_000
        assert default_samples(10_000) == 100_000
        assert default_samples(10_001) == 10_000


class TestTruncatedStats:
    def test_infinite_cap_is_exact_coupling(self):
        full = mc_grid_stats(50, [3.0], 5000, seed=11).norms[0]
        capped, gap = mc_grid_stats(50, [3.0], 5000, seed=11, T=math.inf).truncated[0]
        assert capped == full
        assert gap.mean == 0.0
        assert gap.variance == 0.0

    def test_cap_monotone_on_shared_draws(self):
        # identical seeds couple the draws, so the capped mean must
        # increase with T pointwise, not just statistically
        full = mc_grid_stats(50, [3.0], 5000, seed=11).norms[0]
        lo, gap_lo = mc_grid_stats(50, [3.0], 5000, seed=11, T=1.0).truncated[0]
        hi, gap_hi = mc_grid_stats(50, [3.0], 5000, seed=11, T=2.5).truncated[0]
        assert lo.mean < hi.mean < full.mean
        assert gap_lo.mean > gap_hi.mean > 0.0

    def test_gap_variance_nonnegative(self):
        _, gap = mc_grid_stats(30, [2.0], 3000, seed=2, T=1.5).truncated[0]
        assert gap.variance >= 0.0

    def test_rejects_bad_cap(self):
        with pytest.raises(DomainError):
            mc_grid_stats(10, [2.0], 100, seed=0, T=0.0)


class TestNegativeMoment:
    def test_inverse_chi_square_oracle(self):
        # E (sum g_i^2)^{-1} = 1/(n-2) for n > 2
        est = mc_grid_stats(10, [], 200_000, seed=5, T=math.inf, negative=(2.0, 1.0)).negative
        assert abs(est.mean - 0.125) <= 4.0 * est.stderr_mean

    def test_L_zero_is_constant_one(self):
        est = mc_grid_stats(10, [], 1000, seed=0, T=math.inf, negative=(2.0, 0.0)).negative
        assert est.mean == 1.0
        assert est.variance == 0.0

    def test_cap_increases_moment(self):
        # capping shrinks the power sum, so the negative moment grows
        a = mc_grid_stats(10, [], 20_000, seed=4, T=1.0, negative=(2.0, 1.0)).negative
        b = mc_grid_stats(10, [], 20_000, seed=4, T=math.inf, negative=(2.0, 1.0)).negative
        assert a.mean > b.mean

    def test_moment_growth_restriction(self):
        n = 100
        with pytest.raises(DomainError):
            mc_grid_stats(
                n, [], 100, seed=0, T=math.inf,
                negative=(2.0 * math.log(n), DEFAULT_CONSTANTS.negative_moment_K),
            )

    def test_validation(self):
        with pytest.raises(DomainError):
            mc_grid_stats(10, [], 100, seed=0, T=math.inf, negative=(0.5, 1.0))
        with pytest.raises(DomainError):
            mc_grid_stats(10, [], 100, seed=0, T=math.inf, negative=(2.0, -1.0))


class TestWilson:
    def test_endpoints(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0
        assert hi == pytest.approx(0.2775327998628892, rel=1e-12)
        lo, hi = wilson_interval(10, 10)
        assert lo == pytest.approx(0.7224672001371107, rel=1e-12)
        assert hi >= 1.0 - 1e-12

    def test_frozen_interior(self):
        lo, hi = wilson_interval(8, 10)
        assert lo == pytest.approx(0.49016247153664183, rel=1e-12)
        assert hi == pytest.approx(0.9433178485456247, rel=1e-12)

    def test_contains_point_estimate(self):
        for s, t in ((1, 7), (13, 40), (399, 400)):
            lo, hi = wilson_interval(s, t)
            assert lo < s / t < hi

    def test_narrows_with_trials(self):
        w1 = wilson_interval(8, 10)
        w2 = wilson_interval(80, 100)
        assert w2[1] - w2[0] < w1[1] - w1[0]

    def test_validation(self):
        with pytest.raises(DomainError):
            wilson_interval(5, 0)
        with pytest.raises(DomainError):
            wilson_interval(11, 10)


class TestSmallBall:
    def test_two_dim_chi_square_oracle(self):
        # n=2, q=2, T=inf: the event is chi^2_2 <= tau * s with known s,
        # so the probability is 1 - exp(-tau s / 2)
        tau = 0.25
        s = quantile_power_sum(2, 2.0).to_float()
        exact = 1.0 - math.exp(-tau * s / 2.0)
        est = mc_small_ball(2, 2.0, tau, math.inf, 20_000, seed=13)
        se = math.sqrt(exact * (1.0 - exact) / est.samples)
        assert abs(est.probability - exact) <= 4.0 * se
        assert est.wilson_low <= est.probability <= est.wilson_high

    def test_threshold_matches_helper(self):
        est = mc_small_ball(2, 2.0, 0.25, math.inf, 2000, seed=13)
        assert est.log_threshold == math.log(0.25) + quantile_power_sum(2, 2.0).log

    def test_threshold_refused_past_memory_guard(self):
        # the threshold's quantile arrays peak at 57 bytes a term, 57 MB at
        # n = 10^6, which a 16 MiB guard refuses before any is built
        guard = 16 * 2**20
        small = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=guard)
        message = f"a quantile sum of {10**6} terms exceeds the memory guard ({guard} bytes)"
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=re.escape(message)):
                mc_small_ball(10**6, 2.0, 0.25, math.inf, 2, 0, 1, small)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        fits = guard // 57
        assert quantile_power_sum(fits, 2.0, small) == quantile_power_sum(fits, 2.0)
        with pytest.raises(DomainError, match="memory guard"):
            quantile_power_sum(fits + 1, 2.0, small)

    def test_reproducible_counts(self):
        a = mc_small_ball(5, 2.0, 0.3, 2.0, 4000, seed=21)
        b = mc_small_ball(5, 2.0, 0.3, 2.0, 4000, seed=21)
        assert a == b
        assert a.successes + 0 <= a.samples

    def test_tau_domain(self):
        with pytest.raises(DomainError):
            mc_small_ball(5, 2.0, 0.5, math.inf, 100, seed=0)
        with pytest.raises(DomainError):
            mc_small_ball(5, 2.0, 0.0, math.inf, 100, seed=0)

    @pytest.mark.parametrize(
        "q, message",
        [
            (0.5, "need q >= 1, got 0.5"),
            (math.nan, "need q >= 1, got nan"),
            (math.inf, "need finite q, got inf"),
        ],
        ids=["0.5", "nan", "inf"],
    )
    def test_q_domain_before_any_quantile(self, monkeypatch, q, message):
        # NaN fails every comparison and inf sums to an infinite threshold,
        # so both must be refused before the n quantiles
        def no_quantiles(*args):
            raise AssertionError("quantiles were summed before q was checked")

        monkeypatch.setattr(lplab.montecarlo, "quantile_power_sum", no_quantiles)
        with pytest.raises(DomainError, match=message):
            mc_small_ball(5, q, 0.25, math.inf, 100, seed=0)
