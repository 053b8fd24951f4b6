"""Order statistics of |g|: exact CDF, tail bounds, top-k sampling."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import lplab.orderstats
from lplab import (
    DEFAULT_CONSTANTS,
    RngStream,
    chernoff_bound,
    orderstat_cdf_exact,
    quantile_tail,
    sample_top_orderstats,
)
from lplab.errors import DomainError


class TestExactCdf:
    def test_single_term(self):
        for n, beta in [(2, 0.5), (100, 0.1), (17, 0.37)]:
            got = orderstat_cdf_exact(n, 1, beta)
            assert got.to_float() == pytest.approx((1.0 - beta) ** n, rel=1e-12)

    def test_top_equals_complement_of_all_exceed(self):
        for n, beta in [(10, 0.5), (40, 0.2)]:
            got = orderstat_cdf_exact(n, n, beta)
            assert got.to_float() == pytest.approx(1.0 - beta**n, rel=1e-12)

    def test_two_coordinates(self):
        assert orderstat_cdf_exact(2, 1, 0.5).to_float() == pytest.approx(0.25, rel=1e-14)

    def test_against_high_precision_sum(self):
        mp.mp.dps = 40
        for n, i, beta in [(100, 17, 0.3), (1000, 3, 0.01), (50, 25, 0.5)]:
            b = mp.mpf(beta)
            ref = sum(
                mp.binomial(n, j) * b**j * (1 - b) ** (n - j) for j in range(i)
            )
            assert orderstat_cdf_exact(n, i, beta).to_float() == pytest.approx(
                float(ref), rel=1e-12
            )

    def test_matches_lgamma_loop(self):
        # the term-by-term sum the array form replaced, at the benchmark's
        # largest order statistic
        n, i, beta = 10**6, 5000, 0.01
        log_terms = [
            math.lgamma(n + 1)
            - math.lgamma(j + 1)
            - math.lgamma(n - j + 1)
            + j * math.log(beta)
            + (n - j) * math.log1p(-beta)
            for j in range(i)
        ]
        top = max(log_terms)
        expected = top + math.log(math.fsum(math.exp(v - top) for v in log_terms))
        assert orderstat_cdf_exact(n, i, beta).log == pytest.approx(expected, rel=1e-12)

    def test_log_cdf_against_mpmath_at_large_n(self):
        # the log-ratio sum keeps the log CDF within 1e-10 absolute where
        # differences of lgamma values at n = 10^6 lost about 1e-9
        n, beta = 10**6, 0.01
        with mp.workdps(50):
            b = mp.mpf(beta)
            term = (1 - b) ** n
            total = term
            for i in range(1, 5001):
                if i in (100, 1000, 5000):
                    got = orderstat_cdf_exact(n, i, beta).log
                    assert abs(mp.mpf(got) - mp.log(total)) <= 1e-10, i
                # the next binomial term, C(n, i) b^i (1 - b)^(n - i)
                term *= mp.mpf(n - i + 1) / i * b / (1 - b)
                total += term

    def test_deep_tail_stays_in_log_domain(self):
        # (1-beta)^n far below float underflow
        got = orderstat_cdf_exact(10**6, 1, 0.5)
        assert got.log == pytest.approx(10**6 * math.log(0.5), rel=1e-12)

    def test_monotone_in_i(self):
        vals = [orderstat_cdf_exact(100, i, 0.2).log for i in (1, 5, 10, 20, 50)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_never_above_one(self):
        for i in (90, 99, 100):
            assert orderstat_cdf_exact(100, i, 0.01).log <= 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            orderstat_cdf_exact(10, 0, 0.5)
        with pytest.raises(DomainError):
            orderstat_cdf_exact(10, 11, 0.5)
        with pytest.raises(DomainError):
            orderstat_cdf_exact(10, 1, 0.0)

    def test_memory_guard_refuses_before_any_array(self, monkeypatch):
        tiny = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=1_048_576)
        fits = tiny.memory_guard_bytes // lplab.orderstats._CDF_BYTES_PER_TERM
        assert orderstat_cdf_exact(10**6, fits, 0.5, tiny) == orderstat_cdf_exact(
            10**6, fits, 0.5
        )

        def no_arrays(*args, **kwargs):
            raise AssertionError("built an array before the guard")

        monkeypatch.setattr(lplab.orderstats.np, "arange", no_arrays)
        with pytest.raises(DomainError, match="memory guard"):
            orderstat_cdf_exact(10**6, fits + 1, 0.5, tiny)
        with pytest.raises(DomainError, match="memory guard"):
            orderstat_cdf_exact(4 * 10**9, 2 * 10**9, 0.5)

    def test_guard_counts_the_traced_peak(self):
        i = 10**5
        orderstat_cdf_exact(10**7, i, 0.5)
        tracemalloc.start()
        try:
            orderstat_cdf_exact(10**7, i, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        counted = lplab.orderstats._CDF_BYTES_PER_TERM * i
        assert 0.95 * counted <= peak <= 1.05 * counted


class TestChernoff:
    def test_frozen_example(self):
        got = chernoff_bound(100, 1, 0.1)
        assert got.to_float() == pytest.approx(math.exp(-5.0), rel=1e-12)

    def test_numerator_one_at_top(self):
        # i = beta*n integer makes the numerator exactly 1
        got = chernoff_bound(100, 10, 0.1)
        assert got.to_float() == pytest.approx(math.exp(-1.0 / 20.0), rel=1e-12)

    def test_large_n_formula(self):
        got = chernoff_bound(10**4, 10, 0.01)
        assert got.log == pytest.approx(-(91.0**2) / 200.0, rel=1e-12)

    @pytest.mark.parametrize("i", [1, 3])
    def test_finite_where_the_square_overflows(self, i):
        # (beta n - i + 1)^2 is about 2.5e599 at n = 10^300, far past the
        # largest double; the log of the bound is still about -1.25e299
        n, beta = 10**300, Fraction(1, 2)
        gap = beta * n - i + 1
        expected = float(-gap * gap / (2 * beta * n))
        got = chernoff_bound(n, i, 0.5).log
        assert math.isfinite(got)
        assert abs(got - expected) <= 1e-15 * abs(expected)

    def test_dominates_exact_cdf_on_grid(self):
        for n in (100, 1000, 10**4):
            for beta in (0.01, 0.1, 0.3):
                bn = beta * n
                for i in {1, max(1, int(bn // 2)), max(1, int(bn))}:
                    bound = chernoff_bound(n, i, beta)
                    exact = orderstat_cdf_exact(n, i, beta)
                    assert exact.log <= bound.log + 1e-12, (n, beta, i)

    def test_rejects_i_above_beta_n(self):
        with pytest.raises(DomainError):
            chernoff_bound(100, 11, 0.1)


class TestTopKSampler:
    def test_monotone_output(self):
        rng = RngStream(3, 0).generator()
        for _ in range(50):
            v = sample_top_orderstats(200, 8, rng)
            assert all(a >= b for a, b in zip(v, v[1:]))
            assert v[-1] >= 0.0

    def test_single_coordinate_is_abs_gaussian(self):
        rng = RngStream(4, 0).generator()
        draws = np.array([sample_top_orderstats(1, 1, rng)[0] for _ in range(4000)])
        assert np.all(draws >= 0)
        # compare empirical CDF at two probes to erf-based values
        for t, want in [(1.0, 0.68268949213708589717), (2.0, 0.9544997361036415856)]:
            got = (draws <= t).mean()
            se = math.sqrt(want * (1 - want) / draws.size)
            assert abs(got - want) < 4 * se

    def test_top_marginal_matches_exact_cdf(self):
        n, beta, trials = 50, 0.1, 10**5
        t = quantile_tail(beta)
        rng = RngStream(5, 0).generator()
        hits = 0
        for _ in range(trials):
            if sample_top_orderstats(n, 1, rng)[0] <= t:
                hits += 1
        want = (1.0 - beta) ** n
        se = math.sqrt(want * (1.0 - want) / trials)
        assert abs(hits / trials - want) < 3.0 * se

    def test_matches_naive_sampler_ks(self):
        # two-sample KS on g_1* at n=1000, 1% level
        n, m = 1000, 2000
        rng = RngStream(6, 0).generator()
        fast = np.array([sample_top_orderstats(n, 1, rng)[0] for _ in range(m)])
        gauss = rng.standard_normal((m, n))
        naive = np.abs(gauss).max(axis=1)
        both = np.sort(np.concatenate([fast, naive]))
        cdf_fast = np.searchsorted(np.sort(fast), both, side="right") / m
        cdf_naive = np.searchsorted(np.sort(naive), both, side="right") / m
        d = np.abs(cdf_fast - cdf_naive).max()
        critical = 1.628 * math.sqrt(2.0 / m)  # alpha = 0.01
        assert d < critical

    def test_validation(self):
        rng = RngStream(7, 0).generator()
        with pytest.raises(DomainError):
            sample_top_orderstats(10, 11, rng)
        with pytest.raises(DomainError):
            sample_top_orderstats(0, 1, rng)
