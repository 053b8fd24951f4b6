"""Three-regime variance predictor, envelopes, and structural checks."""

import dataclasses
import hashlib
import math

import pytest

from lplab import (
    DEFAULT_CONSTANTS,
    a_quantity,
    auto_p_grid,
    classify,
    lemma_checks,
    lower_envelope,
    negative_moment_bound,
    predict_variance,
    quantile_power_sum,
    small_ball_bound,
    tail_term,
    trunc_moment_min,
    truncation_level_M,
    upper_envelope,
    upper_quantile,
    TruncationSpec,
)
from lplab.errors import DomainError
from lplab.variance import REGIME_HIGH, REGIME_LOW, REGIME_MID


class TestClassify:
    def test_frozen_boundaries(self):
        pt = classify(10**4, 2.0)
        assert pt.p1 == pytest.approx(10.879550788880866, rel=1e-13)
        assert pt.p2 == pytest.approx(15.136705226623398, rel=1e-13)
        assert pt.xi == pytest.approx(3.890591886413094, rel=1e-13)

    def test_boundary_definitions(self):
        n = 10**6
        pt = classify(n, 5.0)
        assert pt.p1 == pytest.approx(2.0 * math.log(n) / math.log(2.0 * math.e), rel=1e-14)
        assert pt.p2 == pytest.approx(upper_quantile(n) ** 2, rel=1e-14)

    def test_regime_assignment(self):
        n = 10**4
        pt = classify(n, 2.0)
        assert classify(n, 2.0).regime == REGIME_LOW
        assert classify(n, 12.0).regime == REGIME_MID
        assert classify(n, 20.0).regime == REGIME_HIGH
        assert classify(n, math.inf).regime == REGIME_HIGH

    def test_left_closed_boundaries(self):
        n = 10**4
        pt = classify(n, 2.0)
        assert classify(n, pt.p1).regime == REGIME_LOW
        assert classify(n, pt.p1 + 1e-9).regime == REGIME_MID
        assert classify(n, pt.p2).regime == REGIME_MID
        assert classify(n, pt.p2 + 1e-9).regime == REGIME_HIGH

    def test_monotone_in_p(self):
        order = {REGIME_LOW: 0, REGIME_MID: 1, REGIME_HIGH: 2}
        n = 10**5
        seq = [order[classify(n, p).regime] for p in [1, 3, 8, 11, 14, 17, 25, 60]]
        assert seq == sorted(seq)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            classify(50, 2.0)
        with pytest.raises(DomainError):
            classify(10**4, 0.5)


class TestTruncationLevel:
    def test_low_p_closed_form(self):
        # p=2: log M = (log n)/2 + (log 2 - 1)/2, i.e. M = sqrt(2n/e)
        got = truncation_level_M(100, 2.0)
        assert got.to_float() == pytest.approx(math.sqrt(2.0 * 100.0 / math.e), rel=1e-13)
        assert got.to_float() == pytest.approx(8.57763884960707, rel=1e-13)

    def test_above_xi_squared_frozen(self):
        got = truncation_level_M(1000, 2.0 * math.log(1000.0))
        assert got.to_float() == pytest.approx(3.483833120768078, rel=1e-12)

    def test_infinite_p_is_xi(self):
        for n in (100, 10**4):
            got = truncation_level_M(n, math.inf)
            assert got.to_float() == pytest.approx(upper_quantile(n), rel=1e-13)

    def test_low_branch_expression_identity(self):
        # the pre-crossover expression n^{2/p} p / e equals p at p = 2 log n
        for n in (10**3, 10**6):
            p = 2.0 * math.log(n)
            expr = n ** (2.0 / p) * p / math.e
            assert expr == pytest.approx(p, rel=1e-12)

    def test_dominates_quantile_on_grid(self):
        for n in (10**3, 10**4):
            xi = upper_quantile(n)
            for p in auto_p_grid(n):
                m = truncation_level_M(n, p)
                assert m.log >= math.log(xi) - 1e-12, (n, p)

    def test_matches_defining_equation(self):
        # below the crossover: M^p = n (p/e)^{p/2} by construction
        n, p = 10**4, 6.0
        m = truncation_level_M(n, p)
        lhs = p * m.log
        rhs = math.log(n) + (p / 2.0) * (math.log(p) - 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-13)


class TestPredictVariance:
    def test_low_regime_value(self):
        v, pt = predict_variance(10**4, 2.0)
        assert pt.regime == REGIME_LOW
        assert v.to_float() == pytest.approx(2.0, rel=1e-13)

    def test_low_regime_formula(self):
        n, p = 10**3, 5.0
        v, _ = predict_variance(n, p)
        want = (2.0**p / p) * n ** (2.0 / p - 1.0)
        assert v.to_float() == pytest.approx(want, rel=1e-12)

    def test_mid_regime_frozen(self):
        v, pt = predict_variance(10**4, 12.0)
        assert pt.regime == REGIME_MID
        assert v.to_float() == pytest.approx(0.02817052299289113, rel=1e-12)

    def test_high_regime_frozen(self):
        v, pt = predict_variance(10**4, 20.0)
        assert pt.regime == REGIME_HIGH
        assert v.to_float() == pytest.approx(0.04752205839441443, rel=1e-12)

    def test_high_regime_formula(self):
        n, p = 10**4, 20.0
        pt = classify(n, p)
        want = (1.0 / math.log(n)) * (1.0 - (pt.p2 - pt.xi) / p)
        assert predict_variance(n, p)[0].to_float() == pytest.approx(want, rel=1e-12)

    def test_infinity_is_one_over_log_n(self):
        for n in (10**3, 10**6):
            v, pt = predict_variance(n, math.inf)
            assert pt.regime == REGIME_HIGH
            assert v.to_float() == pytest.approx(1.0 / math.log(n), rel=1e-13)

    def test_boundary_continuity(self):
        # log-jump at each regime seam stays within 3 + log log n
        for n in (10**3, 10**4, 10**6, 10**8):
            budget = 3.0 + math.log(math.log(n))
            pt = classify(n, 2.0)
            for seam in (pt.p1, pt.p2):
                left, _ = predict_variance(n, seam)
                right, _ = predict_variance(n, seam + 1e-9)
                assert abs(left.log - right.log) <= budget, (n, seam)

    def test_mid_piece_increasing(self):
        # the valley floor sits at the low/mid seam; the mid piece then
        # climbs monotonically toward the high-regime plateau
        for n in (10**3, 10**4, 10**6):
            pt = classify(n, 2.0)
            grid = [pt.p1 + t * (pt.p2 - pt.p1) / 10 for t in range(1, 11)]
            vals = [predict_variance(n, p)[0].log for p in grid]
            assert all(b > a for a, b in zip(vals, vals[1:])), n

    def test_valley_below_both_plateaus(self):
        # just past the low/mid seam the predictor is far below its value
        # at p = 2 and below the p = infinity plateau
        for n in (10**3, 10**4, 10**6):
            pt = classify(n, 2.0)
            valley, _ = predict_variance(n, pt.p1 + 1e-9)
            at_two, _ = predict_variance(n, 2.0)
            at_inf, _ = predict_variance(n, math.inf)
            assert valley.to_float() < at_two.to_float() / 10.0
            assert valley.to_float() < at_inf.to_float()

    def test_low_piece_has_interior_minimum(self):
        # the low piece is convex in log with a stationary point inside
        # (2, p1); the predictor is NOT monotone across the whole low range
        n = 10**3
        p_star = (1.0 + math.sqrt(1.0 + 8.0 * math.log(2.0) * math.log(n))) / (
            2.0 * math.log(2.0)
        )
        lo, _ = predict_variance(n, p_star)
        for p in (2.0, classify(n, 2.0).p1):
            assert predict_variance(n, p)[0].log > lo.log


class TestEnvelopes:
    def test_order_on_grid(self):
        for n in (10**3, 10**4):
            for p in auto_p_grid(n):
                low = lower_envelope(n, p)
                mid, _ = predict_variance(n, p)
                high = upper_envelope(n, p)
                assert low.log <= mid.log + 1e-12, (n, p)
                assert mid.log <= high.log + 1e-12, (n, p)

    def test_upper_cap_above_two(self):
        # upper envelope times log n stays bounded for p >= 2.01
        cap = 40.0
        for n in (10**3, 10**6):
            log_n = math.log(n)
            grid = [p for p in auto_p_grid(n) if p >= 2.01] + [2.01, math.inf]
            for p in grid:
                got = upper_envelope(n, p).to_float() * log_n
                assert got <= cap, (n, p)

    def test_lower_floor_past_three_log_n(self):
        c = DEFAULT_CONSTANTS.envelope_floor_c
        for n in (10**3, 10**6):
            log_n = math.log(n)
            for p in (3.0 * log_n, 5.0 * log_n, math.inf):
                got = lower_envelope(n, p).to_float() * log_n
                assert got >= c - 1e-12, (n, p)

    def test_infinity_limits(self):
        n = 10**4
        log_n = math.log(n)
        assert upper_envelope(n, math.inf).to_float() == pytest.approx(1.0 / log_n, rel=1e-12)
        assert lower_envelope(n, math.inf).to_float() >= 0.25 / log_n - 1e-15


class TestTailTerm:
    def test_frozen_value(self):
        n = 1000
        xi = upper_quantile(n)
        got = tail_term(n, xi)
        assert got.to_float() == pytest.approx(0.1250338517292801, rel=1e-12)
        assert got.to_float() == pytest.approx(
            n * xi**-3.0 * math.exp(-xi * xi / 2.0), rel=1e-12
        )

    def test_decreasing_in_T(self):
        n = 1000
        xi = upper_quantile(n)
        vals = [tail_term(n, t).log for t in (xi, xi + 0.5, xi + 1.0, 2 * xi)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_below_quantile_rejected(self):
        n = 1000
        with pytest.raises(DomainError):
            tail_term(n, upper_quantile(n) - 0.01)

    def test_infinite_T_vanishes(self):
        assert tail_term(1000, math.inf).log == -math.inf


class TestAQuantity:
    def test_frozen_value(self):
        n = 10**4
        m = truncation_level_M(n, 4.0).to_float()
        got = a_quantity(n, 4.0, m)
        assert got.to_float() == pytest.approx(3.639584223222824, rel=1e-11)

    def test_at_least_one(self):
        for n in (10**3, 10**4):
            for p in (1.0, 4.0, 9.0, 2.0 * math.log(n)):
                m = truncation_level_M(n, p).to_float()
                assert a_quantity(n, p, m).log >= 0.0, (n, p)

    def test_slope_floor_at_M(self):
        c_a = DEFAULT_CONSTANTS.log_a_slope
        for n in (10**3, 10**4):
            for p in (1.0, 5.0, 10.0, 2.0 * math.log(n), 3.0 * math.log(n)):
                m = truncation_level_M(n, p).to_float()
                log_a = a_quantity(n, p, m).log
                assert 1.0 + log_a >= c_a * p - 1e-9, (n, p)

    def test_bits_pinned(self):
        # SHA-256 of the space-joined float.hex of log A over n in
        # {10^3, 10^4, 10^6}, the auto grid's p up to 3 log n, and T in
        # {xi, M(p)}: 164 values through both E min(|g|, a)^q sums
        logs = []
        for n in (10**3, 10**4, 10**6):
            for p in auto_p_grid(n):
                if p > 3.0 * math.log(n):
                    continue
                xi = classify(n, p).xi
                m = truncation_level_M(n, p).to_float()
                logs += [a_quantity(n, p, T).log.hex() for T in (xi, m)]
        digest = hashlib.sha256(" ".join(logs).encode()).hexdigest()
        assert digest == "52bd58b1f3672d0ccbb35c0378b1798e381352ff9cb4adfe2ebe09909bca5439", logs


class TestSmallBall:
    def test_frozen_example(self):
        # first branch active: exp(-n^{(1-(2 tau)^{2/q})/4}) at defaults
        got = small_ball_bound(10**4, 2.0, 0.25)
        want = math.exp(-((10**4) ** ((1.0 - 0.5) / 4.0)))
        assert got.to_float() == pytest.approx(want, rel=1e-12)

    def test_tiny_tau_second_branch(self):
        n, q = 200, 1.0
        tau = 1e-8
        got = small_ball_bound(n, q, tau)
        want = math.log(n) + (n / 2.0) * math.log(
            4.0 * (2.0 * tau) ** (1.0 / q) * math.sqrt(2.0 * math.log(n))
        )
        assert got.log == pytest.approx(want, rel=1e-12)

    def test_monotone_in_tau(self):
        vals = [small_ball_bound(10**3, 2.0, t).log for t in (0.01, 0.1, 0.3, 0.45)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            small_ball_bound(10**3, 2.0, 0.5)
        with pytest.raises(DomainError):
            small_ball_bound(10**3, 0.5, 0.25)
        # NaN fails every comparison; it gets the parameter's own message
        with pytest.raises(DomainError, match="need q >= 1, got nan"):
            small_ball_bound(10**3, math.nan, 0.25)
        with pytest.raises(DomainError, match="need finite q, got inf"):
            small_ball_bound(10**3, math.inf, 0.25)


class TestNegativeMoment:
    def test_frozen_value(self):
        got = negative_moment_bound(1000, 2.0, 1.0)
        assert got.to_float() == pytest.approx(0.0010018717152895248, rel=1e-12)

    def test_bound_is_min_moment_power(self):
        n, q, L = 10**4, 3.0, 1.5
        xi = upper_quantile(n)
        want = -L * (math.log(n) + trunc_moment_min(TruncationSpec(q, xi)).log)
        assert negative_moment_bound(n, q, L).log == pytest.approx(want, rel=1e-12)

    def test_forms_agree_within_factor_two(self):
        # direct quantile sum vs n * E min(|g|, xi)^q
        n = 10**4
        xi = upper_quantile(n)
        for q in (1.0, math.log(n), 2.0 * math.log(n)):
            direct = quantile_power_sum(n, q).log
            emin = math.log(n) + trunc_moment_min(TruncationSpec(q, xi)).log
            assert abs(direct - emin) <= math.log(2.0), q

    def test_rejects_large_qL(self):
        n = 1000
        with pytest.raises(DomainError):
            negative_moment_bound(n, 4.0 * math.log(n), 2.0)

    def test_rejects_nan_with_parameter_message(self):
        with pytest.raises(DomainError, match="need q >= 1"):
            negative_moment_bound(1000, math.nan, 1.0)
        with pytest.raises(DomainError, match="need L >= 0"):
            negative_moment_bound(1000, 2.0, math.nan)


class TestQuantilePowerSum:
    def test_small_case_against_direct_sum(self):
        import mpmath as mp

        mp.mp.dps = 30
        n, q = 100, 3.0
        ref = sum(
            (mp.sqrt(2) * mp.erfinv(1 - mp.mpf(i) / n)) ** q for i in range(1, n)
        )
        got = quantile_power_sum(n, q)
        assert got.to_float() == pytest.approx(float(ref), rel=1e-10)

    def test_frozen(self):
        assert quantile_power_sum(100, 3.0).to_float() == pytest.approx(
            143.70496387322885, rel=1e-12
        )

    def test_q_two_near_n(self):
        # sum of squared quantiles tracks n (second-moment heuristic)
        for n in (10**3, 10**4):
            got = quantile_power_sum(n, 2.0).to_float()
            assert 0.8 * n < got < 1.05 * n


class TestAutoGrid:
    def test_structure(self):
        for n in (10**3, 10**4):
            grid = auto_p_grid(n)
            pt = classify(n, 2.0)
            assert grid[0] == 1.0
            assert grid[-1] == math.inf
            assert 20 <= len(grid) <= 45
            assert sorted(grid) == grid
            assert len(set(grid)) == len(grid)
            assert any(abs(p - pt.p1) < 1e-9 for p in grid)
            assert any(abs(p - pt.p2) < 1e-9 for p in grid)


class TestLemmaChecks:
    def test_defaults_all_pass(self):
        entries = lemma_checks()
        failures = [(e.n, e.p, e.name, e.detail) for e in entries if not e.passed]
        assert not failures, failures[:5]
        names = {e.name for e in entries}
        assert names == {
            "M_geq_xi",
            "low_2p_minus_2_leq_M2",
            "mid_p_leq_M2_leq_2p",
            "high_M2_leq_p_power",
            "exp_vs_power",
            "mom2p_containment",
            "mexpm_containment",
            "log_a_slope_floor",
        }

    def test_impossible_constants_fail_loudly(self):
        tight = dataclasses.replace(
            DEFAULT_CONSTANTS, mexpm_lo=0.999, mexpm_hi=1.001
        )
        entries = lemma_checks(n_values=[1000], constants=tight)
        assert any(e.name == "mexpm_containment" and not e.passed for e in entries)

    def test_entries_carry_detail_strings(self):
        entries = lemma_checks(n_values=[1000], p_values=[2.0, 12.0])
        assert entries and all(e.detail for e in entries)
