"""End-to-end acceptance suite.

Each test pins one advertised guarantee of the package at its stated
tolerance: exact-oracle agreements, dominance of the analytic bounds
over Monte Carlo truth, ratio stability of the variance predictor, and
byte-level reproducibility.  The Monte Carlo tests use fixed seeds, so
every run evaluates the same draws and the suite is deterministic.
"""

import inspect
import math

import pytest
from scipy.special import gammaln

import lplab
from lplab import (
    DEFAULT_CONSTANTS,
    abs_moment,
    auto_p_grid,
    chernoff_bound,
    classify,
    incomplete_integral,
    lemma_checks,
    mc_grid_stats,
    negative_moment_bound,
    orderstat_cdf_exact,
    predict_variance,
    sphericity_experiment,
    tail_term,
    truncation_level_M,
    upper_quantile,
    wilson_interval,
)
from lplab import TruncationSpec
from lplab.cli import main as cli_main


class TestExactOracles:
    def test_moments_agree_with_quadrature(self):
        # two independent routes to E|g|^p: the closed Gamma form and
        # sqrt(2/pi) times the quadrature of x^p e^{-x^2/2}
        scale = math.sqrt(2.0 / math.pi)
        for p in (1.0, 2.0, 3.0, 4.0, 6.0):
            closed = abs_moment(p).to_float()
            quad = scale * incomplete_integral(TruncationSpec(p, math.inf)).to_float()
            assert abs(closed - quad) <= 1e-9 * closed, p

    def test_binomial_tail_dominance(self):
        # the exponential bound sits above the exact binomial CDF at
        # every grid point where it is defined
        for n in (100, 1000, 10000):
            for beta in (0.01, 0.1, 0.3):
                cut = int(beta * n)
                for i in {1, max(1, cut // 2), max(1, cut)}:
                    exact = orderstat_cdf_exact(n, i, beta)
                    bound = chernoff_bound(n, i, beta)
                    assert bound.log >= exact.log - 1e-12, (n, beta, i)


class TestGaussianLaws:
    def test_scalar_variance_all_p(self):
        # n = 1 collapses every norm to |g|; Var = 1 - 2/pi
        target = 1.0 - 2.0 / math.pi
        for p in (1.0, 2.0, 7.0, math.inf):
            est = mc_grid_stats(1, [p], 1_000_000, seed=5).norms[0]
            assert abs(est.variance - target) <= 4.0 * est.stderr_variance, p

    def test_chi_law_large_n(self):
        # Var ||G||_2 = n - 2 (Gamma((n+1)/2)/Gamma(n/2))^2, exactly
        n = 10**4
        est = mc_grid_stats(n, [2.0], 100_000, seed=8).norms[0]
        target = n - 2.0 * math.exp(
            2.0 * (gammaln((n + 1) / 2.0) - gammaln(n / 2.0))
        )
        assert abs(est.variance - target) <= 4.0 * est.stderr_variance


class TestPredictorAgainstSimulation:
    def test_ratio_stable_across_grid_and_n(self):
        # simulated variance over predicted variance stays inside one
        # committed interval for every p at both n, and each regime's
        # typical ratio moves by less than 8x between the two n values
        constants = DEFAULT_CONSTANTS
        assert constants.mc_ratio_lo >= 1.0 / 32.0
        assert constants.mc_ratio_hi <= 32.0
        regime_means: dict[tuple[int, str], float] = {}
        for n, samples in ((1000, 100_000), (10_000, 10_000)):
            grid = auto_p_grid(n)
            stats = mc_grid_stats(n, grid, samples, seed=2024)
            per_regime: dict[str, list[float]] = {}
            for p, estimate in zip(grid, stats.norms):
                predicted, point = predict_variance(n, p)
                ratio = estimate.variance / predicted.to_float()
                assert constants.mc_ratio_lo <= ratio <= constants.mc_ratio_hi, (
                    n,
                    p,
                    ratio,
                )
                per_regime.setdefault(point.regime, []).append(ratio)
            for regime, ratios in per_regime.items():
                log_mean = sum(math.log(r) for r in ratios) / len(ratios)
                regime_means[(n, regime)] = math.exp(log_mean)
        for regime in ("LOW", "MID", "HIGH"):
            drift = regime_means[(10_000, regime)] / regime_means[(1000, regime)]
            assert 1.0 / 8.0 <= drift <= 8.0, (regime, drift)

    @pytest.mark.xfail(
        strict=True,
        reason="the sub-critical variance decays like n^{-v} with"
        " v = (2-d)/(2e) e^{2/(2-d)} - 1 ~ 0.047 at d = 0.5, so the contrast"
        " at n = 10^4 is only a few-fold; a 1000x contrast needs n beyond"
        " 10^60",
    )
    def test_transition_contrast_three_orders(self):
        n = 10**4
        log_n = math.log(n)
        p_sub = 1.5 * log_n
        p_super = 2.5 * log_n
        sub, sup = mc_grid_stats(n, [p_sub, p_super], 10_000, seed=31).norms
        contrast = sup.variance / sub.variance
        assert contrast >= 1000.0, contrast

    def test_boundary_seams_bounded(self):
        for n in (10**3, 10**4, 10**6, 10**8):
            budget = 3.0 + math.log(math.log(n))
            point = classify(n, 2.0)
            for seam in (point.p1, point.p2):
                left, _ = predict_variance(n, seam)
                right, _ = predict_variance(n, seam + 1e-9)
                assert abs(left.log - right.log) <= budget, (n, seam)

    def test_pointwise_checks_pass(self):
        failures = [(e.n, e.p, e.name, e.detail) for e in lemma_checks() if not e.passed]
        assert not failures, failures[:5]


class TestTruncationAndNegativeMoments:
    def test_truncation_gap_dominated_by_tail(self):
        # E (||G||_p - f_T(G))^2 <= c n T^{-3} e^{-T^2/2} at both natural
        # truncation levels, with the committed c
        n = 1000
        c = DEFAULT_CONSTANTS.tails_gap_c
        xi = upper_quantile(n)
        for p in (classify(n, 2.0).p1, 2.0 * math.log(n)):
            m_level = truncation_level_M(n, p).to_float()
            for T in (xi, m_level):
                _, gap_sq = mc_grid_stats(n, [p], 50_000, seed=11, T=T).truncated[0]
                bound = tail_term(n, T).to_float()
                assert gap_sq.mean <= c * bound, (p, T, gap_sq.mean / bound)

    def test_negative_moment_dominated(self):
        # E (sum min(|g|, xi)^q)^{-L} <= v * bound on the full (q, L) grid
        n = 1000
        v = DEFAULT_CONSTANTS.neg_moment_v
        log_n = math.log(n)
        for q in (1.0, log_n, 2.0 * log_n):
            for L in (0.5, 1.0, 2.0):
                est = mc_grid_stats(n, [], 20_000, seed=17, T=math.inf, negative=(q, L)).negative
                bound = negative_moment_bound(n, q, L).to_float()
                assert est.mean <= v * bound, (q, L, est.mean / bound)


class TestRandomSections:
    @pytest.mark.xfail(
        strict=True,
        reason="at n = 10^4 the sub-critical distortion has median ~1.08 and"
        " only about two thirds of trials certify below 1.1; the asymptotic"
        " all-but-vanishing failure rate needs far larger n",
    )
    def test_subcritical_sections_almost_round(self):
        n = 10**4
        result = sphericity_experiment(
            n, 2, 1.5 * math.log(n), 0.1, 400, net_resolution=0.004, seed=0
        )
        assert result.wilson_low >= 0.95, result

    def test_supercritical_sections_fail(self):
        n = 10**4
        log_n = math.log(n)
        result = sphericity_experiment(
            n, 2, 2.5 * log_n, 0.5 / log_n, 400, net_resolution=0.004, seed=0
        )
        failure_low, _ = wilson_interval(result.failures, result.trials)
        assert failure_low >= 0.02, result


def test_all_lists_every_public_name():
    # the imports of __init__.py and its __all__ name the same objects
    public = {
        name
        for name, value in vars(lplab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(lplab.__all__) == public


class TestReproducibility:
    def test_mc_command_byte_identical(self, capsys):
        argv = ["mc", "--n", "50", "--p", "2,7", "--samples", "2000", "--seed", "9"]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_dvoretzky_command_byte_identical(self, capsys):
        argv = [
            "dvoretzky",
            "--n", "100",
            "--delta", "0.5",
            "--trials", "3",
            "--net-resolution", "0.05",
            "--seed", "4",
        ]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
