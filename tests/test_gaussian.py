"""Scalar Gaussian primitives: tails, quantiles, moments, p-norms.

Reference values were produced with 40-digit arithmetic (erf/erfc and
direct quadrature) and are frozen here as literals.
"""

import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import lplab.montecarlo
import lplab.subspaces
from lplab import (
    abs_moment,
    abs_tail_log,
    classify,
    distortion,
    mc_grid_stats,
    quantile,
    quantile_approx,
    quantile_tail,
    random_subspace,
    upper_quantile,
)
from lplab.errors import DomainError
from lplab.gaussian import (
    _TILE_ELEMS,
    _reduce_rows,
    _tile_rows,
    _workspace_elems,
)


class TestAbsTail:
    @pytest.mark.parametrize(
        "t,expected_log",
        [
            (1.0, -1.147874464449318196354),
            (2.0, -3.090037153122086639418),
            (5.0, -14.37185121342878042667),
            (10.0, -52.53813796995252526893),
            (30.0, -453.6280967757832517979),
            (50.0, -1254.138213958859955945),
            (100.0, -5004.831061513645143317),
        ],
    )
    def test_frozen_log_values(self, t, expected_log):
        # spans the erfc branch and the far-tail asymptotic branch
        assert abs_tail_log(t) == pytest.approx(expected_log, rel=1e-13)

    def test_tail_plus_cdf_is_one(self):
        for t in (0.3, 1.0, 2.5, 4.0):
            cdf = math.erf(t / math.sqrt(2.0))
            assert cdf + math.exp(abs_tail_log(t)) == pytest.approx(1.0, rel=1e-13)

    def test_tail_at_zero(self):
        assert math.exp(abs_tail_log(0.0)) == 1.0

    def test_branches_agree_near_switch(self):
        # around t = 30 erfc itself nears double underflow (t ~ 38.6);
        # the log-scale tail must keep tracking 30-digit erfc through it
        mp.mp.dps = 30
        for t in np.linspace(25.0, 35.0, 41):
            ref = float(mp.log(mp.erfc(mp.mpf(float(t)) / mp.sqrt(2))))
            assert abs_tail_log(float(t)) == pytest.approx(ref, rel=1e-13)


class TestQuantiles:
    @pytest.mark.parametrize(
        "tau,expected",
        [
            (1.0, 0.0),
            (0.5, 0.6744897501960817432),
            (1e-3, 3.2905267314918947932),
            (1e-6, 4.8916384756985903862),
            (1e-12, 7.130506848171324458),
        ],
    )
    def test_quantile_tail_frozen(self, tau, expected):
        assert quantile_tail(tau) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "n,expected",
        [
            (100, 2.575829303548900761),
            (1000, 3.2905267314918947932),
            (10**4, 3.890591886413093967),
            (10**6, 4.8916384756985903862),
        ],
    )
    def test_upper_quantile_frozen(self, n, expected):
        assert upper_quantile(n) == pytest.approx(expected, rel=1e-13)

    def test_round_trip_through_tail(self):
        for t in np.linspace(0.05, 8.0, 60):
            tau = math.exp(abs_tail_log(float(t)))
            assert quantile_tail(tau) == pytest.approx(float(t), abs=1e-10)

    def test_quantile_matches_tail_parameterization(self):
        for alpha in (0.1, 0.5, 0.9, 0.999, 1 - 1e-9):
            assert quantile(alpha) == pytest.approx(quantile_tail(1.0 - alpha), abs=1e-11)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            quantile_tail(-0.1)
        with pytest.raises(DomainError):
            quantile_tail(1.5)
        for bad in (0.0, math.nan, np.array([0.5, math.nan]), np.array([0.5, 0.0])):
            with pytest.raises(DomainError):
                quantile_tail(bad)

    def test_quantile_tail_against_mpmath(self):
        # 40-digit root of log erfc(t/sqrt 2) = log tail.  1e-15 relative,
        # times the condition number tail/(2 phi(t) t) where it exceeds 1:
        # near tail = 1 the rounding of the input alone costs that much
        mp.mp.dps = 40
        tails = np.concatenate([10.0 ** np.linspace(-300.0, 0.0, 121), [0.61, 0.9, 0.99]])
        for tail in tails:
            t = quantile_tail(float(tail))
            if tail == 1.0:
                assert t == 0.0
                continue
            log_tail = mp.log(mp.mpf(float(tail)))
            ref = mp.findroot(lambda x: mp.log(mp.erfc(x / mp.sqrt(2))) - log_tail, mp.mpf(t))
            cond = float(mp.mpf(float(tail)) / (2 * mp.npdf(ref) * ref))
            assert abs(t - float(ref)) <= 1e-15 * max(cond, 1.0) * float(ref), tail

    def test_quantile_tail_array_equals_scalar_loop(self):
        tails = np.concatenate(
            [10.0 ** np.linspace(-300.0, 0.0, 257), np.random.default_rng(3).random(256)]
        )
        expected = np.array([quantile_tail(float(t)) for t in tails])
        got = quantile_tail(tails)
        assert isinstance(got, np.ndarray) and got.shape == tails.shape
        assert np.array_equal(got, expected)
        square = quantile_tail(tails[:512].reshape(16, 32))
        assert np.array_equal(square, expected[:512].reshape(16, 32))

    def test_quantile_tail_scalar_is_float(self):
        assert type(quantile_tail(0.25)) is float
        assert type(quantile_tail(np.float64(0.25))) is float
        zero = quantile_tail(1.0)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0

    def test_approx_expansion_value(self):
        assert quantile_approx(10**4, 1) == pytest.approx(4.033269196414206, rel=1e-12)

    def test_approx_tracks_true_quantile(self):
        # expansion error shrinks with n; cap it and require monotone decay
        errs = [
            abs(quantile_approx(n, 1) - upper_quantile(n))
            for n in (10**3, 10**4, 10**6, 10**8)
        ]
        assert max(errs) < 0.2
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_approx_decreasing_in_i(self):
        vals = [quantile_approx(10**6, i) for i in (1, 2, 5, 20)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def mills_bracket_logs(t: float) -> tuple[float, float]:
    """Logs of the Mills-ratio bounds on P{|g| >= t}, strict for t > 1.

    sqrt(2/pi)(1/t - 1/t^3)e^{-t^2/2} < P{|g| >= t} < sqrt(2/pi)(1/t)e^{-t^2/2}.
    """
    common = 0.5 * math.log(2.0 / math.pi) - 0.5 * t * t
    return common + math.log(1.0 / t - 1.0 / t**3), common - math.log(t)


class TestMills:
    def test_strict_bracketing(self):
        # an oracle independent of log_ndtr, across the band where both
        # bounds are strict
        for t in np.linspace(1.01, 8.0, 20):
            lower, upper = mills_bracket_logs(float(t))
            assert lower < abs_tail_log(float(t)) < upper, t


class TestAbsMoment:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (1.0, 0.79788456080286535588),
            (2.0, 1.0),
            (3.0, 1.5957691216057307118),
            (4.0, 3.0),
            (6.0, 15.0),
            (7.0, 38.298458918537537082),
        ],
    )
    def test_frozen_values(self, p, expected):
        assert abs_moment(p).to_float() == pytest.approx(expected, rel=1e-13)

    def test_noninteger_p_against_quadrature(self):
        mp.mp.dps = 30
        for p in (0.5, 2.7, 13.3):
            ref = mp.quad(
                lambda x: mp.sqrt(2 / mp.pi) * x**p * mp.exp(-(x**2) / 2), [0, mp.inf]
            )
            assert abs_moment(p).to_float() == pytest.approx(float(ref), rel=1e-12)

    def test_large_p_stays_in_log_domain(self):
        # (p/e)^{p/2}-type growth overflows floats near p ~ 300; the log
        # representation must stay finite and match Stirling-free formula
        v = abs_moment(600.0)
        mp.mp.dps = 40
        ref = mp.log(2 ** mp.mpf(300) * mp.gamma(mp.mpf(601) / 2) / mp.sqrt(mp.pi))
        assert v.log == pytest.approx(float(ref), rel=1e-13)


class TestLpNorm:
    def test_hand_values(self, lp_norms):
        assert lp_norms([3.0, 4.0], 2.0)[0] == pytest.approx(5.0, rel=1e-15)
        assert lp_norms([3.0, -4.0], 1.0)[0] == pytest.approx(7.0, rel=1e-15)
        assert lp_norms([3.0, -4.0], math.inf)[0] == 4.0

    def test_huge_entries_large_p(self, lp_norms):
        # |x|^p overflows in linear space; result must survive via logs
        x = [1e200, -1e200]
        got = lp_norms(x, 400.0)[0]
        assert got == pytest.approx(1e200 * 2 ** (1 / 400.0), rel=1e-12)

    def test_tiny_entries(self, lp_norms):
        x = [1e-220, 1e-220]
        assert lp_norms(x, 3.0)[0] == pytest.approx(1e-220 * 2 ** (1 / 3.0), rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_vector(self, lp_norms):
        assert lp_norms([0.0, 0.0], 2.5)[0] == 0.0
        assert lp_norms(np.zeros((2, 3)), 2.5).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("p", [0.5, math.nan])
    def test_one_p_rule_everywhere(self, monkeypatch, p):
        # regimes, Monte Carlo and sections state the rule once, so they
        # refuse alike, before a vector or basis is drawn
        basis = random_subspace(20, 2, np.random.default_rng(0))

        def fail(*args):
            raise AssertionError("drew before p was checked")

        monkeypatch.setattr(lplab.montecarlo, "gaussian_draws", fail)
        monkeypatch.setattr(lplab.subspaces, "random_subspace", fail)
        message = f"need p >= 1 or inf, got {p}"
        for call in (
            lambda: classify(1000, p),
            lambda: mc_grid_stats(20, [2.0, p], 500, 1),
            lambda: distortion(basis, p, 0.1),
        ):
            with pytest.raises(DomainError, match=re.escape(message)):
                call()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", [1.0, 2.0, 8.0, math.inf])
    def test_infinite_entry_gives_infinite_norm(self, lp_norms, p):
        # a row whose peak is inf is scaled by 1, as a zero row is: the
        # ratio inf / inf would be NaN
        assert lp_norms([math.inf, 1.0], p)[0] == math.inf
        rows = np.array([[1.0, -math.inf], [1.0, 2.0], [math.inf, math.nan]])
        got = lp_norms(rows, p)
        assert got[0] == math.inf and got[1] == lp_norms([1.0, 2.0], p)[0]
        assert math.isnan(got[2])
        if math.isfinite(p):
            assert _reduce_rows(rows[:1], [(p, False, True)], math.inf)[0, 0] == math.inf

    def test_nan_propagates(self, lp_norms):
        # a NaN coordinate must not read as a zero row
        assert math.isnan(lp_norms([math.nan, 1.0], 2.0)[0])
        assert math.isnan(lp_norms(np.array([[1.0, 2.0], [1.0, math.nan]]), 7.5)[1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rows_matches_scalar(self, lp_norms):
        # a row reduced alone and in a block gets the same bits, held to
        # 50-digit mpmath; the max-factored log form costs about
        # |log max| ulp, hence the tolerance grows with the row's scale
        rng = np.random.default_rng(3)
        rows = np.array(
            [
                np.zeros(6),
                [1.0, -2.0, 3.0, 0.5, 0.0, -0.25],
                rng.standard_normal(6),
                1e200 * rng.standard_normal(6),
                1e-200 * rng.standard_normal(6),
                [1e200, -1e200, 3e199, 0.0, 1e-200, 2.0],
            ]
        )
        for p in (1.0, 2.0, 7.5, 400.0, math.inf):
            got = lp_norms(rows, p)
            with mp.workdps(50):
                for row, value in zip(rows, got):
                    assert lp_norms(row, p)[0] == value
                    magnitudes = [abs(mp.mpf(float(v))) for v in row]
                    if math.isinf(p):
                        want = max(magnitudes)
                    else:
                        want = mp.fsum(m**p for m in magnitudes) ** (1 / mp.mpf(p))
                    if want == 0:
                        assert value == 0.0
                        continue
                    scale = 1.0 + abs(math.log(float(max(magnitudes))))
                    assert abs(mp.mpf(value) - want) <= 4 * 2.0**-52 * scale * want

    def test_workspace_serves_every_tile(self):
        # 300 rows of 3000 are 15 tiles of 21 rows; with a workspace the
        # reducer allocates its output and per-row vectors, no tile
        rng = np.random.default_rng(5)
        block = rng.standard_normal((300, 3000))
        requests = [(2.0, False, False), (12.0, True, False), (math.inf, False, False),
                    (3.0, True, True)]
        expected = _reduce_rows(block, requests, 1.5)
        workspace = np.full(_workspace_elems(300, 3000, requests), np.nan)
        tracemalloc.start()
        try:
            got = _reduce_rows(block, requests, 1.5, workspace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tobytes() == expected.tobytes()
        assert peak < 8 * _TILE_ELEMS // 4

    def test_workspace_holds_the_rows_over_the_cap(self):
        # at n = 3000 and T = 3.8 about 65% of rows have peak <= T: their
        # capped sums at p = 2 and 12 are the plain ones, and the rows
        # over T are gathered into the workspace, not into a fresh array
        rng = np.random.default_rng(7)
        block = rng.standard_normal((300, 3000))
        T = 3.8
        under = np.abs(block).max(axis=1) <= T
        assert 0.5 < under.mean() < 0.8
        plain = [(2.0, False, False), (12.0, False, True), (math.inf, False, False)]
        capped = [(2.0, True, False), (12.0, True, True), (math.inf, True, False),
                  (3.0, True, True)]
        requests = plain + capped
        expected = _reduce_rows(block, requests, T)
        workspace = np.full(_workspace_elems(300, 3000, requests), np.nan)
        tracemalloc.start()
        try:
            got = _reduce_rows(block, requests, T, workspace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tobytes() == expected.tobytes()
        assert peak < 8 * _TILE_ELEMS // 4
        # each kind asked alone takes no shared sums, and gives the same bits
        assert got[:3].tobytes() == _reduce_rows(block, plain, T).tobytes()
        assert got[3:].tobytes() == _reduce_rows(block, capped, T).tobytes()
        # under T the capped norm is the plain one, so the gap is exactly 0
        assert (got[3, under] == got[0, under]).all()
        assert (got[3, ~under] < got[0, ~under]).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gradients_leave_norms_and_match_direct_form(self):
        # with a basis B the reducer takes points y and reduces x = B y a
        # tile at a time; the norms keep the bits of the images reduced
        # without it, B^T grad ||x||_p = B^T (sign(x) |x|^{p-1} /
        # ||x||_p^{p-1}), and a zero coordinate (a zero row of B) adds
        # nothing (no 0 / 0); 40 points of images of 3000 span two tiles
        rng = np.random.default_rng(6)
        points = rng.standard_normal((40, 3))
        basis = np.linalg.qr(rng.standard_normal((3000, 3)))[0]
        basis[17] = 0.0
        tile = _tile_rows(3000)
        images = np.concatenate(
            [points[start : start + tile] @ basis.T for start in range(0, 40, tile)]
        )
        assert (images[:, 17] == 0.0).all()
        for p in (1.0, 1.5, 2.0, 7.5, 40.0):
            plain = _reduce_rows(images, [(p, False, False)], math.inf)
            norms, gradients = _reduce_rows(points, [(p, False, False)], math.inf, None, basis)
            assert norms.tobytes() == plain.tobytes()
            direct = np.sign(images) * np.abs(images) ** (p - 1.0) / norms[0][:, None] ** (p - 1.0)
            assert np.allclose(gradients, direct @ basis, rtol=1e-12, atol=1e-14)
        # at p = inf no gradient is formed, and the norms are the row peaks
        norms, gradients = _reduce_rows(points, [(math.inf, False, False)], math.inf, None, basis)
        assert norms[0].tobytes() == np.abs(images).max(axis=1).tobytes()
        assert gradients.shape == (40, 3) and np.isnan(gradients).all()
