"""Random subspaces, certified sphere nets, and distortion experiments."""

import math

import numpy as np
import pytest

import lplab.subspaces
from lplab import (
    RngStream,
    SubspaceBasis,
    distortion,
    lp_norm_rows,
    random_subspace,
    sphere_net,
    sphericity_experiment,
    transition_sweep,
)
from lplab.errors import DomainError


def _haar_basis(n, k, seed, stream=0):
    return random_subspace(n, k, RngStream(seed, stream).generator())


class TestSubspaceBasis:
    def test_accepts_orthonormal(self):
        b = SubspaceBasis(3, 2, np.eye(3)[:, :2])
        assert b.n == 3 and b.k == 2

    def test_rejects_non_orthonormal(self):
        cols = np.array([[1.0, 0.9], [0.0, 0.436], [0.0, 0.0]])
        with pytest.raises(DomainError):
            SubspaceBasis(3, 2, cols)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            SubspaceBasis(4, 2, np.eye(3)[:, :2])


class TestRandomSubspace:
    def test_columns_orthonormal(self):
        for k in (1, 2, 4, 7):
            b = _haar_basis(30, k, seed=2, stream=k)
            gram = b.columns.T @ b.columns
            assert np.abs(gram - np.eye(k)).max() < 1e-12

    def test_reproducible(self):
        a = _haar_basis(20, 3, seed=5)
        b = _haar_basis(20, 3, seed=5)
        assert np.array_equal(a.columns, b.columns)

    def test_line_direction_uniform(self):
        # for n = 3, k = 1 the first coordinate of a uniform direction is
        # uniform on [-1, 1]; Kolmogorov-Smirnov against that law
        vals = sorted(
            _haar_basis(3, 1, seed=77, stream=t).columns[0, 0] for t in range(500)
        )
        gaps = [
            abs((v + 1.0) / 2.0 - (i + 1) / 500) for i, v in enumerate(vals)
        ]
        assert max(gaps) < 1.63 / math.sqrt(500)

    def test_k_bounds(self):
        gen = RngStream(0, 0).generator()
        with pytest.raises(DomainError):
            random_subspace(5, 6, gen)
        with pytest.raises(DomainError):
            random_subspace(5, 0, gen)


class TestSphereNet:
    @pytest.mark.parametrize(
        "k,res", [(2, 0.3), (2, 0.05), (3, 0.15), (3, 0.4), (4, 0.35)]
    )
    def test_covers_up_to_sign(self, k, res):
        points, rho = sphere_net(k, res)
        assert 0.0 < rho <= res
        gen = np.random.default_rng(0)
        probes = gen.normal(size=(3000, k))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        dots = np.abs(probes @ points.T).max(axis=1)
        worst = math.sqrt(max(0.0, 2.0 - 2.0 * dots.min()))
        assert worst <= rho + 1e-9

    def test_points_on_sphere(self):
        for k in (2, 3, 4):
            points, _ = sphere_net(k, 0.2)
            norms = np.linalg.norm(points, axis=1)
            assert np.abs(norms - 1.0).max() < 1e-12

    def test_line_case_trivial(self):
        points, rho = sphere_net(1, 0.5)
        assert points.shape == (1, 1)
        assert rho == 0.0

    def test_size_scales_with_resolution(self):
        coarse, _ = sphere_net(3, 0.4)
        fine, _ = sphere_net(3, 0.1)
        assert len(fine) > 4 * len(coarse)

    def test_domain(self):
        with pytest.raises(DomainError):
            sphere_net(5, 0.1)
        with pytest.raises(DomainError):
            sphere_net(2, 0.0)
        with pytest.raises(DomainError):
            sphere_net(2, 1.0)


class TestDistortion:
    def test_euclidean_norm_is_round(self):
        b = _haar_basis(25, 2, seed=9)
        r = distortion(b, 2.0, 0.01)
        assert r.distortion == pytest.approx(1.0, abs=1e-12)
        assert r.certified

    def test_plane_sup_inf_sandwich(self):
        # coordinate plane in R^2: true sup-norm distortion is sqrt(2);
        # the net value is a lower bound, the certified value an upper one
        eye = SubspaceBasis(2, 2, np.eye(2))
        r = distortion(eye, math.inf, 0.002)
        root2 = math.sqrt(2.0)
        assert r.distortion <= root2 <= r.certified_upper
        assert r.distortion == pytest.approx(root2, rel=5e-3)
        assert r.certified_rel_error < 0.01

    def test_plane_one_norm_matches_dual(self):
        # by symmetry of the cross-polytope section, p = 1 gives sqrt(2) too
        eye = SubspaceBasis(2, 2, np.eye(2))
        r = distortion(eye, 1.0, 0.002)
        assert r.distortion == pytest.approx(math.sqrt(2.0), rel=5e-3)

    def test_plane_p_four_value(self):
        eye = SubspaceBasis(2, 2, np.eye(2))
        r = distortion(eye, 4.0, 0.002)
        assert r.distortion == pytest.approx(2.0**0.25, rel=5e-3)

    def test_line_subspace_exact(self):
        b = _haar_basis(7, 1, seed=1)
        r = distortion(b, 3.0, 0.5)
        assert r.distortion == 1.0
        assert r.certified_rel_error == 0.0
        assert r.net_resolution == 0.0

    def test_basis_rotation_invariance(self):
        # B and BR span the same subspace; certified errors must cover
        # the difference between their net evaluations
        b = _haar_basis(40, 2, seed=5)
        c, s = math.cos(0.7), math.sin(0.7)
        br = SubspaceBasis(40, 2, b.columns @ np.array([[c, -s], [s, c]]))
        d1 = distortion(b, math.inf, 0.005)
        d2 = distortion(br, math.inf, 0.005)
        gap = abs(d1.distortion - d2.distortion) / d1.distortion
        assert gap <= d1.certified_rel_error + d2.certified_rel_error

    def test_refinement_shrinks_certified_error(self):
        b = _haar_basis(30, 3, seed=6)
        coarse = distortion(b, math.inf, 0.12)
        fine = distortion(b, math.inf, 0.04)
        assert fine.certified_rel_error < coarse.certified_rel_error / 1.5

    def test_high_k_needs_opt_in(self):
        b = _haar_basis(20, 5, seed=3)
        with pytest.raises(DomainError):
            distortion(b, 3.0, 0.1)
        with pytest.raises(DomainError):
            distortion(b, 3.0, 0.1, allow_uncertified=True)
        r = distortion(
            b, 3.0, 0.1, allow_uncertified=True, rng=RngStream(4, 0).generator()
        )
        assert not r.certified
        assert math.isinf(r.certified_rel_error)
        assert r.distortion >= 1.0

    def test_p_validation(self):
        with pytest.raises(DomainError):
            distortion(_haar_basis(5, 2, seed=0), 0.5, 0.1)

    def test_ambient_blocks_within_chunk_budget(self, monkeypatch):
        # the net's image in R^n is evaluated in blocks of at most one
        # Monte Carlo chunk (2^21 doubles), so large n cannot allocate
        # points x n at once
        shapes = []

        def recording(rows, p):
            shapes.append(rows.shape)
            return lp_norm_rows(rows, p)

        monkeypatch.setattr(lplab.subspaces, "lp_norm_rows", recording)
        n = 100_000
        b = _haar_basis(n, 2, seed=2)
        r = distortion(b, 10.0, 0.05)
        points, _ = sphere_net(2, 0.05)
        assert len(shapes) > 1
        assert all(rows * cols <= 1 << 21 for rows, cols in shapes)
        assert sum(rows for rows, _ in shapes) == points.shape[0]
        whole = lp_norm_rows(points @ b.columns.T, 10.0)
        assert r.sup_ratio == pytest.approx(whole.max(), rel=1e-14)
        assert r.inf_ratio == pytest.approx(whole.min(), rel=1e-14)


class TestSphericityExperiment:
    def test_round_norm_all_success(self):
        # p = 2 distortion is always 1; a net fine enough to certify
        # within epsilon must count every trial as success
        r = sphericity_experiment(50, 2, 2.0, 0.1, 8, net_resolution=0.02, seed=3)
        assert (r.successes, r.failures, r.ambiguous) == (8, 0, 0)
        assert r.probability == 1.0
        assert r.wilson_low > 0.6

    def test_coarse_net_cannot_decide(self):
        # certification slack ~2 rho exceeds epsilon here, and the net
        # value 1.0 never exceeds the target: everything is ambiguous
        r = sphericity_experiment(50, 2, 2.0, 0.1, 5, net_resolution=0.35, seed=3)
        assert (r.successes, r.failures, r.ambiguous) == (0, 0, 5)

    def test_counts_partition_trials(self):
        r = sphericity_experiment(
            50, 2, math.inf, 0.15, 6, net_resolution=0.05, seed=11
        )
        assert r.successes + r.failures + r.ambiguous == r.trials == 6
        assert 0.0 <= r.wilson_low <= r.probability <= r.wilson_high <= 1.0

    def test_reproducible(self):
        a = sphericity_experiment(30, 2, 4.0, 0.2, 5, net_resolution=0.05, seed=2)
        b = sphericity_experiment(30, 2, 4.0, 0.2, 5, net_resolution=0.05, seed=2)
        assert a == b

    def test_validation(self):
        with pytest.raises(DomainError):
            sphericity_experiment(10, 2, 3.0, 0.1, 0, net_resolution=0.1, seed=0)
        with pytest.raises(DomainError):
            sphericity_experiment(10, 2, 3.0, 0.0, 5, net_resolution=0.1, seed=0)


class TestTransitionSweep:
    def test_row_layout(self):
        n = 50
        log_n = math.log(n)
        rows = transition_sweep(
            n, 2, [0.0, 0.5], trials=3, net_resolution=0.05, seed=1
        )
        assert [r.side for r in rows] == ["window", "sub", "super"]
        assert rows[0].in_window and not rows[1].in_window
        assert rows[0].p == pytest.approx(2.0 * log_n)
        assert rows[1].p == pytest.approx(1.5 * log_n)
        assert rows[2].p == pytest.approx(2.5 * log_n)
        assert rows[1].epsilon == 0.1
        assert rows[2].epsilon == pytest.approx(0.5 / log_n)

    def test_rows_sorted_by_delta(self):
        rows = transition_sweep(
            50, 2, [0.8, 0.2], trials=2, net_resolution=0.1, seed=4
        )
        assert [r.delta for r in rows] == [0.2, 0.2, 0.8, 0.8]

    def test_reproducible(self):
        a = transition_sweep(30, 2, [0.5], trials=2, net_resolution=0.1, seed=9)
        b = transition_sweep(30, 2, [0.5], trials=2, net_resolution=0.1, seed=9)
        assert a == b

    def test_delta_domain(self):
        with pytest.raises(DomainError):
            transition_sweep(30, 2, [-0.1], trials=2, net_resolution=0.1, seed=0)
        with pytest.raises(DomainError):
            transition_sweep(30, 2, [2.0], trials=2, net_resolution=0.1, seed=0)
