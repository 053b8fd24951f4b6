"""Random subspaces, certified sphere nets, and distortion experiments."""

import csv
import dataclasses
import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

import lplab.cli
import lplab.gaussian
import lplab.montecarlo
import lplab.subspaces
from lplab import (
    DEFAULT_CONSTANTS,
    RngStream,
    SubspaceBasis,
    distortion,
    random_subspace,
    sphere_net,
    sphericity_experiment,
    transition_sweep,
)
from lplab.errors import DomainError
from lplab.gaussian import _max_factored
from lplab.subspaces import (
    _bounds,
    _cell_geometry,
    _cell_points,
    _extremes,
    _leaf_count,
    _point_values,
    _root_cell,
    _round,
    _trisect,
)


def _haar_basis(n, k, seed, stream=0):
    return random_subspace(n, k, RngStream(seed, stream).generator())


def _reference_bounds(values, slopes, radii, p):
    """Each cell's bound on sup r and its bound below, one cell at a time.

    Solves x^2 <= f^2 + 2 f g rho + max((p - 1) x^2 - f^2, 0) rho^2 for
    the largest x in each of its two cases, for finite p >= 2 and
    (p - 1) rho^2 < 1, beside the first-order x <= f / (1 - rho).
    """
    sup_bounds = []
    for f, g, rho in zip(values.tolist(), slopes.tolist(), radii.tolist()):
        bound = f / (1.0 - rho) if rho < 1.0 else math.inf
        if 2.0 <= p < math.inf and (p - 1.0) * rho * rho < 1.0:
            # where (p - 1) x^2 <= f^2, and where it is not
            flat = f * f + 2.0 * f * g * rho
            steep = (f * f - f * f * rho * rho + 2.0 * f * g * rho) / (1.0 - (p - 1.0) * rho * rho)
            bound = min(bound, math.sqrt(max(flat, steep)))
        sup_bounds.append(bound)
    sup = max(sup_bounds)
    lower = []
    for f, g, rho in zip(values.tolist(), slopes.tolist(), radii.tolist()):
        below = f - rho * sup
        if p < math.inf:
            below = max(below, f - 0.5 * f * rho * rho - g * rho)
        lower.append(below)
    return np.array(sup_bounds), np.array(lower)


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


def _check_leaf_count(k, res):
    # sphere_net builds every leaf of the tree, siblings kept apart
    leaves = sphere_net(k, res)[0].shape[0]
    assert _leaf_count(k, res, leaves) == leaves
    assert _leaf_count(k, res, leaves - 1) is None


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

    @pytest.mark.parametrize(
        "k,res", [(1, 0.5), (2, 0.004), (2, 0.3), (3, 0.05), (3, 0.4), (4, 0.1)]
    )
    def test_counted_size_matches_builder(self, k, res):
        _check_leaf_count(k, res)

    def test_oversized_net_refused_before_building(self, monkeypatch):
        def no_tree(*args):
            raise AssertionError("the tree was built before its leaves were counted")

        monkeypatch.setattr(lplab.subspaces, "_full_tree", no_tree)
        # k = 3 at 1e-5 is 70,436,441,133 leaves of 64 bytes and k = 4 at
        # 0.004 297,160,653 of 88 bytes, against the 2 GiB default; 1e-300
        # is refused by the lower bound on any net, without counting
        for k, res in [(3, 1e-5), (4, 0.004), (2, 1e-300)]:
            with pytest.raises(DomainError, match=f"resolution {res} exceeds the memory guard"):
                sphere_net(k, res)
        monkeypatch.undo()
        # a leaf holds k - 1 center angles, a radius and a point of k
        # doubles: 21,639 leaves of 88 bytes at k = 4 and 0.1
        size = 88 * sphere_net(4, 0.1)[0].shape[0]
        for guard, fits in [(size, True), (size - 1, False)]:
            constants = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=guard)
            monkeypatch.setattr(lplab.subspaces, "DEFAULT_CONSTANTS", constants)
            if fits:
                assert sphere_net(4, 0.1)[0].shape == (21_639, 4)
            else:
                with pytest.raises(DomainError, match="memory guard"):
                    sphere_net(4, 0.1)

    def test_domain(self):
        with pytest.raises(DomainError):
            sphere_net(5, 0.1)
        with pytest.raises(DomainError):
            sphere_net(0, 0.1)
        with pytest.raises(DomainError):
            sphere_net(2, 0.0)
        with pytest.raises(DomainError):
            sphere_net(2, 1.0)


class TestDistortion:
    def test_euclidean_norm_is_round(self):
        b = _haar_basis(25, 2, seed=9)
        r = distortion(b, 2.0, 0.01)
        assert r.distortion == pytest.approx(1.0, abs=1e-12)

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

    def test_p_validation(self):
        with pytest.raises(DomainError):
            distortion(_haar_basis(5, 2, seed=0), 0.5, 0.1)

    @pytest.mark.parametrize(
        "k, p, res, message",
        [
            (2, 0.5, 0.1, "need p >= 1 or inf, got 0.5"),
            (2, math.nan, 0.1, "need p >= 1 or inf, got nan"),
            (5, 3.0, 0.1, "certified sections need 1 <= k <= min(n, 4), got k=5"),
            *[(2, 3.0, res, "need resolution in (0, 1)") for res in (0.0, -1.0, 1.0, math.nan)],
        ],
    )
    def test_request_refused_before_any_basis_or_cell(self, monkeypatch, k, p, res, message):
        # both entry points share one check, made before a basis is drawn
        # or a cell evaluated; no k > 4 and no p < 1 is ever certified
        def fail(*args):
            raise AssertionError("a basis was drawn or a cell evaluated before the check")

        b = _haar_basis(20, k, seed=3)
        monkeypatch.setattr(lplab.subspaces, "random_subspace", fail)
        monkeypatch.setattr(lplab.subspaces, "_point_values", fail)
        with pytest.raises(DomainError, match=re.escape(message)):
            distortion(b, p, res)
        with pytest.raises(DomainError, match=re.escape(message)):
            sphericity_experiment(20, k, p, 0.1, 2, res, seed=0)

    def test_certified_net_checked_before_building(self, monkeypatch):
        def no_cells(*args):
            raise AssertionError("a cell was evaluated before the request was checked")

        b = _haar_basis(20, 3, seed=3)
        monkeypatch.setattr(lplab.subspaces, "_point_values", no_cells)
        for res in [0.0, -1.0, 1.0, math.nan]:
            with pytest.raises(DomainError, match="resolution in"):
                distortion(b, 3.0, res)
        # 824,790,897 cells of 56 bytes, 43.0 GiB, against the 2 GiB default
        with pytest.raises(DomainError, match="resolution 0.0001 and a 20x3 basis exceed"):
            distortion(b, 3.0, 1e-4)
        # 126,711 cells of 56 bytes are 7,095,816 bytes
        tiny = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=1_048_576)
        with pytest.raises(DomainError, match="resolution 0.008 and a 20x3 basis exceed"):
            distortion(b, 3.0, 0.008, constants=tiny)
        monkeypatch.undo()
        # the basis and the cells a run can hold, 8 (k n + (2k + 1) cells) bytes
        size = 8 * (3 * 20 + 7 * sphere_net(3, 0.008)[0].shape[0])
        exact = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=size)
        assert distortion(b, 3.0, 0.008, constants=exact) == distortion(b, 3.0, 0.008)
        short = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=size - 1)
        with pytest.raises(DomainError, match="memory guard"):
            distortion(b, 3.0, 0.008, constants=short)

    def test_ambient_blocks_within_tile_budget(self, monkeypatch, lp_norms):
        # the cell centers' images in R^n are formed and reduced a reducer
        # tile at a time (2^16 doubles, or one row when n is larger), so
        # large n cannot allocate points x n at once; a section norm has
        # one kind of magnitude, scaled once per tile
        shapes, centers = [], []

        def recording(magnitudes, peaks, logs, out):
            shapes.append(magnitudes.shape)
            return _max_factored(magnitudes, peaks, logs, out)

        def recording_points(angles):
            centers.append(_cell_points(angles))
            return centers[-1]

        monkeypatch.setattr(lplab.gaussian, "_max_factored", recording)
        monkeypatch.setattr(lplab.subspaces, "_cell_points", recording_points)
        n = 100_000
        b = _haar_basis(n, 2, seed=2)
        r = distortion(b, 10.0, 0.05)
        points = np.concatenate(centers)
        assert len(shapes) == points.shape[0]
        assert all(shape == (1, n) for shape in shapes)
        whole = lp_norms(points @ b.columns.T, 10.0)
        assert r.sup_ratio == pytest.approx(whole.max(), rel=1e-14)
        assert r.inf_ratio == pytest.approx(whole.min(), rel=1e-14)
        shapes.clear()
        distortion(_haar_basis(10_000, 2, seed=2), 10.0, 0.05)
        assert max(rows for rows, _ in shapes) == 6

    def test_evaluation_memory_is_a_few_tiles(self):
        # one distortion call at n = 10^5 holds the image of one point
        # and a workspace of two more rows; the 729 cells are 23 KiB
        b = _haar_basis(100_000, 2, seed=1)
        tracemalloc.start()
        try:
            distortion(b, 10.0, 0.004)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 100_000 * 8

    def test_fine_k3_bracket_on_few_cells(self, monkeypatch, lp_norms):
        # at k = 3 and 0.004 the tree refined everywhere has 386,433 leaves
        # and the uniform ring net had 196,994 points; 12 bases took 1,401
        # to 2,741 cells, this one 2,741 (11,777 to 41,755 and 32,871 with
        # first-order bounds); k = 4 runs at 0.1, since 0.004 is refused
        # by the memory guard
        evaluated = []

        def counting(basis, p, points):
            evaluated.append(points.shape[0])
            return _point_values(basis, p, points)

        monkeypatch.setattr(lplab.subspaces, "_point_values", counting)
        n = 10_000
        p = 1.5 * math.log(n)
        gen = np.random.default_rng(8)
        for k, res in [(2, 0.004), (3, 0.004), (4, 0.1)]:
            basis = _haar_basis(n, k, seed=k)
            evaluated.clear()
            r = distortion(basis, p, res)
            if k == 3:
                assert sum(evaluated) < 50_000
            assert 0.0 < r.net_resolution <= res
            directions = gen.normal(size=(2000, k))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            sampled = lp_norms(directions @ basis.columns.T, p)
            assert r.distortion <= r.certified_upper
            assert sampled.max() / sampled.min() <= r.certified_upper


class TestCellTree:
    @pytest.mark.parametrize("k,depth", [(2, 6), (3, 5), (4, 4)])
    def test_cells_within_radius_and_children_cover_parent(self, k, depth):
        gen = np.random.default_rng(k)
        centers, halves = _root_cell(k)
        corners = np.array(list(itertools.product([-1.0, 1.0], repeat=k - 1)))
        for _ in range(depth):
            radii, axis = _cell_geometry(centers, halves)
            # points of each cell: its corners and 40 uniform in its angle box
            unit = np.concatenate([np.broadcast_to(corners, (len(centers), *corners.shape)),
                                   gen.uniform(-1.0, 1.0, (len(centers), 40, k - 1))], axis=1)
            angles = centers[:, None, :] + halves[:, None, :] * unit
            points = _cell_points(angles.reshape(-1, k - 1)).reshape(*angles.shape[:2], k)
            assert np.abs(np.linalg.norm(points, axis=2) - 1.0).max() < 1e-12
            gaps = np.linalg.norm(points - _cell_points(centers)[:, None, :], axis=2)
            assert (gaps <= radii[:, None] + 1e-12).all()
            thirds, lower, upper = _trisect(centers, halves, axis)
            # the middle third keeps the center; the thirds' boxes cover the parent's
            inside = [
                (np.abs(angles - c[:, None, :]) <= thirds[:, None, :] * (1 + 1e-12)).all(axis=2)
                for c in (centers, lower, upper)
            ]
            assert (inside[0] | inside[1] | inside[2]).all()
            assert (_cell_geometry(centers, thirds)[0] < radii).all()
            centers = np.concatenate([centers, lower, upper])
            halves = np.concatenate([thirds, thirds, thirds])
        # the cells cover the whole sphere up to sign
        radii, _ = _cell_geometry(centers, halves)
        probes = gen.normal(size=(3000, k))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        dots = np.abs(probes @ _cell_points(centers).T)
        gaps = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots)) - radii
        assert gaps.min(axis=1).max() <= 1e-12

    @pytest.mark.parametrize("k,res", [(1, 0.5), (2, 0.01), (3, 0.1), (4, 0.3), (4, 0.35)])
    def test_leaf_count_matches_full_tree(self, k, res):
        _check_leaf_count(k, res)


class TestSecondOrderBounds:
    def test_point_values_keep_their_bits(self):
        # values and slopes of 12 points on the sphere and the zero point,
        # whose slope is 0 / 0, at n = 10^3 to 10^5, k = 2 to 4 and p from
        # 1 to inf; the digest pins every bit, so it moves with the
        # floating-point kernels of the pinned numpy, as the stdout goldens
        # do; the basis is orthonormalized with numpy's sums, since a BLAS
        # dot product at n = 10^5 rounds by its thread count
        digest = hashlib.sha256()
        for n, k in itertools.product([1_000, 10_000, 100_000], [2, 3, 4]):
            gen = np.random.default_rng(n + k)
            columns = gen.normal(size=(n, k))
            for j in range(k):
                for i in range(j):
                    columns[:, j] -= (columns[:, i] * columns[:, j]).sum() * columns[:, i]
                columns[:, j] /= np.sqrt((columns[:, j] * columns[:, j]).sum())
            basis = SubspaceBasis(n, k, columns)
            points = gen.normal(size=(13, k))
            points /= np.linalg.norm(points, axis=1, keepdims=True)
            points[6] = 0.0
            for p in [1.0, 1.5, 2.0, 7.5, 1.5 * math.log(n), 40.0, math.inf]:
                with np.errstate(invalid="ignore"):
                    values, slopes = _point_values(basis, p, points)
                digest.update(values.tobytes() + slopes.tobytes())
        assert digest.hexdigest() == "290ce00903f767cb27d7fb5c436c1187b19ef5540cccb18e354c929f7d0b3b55"

    @pytest.mark.parametrize("k,res", [(2, 0.01), (3, 0.05), (4, 0.2)])
    def test_euclidean_bounds_exact(self, monkeypatch, k, res):
        # at p = 2, r = 1 and its tangential gradient is 0, so S = 1 and
        # I = 1 - rho^2/2 for the largest final radius rho: every cell
        # blocks, since its bound below is under the center value 1
        settled = []

        def recording(*args):
            result = _extremes(*args)
            if result[0] is not None:
                settled.append(result[0])
            return result

        monkeypatch.setattr(lplab.subspaces, "_extremes", recording)
        r = distortion(_haar_basis(25, k, seed=9), 2.0, res)
        [(sup, inf, sup_upper, inf_lower, rho)] = settled
        assert rho == r.net_resolution and 0.0 < rho <= res
        assert sup_upper == pytest.approx(1.0, abs=1e-12)
        assert inf_lower == pytest.approx(1.0 - 0.5 * rho * rho, abs=1e-14)
        assert r.certified_rel_error == pytest.approx(
            (sup_upper / inf_lower) / (sup / inf) - 1.0, abs=1e-15
        )

    @pytest.mark.parametrize(
        "p", [2.0, 4.0, 1.5 * math.log(200), 2.5 * math.log(200), 1.0, 1.5, math.inf]
    )
    @pytest.mark.parametrize("k,depth", [(2, 5), (3, 3)])
    def test_sampled_values_within_cell_bounds(self, lp_norms, p, k, depth):
        # every level of the tree refined everywhere covers the sphere; r
        # at points sampled in each cell's angle box lies in the cell's
        # [bound below, f + rho S] and, for finite p >= 2, under
        # sqrt(f^2 + 2 f g rho + max((p - 1) S^2 - f^2, 0) rho^2)
        basis = _haar_basis(200, k, seed=k)
        gen = np.random.default_rng(k)
        centers, halves = _root_cell(k)
        for level in range(depth + 1):
            radii, axis = _cell_geometry(centers, halves)
            values, slopes = _point_values(basis, p, _cell_points(centers))
            _, sup, lower = _bounds(values, slopes, radii, p)
            unit = gen.uniform(-1.0, 1.0, (len(centers), 40, k - 1))
            angles = centers[:, None, :] + halves[:, None, :] * unit
            points = _cell_points(angles.reshape(-1, k - 1))
            sampled = lp_norms(points @ basis.columns.T, p).reshape(len(centers), 40)
            upper = values + radii * sup
            if 2.0 <= p < math.inf:
                bent = np.maximum((p - 1.0) * sup * sup - values * values, 0.0)
                second = np.sqrt(values * values + 2.0 * values * slopes * radii + bent * radii**2)
                upper = np.minimum(upper, second)
            assert sampled.max() <= sup * (1.0 + 1e-12)
            assert (sampled >= lower[:, None] - 1e-12).all(), (p, level)
            assert (sampled <= upper[:, None] + 1e-12).all(), (p, level)
            if level == depth and math.isfinite(p):
                # the bounds are not first order in disguise: the second
                # order below is the tighter one at most of the finest cells
                assert (lower > values - radii * sup).mean() > 0.5
            thirds, lower_centers, upper_centers = _trisect(centers, halves, axis)
            centers = np.concatenate([centers, lower_centers, upper_centers])
            halves = np.concatenate([thirds, thirds, thirds])


class TestSphericityExperiment:
    def test_round_norm_all_success(self):
        # p = 2 distortion is always 1; a net fine enough to certify
        # within epsilon must count every trial as success
        r = sphericity_experiment(50, 2, 2.0, 0.1, 8, net_resolution=0.02, seed=3)
        assert (r.successes, r.failures, r.ambiguous) == (8, 0, 0)
        assert r.probability == 1.0
        assert r.wilson_low > 0.6

    def test_coarse_net_cannot_decide(self):
        # at p = 2 the bounds are S = 1 and I = 1 - rho^2/2; the cells stop
        # at radius 0.174, where 1 / I = 1.0154 exceeds the target 1.01,
        # and the net value 1.0 never exceeds it: everything is ambiguous
        r = sphericity_experiment(50, 2, 2.0, 0.01, 5, net_resolution=0.35, seed=3)
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
        with pytest.raises(DomainError):
            sphericity_experiment(10, 2, 3.0, math.nan, 5, net_resolution=0.1, seed=0)

    def test_ladder_never_swaps_verdicts(self):
        # one-trial verdicts against a single net at the requested
        # resolution on the same basis: a settled reference must be
        # matched, an ambiguous one may settle either way
        n = 30
        log_n = math.log(n)
        cases = [(2, 0.004, 1.5, 0.3), (2, 0.004, 2.5, 0.3),
                 (3, 0.05, 1.5, 0.5), (3, 0.05, 2.5, 0.3)]
        seen = set()
        for k, res, factor, eps in cases:
            p = factor * log_n
            for seed in range(40):
                basis = _haar_basis(n, k, seed)
                ref = distortion(basis, p, res)
                if ref.certified_upper <= 1.0 + eps:
                    expected = (1, 0, 0)
                elif ref.distortion > 1.0 + eps:
                    expected = (0, 1, 0)
                else:
                    expected = None
                r = sphericity_experiment(n, k, p, eps, 1, res, seed)
                got = (r.successes, r.failures, r.ambiguous)
                if expected is not None:
                    assert got == expected, (k, res, factor, eps, seed)
                seen.add(expected)
        assert {(1, 0, 0), (0, 1, 0), None} <= seen

    @pytest.mark.parametrize(
        "n,p,eps,res,verdict",
        [
            (50, 2.0, 0.1, 0.02, (1, 0, 0)),
            (50, math.inf, 0.01, 0.02, (0, 1, 0)),
            # at p = 2, I = 1 - rho^2/2 clears 1 / 1.1 once the cells
            # reach radius 0.174, but never clears 1 / 1.01
            (50, 2.0, 0.1, 0.35, (1, 0, 0)),
            (50, 2.0, 0.01, 0.35, (0, 0, 1)),
            (50, 6.0, 0.3, 0.004, (1, 0, 0)),
            # the last cells' radius 0.174 lies between res / 2 and res
            (50, 2.0, 0.1, 0.2, (1, 0, 0)),
            (50, 2.0, 0.01, 0.2, (0, 0, 1)),
            (50, 1.5, 0.3, 0.02, (1, 0, 0)),
        ],
    )
    def test_rounds_split_only_blocking_cells(self, monkeypatch, n, p, eps, res, verdict):
        rounds = []

        def recording(values, slopes, radii, p, target, resolution):
            result = _round(values, slopes, radii, p, target, resolution)
            rounds.append((values.copy(), slopes.copy(), radii.copy(), result))
            return result

        monkeypatch.setattr(lplab.subspaces, "_round", recording)
        r = sphericity_experiment(n, 2, p, eps, 1, net_resolution=res, seed=3)
        assert (r.successes, r.failures, r.ambiguous) == verdict
        # the settling round is the last
        verdicts = [result[0] for *_, result in rounds]
        assert verdicts == [None] * (len(rounds) - 1) + [verdict.index(1)]
        target = 1.0 + eps
        for index, (values, slopes, radii, (_, split)) in enumerate(rounds):
            assert values.size <= _leaf_count(2, res, 1 << 40)
            upper, lower = _reference_bounds(values, slopes, radii, p)
            sup = upper.max()
            assert sup == pytest.approx(_bounds(values, slopes, radii, p)[1], rel=1e-13)
            blocking = (upper > target * lower.min()) | (lower < sup / target)
            if index + 1 == len(rounds) and verdict != (0, 0, 1):
                assert split.size == 0
                continue
            # short of a verdict, the cells attaining the bounds S and I block
            assert blocking[upper.argmax()] and blocking[lower.argmin()]
            if index + 1 == len(rounds):
                assert split.size == 0 and (radii[blocking] <= res).all()
                continue
            # exactly the blocking cells above the resolution split, and a
            # split keeps its middle third's value in place and adds two cells
            assert np.array_equal(split, np.flatnonzero(blocking & (radii > res)))
            following = rounds[index + 1][0]
            assert following.size == values.size + 2 * split.size
            assert np.array_equal(following[: values.size], values)

    def test_benchmark_k2_sweep_cell_ceiling(self, monkeypatch, capsys):
        # the sections benchmark's k = 2 argv at seed 0 evaluated 3,494
        # cells with first-order bounds and one ambiguous trial; the
        # second-order bounds settle all 80 trials on 1,028
        evaluated = []

        def counting(basis, p, points):
            evaluated.append(points.shape[0])
            return _point_values(basis, p, points)

        monkeypatch.setattr(lplab.subspaces, "_point_values", counting)
        argv = "dvoretzky --n 10000 --k 2 --delta 0.25,0.5 --trials 20 --seed 0".split()
        assert lplab.cli.main(argv) == 0
        table = [line for line in capsys.readouterr().out.splitlines() if line[:1] != "#"]
        rows = list(csv.DictReader(table))
        assert [int(row["ambiguous"]) for row in rows] == [0, 0, 0, 0]
        assert sum(evaluated) <= 1_100

    def test_fine_k3_trials_settle_on_few_cells(self, monkeypatch):
        # the uniform ring net of S^2 at resolution 0.004 had 196,994 points and
        # the tree refined everywhere to it 386,433 leaves
        settled = []

        def recording(values, slopes, radii, p, target, resolution):
            result = _round(values, slopes, radii, p, target, resolution)
            if result[0] is not None:
                settled.append(values.size)
            return result

        monkeypatch.setattr(lplab.subspaces, "_round", recording)
        n = 10_000
        r = sphericity_experiment(n, 3, 1.5 * math.log(n), 0.2, 3, 0.004, seed=0)
        assert r.ambiguous == 0 and len(settled) == 3
        assert max(settled) < 10_000

    def test_request_checked_before_any_basis(self, monkeypatch):
        def no_basis(*args):
            raise AssertionError("a basis was drawn before the request was checked")

        monkeypatch.setattr(lplab.subspaces, "random_subspace", no_basis)
        tiny = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=1_048_576)
        # k = 3 at resolution 0.008 is 126,711 cells of 56 bytes;
        # a 50,000 x 3 basis is 1,200,000 bytes; the next two are refused
        # by the lower bound on the cell count, without counting level by
        # level; a 43,690 x 3 basis leaves 16 bytes, less than one cell
        for n, k, res in [(100, 3, 0.008), (50_000, 3, 0.1), (100, 3, 1e-300),
                          (100, 2, 5e-324), (43_690, 3, 0.5)]:
            with pytest.raises(DomainError, match="memory guard"):
                sphericity_experiment(n, k, 5.0, 0.1, 2, res, seed=0, constants=tiny)
        with pytest.raises(DomainError, match="the finest resolution that fits is none below 1"):
            sphericity_experiment(43_690, 3, 5.0, 0.1, 2, 0.5, seed=0, constants=tiny)
        for n, k, res in [(10, 5, 0.1), (3, 4, 0.1), (10, 0, 0.1), (10, 2, 0.0),
                          (10, 2, 1.0), (10, 2, math.nan)]:
            with pytest.raises(DomainError):
                sphericity_experiment(n, k, 5.0, 0.1, 2, res, seed=0)

    @pytest.mark.parametrize("k,res", [(2, 1e-6), (3, 0.002), (4, 0.004)])
    def test_refusal_names_finest_fitting_resolution(self, k, res):
        tiny = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=1_048_576)
        with pytest.raises(DomainError, match="memory guard") as refused:
            sphericity_experiment(10, k, 5.0, 0.1, 1, res, seed=0, constants=tiny)
        fitting = float(str(refused.value).rsplit(" ", 1)[-1])
        # the finest res * 2^j whose cells fit beside the basis: per cell,
        # k - 1 center angles, k - 1 half-widths, a value, a slope and a radius
        assert fitting in [res * 2.0**j for j in range(1, 30)]
        held = [8 * (10 * k + (2 * k + 1) * _leaf_count(k, r, 1 << 40))
                for r in (fitting, fitting / 2)]
        assert held[0] <= 1_048_576 < held[1]
        r = sphericity_experiment(10, k, 5.0, 0.1, 1, fitting, seed=0, constants=tiny)
        assert r.trials == 1

    @pytest.mark.parametrize("cores", [1, 3])
    def test_trials_dealt_to_workers(self, monkeypatch, pools, fine_switching, cores):
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", cores)
        # at resolution 0.02 every trial settles (24, 26, 0); at 0.1 two
        # stay ambiguous, so the sums still mix all three verdicts
        r = sphericity_experiment(40, 2, 6.0, 0.2, 50, net_resolution=0.1, seed=4)
        # the counts of the trials run one after another in one thread
        assert (r.successes, r.failures, r.ambiguous) == (22, 26, 2)
        # 50 trials, one task per worker
        assert pools.sizes == pools.tasks == [cores]

    def test_guard_caps_workers(self, monkeypatch, pools):
        # a worker holds a 30,000 x 3 basis and the leaves of the cell tree
        # refined everywhere to the resolution: 24 bytes per basis row and
        # 56 per cell
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", 3)
        n, res = 30_000, 0.1
        held = 24 * n + 56 * sphere_net(3, res)[0].shape[0]
        results = []
        for guard in (2 * held - 1, 2 * held, 3 * held):
            constants = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=guard)
            results.append(
                sphericity_experiment(n, 3, 20.0, 0.1, 4, res, seed=1, constants=constants)
            )
        assert results[0] == results[1] == results[2]
        assert pools.sizes == [1, 2, 3]

    @pytest.mark.parametrize("k,res", [(2, 2e-5), (3, 0.008)])
    def test_guard_admits_net_at_its_size(self, k, res):
        # the cells a trial can hold and a 10 x k basis, 8 (10 k + (2k + 1) cells) bytes
        size = 8 * (10 * k + (2 * k + 1) * _leaf_count(k, res, 1 << 40))
        exact = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=size)
        r = sphericity_experiment(10, k, 5.0, 0.1, 1, res, seed=0, constants=exact)
        assert r.trials == 1
        short = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=size - 1)
        with pytest.raises(DomainError, match="memory guard"):
            sphericity_experiment(10, k, 5.0, 0.1, 1, res, seed=0, constants=short)


class TestTransitionSweep:
    def test_row_layout(self):
        n = 50
        log_n = math.log(n)
        rows = transition_sweep(
            n, 2, [0.0, 0.5], trials=3, net_resolution=0.05, seed=1
        )
        assert [r.side for r in rows] == ["window", "sub", "super"]
        assert rows[0].result.p == pytest.approx(2.0 * log_n)
        assert rows[1].result.p == pytest.approx(1.5 * log_n)
        assert rows[2].result.p == pytest.approx(2.5 * log_n)
        assert rows[1].result.epsilon == 0.1
        assert rows[2].result.epsilon == pytest.approx(0.5 / log_n)

    def test_rows_sorted_by_delta(self):
        rows = transition_sweep(
            50, 2, [0.8, 0.2], trials=2, net_resolution=0.1, seed=4
        )
        assert [r.delta for r in rows] == [0.2, 0.2, 0.8, 0.8]

    def test_reproducible(self):
        a = transition_sweep(30, 2, [0.5], trials=2, net_resolution=0.1, seed=9)
        b = transition_sweep(30, 2, [0.5], trials=2, net_resolution=0.1, seed=9)
        assert a == b

    def test_n_and_row_p_checked_before_any_row(self, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a row ran before the sweep was checked")

        monkeypatch.setattr(lplab.subspaces, "sphericity_experiment", no_rows)
        monkeypatch.setattr(lplab.subspaces, "_run_sphericity", no_rows)
        # log 1 = 0 leaves no p and no epsilon = w / log n
        for n in (1, 0, -5):
            with pytest.raises(DomainError, match="need n >= 2"):
                transition_sweep(n, 1, [0.5], trials=2, net_resolution=0.1, seed=0)
        # the second row's sub side is p = 0.1 log 3 = 0.11
        with pytest.raises(DomainError, match="need p >= 1 or inf, got 0.109"):
            transition_sweep(3, 2, [0.5, 1.9], trials=2, net_resolution=0.1, seed=0)
        with pytest.raises(DomainError, match="need trials >= 1"):
            transition_sweep(30, 2, [0.5], trials=0, net_resolution=0.1, seed=0)

    def test_each_row_walks_the_cell_tree_once(self, monkeypatch):
        # the sweep checks every row before the first runs and hands each
        # row its leaf count, so 4 rows walk the tree 4 times, not 8
        walks = []
        leaf_count = lplab.subspaces._leaf_count

        def counting(*args):
            walks.append(args)
            return leaf_count(*args)

        monkeypatch.setattr(lplab.subspaces, "_leaf_count", counting)
        rows = transition_sweep(50, 2, [0.3, 0.6], trials=3, net_resolution=0.1, seed=2)
        assert len(rows) == len(walks) == 4
        for row in rows:
            result = row.result
            alone = sphericity_experiment(50, 2, result.p, result.epsilon, 3, 0.1, result.seed)
            assert alone == result
        assert len(walks) == 8

    def test_delta_domain(self):
        with pytest.raises(DomainError):
            transition_sweep(30, 2, [-0.1], trials=2, net_resolution=0.1, seed=0)
        with pytest.raises(DomainError):
            transition_sweep(30, 2, [2.0], trials=2, net_resolution=0.1, seed=0)
        with pytest.raises(DomainError):
            transition_sweep(30, 2, [0.5, math.nan], trials=2, net_resolution=0.1, seed=0)
