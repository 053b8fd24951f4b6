"""Random subspaces, certified sphere nets, and distortion experiments."""

import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

import lplab.montecarlo
import lplab.subspaces
from lplab import (
    DEFAULT_CONSTANTS,
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
from lplab.gaussian import _reduce_rows
from lplab.subspaces import (
    _cell_geometry,
    _cell_points,
    _leaf_count,
    _point_values,
    _root_cell,
    _round,
    _trisect,
)


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
        # 824,790,897 cells of 48 bytes, 36.9 GiB, against the 2 GiB default
        with pytest.raises(DomainError, match="resolution 0.0001 and a 20x3 basis exceed"):
            distortion(b, 3.0, 1e-4)
        # 126,711 cells of 48 bytes are 6,082,128 bytes
        tiny = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=1_048_576)
        with pytest.raises(DomainError, match="resolution 0.008 and a 20x3 basis exceed"):
            distortion(b, 3.0, 0.008, constants=tiny)
        monkeypatch.undo()
        # the basis and the cells a run can hold, 8k (n + 2 cells) bytes
        size = 8 * 3 * (20 + 2 * sphere_net(3, 0.008)[0].shape[0])
        exact = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=size)
        assert distortion(b, 3.0, 0.008, constants=exact) == distortion(b, 3.0, 0.008)
        short = dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=size - 1)
        with pytest.raises(DomainError, match="memory guard"):
            distortion(b, 3.0, 0.008, constants=short)

    def test_ambient_blocks_within_tile_budget(self, monkeypatch):
        # the cell centers' images in R^n are evaluated a reducer tile at a
        # time (2^16 doubles, or one row when n is larger), so large n
        # cannot allocate points x n at once
        shapes, centers = [], []

        def recording(block, requests, T, workspace=None):
            shapes.append(block.shape)
            return _reduce_rows(block, requests, T, workspace)

        def recording_points(angles):
            centers.append(_cell_points(angles))
            return centers[-1]

        monkeypatch.setattr(lplab.subspaces, "_reduce_rows", recording)
        monkeypatch.setattr(lplab.subspaces, "_cell_points", recording_points)
        n = 100_000
        b = _haar_basis(n, 2, seed=2)
        r = distortion(b, 10.0, 0.05)
        points = np.concatenate(centers)
        assert len(shapes) == points.shape[0]
        assert all(shape == (1, n) for shape in shapes)
        whole = lp_norm_rows(points @ b.columns.T, 10.0)
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

    def test_fine_k3_bracket_on_few_cells(self, monkeypatch):
        # at k = 3 and 0.004 the tree refined everywhere has 386,433 leaves
        # and the uniform ring net had 196,994 points; 12 bases took 11,777
        # to 41,755 cells, this one 32,871; k = 4 runs at 0.1, since 0.004
        # is refused by the memory guard
        evaluated = []

        def counting(basis, p, points, workspace, out):
            evaluated.append(points.shape[0])
            return _point_values(basis, p, points, workspace, out)

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
            sampled = lp_norm_rows(directions @ basis.columns.T, p)
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
            (50, 2.0, 0.1, 0.35, (0, 0, 1)),
            # 17 of 27 cells block in the fourth round
            (50, 6.0, 0.3, 0.004, (1, 0, 0)),
            # the last cells' radius 0.174 lies between res / 2 and res
            (50, 2.0, 0.1, 0.2, (0, 0, 1)),
        ],
    )
    def test_rounds_split_only_blocking_cells(self, monkeypatch, n, p, eps, res, verdict):
        rounds = []

        def recording(values, radii, target, resolution):
            result = _round(values, radii, target, resolution)
            rounds.append((values.copy(), radii.copy(), result))
            return result

        monkeypatch.setattr(lplab.subspaces, "_round", recording)
        r = sphericity_experiment(n, 2, p, eps, 1, net_resolution=res, seed=3)
        assert (r.successes, r.failures, r.ambiguous) == verdict
        # the settling round is the last
        verdicts = [result[0] for _, _, result in rounds]
        assert verdicts == [None] * (len(rounds) - 1) + [verdict.index(1)]
        target = 1.0 + eps
        for index, (values, radii, (_, split)) in enumerate(rounds):
            assert values.size <= _leaf_count(2, res, 1 << 40)
            with np.errstate(divide="ignore"):
                upper = np.where(radii < 1.0, values / (1.0 - radii), math.inf)
            sup = upper.max()
            lower = values - radii * sup
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

    def test_fine_k3_trials_settle_on_few_cells(self, monkeypatch):
        # the uniform ring net of S^2 at resolution 0.004 had 196,994 points and
        # the tree refined everywhere to it 386,433 leaves
        settled = []

        def recording(values, radii, target, resolution):
            result = _round(values, radii, target, resolution)
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
        # k = 3 at resolution 0.008 is 126,711 cells of 48 bytes;
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
        # k - 1 center angles, k - 1 half-widths, a value and a radius
        assert fitting in [res * 2.0**j for j in range(1, 30)]
        held = [8 * k * (10 + 2 * _leaf_count(k, r, 1 << 40)) for r in (fitting, fitting / 2)]
        assert held[0] <= 1_048_576 < held[1]
        r = sphericity_experiment(10, k, 5.0, 0.1, 1, fitting, seed=0, constants=tiny)
        assert r.trials == 1

    @pytest.mark.parametrize("cores", [1, 3])
    def test_trials_dealt_to_workers(self, monkeypatch, pools, fine_switching, cores):
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", cores)
        r = sphericity_experiment(40, 2, 6.0, 0.2, 50, net_resolution=0.02, seed=4)
        # the counts of the trials run one after another in one thread
        assert (r.successes, r.failures, r.ambiguous) == (19, 26, 5)
        # 50 trials, one task per worker
        assert pools.sizes == pools.tasks == [cores]

    def test_guard_caps_workers(self, monkeypatch, pools):
        # a worker holds a 30,000 x 3 basis and the leaves of the cell tree
        # refined everywhere to the resolution: 24 bytes per basis row and
        # 48 per cell
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", 3)
        n, res = 30_000, 0.1
        held = 24 * (n + 2 * sphere_net(3, res)[0].shape[0])
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
        # the cells a trial can hold and a 10 x k basis, 8k (10 + 2 cells) bytes
        size = 8 * k * (10 + 2 * _leaf_count(k, res, 1 << 40))
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

    def test_n_and_row_p_checked_before_any_row(self, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a row ran before the sweep was checked")

        monkeypatch.setattr(lplab.subspaces, "sphericity_experiment", no_rows)
        # log 1 = 0 leaves no p and no epsilon = w / log n
        for n in (1, 0, -5):
            with pytest.raises(DomainError, match="need n >= 2"):
                transition_sweep(n, 1, [0.5], trials=2, net_resolution=0.1, seed=0)
        # the second row's sub side is p = 0.1 log 3 = 0.11
        with pytest.raises(DomainError, match="need p >= 1 or inf, got 0.109"):
            transition_sweep(3, 2, [0.5, 1.9], trials=2, net_resolution=0.1, seed=0)

    def test_delta_domain(self):
        with pytest.raises(DomainError):
            transition_sweep(30, 2, [-0.1], trials=2, net_resolution=0.1, seed=0)
        with pytest.raises(DomainError):
            transition_sweep(30, 2, [2.0], trials=2, net_resolution=0.1, seed=0)
        with pytest.raises(DomainError):
            transition_sweep(30, 2, [0.5, math.nan], trials=2, net_resolution=0.1, seed=0)
