"""Random subspaces and net-certified norm distortion on their spheres.

A uniform random k-dimensional subspace of R^n is spanned by k i.i.d.
Gaussian vectors; on its Euclidean sphere the ratio r(x) = ||Bx||_p
(with B an orthonormal basis, so ||Bx||_2 = 1) measures how far the
section of the p-ball is from round.  Two-sided bounds on sup r / inf r
come from a tree of cells of the sphere up to sign: boxes in
hyperspherical coordinates, each with a guaranteed covering radius
rho about its center point c.  A cell carries the value f = r(c) and
the tangential gradient norm g = |grad r(c) - f c| (`_point_values`).
Write a point of the cell as x = c + d with |d| <= rho; on the unit
sphere c.d = -|d|^2 / 2.  Two orders of bound hold (`_bounds`):

- First order, any p: r is (sup r)-Lipschitz along chords, so
  f - rho sup r <= r(x) <= f + rho sup r; at the x where sup r is
  attained this gives sup r <= f / (1 - rho) when rho < 1.
- Second order below, any p >= 1: r is convex and, by Euler's
  identity grad r(c).c = f, r(x) >= grad r(c).x = f (1 - |d|^2/2) + h.d
  with h = grad r(c) - f c tangent at c, so r(x) >= f (1 - rho^2/2) -
  g rho.  At p = 1 a subgradient serves.
- Second order above, finite p >= 2: ||.||_p^2 is (p - 1)-smooth,
  ||u + v||_p^2 <= ||u||_p^2 + grad ||u||_p^2 . v + (p - 1) ||v||_p^2
  (Ball, Carlen & Lieb, Invent. Math. 115, 1994).  With u = Bc, v = Bd
  and ||Bd||_p <= |d| sup r, r(x)^2 <= f^2 + 2 f g |d| + ((p - 1)
  (sup r)^2 - f^2) |d|^2 <= f^2 + 2 f g rho + max((p - 1) (sup r)^2 -
  f^2, 0) rho^2.  At the x where sup r is attained, and where
  (p - 1) rho^2 < 1, solving for sup r gives (sup r)^2 <= max(f^2 +
  2 f g rho, (f^2 (1 - rho^2) + 2 f g rho) / (1 - (p - 1) rho^2)).

Each cell keeps the tighter of its two orders, so over cells that
cover the sphere

    sup_true <= S = max_c (the cell's bound on sup r),
    inf_true >= I = min_c max(f - rho S, f (1 - rho^2/2) - g rho).

The upper bound stays first order for p < 2, where ||.||_p^2 is not
smooth, and both stay first order at p = inf, where no gradient is
formed.  The second-order slack shrinks as rho^2, so a trial near its
threshold settles on far fewer cells; at p = 2, r = 1 and g = 0, so
S = 1 and I = 1 - rho^2/2.  Everything that claims "certified" uses
only these inequalities with the construction's guaranteed covering
radii; nothing is inferred from sampling density.  Every section
request, p >= 1 or inf and 1 <= k <= min(n, 4), is checked in one place
(`_check_section_request`); `sphere_net` shares its rules for k, the
resolution and the memory guard.

Every certified result is a branch and bound (Piyavskii 1972; Shubert
1972) over the tree, from the whole antipodal domain down (`_trial`):
a round evaluates r only at the centers of new cells, and a stopping
rule either ends the run or names the cells to trisect, never one at
or below the requested resolution.  `distortion` splits the cells
whose bounds could still move sup r or inf r past the center values
found (`_extremes`).  The phase experiments count a trial as success
only when S / I clears the target, as failure only when the values at
cell centers (honest sphere points) already exceed it, and as
ambiguous when neither holds and no cell that blocks a verdict is
coarser than the requested resolution (`_round`).  Every round's
bounds hold for the true distortion, so no trial swaps between
success and failure against `distortion` at the requested resolution;
only trials it leaves ambiguous can change, and only by settling.
`sphere_net` returns the centers of the tree refined everywhere to a
resolution, whose leaves also bound the cells any run can hold.

A request, one experiment or a whole sweep, is checked once, walking
the cell tree once, and runs on one thread pool of the Monte Carlo
engine: the trials of all its rows are dealt round-robin, one task per
worker, each on its own stream, so the counts do not depend on the
worker count.  A round's new points go to the lp reducer with the
basis (`_point_values`), which forms their images under B a reducer
tile at a time, so an evaluation holds a few tiles of doubles whatever
the number of points and n.  Each worker allocates one set of cell
arrays, with room for the most cells a run can hold.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import TypeVar

import numpy as np

from .config import DEFAULT_CONSTANTS, Constants
from .errors import DomainError
from .gaussian import _reduce_rows, _scratch_shape, _tile_rows, _validate_p
from .montecarlo import RngStream, _strided_shares, gaussian_draws, wilson_interval

_ORTHO_TOL = 1e-10

Result = TypeVar("Result")


@dataclass(frozen=True, slots=True)
class SubspaceBasis:
    """Orthonormal n x k basis; columns span the subspace."""

    n: int
    k: int
    columns: np.ndarray

    def __post_init__(self) -> None:
        if self.columns.shape != (self.n, self.k):
            raise DomainError(
                f"basis shape {self.columns.shape} does not match ({self.n}, {self.k})"
            )
        gram = self.columns.T @ self.columns
        deviation = np.abs(gram - np.eye(self.k)).max()
        if deviation > _ORTHO_TOL:
            raise DomainError(f"basis not orthonormal: max Gram deviation {deviation:.3e}")


def random_subspace(n: int, k: int, rng: np.random.Generator) -> SubspaceBasis:
    """Haar-uniform k-dimensional subspace via Gaussian span + Gram-Schmidt.

    Modified Gram-Schmidt with a second reorthogonalization pass keeps
    the Gram deviation near machine precision even for nearly dependent
    draws; a numerically rank-deficient draw (probability zero) is
    replaced by the next one from the stream.  The dot products and
    norms are numpy's pairwise sums of elementwise products: a BLAS dot
    splits its sum by thread, so the basis bits would follow the BLAS
    thread count.  Each draw goes into one reused n-vector, updated in
    place, so beside the basis a call holds that vector and one
    temporary of n doubles.
    """
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    columns = np.empty((n, k), dtype=np.float64)
    v = np.empty(n)
    filled = 0
    attempts = 0
    while filled < k:
        attempts += 1
        if attempts > 8 * k + 64:
            raise DomainError("repeated rank deficiency in subspace sampling")
        gaussian_draws(rng, (n,), v)
        scale = math.sqrt(np.add.reduce(v * v))
        for _ in range(2):
            for i in range(filled):
                v -= np.add.reduce(columns[:, i] * v) * columns[:, i]
        norm = math.sqrt(np.add.reduce(v * v))
        if not norm > 1e-8 * max(scale, 1.0):
            continue
        np.divide(v, norm, out=columns[:, filled])
        filled += 1
    return SubspaceBasis(n, k, columns)


def _slab_weight(theta, half):
    """The fiber weight of the colatitude slab |phi - theta| <= half.

    On S^{k-1}, writing x = (cos phi, sin phi * u) with u on S^{k-2}, the
    chordal distance to y = (cos theta, sin theta * v) satisfies the
    exact identity

        |x - y|^2 = |chord(phi - theta)|^2 + sin(phi) sin(theta) |u - v|^2,

    and over the slab sin(phi) sin(theta) is at most the returned weight.
    Elementwise on arrays.
    """
    lo, hi = theta - half, theta + half
    sin_sup = np.where(
        (lo <= 0.5 * math.pi) & (0.5 * math.pi <= hi), 1.0, np.maximum(np.sin(lo), np.sin(hi))
    )
    return sin_sup * np.sin(theta)


@dataclass(frozen=True, slots=True)
class DistortionResult:
    """Extremes of r(x) = ||Bx||_p over the cell tree, with their certificate.

    sup_ratio and inf_ratio are exact values of r at sphere points, so
    distortion = sup/inf is always a valid lower bound for the true
    distortion.  certified_rel_error bounds the relative amount by which
    the true distortion can exceed it (inf when the lower bound I is not
    positive), and net_resolution is the largest radius among the final
    cells that could still move sup or inf (0.0 at k = 1, where one
    point is the whole sphere up to sign).
    """

    sup_ratio: float
    inf_ratio: float
    distortion: float
    net_resolution: float
    certified_rel_error: float

    def __post_init__(self) -> None:
        if not self.sup_ratio >= self.inf_ratio > 0.0:
            raise DomainError("need sup_ratio >= inf_ratio > 0")
        if self.distortion < 1.0 - 1e-12:
            raise DomainError("distortion below 1")

    @property
    def certified_upper(self) -> float:
        """Upper bound on the true distortion (inf when certified_rel_error is)."""
        return self.distortion * (1.0 + self.certified_rel_error)


def _point_values(
    basis: SubspaceBasis, p: float, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """r(x) = ||Bx||_p and |grad r(x) - r(x) x| of each row x of points.

    The reducer forms the images Bx a tile at a time and, from the tile
    it sums r from, grad r(x) = B^T grad ||Bx||_p; by Euler's identity
    grad r(x).x = r(x), so subtracting r(x) x leaves its part tangent to
    the sphere at x.  At p = inf no gradient is formed and the slopes
    are NaN.
    """
    norms, gradients = _reduce_rows(points, [(p, False, False)], math.inf, basis=basis.columns)
    gradients -= norms[0][:, None] * points
    return norms[0], np.linalg.norm(gradients, axis=1)


def distortion(
    basis: SubspaceBasis,
    p: float,
    net_resolution: float,
    constants: Constants = DEFAULT_CONSTANTS,
) -> DistortionResult:
    """sup/inf of the p-norm over the basis's unit sphere, net-certified.

    A branch and bound over the cell tree trisects every cell whose
    bounds could still move sup or inf past the center values found,
    down to radius net_resolution (`_extremes`), and
    certified_rel_error = (S / I) / (sup / inf) - 1 follows from the
    final cells, or inf when I <= 0.  p (`_validate_p`), then k, the
    resolution, and the basis and the most cells a run can hold against
    constants.memory_guard_bytes (`_check_section_request`), are checked
    before any cell is evaluated.
    """
    _validate_p(p)
    leaves = _check_section_request(basis.n, basis.k, net_resolution, constants)
    sup, inf, sup_upper, inf_lower, rho = _trial(
        basis,
        p,
        lambda values, slopes, radii: _extremes(values, slopes, radii, p, net_resolution),
        _trial_arrays(basis.k, leaves),
    )
    return DistortionResult(
        sup_ratio=sup,
        inf_ratio=inf,
        distortion=sup / inf,
        net_resolution=rho,
        certified_rel_error=(
            (sup_upper / inf_lower) / (sup / inf) - 1.0 if inf_lower > 0.0 else math.inf
        ),
    )


@dataclass(frozen=True, slots=True)
class SphericityResult:
    """Counts from repeated random-subspace distortion trials.

    successes: certified distortion <= 1 + epsilon.
    failures: net distortion (a rigorous lower bound) > 1 + epsilon.
    ambiguous: neither side settled at this net resolution.
    The Wilson interval is on the success fraction.
    """

    n: int
    k: int
    p: float
    epsilon: float
    trials: int
    successes: int
    failures: int
    ambiguous: int
    probability: float
    wilson_low: float
    wilson_high: float
    net_resolution: float
    seed: int


def _root_cell(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Center angles and half-widths of the cell that is the whole antipodal domain.

    Every angle's interval starts at 0, so its center is its half-width.
    """
    if k < 3:
        halves = np.full((1, k - 1), 0.5 * math.pi)
    else:
        halves = np.array([[0.25 * math.pi] + [0.5 * math.pi] * (k - 3) + [math.pi]])
    return halves.copy(), halves


def _cell_geometry(centers: np.ndarray, halves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Covering radius of each cell and the coordinate contributing most to it.

    A cell of S^{k-1} up to sign is a box of k - 1 angles, each an
    interval given by its center and half-width: the colatitudes (the
    first in [0, pi/2], which covers the sphere up to sign, the others
    in [0, pi]) and last the azimuth ([0, pi] for k = 2, [0, 2 pi]
    above).  Its center point has the center angles as hyperspherical
    coordinates (`_cell_points`).  The identity of `_slab_weight`,
    applied one colatitude at a time, puts every point of the cell
    within the radius sqrt(sum_j W_j chord(half_j)^2) of the center
    point, where W_j is the product of the slab weights of the
    colatitudes before j; an arc's radius is chord(half) = 2 sin(half/2).
    """
    terms = np.empty(halves.shape)
    weight = np.ones(halves.shape[0])
    for j in range(halves.shape[1]):
        chord = 2.0 * np.sin(0.5 * halves[:, j])
        terms[:, j] = weight * chord * chord
        if j + 1 < halves.shape[1]:
            weight = weight * _slab_weight(centers[:, j], halves[:, j])
    axis = terms.argmax(axis=1) if halves.shape[1] else np.zeros(halves.shape[0], dtype=int)
    return np.sqrt(terms.sum(axis=1)), axis


def _cell_points(centers: np.ndarray) -> np.ndarray:
    """Unit vectors with the rows of center angles as hyperspherical coordinates."""
    rows, angles = centers.shape
    points = np.empty((rows, angles + 1))
    scale = np.ones(rows)
    for j in range(angles):
        points[:, j] = scale * np.cos(centers[:, j])
        scale = scale * np.sin(centers[:, j])
    points[:, angles] = scale
    return points


def _trisect(
    centers: np.ndarray, halves: np.ndarray, axis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thirds of each cell along its axis: (halves, lower centers, upper centers).

    The middle third keeps its parent's center, and all three share the
    returned half-widths.
    """
    rows = np.arange(axis.size)
    halves = halves.copy()
    halves[rows, axis] /= 3.0
    offset = 2.0 * halves[rows, axis]
    lower, upper = centers.copy(), centers.copy()
    lower[rows, axis] -= offset
    upper[rows, axis] += offset
    return halves, lower, upper


def _leaf_count(k: int, resolution: float, limit: int) -> int | None:
    """Leaves of the cell tree trisected until each radius is <= resolution.

    None when they are more than `limit`.  The tree splits every cell of
    radius above the resolution as `_trial` does, so a run's live cells,
    a partition of the sphere by nodes of this tree, are never more than
    its leaves.  No radius depends on an azimuth center, so the three
    thirds of an azimuth split have equal subtrees and are counted as
    one node of thrice the multiplicity; what remains grows with the
    colatitude intervals only.  The count stops as soon as the leaves
    already found and the cells still to split pass `limit`.
    """
    # the leaves' centers are a net of S^{k-1} up to sign at the
    # resolution r; a cap of chordal radius r meets a great circle in an
    # arc of at most 4 asin(r/2), so any such net, k >= 2, has at least
    # pi / (4 asin(r/2)) points: far too fine a resolution fails at once
    if k >= 2 and math.pi > limit * 4.0 * math.asin(resolution / 2.0):
        return None
    centers, halves = _root_cell(k)
    counts = np.ones(1, dtype=np.int64)
    leaves = 0
    while counts.size:
        radii, axis = _cell_geometry(centers, halves)
        split = radii > resolution
        leaves += int(counts[~split].sum())
        centers, halves, counts, axis = centers[split], halves[split], counts[split], axis[split]
        if leaves + 3 * int(counts.sum()) > limit:
            return None
        halves, lower, upper = _trisect(centers, halves, axis)
        polar = axis < k - 2
        counts = np.concatenate([np.where(polar, counts, 3 * counts), counts[polar], counts[polar]])
        centers = np.concatenate([centers, lower[polar], upper[polar]])
        halves = np.concatenate([halves, halves[polar], halves[polar]])
    return leaves


def _full_tree(k: int, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """Center angles and radii of the leaves of the tree refined everywhere to the resolution."""
    centers, halves = _root_cell(k)
    leaves = []
    while len(centers):
        radii, axis = _cell_geometry(centers, halves)
        split = radii > resolution
        leaves.append((centers[~split], radii[~split]))
        thirds, lower, upper = _trisect(centers[split], halves[split], axis[split])
        centers = np.concatenate([centers[split], lower, upper])
        halves = np.concatenate([thirds, thirds, thirds])
    return tuple(np.concatenate(parts) for parts in zip(*leaves))


def _check_net(k: int, resolution: float, n: int) -> None:
    """The one rule for k and the resolution: 1 <= k <= min(n, 4), resolution in (0, 1)."""
    if not 1 <= k <= min(n, 4):
        raise DomainError(f"certified sections need 1 <= k <= min(n, 4), got k={k}, n={n}")
    if not 0.0 < resolution < 1.0:
        raise DomainError(f"need resolution in (0, 1), got {resolution}")


def _fitting_leaves(k: int, resolution: float, limit: int, refusal: str) -> int:
    """The tree's leaf count if at most `limit`, else the refusal, naming the
    finest resolution * 2^j < 1 whose leaves fit."""
    leaves = _leaf_count(k, resolution, limit)
    if leaves is not None:
        return leaves
    level = 2.0 * resolution
    while level < 1.0 and _leaf_count(k, level, limit) is None:
        level *= 2.0
    fits = repr(level) if level < 1.0 else "none below 1"
    raise DomainError(f"{refusal}; the finest resolution that fits is {fits}")


def sphere_net(k: int, resolution: float) -> tuple[np.ndarray, float]:
    """Deterministic net of S^{k-1} up to antipodal symmetry.

    Returns (points, rho) where every unit vector x has some net point y
    with min(|x - y|_2, |x + y|_2) <= rho <= resolution: the center
    points of the leaves of the cell tree trisected everywhere until
    each radius is at most the resolution, and the largest leaf radius.
    rho is the construction's guaranteed covering radius, not an
    empirical one.  The leaves are counted before any is built; their
    center angles, radii and points, 8 (3k - 1) bytes each, must fit
    DEFAULT_CONSTANTS.memory_guard_bytes; a refusal names the finest
    resolution whose net fits.
    """
    # a net of S^{k-1} is a section with n = k
    _check_net(k, resolution, k)
    guard = DEFAULT_CONSTANTS.memory_guard_bytes
    refusal = f"the k={k} net at resolution {resolution} exceeds the memory guard ({guard} bytes)"
    _fitting_leaves(k, resolution, guard // (8 * (3 * k - 1)), refusal)
    centers, radii = _full_tree(k, resolution)
    return _cell_points(centers), float(radii.max())


def _held_bytes(n: int, k: int, cells: int) -> int:
    """Bytes a trial holds: an n x k basis, its n-vectors and `cells` cells.

    The n-vectors are the reducer's scratch for the basis path, kept by
    its thread (`_scratch_shape`: three tiles of n-rows, three rows from
    n = 2^16), and the draw and temporary of `random_subspace`.  A cell
    is k - 1 center angles, k - 1 half-widths, a value, a slope and a
    radius.  `distortion`, given its basis, is checked as a trial too.
    """
    scratch = math.prod(_scratch_shape(_tile_rows(n), n, [(1.0, False, False)], True))
    return 8 * (k * n + 2 * n + scratch + (2 * k + 1) * cells)


def _check_section_request(n: int, k: int, net_resolution: float, constants: Constants) -> int:
    """The cell tree's leaf count, if the request is certifiable and fits the memory guard.

    The one check of every section request, whatever its p: k and the
    resolution, then a basis and the most cells a run can hold.  A
    request whose basis and cells exceed the guard is refused, naming
    the finest resolution net_resolution * 2^j < 1 whose cells fit.
    Its callers check p first (`_validate_p`: below 1, ||.||_p is no
    norm and the cell bounds fail).
    """
    _check_net(k, net_resolution, n)
    guard = constants.memory_guard_bytes
    if _held_bytes(n, k, 0) > guard:
        raise DomainError(
            f"a {n}x{k} basis and its n-vectors of scratch exceed the memory guard"
            f" ({guard} bytes)"
        )
    limit = (guard - _held_bytes(n, k, 0)) // _held_bytes(0, k, 1)
    refusal = f"the k={k} cells at resolution {net_resolution} and a {n}x{k} basis exceed"
    return _fitting_leaves(k, net_resolution, limit, f"{refusal} the memory guard ({guard} bytes)")


def _check_epsilon(epsilon: float) -> None:
    """The one epsilon rule: a trial's target 1 + epsilon is finite and above 1."""
    if not 0.0 < epsilon < math.inf:
        raise DomainError(f"need finite epsilon > 0, got {epsilon}")


def _bounds(
    values: np.ndarray, slopes: np.ndarray, radii: np.ndarray, p: float
) -> tuple[np.ndarray, float, np.ndarray]:
    """Each cell's bound on sup r were it attained there, S their max, and each cell's bound below.

    The tighter of the first- and second-order bounds of the module
    docstring, cell by cell: second order above only for finite p >= 2
    and where (p - 1) rho^2 < 1, second order below for finite p.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = np.where(radii < 1.0, values / (1.0 - radii), math.inf)
        if 2.0 <= p < math.inf:
            linear = values * (values + 2.0 * slopes * radii)
            room = 1.0 - (p - 1.0) * radii * radii
            curved = (linear - (values * radii) ** 2) / room
            second = np.where(room > 0.0, np.sqrt(np.maximum(linear, curved)), math.inf)
            upper = np.minimum(upper, second)
    sup = upper.max()
    lower = values - radii * sup
    if p < math.inf:
        lower = np.maximum(lower, values * (1.0 - 0.5 * radii * radii) - slopes * radii)
    return upper, sup, lower


def _extremes(
    values: np.ndarray, slopes: np.ndarray, radii: np.ndarray, p: float, resolution: float
) -> tuple[tuple[float, ...] | None, np.ndarray]:
    """The stopping rule of `distortion` on the live cells (`_bounds`).

    A cell blocks while it could hold sup r above the largest center
    value, its bound on sup r > max r(c), or a value below the least,
    its bound below < min r(c).  Returns None with the blocking cells of
    radius above the resolution, to split, or, when there are none,
    (max r(c), min r(c), S, I, the largest radius of a blocking cell)
    with no cells; that radius is 0.0 when no cell blocks (k = 1).
    """
    upper, sup, lower = _bounds(values, slopes, radii, p)
    blocking = (upper > values.max()) | (lower < values.min())
    split = np.flatnonzero(blocking & (radii > resolution))
    if split.size:
        return None, split
    rho = radii[blocking].max(initial=0.0)
    return tuple(map(float, (values.max(), values.min(), sup, lower.min(), rho))), split


def _round(
    values: np.ndarray,
    slopes: np.ndarray,
    radii: np.ndarray,
    p: float,
    target: float,
    resolution: float,
) -> tuple[int | None, np.ndarray]:
    """One round of branch and bound on the live cells' values, slopes and radii.

    With S and I from the cells' bounds (`_bounds`), sup r <= S and
    inf r >= I.  Returns the verdict's index in (success, failure,
    ambiguous) with no cells, or None with the cells to split:

    - success when I > 0 and S <= target * I;
    - failure when max r(c) / min r(c) > target, values at real sphere
      points;
    - otherwise the cells that block a verdict, whose bound on sup r
      exceeds target * I or whose bound below is under S / target, are
      split if their radius exceeds the resolution (the cells attaining
      S and I always block), and the trial is ambiguous when none can be.
    """
    no_cells = np.empty(0, dtype=np.intp)
    upper, sup, lower = _bounds(values, slopes, radii, p)
    inf = lower.min()
    if inf > 0.0 and sup <= target * inf:
        return 0, no_cells
    if values.max() / values.min() > target:
        return 1, no_cells
    blocking = (upper > target * inf) | (lower < sup / target)
    split = np.flatnonzero(blocking & (radii > resolution))
    return (None, split) if split.size else (2, no_cells)


def _trial_arrays(k: int, leaves: int) -> tuple[np.ndarray, ...]:
    """A worker's cell arrays with room for `leaves` cells.

    The cells are center angles, half-widths, values, slopes and radii.
    """
    angles = [np.empty((leaves, k - 1)) for _ in range(2)]
    return (*angles, *(np.empty(leaves) for _ in range(3)))


def _trial(
    basis: SubspaceBasis,
    p: float,
    rule: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[Result | None, np.ndarray]],
    cells: tuple[np.ndarray, ...],
) -> Result:
    """Branch and bound over the cell tree of one basis until `rule` returns a result.

    rule(values, slopes, radii) takes the live cells' center values,
    slopes (`_point_values`) and radii and returns a result, or None
    with the indices of the cells to split.  `cells` are from
    `_trial_arrays`, with room for the tree's leaves; the live cells
    are the first m rows.  A split cell's middle third stays in
    its row with its value and slope, and the other two are appended
    and evaluated.
    """
    centers, halves, values, slopes, radii = cells
    centers[:1], halves[:1] = _root_cell(basis.k)
    radii[:1] = _cell_geometry(centers[:1], halves[:1])[0]
    values[:1], slopes[:1] = _point_values(basis, p, _cell_points(centers[:1]))
    live = 1
    while True:
        result, split = rule(values[:live], slopes[:live], radii[:live])
        if result is not None:
            return result
        new = slice(live, live + 2 * split.size)
        axis = _cell_geometry(centers[split], halves[split])[1]
        thirds, lower, upper = _trisect(centers[split], halves[split], axis)
        halves[split] = thirds
        halves[new] = np.concatenate([thirds, thirds])
        centers[new] = np.concatenate([lower, upper])
        radii[split] = _cell_geometry(centers[split], thirds)[0]
        radii[new] = _cell_geometry(centers[new], halves[new])[0]
        values[new], slopes[new] = _point_values(basis, p, _cell_points(centers[new]))
        live = new.stop


def sphericity_experiment(
    n: int,
    k: int,
    p: float,
    epsilon: float,
    trials: int,
    net_resolution: float,
    seed: int,
    constants: Constants = DEFAULT_CONSTANTS,
) -> SphericityResult:
    """Fraction of random k-subspaces that are (1+epsilon)-round in p-norm.

    Trial t draws its subspace from stream (seed, t), so the experiment
    is reproducible and embarrassingly parallel; counting is conservative
    per the certificate of `_round`.  It is a sweep of one row: the
    trials are dealt round-robin to a pool of min(usable cores, trials)
    threads (fewer if the memory guard admits fewer bases and cell trees
    at once), each returning its three counts; the sums do not depend on
    the worker count.

    Each trial is a branch and bound over the cell tree (`_trial`): a
    round evaluates r at the new cells' centers and settles the trial by
    the rule of `_round`, or trisects the cells that block a verdict
    along the coordinate contributing most to their radius.  A cell at
    or below net_resolution is never split, and a trial whose blocking
    cells are all that fine is ambiguous.  p, k, the resolution and the
    sizes of the basis and of the most cells a trial can hold (the
    leaves of the tree refined everywhere to net_resolution) are checked
    against constants.memory_guard_bytes before any basis is drawn, and
    so is epsilon, which must be finite and positive.
    """
    _check_trials(trials)
    _check_epsilon(epsilon)
    _validate_p(p)
    leaves = _check_section_request(n, k, net_resolution, constants)
    return _run_rows(n, k, [(p, epsilon, seed)], trials, net_resolution, constants, leaves)[0]


def _check_trials(trials: int) -> None:
    """The one trial-count rule: at least one trial."""
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials}")


def _run_rows(
    n: int,
    k: int,
    rows: list[tuple[float, float, int]],
    trials: int,
    net_resolution: float,
    constants: Constants,
    leaves: int,
) -> list[SphericityResult]:
    """`sphericity_experiment` of each checked (p, epsilon, seed) row, on one pool.

    The cell tree has `leaves` leaves at every row.  Index i of the
    len(rows) * trials dealt to the pool is trial i % trials of row
    i // trials; each worker returns its three counts per row.
    """

    def share(indices: range) -> list[list[int]]:
        counts = [[0, 0, 0] for _ in rows]
        cells = _trial_arrays(k, leaves)
        for index in indices:
            row, trial = divmod(index, trials)
            p, epsilon, seed = rows[row]
            rule = partial(_round, p=p, target=1.0 + epsilon, resolution=net_resolution)
            rng = RngStream(seed, trial).generator()
            # the basis is freed before the next one is drawn
            counts[row][_trial(random_subspace(n, k, rng), p, rule, cells)] += 1
        return counts

    limit = max(1, constants.memory_guard_bytes // _held_bytes(n, k, leaves))
    shares = _strided_shares(share, len(rows) * trials, limit)
    results = []
    for (p, epsilon, seed), *row_counts in zip(rows, *shares):
        successes, failures, ambiguous = map(sum, zip(*row_counts))
        low, high = wilson_interval(successes, trials)
        results.append(
            SphericityResult(
                n=n,
                k=k,
                p=p,
                epsilon=epsilon,
                trials=trials,
                successes=successes,
                failures=failures,
                ambiguous=ambiguous,
                probability=successes / trials,
                wilson_low=low,
                wilson_high=high,
                net_resolution=net_resolution,
                seed=seed,
            )
        )
    return results


@dataclass(frozen=True, slots=True)
class SweepRow:
    delta: float
    side: str
    result: SphericityResult


def transition_sweep(
    n: int,
    k: int,
    delta_grid: list[float],
    trials: int,
    net_resolution: float,
    seed: int,
    epsilon_sub: float = 0.1,
    epsilon_super_w: float = 0.5,
    constants: Constants = DEFAULT_CONSTANTS,
) -> list[SweepRow]:
    """Phase scan around p = 2 log n.

    For each delta > 0 the sub-critical side p = (2 - delta) log n runs
    at fixed epsilon and the super-critical side p = (2 + delta) log n
    at epsilon = w / log n.  delta = 0 evaluates the critical point
    itself, on the side "window": inside the transition window no
    direction is asserted.  Seeds are offset per row so rows stay
    independent yet reproducible.  n, the trial count, the delta grid,
    every row's epsilon (finite and positive), seed (`RngStream`'s rule)
    and p, then the request, the same for every row, are checked before
    any trial runs.  All rows' trials share one pool of min(usable
    cores, rows * trials) threads (fewer if the memory guard admits
    fewer); each row's counts are those of `sphericity_experiment`.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, so that log n > 0, got n={n}")
    _check_trials(trials)
    for delta in delta_grid:
        if not 0.0 <= delta < 2.0:
            raise DomainError(f"need delta in [0, 2), got {delta}")
    log_n = math.log(n)
    eps_super = epsilon_super_w / log_n
    plan = []  # (delta, side, p, epsilon, seed) of each row
    for row_index, delta in enumerate(sorted(delta_grid)):
        row_seed = seed + 1000 * row_index
        if delta == 0.0:
            plan.append((delta, "window", 2.0 * log_n, epsilon_sub, row_seed))
        else:
            plan.append((delta, "sub", (2.0 - delta) * log_n, epsilon_sub, row_seed))
            plan.append((delta, "super", (2.0 + delta) * log_n, eps_super, row_seed + 500))
    if not plan:
        return []
    for _, _, p, epsilon, row_seed in plan:
        _check_epsilon(epsilon)
        RngStream(row_seed, 0)  # refuses a seed outside [0, 2^64)
        _validate_p(p)
    leaves = _check_section_request(n, k, net_resolution, constants)
    results = _run_rows(n, k, [row[2:] for row in plan], trials, net_resolution, constants, leaves)
    return [SweepRow(delta, side, result) for (delta, side, *_), result in zip(plan, results)]
