"""Random subspaces and net-certified norm distortion on their spheres.

A uniform random k-dimensional subspace of R^n is spanned by k i.i.d.
Gaussian vectors; on its Euclidean sphere the ratio r(x) = ||Bx||_p
(with B an orthonormal basis, so ||Bx||_2 = 1) measures how far the
section of the p-ball is from round.  We evaluate r over a deterministic
net of the k-sphere and certify two-sided bounds on sup r / inf r from
the net's covering radius: r is (sup r)-Lipschitz along chords, so

    sup_true <= sup_net / (1 - rho),
    inf_true >= inf_net - rho * sup_true.

Everything that claims "certified" uses only these inequalities with
the construction's guaranteed covering radius rho; nothing is inferred
from sampling density.  Certified enumeration is limited to k <= 4,
which is exactly the regime where the sphere-net size stays tractable;
larger k falls back to random directions and is labeled uncertified.

The phase experiments run a branch and bound (Piyavskii 1972; Shubert
1972) over a tree of cells of the sphere: boxes in the spherical
coordinates of the nets, each with a guaranteed covering radius rho_c
about its center point.  The same inequalities, cell by cell, give

    sup_true <= S = max_c r(c) / (1 - rho_c),
    inf_true >= I = min_c r(c) - rho_c * S,

so a trial counts as success only when this certified bound S / I
clears the target, as failure only when the values at cell centers
(honest sphere points) already exceed it, and as ambiguous when
neither holds and no cell that blocks a verdict is coarser than the
requested resolution.  Each round evaluates only the centers of new
cells and trisects only the cells that block a verdict, so a trial
evaluates far fewer points than a uniform net of the finest radius it
reaches.  Every round's bounds hold for the true distortion, so no
trial swaps between success and failure against a single net at the
requested resolution; only trials that net leaves ambiguous can
change, and only by settling.

Trials run on the thread pool of the Monte Carlo engine, dealt
round-robin, one task per worker; each trial keys its own stream, so
the counts do not depend on the worker count.  Points are evaluated a
reducer tile at a time (`_point_values`): the tile's image under B is
written into one reused buffer and reduced there by the lp reducer in
one workspace, so an evaluation holds a few tiles of doubles whatever
the number of points and n.  A net's sup and inf are taken once over
all its values; a trial's cells live in arrays its worker allocates
once, with room for the most cells a trial can hold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONSTANTS, Constants
from .errors import DomainError
from .gaussian import _reduce_rows, _tile_rows, _workspace_elems
from .montecarlo import RngStream, _strided_shares, gaussian_draws, wilson_interval

_ORTHO_TOL = 1e-10


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
    replaced by the next one from the stream.
    """
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    columns = np.empty((n, k), dtype=np.float64)
    filled = 0
    attempts = 0
    while filled < k:
        attempts += 1
        if attempts > 8 * k + 64:
            raise DomainError("repeated rank deficiency in subspace sampling")
        v = gaussian_draws(rng, (n,))
        scale = float(np.linalg.norm(v))
        for _ in range(2):
            for i in range(filled):
                v = v - (columns[:, i] @ v) * columns[:, i]
        norm = float(np.linalg.norm(v))
        if not norm > 1e-8 * max(scale, 1.0):
            continue
        columns[:, filled] = v / norm
        filled += 1
    return SubspaceBasis(n, k, columns)


_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


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


def _rings(colat_lo: float, colat_hi: float, chord: float):
    """Yield (colatitude, fiber chord) of each ring over [colat_lo, colat_hi].

    By the identity of `_slab_weight`, spacing rings at chord(step/2) <=
    chord/sqrt(2) and covering each fiber to chordal radius
    chord/sqrt(2 * weight) of the ring's slab yields covering radius <=
    chord.
    """
    component = chord / math.sqrt(2.0)
    step = 4.0 * math.asin(component / 2.0)
    span = colat_hi - colat_lo
    ring_count = max(1, math.ceil(span / step))
    step = span / ring_count
    for r in range(ring_count):
        theta = colat_lo + (r + 0.5) * step
        weight = float(_slab_weight(theta, 0.5 * step))
        if weight <= 0.0:
            yield theta, 2.0
        else:
            yield theta, min(2.0, component / math.sqrt(weight))


def _ring_product(k: int, colat_lo: float, colat_hi: float, chord: float) -> np.ndarray:
    """Colatitude rings over [colat_lo, colat_hi] with full-sphere fibers."""
    blocks = []
    for r, (theta, fiber_chord) in enumerate(_rings(colat_lo, colat_hi, chord)):
        fiber = _fiber_net(k - 1, fiber_chord, r)
        block = np.empty((fiber.shape[0], k))
        block[:, 0] = math.cos(theta)
        block[:, 1:] = math.sin(theta) * fiber
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


def _circle_count(chord: float) -> int:
    return max(1, math.ceil(math.pi / (2.0 * math.asin(chord / 2.0))))


def _half_circle_count(resolution: float) -> int:
    # angular spacing pi/N; worst offset pi/(2N); chord 2 sin(pi/(4N))
    return max(2, math.ceil(math.pi / (4.0 * math.asin(resolution / 2.0))))


def _fiber_net(k: int, chord: float, stagger: int = 0) -> np.ndarray:
    """Full net of S^{k-1} with true chordal covering radius <= chord."""
    if chord >= 2.0:
        point = np.zeros((1, k))
        point[0, 0] = 1.0
        return point
    if k == 1:
        return np.array([[1.0], [-1.0]])
    if k == 2:
        count = _circle_count(chord)
        angles = 2.0 * math.pi * np.arange(count) / count + stagger * _GOLDEN_ANGLE
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return _ring_product(k, 0.0, math.pi, chord)


def sphere_net(k: int, resolution: float) -> tuple[np.ndarray, float]:
    """Deterministic net of S^{k-1} up to antipodal symmetry.

    Returns (points, rho) where every unit vector x has some net point y
    with min(|x - y|_2, |x + y|_2) <= rho <= resolution.  k = 2 uses a
    half-circle grid; k = 3, 4 use colatitude rings over [0, pi/2] with
    full-sphere fibers (the antipode of a lower-hemisphere point lands in
    the covered upper hemisphere).  The returned rho is the construction's
    guaranteed covering radius, not an empirical one.
    """
    if not 0.0 < resolution < 1.0:
        raise DomainError(f"need resolution in (0, 1), got {resolution}")
    if k == 1:
        return np.array([[1.0]]), 0.0
    if k == 2:
        count = _half_circle_count(resolution)
        angles = (np.arange(count) + 0.5) * math.pi / count
        points = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return points, 2.0 * math.sin(math.pi / (4.0 * count))
    if k in (3, 4):
        return _ring_product(k, 0.0, 0.5 * math.pi, resolution), resolution
    raise DomainError(f"certified nets are implemented for k <= 4, got k={k}")


def _fiber_sizes(k: int, chord: float):
    """Yield the point count of each block `_fiber_net(k, chord)` builds."""
    if chord >= 2.0:
        yield 1
    elif k == 1:
        yield 2
    elif k == 2:
        yield _circle_count(chord)
    else:
        for _, fiber_chord in _rings(0.0, math.pi, chord):
            yield from _fiber_sizes(k - 1, fiber_chord)


def _net_sizes(k: int, resolution: float):
    """Yield the point count of each block of `sphere_net(k, resolution)`.

    Counts follow the builder ring by ring without allocating points, so
    a caller can stop as soon as a running total is too large.
    """
    if k == 1:
        yield 1
    elif k == 2:
        yield _half_circle_count(resolution)
    else:
        for _, fiber_chord in _rings(0.0, 0.5 * math.pi, resolution):
            yield from _fiber_sizes(k - 1, fiber_chord)


def _beyond_any_net(k: int, resolution: float, limit: int) -> bool:
    """Whether every net of S^{k-1} up to sign at this resolution has more than `limit` points.

    A cap of chordal radius r meets a great circle in an arc of angle at
    most 4 asin(r/2), so any such net, k >= 2, has at least
    pi / (4 asin(r/2)) points; this refuses resolutions far too fine in
    one step, before any count.
    """
    return k >= 2 and math.pi > limit * 4.0 * math.asin(resolution / 2.0)


def _net_size(k: int, resolution: float, limit: int) -> int | None:
    """The point count of sphere_net(k, resolution), None if above `limit`."""
    if _beyond_any_net(k, resolution, limit):
        return None
    total = 0
    for total in itertools.accumulate(_net_sizes(k, resolution)):
        if total > limit:
            return None
    return total


@dataclass(frozen=True, slots=True)
class DistortionResult:
    """Net extremes of r(x) = ||Bx||_p with certification metadata.

    sup_ratio and inf_ratio are exact values of r at sphere points, so
    distortion = sup/inf is always a valid lower bound for the true
    distortion.  certified_rel_error bounds the relative amount by which
    the true distortion can exceed it (inf when not certifiable at this
    resolution); certified marks whether the run used an exhaustive net.
    """

    sup_ratio: float
    inf_ratio: float
    distortion: float
    net_resolution: float
    certified_rel_error: float
    certified: bool

    def __post_init__(self) -> None:
        if not self.sup_ratio >= self.inf_ratio > 0.0:
            raise DomainError("need sup_ratio >= inf_ratio > 0")
        if self.distortion < 1.0 - 1e-12:
            raise DomainError("distortion below 1")

    @property
    def certified_upper(self) -> float:
        """Upper bound on the true distortion (inf if uncertifiable)."""
        if math.isinf(self.certified_rel_error):
            return math.inf
        return self.distortion * (1.0 + self.certified_rel_error)


def _evaluation_workspace(n: int, rows: int, p: float) -> np.ndarray:
    """Room for `_point_values` on up to `rows` points at a time: images and reducer scratch."""
    tile = min(_tile_rows(n), rows)
    return np.empty(tile * n + _workspace_elems(tile, n, [(p, False, False)]))


def _point_values(
    basis: SubspaceBasis, p: float, points: np.ndarray, workspace: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """||Bx||_p of each row x of points, written into out.

    The images of one reducer tile of points at a time are written into
    the head of `workspace` (from `_evaluation_workspace` for at least
    this many points) and reduced there, with the rest as the reducer's
    scratch, so an evaluation holds a few tiles of doubles whatever the
    number of points and n.
    """
    n = basis.n
    request = [(p, False, False)]
    tile = min(_tile_rows(n), points.shape[0])
    images, scratch = workspace[: tile * n], workspace[tile * n :]
    for start in range(0, points.shape[0], tile):
        part = points[start : start + tile]
        image = images[: part.shape[0] * n].reshape(-1, n)
        np.matmul(part, basis.columns.T, out=image)
        out[start : start + tile] = _reduce_rows(image, request, math.inf, scratch)[0]
    return out


def _net_extremes(
    basis: SubspaceBasis, p: float, points: np.ndarray
) -> tuple[float, float]:
    """Max and min of ||Bx||_p over the rows x of points."""
    workspace = _evaluation_workspace(basis.n, points.shape[0], p)
    values = _point_values(basis, p, points, workspace, np.empty(points.shape[0]))
    return float(values.max()), float(values.min())


def distortion(
    basis: SubspaceBasis,
    p: float,
    net_resolution: float,
    allow_uncertified: bool = False,
    rng: np.random.Generator | None = None,
    constants: Constants = DEFAULT_CONSTANTS,
) -> DistortionResult:
    """sup/inf of the p-norm over the basis's unit sphere, net-certified.

    For k <= 4 the net is exhaustive and the result carries a finite
    certified_rel_error whenever the Lipschitz bracket closes; its points
    of k doubles must fit constants.memory_guard_bytes, which is checked
    by counting them before the net is built.  Larger k requires
    allow_uncertified=True and an rng for random directions; the
    estimate is then a pure lower bound (certified_rel_error = inf).
    Its max(1000, 4 / net_resolution^2) directions of k doubles must fit
    constants.memory_guard_bytes.
    """
    if not (math.isinf(p) or p >= 1.0):
        raise DomainError(f"need p >= 1 or inf, got {p}")
    if not 0.0 < net_resolution < 1.0:
        raise DomainError(f"need resolution in (0, 1), got {net_resolution}")
    guard = constants.memory_guard_bytes
    if basis.k <= 4:
        if _net_size(basis.k, net_resolution, guard // (8 * basis.k)) is None:
            raise DomainError(
                f"the k={basis.k} net at resolution {net_resolution} exceeds the memory"
                f" guard ({guard} bytes)"
            )
        points, rho = sphere_net(basis.k, net_resolution)
        sup_net, inf_net = _net_extremes(basis, p, points)
        if rho == 0.0:
            rel_error = 0.0
        else:
            sup_upper = sup_net / (1.0 - rho)
            inf_lower = inf_net - rho * sup_upper
            if inf_lower <= 0.0:
                rel_error = math.inf
            else:
                rel_error = (sup_upper / inf_lower) / (sup_net / inf_net) - 1.0
        return DistortionResult(
            sup_ratio=sup_net,
            inf_ratio=inf_net,
            distortion=sup_net / inf_net,
            net_resolution=rho,
            certified_rel_error=rel_error,
            certified=True,
        )
    if not allow_uncertified:
        raise DomainError(
            f"k={basis.k} exceeds the certified net limit (4);"
            " pass allow_uncertified=True for a sampled estimate"
        )
    if rng is None:
        raise DomainError("uncertified mode needs an rng for random directions")
    count = max(1000, int(4.0 / (net_resolution * net_resolution)))
    if count * basis.k * 8 > guard:
        raise DomainError(
            f"{count} random directions in R^{basis.k} exceed the memory guard"
            f" ({guard} bytes)"
        )
    directions = gaussian_draws(rng, (count, basis.k))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    sup_net, inf_net = _net_extremes(basis, p, directions)
    return DistortionResult(
        sup_ratio=sup_net,
        inf_ratio=inf_net,
        distortion=sup_net / inf_net,
        net_resolution=net_resolution,
        certified_rel_error=math.inf,
        certified=False,
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
    first in [0, pi/2], the antipodal domain of `sphere_net`, the others
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
    radius above the resolution as `_trial` does, so a trial's live cells,
    a partition of the sphere by nodes of this tree, are never more than
    its leaves.  No radius depends on an azimuth center, so the three
    thirds of an azimuth split have equal subtrees and are counted as
    one node of thrice the multiplicity; what remains grows with the
    colatitude intervals only.  The count stops as soon as the leaves
    already found and the cells still to split pass `limit`.
    """
    # the leaves' centers are a net at the resolution
    if _beyond_any_net(k, resolution, limit):
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


def _held_bytes(n: int, k: int, cells: int) -> int:
    """Bytes of an n x k basis and of `cells` cells.

    A cell is k - 1 center angles, k - 1 half-widths, a value and a radius.
    """
    return 8 * k * (n + 2 * cells)


def _check_section_request(
    n: int, k: int, net_resolution: float, constants: Constants
) -> int:
    """The cell tree's leaf count, if a basis and that many cells fit the memory guard.

    A request whose basis and cells exceed the guard is refused, naming
    the finest resolution net_resolution * 2^j < 1 whose cells fit.
    """
    if not 1 <= k <= min(n, 4):
        raise DomainError(
            f"certified sections need 1 <= k <= min(n, 4), got k={k}, n={n}"
        )
    if not 0.0 < net_resolution < 1.0:
        raise DomainError(f"need resolution in (0, 1), got {net_resolution}")
    guard = constants.memory_guard_bytes
    if _held_bytes(n, k, 0) > guard:
        raise DomainError(
            f"a {n}x{k} basis exceeds the memory guard ({guard} bytes)"
        )
    limit = (guard - _held_bytes(n, k, 0)) // _held_bytes(0, k, 1)
    leaves = _leaf_count(k, net_resolution, limit)
    if leaves is not None:
        return leaves
    level = 2.0 * net_resolution
    while level < 1.0 and _leaf_count(k, level, limit) is None:
        level *= 2.0
    raise DomainError(
        f"the k={k} cells at resolution {net_resolution} and a {n}x{k} basis exceed"
        f" the memory guard ({guard} bytes); the finest resolution that fits is"
        f" {repr(level) if level < 1.0 else 'none below 1'}"
    )


def _round(
    values: np.ndarray, radii: np.ndarray, target: float, resolution: float
) -> tuple[int | None, np.ndarray]:
    """One round of branch and bound on the live cells' center values and radii.

    r is (sup r)-Lipschitz along chords, so with S = max r(c) / (1 - rho_c)
    and I = min r(c) - rho_c S over the cells, sup r <= S and inf r >= I.
    Returns the verdict's index in (success, failure, ambiguous) with no
    cells, or None with the cells to split:

    - success when I > 0 and S <= target * I;
    - failure when max r(c) / min r(c) > target, values at real sphere
      points;
    - otherwise the cells that block a verdict, r(c) / (1 - rho_c) >
      target * I or r(c) - rho_c S < S / target, are split if their
      radius exceeds the resolution (the cells attaining S and I always
      block), and the trial is ambiguous when none can be.
    """
    no_cells = np.empty(0, dtype=np.intp)
    with np.errstate(divide="ignore"):
        upper = np.where(radii < 1.0, values / (1.0 - radii), math.inf)
    sup = upper.max()
    lower = values - radii * sup
    inf = lower.min()
    if inf > 0.0 and sup <= target * inf:
        return 0, no_cells
    if values.max() / values.min() > target:
        return 1, no_cells
    blocking = (upper > target * inf) | (lower < sup / target)
    split = np.flatnonzero(blocking & (radii > resolution))
    return (None, split) if split.size else (2, no_cells)


def _trial(
    basis: SubspaceBasis,
    p: float,
    target: float,
    resolution: float,
    cells: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    workspace: np.ndarray,
) -> int:
    """The verdict's index in (success, failure, ambiguous) for one basis.

    `cells` are the worker's arrays of center angles, half-widths, values
    and radii, with room for the tree's leaves; the live cells are their
    first m rows.  A split cell's middle third stays in its row with its
    value, and the other two are appended and evaluated.
    """
    centers, halves, values, radii = cells
    centers[:1], halves[:1] = _root_cell(basis.k)
    radii[:1] = _cell_geometry(centers[:1], halves[:1])[0]
    _point_values(basis, p, _cell_points(centers[:1]), workspace, values[:1])
    live = 1
    while True:
        verdict, split = _round(values[:live], radii[:live], target, resolution)
        if verdict is not None:
            return verdict
        new = slice(live, live + 2 * split.size)
        axis = _cell_geometry(centers[split], halves[split])[1]
        thirds, lower, upper = _trisect(centers[split], halves[split], axis)
        halves[split] = thirds
        halves[new] = np.concatenate([thirds, thirds])
        centers[new] = np.concatenate([lower, upper])
        radii[split] = _cell_geometry(centers[split], thirds)[0]
        radii[new] = _cell_geometry(centers[new], halves[new])[0]
        _point_values(basis, p, _cell_points(centers[new]), workspace, values[new])
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
    per the Lipschitz certificate of `_round`.  The trials are dealt
    round-robin to a pool of min(usable cores, trials) threads (fewer if
    the memory guard admits fewer bases and cell trees at once), each
    returning its three counts; the sums do not depend on the worker
    count.

    Each trial is a branch and bound over a tree of cells of the sphere
    (`_cell_geometry`), from the whole antipodal domain down: a round
    evaluates r at the new cells' centers and settles the trial by the
    rule of `_round`, or trisects the cells that block a verdict along
    the coordinate contributing most to their radius.  Refinement stops
    at radius <= net_resolution, so a leaf may be finer than
    net_resolution but a cell at or below it is never split; a trial
    whose blocking cells are all that fine is ambiguous.  Every round's
    bounds hold for the true distortion, so no trial can swap between
    success and failure relative to a single net at net_resolution.
    k, the resolution and the sizes of the basis and of the most cells
    a trial can hold (the leaves of the tree refined everywhere to
    net_resolution) are checked against constants.memory_guard_bytes
    before any basis is drawn.
    """
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials}")
    if not epsilon > 0.0:
        raise DomainError(f"need epsilon > 0, got {epsilon}")
    leaves = _check_section_request(n, k, net_resolution, constants)
    target = 1.0 + epsilon

    def share(indices: range) -> list[int]:
        counts = [0, 0, 0]
        cells = (
            np.empty((leaves, k - 1)), np.empty((leaves, k - 1)), np.empty(leaves), np.empty(leaves)
        )
        workspace = _evaluation_workspace(n, _tile_rows(n), p)
        for trial in indices:
            rng = RngStream(seed, trial).generator()
            basis = random_subspace(n, k, rng)
            counts[_trial(basis, p, target, net_resolution, cells, workspace)] += 1
        return counts

    limit = max(1, constants.memory_guard_bytes // _held_bytes(n, k, leaves))
    successes, failures, ambiguous = (
        sum(counts) for counts in zip(*_strided_shares(share, trials, limit))
    )
    low, high = wilson_interval(successes, trials)
    return SphericityResult(
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


@dataclass(frozen=True, slots=True)
class SweepRow:
    delta: float
    side: str
    p: float
    epsilon: float
    result: SphericityResult
    in_window: bool


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
    itself and is flagged in_window: inside the transition window no
    direction is asserted.  Seeds are offset per row so rows stay
    independent yet reproducible.  The whole delta grid is checked before
    any row runs.
    """
    for delta in delta_grid:
        if not 0.0 <= delta < 2.0:
            raise DomainError(f"need delta in [0, 2), got {delta}")
    log_n = math.log(n)
    rows: list[SweepRow] = []
    for row_index, delta in enumerate(sorted(delta_grid)):
        row_seed = seed + 1000 * row_index
        if delta == 0.0:
            p_mid = 2.0 * log_n
            result = sphericity_experiment(
                n, k, p_mid, epsilon_sub, trials, net_resolution, row_seed, constants
            )
            rows.append(SweepRow(delta, "window", p_mid, epsilon_sub, result, True))
            continue
        p_sub = (2.0 - delta) * log_n
        result_sub = sphericity_experiment(
            n, k, p_sub, epsilon_sub, trials, net_resolution, row_seed, constants
        )
        rows.append(SweepRow(delta, "sub", p_sub, epsilon_sub, result_sub, False))
        p_super = (2.0 + delta) * log_n
        eps_super = epsilon_super_w / log_n
        result_super = sphericity_experiment(
            n, k, p_super, eps_super, trials, net_resolution, row_seed + 500, constants
        )
        rows.append(SweepRow(delta, "super", p_super, eps_super, result_super, False))
    return rows
