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

The phase experiments count a trial as success only when the certified
upper bound on distortion clears the target, count it as failure only
when the net itself (honest sphere points) already exceeds the target,
and report everything in between as ambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gaussian import lp_norm_rows
from .montecarlo import _CHUNK_ELEMS, RngStream, gaussian_draws, wilson_interval

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


def _ring_product(k: int, colat_lo: float, colat_hi: float, chord: float) -> np.ndarray:
    """Colatitude rings over [colat_lo, colat_hi] with full-sphere fibers.

    Writing x = (cos phi, sin phi * u) with u on S^{k-2}, the chordal
    distance to a ring point y = (cos theta, sin theta * v) satisfies the
    exact identity

        |x - y|^2 = |chord(phi - theta)|^2 + sin(phi) sin(theta) |u - v|^2,

    so spacing rings at chord(step/2) <= chord/sqrt(2) and covering each
    fiber to chordal radius chord/sqrt(2) (scaled per ring by the slab's
    worst sin(phi) sin(theta) factor) yields covering radius <= chord.
    """
    component = chord / math.sqrt(2.0)
    step = 4.0 * math.asin(component / 2.0)
    span = colat_hi - colat_lo
    ring_count = max(1, math.ceil(span / step))
    step = span / ring_count
    blocks = []
    for r in range(ring_count):
        theta = colat_lo + (r + 0.5) * step
        lo, hi = theta - 0.5 * step, theta + 0.5 * step
        if lo <= 0.5 * math.pi <= hi:
            sin_sup = 1.0
        else:
            sin_sup = max(math.sin(lo), math.sin(hi))
        weight = sin_sup * math.sin(theta)
        if weight <= 0.0:
            fiber_chord = 2.0
        else:
            fiber_chord = min(2.0, component / math.sqrt(weight))
        fiber = _fiber_net(k - 1, fiber_chord, r)
        block = np.empty((fiber.shape[0], k))
        block[:, 0] = math.cos(theta)
        block[:, 1:] = math.sin(theta) * fiber
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


def _fiber_net(k: int, chord: float, stagger: int = 0) -> np.ndarray:
    """Full net of S^{k-1} with true chordal covering radius <= chord."""
    if chord >= 2.0:
        point = np.zeros((1, k))
        point[0, 0] = 1.0
        return point
    if k == 1:
        return np.array([[1.0], [-1.0]])
    if k == 2:
        count = max(1, math.ceil(math.pi / (2.0 * math.asin(chord / 2.0))))
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
        # angular spacing pi/N; worst offset pi/(2N); chord 2 sin(pi/(4N))
        count = max(2, math.ceil(math.pi / (4.0 * math.asin(resolution / 2.0))))
        angles = (np.arange(count) + 0.5) * math.pi / count
        points = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return points, 2.0 * math.sin(math.pi / (4.0 * count))
    if k in (3, 4):
        return _ring_product(k, 0.0, 0.5 * math.pi, resolution), resolution
    raise DomainError(f"certified nets are implemented for k <= 4, got k={k}")


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


def _net_extremes(
    basis: SubspaceBasis, p: float, points: np.ndarray
) -> tuple[float, float]:
    sup_value = -math.inf
    inf_value = math.inf
    # ambient blocks of at most one Monte Carlo chunk of doubles
    step = max(1, _CHUNK_ELEMS // basis.n)
    for start in range(0, points.shape[0], step):
        block = points[start : start + step]
        ambient = block @ basis.columns.T
        values = lp_norm_rows(ambient, p)
        sup_value = max(sup_value, float(values.max()))
        inf_value = min(inf_value, float(values.min()))
    return sup_value, inf_value


def distortion(
    basis: SubspaceBasis,
    p: float,
    net_resolution: float,
    allow_uncertified: bool = False,
    rng: np.random.Generator | None = None,
) -> DistortionResult:
    """sup/inf of the p-norm over the basis's unit sphere, net-certified.

    For k <= 4 the net is exhaustive and the result carries a finite
    certified_rel_error whenever the Lipschitz bracket closes.  Larger k
    requires allow_uncertified=True and an rng for random directions;
    the estimate is then a pure lower bound (certified_rel_error = inf).
    """
    if not (math.isinf(p) or p >= 1.0):
        raise DomainError(f"need p >= 1 or inf, got {p}")
    if basis.k <= 4:
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


def sphericity_experiment(
    n: int,
    k: int,
    p: float,
    epsilon: float,
    trials: int,
    net_resolution: float,
    seed: int,
) -> SphericityResult:
    """Fraction of random k-subspaces that are (1+epsilon)-round in p-norm.

    Trial t draws its subspace from stream (seed, t), so the experiment
    is reproducible and embarrassingly parallel; counting is conservative
    per the distortion certification rules.
    """
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials}")
    if epsilon <= 0.0:
        raise DomainError(f"need epsilon > 0, got {epsilon}")
    target = 1.0 + epsilon
    successes = failures = ambiguous = 0
    for trial in range(trials):
        rng = RngStream(seed, trial).generator()
        basis = random_subspace(n, k, rng)
        result = distortion(basis, p, net_resolution)
        if result.certified_upper <= target:
            successes += 1
        elif result.distortion > target:
            failures += 1
        else:
            ambiguous += 1
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
) -> list[SweepRow]:
    """Phase scan around p = 2 log n.

    For each delta > 0 the sub-critical side p = (2 - delta) log n runs
    at fixed epsilon and the super-critical side p = (2 + delta) log n
    at epsilon = w / log n.  delta = 0 evaluates the critical point
    itself and is flagged in_window: inside the transition window no
    direction is asserted.  Seeds are offset per row so rows stay
    independent yet reproducible.
    """
    log_n = math.log(n)
    rows: list[SweepRow] = []
    for row_index, delta in enumerate(sorted(delta_grid)):
        if delta < 0.0 or delta >= 2.0:
            raise DomainError(f"need delta in [0, 2), got {delta}")
        row_seed = seed + 1000 * row_index
        if delta == 0.0:
            p_mid = 2.0 * log_n
            result = sphericity_experiment(
                n, k, p_mid, epsilon_sub, trials, net_resolution, row_seed
            )
            rows.append(SweepRow(delta, "window", p_mid, epsilon_sub, result, True))
            continue
        p_sub = (2.0 - delta) * log_n
        result_sub = sphericity_experiment(
            n, k, p_sub, epsilon_sub, trials, net_resolution, row_seed
        )
        rows.append(SweepRow(delta, "sub", p_sub, epsilon_sub, result_sub, False))
        p_super = (2.0 + delta) * log_n
        eps_super = epsilon_super_w / log_n
        result_super = sphericity_experiment(
            n, k, p_super, eps_super, trials, net_resolution, row_seed + 500
        )
        rows.append(SweepRow(delta, "super", p_super, eps_super, result_super, False))
    return rows
