"""Measure the Monte Carlo constants that the default config commits to.

Runs the expensive sweeps once and prints observed extremes together
with suggested config values (picked with a safety margin so the test
suite stays stable across seeds).  Usage:

    python3 tools/calibrate.py [--fast]

--fast cuts sample counts 10x for a smoke pass.
"""

import argparse
import math
import sys
import time

from lplab import (
    DEFAULT_CONSTANTS,
    auto_p_grid,
    classify,
    mc_grid_stats,
    negative_moment_bound,
    predict_variance,
    tail_term,
    truncation_level_M,
    upper_quantile,
)


def sweep_ratios(n: int, samples: int, seed: int, streams: int = 4):
    """Variance/prediction ratio on the auto p-grid, every p from one set of draws."""
    grid = auto_p_grid(n)
    stats = mc_grid_stats(n, grid, samples, seed, streams)
    out = []
    for p, estimate in zip(grid, stats.norms):
        predicted, point = predict_variance(n, p)
        out.append((p, point.regime, estimate.variance / predicted.to_float()))
    return out


def criterion_ratio_stability(fast: bool):
    print("== variance ratio sweep ==")
    budgets = {1000: 100_000, 10_000: 10_000}
    if fast:
        budgets = {k: v // 10 for k, v in budgets.items()}
    regime_ratios: dict[tuple[int, str], list[float]] = {}
    lo, hi = math.inf, 0.0
    for n, samples in budgets.items():
        t0 = time.time()
        rows = sweep_ratios(n, samples, seed=2024)
        dt = time.time() - t0
        ratios = [r for _, _, r in rows]
        print(f"n={n} samples={samples} ({dt:.0f}s): "
              f"ratio range [{min(ratios):.4f}, {max(ratios):.4f}]")
        for p, regime, ratio in rows:
            regime_ratios.setdefault((n, regime), []).append(ratio)
        lo, hi = min(lo, min(ratios)), max(hi, max(ratios))
    print(f"global ratio range: [{lo:.4f}, {hi:.4f}]")
    for regime in ("LOW", "MID", "HIGH"):
        pair = []
        for n in budgets:
            vals = regime_ratios.get((n, regime))
            if vals:
                gm = math.exp(sum(math.log(v) for v in vals) / len(vals))
                pair.append((n, gm))
        if len(pair) == 2:
            drift = pair[1][1] / pair[0][1]
            drift = max(drift, 1.0 / drift)
            print(f"regime {regime}: geomean ratios "
                  f"{pair[0][1]:.4f} (n={pair[0][0]}) vs {pair[1][1]:.4f} "
                  f"(n={pair[1][0]}), cross-n drift {drift:.2f}x")
    print(f"suggested mc_ratio_lo <= {lo:.3f}, mc_ratio_hi >= {hi:.3f}")
    return lo, hi


def criterion_tail_gap(fast: bool):
    print("== truncation gap vs tail bound ==")
    n = 1000
    samples = 5_000 if fast else 50_000
    xi = upper_quantile(n)
    worst = 0.0
    for p in (classify(n, 2.0).p1, 2.0 * math.log(n)):
        m_level = truncation_level_M(n, p).to_float()
        for label, T in (("xi", xi), ("M", m_level)):
            _, gap_sq = mc_grid_stats(n, [p], samples, seed=11, T=T).truncated[0]
            bound = tail_term(n, p, T).to_float()
            ratio = gap_sq.mean / bound
            worst = max(worst, ratio)
            print(f"p={p:.3f} T={label}={T:.3f}: gap2 {gap_sq.mean:.3e} "
                  f"bound {bound:.3e} ratio {ratio:.3f}")
    print(f"suggested tails_gap_c >= {worst:.3f}")
    return worst


def criterion_negative_moment(fast: bool):
    print("== negative moment vs bound ==")
    n = 1000
    samples = 2_000 if fast else 20_000
    worst = 0.0
    log_n = math.log(n)
    for q in (1.0, log_n, 2.0 * log_n):
        for L in (0.5, 1.0, 2.0):
            est = mc_grid_stats(n, [], samples, seed=17, T=math.inf, negative=(q, L)).negative
            bound = negative_moment_bound(n, q, L).to_float()
            ratio = est.mean / bound
            worst = max(worst, ratio)
            print(f"q={q:.3f} L={L}: mc {est.mean:.3e} bound {bound:.3e} "
                  f"ratio {ratio:.3f}")
    print(f"suggested neg_moment_v >= {worst:.3f}")
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="10x fewer samples")
    args = parser.parse_args()
    t0 = time.time()
    lo, hi = criterion_ratio_stability(args.fast)
    gap_c = criterion_tail_gap(args.fast)
    neg_v = criterion_negative_moment(args.fast)
    print("== summary vs committed defaults ==")
    print(f"mc_ratio_lo: committed {DEFAULT_CONSTANTS.mc_ratio_lo}, observed min {lo:.4f}")
    print(f"mc_ratio_hi: committed {DEFAULT_CONSTANTS.mc_ratio_hi}, observed max {hi:.4f}")
    print(f"tails_gap_c: committed {DEFAULT_CONSTANTS.tails_gap_c}, observed {gap_c:.4f}")
    print(f"neg_moment_v: committed {DEFAULT_CONSTANTS.neg_moment_v}, observed {neg_v:.4f}")
    print(f"total {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
