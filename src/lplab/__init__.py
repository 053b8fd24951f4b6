"""Variance of p-norms of Gaussian vectors: theory, bounds, experiments.

The package splits into scalar Gaussian primitives (gaussian), truncated
moments (truncated), order statistics (orderstats), the closed-form
variance theory across the three growth regimes of p (variance), seeded
Monte Carlo estimators (montecarlo), random almost-round sections
(subspaces), log-domain carriers (logdomain), and the calibrated
constants that every asymptotic statement hides (config).
"""

from .config import Constants, DEFAULT_CONSTANTS, dump_constants, load_constants, parse_constants
from .errors import ConfigError, DomainError, LplabError
from .gaussian import (
    abs_moment,
    abs_tail_log,
    quantile,
    quantile_approx,
    quantile_tail,
    upper_quantile,
)
from .logdomain import LogValue
from .montecarlo import (
    MCEstimate,
    MCGridStats,
    MomentAccumulator,
    RngStream,
    SmallBallEstimate,
    default_samples,
    gaussian_draws,
    mc_grid_stats,
    mc_small_ball,
    merge_pairwise,
    wilson_interval,
)
from .orderstats import (
    chernoff_bound,
    orderstat_cdf_exact,
    sample_top_orderstats,
)
from .subspaces import (
    DistortionResult,
    SphericityResult,
    SubspaceBasis,
    SweepRow,
    distortion,
    random_subspace,
    sphere_net,
    sphericity_experiment,
    transition_sweep,
)
from .truncated import (
    TruncationSpec,
    incomplete_integral,
    trunc_moment_chi,
    trunc_moment_min,
)
from .variance import (
    LemmaCheckEntry,
    RegimePoint,
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
    truncation_level_M,
    upper_envelope,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Constants",
    "DEFAULT_CONSTANTS",
    "DistortionResult",
    "DomainError",
    "LemmaCheckEntry",
    "LogValue",
    "LplabError",
    "MCEstimate",
    "MCGridStats",
    "MomentAccumulator",
    "RegimePoint",
    "RngStream",
    "SmallBallEstimate",
    "SphericityResult",
    "SubspaceBasis",
    "SweepRow",
    "TruncationSpec",
    "a_quantity",
    "abs_moment",
    "abs_tail_log",
    "auto_p_grid",
    "chernoff_bound",
    "classify",
    "default_samples",
    "distortion",
    "dump_constants",
    "gaussian_draws",
    "incomplete_integral",
    "lemma_checks",
    "load_constants",
    "lower_envelope",
    "mc_grid_stats",
    "mc_small_ball",
    "merge_pairwise",
    "negative_moment_bound",
    "orderstat_cdf_exact",
    "parse_constants",
    "predict_variance",
    "quantile",
    "quantile_approx",
    "quantile_power_sum",
    "quantile_tail",
    "random_subspace",
    "sample_top_orderstats",
    "small_ball_bound",
    "sphere_net",
    "sphericity_experiment",
    "tail_term",
    "transition_sweep",
    "trunc_moment_chi",
    "trunc_moment_min",
    "truncation_level_M",
    "upper_envelope",
    "upper_quantile",
    "wilson_interval",
]
