"""Outside-in layer trace of lplab for the benchmark's traced passes.

Nothing in lplab is edited.  While a `Recorder` is installed it replaces
module-level names with timing wrappers:

* every lplab function that one module imports from another, in the
  importing (caller's) namespace, e.g. `lplab.subspaces.lp_norm_rows`,
  `lplab.montecarlo.quantile_power_sum`, `lplab.cli.mc_norm_stats`;
* a few names a module calls on itself, through its own globals, where
  a per-layer metric needs the boundary (`montecarlo.gaussian_draws`,
  the moment accumulator, `subspaces.distortion`, ...);
* the entry points the benchmark calls (`cli.main` and two library
  functions).

`logdomain` is deliberately left untraced: its calls take well under a
microsecond, so a wrapper would cost more than the work it measures.

Spans are aggregated in memory as they close, per span name and per
(parent, child) edge, with self time = span time minus the time of the
child spans it encloses.  Counts (elements drawn, net points, ...) are
taken from the arguments and results at the same boundaries; they are
exact and must repeat between traced passes of the same seed.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time

import numpy as np

# modules whose namespaces are traced, in the order they are wrapped
CALLER_MODULES = (
    "config",
    "cli",
    "montecarlo",
    "gaussian",
    "variance",
    "truncated",
    "orderstats",
    "subspaces",
)
UNTRACED_MODULES = ("lplab.logdomain", "lplab.errors")

# (module, name) pairs called through the module's own globals or by the
# benchmark directly; cross-module imports are found automatically
OWN_NAMES = (
    ("cli", "main"),
    ("montecarlo", "gaussian_draws"),
    ("montecarlo", "merge_pairwise"),
    ("montecarlo", "mc_small_ball"),
    ("gaussian", "quantile_tail"),
    ("orderstats", "sample_top_orderstats"),
    ("subspaces", "sphericity_experiment"),
    ("subspaces", "random_subspace"),
    ("subspaces", "distortion"),
    ("subspaces", "sphere_net"),
)

ESTIMATORS = (
    "montecarlo.mc_norm_stats",
    "montecarlo.mc_truncated_stats",
    "montecarlo.mc_negative_moment",
    "montecarlo.mc_small_ball",
)
MERGE_SPANS = (
    "montecarlo.MomentAccumulator.from_batch",
    "montecarlo.MomentAccumulator.merge",
    "montecarlo.merge_pairwise",
)
MOMENT_SPANS = ("truncated.trunc_moment_chi", "truncated.trunc_moment_min")

# per-layer metrics that are exact counts; they must repeat between passes
COUNT_METRICS = (
    "montecarlo.draw_elems",
    "montecarlo.draw_calls",
    "gaussian.lp_norm_rows_elems",
    "gaussian.lp_norm_rows_computed_bytes",
    "subspaces.net_builds",
    "subspaces.net_points",
    "subspaces.trials",
    "gaussian.quantile_calls",
    "truncated.moment_calls",
)


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('lplab.')}.{fn.__qualname__}"


class Recorder:
    """Span and counter store for one traced pass; install() wraps lplab."""

    def __init__(self) -> None:
        self._open: list[list] = []  # [name, child_ns] per open span
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total, self, count]
        self.edges: dict[str, dict[str, list[int]]] = {}  # child -> parent -> [calls, total]
        self.largest_array_bytes = 0
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, count=None):
        """fn wrapped to record one span per call.

        count(recorder, arguments, result) -> int, if given, adds to the
        span's exact count after each successful call.
        """
        signature = inspect.signature(fn) if count is not None else None
        recorder = self
        stack = self._open
        stats = self.spans.setdefault(name, [0, 0, 0, 0])
        parents = self.edges.setdefault(name, {})

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                    parent = stack[-1][0]
                else:
                    parent = "root"
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                edge = parents.get(parent)
                if edge is None:
                    edge = parents[parent] = [0, 0]
                edge[0] += 1
                edge[1] += elapsed
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                stats[3] += count(recorder, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        plan = []
        for short in CALLER_MODULES:
            module = importlib.import_module(f"lplab.{short}")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__.startswith("lplab.")
                    and value.__module__ not in (module.__name__, *UNTRACED_MODULES)
                ):
                    plan.append((module, attr, value))
        for short, attr in OWN_NAMES:
            module = importlib.import_module(f"lplab.{short}")
            plan.append((module, attr, getattr(module, attr)))
        for module, attr, fn in plan:
            name = _span_name(fn)
            self._replace(module, attr, self.wrap(fn, name, COUNTERS.get(name)))
        accumulator = importlib.import_module("lplab.montecarlo").MomentAccumulator
        from_batch = accumulator.__dict__["from_batch"].__func__
        self._replace(
            accumulator, "from_batch", classmethod(self.wrap(from_batch, _span_name(from_batch)))
        )
        merge = accumulator.__dict__["merge"]
        self._replace(accumulator, "merge", self.wrap(merge, _span_name(merge)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def note_array(self, array: np.ndarray) -> None:
        self.largest_array_bytes = max(self.largest_array_bytes, int(array.nbytes))

    # -- derived per-layer metrics -------------------------------------
    def _get(self, name: str, field: int) -> int:
        return self.spans.get(name, (0, 0, 0, 0))[field]

    def calls(self, *names: str) -> int:
        return sum(self._get(n, 0) for n in names)

    def total_s(self, *names: str) -> float:
        return sum(self._get(n, 1) for n in names) / 1e9

    def self_s(self, *names: str) -> float:
        return sum(self._get(n, 2) for n in names) / 1e9

    def count(self, *names: str) -> int:
        return sum(self._get(n, 3) for n in names)

    def layer_metrics(self) -> dict[str, float]:
        draw_elems = self.count("montecarlo.gaussian_draws")
        rows_elems = self.count("gaussian.lp_norm_rows")
        return {
            "montecarlo.draw_s": self.total_s("montecarlo.gaussian_draws"),
            "montecarlo.draw_elems": draw_elems,
            "montecarlo.draw_calls": self.calls("montecarlo.gaussian_draws"),
            "montecarlo.draw_reuse": (
                self.count(*ESTIMATORS) / draw_elems if draw_elems else 0.0
            ),
            "montecarlo.reduce_self_s": self.self_s(*ESTIMATORS),
            "montecarlo.merge_s": self.self_s(*MERGE_SPANS),
            "gaussian.lp_norm_rows_s": self.total_s("gaussian.lp_norm_rows"),
            "gaussian.lp_norm_rows_elems": rows_elems,
            "gaussian.lp_norm_rows_computed_bytes": 8 * rows_elems,
            "gaussian.quantile_calls": self.calls("gaussian.quantile_tail"),
            "gaussian.quantile_s": self.total_s("gaussian.quantile_tail"),
            "subspaces.net_build_s": self.total_s("subspaces.sphere_net"),
            "subspaces.net_builds": self.calls("subspaces.sphere_net"),
            "subspaces.net_points": self.count("subspaces.sphere_net"),
            "subspaces.trial_self_s": self.self_s("subspaces.distortion"),
            "subspaces.basis_s": self.total_s("subspaces.random_subspace"),
            "subspaces.trials": self.calls("subspaces.distortion"),
            "variance.quantile_power_sum_s": self.total_s("variance.quantile_power_sum"),
            "variance.lemma_checks_s": self.total_s("variance.lemma_checks"),
            "truncated.moment_calls": self.calls(*MOMENT_SPANS),
            "truncated.moment_s": self.total_s(*MOMENT_SPANS),
            "orderstats.top_sampler_s": self.total_s("orderstats.sample_top_orderstats"),
            "orderstats.cdf_exact_s": self.total_s("orderstats.orderstat_cdf_exact"),
            "config.load_s": self.total_s("config.load_constants"),
            "cli.self_s": self.self_s("cli.main"),
        }

    def table(self) -> dict[str, object]:
        """Aggregated spans and parent links, for the trace file."""
        return {
            "spans": {
                name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9, "count": n}
                for name, (c, t, s, n) in sorted(self.spans.items())
                if c
            },
            "edges": [
                {"parent": parent, "child": child, "calls": c, "total_s": t / 1e9}
                for child, parents in sorted(self.edges.items())
                for parent, (c, t) in sorted(parents.items())
                if c
            ],
            "largest_array_bytes": self.largest_array_bytes,
        }


def _draw_count(recorder: Recorder, arguments, result) -> int:
    recorder.note_array(result)
    return math.prod(arguments["shape"])


def _rows_count(recorder: Recorder, arguments, result) -> int:
    recorder.note_array(arguments["rows"])
    return int(arguments["rows"].size)


def _net_count(recorder: Recorder, arguments, result) -> int:
    recorder.note_array(result[0])
    return int(result[0].shape[0])


def _estimator_count(recorder: Recorder, arguments, result) -> int:
    return arguments["samples"] * arguments["n"]


COUNTERS = {
    "montecarlo.gaussian_draws": _draw_count,
    "gaussian.lp_norm_rows": _rows_count,
    "subspaces.sphere_net": _net_count,
    **{name: _estimator_count for name in ESTIMATORS},
}
