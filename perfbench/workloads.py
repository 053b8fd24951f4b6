"""The benchmark workloads: their operations, sizes and correctness oracles.

An operation returns (exit code, output bytes).  CLI operations run
`lplab.cli.main` in this process and capture its stdout; library
operations serialize their results exactly (repr of floats, raw array
bytes), so a repeat with the same seed must return identical bytes.

Each oracle is cheap and independent of the code path it checks: closed
chi-law moments, scipy's binomial and normal-quantile functions, direct
norms over random directions.  An oracle returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import logsumexp, ndtri_exp
from scipy.stats import binom

import lplab.cli
import lplab.montecarlo
import lplab.orderstats
from lplab.montecarlo import RngStream
from lplab.subspaces import distortion, random_subspace
from lplab.variance import small_ball_bound

# sizes: one pass takes about 2 s (mc-grid), 3.5 s (tails) or 5 s (sections)
# on 2 cores; small-ball samples are enough that its numpy draws, not the
# interpreter-bound quantile sum, take most of the tails pass
MC_N = 1000
MC_SAMPLES = 4000
MC_P = "2,8,12,inf"
MC_ESTIMATOR_CALLS = 9  # norm and truncated per p, plus one negative moment
SECTIONS_K2_TRIALS = 20
SECTIONS_K3_TRIALS = 2
SMALL_BALL_N = 100_000
SMALL_BALL_SAMPLES = 480
TOP_N = 1_000_000
TOP_K = 200
TOP_STREAMS = 20
# rng stream offsets of the oracles, disjoint from any stream the ops use
ORACLE_STREAM = 1 << 40

Output = tuple[int, bytes]


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Output]
    check: Callable[[Output], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # items delivered per pass, and the ops whose time delivers them
    items: int
    item_ops: tuple[str, ...]
    item_kind: str
    # settled fraction from the reference outputs (1.0 where no verdict
    # can be left undecided)
    settled: Callable[[dict[str, Output]], float]


def _cli(argv: list[str]) -> Callable[[], Output]:
    def run() -> Output:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            code = lplab.cli.main(argv)
        return code, buffer.getvalue().encode()

    return run


def _table(output: Output) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Header constants and rows of a CSV table printed by the CLI."""
    lines = output[1].decode().splitlines()
    header = dict(
        line[2:].split("=", 1) for line in lines if line.startswith("# ") and "=" in line
    )
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    return header, rows


def _exit_ok(output: Output) -> list[str]:
    return [] if output[0] == 0 else [f"exit code {output[0]}"]


# -- mc-grid -------------------------------------------------------------


def _check_mc(output: Output) -> list[str]:
    problems = _exit_ok(output)
    header, rows = _table(output)
    if len(rows) != 3 * len(MC_P.split(",")) + 1:
        problems.append(f"expected 13 rows, got {len(rows)}")
    lo = float(header["constants.mc_ratio_lo"])
    hi = float(header["constants.mc_ratio_hi"])
    for row in rows:
        if int(row["samples"]) != MC_SAMPLES:
            problems.append(f"{row['kind']} p={row['p']}: samples {row['samples']}")
        if row["ratio"] and not lo <= float(row["ratio"]) <= hi:
            problems.append(f"{row['kind']} p={row['p']}: ratio {row['ratio']} not in [{lo}, {hi}]")
    # ||G||_2 is chi with n degrees of freedom
    chi_mean = math.sqrt(2.0) * math.exp(math.lgamma((MC_N + 1) / 2) - math.lgamma(MC_N / 2))
    chi_var = MC_N - chi_mean * chi_mean
    p2 = [r for r in rows if r["kind"] == "norm" and float(r["p"]) == 2.0]
    if len(p2) != 1:
        return problems + ["no single p = 2 norm row"]
    row = p2[0]
    for column, exact in (("mean", chi_mean), ("variance", chi_var)):
        error = abs(float(row[column]) - exact)
        if not error <= 5.0 * float(row[f"stderr_{column}"]):
            problems.append(f"p=2 {column} {row[column]} vs chi law {exact}: off by > 5 stderr")
    return problems


def mc_grid(seed: int) -> Workload:
    argv = ["mc", "--n", str(MC_N), "--p", MC_P, "--truncate", "3.5",
            "--negative", "6.9,1.0", "--samples", str(MC_SAMPLES),
            "--seed", str(seed), "--streams", "4"]
    return Workload(
        name="mc-grid",
        ops=(Op("mc", _cli(argv), _check_mc),),
        items=MC_ESTIMATOR_CALLS * MC_SAMPLES,
        item_ops=("mc",),
        item_kind="vectors_per_s: Gaussian vectors summarized per second of MC op time",
        settled=lambda outputs: 1.0,
    )


# -- sections ------------------------------------------------------------


def _sections_check(n: int, k: int, trials: int, resolution: float, seed: int):
    def check(output: Output) -> list[str]:
        problems = _exit_ok(output)
        _, rows = _table(output)
        for index, row in enumerate(rows):
            counts = [int(row[c]) for c in ("trials", "successes", "failures", "ambiguous")]
            if counts[0] != trials or sum(counts[1:]) != counts[0]:
                problems.append(f"row {index}: counts {counts} do not add up to {trials} trials")
            # certification holds on a fresh subspace at this row's p
            rng = RngStream(seed, ORACLE_STREAM + index).generator()
            basis = random_subspace(n, k, rng)
            p = float(row["p"])
            result = distortion(basis, p, resolution)
            directions = rng.standard_normal((512, k))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            ambient = directions @ basis.columns.T
            norms = (np.abs(ambient) ** p).sum(axis=1) ** (1.0 / p)
            sampled = norms.max() / norms.min()
            if not result.certified_upper >= result.distortion:
                problems.append(f"row {index}: certified_upper < distortion")
            if not sampled <= result.certified_upper * (1.0 + 1e-9):
                problems.append(
                    f"row {index}: sampled distortion {sampled} exceeds certified upper"
                    f" {result.certified_upper}"
                )
        return problems

    return check


def _settled(outputs: dict[str, Output]) -> float:
    trials = settled = 0
    for output in outputs.values():
        for row in _table(output)[1]:
            trials += int(row["trials"])
            settled += int(row["successes"]) + int(row["failures"])
    return settled / trials if trials else 0.0


def sections(seed: int) -> Workload:
    k2 = ["dvoretzky", "--n", "10000", "--k", "2", "--delta", "0.25,0.5",
          "--trials", str(SECTIONS_K2_TRIALS), "--seed", str(seed)]
    k3 = ["dvoretzky", "--n", "2000", "--k", "3", "--net-resolution", "0.05",
          "--delta", "0.5", "--trials", str(SECTIONS_K3_TRIALS), "--seed", str(seed)]
    return Workload(
        name="sections",
        ops=(
            Op("dvoretzky-k2", _cli(k2),
               _sections_check(10000, 2, SECTIONS_K2_TRIALS, 0.004, seed)),
            Op("dvoretzky-k3", _cli(k3),
               _sections_check(2000, 3, SECTIONS_K3_TRIALS, 0.05, seed)),
        ),
        items=4 * SECTIONS_K2_TRIALS + 2 * SECTIONS_K3_TRIALS,
        item_ops=("dvoretzky-k2", "dvoretzky-k3"),
        item_kind="trials_per_s: random-subspace trials decided per second",
        settled=_settled,
    )


# -- tails ---------------------------------------------------------------


def _check_checks(output: Output) -> list[str]:
    problems = _exit_ok(output)
    _, rows = _table(output)
    if not rows:
        problems.append("no checks ran")
    problems += [
        f"n={r['n']} p={r['p']} {r['check']} failed" for r in rows if r["passed"] != "true"
    ]
    return problems


def _small_ball(seed: int) -> Callable[[], Output]:
    def run() -> Output:
        est = lplab.montecarlo.mc_small_ball(
            SMALL_BALL_N, 2.0, 0.25, math.inf, SMALL_BALL_SAMPLES, seed
        )
        fields = {
            name: repr(getattr(est, name))
            for name in (
                "probability", "wilson_low", "wilson_high", "successes", "samples", "log_threshold"
            )
        }
        return 0, json.dumps(fields, sort_keys=True).encode()

    return run


def _check_small_ball(output: Output) -> list[str]:
    fields = {k: float(v) for k, v in json.loads(output[1]).items()}
    problems = []
    samples, successes = fields["samples"], fields["successes"]
    if samples != SMALL_BALL_SAMPLES or not 0 <= successes <= samples:
        problems.append(f"counts {successes}/{samples}")
    if not fields["wilson_low"] <= fields["probability"] <= fields["wilson_high"]:
        problems.append("probability outside its Wilson interval")
    bound = small_ball_bound(SMALL_BALL_N, 2.0, 0.25).to_float()
    if not fields["wilson_low"] <= bound:
        problems.append(f"Wilson lower end {fields['wilson_low']} above the bound {bound}")
    # threshold: log(tau) + log sum_i xi_{1-i/n}^2, quantiles from scipy
    i = np.arange(1, SMALL_BALL_N)
    xi = -ndtri_exp(np.log(i / SMALL_BALL_N) - math.log(2.0))
    expected = math.log(0.25) + float(logsumexp(2.0 * np.log(xi)))
    if not abs(fields["log_threshold"] - expected) <= 1e-12 * abs(expected):
        problems.append(f"log threshold {fields['log_threshold']} vs scipy {expected}")
    return problems


def _top_orderstats(seed: int) -> Callable[[], Output]:
    def run() -> Output:
        draws = [
            lplab.orderstats.sample_top_orderstats(TOP_N, TOP_K, RngStream(seed, s).generator())
            for s in range(TOP_STREAMS)
        ]
        return 0, np.stack(draws).tobytes()

    return run


def _check_top(seed: int):
    def check(output: Output) -> list[str]:
        values = np.frombuffer(output[1], dtype=np.float64).reshape(TOP_STREAMS, TOP_K)
        problems = []
        if not (np.isfinite(values).all() and (values > 0.0).all()):
            problems.append("non-finite or non-positive order statistics")
        if (np.diff(values, axis=1) > 0.0).any():
            problems.append("top order statistics are not non-increasing")
        # the quantile primitive the sampler maps through, against scipy
        tails = 10.0 ** (-300.0 * np.random.default_rng(seed).random(8))
        for t in tails:
            value = lplab.orderstats.quantile_tail(float(t))
            expected = -float(ndtri_exp(math.log(t / 2.0)))
            if not abs(value - expected) <= 1e-12 * max(expected, 1.0):
                problems.append(f"quantile_tail({t}) = {value} vs scipy {expected}")
        return problems

    return check


def _check_orderstats(output: Output) -> list[str]:
    problems = _exit_ok(output)
    _, rows = _table(output)
    for row in rows:
        n, i, beta = int(row["n"]), int(row["i"]), float(row["beta"])
        expected = float(binom.logcdf(i - 1, n, beta))
        if not math.isfinite(expected):
            # logcdf underflows this far out; sum the log pmf instead
            expected = float(logsumexp(binom.logpmf(np.arange(i), n, beta)))
        value = float(row["log10_exact"]) * math.log(10.0)
        if not abs(value - expected) <= 1e-7 + 1e-12 * abs(expected):
            problems.append(f"i={i}: log cdf {value} vs scipy {expected}")
    return problems


def tails(seed: int) -> Workload:
    return Workload(
        name="tails",
        ops=(
            Op("checks", _cli(["checks", "--n", "1000,10000,100000,1000000"]), _check_checks),
            Op("small-ball", _small_ball(seed), _check_small_ball),
            Op("top-orderstats", _top_orderstats(seed), _check_top(seed)),
            Op("orderstats", _cli(["orderstats", "--n", "1000000", "--beta", "0.01",
                                   "--i", "1,100,1000,5000"]), _check_orderstats),
        ),
        items=SMALL_BALL_SAMPLES,
        item_ops=("small-ball",),
        item_kind="vectors_per_s: Gaussian vectors summarized per second of MC op time",
        settled=lambda outputs: 1.0,
    )


WORKLOADS = {"mc-grid": mc_grid, "sections": sections, "tails": tails}
