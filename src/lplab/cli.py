"""Command-line front end: reproducible tables from every module.

Output discipline: each run emits a header block echoing the full run
configuration (flags, seed, constants, library version) followed by a
table, either CSV (header lines prefixed '#', RFC-4180 quoting) or a
single JSON object {config, schema_version, rows}, where a non-finite
float is the string "inf", "-inf" or "nan", as in CSV.  A row is a dict
in column order, every row of a table holds the same keys, and the
header is read from the rows; a value that does not apply is None, an
empty CSV cell and a JSON null.  Nothing time- or
host-dependent is ever written, so identical invocations produce
identical bytes; the determinism tests rely on this.

Floats are serialized with 17 significant digits (exact double
round-trip); quantities that live in log-domain additionally get a
log10_* column because MID-regime variances reach 1e-300 scale and
below, where the linear column alone collapses to 0.

Exit codes: 0 success, 1 check failure, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

from . import __version__
from .config import Constants, load_constants
from .errors import LplabError
from .logdomain import LogValue
from .montecarlo import MCEstimate, default_samples, mc_grid_stats
from .orderstats import chernoff_bound, orderstat_cdf_exact
from .gaussian import quantile, quantile_approx, quantile_tail
from .subspaces import transition_sweep
from .variance import (
    auto_p_grid,
    lemma_checks,
    lower_envelope,
    negative_moment_bound,
    predict_variance,
    truncation_level_M,
    upper_envelope,
)

SCHEMA_VERSION = 4


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _json_value(value):
    """Non-finite floats as the strings _fmt writes, which JSON can carry."""
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    return value


def _config_map(args: argparse.Namespace, constants: Constants) -> dict[str, object]:
    config: dict[str, object] = {
        "command": args.command,
        "version": __version__,
        "format": args.format,
    }
    skip = {"command", "format", "output", "constants", "func"}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        config[key] = value
    for field in dataclasses.fields(Constants):
        config[f"constants.{field.name}"] = getattr(constants, field.name)
    return config


def _emit(args: argparse.Namespace, constants: Constants, rows: list[dict[str, object]]) -> None:
    """Write the config header, then the table, whose columns are the keys of its first row."""
    config = _config_map(args, constants)
    columns = list(rows[0])
    buffer = io.StringIO()
    if args.format == "json":
        payload = {
            "config": {k: _json_value(v) for k, v in sorted(config.items())},
            "schema_version": SCHEMA_VERSION,
            "rows": [{col: _json_value(row[col]) for col in columns} for row in rows],
        }
        buffer.write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))
        buffer.write("\n")
    else:
        for key in sorted(config):
            buffer.write(f"# {key}={_fmt(config[key])}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in columns])
    text = buffer.getvalue()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise LplabError(f"cannot write {args.output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _parse_list(text: str, convert, what: str) -> list:
    """Comma-separated values; a malformed or empty list is a usage error."""
    try:
        values = [convert(token.strip()) for token in text.split(",") if token.strip()]
    except ValueError:
        raise LplabError(f"malformed {what} list: {text!r}") from None
    if not values:
        raise LplabError(f"empty {what} list")
    return values


def _p_value(token: str) -> float:
    return math.inf if token in ("inf", "oo") else float(token)


def _parse_p_list(text: str) -> list[float]:
    return _parse_list(text, _p_value, "p")


def _p_grid(args: argparse.Namespace, constants: Constants) -> list[float]:
    if args.p is not None and args.p_grid is not None:
        raise LplabError("give --p or --p-grid, not both")
    if args.p_grid == "auto":
        return auto_p_grid(args.n, constants)
    if args.p_grid is not None:
        return _parse_p_list(args.p_grid)
    if args.p is not None:
        return _parse_p_list(args.p)
    raise LplabError("need --p or --p-grid")


def cmd_quantile(args: argparse.Namespace, constants: Constants) -> int:
    if args.alpha is not None and args.n is not None:
        raise LplabError("give --alpha or --n, not both")
    rows = []
    if args.alpha is not None:
        xi = quantile(args.alpha)
        rows.append({"alpha": args.alpha, "xi": xi, "xi_approx": None, "gap": None})
    elif args.n is not None:
        if args.n < 1:
            raise LplabError(f"need --n >= 1, got {args.n}")
        i = args.i
        if i > args.n:  # before i / n, which can overflow
            raise LplabError("need --i <= --n")
        xi = quantile_tail(i / args.n)
        try:
            approx = quantile_approx(args.n, i)
            gap = xi - approx
        except LplabError:
            approx = None
            gap = None
        rows.append(
            {"alpha": 1.0 - i / args.n, "xi": xi, "xi_approx": approx, "gap": gap}
        )
    else:
        raise LplabError("need --alpha or --n")
    _emit(args, constants, rows)
    return 0


def cmd_predict(args: argparse.Namespace, constants: Constants) -> int:
    rows = []
    for p in _p_grid(args, constants):
        value, point = predict_variance(args.n, p, constants)
        low = lower_envelope(args.n, p, constants)
        high = upper_envelope(args.n, p, constants)
        m_level = truncation_level_M(args.n, p, constants)
        rows.append(
            {
                "n": args.n,
                "p": p,
                "regime": point.regime,
                "predicted": value.to_float(),
                "log10_predicted": value.log10,
                "lower_env": low.to_float(),
                "log10_lower_env": low.log10,
                "upper_env": high.to_float(),
                "log10_upper_env": high.log10,
                "M": m_level.to_float(),
                "p1": point.p1,
                "p2": point.p2,
            }
        )
    _emit(args, constants, rows)
    return 0


def _mc_row(
    args: argparse.Namespace,
    estimate: MCEstimate,
    kind: str,
    p: float | None = None,
    q: float | None = None,
    L: float | None = None,
    T: float | None = None,
    reference: LogValue | None = None,
    value: float | None = None,
) -> dict[str, object]:
    """One `mc` row; ratio is value / reference, empty where the reference
    reads 0.0 as a float, as e^{-778.8} does."""
    ref = None if reference is None else reference.to_float()
    return {
        "kind": kind,
        "n": args.n,
        "p": p,
        "q": q,
        "L": L,
        "T": T,
        "samples": estimate.samples,
        "seed": args.seed,
        "streams": args.streams,
        "mean": estimate.mean,
        "variance": estimate.variance,
        "stderr_mean": estimate.stderr_mean,
        "stderr_variance": estimate.stderr_variance,
        "reference": ref,
        "log10_reference": None if reference is None else reference.log10,
        "ratio": value / ref if ref is not None and ref > 0.0 else None,
    }


def cmd_mc(args: argparse.Namespace, constants: Constants) -> int:
    samples = args.samples if args.samples is not None else default_samples(args.n)
    p_values = _parse_p_list(args.p) if args.p is not None else [2.0]
    negative = None
    if args.negative is not None:
        negative = _parse_list(args.negative, float, "--negative")
        if len(negative) != 2:
            raise LplabError(f"--negative takes q,L, got {args.negative!r}")
        # refuse an out-of-domain bound before spending the samples
        bound = negative_moment_bound(args.n, *negative, constants)
    stats = mc_grid_stats(
        args.n, p_values, samples, args.seed, args.streams, constants, args.truncate, negative
    )
    rows: list[dict[str, object]] = []
    for index, p in enumerate(p_values):
        estimate = stats.norms[index]
        predicted = None
        if args.n >= constants.n_min:
            predicted, _ = predict_variance(args.n, p, constants)
        row = _mc_row(args, estimate, "norm", p, reference=predicted, value=estimate.variance)
        rows.append(row)
        if args.truncate is not None:
            kinds = ("truncated_norm", "gap_squared")
            for kind, part in zip(kinds, stats.truncated[index], strict=True):
                rows.append(_mc_row(args, part, kind, p, T=args.truncate))
    if negative is not None:
        q, L = negative
        T = args.truncate if args.truncate is not None else math.inf
        part = stats.negative
        rows.append(
            _mc_row(args, part, "negative_moment", q=q, L=L, T=T, reference=bound, value=part.mean)
        )
    _emit(args, constants, rows)
    return 0


def cmd_orderstats(args: argparse.Namespace, constants: Constants) -> int:
    rows = []
    for i in _parse_list(args.i, int, "--i"):
        exact = orderstat_cdf_exact(args.n, i, args.beta, constants)
        row: dict[str, object] = {
            "n": args.n,
            "i": i,
            "beta": args.beta,
            "exact": exact.to_float(),
            "log10_exact": exact.log10,
            "chernoff": None,
            "log10_chernoff": None,
        }
        if i <= args.beta * args.n:
            bound = chernoff_bound(args.n, i, args.beta)
            row["chernoff"] = bound.to_float()
            row["log10_chernoff"] = bound.log10
        rows.append(row)
    _emit(args, constants, rows)
    return 0


def cmd_checks(args: argparse.Namespace, constants: Constants) -> int:
    n_values = _parse_list(args.n, int, "--n")
    p_values = None if args.p_grid == "auto" else _parse_p_list(args.p_grid)
    entries = lemma_checks(n_values, p_values, constants)
    rows = [
        {
            "n": entry.n,
            "p": entry.p,
            "check": entry.name,
            "passed": entry.passed,
            "detail": entry.detail,
        }
        for entry in entries
    ]
    _emit(args, constants, rows)
    failures = [entry for entry in entries if not entry.passed]
    for entry in failures:
        print(
            f"check failed: n={entry.n} p={entry.p} {entry.name}: {entry.detail}",
            file=sys.stderr,
        )
    return 1 if failures else 0


def cmd_dvoretzky(args: argparse.Namespace, constants: Constants) -> int:
    deltas = _parse_list(args.delta, float, "--delta")
    rows = []
    sweep = transition_sweep(
        args.n,
        args.k,
        deltas,
        args.trials,
        args.net_resolution,
        args.seed,
        epsilon_sub=args.eps,
        epsilon_super_w=args.eps_w,
        constants=constants,
    )
    for row in sweep:
        result = row.result
        rows.append(
            {
                "delta": row.delta,
                "side": row.side,
                "p": result.p,
                "epsilon": result.epsilon,
                "trials": result.trials,
                "successes": result.successes,
                "failures": result.failures,
                "ambiguous": result.ambiguous,
                "probability": result.probability,
                "wilson_low": result.wilson_low,
                "wilson_high": result.wilson_high,
                "in_window": row.side == "window",
            }
        )
    _emit(args, constants, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lplab",
        description="Variance of p-norms of Gaussian vectors: theory tables,"
        " Monte Carlo estimates, and random-section experiments.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--constants", help="path to a key=value constants file")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--output", help="write to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser(
        "quantile", help="upper quantiles of |g| and the expansion", parents=[common]
    )
    q.add_argument("--alpha", type=float)
    q.add_argument("--n", type=int)
    q.add_argument("--i", type=int, default=1)
    q.set_defaults(func=cmd_quantile)

    pr = sub.add_parser("predict", help="predicted variance and envelopes over p", parents=[common])
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--p")
    pr.add_argument("--p-grid", dest="p_grid")
    pr.set_defaults(func=cmd_predict)

    mc = sub.add_parser("mc", help="Monte Carlo norm statistics", parents=[common])
    mc.add_argument("--n", type=int, required=True)
    mc.add_argument("--p")
    mc.add_argument("--samples", type=int)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--streams", type=int, default=4)
    mc.add_argument("--truncate", type=float)
    mc.add_argument("--negative", help="q,L for a negative-moment estimate")
    mc.set_defaults(func=cmd_mc)

    os_ = sub.add_parser("orderstats", help="order statistic CDF vs bounds", parents=[common])
    os_.add_argument("--n", type=int, required=True)
    os_.add_argument("--beta", type=float, required=True)
    os_.add_argument("--i", default="1")
    os_.set_defaults(func=cmd_orderstats)

    ch = sub.add_parser("checks", help="pointwise lemma checks", parents=[common])
    ch.add_argument("--n", default="1000,10000")
    ch.add_argument("--p-grid", dest="p_grid", default="auto")
    ch.set_defaults(func=cmd_checks)

    dv = sub.add_parser("dvoretzky", help="random-section phase experiments", parents=[common])
    dv.add_argument("--n", type=int, required=True)
    dv.add_argument("--k", type=int, default=2)
    dv.add_argument("--delta", default="0.5")
    dv.add_argument("--trials", type=int, default=400)
    dv.add_argument("--net-resolution", dest="net_resolution", type=float, default=0.004)
    dv.add_argument("--eps", type=float, default=0.1)
    dv.add_argument("--eps-w", dest="eps_w", type=float, default=0.5)
    dv.add_argument("--seed", type=int, default=0)
    dv.set_defaults(func=cmd_dvoretzky)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        constants = load_constants(args.constants)
        return args.func(args, constants)
    except LplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
