"""Command line interface: schemas, determinism, exit codes, config plumbing."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import lplab.cli
import lplab.montecarlo
import lplab.orderstats
import lplab.subspaces
from lplab import (
    DEFAULT_CONSTANTS,
    dump_constants,
    orderstat_cdf_exact,
    predict_variance,
    quantile,
    truncation_level_M,
    upper_quantile,
)
from lplab.cli import main


# stdout of small sweeps at k = 2 and k = 3; the first was re-pinned when
# trials became a branch and bound over cells, which settled one of its
# ambiguous window trials (0/4/2 -> 1/4/1 successes/failures/ambiguous),
# and again when the cell bounds became second order, which settled the
# other (1/4/1 -> 2/4/0); the other two are the bytes of the uniform-net
# ladder before both, the third being the benchmark's k = 3 op; every
# digest here was re-pinned when schema version 4 dropped six echoed
# constants, with each output otherwise byte for byte the same; a golden
# test is named by its argv alone, so that a re-pinned digest keeps its name
DVORETZKY_GOLDENS = [
    (
        "--n 1000 --k 2 --delta 0,0.5 --trials 6 --seed 3",
        "750656511655ef17acbc237cf7cd61e5ec8c4ad3d291cdf15668b6b78551f436",
    ),
    (
        "--n 500 --k 3 --net-resolution 0.1 --delta 0.5 --trials 2 --seed 1",
        "96048c16d3aa18ea8823661e37dd6adb7d5b88551c4de666c20c6f0fc45e25b9",
    ),
    (
        "--n 2000 --k 3 --net-resolution 0.05 --delta 0.5 --trials 2 --seed 0",
        "e21b106f03201e751e647a79421908f7e1d650901798939bdf78aaf1dc0f08eb",
    ),
]

# stdout of the analytic commands: the lemma checks of the tails benchmark,
# both predict formats, order statistics and both quantile forms;
# re-pinned for schema version 4 like the sweeps above, the JSON one also
# for its p = "inf", which was the bare token Infinity
STDOUT_GOLDENS = [
    (
        "checks --n 1000,10000,100000,1000000",
        "30b4e05914378ab2bd04070c5b70fa727845f0f70da757a5d369677088903ad9",
    ),
    (
        "predict --n 1000000 --p-grid auto",
        "8cdee68a3481750105662d07591f6b8f7d53ee61b5c8d08d34228f8f46f0ef1e",
    ),
    (
        "predict --n 1000 --p 2,8,12,inf --format json",
        "6cb39831d5adfb01ca954264a0c358b63ed493d8f0d0a86097a2494b6cef5c1f",
    ),
    (
        "orderstats --n 1000000 --beta 0.01 --i 1,100,1000,5000",
        "563441e4fc9f0db73693673a48a5e1a773726f4a51f2b9d749a933e47da2cb91",
    ),
    (
        "quantile --n 1000 --i 3",
        "1de97dc9869590e1b65e4e1a4895343a7b64bb9546761e853f04cbccebefc4bb",
    ),
    (
        "quantile --alpha 0.9",
        "6a9f2953b925e128fbc073d318b5ee56520b61869c675f0377e0a579fd7b889c",
    ),
    # tables whose rows leave cells empty or null: every mc row kind in
    # JSON, an order statistic past beta n with no Chernoff bound in both
    # formats, a sweep in JSON and a quantile whose expansion does not apply
    (
        "mc --n 100 --p 2 --samples 100 --truncate inf --negative 2,1 --format json",
        "bf3e590e8b1cb4b9880c5b909554346be28dac1a681b9a9eae5e3bbb851c91d6",
    ),
    (
        "orderstats --n 100 --beta 0.3 --i 1,17,40",
        "f1f88d7991b04c00dfcc25bc89f0149a4c184142a7cdeb039f7eafc5693089b2",
    ),
    (
        "orderstats --n 100 --beta 0.3 --i 1,17,40 --format json",
        "6aeb19601d5cdaeeee801821be11cdc2d6d3a3dd34db8b06be4c560cdfb55f6f",
    ),
    (
        "dvoretzky --n 1000 --k 2 --delta 0,0.5 --trials 6 --seed 3 --format json",
        "27d214599c456552f09746f41a5e355f07305d2ebf6d21638579c6f76fc24a84",
    ),
    (
        "quantile --n 2 --i 1",
        "bdf1f6a4bbb70a031b26f8a6b45928d9d36d07514a636daffc935b28560481fd",
    ),
]


# the integer 10^320, past the largest double
BIG = "1" + "0" * 320

# every --format json argv of this file, and runs whose rows or config
# hold an infinite float
JSON_ARGVS = [
    "predict --n 1000 --p 2,8,12,inf --format json",
    "predict --n 1000 --p 2 --format json",
    "mc --n 5 --p 2 --samples 400 --format json",
    "mc --n 1000 --p inf --samples 100 --format json",
    "mc --n 100 --p 2 --samples 100 --truncate inf --negative 2,1 --format json",
]


def strict_json(text):
    """json.loads that refuses the non-JSON tokens Infinity, -Infinity and NaN."""

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    header = {}
    data_lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            header[key] = value
        else:
            data_lines.append(line)
    rows = list(csv.DictReader(io.StringIO("\n".join(data_lines))))
    return header, rows


class TestQuantileCommand:
    def test_alpha_row(self, capsys):
        code, out, err = run_cli(capsys, ["quantile", "--alpha", "0.001"])
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["xi"]) == quantile(0.001)
        assert rows[0]["xi_approx"] == ""

    def test_n_row_has_expansion_gap(self, capsys):
        code, out, _ = run_cli(capsys, ["quantile", "--n", "10000"])
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["xi"]) == upper_quantile(10000)
        gap = float(rows[0]["xi"]) - float(rows[0]["xi_approx"])
        assert float(rows[0]["gap"]) == pytest.approx(gap, abs=1e-15)

    def test_header_is_sorted_and_complete(self, capsys):
        _, out, _ = run_cli(capsys, ["quantile", "--alpha", "0.5"])
        header, _ = parse_csv(out)
        keys = list(header)
        assert keys == sorted(keys)
        assert header["command"] == "quantile"
        assert "version" in header
        for field in dataclasses.fields(DEFAULT_CONSTANTS):
            assert f"constants.{field.name}" in header

    @pytest.mark.parametrize("i", ["0", "-3"])
    def test_nonpositive_i_exits_two(self, capsys, i):
        code, out, err = run_cli(capsys, ["quantile", "--n", "1000", "--i", i])
        assert code == 2
        assert out == ""
        assert "tail in (0, 1]" in err

    @pytest.mark.parametrize("n, i", [("0", "1"), ("-4", "-1")])
    def test_nonpositive_n_exits_two(self, capsys, n, i):
        code, out, err = run_cli(capsys, ["quantile", "--n", n, "--i", i])
        assert code == 2
        assert out == ""
        assert "need --n >= 1" in err

    def test_needs_alpha_or_n(self, capsys):
        code, _, err = run_cli(capsys, ["quantile"])
        assert code == 2
        assert "error:" in err

    def test_alpha_with_n_refused(self, capsys):
        # the header would echo an n and i that the alpha row never used
        code, out, err = run_cli(capsys, ["quantile", "--alpha", "0.5", "--n", "10", "--i", "3"])
        assert code == 2 and out == ""
        assert "give --alpha or --n, not both" in err


class TestPredictCommand:
    def test_values_match_library(self, capsys):
        code, out, _ = run_cli(capsys, ["predict", "--n", "1000", "--p", "2,12,inf"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["p"] for r in rows] == ["2", "12", "inf"]
        for row in rows:
            want, point = predict_variance(1000, float(row["p"]))
            assert float(row["predicted"]) == want.to_float()
            assert row["regime"] == point.regime
            assert float(row["lower_env"]) <= float(row["predicted"])
            assert float(row["upper_env"]) >= float(row["predicted"])

    def test_float_format_is_17g(self, capsys):
        _, out, _ = run_cli(capsys, ["predict", "--n", "1000", "--p", "7"])
        _, rows = parse_csv(out)
        want, _ = predict_variance(1000, 7.0)
        assert rows[0]["predicted"] == format(want.to_float(), ".17g")

    def test_auto_grid(self, capsys):
        code, out, _ = run_cli(capsys, ["predict", "--n", "1000", "--p-grid", "auto"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) >= 20
        assert rows[0]["p"] == "1"
        assert rows[-1]["p"] == "inf"

    def test_m_finite_below_the_largest_double(self, capsys):
        # log M is 709.60, past 709 but below log DBL_MAX = 709.78
        n = 3 * int(math.exp(709.0))
        code, out, _ = run_cli(capsys, ["predict", "--n", str(n), "--p", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["M"]) == truncation_level_M(n, 1.0).to_float() < math.inf

    def test_needs_p(self, capsys):
        code, _, err = run_cli(capsys, ["predict", "--n", "1000"])
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "predict --n 1000 --p-grid=",
            "predict --n 1000 --p=",
            "checks --n 1000 --p-grid=",
            "mc --n 100 --p= --samples 10",
        ],
    )
    def test_empty_p_list_refused_alike(self, capsys, argv):
        code, out, err = run_cli(capsys, argv.split())
        assert code == 2 and out == ""
        assert "empty p list" in err


class TestMcCommand:
    def test_byte_determinism(self, capsys):
        argv = ["mc", "--n", "5", "--p", "2", "--samples", "400", "--seed", "3"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_csv_and_json_agree(self, capsys):
        argv = ["mc", "--n", "5", "--p", "2", "--samples", "400"]
        _, out_csv, _ = run_cli(capsys, argv)
        _, out_json, _ = run_cli(capsys, argv + ["--format", "json"])
        _, rows = parse_csv(out_csv)
        payload = strict_json(out_json)
        assert payload["config"]["command"] == "mc"
        assert float(rows[0]["mean"]) == payload["rows"][0]["mean"]
        assert float(rows[0]["variance"]) == payload["rows"][0]["variance"]

    def test_reference_needs_large_n(self, capsys):
        _, out, _ = run_cli(capsys, ["mc", "--n", "5", "--p", "2", "--samples", "200"])
        _, rows = parse_csv(out)
        assert rows[0]["reference"] == ""
        assert rows[0]["ratio"] == ""

    def test_reference_and_ratio_for_large_n(self, capsys):
        _, out, _ = run_cli(
            capsys, ["mc", "--n", "100", "--p", "2", "--samples", "400"]
        )
        _, rows = parse_csv(out)
        want, _ = predict_variance(100, 2.0)
        assert float(rows[0]["reference"]) == want.to_float()
        assert float(rows[0]["ratio"]) == pytest.approx(
            float(rows[0]["variance"]) / want.to_float(), rel=1e-12
        )

    def test_truncate_emits_coupled_rows(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["mc", "--n", "5", "--p", "2", "--samples", "300", "--truncate", "1.5"],
        )
        _, rows = parse_csv(out)
        assert [r["kind"] for r in rows] == ["norm", "truncated_norm", "gap_squared"]
        assert float(rows[1]["mean"]) < float(rows[0]["mean"])
        assert float(rows[2]["mean"]) > 0.0

    def test_negative_moment_row(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["mc", "--n", "200", "--p", "2", "--samples", "300", "--negative", "2,1"],
        )
        _, rows = parse_csv(out)
        neg = [r for r in rows if r["kind"] == "negative_moment"]
        assert len(neg) == 1
        assert float(neg[0]["q"]) == 2.0
        assert float(neg[0]["L"]) == 1.0
        assert neg[0]["T"] == "inf"
        assert float(neg[0]["ratio"]) > 0.0

    def test_negative_bound_below_the_doubles_leaves_ratio_empty(self, capsys):
        # at n = 10^5, q = 1, L = 69 the bound is e^{-778.8}: nonzero, but
        # its float is 0.0, so there is no ratio to print
        code, out, _ = run_cli(
            capsys, ["mc", "--n", "100000", "--negative", "1,69", "--samples", "4"]
        )
        assert code == 0
        _, rows = parse_csv(out)
        neg = [r for r in rows if r["kind"] == "negative_moment"]
        assert float(neg[0]["reference"]) == 0.0
        assert float(neg[0]["log10_reference"]) == pytest.approx(-778.812 / math.log(10.0))
        assert neg[0]["ratio"] == ""

    def test_negative_bound_refused_before_sampling(self, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the bound was checked")

        monkeypatch.setattr(lplab.cli, "mc_grid_stats", no_sampling)
        code, out, err = run_cli(capsys, ["mc", "--n", "50", "--negative", "2,1"])
        assert code == 2
        assert out == ""
        assert "need n >= 100" in err

    @pytest.mark.parametrize(
        "negative, message",
        [("nan,1", "q >= 1"), ("2,nan", "L >= 0"), ("inf,0", "finite q")],
    )
    def test_nan_negative_moment_refused(self, capsys, negative, message):
        code, out, err = run_cli(capsys, ["mc", "--n", "200", "--negative", negative])
        assert code == 2
        assert out == ""
        assert f"need {message}" in err

    def test_zero_samples_is_usage_error(self, capsys):
        # only an absent --samples means the default budget
        code, out, err = run_cli(capsys, ["mc", "--n", "5", "--samples", "0"])
        assert code == 2 and out == ""
        assert "samples" in err

    def test_more_streams_than_samples_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, ["mc", "--n", "5", "--samples", "100", "--streams", "101"]
        )
        assert code == 2 and out == ""
        assert "streams" in err


class TestOrderstatsCommand:
    def test_exact_and_chernoff_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, ["orderstats", "--n", "100", "--beta", "0.3", "--i", "1,17,40"]
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        for row in rows[:2]:
            i = int(row["i"])
            exact = orderstat_cdf_exact(100, i, 0.3)
            assert float(row["exact"]) == exact.to_float()
            assert float(row["chernoff"]) >= float(row["exact"])
        # i = 40 exceeds beta n = 30: no bound applies
        assert rows[2]["chernoff"] == ""

    @pytest.mark.parametrize(
        "n, i, guard",
        [
            # 2·10^9 terms would need about 130 GB of arrays
            ("4000000000", "2000000000", DEFAULT_CONSTANTS.memory_guard_bytes),
            # fits the default guard, so only the constants file refuses it
            ("100000", "20000", 1_048_576),
        ],
    )
    def test_oversized_sum_refused(self, capsys, monkeypatch, tmp_path, n, i, guard):
        def no_arrays(*args, **kwargs):
            raise AssertionError("built an array before the guard")

        path = tmp_path / "guard.cfg"
        path.write_text(
            dump_constants(dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=guard))
        )
        monkeypatch.setattr(lplab.orderstats.np, "arange", no_arrays)
        code, out, err = run_cli(
            capsys,
            ["orderstats", "--n", n, "--beta", "0.5", "--i", i, "--constants", str(path)],
        )
        assert code == 2
        assert out == ""
        assert "exceeds the memory guard" in err


class TestChecksCommand:
    def test_default_grid_passes(self, capsys):
        code, out, err = run_cli(capsys, ["checks", "--n", "1000"])
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert rows and all(r["passed"] == "true" for r in rows)

    def test_bad_constants_exit_one(self, capsys, tmp_path):
        bad = dataclasses.replace(DEFAULT_CONSTANTS, mexpm_lo=0.999, mexpm_hi=1.001)
        path = tmp_path / "bad.cfg"
        path.write_text(dump_constants(bad))
        code, out, err = run_cli(
            capsys, ["checks", "--n", "1000", "--constants", str(path)]
        )
        assert code == 1
        assert "check failed" in err
        _, rows = parse_csv(out)
        assert any(r["passed"] == "false" for r in rows)

    def test_failing_run_bytes_pinned(self, capsys, tmp_path):
        # the run above, byte for byte: every row on stdout, then one
        # stderr line per failed check, in row order
        bad = dataclasses.replace(DEFAULT_CONSTANTS, mexpm_lo=0.999, mexpm_hi=1.001)
        path = tmp_path / "bad.cfg"
        path.write_text(dump_constants(bad))
        code, out, err = run_cli(
            capsys, ["checks", "--n", "1000", "--constants", str(path)]
        )
        assert code == 1
        digests = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
        assert digests == [
            "f89ce3bfc1266aa14ab1a9ae1fb26509d8b2665098cfee85cdcdaea900d89b2c",
            "7ff6c322da08b7acd472098f6dcd1c865a5d1ef279c6f3858e6c39b1c95d6f83",
        ]

    def test_header_reflects_constants_file(self, capsys, tmp_path):
        tweaked = dataclasses.replace(DEFAULT_CONSTANTS, mexpm_hi=64.0)
        path = tmp_path / "tweaked.cfg"
        path.write_text(dump_constants(tweaked))
        _, out, _ = run_cli(
            capsys, ["checks", "--n", "1000", "--constants", str(path)]
        )
        header, _ = parse_csv(out)
        assert header["constants.mexpm_hi"] == "64"


class TestDvoretzkyCommand:
    def test_sweep_rows(self, capsys):
        argv = [
            "dvoretzky",
            "--n", "50",
            "--k", "2",
            "--delta", "0.5",
            "--trials", "2",
            "--net-resolution", "0.1",
            "--seed", "1",
        ]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["side"] for r in rows] == ["sub", "super"]
        log_n = math.log(50)
        assert float(rows[0]["p"]) == pytest.approx(1.5 * log_n)
        assert float(rows[1]["p"]) == pytest.approx(2.5 * log_n)
        for row in rows:
            total = int(row["successes"]) + int(row["failures"]) + int(row["ambiguous"])
            assert total == int(row["trials"]) == 2

    def test_byte_determinism(self, capsys):
        argv = [
            "dvoretzky",
            "--n", "30",
            "--delta", "0.5",
            "--trials", "2",
            "--net-resolution", "0.1",
        ]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    @pytest.mark.parametrize(
        "argv, digest", DVORETZKY_GOLDENS, ids=[a for a, _ in DVORETZKY_GOLDENS]
    )
    def test_stdout_golden(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, ["dvoretzky", *argv.split()])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_stdout_golden_at_any_worker_count(
        self, capsys, monkeypatch, pools, fine_switching, cores
    ):
        monkeypatch.setattr(lplab.montecarlo, "_USABLE_CORES", cores)
        for argv, digest in DVORETZKY_GOLDENS:
            code, out, _ = run_cli(capsys, ["dvoretzky", *argv.split()])
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest
        # one pool per sweep row, one task per worker; the 6-trial rows
        # use every core, the 2-trial rows at most two
        assert pools.tasks == pools.sizes
        assert max(pools.sizes) == cores
        assert pools.sizes[-1] == min(cores, 2)

    @pytest.mark.parametrize(
        "argv, message",
        [
            # at k = 4 the default resolution 0.004 gives 297,160,653 cells
            # of 72 bytes, 0.008 gives 29,414,157
            ("--n 100 --k 4", "memory guard"),
            (
                "--n 10000 --k 4 --delta 0.5 --trials 2",
                "memory guard (2147483648 bytes); the finest resolution that fits is 0.008",
            ),
            ("--n 100 --k 5", "k <= min(n, 4)"),
            ("--n 100 --net-resolution 1.5", "resolution in (0, 1)"),
        ],
    )
    def test_request_refused_before_any_basis(self, capsys, monkeypatch, argv, message):
        def no_basis(*args):
            raise AssertionError("a basis was drawn before the request was checked")

        monkeypatch.setattr(lplab.subspaces, "random_subspace", no_basis)
        code, out, err = run_cli(capsys, ["dvoretzky", *argv.split()])
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("deltas", ["0.5,2.5", "0.5,nan"])
    def test_delta_grid_refused_before_any_row(self, capsys, monkeypatch, deltas):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row ran before the delta grid was checked")

        monkeypatch.setattr(lplab.subspaces, "sphericity_experiment", no_rows)
        code, out, err = run_cli(
            capsys, ["dvoretzky", "--n", "10000", "--delta", deltas, "--trials", "40"]
        )
        assert code == 2 and out == ""
        assert "need delta in [0, 2)" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # log 1 = 0 leaves no p = (2 +- delta) log n and no epsilon = w / log n
            ("--n 1 --k 1 --trials 2", "need n >= 2"),
            # the second row's sub side is p = 0.1 log 3 = 0.11, where ||.||_p is no norm
            ("--n 3 --delta 0.5,1.9", "need p >= 1 or inf, got 0.109"),
            # the super side's epsilon w / log n; the sub row comes first
            ("--n 1000 --k 2 --eps-w inf --delta 0.5 --trials 1", "epsilon > 0, got inf"),
            ("--n 1000 --k 2 --eps-w nan --delta 0.5 --trials 1", "epsilon > 0, got nan"),
        ],
    )
    def test_log_n_and_p_refused_before_any_row(self, capsys, monkeypatch, argv, message):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row ran before the sweep was checked")

        monkeypatch.setattr(lplab.subspaces, "sphericity_experiment", no_rows)
        monkeypatch.setattr(lplab.subspaces, "random_subspace", no_rows)
        code, out, err = run_cli(capsys, ["dvoretzky", *argv.split()])
        assert code == 2 and out == ""
        assert message in err


class TestPlumbing:
    @pytest.mark.parametrize("argv, digest", STDOUT_GOLDENS, ids=[a for a, _ in STDOUT_GOLDENS])
    def test_stdout_golden(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv",
        [
            ["mc", "--n", "5", "--p", "abc", "--samples", "100"],
            ["mc", "--n", "5", "--p", "2", "--samples", "100", "--negative", "1"],
            ["mc", "--n", "5", "--p", "2", "--samples", "100", "--negative", "1,x"],
            ["orderstats", "--n", "100", "--beta", "0.3", "--i", "x"],
            ["dvoretzky", "--n", "30", "--delta", "a", "--trials", "1"],
            ["checks", "--n", "abc"],
            ["predict", "--n", "100", "--p", ","],
        ],
    )
    def test_malformed_list_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (f"predict --n {BIG} --p 2", 0),
            (f"checks --n {BIG}", 2),
            (f"quantile --n {BIG} --i 1", 0),
            (f"quantile --n 10 --i {BIG}", 2),
            ("orderstats --n 100000000000000000000 --beta 0.5 --i 1", 0),
            # n log(1 - beta) is -6.9e319, no double
            (f"orderstats --n {BIG} --beta 0.5 --i 1", 2),
            ("checks --n 0 --p-grid 2", 2),
        ],
        ids=[
            "predict", "checks", "quantile-n", "quantile-i", "orderstats-1e20",
            "orderstats-1e320", "checks-n0",
        ],
    )
    def test_huge_integers_exit_without_traceback(self, capsys, argv, code):
        # 10^20 is past int64; each argv is refused with a message or
        # prints finite numbers
        got, out, err = run_cli(capsys, argv.split())
        assert got == code
        if code == 2:
            assert out == "" and err.startswith("error:")
            return
        _, rows = parse_csv(out)
        # n itself is no double; every computed column must be finite
        values = [float(v) for row in rows for k, v in row.items() if k not in ("n", "regime")]
        assert rows and all(math.isfinite(v) for v in values)

    def test_checks_true_or_refused_up_to_1e153(self, capsys):
        # up to p2 the mexpm_containment log ratio is 1/2 in closed form;
        # formed as a difference of terms of size n^{2/p}, it overflowed
        # at n = 10^10 and read false at 10^33 and 10^153
        for k in range(3, 154):
            code, out, err = run_cli(capsys, ["checks", "--n", "1" + "0" * k])
            if code == 2:
                assert out == "" and err.startswith("error:"), k
                continue
            _, rows = parse_csv(out)
            assert code == 0 and rows, k
            assert all(row["passed"] == "true" for row in rows), k

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(
            capsys, ["quantile", "--alpha", "0.01", "--output", str(target)]
        )
        assert code == 0
        assert out == ""
        header, rows = parse_csv(target.read_text())
        assert rows and float(rows[0]["xi"]) == quantile(0.01)

    @pytest.mark.parametrize("name", ["missing/out.csv", ""], ids=["missing-dir", "a-directory"])
    def test_unwritable_output_exits_two(self, capsys, tmp_path, name):
        # a path under a directory that does not exist, and the directory itself
        target = tmp_path / name
        argv = ["mc", "--n", "1000", "--p", "2", "--samples", "10", "--output", str(target)]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")

    def test_missing_constants_file_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, ["quantile", "--alpha", "0.5", "--constants", "/nonexistent.cfg"]
        )
        assert code == 2
        assert "error:" in err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["predict"])
        assert excinfo.value.code == 2

    def test_json_payload_shape(self, capsys):
        _, out, _ = run_cli(
            capsys, ["predict", "--n", "1000", "--p", "2", "--format", "json"]
        )
        payload = strict_json(out)
        assert set(payload) == {"config", "rows", "schema_version"}
        assert payload["schema_version"] == 4
        assert payload["rows"][0]["regime"] == "LOW"
        assert "constants.n_min" in payload["config"]

    @pytest.mark.parametrize("argv", JSON_ARGVS)
    def test_json_is_strict(self, capsys, argv):
        # a non-finite float is written as in CSV, so a strict parser
        # reads every output and float() recovers the value
        code, out, _ = run_cli(capsys, argv.split())
        assert code == 0
        payload = strict_json(out)
        assert payload["schema_version"] == 4
        if "--p inf" in argv:
            assert [float(row["p"]) for row in payload["rows"]] == [math.inf]
        if "--truncate inf" in argv:
            assert payload["config"]["truncate"] == "inf"
            assert [row["T"] for row in payload["rows"]][-1] == "inf"

    def test_non_finite_floats_spelled_as_in_csv(self):
        assert [lplab.cli._json_value(v) for v in (math.inf, -math.inf, math.nan)] == [
            "inf", "-inf", "nan",
        ]
        assert [lplab.cli._json_value(v) for v in (1.5, 2, None, "x")] == [1.5, 2, None, "x"]


# argvs refused with exit 2 and a message, before any section is drawn;
# a check that would check nothing is refused rather than printing an
# empty table, and a sweep whose super-critical row seed (seed + 500)
# passes 64 bits is refused before its sub-critical row runs; an empty
# mc --p or --negative is refused like every other empty list, and a
# predict given both --p and --p-grid, whose header would echo a p that
# its table never used
REFUSED_ARGVS = [
    "checks --n 1000 --p-grid inf",
    "checks --n 1000 --p-grid 100",
    "dvoretzky --n 10000 --k 2 --delta 0.5 --trials 400 --seed 18446744073709551516",
    "mc --n 100 --p= --samples 10",
    "mc --n 100 --negative= --samples 10",
    "predict --n 1000 --p 2 --p-grid 3",
]


@pytest.mark.parametrize("argv", REFUSED_ARGVS)
def test_refused_argv_exits_two(capsys, monkeypatch, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("a section was drawn before the refusal")

    monkeypatch.setattr(lplab.subspaces, "random_subspace", unreachable)
    code, out, err = run_cli(capsys, argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# edge tokens for every option; samples, trials and resolutions stay
# small so that no accepted argv runs long
INTS = ["0", "-1", "1", "2", "3", "100", "1000", "100000000000000000000", BIG, "1.5", "nan"]
FLOATS = ["0", "-1", "0.5", "1", "1.5", "2", "7", "1000", "100000000000000000000", BIG, "nan",
          "inf", "-inf", "5e-324", "1e-300", "1e308"]
LISTS = ["", ",", "1,,2", "2,x", "2", "1,2", "2,inf", "0.5,1.5", "inf", "nan", "auto"]
FUZZ_OPTIONS = {
    "quantile": {"--alpha": FLOATS, "--n": INTS, "--i": INTS},
    "predict": {"--n": INTS, "--p": FLOATS + LISTS, "--p-grid": FLOATS + LISTS},
    "mc": {
        "--n": ["1", "2", "5", "100", "1000", "100000000000000000000", BIG, "-1", "0"],
        "--p": FLOATS + LISTS,
        "--samples": ["0", "-1", "1", "2", "3", "50"],
        "--seed": INTS,
        "--streams": ["0", "-1", "1", "2", "3", "60"],
        "--truncate": FLOATS,
        "--negative": LISTS + ["2,1", "nan,1", "inf,0", "2,-1", "1e308,1e308", "6.9,1", "1,2,3"],
    },
    "orderstats": {
        "--n": INTS,
        "--beta": FLOATS + ["0.3", "0.999"],
        "--i": LISTS + INTS + ["1,3", "5,2", "0,1"],
    },
    "checks": {
        "--n": LISTS + INTS + ["1000,10000", "100,0"],
        "--p-grid": FLOATS + LISTS + ["100", "1,2,inf", "0.5"],
    },
    "dvoretzky": {
        "--n": ["1", "2", "3", "30", "1000", "100000000000000000000", BIG, "0", "-1"],
        "--k": ["0", "-1", "1", "2", "3", "4", "5", BIG],
        "--delta": LISTS + ["0", "0,0.5", "2.5", "-0.5", "1.9"],
        "--trials": ["0", "-1", "1", "2"],
        "--net-resolution": ["0.1", "0.3", "0.5", "0", "-1", "1.5", "nan", "inf", "5e-324"],
        "--eps": FLOATS,
        "--eps-w": FLOATS,
        "--seed": INTS,
    },
}
# the required options, and those whose defaults run long (100,000
# samples, 400 trials, resolution 0.004)
ALWAYS = {
    "predict": {"--n"},
    "mc": {"--n", "--samples"},
    "orderstats": {"--n", "--beta"},
    "dvoretzky": {"--n", "--trials", "--net-resolution"},
}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    argv = [command]
    for option, values in FUZZ_OPTIONS[command].items():
        if option in ALWAYS.get(command, ()) or draw(st.booleans()):
            argv += [option, draw(st.sampled_from(values))]
    return argv + ["--format", draw(st.sampled_from(["csv", "json"]))]


@pytest.fixture(scope="module")
def small_guard(tmp_path_factory):
    path = tmp_path_factory.mktemp("guard") / "guard.cfg"
    path.write_text(
        dump_constants(dataclasses.replace(DEFAULT_CONSTANTS, memory_guard_bytes=64 << 20))
    )
    return str(path)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(argv=cli_argvs())
def test_fuzzed_argvs_exit_cleanly(small_guard, argv):
    # any argv exits 0 or 2, or 1 for a failed check, with no exception;
    # output is written only on success, and JSON output is strict
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--constants", small_guard])
        except SystemExit as exc:  # argparse refuses a malformed option
            code = exc.code
    if code == 1:
        assert argv[0] == "checks" and "check failed:" in err.getvalue(), argv
    else:
        assert code in (0, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
    elif "json" in argv:
        strict_json(out.getvalue())
