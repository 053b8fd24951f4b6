"""Command line interface: schemas, determinism, exit codes, config plumbing."""

import csv
import dataclasses
import hashlib
import io
import json
import math

import pytest

import lplab.cli
from lplab import (
    DEFAULT_CONSTANTS,
    dump_constants,
    orderstat_cdf_exact,
    predict_variance,
    quantile,
    upper_quantile,
)
from lplab.cli import main


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

    def test_needs_alpha_or_n(self, capsys):
        code, _, err = run_cli(capsys, ["quantile"])
        assert code == 2
        assert "error:" in err


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

    def test_needs_p(self, capsys):
        code, _, err = run_cli(capsys, ["predict", "--n", "1000"])
        assert code == 2
        assert "error:" in err


class TestMcCommand:
    def test_byte_determinism(self, capsys):
        argv = ["mc", "--n", "5", "--p", "2", "--samples", "400", "--seed", "3"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    # stdout of two small sweeps, one per net construction (k = 2
    # half-circle grid, k = 3 rings); apart from the dropped
    # lower_validity_C header line, the same bytes as before sections
    # moved onto the Monte Carlo row reducer
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "--n 1000 --k 2 --delta 0,0.5 --trials 6 --seed 3",
                "765f5eed2f27d138a19d8507d637cd7e20be421768f0677d5f48866e2a9a1321",
            ),
            (
                "--n 500 --k 3 --net-resolution 0.1 --delta 0.5 --trials 2 --seed 1",
                "ca75b77fa043845b1ab7171054b82bec02a832fe2e24f9281e491a4fdda6a888",
            ),
        ],
    )
    def test_stdout_golden(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, ["dvoretzky", *argv.split()])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_csv_and_json_agree(self, capsys):
        argv = ["mc", "--n", "5", "--p", "2", "--samples", "400"]
        _, out_csv, _ = run_cli(capsys, argv)
        _, out_json, _ = run_cli(capsys, argv + ["--format", "json"])
        _, rows = parse_csv(out_csv)
        payload = json.loads(out_json)
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

    def test_negative_bound_refused_before_sampling(self, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the bound was checked")

        monkeypatch.setattr(lplab.cli, "mc_grid_stats", no_sampling)
        code, out, err = run_cli(capsys, ["mc", "--n", "50", "--negative", "2,1"])
        assert code == 2
        assert out == ""
        assert "need n >= 100" in err

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

    def test_header_reflects_constants_file(self, capsys, tmp_path):
        tweaked = dataclasses.replace(DEFAULT_CONSTANTS, envelope_cap_C=64.0)
        path = tmp_path / "tweaked.cfg"
        path.write_text(dump_constants(tweaked))
        _, out, _ = run_cli(
            capsys, ["checks", "--n", "1000", "--constants", str(path)]
        )
        header, _ = parse_csv(out)
        assert header["constants.envelope_cap_C"] == "64"


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

    # stdout of two small sweeps, one per net construction (k = 2
    # half-circle grid, k = 3 rings); apart from the dropped
    # lower_validity_C header line, the same bytes as before sections
    # moved onto the Monte Carlo row reducer
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "--n 1000 --k 2 --delta 0,0.5 --trials 6 --seed 3",
                "765f5eed2f27d138a19d8507d637cd7e20be421768f0677d5f48866e2a9a1321",
            ),
            (
                "--n 500 --k 3 --net-resolution 0.1 --delta 0.5 --trials 2 --seed 1",
                "ca75b77fa043845b1ab7171054b82bec02a832fe2e24f9281e491a4fdda6a888",
            ),
        ],
    )
    def test_stdout_golden(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, ["dvoretzky", *argv.split()])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPlumbing:
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

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(
            capsys, ["quantile", "--alpha", "0.01", "--output", str(target)]
        )
        assert code == 0
        assert out == ""
        header, rows = parse_csv(target.read_text())
        assert rows and float(rows[0]["xi"]) == quantile(0.01)

    def test_env_var_constants(self, capsys, tmp_path, monkeypatch):
        tweaked = dataclasses.replace(DEFAULT_CONSTANTS, mc_ratio_hi=7.5)
        path = tmp_path / "env.cfg"
        path.write_text(dump_constants(tweaked))
        monkeypatch.setenv("LPLAB_CONSTANTS", str(path))
        _, out, _ = run_cli(capsys, ["quantile", "--alpha", "0.5"])
        header, _ = parse_csv(out)
        assert header["constants.mc_ratio_hi"] == "7.5"

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
        payload = json.loads(out)
        assert set(payload) == {"config", "rows", "schema_version"}
        assert payload["schema_version"] == 3
        assert payload["rows"][0]["regime"] == "LOW"
        assert "constants.n_min" in payload["config"]
