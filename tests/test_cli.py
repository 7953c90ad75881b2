"""End-to-end checks for the command-line interface."""

import csv
import io
import json
import math
import os
import re

import pytest

from transel.cli import SEED_ENV_VAR, main
from transel.harness import RECORD_COLUMNS, SCHEMA_VERSION


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def _write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


_STAIRCASE = {"family": "threshold_nn", "params": {"rhos": [1.0]}}
_GAP = {"family": "gap", "n_source_grid": [32], "n_target_grid": [1]}
_FIXED_CLASS = {"beta_p": 0.5, "beta_q": 0.5, "rho": 2.0, "alpha": 0.1}


def _curve_cfg(tmp_path, base_seed=5, name="curve.json"):
    return _write_cfg(
        tmp_path,
        name,
        {
            "kind": "rate_curve",
            "family": "threshold_nn",
            "params": {"rhos": [1.0]},
            "n_source_grid": [40],
            "n_target_grid": [20],
            "replicates": 2,
            "base_seed": base_seed,
        },
    )


def _read_csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == f"# schema={SCHEMA_VERSION}"
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


class TestParsing:
    def test_run_requires_config(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["explode"])

    def test_bad_format_value(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--config", _curve_cfg(tmp_path), "--format", "xml"])

    def test_config_typo_exits_with_message(self, tmp_path):
        payload = {"family": "threshold_nn", "family_params": {"rhos": [1.0]}}
        path = _write_cfg(tmp_path, "typo.json", payload)
        with pytest.raises(SystemExit, match="family_params"):
            main(["run", "--config", path])

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"params": {"rhos": [1.0]}}, "error: config is missing keys: family"),
            (
                {"family": "threshold_nn", "params": {"rhos": [1.0]}, "selection": {"Cc": 2.0}},
                "error: unknown selection keys: Cc",
            ),
            ([{"family": "threshold_nn"}], "error: config .* is not a JSON object"),
            ({**_STAIRCASE, "n_source_grid": "100"}, "error: n_source_grid must be a list"),
            ({**_STAIRCASE, "replicates": "5"}, "error: replicates must be an integer"),
            ({**_STAIRCASE, "replicates": True}, "error: replicates must be an integer"),
            ({**_STAIRCASE, "selection": {"C": "x"}}, "error: C, c and delta must be numbers"),
            ({**_STAIRCASE, "selection": {"budget": 1.5}}, "error: budget and L_max must be integers"),
            ({**_STAIRCASE, "selection": [1]}, "error: selection must be an object"),
            ({**_STAIRCASE, "params": [1, 2]}, "error: params must be an object"),
            ({**_STAIRCASE, "n_source_grid": [100.5]}, "error: sample sizes must be nonnegative integers"),
            ({**_STAIRCASE, "params": {"rhos": "124"}}, "error: rhos must be a list of numbers"),
            ({**_STAIRCASE, "learners": [1, "a"]}, r"error: unknown learners \['a', 1\]"),
            ({"family": "two_point", "params": {"alpha": "0.01"}}, "error: alpha must be a number"),
            ({"family": "fixed_class", "params": {**_FIXED_CLASS, "d": "9"}},
             "error: d must be an integer"),
            ({"family": "fixed_class", "params": {**_FIXED_CLASS, "d": 9.7}},
             "error: d must be an integer"),
            ({**_GAP, "params": {"rho_a": 2.0, "rho_b": True}}, "error: rho_b must be a number"),
            ({**_GAP, "params": {"rho_a": 2.0, "rho_b": 1.0, "enforce_regime": "false"}},
             "error: enforce_regime must be true or false"),
            ({**_GAP, "params": {"rho_a": 2.0, "rho_b": 1.0, "enforce_regim": False}},
             "error: unknown params for family 'gap': enforce_regim"),
            ({**_STAIRCASE, "params": {"rhos": [1.0], "coef_grid": [1.0]}},
             "error: unknown params for family 'threshold_nn': coef_grid"),
            ({**_STAIRCASE, "base_seed": "5"}, "error: base_seed must be an integer"),
            ({**_STAIRCASE, "base_seed": 5.0}, "error: base_seed must be an integer"),
            ({**_STAIRCASE, "base_seed": None}, "error: base_seed must be an integer"),
            ({**_STAIRCASE, "base_seed": True}, "error: base_seed must be an integer"),
            ({**_STAIRCASE, "learners": [["oracle"]]}, r"error: unknown learners \[\['oracle'\]\]"),
            ({**_STAIRCASE, "learners": []}, "error: learners must be nonempty"),
            ({**_STAIRCASE, "learners": ["oracle", "oracle"]}, "error: learners must not repeat"),
            ({**_STAIRCASE, "out_dir": 5}, "error: out_dir must be a string or null"),
            ({**_STAIRCASE, "family": ["gap"]}, "error: family must be a string"),
            ({**_STAIRCASE, "family": {"a": 1}}, "error: family must be a string"),
            ({**_STAIRCASE, "selection": {"C": math.nan}}, "error: C and c must be finite"),
            ({**_STAIRCASE, "selection": {"c": math.inf}}, "error: C and c must be finite"),
            ({"family": "fixed_class", "params": {**_FIXED_CLASS, "d": 9, "rho": math.inf}},
             "error: rho must be finite"),
            ({**_STAIRCASE, "params": {"rhos": [math.inf]}}, "error: rhos must be finite"),
            ({"family": "two_point", "params": {"alpha": 10**400}}, "error: alpha must be finite"),
            ({**_STAIRCASE, "params": {"rhos": [600]}},
             "error: level 1's source mass underflows to 0 at rho 600"),
            ({**_STAIRCASE, "params": {"rhos": [1, 2]}, "n_source_grid": [1000000],
              "replicates": 3, "selection": {"L_max": 0}},
             r"error: oracle level 2 of cell \(sigma -, n_source 1000000, n_target 1\) "
             "is above selection.L_max 0"),
        ],
        ids=["missing_family", "unknown_selection_key", "not_an_object", "grid_string",
             "replicates_string", "replicates_bool", "C_string", "budget_float", "selection_list",
             "params_list", "fractional_size", "rhos_string", "learners_mixed", "alpha_string",
             "d_string", "d_fractional", "rho_b_bool", "enforce_regime_string", "unknown_param",
             "coef_grid_outside_calibrate", "base_seed_string", "base_seed_float",
             "base_seed_null", "base_seed_bool", "learners_nested", "learners_empty",
             "learners_repeated", "out_dir_number", "family_list", "family_object", "C_nan",
             "c_infinity", "rho_infinity", "rhos_infinity", "alpha_past_float_range",
             "rhos_underflow", "oracle_above_L_max"],
    )
    def test_bad_config_is_one_line_error(self, tmp_path, payload, message):
        path = _write_cfg(tmp_path, "bad.json", payload)
        with pytest.raises(SystemExit, match=message) as exc:
            main(["run", "--config", path])
        assert "\n" not in str(exc.value.code)

    def test_calibrate_coef_grid_string_is_one_line_error(self, tmp_path):
        payload = {**_STAIRCASE, "params": {"rhos": [1.0], "coef_grid": "12"}}
        path = _write_cfg(tmp_path, "bad.json", payload)
        with pytest.raises(SystemExit, match="error: coef_grid must be a list of numbers") as exc:
            main(["calibrate", "--config", path])
        assert "\n" not in str(exc.value.code)

    def test_calibrate_coef_grid_nan_is_one_line_error(self, tmp_path):
        payload = {**_STAIRCASE, "params": {"rhos": [1.0], "coef_grid": [1.0, math.nan]}}
        path = _write_cfg(tmp_path, "bad.json", payload)
        # The grid reaches SelectionConfig's C and c, which reject NaN.
        with pytest.raises(SystemExit, match="error: C and c must be finite") as exc:
            main(["calibrate", "--config", path])
        assert "\n" not in str(exc.value.code)

    def test_non_integer_seed_env_var_is_one_line_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        with pytest.raises(SystemExit, match=f"error: {SEED_ENV_VAR} must be an integer") as exc:
            main(["run", "--config", _curve_cfg(tmp_path)])
        assert "\n" not in str(exc.value.code)

    def test_missing_config_file_is_one_line_error(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(SystemExit, match=re.escape(f"error: cannot read config {path}")) as exc:
            main(["run", "--config", str(path)])
        assert "\n" not in str(exc.value.code)


class TestRunCommand:
    def test_writes_records_and_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", _curve_cfg(tmp_path), "--out", str(out)])
        assert code == 0
        rows = _read_csv_rows(out / "records.csv")
        assert len(rows) == 2 * 3
        assert tuple(rows[0]) == RECORD_COLUMNS
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema"] == SCHEMA_VERSION
        assert summary["kind"] == "rate_curve"
        stdout = capsys.readouterr().out
        assert f"wrote {out / 'records.csv'}" in stdout
        assert f"wrote {out / 'summary.json'}" in stdout

    def test_replicates_override(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", _curve_cfg(tmp_path), "--out", str(out),
              "--replicates", "4"])
        assert len(_read_csv_rows(out / "records.csv")) == 4 * 3

    def test_json_format(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", _curve_cfg(tmp_path), "--out", str(out),
              "--format", "json"])
        assert not (out / "records.csv").exists()
        rows = json.loads((out / "records.json").read_text())
        assert len(rows) == 2 * 3
        assert set(rows[0]) == set(RECORD_COLUMNS)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _curve_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(out_a)])
        main(["run", "--config", cfg, "--out", str(out_b)])
        assert (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_no_out_dir_writes_nothing(self, tmp_path, capsys):
        cwd_before = set(os.listdir(tmp_path))
        code = main(["run", "--config", _curve_cfg(tmp_path)])
        assert code == 0
        assert "wrote" not in capsys.readouterr().out
        assert {p for p in os.listdir(tmp_path) if not p.endswith(".json")} == {
            p for p in cwd_before if not p.endswith(".json")
        }


class TestSeedPrecedence:
    def _csv_bytes(self, tmp_path, argv, sub):
        out = tmp_path / sub
        main(argv + ["--out", str(out)])
        return (out / "records.csv").read_bytes()

    def test_flag_overrides_config(self, tmp_path):
        flagged = self._csv_bytes(
            tmp_path, ["run", "--config", _curve_cfg(tmp_path), "--seed", "3"], "a"
        )
        direct = self._csv_bytes(
            tmp_path,
            ["run", "--config", _curve_cfg(tmp_path, base_seed=3, name="c3.json")],
            "b",
        )
        baseline = self._csv_bytes(
            tmp_path, ["run", "--config", _curve_cfg(tmp_path)], "c"
        )
        assert flagged == direct
        assert flagged != baseline

    def test_env_var_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "3")
        env_run = self._csv_bytes(
            tmp_path, ["run", "--config", _curve_cfg(tmp_path)], "a"
        )
        direct = self._csv_bytes(
            tmp_path,
            ["run", "--config", _curve_cfg(tmp_path, base_seed=3, name="c3.json")],
            "b",
        )
        assert env_run == direct

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "11")
        flagged = self._csv_bytes(
            tmp_path, ["run", "--config", _curve_cfg(tmp_path), "--seed", "3"], "a"
        )
        monkeypatch.delenv(SEED_ENV_VAR)
        direct = self._csv_bytes(
            tmp_path,
            ["run", "--config", _curve_cfg(tmp_path, base_seed=3, name="c3.json")],
            "b",
        )
        assert flagged == direct


class TestSummaryOnlyCommands:
    def test_verify(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path,
            "verify.json",
            {
                "kind": "verify",
                "family": "two_point",
                "params": {"alpha": 0.01},
                "n_target_grid": [50],
                "base_seed": 7,
            },
        )
        out = tmp_path / "out"
        code = main(["verify", "--config", cfg, "--out", str(out)])
        assert code == 0
        assert not (out / "records.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_pass"] is True
        assert "verify two_point: 9 checks PASS" in capsys.readouterr().out

    def test_verify_failure_exit_code(self, tmp_path, capsys):
        # rhos (1, 8) fails 4 of its 15 checks
        cfg = _write_cfg(
            tmp_path,
            "verify.json",
            {
                "kind": "verify",
                "family": "threshold_nn",
                "params": {"rhos": [1.0, 8.0]},
                "n_source_grid": [1000],
                "n_target_grid": [100],
            },
        )
        assert main(["verify", "--config", cfg]) == 1
        stdout = capsys.readouterr().out
        assert "verify threshold_nn: 15 checks FAIL" in stdout
        assert stdout.count("  failed: ") == 4

    def test_erm_check_runs_without_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["erm-check", "--seed", "4", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kind"] == "erm_check"
        assert summary["ok"] is True
        assert "all matched" in capsys.readouterr().out

    def test_erm_check_with_repeated_x(self, capsys):
        # seed 415 draws a case with a repeated x
        assert main(["erm-check", "--seed", "415"]) == 0
        assert "erm-check: 200 cases, all matched" in capsys.readouterr().out

    def test_erm_check_mismatch_exit_code(self, monkeypatch, capsys):
        summary = {
            "kind": "erm_check",
            "ok": False,
            "cases": 3,
            "mismatches": [
                {"case": 1, "seed": 9, "solver": 2, "bruteforce": 1, "level": 0}
            ],
            "case_seeds": [1, 2, 3],
        }
        monkeypatch.setattr("transel.cli.run_experiment", lambda cfg: (None, summary))
        code = main(["erm-check"])
        assert code == 1
        stdout = capsys.readouterr().out
        assert "1 mismatches" in stdout
        assert "case=1" in stdout

    def test_calibrate(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path,
            "cal.json",
            {
                "kind": "calibrate",
                "family": "threshold_nn",
                "params": {"rhos": [1.0], "coef_grid": [1.0]},
                "n_source_grid": [100],
                "n_target_grid": [50],
                "replicates": 5,
            },
        )
        code = main(["calibrate", "--config", cfg])
        assert code == 0
        assert "recommended C=1.0 c=1.0" in capsys.readouterr().out


class TestGapDemoCommand:
    def test_prints_ratio_and_targets(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path,
            "gap.json",
            {
                "kind": "gap_demo",
                "family": "gap",
                "params": {"rho_a": 2.0, "rho_b": 1.0},
                "n_source_grid": [32],
                "n_target_grid": [1],
                "replicates": 5,
            },
        )
        code = main(["gap-demo", "--config", cfg])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "adaptive/oracle ratio" in stdout
        assert "targets: fast=" in stdout

    def test_subcommand_overrides_config_kind(self, tmp_path):
        # same file drives the verify suite when invoked through `verify`
        cfg = _write_cfg(
            tmp_path,
            "gap.json",
            {
                "kind": "gap_demo",
                "family": "gap",
                "params": {"rho_a": 2.0, "rho_b": 1.0},
                "n_source_grid": [32],
                "n_target_grid": [1],
                "replicates": 5,
            },
        )
        out = tmp_path / "out"
        code = main(["verify", "--config", cfg, "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kind"] == "verify"
