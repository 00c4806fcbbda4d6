"""End-to-end CLI behavior: run/bounds/compare, determinism of outputs,
error reporting and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
import yaml

import opbandit
from opbandit.cli import main
from opbandit.config import ConfigError, parse_config
from opbandit.core import check_alpha
from opbandit.report import read_results_csv, sha256_file

TINY = ["--horizon", "400", "--replications", "2"]


def run_cli(args):
    return main([str(a) for a in args])


class TestRun:
    def test_bundled_config_produces_bundle(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(["run", "fig1a", "-o", out, *TINY, "--plot"]) == 0
        assert (out / "results.csv").exists()
        assert (out / "metadata.json").exists()
        svg = (out / "regret.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        header = (out / "results.csv").read_text().splitlines()[0].split(",")
        assert header[:4] == ["policy", "t", "mean_regret", "std_regret"]
        assert header[4:] == [f"mean_pulls_arm_{k}" for k in range(1, 6)]

    def test_plot_escapes_names(self, tmp_path):
        name, label = "A & B <test>", "u<&>"
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            f"name: '{name}'\nhorizon: 100\n"
            "load: {kind: uniform}\nreward: {kind: bernoulli, means: [0.6, 0.4]}\n"
            f"policies: [{{name: '{label}', kind: ucb, alpha: 0.5}}]\n"
        )
        out = tmp_path / "o"
        assert run_cli(["run", cfg, "-o", out, "--plot"]) == 0
        texts = [e.text for e in ElementTree.parse(out / "regret.svg").iter("{http://www.w3.org/2000/svg}text")]
        assert texts[0] == name
        assert label in texts

    def test_summary_names_the_last_checkpoint(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "name: early\nhorizon: 1000\ncheckpoints: [10, 100]\n"
            "load: {kind: square-wave, eps0: 0.05, eps1: 0.05}\n"
            "reward: {kind: dirac, means: [0.6, 0.4]}\n"
            "policies: [{kind: ucb, alpha: 2.0}]\n"
        )
        out = tmp_path / "o"
        assert run_cli(["run", cfg, "-o", out]) == 0
        regret = read_results_csv(out / "results.csv")["ucb"]["mean_regret"][-1]
        assert capsys.readouterr().out.splitlines()[0].startswith(f"early: ucb: regret(T=100) = {regret:.4f} ")

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["run", "fig1a", "-o", a, *TINY]) == 0
        assert run_cli(["run", "fig1a", "-o", b, *TINY]) == 0
        assert sha256_file(a / "results.csv") == sha256_file(b / "results.csv")

    def test_seed_override_changes_results(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["run", "fig1a", "-o", a, *TINY])
        run_cli(["run", "fig1a", "-o", b, *TINY, "--seed", "999"])
        assert sha256_file(a / "results.csv") != sha256_file(b / "results.csv")

    def test_metadata_reproduces_run(self, tmp_path):
        out = tmp_path / "o"
        run_cli(["run", "fig1a", "-o", out, *TINY])
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["results_sha256"] == sha256_file(out / "results.csv")
        # replaying the embedded config must reproduce the csv bytes
        cfg_file = tmp_path / "replay.yaml"
        import yaml

        cfg_file.write_text(yaml.safe_dump(meta["config"]))
        out2 = tmp_path / "o2"
        assert run_cli(["run", cfg_file, "-o", out2]) == 0
        assert sha256_file(out2 / "results.csv") == meta["results_sha256"]

    def test_csv_floats_round_trip_losslessly(self, tmp_path):
        out = tmp_path / "o"
        run_cli(["run", "fig1a", "-o", out, *TINY])
        parsed = read_results_csv(out / "results.csv")
        # writing the parsed values back at 17 significant digits is stable
        from opbandit.report import fmt

        text = (out / "results.csv").read_text().splitlines()
        for line in text[1:3]:
            cells = line.split(",")
            for cell in cells[2:]:
                assert fmt(float(cell)) == cell
        assert set(parsed) == {"adaucb", "ucb", "ts"}

    def test_unknown_config_exits_one(self, tmp_path, capsys):
        assert run_cli(["run", "no-such-config", "-o", tmp_path / "x"]) == 1
        assert "bundled" in capsys.readouterr().err

    def test_invalid_config_file_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "name: x\nhorizon: 100\nload: {kind: binary, rho: 2.0}\n"
            "reward: {kind: bernoulli, means: [0.6, 0.4]}\n"
            "policies: [{name: u, kind: ucb, alpha: 0.5}]\n"
        )
        assert run_cli(["run", bad, "-o", tmp_path / "x"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "rho" in err

    def test_unhashable_kind_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "name: x\nhorizon: 100\nload: {kind: [beta]}\n"
            "reward: {kind: bernoulli, means: [0.6, 0.4]}\n"
            "policies: [{name: u, kind: ucb, alpha: 0.5}]\n"
        )
        assert run_cli(["run", bad, "-o", tmp_path / "x"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "load.kind" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "line, field, message",
        [
            ("checkpoint_count: 10000000000000\n", "checkpoint_count", "unknown field"),
            ("policies: [{name: 'ucb,fast', kind: ucb, alpha: 0.5}]\n", "policies[0].name", "expected a string"),
            ("regret: realized\n", "regret", "unknown field"),
            ("policies: [{kind: eadaucb, alpha: 0.5, window: 5}]\n", "policies[0].window", "unknown field"),
        ],
        ids=["checkpoint_count", "comma-in-name", "regret", "eadaucb-window"],
    )
    def test_rejected_before_any_output(self, tmp_path, capsys, line, field, message):
        # a removed key, or a policy name that results.csv could not read
        # back, is a config error: exit 1, no traceback, nothing written
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "name: x\nhorizon: 100\nload: {kind: uniform}\nreward: {kind: bernoulli, means: [0.6, 0.4]}\n"
            + line
            + ("" if line.startswith("policies") else "policies: [{name: u, kind: ucb, alpha: 0.5}]\n")
        )
        out = tmp_path / "o"
        assert run_cli(["run", cfg, "-o", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: {message}") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, line, start",
        [
            ("name: x\nhorizon: [100\n", 3, "from line 2)"),  # found unclosed at the document's end
            ("name: x\nload: kind: binary\n", 2, ""),
            ("name: x\n\thorizon: 100\n", 2, ""),
        ],
        ids=["unclosed", "nested-mapping", "tab"],
    )
    def test_malformed_yaml_names_file_and_line(self, tmp_path, capsys, text, line, start):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        assert run_cli(["run", bad, "-o", tmp_path / "x"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bad}: line {line}: malformed YAML: ")
        assert err.rstrip().endswith(start) and "Traceback" not in err

    @pytest.mark.parametrize(
        "text, got",
        [("", "NoneType"), ("# nothing\n", "NoneType"), ("- 1\n- 2\n", "list")],
        ids=["empty", "comment-only", "list"],
    )
    def test_non_mapping_document_names_file(self, tmp_path, capsys, text, got):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        out = tmp_path / "x"
        assert run_cli(["run", bad, "-o", out]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {bad}: config must be a mapping, got {got}\n"
        assert not out.exists()
        # a document given directly has no file to name, and no empty field either
        with pytest.raises(ConfigError) as direct:
            parse_config(yaml.safe_load(text))
        assert str(direct.value) == f"config must be a mapping, got {got}"


@pytest.mark.parametrize("command", ["run", "bounds"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_names_field(tmp_path, capsys, command, seed):
    # rejected where it enters, before any output directory is made
    out = tmp_path / "o"
    assert run_cli([command, "fig1a", "-o", out, "--horizon", "400", "--seed", seed]) == 1
    # bounds.csv does not depend on the seed: `bounds` has no --seed, a usage error
    expected = "unrecognized arguments: --seed" if command == "bounds" else "base_seed"
    assert expected in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "bounds"])
@pytest.mark.parametrize(("option", "value"), [("--replications", 0), ("--horizon", 1), ("--horizon", 10**30)])
def test_out_of_range_override_names_field(tmp_path, capsys, command, option, value):
    # checked by parse_config, as in a config file, before any output directory
    out = tmp_path / "o"
    assert run_cli([command, "fig1a", "-o", out, option, value]) == 1
    # nor on the replication count: `bounds` has no --replications, a usage error
    if command == "bounds" and option == "--replications":
        expected = "unrecognized arguments: --replications"
    else:
        expected = f"config error: {option[2:]}: must be"
    assert expected in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "bounds"])
def test_horizon_past_int64_in_config_names_field(tmp_path, capsys, command):
    # the steps are int64 arrays: a larger horizon in a config file is a
    # config error before any output directory, as it is on the command line
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        f"name: x\nhorizon: {10**30}\nload: {{kind: uniform}}\nreward: {{kind: bernoulli, means: [0.6, 0.4]}}\n"
        "policies: [{name: u, kind: adaucb, alpha: 0.5, thresholds: {lower: 0.2, upper: 0.8}}]\n"
    )
    out = tmp_path / "o"
    assert run_cli([command, cfg, "-o", out]) == 1
    assert capsys.readouterr().err == f"config error: horizon: must be <= {2**63 - 1}, got {10**30}\n"
    assert not out.exists()
    # the bound is int64's largest value; only parsed, never run
    doc = yaml.safe_load(cfg.read_text())
    assert parse_config({**doc, "horizon": 2**63 - 1}).horizon == 2**63 - 1
    with pytest.raises(ConfigError, match="^horizon: must be <= "):
        parse_config({**doc, "horizon": 2**63})


@pytest.mark.parametrize(
    "args",
    [["run", "fig1a", "-o", "o", "--horizon", "abc"], ["run", "fig1a", "-o", "o", "--nope"], ["bounds"], ["frobnicate"]],
    ids=["bad-value", "unknown-flag", "missing-argument", "unknown-command"],
)
def test_usage_error_exits_one(capsys, args):
    # exit 2 is kept for a violated pull envelope
    assert run_cli(args) == 1
    assert "opbandit" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--help"], ["bounds", "--help"]])
def test_help_exits_zero(capsys, args):
    assert run_cli(args) == 0
    assert "usage: opbandit" in capsys.readouterr().out


@pytest.mark.parametrize(("horizon", "checkpoints"), [(60, [1, 10, 50, 60]), (50, [1, 10, 50])])
def test_horizon_override_trims_explicit_checkpoints(tmp_path, horizon, checkpoints):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "name: pts\nhorizon: 100\ncheckpoints: [1, 10, 50, 100]\n"
        "load: {kind: uniform}\nreward: {kind: bernoulli, means: [0.6, 0.4]}\n"
        "policies: [{name: u, kind: ucb, alpha: 0.5}]\n"
    )
    out = tmp_path / "o"
    assert run_cli(["run", cfg, "-o", out, "--horizon", horizon]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["horizon"] == horizon
    assert meta["config"]["checkpoints"] == checkpoints
    assert read_results_csv(out / "results.csv")["u"]["t"].tolist() == checkpoints


class TestBounds:
    def test_deterministic_scenario_columns_and_metadata(self, tmp_path):
        out = tmp_path / "b"
        assert run_cli(["bounds", "dirac-square-wave", "-o", out, "--horizon", "2000"]) == 0
        header = (out / "bounds.csv").read_text().splitlines()[0].split(",")
        assert set(header) >= {"t", "pull_upper", "pull_lower", "regret_log_term"}
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["resolved"]["params"]["quadrature_step"] == 0.25
        assert meta["resolved"]["alpha"] == 2.0

    def test_zero_eps0_binary_has_zero_regret_term(self, tmp_path):
        out = tmp_path / "b"
        assert run_cli(["bounds", "fig1a", "-o", out, "--horizon", "1000"]) == 0
        from opbandit.report import read_bounds_csv

        cols = read_bounds_csv(out / "bounds.csv")
        np.testing.assert_array_equal(cols["regret_log_term"], 0.0)

    @staticmethod
    def tied(tmp_path, means):
        cfg = tmp_path / "tied.yaml"
        cfg.write_text(
            "name: tied\nhorizon: 500\n"
            "load: {kind: binary, eps0: 0.05, eps1: 0.01, rho: 0.5}\n"
            f"reward: {{kind: dirac, means: {means}}}\n"
            "policies: [{kind: adaucb, alpha: 20.0, thresholds: binary}]\n"
        )
        return cfg

    def test_arms_tied_for_the_best_have_no_envelope(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert run_cli(["bounds", self.tied(tmp_path, [0.5, 0.5, 0.2]), "-o", out]) == 0
        header = (out / "bounds.csv").read_text().splitlines()[0].split(",")
        assert header == ["t", "pull_log_bound_arm_3", "regret_log_term"]
        assert capsys.readouterr().err == ""

    def test_all_arms_tied_names_means(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert run_cli(["bounds", self.tied(tmp_path, [0.5, 0.5, 0.5]), "-o", out]) == 1
        assert capsys.readouterr().err.startswith("config error: reward.means: every arm ties for the best mean")
        assert not out.exists()

    @pytest.mark.parametrize("config", ["fig1b", "mvno-synthetic", "dirac-square-wave", "fig1a"])
    @pytest.mark.parametrize("alpha", ["-1", "0", "nan", "inf"])
    def test_invalid_alpha_names_flag(self, tmp_path, capsys, config, alpha):
        out = tmp_path / "b"
        assert run_cli(["bounds", config, "-o", out, "--horizon", "200", "--alpha", alpha]) == 1
        with pytest.raises(ValueError) as rule:  # the flag is named, with core's one message
            check_alpha(float(alpha))
        assert capsys.readouterr().err == f"config error: --alpha: {rule.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("step", ["0.5", "0", "-1", "nan", "2"])
    def test_invalid_quadrature_step_names_flag(self, tmp_path, capsys, step):
        # the flag is gone: whatever its value, it is a usage error (exit 1)
        out = tmp_path / "b"
        assert run_cli(["bounds", "fig1b", "-o", out, "--quadrature-step", step]) == 1
        assert "unrecognized arguments: --quadrature-step" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("load", ["square-wave", "trace"])
    def test_single_threshold_without_conditional_mean_names_field(self, tmp_path, capsys, load):
        # AdaUCB's single threshold asks for E[L | L <= l], which only the
        # uniform and beta loads define: a config error, not a traceback
        trace = tmp_path / "trace.csv"
        trace.write_text("".join(f"{0.1 + 0.8 * (t % 2)}\n" for t in range(20)))
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "name: single\nhorizon: 100\n"
            + (
                "load: {kind: square-wave, eps0: 0.1, eps1: 0.1}\n"
                "policies: [{name: a, kind: adaucb, alpha: 2.0, thresholds: {lower: 0.3, upper: 0.3}}]\n"
                if load == "square-wave"
                else f"load: {{kind: trace, path: {trace}}}\n"
                "policies: [{name: a, kind: adaucb, alpha: 2.0, thresholds: {single_prob: 0.5}}]\n"
            )
            + "reward: {kind: bernoulli, means: [0.6, 0.4]}\n"
        )
        out = tmp_path / "b"
        assert run_cli(["bounds", cfg, "-o", out]) == 1
        err = capsys.readouterr().err
        assert "config error: policies[0].thresholds: conditional load mean" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestCompare:
    @pytest.fixture()
    def dirac_pair(self, tmp_path):
        run_dir = tmp_path / "run"
        bounds_dir = tmp_path / "bounds"
        assert run_cli(["run", "dirac-square-wave", "-o", run_dir, "--horizon", "2000"]) == 0
        assert run_cli(["bounds", "dirac-square-wave", "-o", bounds_dir, "--horizon", "2000"]) == 0
        return run_dir, bounds_dir

    def test_deterministic_run_passes_hard_envelopes(self, dirac_pair, capsys):
        run_dir, bounds_dir = dirac_pair
        assert run_cli(["compare", run_dir, bounds_dir]) == 0
        out = capsys.readouterr().out
        assert "OVERALL: PASS" in out
        assert "FAIL" not in out.replace("OVERALL: PASS", "")

    def test_oracle_regret_ratio_is_zero(self, dirac_pair, capsys):
        run_dir, bounds_dir = dirac_pair
        run_cli(["compare", run_dir, bounds_dir])
        out = capsys.readouterr().out
        oracle_lines = [l for l in out.splitlines() if l.startswith("oracle")]
        assert any("last=0.0000" in l for l in oracle_lines)

    def test_corrupted_run_reports_checkpoint_mismatch(self, dirac_pair, capsys):
        run_dir, bounds_dir = dirac_pair
        csv = run_dir / "results.csv"
        lines = csv.read_text().splitlines()
        cells = lines[1].split(",")
        cells[1] = str(int(cells[1]) + 1)
        lines[1] = ",".join(cells)
        csv.write_text("\n".join(lines) + "\n")
        assert run_cli(["compare", run_dir, bounds_dir]) == 1
        assert "checkpoints" in capsys.readouterr().err

    def test_violated_envelope_exits_two(self, dirac_pair, capsys):
        run_dir, bounds_dir = dirac_pair
        csv = run_dir / "results.csv"
        lines = csv.read_text().splitlines()
        header = lines[0].split(",")
        i_pulls2 = header.index("mean_pulls_arm_2")
        doctored = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            if cells[0] == "adaucb":
                cells[i_pulls2] = "1e9"  # blow through the upper envelope
            doctored.append(",".join(cells))
        csv.write_text("\n".join(doctored) + "\n")
        assert run_cli(["compare", run_dir, bounds_dir]) == 2
        assert "OVERALL: FAIL" in capsys.readouterr().out

    def test_verdict_file_written(self, dirac_pair, tmp_path):
        run_dir, bounds_dir = dirac_pair
        verdict = tmp_path / "verdict.txt"
        run_cli(["compare", run_dir, bounds_dir, "-o", verdict])
        assert "OVERALL" in verdict.read_text()

    @staticmethod
    def edit_columns(csv, edit):
        """Rewrite ``csv`` with ``edit(columns)`` applied to its columns."""
        rows = [line.split(",") for line in csv.read_text().splitlines()]
        columns = edit([list(col) for col in zip(*rows)])
        csv.write_text("\n".join(",".join(row) for row in zip(*columns)) + "\n")

    @staticmethod
    def one_line_error(capsys):
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1, err
        return err

    def test_missing_pulls_column_named(self, dirac_pair, capsys):
        run_dir, bounds_dir = dirac_pair
        csv = run_dir / "results.csv"
        self.edit_columns(csv, lambda cols: [c for c in cols if c[0] != "mean_pulls_arm_2"])
        capsys.readouterr()
        assert run_cli(["compare", run_dir, bounds_dir]) == 1
        err = self.one_line_error(capsys)
        assert str(csv) in err and "mean_pulls_arm_2" in err

    def test_missing_policy_column_named(self, dirac_pair, capsys):
        run_dir, bounds_dir = dirac_pair
        csv = run_dir / "results.csv"
        self.edit_columns(csv, lambda cols: cols[1:])
        capsys.readouterr()
        assert run_cli(["compare", run_dir, bounds_dir]) == 1
        err = self.one_line_error(capsys)
        assert err.startswith(f"error: {csv}: no policy column")

    @pytest.mark.parametrize("name", ["results", "bounds"])
    def test_non_numeric_cell_named(self, dirac_pair, capsys, name):
        run_dir, bounds_dir = dirac_pair
        csv = (run_dir if name == "results" else bounds_dir) / f"{name}.csv"

        def edit(cols):
            (t,) = [c for c in cols if c[0] == "t"]
            t[2] = "n/a"
            return cols

        self.edit_columns(csv, edit)
        capsys.readouterr()
        assert run_cli(["compare", run_dir, bounds_dir]) == 1
        err = self.one_line_error(capsys)
        assert err.startswith(f"error: {csv}: t cell 'n/a'")

    @pytest.mark.parametrize("name", ["results", "bounds"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("\n", "empty {name} file"),
            ("policy,t\n", "empty {name} file"),
            ("policy,t\nu,1,2\n", "malformed row 'u,1,2'"),
        ],
    )
    def test_malformed_table_named(self, dirac_pair, capsys, name, text, message):
        run_dir, bounds_dir = dirac_pair
        csv = (run_dir if name == "results" else bounds_dir) / f"{name}.csv"
        csv.write_text(text)
        capsys.readouterr()
        assert run_cli(["compare", run_dir, bounds_dir]) == 1
        err = self.one_line_error(capsys)
        assert err == f"error: {csv}: {message.format(name=name)}"

    @pytest.mark.parametrize("n_envelopes", [0, 2])
    def test_pull_envelope_arm_must_be_one(self, dirac_pair, capsys, n_envelopes):
        run_dir, bounds_dir = dirac_pair
        csv = bounds_dir / "bounds.csv"

        def edit(cols):
            (envelope,) = [c for c in cols if c[0] == "pull_log_bound_arm_2"]
            others = [c for c in cols if c is not envelope]
            return others + [envelope, ["pull_log_bound_arm_3", *envelope[1:]]][:n_envelopes]

        self.edit_columns(csv, edit)
        capsys.readouterr()
        assert run_cli(["compare", run_dir, bounds_dir]) == 1
        err = self.one_line_error(capsys)
        assert str(csv) in err and "pull_log_bound_arm_<k>" in err

    def test_checks_the_suboptimal_arm(self, tmp_path, capsys):
        # arm 1 is the suboptimal one: the hard envelopes bound its pulls
        cfg = tmp_path / "swapped.yaml"
        cfg.write_text(
            "name: swapped\nhorizon: 2000\nbase_seed: 20180301\n"
            "load: {kind: square-wave, eps0: 0.05, eps1: 0.05}\n"
            "reward: {kind: dirac, means: [0.4, 0.6]}\n"
            "policies:\n"
            "  - {name: adaucb, kind: adaucb, alpha: 2.0, thresholds: binary}\n"
        )
        run_dir, bounds_dir = tmp_path / "run", tmp_path / "bounds"
        assert run_cli(["run", cfg, "-o", run_dir]) == 0
        assert run_cli(["bounds", cfg, "-o", bounds_dir]) == 0
        capsys.readouterr()
        assert run_cli(["compare", run_dir, bounds_dir]) == 0
        out = capsys.readouterr().out
        assert "adaucb t=2000 pulls_arm_1=" in out
        assert "pulls_arm_2" not in out
        assert "OVERALL: PASS" in out

    def test_bounds_at_another_alpha_is_config_error(self, tmp_path, capsys):
        # the run's adaucb has alpha 2.0; envelopes for 0.5 judge none of it
        run_dir, bounds_dir = tmp_path / "run", tmp_path / "bounds"
        assert run_cli(["run", "dirac-square-wave", "-o", run_dir, "--horizon", "3000"]) == 0
        assert run_cli(["bounds", "dirac-square-wave", "-o", bounds_dir, "--horizon", "3000", "--alpha", "0.5"]) == 0
        capsys.readouterr()
        assert run_cli(["compare", run_dir, bounds_dir]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert err.startswith("config error: alpha: ") and "alpha 0.5" in err and "alpha 2.0" in err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "section, edit",
        [("reward", ("means: [0.6, 0.4]", "means: [0.9, 0.1]")), ("load", ("eps0: 0.05", "eps0: 0.1"))],
    )
    def test_bounds_of_another_scenario_is_config_error(self, tmp_path, capsys, section, edit):
        # the run passes its own envelopes, and is not judged by another scenario's
        text = (Path(opbandit.__file__).parent / "configs" / "dirac-square-wave.yaml").read_text()
        assert edit[0] in text
        cfg = tmp_path / "other.yaml"
        cfg.write_text(text.replace(*edit))
        run_dir, own, other = tmp_path / "run", tmp_path / "own", tmp_path / "other"
        assert run_cli(["run", cfg, "-o", run_dir, "--horizon", "4000"]) == 0
        assert run_cli(["bounds", cfg, "-o", own, "--horizon", "4000"]) == 0
        assert run_cli(["bounds", "dirac-square-wave", "-o", other, "--horizon", "4000"]) == 0
        capsys.readouterr()
        assert run_cli(["compare", run_dir, own]) == 0
        assert capsys.readouterr().out.endswith("OVERALL: PASS\n")
        assert run_cli(["compare", run_dir, other]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {section}: ") and captured.out == ""

    def test_pull_envelopes_cover_adaucb_at_the_bounds_alpha(self, tmp_path, capsys):
        cfg = tmp_path / "two-alphas.yaml"
        cfg.write_text(
            "name: two-alphas\nhorizon: 3000\nbase_seed: 20180301\n"
            "load: {kind: square-wave, eps0: 0.05, eps1: 0.05}\n"
            "reward: {kind: dirac, means: [0.6, 0.4]}\n"
            "policies:\n"
            "  - {name: ada-2, kind: adaucb, alpha: 2.0, thresholds: binary}\n"
            "  - {name: ada-half, kind: adaucb, alpha: 0.5, thresholds: binary}\n"
        )
        run_dir = tmp_path / "run"
        assert run_cli(["run", cfg, "-o", run_dir]) == 0
        for alpha, checked, other in [("2.0", "ada-2", "ada-half"), ("0.5", "ada-half", "ada-2")]:
            bounds_dir = tmp_path / f"bounds-{alpha}"
            assert run_cli(["bounds", cfg, "-o", bounds_dir, "--alpha", alpha]) == 0
            capsys.readouterr()
            assert run_cli(["compare", run_dir, bounds_dir]) == 0
            out = capsys.readouterr().out
            assert f"{checked} t=3000 pulls_arm_2=" in out
            assert f"{other} t=" not in out
            assert f"{other} regret/log-term ratio" in out
            assert out.endswith("OVERALL: PASS\n")


class TestTracePipeline:
    def test_one_reward_column_names_reward(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("0.5,0.6\n1.0,0.7\n0.2,0.1\n")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "name: one-arm\nhorizon: 50\n"
            f"load: {{kind: trace, path: {trace}}}\n"
            f"reward: {{kind: trace, path: {trace}}}\n"
            "policies: [{name: ucb, kind: ucb, alpha: 0.51}]\n"
        )
        out = tmp_path / "o"
        assert run_cli(["run", cfg, "-o", out]) == 1
        err = capsys.readouterr().err
        assert "config error: reward: reward model needs at least 2 arms" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("section", ["load", "reward"])
    @pytest.mark.parametrize(
        "path, message", [("5", "expected a string, got 5"), ("missing.csv", "No such file or directory: 'missing.csv'")]
    )
    def test_trace_path_is_named(self, tmp_path, capsys, monkeypatch, section, path, message):
        other = "{kind: dirac, means: [0.6, 0.4]}" if section == "load" else "{kind: uniform}"
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "name: t\nhorizon: 50\n"
            f"{section}: {{kind: trace, path: {path}}}\n"
            f"{'reward' if section == 'load' else 'load'}: {other}\n"
            "policies: [{kind: ucb, alpha: 0.51}]\n"
        )
        monkeypatch.chdir(tmp_path)
        (tmp_path / "5").write_text("0.5,0.6,0.4\n")  # a file named 5 is not read
        assert run_cli(["run", cfg, "-o", tmp_path / "o"]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"config error: {section}.path: ") and err.endswith(message)

    def test_trace_config_end_to_end(self, tmp_path):
        trace = tmp_path / "trace.csv"
        rows = ["load,a,b,c"]
        for t in range(200):
            load = 0.5 + 0.4 * np.sin(2 * np.pi * t / 50)
            rows.append(f"{load:.6f},{0.4 + 0.02 * (t % 3):.3f},0.55,0.7")
        trace.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "name: trace-demo\nhorizon: 600\nreplications: 2\nbase_seed: 5\n"
            f"load: {{kind: trace, path: {trace}}}\n"
            f"reward: {{kind: trace, path: {trace}}}\n"
            "policies:\n"
            "  - {name: eadaucb, kind: eadaucb, alpha: 0.51}\n"
            "  - {name: ucb, kind: ucb, alpha: 0.51}\n"
            "  - {name: oracle, kind: oracle}\n"
        )
        out = tmp_path / "out"
        assert run_cli(["run", cfg, "-o", out]) == 0
        parsed = read_results_csv(out / "results.csv")
        assert parsed["oracle"]["mean_regret"][-1] == 0.0
        assert parsed["eadaucb"]["mean_regret"][-1] >= 0.0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["resolved"]["trace_load"]["scale"] == pytest.approx(0.9, abs=0.01)


def test_list_configs(capsys):
    assert run_cli(["list-configs"]) == 0
    names = capsys.readouterr().out.split()
    assert "fig1a" in names and "fig2b-beta" in names


STARTUP_SCRIPT = """
import sys
from importlib import resources

from opbandit.cli import main
from opbandit.config import build_plan, load_config

cfg, work = sys.argv[1:]


def loaded():
    print("loaded:", [m for m in ("scipy.special", "opbandit.simulator") if m in sys.modules])


build_plan(load_config(cfg))
assert main(["list-configs"]) == 0
loaded()
assert main(["run", cfg, "-o", work + "/trace"]) == 0
assert main(["run", "dirac-square-wave", "-o", work + "/run", "--horizon", "300"]) == 0
assert main(["bounds", "dirac-square-wave", "-o", work + "/bounds", "--horizon", "300"]) == 0
assert main(["compare", work + "/run", work + "/bounds"]) == 0
loaded()
build_plan(load_config(resources.files("opbandit") / "configs" / "fig2b-beta.yaml"))
loaded()
"""


def test_commands_load_only_what_they_run(tmp_path):
    # a fresh interpreter: scipy.special only where a command calls it, and
    # no simulator for planning
    trace = tmp_path / "trace.csv"
    rows = ["load,a,b,c"] + [f"{0.1 + 0.8 * (t % 7) / 6:.3f},0.4,0.55,0.7" for t in range(40)]
    trace.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "name: trace-startup\nhorizon: 300\nreplications: 2\n"
        f"load: {{kind: trace, path: {trace}}}\n"
        f"reward: {{kind: trace, path: {trace}}}\n"
        "policies:\n"
        "  - {name: adaucb, kind: adaucb, alpha: 0.51, thresholds: {lower_prob: 0.1, upper_prob: 0.1}}\n"
        "  - {name: eadaucb, kind: eadaucb, alpha: 0.51}\n"
        "  - {name: ucb, kind: ucb, alpha: 0.51}\n"
        "  - {name: rr-greedy, kind: rr-greedy, thresholds: {single_prob: 0.3}}\n"
    )
    env = os.environ | {"PYTHONPATH": str(Path(opbandit.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, str(cfg), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    planned, commands, beta = [line for line in done.stdout.splitlines() if line.startswith("loaded:")]
    assert planned == "loaded: []"
    assert commands == "loaded: ['opbandit.simulator']"
    assert beta == "loaded: ['scipy.special', 'opbandit.simulator']"  # not vacuous
