import json
import os
from pathlib import Path

import numpy as np
import pytest

from samossa.cli import OPTION_DEFAULTS, main
from samossa.panel import load_csv


GOLDEN = Path(__file__).parent / "data" / "cli_golden"


def run(*argv):
    return main(list(argv))


def assert_usage_error(capsys, *argv):
    """The command exits with EXIT_USAGE and one ``UsageError`` line, no traceback."""
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("samossa: error: UsageError: "), err


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = run(
        "synth", "--preset", "fig2", "--lambda-star", "0.3",
        "--t", "600", "--seed", "1", "-o", str(out),
    )
    assert code == 0
    return out


class TestSynth:
    def test_writes_expected_files(self, synth_dir):
        for name in ("y.csv", "f.csv", "x.csv", "truth.json"):
            assert (synth_dir / name).exists()
        truth = json.loads((synth_dir / "truth.json").read_text())
        assert truth["alphas"][0] == [1.5 * 0.3, -0.5 * 0.3**2]
        panel = load_csv(synth_dir / "y.csv")
        assert panel.values.shape == (10, 600)

    def test_byte_identical_across_runs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("synth", "--preset", "fig2", "--lambda-star", "0.6",
                       "--t", "300", "--seed", "7", "-o", str(out)) == 0
            outs.append(out)
        for fname in ("y.csv", "f.csv", "x.csv", "truth.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_custom_generator(self, tmp_path):
        out = tmp_path / "c"
        code = run("synth", "--kind", "pure_ar", "--n", "2", "--t", "100",
                   "--alpha", "-0.5", "--sigma2", "1.0", "--seed", "3", "-o", str(out))
        assert code == 0
        assert load_csv(out / "y.csv").values.shape == (2, 100)

    def test_bad_preset(self, tmp_path):
        assert run("synth", "--preset", "nope", "-o", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("preset, flags", [
        ("fig2", ["--sigma2", "0.04"]),
        ("fig2", ["--kind", "pure_ar", "--r", "2"]),
        ("fig2", ["--p", "1"]),
        ("fig2", ["--alpha", "0.5"]),
        ("forecast", ["--lambda-star", "0.3"]),
        ("forecast", ["--sigma2", "0.04", "--p", "3"]),
    ])
    def test_preset_rejects_flags_it_fixes(self, capsys, tmp_path, preset, flags):
        out = tmp_path / "d"
        assert_usage_error(capsys, "synth", "--preset", preset, "--t", "50", *flags,
                           "-o", str(out))
        assert not out.exists()

    def test_preset_rejects_fixed_keys_from_config(self, capsys, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"sigma2": 0.04}))
        assert_usage_error(capsys, "synth", "--preset", "fig2", "--t", "50",
                           "--config", str(conf), "-o", str(tmp_path / "d"))
        capsys.readouterr()
        assert run("synth", "--kind", "pure_ar", "--alpha", "0.5", "--n", "1", "--t", "50",
                   "--config", str(conf), "-o", str(tmp_path / "custom")) == 0


class TestFitForecast:
    def test_fit_writes_model(self, synth_dir, tmp_path):
        model_path = tmp_path / "model.json"
        code = run("fit", "--input", str(synth_dir / "y.csv"), "--L", "auto",
                   "--rank", "energy:0.9", "--p", "2", "-o", str(model_path))
        assert code == 0
        doc = json.loads(model_path.read_text())
        assert doc["version"] == 1
        assert len(doc["beta"]) == doc["L"] - 1

    def test_fit_p_grid_default_window(self, synth_dir, tmp_path):
        # Without --valid-len the trailing 25 steps resolve the order grid.
        model_path = tmp_path / "m.json"
        code = run("fit", "--input", str(synth_dir / "y.csv"),
                   "--p", "grid", "-o", str(model_path))
        assert code == 0
        doc = json.loads(model_path.read_text())
        assert doc["p_used"][0] in (0, 1, 2, 3)

    def test_fit_explicit_valid_len(self, synth_dir, tmp_path):
        code = run("fit", "--input", str(synth_dir / "y.csv"),
                   "--p", "0,2", "--valid-len", "30", "-o", str(tmp_path / "m.json"))
        assert code == 0

    def test_invalid_L_usage_error(self, synth_dir, tmp_path):
        code = run("fit", "--input", str(synth_dir / "y.csv"), "--L", "0",
                   "--p", "1", "-o", str(tmp_path / "m.json"))
        assert code == 1

    def test_missing_input_data_error(self, tmp_path):
        code = run("fit", "--input", str(tmp_path / "absent.csv"),
                   "--p", "1", "-o", str(tmp_path / "m.json"))
        assert code == 2

    def test_forecast_single_step(self, synth_dir, tmp_path):
        model_path = tmp_path / "model.json"
        run("fit", "--input", str(synth_dir / "y.csv"), "--p", "1", "-o", str(model_path))
        out = tmp_path / "fc.csv"
        assert run("forecast", "--model", str(model_path), "-o", str(out)) == 0
        panel = load_csv(out)
        assert panel.values.shape == (10, 1)

    def test_multistep_needs_recursive_flag(self, synth_dir, tmp_path):
        model_path = tmp_path / "model.json"
        run("fit", "--input", str(synth_dir / "y.csv"), "--p", "1", "-o", str(model_path))
        assert run("forecast", "--model", str(model_path), "--steps", "5",
                   "-o", str(tmp_path / "fc.csv")) == 1
        assert run("forecast", "--model", str(model_path), "--steps", "5",
                   "--recursive", "-o", str(tmp_path / "fc.csv")) == 0

    def test_corrupt_model_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("forecast", "--model", str(bad), "-o", str(tmp_path / "f.csv")) == 2


class TestObserveForecast:
    def test_rolling_outputs(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--preset", "fig2", "--lambda-star", "0.3", "--t", "630",
            "--seed", "2", "-o", str(data))
        full = load_csv(data / "y.csv")
        train_csv = tmp_path / "train.csv"
        test_csv = tmp_path / "test.csv"
        from samossa.panel import TimePanel, save_csv

        save_csv(TimePanel(full.series_names, full.values[:, :600]), train_csv)
        save_csv(TimePanel(full.series_names, full.values[:, 600:], t0=601), test_csv)
        model_path = tmp_path / "model.json"
        run("fit", "--input", str(train_csv), "--p", "1", "-o", str(model_path))
        out = tmp_path / "rolled"
        code = run("observe-forecast", "--model", str(model_path),
                   "--test", str(test_csv), "-o", str(out))
        assert code == 0
        for name in ("y_hat.csv", "f_hat.csv", "x_hat.csv"):
            assert (out / name).exists()
        y_hat = load_csv(out / "y_hat.csv")
        assert y_hat.values.shape == (10, 30)

    def test_matches_library_roll_exactly(self, tmp_path):
        from samossa import load_model, rolling_eval
        from samossa.panel import TimePanel, save_csv

        test = load_csv(GOLDEN / "y.csv")
        model_path = GOLDEN / "model.json"
        out, advanced = tmp_path / "rolled", tmp_path / "advanced.json"
        test_csv = tmp_path / "test.csv"
        # Roll the golden model on the last 30 steps of its own panel, relabelled
        # to start at the model's next time index.
        model = load_model(model_path)
        window = TimePanel(test.series_names, test.values[:, -30:], t0=model.state.next_t[0])
        save_csv(window, test_csv)
        assert run("observe-forecast", "--model", str(model_path), "--test", str(test_csv),
                   "-o", str(out), "--save-model", str(advanced)) == 0
        report = rolling_eval(model, window)
        assert np.array_equal(load_csv(out / "y_hat.csv").values, report.predictions)
        assert load_model(advanced).state.next_t == model.state.next_t


    def _rejected(self, capsys, tmp_path, test_csv, layout, kind):
        """observe-forecast on the golden model ends in one ``kind`` line, exit 2, no files."""
        out, advanced = tmp_path / "rolled", tmp_path / "advanced.json"
        capsys.readouterr()
        assert run("observe-forecast", "--model", str(GOLDEN / "model.json"),
                   "--test", str(test_csv), "--layout", layout, "-o", str(out),
                   "--save-model", str(advanced)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"samossa: error: {kind}: "), err
        assert not out.exists() and not advanced.exists()

    def test_long_file_off_the_model_clock(self, capsys, tmp_path):
        from samossa import load_model
        from samossa.panel import TimePanel, save_csv

        model = load_model(GOLDEN / "model.json")
        names, test_csv = model.series_names, tmp_path / "test.csv"
        save_csv(TimePanel(names, np.ones((len(names), 3)), t0=5), test_csv, layout="long")
        self._rejected(capsys, tmp_path, test_csv, "long", "StateError")
        # The same rows at the model's clock roll.
        start = model.state.next_t[0]
        save_csv(TimePanel(names, np.ones((len(names), 3)), t0=start), test_csv, layout="long")
        assert run("observe-forecast", "--model", str(GOLDEN / "model.json"), "--test",
                   str(test_csv), "--layout", "long", "-o", str(tmp_path / "ok")) == 0

    def test_wide_columns_out_of_order(self, capsys, tmp_path):
        from samossa.panel import TimePanel, save_csv

        test_csv = tmp_path / "test.csv"
        save_csv(TimePanel(("s3", "s2", "s1"), np.ones((3, 3))), test_csv)
        self._rejected(capsys, tmp_path, test_csv, "wide", "ShapeError")


class TestEvalAndGrid:
    def test_eval_report(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--preset", "forecast", "--n", "3", "--t", "2050",
            "--seed", "5", "-o", str(data))
        out = tmp_path / "report"
        code = run("eval", "--input", str(data / "y.csv"),
                   "--train-end", "2000", "--valid-end", "2025", "--test-end", "2050",
                   "--p", "1", "--truth-dir", str(data), "-o", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "mean_r2" in report and report["for_err"] is not None
        assert (out / "report.csv").exists()

    def test_eval_report_constant_series(self, tmp_path):
        # A series with no variance over the test window has no R^2: an empty
        # report.csv cell, null in report.json, and no part in the mean.
        from samossa.panel import TimePanel, save_csv

        data = tmp_path / "data"
        run("synth", "--preset", "forecast", "--n", "3", "--t", "2050",
            "--seed", "5", "-o", str(data))
        panel = load_csv(data / "y.csv")
        values = panel.values.copy()
        values[1, 2025:] = 0.1
        save_csv(TimePanel(panel.series_names, values), data / "y.csv")
        out = tmp_path / "report"
        assert run("eval", "--input", str(data / "y.csv"),
                   "--train-end", "2000", "--valid-end", "2025", "--test-end", "2050",
                   "--p", "1", "-o", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        r2 = report["per_series_r2"]
        assert r2[1] is None and None not in (r2[0], r2[2])
        assert report["mean_r2"] == float(np.mean([r2[0], r2[2]]))
        rows = (out / "report.csv").read_text().splitlines()
        assert rows[2] == "s2,"

    def test_eval_min_r2_gate(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--preset", "forecast", "--n", "3", "--t", "2050",
            "--seed", "5", "-o", str(data))
        code = run("eval", "--input", str(data / "y.csv"),
                   "--train-end", "2000", "--valid-end", "2025", "--test-end", "2050",
                   "--p", "1", "--min-r2", "0.999", "-o", str(tmp_path / "r"))
        assert code == 3

    def test_grid_outputs(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--preset", "forecast", "--n", "3", "--t", "1030",
            "--seed", "6", "-o", str(data))
        out = tmp_path / "grid"
        code = run("grid", "--input", str(data / "y.csv"),
                   "--train-end", "1000", "--valid-end", "1030",
                   "--ranks", "fixed:5", "--ratios", "1", "--ps", "0,1",
                   "-o", str(out))
        assert code == 0
        assert (out / "best.json").exists()
        lines = (out / "grid.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 configs


class TestGoldenOutputs:
    # Files written by the release before stage 1 was shared across configs
    # (synth --preset forecast --n 3 --t 430 --seed 6): the shared path must
    # reproduce them byte for byte.
    def test_grid_files(self, tmp_path):
        out = tmp_path / "grid"
        assert run("grid", "--input", str(GOLDEN / "y.csv"), "--train-end", "400",
                   "--valid-end", "430", "-o", str(out)) == 0
        for name in ("grid.csv", "best.json"):
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_fit_p_grid_model(self, tmp_path):
        model_path = tmp_path / "model.json"
        assert run("fit", "--input", str(GOLDEN / "y.csv"), "--p", "grid",
                   "-o", str(model_path)) == 0
        assert model_path.read_bytes() == (GOLDEN / "model.json").read_bytes()


class TestBadInputs:
    def test_p_comma_list_with_junk(self, capsys, synth_dir, tmp_path):
        assert_usage_error(capsys, "fit", "--input", str(synth_dir / "y.csv"),
                           "--p", "1,x", "-o", str(tmp_path / "m.json"))

    def test_synth_lambda_star(self, capsys, tmp_path):
        assert_usage_error(capsys, "synth", "--preset", "fig2", "--lambda-star", "abc",
                           "-o", str(tmp_path / "d"))

    def test_synth_sigma2(self, capsys, tmp_path):
        assert_usage_error(capsys, "synth", "--kind", "pure_ar", "--alpha", "0.5",
                           "--sigma2", "abc", "-o", str(tmp_path / "d"))

    def test_synth_seed(self, capsys, tmp_path):
        assert_usage_error(capsys, "synth", "--preset", "fig2", "--seed", "abc",
                           "-o", str(tmp_path / "d"))

    def test_fig2_sigma2(self, capsys, tmp_path):
        assert_usage_error(capsys, "fig2", "--nt", "3000", "--seeds", "1",
                           "--sigma2", "abc", "-o", str(tmp_path / "f"))

    def test_layout(self, capsys, synth_dir, tmp_path):
        assert_usage_error(capsys, "fit", "--input", str(synth_dir / "y.csv"),
                           "--layout", "foo", "--p", "1", "-o", str(tmp_path / "m.json"))

    def test_observe_forecast_nan_in_test_csv(self, capsys, synth_dir, tmp_path):
        model_path = tmp_path / "model.json"
        assert run("fit", "--input", str(synth_dir / "y.csv"), "--p", "1",
                   "-o", str(model_path)) == 0
        header = (synth_dir / "y.csv").read_text().splitlines()[0]
        width = len(header.split(","))
        test_csv = tmp_path / "test.csv"
        test_csv.write_text(header + "\n" + ",".join(["nan"] + ["0.5"] * (width - 1)) + "\n")
        capsys.readouterr()
        assert run("observe-forecast", "--model", str(model_path), "--test", str(test_csv),
                   "-o", str(tmp_path / "rolled")) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("samossa: error: IngestError: "), err


class TestFig2:
    def test_small_sweep_with_check(self, tmp_path):
        out = tmp_path / "fig2"
        code = run("fig2", "--lambda-stars", "0.3", "--nt", "3000,30000",
                   "--seeds", "2", "--threads", "1", "-o", str(out))
        assert code == 0
        lines = (out / "fig2.csv").read_text().strip().splitlines()
        assert len(lines) == 5
        summary = json.loads((out / "fig2.json").read_text())
        assert "0.3" in summary["median_est_err"]


class TestConfigFile:
    def test_file_fills_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"t": 300, "lambda_star": 0.6, "seed": 9}))
        out = tmp_path / "d"
        code = run("synth", "--preset", "fig2", "--seed", "11",
                   "--config", str(cfg), "-o", str(out))
        assert code == 0
        truth = json.loads((out / "truth.json").read_text())
        assert truth["spec"]["seed"] == 11          # flag beats file
        assert truth["spec"]["length"] == 300       # file beats default
        assert truth["spec"]["lambda_star"] == 0.6

    def test_unreadable_config(self, tmp_path):
        code = run("synth", "--preset", "fig2", "--config",
                   str(tmp_path / "none.json"), "-o", str(tmp_path / "o"))
        assert code == 1


class TestHelp:
    def test_every_flag_documented(self, capsys):
        for command, options in OPTION_DEFAULTS.items():
            assert main([command, "--help"]) == 0
            text = capsys.readouterr().out
            for dest in options:
                flag = "--" + dest.replace("_", "-")
                if flag == "--out":
                    flag = "-o"
                assert flag in text, f"{command} --help missing {flag}"

    def test_help_exit_code(self):
        assert run("--help") == 0

    def test_no_command_usage_error(self):
        assert run() == 1

    def test_unknown_command(self):
        assert run("explode") == 1
