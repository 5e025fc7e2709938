import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import samossa
from samossa import synth
from samossa.cli import COMMANDS, _build_parser, _load_truth, _pipeline_config, _resolve, main
from samossa.evaluation import RANK_GRID_DEFAULT, RATIO_GRID_DEFAULT, default_grid
from samossa.pipeline import P_GRID_DEFAULT, SamossaConfig
from samossa.panel import TimePanel, load_csv, save_csv


GOLDEN = Path(__file__).parent / "data" / "cli_golden"


def run(*argv):
    return main(list(argv))


_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def assert_golden(got: Path, name: str):
    """``got`` holds the bytes of the golden file ``name``; otherwise a message that
    names the file, its first differing line and the largest relative difference
    |new - old| / |old| among the numbers of the two files, in order."""
    new, old = got.read_bytes(), (GOLDEN / name).read_bytes()
    if new == old:
        return
    new_lines, old_lines = new.splitlines(), old.splitlines()
    line = next((i for i, pair in enumerate(zip(new_lines, old_lines)) if pair[0] != pair[1]),
                min(len(new_lines), len(old_lines)))
    first = [lines[line] if line < len(lines) else b"<end of file>"
             for lines in (new_lines, old_lines)]
    new_nums, old_nums = (np.array([float(x) for x in _NUMBER.findall(text)])
                          for text in (new, old))
    if new_nums.shape != old_nums.shape or not new_nums.size:
        numbers = f"{new_nums.size} numbers against the golden's {old_nums.size}"
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(new_nums == old_nums, 0.0,
                           np.abs(new_nums - old_nums) / np.abs(old_nums))
        worst = int(np.argmax(rel))
        numbers = (f"largest relative difference {rel[worst]:.3g}, {float(new_nums[worst])!r} "
                   f"against {float(old_nums[worst])!r}")
    pytest.fail(f"{name} differs from its golden at line {line + 1}: "
                f"{first[0]!r} against {first[1]!r}; {numbers}", pytrace=False)


def assert_fails(capsys, code, kind, *argv):
    """The command exits with ``code`` and one ``kind`` error line, no traceback."""
    capsys.readouterr()
    assert run(*argv) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"samossa: error: {kind}: "), err


def assert_usage_error(capsys, *argv):
    assert_fails(capsys, 1, "UsageError", *argv)


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

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("flags, spec", [
        (["--preset", "fig2", "--lambda-star", "0.6", "--n", "3", "--t", "120"],
         lambda seed: synth.estimation_spec(0.6, n_series=3, length=120, seed=seed)),
        (["--preset", "forecast", "--n", "4", "--t", "90"],
         lambda seed: synth.forecasting_spec(n_series=4, length=90, seed=seed)),
        (["--alpha", "-5e-1,0.2", "--n", "2", "--t", "80"],
         lambda seed: synth.GeneratorSpec(kind="harmonics", n_series=2, length=80,
                                          alpha=(-0.5, 0.2), seed=seed)),
    ], ids=["fig2", "forecast", "alpha"])
    def test_truth_reads_back(self, tmp_path, flags, spec, seed):
        # What --truth-dir scoring reads is what the generator drew, bit for bit.
        out = tmp_path / "truth"
        assert run("synth", *flags, "--seed", str(seed), "-o", str(out)) == 0
        want, got = synth.generate(spec(seed)), _load_truth(str(out))
        for panel, truth in ((got.f, want.f), (got.x, want.x)):
            assert (panel.series_names, panel.t0) == (truth.series_names, truth.t0)
            assert panel.values.shape == truth.values.shape
            assert panel.values.tobytes() == truth.values.tobytes()
        assert [a.tobytes() for a in got.alphas] == [np.asarray(a, float).tobytes()
                                                     for a in want.alphas]

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

    def test_alpha_records_the_drawn_order(self, tmp_path):
        # An explicit alpha owns the order and the root: truth.json records
        # AR(1) and no lambda_star, and the draw is the AR(1) with root 0.5
        # that --p 1 --lambda-star 0.5 draws.
        assert run("synth", "--alpha", "0.5", "--n", "2", "--t", "80", "--seed", "3",
                   "-o", str(tmp_path / "alpha")) == 0
        assert run("synth", "--p", "1", "--lambda-star", "0.5", "--n", "2", "--t", "80",
                   "--seed", "3", "-o", str(tmp_path / "root")) == 0
        spec = json.loads((tmp_path / "alpha" / "truth.json").read_text())["spec"]
        assert (spec["ar_order"], spec["lambda_star"], spec["alpha"]) == (1, None, [0.5])
        for name in ("y.csv", "f.csv", "x.csv"):
            alpha, root = (tmp_path / "alpha" / name), (tmp_path / "root" / name)
            assert alpha.read_bytes() == root.read_bytes()


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

    def test_valid_len_checked_beside_a_fixed_order(self, capsys, synth_dir, tmp_path):
        # A fixed order reads no validation window, but a bad one is still refused.
        capsys.readouterr()
        assert run("fit", "--input", str(synth_dir / "y.csv"), "--p", "1", "--valid-len", "1",
                   "-o", str(tmp_path / "m.json")) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "samossa: error: ConfigError: valid_len must be an integer >= 2, got 1")

    def test_fit_records_no_window_for_a_fixed_order(self, synth_dir, tmp_path):
        model_path = tmp_path / "m.json"
        assert run("fit", "--input", str(synth_dir / "y.csv"), "--p", "1", "--valid-len", "30",
                   "--L", "20", "--ratio", "3", "-o", str(model_path)) == 0
        config = json.loads(model_path.read_text())["config"]
        assert (config["valid_len"], config["shape_ratio"]) == (None, 1)

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

    def test_diverging_recursive_forecast_is_one_error_line(self, capsys, tmp_path):
        doc = json.loads((GOLDEN / "model.json").read_text())
        doc["beta"] = [1000.0] + [0.0] * (len(doc["beta"]) - 1)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "fc.csv"
        capsys.readouterr()
        assert run("forecast", "--model", str(model_path), "--steps", "200", "--recursive",
                   "-o", str(out)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["samossa: error: NonStationaryError: recursive forecast left the finite "
                       "range at step 103 (t=533) for series 0: inf"]
        assert not out.exists()


class TestCappedRank:
    # synth --n 2 --t 60 --seed 3 stacks a 10-row Page matrix at every L the
    # commands resolve, so fixed:100 keeps its 10 positive values and fixed:3 three.
    ARGV = {
        "fit": ["--p", "1", "-o", "m.json"],
        "decompose": ["-o", "decomp"],
        "eval": ["--train-end", "40", "--valid-end", "50", "--test-end", "60", "--p", "1",
                 "-o", "report"],
    }

    def stderr(self, capsys, tmp_path, command, rank):
        data = tmp_path / "data"
        assert run("synth", "--n", "2", "--t", "60", "--seed", "3", "-o", str(data)) == 0
        *flags, out = self.ARGV[command]
        capsys.readouterr()
        assert run(command, "--input", str(data / "y.csv"), "--rank", rank, *flags,
                   str(tmp_path / out)) == 0
        return capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("command", list(ARGV))
    def test_capped_fixed_rank_says_so(self, capsys, tmp_path, command):
        err = self.stderr(capsys, tmp_path, command, "fixed:100")
        assert [line for line in err if line.startswith("samossa: rank ")] == [
            "samossa: rank fixed:100 capped at k_hat=10: the Page matrix has no more positive "
            "singular values"]

    @pytest.mark.parametrize("command", list(ARGV))
    def test_uncapped_fixed_rank_logs_nothing_new(self, capsys, tmp_path, command):
        err = self.stderr(capsys, tmp_path, command, "fixed:3")
        assert not [line for line in err if line.startswith("samossa: rank ")]
        assert len(err) == 2  # the command's own two progress lines


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

    @pytest.mark.parametrize("truth_args, detail", [
        (("--n", "3", "--t", "200"), "truth f covers t=1..200, scoring needs t=251..300"),
        (("--n", "3", "--t", "280"), "truth f covers t=1..280, scoring needs t=251..300"),
        (("--n", "2", "--t", "300"),
         "3 x 50 forecasts against a truth of 2 f series, 2 x series and 2 AR models"),
    ])
    def test_eval_mismatched_truth_is_one_error_line(self, capsys, tmp_path, truth_args, detail):
        data, truth, out = tmp_path / "data", tmp_path / "truth", tmp_path / "report"
        run("synth", "--preset", "forecast", "--n", "3", "--t", "300", "--seed", "5",
            "-o", str(data))
        run("synth", "--preset", "forecast", *truth_args, "--seed", "5", "-o", str(truth))
        capsys.readouterr()
        assert run("eval", "--input", str(data / "y.csv"), "--train-end", "200",
                   "--valid-end", "250", "--test-end", "300", "--p", "1",
                   "--truth-dir", str(truth), "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("samossa: error:")] == [
            f"samossa: error: ShapeError: {detail}"]
        assert "fitting on" not in err  # the truth is checked before the fit
        assert not out.exists()

    def test_eval_truth_series_names_checked(self, capsys, tmp_path):
        # A truth dir with f.csv, x.csv and alphas all in reversed series order
        # is as large as the panel's, but scores other series.
        data, out = tmp_path / "data", tmp_path / "report"
        run("synth", "--preset", "forecast", "--n", "3", "--t", "300", "--seed", "5",
            "-o", str(data))
        for name in ("f.csv", "x.csv"):
            part = load_csv(data / name)
            save_csv(TimePanel(part.series_names[::-1], part.values[::-1]), data / name)
        truth = json.loads((data / "truth.json").read_text())
        truth["alphas"].reverse()
        (data / "truth.json").write_text(json.dumps(truth))
        capsys.readouterr()
        assert run("eval", "--input", str(data / "y.csv"), "--train-end", "200",
                   "--valid-end", "250", "--test-end", "300", "--p", "1",
                   "--truth-dir", str(data), "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("samossa: error:")] == [
            "samossa: error: ShapeError: truth f series ['s3', 's2', 's1'] do not match "
            "the forecast series ['s1', 's2', 's3']"]
        assert "fitting on" not in err
        assert not out.exists()

    @pytest.mark.parametrize("alphas", ["[[NaN], [NaN], [NaN]]", "[[-0.5], [Infinity], [-0.5]]",
                                        "[[-0.5], [-0.5], [1e999]]",
                                        '[["-0.5"], [true], ["-5e-1"]]'])
    def test_eval_non_finite_truth_alphas(self, capsys, tmp_path, alphas):
        # A for_err against NaN coefficients would be NaN, which is not JSON.
        # The alphas follow the model file's number rule, which names the
        # first entry that is not a finite JSON number (strings and booleans
        # are not numbers).
        detail = {"[[NaN], [NaN], [NaN]]": "alphas[0][0] must be a finite number, got nan",
                  "[[-0.5], [Infinity], [-0.5]]": "alphas[1][0] must be a finite number, got inf",
                  "[[-0.5], [-0.5], [1e999]]": "alphas[2][0] must be a finite number, got inf",
                  '[["-0.5"], [true], ["-5e-1"]]':
                      "alphas[0][0] must be a finite number, got '-0.5'"}[alphas]
        data, out = tmp_path / "data", tmp_path / "report"
        run("synth", "--preset", "forecast", "--n", "3", "--t", "300", "--seed", "5",
            "-o", str(data))
        (data / "truth.json").write_text(f'{{"alphas": {alphas}}}')
        capsys.readouterr()
        assert run("eval", "--input", str(data / "y.csv"), "--train-end", "200",
                   "--valid-end", "250", "--test-end", "300", "--p", "1",
                   "--truth-dir", str(data), "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("samossa: error:")] == [
            f"samossa: error: ParseError: {data / 'truth.json'}: cannot read 'alphas' "
            f"(ValueError: {detail})"]
        assert "fitting on" not in err
        assert not out.exists()

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
    # The golden panel y.csv is synth --preset forecast --n 3 --t 430 --seed 6,
    # written by the releases that simulated the AR noise with scipy's lfilter;
    # synth's numpy simulation rounds differently, so today's synth no longer
    # writes it byte for byte. It stays an input, and so do the goldens below.
    # best.json was written by the release before stage 1 was shared across
    # configs; model.json by the first release that reads stage 1's spectrum
    # and beta's downdate head off the scaled Page Gram's eigendecomposition
    # where a certificate allows, which moved beta and the noise variances by
    # at most 5.9e-15 of max(1, |value|) and 5.3e-13 of |value|; grid.csv by
    # the first release that takes the Gram of a tall Page matrix through a
    # QR, which moved the grid's R^2 by at most 6.2e-16 of max(1, |value|)
    # and 4.3e-14 of |value|. Each must be reproduced byte for byte, at any
    # BLAS thread count; assert_golden reports how far a mismatch moved.
    def test_grid_files(self, tmp_path):
        out = tmp_path / "grid"
        assert run("grid", "--input", str(GOLDEN / "y.csv"), "--train-end", "400",
                   "--valid-end", "430", "-o", str(out)) == 0
        for name in ("grid.csv", "best.json"):
            assert_golden(out / name, name)

    def test_fit_p_grid_model(self, tmp_path):
        model_path = tmp_path / "model.json"
        assert run("fit", "--input", str(GOLDEN / "y.csv"), "--p", "grid",
                   "-o", str(model_path)) == 0
        assert_golden(model_path, "model.json")

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_fit_and_grid_do_not_depend_on_blas_threads(self, tmp_path, threads):
        # BLAS reads its thread count when numpy loads, hence a fresh process.
        env = dict(os.environ, PYTHONPATH=str(Path(samossa.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        y = str(GOLDEN / "y.csv")
        for argv in (["fit", "--input", y, "--p", "grid", "-o", str(tmp_path / "model.json")],
                     ["grid", "--input", y, "--train-end", "400", "--valid-end", "430",
                      "-o", str(tmp_path)]):
            proc = subprocess.run([sys.executable, "-m", "samossa.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        for name in ("model.json", "grid.csv", "best.json"):
            assert_golden(tmp_path / name, name)

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_synth_and_fig2_do_not_depend_on_blas_threads(self, tmp_path, threads):
        # The AR simulation is elementwise numpy, so a synthetic panel, and the
        # fig2 tables drawn from such panels, are the same bytes at any BLAS
        # thread count: the panel matches one drawn in this process.
        env = dict(os.environ, PYTHONPATH=str(Path(samossa.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        synth_argv = ["synth", "--preset", "forecast", "--n", "3", "--t", "430", "--seed", "6"]
        assert run(*synth_argv, "-o", str(tmp_path / "here")) == 0
        for argv in ([*synth_argv, "-o", str(tmp_path / "synth")],
                     ["fig2", "--nt", "300,600", "--seeds", "2", "-o", str(tmp_path / "fig2")]):
            proc = subprocess.run([sys.executable, "-m", "samossa.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
        for name in ("y.csv", "f.csv", "x.csv", "truth.json"):
            assert (tmp_path / "synth" / name).read_bytes() == \
                (tmp_path / "here" / name).read_bytes(), name
        for name in ("fig2.csv", "fig2.json"):
            assert_golden(tmp_path / "fig2" / name, name)

    # Tables from the golden panel or model with the arguments below.
    # fig2.csv, fig2.json and report.csv were written by the first release
    # that takes the Gram of a tall Page matrix through a QR, which moved
    # fig2's errors by at most 6.0e-15 of max(1, |value|) and 1.2e-14 of
    # |value|, and report.csv's by at most 7.8e-16 and 4.7e-15; the
    # long-layout panel before every CSV writer went through
    # panel.write_rows; the recursive forecast from the golden model.json by
    # the release that reads stage 1 off the Page Gram, which moved
    # model.json and with it the forecast by at most 2.1e-14 of max(1,
    # |value|) and 2.8e-13 of |value|.
    def test_eval_report_csv(self, tmp_path):
        out = tmp_path / "eval"
        assert run("eval", "--input", str(GOLDEN / "y.csv"), "--train-end", "370",
                   "--valid-end", "400", "--test-end", "430", "-o", str(out)) == 0
        assert_golden(out / "report.csv", "report.csv")

    def test_fig2_files(self, tmp_path):
        out = tmp_path / "fig2"
        assert run("fig2", "--nt", "300,600", "--seeds", "2", "-o", str(out)) == 0
        for name in ("fig2.csv", "fig2.json"):
            assert_golden(out / name, name)

    def test_recursive_forecast_csv(self, tmp_path):
        out = tmp_path / "forecast.csv"
        assert run("forecast", "--model", str(GOLDEN / "model.json"), "--steps", "50",
                   "--recursive", "-o", str(out)) == 0
        assert_golden(out, "forecast.csv")

    def test_long_layout_panel(self, tmp_path):
        out = tmp_path / "y_long.csv"
        save_csv(load_csv(GOLDEN / "y.csv").window(30, 430), out, layout="long")
        assert_golden(out, "y_long.csv")

    # Panels written by the csv module's writerows (panel.write_rows), not by
    # save_csv's own row joiner: the golden model rolled over the last 50 rows
    # of y.csv. x_hat.csv dates from before save_csv joined its own rows;
    # y_hat.csv and f_hat.csv were rewritten when model.json's beta moved,
    # last by the Page Gram release (at most 1.3e-14 of max(1, |value|)).
    def test_observe_forecast_panels(self, tmp_path):
        lines = (GOLDEN / "y.csv").read_bytes().splitlines(keepends=True)
        test_csv = tmp_path / "test.csv"
        test_csv.write_bytes(b"".join(lines[:1] + lines[-50:]))
        out = tmp_path / "rolled"
        assert run("observe-forecast", "--model", str(GOLDEN / "model.json"),
                   "--test", str(test_csv), "-o", str(out)) == 0
        for name in ("y_hat.csv", "f_hat.csv", "x_hat.csv"):
            assert_golden(out / name, name)


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

    def test_fig2_overflowing_error_writes_nothing(self, capsys, tmp_path):
        # sigma2 = 1.7e308 draws values near 1e154, whose mean squared error
        # (about 2.1e308; 1.2e308 at sigma2 = 1e308) overflows.
        out = tmp_path / "f"
        assert_fails(capsys, 2, "MetricError", "fig2", "--lambda-stars", "0.3", "--nt", "300",
                     "--seeds", "1", "--sigma2", "1.7e308", "-o", str(out))
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--min-r2", "-1e9"], ["--min-r2=-1e9"]],
                             ids=["separate", "joined"])
    def test_negative_exponent_is_a_value(self, tmp_path, flag):
        assert run("eval", "--input", str(GOLDEN / "y.csv"), "--train-end", "370",
                   "--valid-end", "400", "--test-end", "430", *flag,
                   "-o", str(tmp_path / "eval")) == 0

    def test_negative_exponent_reaches_the_range_check(self, capsys, tmp_path):
        assert_fails(capsys, 2, "SpecError", "synth", "--lambda-star", "-1e-1",
                     "-o", str(tmp_path / "d"))

    def test_negative_comma_list_is_a_value(self, tmp_path):
        assert run("synth", "--kind", "pure_ar", "--alpha", "-5e-1,0.2", "--n", "2",
                   "--t", "50", "-o", str(tmp_path / "d")) == 0
        truth = json.loads((tmp_path / "d" / "truth.json").read_text())
        assert truth["alphas"][0] == [-0.5, 0.2]

    def test_layout(self, capsys, synth_dir, tmp_path):
        assert_usage_error(capsys, "fit", "--input", str(synth_dir / "y.csv"),
                           "--layout", "foo", "--p", "1", "-o", str(tmp_path / "m.json"))

    @pytest.mark.parametrize("argv", [
        ["synth", "--seed", "-1"],
        ["fig2", "--check", "--seed", "-3"],
        ["fit", "--input", "absent.csv", "--rank", "fixed:x"],
        ["decompose", "--input", "absent.csv", "--ratio", "0"],
        ["eval", "--input", "absent.csv", "--train-end", "x", "--valid-end", "2",
         "--test-end", "3"],
        ["grid", "--input", "absent.csv", "--train-end", "1", "--valid-end", "2",
         "--ps", "0,x"],
        ["observe-forecast", "--model", "absent.json", "--test", "absent.csv",
         "--layout", "tall"],
    ])
    def test_every_value_checked_before_any_file(self, capsys, tmp_path, argv):
        assert_usage_error(capsys, *argv, "-o", str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_decompose_L_1_is_a_config_error(self, capsys, synth_dir, tmp_path):
        # decompose resolves L through SamossaConfig, as fit and eval do.
        out = tmp_path / "decomp"
        assert_fails(capsys, 2, "ConfigError", "decompose", "--input", str(synth_dir / "y.csv"),
                     "--L", "1", "-o", str(out))
        assert not out.exists()

    def test_grid_split_out_of_range(self, capsys, tmp_path):
        # The golden panel has 430 steps; grid cuts it as eval does.
        assert_fails(capsys, 2, "SplitError", "grid", "--input", str(GOLDEN / "y.csv"),
                     "--train-end", "400", "--valid-end", "500", "-o", str(tmp_path / "g"))

    def test_input_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("caf\u00e9\n1\n2\n".encode("latin-1"))
        assert_fails(capsys, 2, "IngestError", "fit", "--input", str(bad), "--p", "1",
                     "-o", str(tmp_path / "m.json"))

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe\x00", b'{"spec": {}}',
                                         b'{"alphas": [[0.5], [0.5]]}'])
    def test_eval_truth_file(self, capsys, tmp_path, content):
        data = tmp_path / "data"
        assert run("synth", "--preset", "forecast", "--n", "3", "--t", "230",
                   "--seed", "5", "-o", str(data)) == 0
        (data / "truth.json").write_bytes(content)
        assert_fails(capsys, 2, "ParseError", "eval", "--input", str(data / "y.csv"),
                     "--train-end", "180", "--valid-end", "205", "--test-end", "230",
                     "--p", "1", "--truth-dir", str(data), "-o", str(tmp_path / "r"))

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


    # The energy rule picks its k at any scale; beta's residual RMS overflows.
    @pytest.mark.parametrize("rank, kind", [("energy:0.9", "FitError"), ("fixed:2", "FitError")])
    def test_fit_overflow_writes_no_model(self, capsys, tmp_path, rank, kind):
        values = 1e200 * (1.0 + 0.1 * np.random.default_rng(0).normal(size=(3, 400)))
        huge = tmp_path / "huge.csv"
        save_csv(TimePanel(("a", "b", "c"), values), huge)
        model_path = tmp_path / "m.json"
        capsys.readouterr()
        assert run("fit", "--input", str(huge), "--rank", rank, "-o", str(model_path)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert [line for line in err if "error" in line] == err[-1:], err
        assert err[-1].startswith(f"samossa: error: {kind}: "), err
        assert not model_path.exists()

    def test_names_a_wide_file_cannot_carry_write_nothing(self, capsys, tmp_path):
        # Numeric names load from the long layout, but a wide header of them
        # would read back as a data row.
        values = np.sin(np.arange(120.0) * np.array([[0.3], [0.7]]))
        long_csv = tmp_path / "long.csv"
        save_csv(TimePanel(("1", "2"), values), long_csv, layout="long")
        out = tmp_path / "decomp"
        capsys.readouterr()
        assert run("decompose", "--input", str(long_csv), "--layout", "long", "--L", "6",
                   "-o", str(out)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert [line for line in err if "error" in line] == err[-1:], err
        assert err[-1].startswith("samossa: error: IngestError: series names ['1', '2']"), err
        assert not (out / "f_hat.csv").exists()

    def test_duplicate_series_names_are_an_ingest_error(self, capsys, tmp_path):
        rows = np.random.default_rng(0).normal(size=(60, 3))
        wide = tmp_path / "dup.csv"
        wide.write_text("a,a,b\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
        out = tmp_path / "report"
        assert_fails(capsys, 2, "IngestError", "eval", "--input", str(wide), "--train-end", "40",
                     "--valid-end", "50", "--test-end", "60", "-o", str(out))
        assert not out.exists()

    def test_model_name_that_is_not_utf8_is_a_parse_error(self, capsys, tmp_path):
        doc = json.loads((GOLDEN / "model.json").read_text())
        doc["series_names"][0] = "\ud800"  # a lone surrogate: no UTF-8 file can hold it
        model_path, out = tmp_path / "m.json", tmp_path / "f.csv"
        model_path.write_text(json.dumps(doc))
        assert_fails(capsys, 2, "ParseError", "forecast", "--model", str(model_path),
                     "-o", str(out))
        assert not out.exists()

    def test_memory_error_is_one_error_line(self, capsys, tmp_path, monkeypatch):
        def exhausted(model, steps):
            raise MemoryError(f"Unable to allocate the forecasts of {steps} steps")

        monkeypatch.setattr(samossa.pipeline, "forecast_recursive", exhausted)
        out = tmp_path / "f.csv"
        assert_fails(capsys, 2, "MemoryError", "forecast", "--model", str(GOLDEN / "model.json"),
                     "--steps", "300000000", "--recursive", "-o", str(out))
        assert not out.exists()


class TestFig2:
    def test_small_sweep_with_check(self, tmp_path):
        out = tmp_path / "fig2"
        code = run("fig2", "--lambda-stars", "0.3", "--nt", "3000,30000",
                   "--seeds", "2", "--check", "-o", str(out))
        assert code == 0
        lines = (out / "fig2.csv").read_text().strip().splitlines()
        assert len(lines) == 5
        summary = json.loads((out / "fig2.json").read_text())
        assert "0.3" in summary["median_est_err"]

    @pytest.mark.parametrize("p", ["1", "3"])
    def test_fitted_order_other_than_the_truths(self, capsys, tmp_path, p):
        # The truth is an AR(2); alpha_err compares the fitted AR(p) padded with zeros.
        out = tmp_path / "fig2"
        assert run("fig2", "--p", p, "--nt", "300,6000", "--seeds", "2", "--lambda-stars", "0.3",
                   "-o", str(out)) == 0
        assert "Traceback" not in capsys.readouterr().err
        rows = (out / "fig2.csv").read_text().strip().splitlines()[1:]
        expected = samossa.evaluation.figure2_experiment([0.3], [300, 6000], n_seeds=2,
                                                         p=int(p)).rows
        assert [float(row.split(",")[-1]) for row in rows] == [r.alpha_err for r in expected]

    def test_failed_check(self, capsys, tmp_path):
        # Two small points near the unit circle: the error grows with N*T.
        out = tmp_path / "fig2"
        capsys.readouterr()
        assert run("fig2", "--lambda-stars", "0.95", "--nt", "300,600", "--seeds", "1",
                   "--check", "-o", str(out)) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert [line for line in err if "error" in line] == err[-1:]
        assert err[-1].startswith("samossa: error: AssertionFailure: ")
        assert "est_err did not decay for lambda_star=0.95" in err[-1]
        assert "outside [-0.75, -0.25] for lambda_star=0.95" in err[-1]
        assert (out / "fig2.csv").exists() and (out / "fig2.json").exists()

    @pytest.mark.parametrize("nt", ["300", "300,300"])
    def test_check_needs_two_distinct_sizes(self, capsys, tmp_path, nt):
        # One N*T has no slope, so --check would pass having checked nothing.
        out = tmp_path / "fig2"
        assert_usage_error(capsys, "fig2", "--lambda-stars", "0.95", "--nt", nt, "--seeds", "1",
                           "--check", "-o", str(out))
        assert not out.exists()
        assert run("fig2", "--lambda-stars", "0.95", "--nt", nt, "--seeds", "1",
                   "-o", str(out)) == 0

    def test_no_threads_option(self, capsys, tmp_path):
        # The sweep sizes its pool like the grid scorer; neither a flag nor a
        # config entry names a thread count.
        out, cfg = tmp_path / "fig2", tmp_path / "conf.json"
        cfg.write_text(json.dumps({"threads": 2}))
        for extra in (["--threads", "2"], ["--config", str(cfg)]):
            assert_usage_error(capsys, "fig2", "--nt", "300", "--seeds", "1", *extra,
                               "-o", str(out))
        assert not out.exists()


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

    def test_key_of_no_subcommand(self, capsys, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"rnak": "fixed:3"}))
        assert_usage_error(capsys, "fit", "--input", str(GOLDEN / "y.csv"), "--p", "1",
                           "--config", str(cfg), "-o", str(tmp_path / "m.json"))
        assert not (tmp_path / "m.json").exists()

    def test_key_of_another_subcommand(self, tmp_path):
        # One file can serve fit and eval: fit ignores eval's split ends.
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"rank": "fixed:3", "p": 1, "train_end": 400,
                                   "valid_end": 415, "test_end": 430}))
        model_path = tmp_path / "m.json"
        assert run("fit", "--input", str(GOLDEN / "y.csv"), "--config", str(cfg),
                   "-o", str(model_path)) == 0
        doc = json.loads(model_path.read_text())
        assert doc["k_hat"] == 3 and doc["p_used"] == [1, 1, 1]

    @pytest.mark.parametrize("argv, entries", [
        (["forecast", "--model", str(GOLDEN / "model.json")], {"recursive": "no", "steps": 3}),
        (["forecast", "--model", str(GOLDEN / "model.json")], {"recursive": 1, "steps": 3}),
        (["fig2", "--nt", "3000", "--seeds", "1"], {"check": "yes"}),
    ])
    def test_switch_takes_true_or_false(self, capsys, tmp_path, argv, entries):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps(entries))
        out = tmp_path / "out"
        assert_usage_error(capsys, *argv, "--config", str(cfg), "-o", str(out))
        assert not out.exists()
        if argv[0] == "forecast":
            cfg.write_text(json.dumps({"recursive": True, "steps": 3}))
            assert run(*argv, "--config", str(cfg), "-o", str(out)) == 0
            assert load_csv(out).values.shape == (3, 3)

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"{not json", b"[1, 2]", b'"p"'])
    def test_file_not_utf8_json_or_object(self, capsys, tmp_path, content):
        cfg = tmp_path / "conf.json"
        cfg.write_bytes(content)
        assert_usage_error(capsys, "fit", "--input", str(GOLDEN / "y.csv"),
                           "--config", str(cfg), "-o", str(tmp_path / "m.json"))

    @pytest.mark.parametrize("entries", [{"steps": "x"}, {"steps": 2.5}, {"steps": True},
                                         {"save_model": ["m.json"]}, {"layout": "tall"}])
    def test_file_values_are_converted(self, capsys, tmp_path, entries):
        # One file for forecast and observe-forecast; each converts its own keys.
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"recursive": True, **entries}))
        out = tmp_path / "out"
        command = ["forecast"] if "steps" in entries else ["observe-forecast", "--test",
                                                           str(GOLDEN / "y.csv")]
        assert_usage_error(capsys, *command, "--model", str(GOLDEN / "model.json"),
                           "--config", str(cfg), "-o", str(out))
        assert not out.exists()


def test_import_loads_no_scipy(tmp_path):
    # scipy takes about a second and 70 MB to import, and the package needs
    # numpy alone: neither a CLI start, a synthetic panel (library or CLI)
    # nor a top-k SVD above the crossover loads it.
    env = dict(os.environ, PYTHONPATH=str(Path(samossa.__file__).parents[1]))
    synth_argv = ["synth", "--preset", "forecast", "--n", "3", "--t", "430",
                  "-o", str(tmp_path / "d")]
    for code in ("import samossa, samossa.cli",
                 "from samossa import synth; "
                 "synth.generate(synth.forecasting_spec(n_series=3, length=430))",
                 f"from samossa.cli import main; assert main({synth_argv!r}) == 0",
                 "import samossa.cli, numpy as np; from samossa import lowrank; "
                 "rng = np.random.default_rng(0); "
                 "a = rng.normal(size=(600, 2)) @ rng.normal(size=(2, 620)); "
                 "assert lowrank.takes_topk(a.shape, 2) and lowrank._krylov(a, 2) is not None; "
                 "assert lowrank.svd(a, k=2).singular_values.shape == (2,)"):
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; {code}; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", code


def test_package_imports_only_the_stdlib_and_numpy():
    # numpy is the one runtime dependency (pyproject.toml): every import in
    # the package, at module level or inside a function, is of the standard
    # library, numpy, or the package itself.
    def outside(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                yield node.module
            elif isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)

    allowed = set(sys.stdlib_module_names) | {"numpy", "samossa"}
    package = Path(samossa.__file__).parent
    found = {(path.name, name) for path in sorted(package.glob("*.py"))
             for name in outside(ast.parse(path.read_text(encoding="utf-8")))}
    assert found and {(path, name) for path, name in found
                      if name.split(".")[0] not in allowed} == set()
    assert ("lowrank.py", "numpy") in found


class TestHelp:
    def test_every_flag_documented(self, capsys):
        for command, spec in COMMANDS.items():
            assert main([command, "--help"]) == 0
            text = capsys.readouterr().out
            for option in spec.options:
                for flag in option.flags:
                    assert flag in text, f"{command} --help missing {flag}"

    def test_options_unchanged(self):
        # options.json was written from the parser before the options were
        # declared once each: every subcommand keeps its flags, required
        # flags, defaults and help, in --help order.
        declared = {
            name: [{"flags": list(option.flags), "required": option.required,
                    "default": option.default, "help": option.help}
                   for option in spec.options]
            for name, spec in COMMANDS.items()
        }
        assert declared == json.loads((GOLDEN / "options.json").read_text())
        (subparsers,) = [a for a in _build_parser()._actions if a.dest == "command"]
        for name, sub in subparsers.choices.items():
            built = [(a.option_strings, a.required, a.help) for a in sub._actions[1:]]
            assert built == [(o["flags"], o["required"], o["help"]) for o in declared[name]]

    def test_bare_options_resolve_to_the_library_defaults(self):
        # The default lattice and the fit defaults are stated once, in the library.
        def resolved(*argv):
            return _resolve(_build_parser().parse_args(list(argv)))

        grid = resolved("grid", "--input", "y.csv", "--train-end", "1", "--valid-end", "2",
                        "-o", "out")
        assert default_grid(grid.ranks, grid.ratios, grid.ps) == default_grid()
        assert (grid.ranks, grid.ratios, grid.ps) == (
            RANK_GRID_DEFAULT, RATIO_GRID_DEFAULT, P_GRID_DEFAULT)
        assert _pipeline_config(resolved("fit", "--input", "y.csv", "-o", "m.json")) == \
            SamossaConfig()

    def test_help_exit_code(self):
        assert run("--help") == 0

    @pytest.mark.parametrize("argv", [
        ["fit", "--input", "y.csv", "-o", "m.json", "--bogus", "1"],
        ["forecast", "-o", "f.csv", "--test", "y.csv"],
        ["fit", "-o", "m.json", "--input"],
        ["explode"],
        [],
    ], ids=["unknown-flag", "missing-required-flag", "flag-without-value", "bad-subcommand",
            "no-subcommand"])
    def test_argparse_errors_are_one_line(self, capsys, argv):
        assert_usage_error(capsys, *argv)

    def test_no_command_usage_error(self):
        assert run() == 1

    def test_unknown_command(self):
        assert run("explode") == 1
