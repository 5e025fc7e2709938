"""Stage 1 runs on a pool of W workers; no score, model or error depends on W.

W is ``evaluation._workers()``: usable cores // BLAS threads, at least 1.
The oracles here fit every configuration alone with a fixed AR order, which
starts no thread, and require exact equality (``==``, not a tolerance)
whatever W the pool is given.
"""

import ctypes
import json
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import samossa
from samossa import (ConfigError, FitError, RankError, RankRule, SamossaConfig, SearchError,
                     TimePanel)
from samossa import evaluation, pipeline
from samossa.evaluation import default_grid, forecast_benchmark_run, grid_search, rolling_eval
from samossa.pipeline import fit
from samossa.ssa_estimator import Stage1
from samossa.synth import forecasting_spec, generate

WORKERS = [1, 2, 3]


@pytest.fixture(params=WORKERS)
def workers(request, monkeypatch):
    """Every pool of ``evaluation._run_jobs`` gets up to this many threads."""
    monkeypatch.setattr(evaluation, "_workers", lambda: request.param)
    return request.param


def outcome(result):
    """A GridEntry as it is, an error as its type and message."""
    return (type(result), str(result)) if isinstance(result, Exception) else result


def serial(train, valid, grid):
    """Each config fitted alone and rolled over ``valid``: its GridEntry or its error."""
    results = []
    for config in grid:
        try:
            model = fit(train, config)
            results.append(evaluation.GridEntry(
                config=config, mean_r2=rolling_eval(model, valid).mean_r2, k_hat=model.k_hat))
        except evaluation._CONFIG_ERRORS as exc:
            results.append(exc)
    return results


def serial_best(entries):
    """The winner by the search's key: R^2, then k_hat, p, shape ratio and grid order."""
    return min(enumerate(entries), key=lambda item: (
        -item[1].mean_r2, item[1].k_hat, item[1].config.p, item[1].config.shape_ratio,
        item[0]))[1].config


def forecast_panel(n_series=3, length=630, valid_len=30, seed=3):
    y = generate(forecasting_spec(n_series=n_series, length=length, seed=seed)).y
    return y.window(0, length - valid_len), y.window(length - valid_len, length)


def sawtooth_panel():
    # s(t) = 1 at every fourth step: at L = 4 every Page column is (0, 0, 0, 2)
    # or (0, 0, 0, 3), so the lag regression's features are all zero.
    s = (np.arange(48) % 4 == 3).astype(float)
    panel = TimePanel(("a", "b"), np.array([2 * s, 3 * s]))
    return panel.window(0, 40), panel.window(40, 48)


def failing_grids():
    """Grids with configs that fail in each part of a job: building the Stage1,
    solving the lag model, and the AR fit."""
    rule = RankRule.fixed(5)
    forecast = (forecast_panel(), [
        SamossaConfig(L=30, rank=rule, p=1),
        SamossaConfig(L=10**9, rank=rule, p=1),  # unstackable: fails building its Stage1
        SamossaConfig(L=30, rank=rule, p=300),  # 2p + 1 > T_eff: fails in stage 2
        SamossaConfig(L=30, rank=RankRule.universal(), p=2),
        SamossaConfig(rank=RankRule.energy(0.9), p=2),
        SamossaConfig(L=30, rank=rule, p=0),
        SamossaConfig(rank=RankRule.fixed(3), p=1, shape_ratio=3),
        SamossaConfig(L=24, rank=RankRule.energy(0.9), p=1)])
    sawtooth = (sawtooth_panel(), [
        SamossaConfig(L=4, rank=RankRule.fixed(1), p=1),  # the lag model fails
        SamossaConfig(L=5, rank=RankRule.fixed(1), p=300),
        SamossaConfig(L=4, rank=RankRule.energy(0.9), p=1),  # its twin shares the error
        SamossaConfig(L=5, rank=RankRule.fixed(1), p=1),
        SamossaConfig(L=6, rank=RankRule.energy(0.9), p=2)])
    return {"forecast": forecast, "sawtooth": sawtooth}


@pytest.fixture(scope="module", params=["forecast", "sawtooth"])
def failing_case(request):
    (train, valid), grid = failing_grids()[request.param]
    return train, valid, grid, serial(train, valid, grid)


class TestScoresDoNotDependOnWorkers:
    def test_score_each(self, workers, failing_case):
        train, valid, grid, expected = failing_case
        got = evaluation._score_each(train, grid, valid, catch=evaluation._CONFIG_ERRORS)
        assert [outcome(r) for r in got] == [outcome(r) for r in expected]
        assert {type(r).__name__ for r in got} >= {"GridEntry", "FitError"}

    def test_grid_search(self, workers, failing_case):
        train, valid, grid, expected = failing_case
        best, entries = grid_search(train, valid, grid)
        expected_entries = [e for e in expected if not isinstance(e, Exception)]
        assert entries == expected_entries
        assert best is serial_best(expected_entries)

    def test_grid_search_failures(self, workers):
        (train, valid), grid = failing_grids()["sawtooth"]
        failing = [grid[0], grid[1], grid[2]]
        with pytest.raises(SearchError) as excinfo:
            grid_search(train, valid, failing)
        assert [(c, outcome(e)) for c, e in excinfo.value.failures] == [
            (c, outcome(e)) for c, e in zip(failing, serial(train, valid, failing))]

    def test_p_grid_fit(self, workers):
        panel = generate(forecasting_spec(n_series=4, length=900, seed=11)).y
        config = SamossaConfig(rank=RankRule.energy(0.9), p=(0, 1, 2, 3), valid_len=25)
        head, tail = panel.window(0, 875), panel.window(875, 900)
        order_configs = [replace(config, p=p) for p in config.p]
        p = serial_best(serial(head, tail, order_configs)).p
        expected = fit(panel, replace(config, p=p))

        model = fit(panel, config)
        assert model.config == config and model.p_used == expected.p_used
        assert model.k_hat == expected.k_hat
        assert model.beta_model.beta.tobytes() == expected.beta_model.beta.tobytes()
        assert model.beta_model.resid_rms == expected.beta_model.resid_rms
        assert [(m.alpha.tobytes(), m.noise_var_hat) for m in model.ar_models] == [
            (m.alpha.tobytes(), m.noise_var_hat) for m in expected.ar_models]
        for name in ("obs_lags", "resid_lags"):
            assert getattr(model.state, name).tobytes() == getattr(expected.state, name).tobytes()
        assert model.state.next_t == expected.state.next_t

    def test_forecast_benchmark_run(self, workers, benchmark_oracle):
        assert forecast_benchmark_run(1, n_series=5, train_len=2000) == benchmark_oracle


@pytest.fixture(scope="module")
def benchmark_oracle():
    """forecast_benchmark_run(1, n_series=5, train_len=2000) from per-config fits."""
    y = generate(forecasting_spec(n_series=5, length=2050, seed=1)).y
    train, valid = y.window(0, 2000), y.window(2000, 2025)
    fit_window, test = y.window(0, 2025), y.window(2025, 2050)
    entries = serial(train, valid, default_grid())
    best = serial_best(entries)
    ablation = serial_best([e for e in entries if e.config.p == 0])
    return tuple(rolling_eval(fit(fit_window, c), test).mean_r2 for c in (best, ablation))


class TestPGridFitErrors:
    """A p-grid fit's errors take a serial fit's precedence at every W."""

    @staticmethod
    def failing_whole_panel(monkeypatch, length):
        """Make the Stage1 of a panel of ``length`` steps raise; return the threads that built one."""
        built_on = []

        class Failing(Stage1):
            def __init__(self, panel, L):
                if panel.length == length:
                    built_on.append(threading.current_thread() is threading.main_thread())
                    raise RankError("whole-panel stage 1 failed")
                super().__init__(panel, L)

        monkeypatch.setattr(pipeline, "Stage1", Failing)
        return built_on

    @pytest.mark.parametrize("p, valid_len, error, match", [
        ((0, 1), 600, ConfigError, "valid_len=600 unusable"),
        ((1, 300), 25, FitError, "p=300"),  # in the head's stage 2
    ], ids=["valid_len", "order"])
    def test_order_selection_error_wins(self, workers, monkeypatch, p, valid_len, error, match):
        train, _ = forecast_panel()
        built_on = self.failing_whole_panel(monkeypatch, train.length)
        config = SamossaConfig(rank=RankRule.fixed(5), p=p, valid_len=valid_len)
        threads = threading.active_count()
        with pytest.raises(error, match=match):
            fit(train, config)
        assert threading.active_count() == threads
        if workers == 1:  # the stage-1 job starts after the error and returns at once
            assert built_on == []

    def test_whole_panel_stage1_error(self, workers, monkeypatch):
        train, _ = forecast_panel()
        built_on = self.failing_whole_panel(monkeypatch, train.length)
        config = SamossaConfig(rank=RankRule.fixed(5), p=(0, 1), valid_len=25)
        threads = threading.active_count()
        with pytest.raises(RankError, match="whole-panel stage 1 failed"):
            fit(train, config)
        assert threading.active_count() == threads
        # On a pool thread at every W: beside order selection from W = 2 on, after it at 1.
        assert built_on == [False]


def fresh(code, threads):
    """Run ``code`` in a fresh interpreter with BLAS at ``threads`` threads; its JSON output."""
    env = dict(os.environ, PYTHONPATH=str(Path(samossa.__file__).parents[1]),
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


RULE = """
import json, os
from samossa import evaluation
getter = evaluation._blas_threads_getter()
cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
print(json.dumps({"workers": evaluation._workers(), "cores": cores,
                  "threads": getter() if getter else None}))
"""


class TestWorkerCountRule:
    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_cores_over_blas_threads(self, threads):
        got = fresh(RULE, threads)
        if got["threads"] is None:
            pytest.skip("numpy's BLAS is not the bundled OpenBLAS")
        if threads == "1":
            assert got["threads"] == 1 and got["workers"] == got["cores"]
        else:  # OpenBLAS runs at most one thread per core
            assert got["threads"] >= min(3, got["cores"])
            assert got["workers"] == max(1, got["cores"] // got["threads"])
            if got["cores"] <= 3:
                assert got["workers"] == 1

    def test_import_opens_no_blas_handle(self):
        got = fresh("""
import ctypes, json
import numpy
opened, real = [], ctypes.CDLL
ctypes.CDLL = lambda name, *args, **kwargs: opened.append(name) or real(name, *args, **kwargs)
import samossa
from samossa import evaluation
at_import = list(opened), evaluation._blas_threads_getter.cache_info().currsize
evaluation._workers()
print(json.dumps({"at_import": at_import, "after": len(opened)}))
""", "1")
        assert got == {"at_import": [[], 0], "after": 1}

    @pytest.fixture()
    def fresh_lookup(self):
        evaluation._blas_threads_getter.cache_clear()
        yield
        evaluation._blas_threads_getter.cache_clear()

    @pytest.mark.parametrize("found", [None, object()], ids=["no library", "no symbol"])
    def test_unreadable_thread_count_gives_one_worker(self, monkeypatch, fresh_lookup, found):
        def cdll(name, *args, **kwargs):
            if found is None:
                raise OSError(f"{name}: cannot open shared object file")
            return found

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert evaluation._blas_threads_getter() is None
        assert evaluation._workers() == 1
