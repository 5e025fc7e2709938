"""Stage 1 is computed once per (panel, L) and shared; outputs stay bit-identical.

The oracles here fit every configuration from scratch, the way the search
did before stage 1 was shared, and require exact equality (``==``, not a
tolerance) with the shared path.
"""

import sys
import threading
import time
import weakref

import numpy as np
import pytest

from samossa import FitError, RankRule, SamossaConfig, SearchError, TimePanel, lowrank
from samossa import evaluation, pipeline, ssa_estimator
from samossa.evaluation import (
    default_grid,
    forecast_benchmark_run,
    grid_search,
    rolling_eval,
)
from samossa.linear_forecaster import fit_beta
from samossa.pipeline import fit
from samossa.ssa_estimator import Decomposition, Stage1, decompose
from samossa.synth import forecasting_spec, generate


@pytest.fixture()
def svd_calls(monkeypatch):
    """Count lowrank.svd calls, wrapping it in every samossa module that holds it."""
    calls = []
    original = lowrank.svd

    def counted(matrix, *args, **kwargs):
        calls.append(np.shape(matrix))
        return original(matrix, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "samossa" or name.startswith("samossa."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def split_panel(n_series=3, length=630, valid_len=30, seed=3):
    res = generate(forecasting_spec(n_series=n_series, length=length, seed=seed))
    names = res.y.series_names
    cut = length - valid_len
    train = TimePanel(names, res.y.values[:, :cut], t0=1)
    valid = TimePanel(names, res.y.values[:, cut:], t0=cut + 1)
    return train, valid


class TestGridSearchOracle:
    def test_matches_per_config_fits(self):
        train, valid = split_panel()
        grid = default_grid()  # 3 rank rules x 3 ratios x 4 orders
        best, entries = grid_search(train, valid, grid)

        expected = []
        for config in grid:
            model = fit(train, config)
            expected.append((config, rolling_eval(model, valid).mean_r2, model.k_hat))
        assert [(e.config, e.mean_r2, e.k_hat) for e in entries] == expected
        keyed = sorted(
            (-r2, k, config.p, config.shape_ratio, idx)
            for idx, (config, r2, k) in enumerate(expected)
        )
        assert best is grid[keyed[0][4]]

    def test_failed_configs_keep_grid_order(self):
        train, valid = split_panel()
        bad = SamossaConfig(L=10**9, rank=RankRule.fixed(5), p=1)
        grid = [SamossaConfig(rank=RankRule.fixed(5), p=1, shape_ratio=3), bad,
                SamossaConfig(rank=RankRule.fixed(5), p=0, shape_ratio=1),
                SamossaConfig(rank=RankRule.universal(), p=1, shape_ratio=3)]
        _, entries = grid_search(train, valid, grid)
        assert [e.config for e in entries] == [grid[0], grid[2], grid[3]]

    def test_one_live_stage1_per_L_in_first_seen_order(self, monkeypatch):
        # Resolved L: 42, 30, 42 (explicit, equal to the ratio config's), an
        # unstackable 10**9, 24, 30. The groups interleave in grid order.
        train, valid = split_panel()
        rule = RankRule.fixed(5)
        grid = [SamossaConfig(rank=rule, p=1, shape_ratio=1), SamossaConfig(L=30, rank=rule, p=1),
                SamossaConfig(L=42, rank=rule, p=1), SamossaConfig(L=10**9, rank=rule, p=1),
                SamossaConfig(rank=rule, p=1, shape_ratio=3), SamossaConfig(L=30, rank=rule, p=1)]
        built, alive_at_build = [], []

        class Tracked(Stage1):
            def __init__(self, panel, L):
                alive_at_build.append(sum(ref() is not None for ref, _ in built))
                super().__init__(panel, L)
                built.append((weakref.ref(self), L))

        monkeypatch.setattr(evaluation, "Stage1", Tracked)
        _, entries = grid_search(train, valid, grid)
        assert [L for _, L in built] == [42, 30, 24]
        assert alive_at_build == [0, 0, 0, 0]  # L = 10**9 is tried once, and fails alone
        assert [e.config for e in entries] == grid[:3] + grid[4:]

    def test_p_grid_configs(self):
        train, valid = split_panel()
        grid = [SamossaConfig(rank=RankRule.energy(0.9), p=(0, 1, 2), valid_len=20),
                SamossaConfig(rank=RankRule.fixed(5), p=(1, 2), valid_len=20)]
        _, entries = grid_search(train, valid, grid)
        expected = [rolling_eval(fit(train, config), valid).mean_r2 for config in grid]
        assert [e.mean_r2 for e in entries] == expected


class TestForecastBenchmarkOracle:
    def test_matches_two_searches_and_refits(self):
        seed, n_series, train_len, valid_len, test_len = 2, 5, 2000, 25, 25
        got = forecast_benchmark_run(seed, n_series=n_series, train_len=train_len)

        res = generate(forecasting_spec(n_series=n_series, length=2050, seed=seed))
        names, values = res.y.series_names, res.y.values
        train = TimePanel(names, values[:, :train_len], t0=1)
        valid = TimePanel(names, values[:, train_len:train_len + valid_len], t0=train_len + 1)
        fit_window = TimePanel(names, values[:, :train_len + valid_len], t0=1)
        test = TimePanel(names, values[:, train_len + valid_len:],
                         t0=train_len + valid_len + 1)
        grid = default_grid()
        best, _ = grid_search(train, valid, grid)
        best_ablation, _ = grid_search(train, valid, [c for c in grid if c.p == 0])
        expected = tuple(rolling_eval(fit(fit_window, c), test).mean_r2
                         for c in (best, best_ablation))
        assert test.length == test_len
        assert got == expected

    def test_grid_without_order_zero(self):
        grid = [SamossaConfig(rank=RankRule.fixed(5), p=1)]
        with pytest.raises(SearchError):
            forecast_benchmark_run(0, n_series=3, train_len=600, grid=grid)


class TestSvdCallCounts:
    def test_decompose_takes_one(self, svd_calls):
        train, _ = split_panel()
        decompose(train, 30, RankRule.energy(0.9))
        assert len(svd_calls) == 1

    def test_fit_beta(self, svd_calls):
        train, _ = split_panel()
        fit_beta(train, 30, RankRule.fixed(5), k_hat=5)
        assert svd_calls == [(29, 60)]
        fit_beta(train, 30, RankRule.fixed(5))
        assert svd_calls[1:] == [(30, 60), (29, 60)]

    def test_p_grid_fit_takes_four(self, svd_calls):
        train, _ = split_panel()
        fit(train, SamossaConfig(rank=RankRule.energy(0.9), p=(0, 1, 2, 3), valid_len=25))
        assert len(svd_calls) == 4  # head full + sub, refit full + sub

    def test_grid_search_takes_two_per_L(self, svd_calls):
        train, valid = split_panel()
        grid = default_grid()
        grid_search(train, valid, grid)
        n_L = len({c.resolved_L(train.n_series, train.length) for c in grid})
        assert n_L == 3
        assert len(svd_calls) == 2 * n_L


class TestStage1:
    def test_memoizes_latest_k_only(self):
        train, _ = split_panel()
        stage = Stage1(train, 30)
        first = stage.decompose(RankRule.fixed(4))
        assert stage.decompose(RankRule.fixed(4)) is first
        beta = stage.beta(4)
        assert stage.beta(4) is beta
        other = stage.decompose(RankRule.fixed(6))
        assert other.k_hat == 6
        assert stage.decompose(RankRule.fixed(4)) is not first

    def test_same_numbers_as_fresh_calls(self):
        train, _ = split_panel()
        stage = Stage1(train, 30)
        for rule in (RankRule.universal(), RankRule.energy(0.9), RankRule.fixed(5)):
            shared = stage.decompose(rule)
            fresh = decompose(train, 30, rule)
            assert shared.k_hat == fresh.k_hat
            assert np.array_equal(shared.f_hat, fresh.f_hat)
            assert np.array_equal(shared.x_hat, fresh.x_hat)
            shared_beta = stage.beta(shared.k_hat)
            fresh_beta = fit_beta(train, 30, rule, k_hat=fresh.k_hat)
            assert np.array_equal(shared_beta.beta, fresh_beta.beta)
            assert shared_beta.resid_rms == fresh_beta.resid_rms


class TestPipelinedScoring:
    """Stage 2 of each config runs on one helper thread; the outcome is the serial one."""

    def test_matches_serial_oracle_with_failures_on_both_threads(self):
        train, valid = split_panel()
        rule = RankRule.fixed(5)
        grid = [SamossaConfig(L=30, rank=rule, p=1),
                SamossaConfig(L=10**9, rank=rule, p=1),  # unstackable: fails in stage 1
                SamossaConfig(L=30, rank=rule, p=300),  # 2p + 1 > T_eff: fails on the helper
                SamossaConfig(L=30, rank=RankRule.universal(), p=2),
                SamossaConfig(rank=RankRule.energy(0.9), p=(0, 1, 2), valid_len=20),
                SamossaConfig(L=30, rank=rule, p=0),
                SamossaConfig(rank=RankRule.fixed(3), p=1, shape_ratio=3)]
        got = evaluation._score_each(train, grid, valid, catch=evaluation._CONFIG_ERRORS)

        expected = []
        for config in grid:
            try:
                model = fit(train, config)
                expected.append((rolling_eval(model, valid).mean_r2, model.k_hat))
            except evaluation._CONFIG_ERRORS as exc:
                expected.append(type(exc))
        assert [type(r) if isinstance(r, Exception) else (r.mean_r2, r.k_hat)
                for r in got] == expected
        assert expected[2] is FitError
        assert [r.config for r in got if not isinstance(r, Exception)] == [
            c for c, e in zip(grid, expected) if not isinstance(e, type)]

    def test_other_errors_propagate_and_pending_work_is_cancelled(self, monkeypatch):
        train, valid = split_panel()
        calls = []

        def broken(residuals, p):
            calls.append(p)
            time.sleep(0.05)
            raise RuntimeError("bug in stage 2")

        monkeypatch.setattr(pipeline, "fit_ar", broken)
        grid = [SamossaConfig(L=30, rank=RankRule.fixed(5), p=1)] * 12
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="bug in stage 2"):
            grid_search(train, valid, grid)
        assert threading.active_count() == threads
        assert len(calls) <= 2  # the failed task and at most the one running when it was read

    def test_at_most_two_live_decompositions(self, monkeypatch):
        train, valid = split_panel()
        original = pipeline.fit_ar

        def slow(residuals, p):  # the helper lags behind stage 1
            time.sleep(0.01)
            return original(residuals, p)

        monkeypatch.setattr(pipeline, "fit_ar", slow)
        grid = [SamossaConfig(rank=RankRule.fixed(k), p=p, shape_ratio=ratio)
                for ratio in (1, 3) for k in (2, 3, 4, 5) for p in (1, 2)]
        built, alive_at_build = [], []

        class Tracked(Decomposition):
            def __init__(self, *args, **kwargs):
                alive_at_build.append(sum(ref() is not None for ref in built))
                super().__init__(*args, **kwargs)
                built.append(weakref.ref(self))

        monkeypatch.setattr(ssa_estimator, "Decomposition", Tracked)
        _, entries = grid_search(train, valid, grid)
        assert len(built) == 8 and len(entries) == 16
        assert max(alive_at_build) == 1  # the helper lags one decomposition behind, never two

    def test_stage2_runs_on_the_helper_under_the_callers_errstate(self, monkeypatch):
        train, valid = split_panel()
        seen = []
        original = pipeline.fit_ar

        def recording(residuals, p):
            seen.append((threading.current_thread() is threading.main_thread(),
                         np.geterr()["over"]))
            return original(residuals, p)

        monkeypatch.setattr(pipeline, "fit_ar", recording)
        grid = [SamossaConfig(L=30, rank=RankRule.fixed(5), p=p) for p in (1, 2)]
        with np.errstate(over="raise"):
            grid_search(train, valid, grid)
        assert seen and set(seen) == {(False, "raise")}
