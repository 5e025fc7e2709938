"""Stage 1 is computed once per (panel, L) and shared; outputs stay bit-identical.

The oracles here fit every configuration from scratch, the way the search
did before stage 1 was shared, and require exact equality (``==``, not a
tolerance) with the shared path.
"""

import threading
import time
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from samossa import (ConfigError, FitError, RankRule, SamossaConfig, SearchError, TimePanel,
                     default_L, lowrank)
from samossa import evaluation, pipeline, ssa_estimator
from samossa.evaluation import (
    default_grid,
    forecast_benchmark_run,
    grid_search,
    rolling_eval,
)
from samossa.linear_forecaster import fit_beta
from samossa.lowrank import takes_topk
from samossa.pipeline import fit
from samossa.ssa_estimator import Decomposition, Stage1, decompose
from samossa.synth import estimation_spec, forecasting_spec, generate


def set_workers(monkeypatch, workers):
    """Run every pool of the grid scorer and p-grid fit on ``workers`` threads."""
    monkeypatch.setattr(evaluation, "_workers", lambda: workers)


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

    @staticmethod
    def live_stage1s(monkeypatch, workers):
        # Resolved L: 42, 30, 42 (explicit, equal to the ratio config's), an
        # unstackable 10**9, 24, 30, 10**9 again. The groups interleave in
        # grid order; each job tries to build its Stage1 once.
        train, valid = split_panel()
        rule = RankRule.fixed(5)
        grid = [SamossaConfig(rank=rule, p=1, shape_ratio=1), SamossaConfig(L=30, rank=rule, p=1),
                SamossaConfig(L=42, rank=rule, p=1), SamossaConfig(L=10**9, rank=rule, p=1),
                SamossaConfig(rank=rule, p=1, shape_ratio=3), SamossaConfig(L=30, rank=rule, p=1),
                SamossaConfig(L=10**9, rank=rule, p=2)]
        built, alive_at_build = [], []

        class Tracked(Stage1):
            def __init__(self, panel, L):
                alive_at_build.append(sum(ref() is not None for ref, _ in built))
                super().__init__(panel, L)
                built.append((weakref.ref(self), L))

        monkeypatch.setattr(evaluation, "Stage1", Tracked)
        set_workers(monkeypatch, workers)
        _, entries = grid_search(train, valid, grid)
        assert [e.config for e in entries] == grid[:3] + grid[4:6]
        return [L for _, L in built], alive_at_build

    def test_one_live_stage1_per_L_in_first_seen_order(self, monkeypatch):
        built, alive_at_build = self.live_stage1s(monkeypatch, workers=1)
        assert built == [42, 30, 24]
        assert alive_at_build == [0, 0, 0, 0]  # L = 10**9 is tried once for both its configs

    @pytest.mark.parametrize("workers", [2, 3])
    def test_at_most_one_live_stage1_per_worker(self, monkeypatch, workers):
        built, alive_at_build = self.live_stage1s(monkeypatch, workers)
        assert sorted(built) == [24, 30, 42]
        assert len(alive_at_build) == 4 and max(alive_at_build) <= workers - 1

    def test_p_grid_configs(self):
        # A searched config takes one AR order: a grid-valued one fails and is left out.
        train, valid = split_panel()
        grid = [SamossaConfig(rank=RankRule.energy(0.9), p=(0, 1, 2), valid_len=20),
                SamossaConfig(rank=RankRule.fixed(5), p=[2]),  # one order, one spelling
                SamossaConfig(rank=RankRule.fixed(5), p=(1, 2))]
        results = evaluation._score_each(train, grid, valid, catch=evaluation._CONFIG_ERRORS)
        assert [type(r) for r in results] == [ConfigError, evaluation.GridEntry, ConfigError]
        assert "one AR order" in str(results[0])
        _, entries = grid_search(train, valid, grid)
        assert [(e.config, e.mean_r2) for e in entries] == [
            (grid[1], rolling_eval(fit(train, grid[1]), valid).mean_r2)]

    def test_only_grid_valued_config_is_a_search_error(self):
        train, valid = split_panel()
        config = SamossaConfig(rank=RankRule.fixed(5), p=(0, 1), valid_len=20)
        with pytest.raises(SearchError) as excinfo:
            grid_search(train, valid, [config])
        [(failed, error)] = excinfo.value.failures
        assert failed is config and isinstance(error, ConfigError)


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


class TestSvdCallCounts:
    def test_decompose_takes_one(self, census):
        train, _ = split_panel()
        decompose(train, 30, RankRule.energy(0.9))
        assert census.taken == [("gram", (30, 60))]

    def test_fit_beta(self, census):
        # beta is read off the whole Page matrix's Gram, the one the rank rule reads.
        train, _ = split_panel()
        Stage1(train, 30).beta(5)
        assert census.taken == [("gram", (30, 60))]
        fit_beta(train, 30, RankRule.fixed(5))
        assert census.taken[1:] == [("gram", (30, 60))]
        assert census.heads == [((30, 60), True)] * 2

    def test_p_grid_fit_takes_two(self, census):
        train, _ = split_panel()
        fit(train, SamossaConfig(rank=RankRule.energy(0.9), p=(0, 1, 2, 3), valid_len=25))
        assert len(census.taken) == 2  # the head's Page matrix, the refit's

    def test_grid_search_takes_one_per_L(self, census):
        train, valid = split_panel()
        grid = default_grid()
        grid_search(train, valid, grid)
        n_L = len({c.resolved_L(train.n_series, train.length) for c in grid})
        assert n_L == 3
        assert len(census.taken) == n_L

    def test_grid_search_takes_no_dense_svd(self, census):
        # Every rule of the default grid reads a certified Gram spectrum, and
        # every beta the Gram's downdate head: no SVD is taken.
        train, valid = split_panel()
        _, entries = grid_search(train, valid, default_grid())
        assert len(entries) == len(default_grid())
        assert census.count("gram") == len(census.taken)
        assert census.heads and all(answered for _, answered in census.heads)

    def test_top_k_head_keeps_its_sub_matrix_head_for_beta(self, census, monkeypatch):
        # The noiseless estimation panel, 3 x 1300 at L = 60: a 60 x 63 Page
        # matrix whose s_5 is 0.035 of s_4. Under a lowered crossover fixed:4
        # reads a top-k head, which holds too few left vectors for the
        # downdate, so beta takes a head of the top 59 rows. Both heads
        # answer: no dense SVD of a Page-sized matrix is taken.
        monkeypatch.setattr(lowrank, "_TOPK_MIN_DIM", 30)
        panel = generate(estimation_spec(0.3, n_series=3, length=1300, seed=4)).f
        stage = Stage1(panel, 60)
        assert stage.decompose(RankRule.fixed(4)).singular_values.shape == (4,)
        assert stage.beta(4).k_hat == 4
        assert census.taken == [("topk", (60, 63)), ("topk", (59, 63))]
        assert census.heads == []


class TestRouteCensus:
    """Every Page matrix of a workload-shaped input is served by its certified Gram,
    tall ones too: no dense SVD is taken."""

    def test_tall_order_selection_takes_the_gram(self, census):
        # A --p grid fit of 25 x 1 000: its order selection reads a 156 x 150
        # Page matrix, the refit a 158 x 150 one.
        y = generate(forecasting_spec(n_series=25, length=1000, seed=3)).y
        fit(y, SamossaConfig(p=(0, 1, 2, 3)))
        assert sorted(census.taken) == [("gram", (156, 150)), ("gram", (158, 150))]
        assert census.heads and all(answered for _, answered in census.heads)

    def test_estimate_shape_takes_the_gram(self, census):
        # The smoke estimate part's input: 10 x 18 000 at the default L, a
        # 424 x 420 Page matrix under fixed:6, below the top-k crossover.
        spec = replace(estimation_spec(0.3, n_series=10, length=18_000, seed=0), sigma2=0.04)
        panel = generate(spec).y
        decompose(panel, default_L(10, 18_000), RankRule.fixed(6))
        assert census.taken == [("gram", (424, 420))]


class TestStage1:
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
            fresh_beta = fit_beta(train, 30, rule)
            assert np.array_equal(shared_beta.beta, fresh_beta.beta)
            assert shared_beta.resid_rms == fresh_beta.resid_rms


class TestPipelinedScoring:
    """Stage 2 of each config runs on a worker thread; the outcome is the serial one."""

    def test_matches_serial_oracle_with_failures_on_both_threads(self):
        train, valid = split_panel()
        rule = RankRule.fixed(5)
        grid = [SamossaConfig(L=30, rank=rule, p=1),
                SamossaConfig(L=10**9, rank=rule, p=1),  # unstackable: fails in stage 1
                SamossaConfig(L=30, rank=rule, p=300),  # 2p + 1 > T_eff: fails in stage 2
                SamossaConfig(L=30, rank=RankRule.universal(), p=2),
                SamossaConfig(rank=RankRule.energy(0.9), p=2),
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

    @staticmethod
    def broken_stage2(monkeypatch, workers, slow_stage1=0.0):
        """Search twelve L's with a stage 2 that raises; the stage-2 calls and Stage1s built.

        With ``slow_stage1``, building every Stage1 but the first job's
        (L = 20) waits until stage 2 has been called, then that many seconds more.
        """
        train, valid = split_panel()
        calls, built = [], []

        def broken(residuals, p):
            calls.append(p)
            time.sleep(0.05)
            raise RuntimeError("bug in stage 2")

        class Counted(Stage1):
            def __init__(self, panel, L):
                built.append(L)
                if slow_stage1 and L != 20:
                    deadline = time.monotonic() + 10.0
                    while not calls and time.monotonic() < deadline:
                        time.sleep(0.001)
                    time.sleep(slow_stage1)
                super().__init__(panel, L)

        monkeypatch.setattr(pipeline, "fit_ar_rows", broken)
        monkeypatch.setattr(evaluation, "Stage1", Counted)
        set_workers(monkeypatch, workers)
        # Twelve distinct L's: twelve jobs queued, not one job for twelve twins.
        grid = [SamossaConfig(L=L, rank=RankRule.fixed(5), p=1) for L in range(20, 32)]
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="bug in stage 2"):
            grid_search(train, valid, grid)
        assert threading.active_count() == threads
        return calls, built

    def test_other_errors_propagate_and_pending_work_is_cancelled(self, monkeypatch):
        calls, _ = self.broken_stage2(monkeypatch, workers=1)
        assert len(calls) <= 2  # the failed task and at most the one running when it was read

    @pytest.mark.parametrize("workers", [2, 3])
    def test_an_error_stops_every_worker(self, monkeypatch, workers):
        calls, built = self.broken_stage2(monkeypatch, workers)
        # Only the jobs already running when the first error was raised got as
        # far as stage 2; no queued job started even its stage 1.
        assert 1 <= len(calls) <= workers
        assert len(built) <= workers

    @pytest.mark.parametrize("workers", [2, 3])
    def test_no_stage2_starts_after_an_error(self, monkeypatch, workers):
        # The first job's stage 2 fails while the other running jobs are still
        # in stage 1: none of them starts its stage 2.
        calls, built = self.broken_stage2(monkeypatch, workers, slow_stage1=0.2)
        assert calls == [1]
        assert sorted(built) == list(range(20, 20 + workers))

    @staticmethod
    def live_decompositions(monkeypatch, workers, ratios):
        """Alive Decompositions and Stage1s at each Decomposition and Stage1 build.

        The first config fails in stage 2 (an AR(300) on 600 values): its caught
        error must not keep its job's Stage1 or decomposition alive."""
        train, valid = split_panel()
        original = pipeline.fit_ar_rows

        def slow(residuals, p):  # stage 2 lags behind stage 1
            time.sleep(0.01)
            return original(residuals, p)

        monkeypatch.setattr(pipeline, "fit_ar_rows", slow)
        set_workers(monkeypatch, workers)
        grid = [SamossaConfig(L=30, rank=RankRule.fixed(5), p=300)]
        grid += [SamossaConfig(rank=RankRule.fixed(k), p=p, shape_ratio=ratio)
                 for ratio in ratios for k in (2, 3, 4, 5) for p in (1, 2)]
        alive_at_build = {Decomposition: [], Stage1: []}

        def tracked(cls, module):
            built = []

            class Tracked(cls):
                def __init__(self, *args, **kwargs):
                    alive_at_build[cls].append(sum(ref() is not None for ref in built))
                    super().__init__(*args, **kwargs)
                    built.append(weakref.ref(self))

            monkeypatch.setattr(module, cls.__name__, Tracked)

        tracked(Decomposition, ssa_estimator)
        tracked(Stage1, evaluation)
        _, entries = grid_search(train, valid, grid)
        assert [e.config for e in entries] == grid[1:]
        assert len(alive_at_build[Stage1]) == len(ratios) + 1
        assert len(alive_at_build[Decomposition]) == 4 * len(ratios) + 1
        return alive_at_build

    def test_no_other_decomposition_alive_when_one_is_built(self, monkeypatch):
        alive_at_build = self.live_decompositions(monkeypatch, workers=1, ratios=(1, 3))
        assert max(alive_at_build[Decomposition]) == 0  # each lives only inside its job
        assert max(alive_at_build[Stage1]) == 0

    @pytest.mark.parametrize("workers", [2, 3])
    def test_at_most_one_decomposition_alive_per_worker(self, monkeypatch, workers):
        alive_at_build = self.live_decompositions(monkeypatch, workers, ratios=(1, 3, 5))
        assert max(alive_at_build[Decomposition]) <= workers - 1
        assert max(alive_at_build[Stage1]) <= workers - 1

    def test_stage2_runs_on_the_helper_under_the_callers_errstate(self, monkeypatch):
        train, valid = split_panel()
        seen = []
        original = pipeline.fit_ar_rows

        def recording(residuals, p):
            seen.append((threading.current_thread() is threading.main_thread(),
                         np.geterr()["over"]))
            return original(residuals, p)

        monkeypatch.setattr(pipeline, "fit_ar_rows", recording)
        grid = [SamossaConfig(L=30, rank=RankRule.fixed(5), p=p) for p in (1, 2)]
        with np.errstate(over="raise"):
            grid_search(train, valid, grid)
        assert seen and set(seen) == {(False, "raise")}


class TestSharedDecompositions:
    """Configs whose rules pick the same k_hat off one spectrum share one decomposition."""

    @staticmethod
    def twin_grid(train, Ls, orders):
        """energy:0.9 and fixed:K at each explicit L, K the energy rule's k_hat there."""
        energy, grid = RankRule.energy(0.9), []
        for L in Ls:
            stage = Stage1(train, L)
            fixed = RankRule.fixed(stage.rank(energy))
            assert stage.rank(fixed) == stage.rank(energy)
            grid += [SamossaConfig(L=L, rank=rule, p=p) for rule in (energy, fixed) for p in orders]
        return grid

    @staticmethod
    def serial(train, valid, grid):
        """Per-config fits: the GridEntry, or the type of the error that stopped it."""
        expected = []
        for config in grid:
            try:
                model = fit(train, config)
                expected.append(evaluation.GridEntry(
                    config=config, mean_r2=rolling_eval(model, valid).mean_r2, k_hat=model.k_hat))
            except evaluation._CONFIG_ERRORS as exc:
                expected.append(type(exc))
        return expected

    @staticmethod
    def counted(monkeypatch):
        """Record (L, k_hat, p) per rolling_eval call and p per fit_ar_rows call."""
        rolls, fits = [], []
        original_roll, original_fit = evaluation.rolling_eval, pipeline.fit_ar_rows

        def roll(model, window, *args):
            rolls.append((model.L, model.k_hat, model.p_used[0]))
            return original_roll(model, window, *args)

        def fit_ar_rows(residuals, p):
            fits.append(p)
            return original_fit(residuals, p)

        monkeypatch.setattr(evaluation, "rolling_eval", roll)
        monkeypatch.setattr(pipeline, "fit_ar_rows", fit_ar_rows)
        return rolls, fits

    def test_twins_share_every_fit_roll_and_error(self, monkeypatch):
        train, valid = split_panel()
        Ls = (42, 24)
        grid = self.twin_grid(train, Ls, orders=(0, 1, 2, 300))  # 2p + 1 > T_eff at p = 300
        expected = self.serial(train, valid, grid)
        rolls, fits = self.counted(monkeypatch)
        got = evaluation._score_each(train, grid, valid, catch=evaluation._CONFIG_ERRORS)

        assert [type(r) if isinstance(r, Exception) else r for r in got] == expected
        assert [type(r) for r, c in zip(got, grid) if c.p == 300] == [FitError] * 4
        for L in Ls:  # the twins agree on k_hat, so they could share
            assert len({e.k_hat for e, c in zip(expected, grid) if c.L == L and c.p == 0}) == 1
        assert len(rolls) == len(set(rolls)) == len(Ls) * 3
        # One batched fit per (decomposition, order), failing ones included.
        assert Counter(fits) == {p: len(Ls) for p in (0, 1, 2, 300)}

    def test_top_k_head_is_not_merged_with_the_full_spectrum(self, monkeypatch):
        # 10 x 36 000 at L = 600: a 600 x 600 Page matrix, where fixed:K takes
        # a top-k head whose bits differ from the full SVD's at the same k_hat.
        train, valid = split_panel(n_series=10, length=36_030, valid_len=30)
        grid = self.twin_grid(train, [600], orders=(1,))
        stage, (energy, fixed) = Stage1(train, 600), (c.rank for c in grid)
        assert takes_topk(stage.page.data.shape, fixed.k)
        assert not np.array_equal(stage.decompose(energy).f_hat, stage.decompose(fixed).f_hat)
        del stage
        expected = self.serial(train, valid, grid)
        rolls, _ = self.counted(monkeypatch)
        got = evaluation._score_each(train, grid, valid, catch=evaluation._CONFIG_ERRORS)
        assert got == expected
        assert rolls == [(600, fixed.k, 1)] * 2

    def test_twins_share_a_lag_model_error(self):
        # s(t) = 1 at every fourth step: at L = 4 every Page column is (0, 0, 0, 2)
        # or (0, 0, 0, 3), so the lag regression's features are all zero.
        s = (np.arange(48) % 4 == 3).astype(float)
        panel = TimePanel(("a", "b"), np.array([2 * s, 3 * s]))
        train, valid = panel.window(0, 40), panel.window(40, 48)
        grid = [SamossaConfig(L=4, rank=RankRule.fixed(1), p=1),
                SamossaConfig(L=4, rank=RankRule.energy(0.9), p=1),
                SamossaConfig(L=5, rank=RankRule.fixed(1), p=1)]
        stage = Stage1(train, 4)
        assert [stage.rank(c.rank) for c in grid[:2]] == [1, 1]
        got = evaluation._score_each(train, grid, valid, catch=evaluation._CONFIG_ERRORS)
        assert got[0] is got[1]  # raised once, by the caller's one beta fit for the twins
        assert isinstance(got[0], FitError) and str(got[0]) == "all-zero feature matrix"
        assert isinstance(got[2], evaluation.GridEntry)
        assert [type(r) if isinstance(r, Exception) else r for r in got] == \
            self.serial(train, valid, grid)
