import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samossa import (
    MetricError,
    RankRule,
    SamossaConfig,
    SearchError,
    ShapeError,
    SpecError,
    StateError,
    TimePanel,
    decompose,
    default_L,
    evaluation,
    fit_ar,
)
from samossa.evaluation import (
    Fig2Row,
    GeneratorTruth,
    _fig2_point,
    _r2_rows,
    ar_identification_experiment,
    default_grid,
    figure2_experiment,
    for_err,
    grid_search,
    r_squared,
    rolling_eval,
)
from samossa.panel import load_csv
from samossa.pipeline import fit, roll
from samossa.synth import estimation_spec, forecasting_spec, generate

GOLDEN = Path(__file__).parent / "data" / "cli_golden"


class TestRSquared:
    def test_perfect(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_baseline(self):
        actual = np.array([1.0, 3.0, 2.0, 4.0])
        pred = np.full(4, actual.mean())
        assert r_squared(pred, actual) == pytest.approx(0.0)

    def test_arithmetic(self):
        assert r_squared([1.0, 1.0], [0.0, 2.0]) == pytest.approx(0.0)

    def test_zero_variance(self):
        with pytest.raises(MetricError):
            r_squared([1.0, 2.0], [3.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            r_squared([1.0], [1.0, 2.0])

    def test_worse_than_mean_is_negative(self):
        assert r_squared([10.0, -10.0], [0.0, 1.0]) < 0.0


def small_benchmark(seed=0, length=1200, n_series=4):
    res = generate(forecasting_spec(n_series=n_series, length=length, seed=seed))
    names = res.y.series_names
    cut = length - 30
    train = TimePanel(names, res.y.values[:, :cut], t0=1)
    test = TimePanel(names, res.y.values[:, cut:], t0=cut + 1)
    return res, train, test


class TestRollingEval:
    def test_alignment_enforced(self):
        res, train, test = small_benchmark()
        model = fit(train, SamossaConfig(rank=RankRule.fixed(8), p=1))
        shifted = TimePanel(test.series_names, test.values, t0=test.t0 + 3)
        with pytest.raises(StateError):
            rolling_eval(model, shifted)

    def test_scores_and_predictions(self):
        res, train, test = small_benchmark()
        model = fit(train, SamossaConfig(rank=RankRule.fixed(8), p=1))
        report = rolling_eval(model, test)
        assert report.predictions.shape == test.values.shape
        assert len(report.per_series_r2) == 4
        assert report.mean_r2 == pytest.approx(np.mean(report.per_series_r2))
        assert all(score <= 1.0 for score in report.per_series_r2)

    @pytest.mark.parametrize("steps", [0, 1])
    def test_short_window_rolls_then_raises(self, steps):
        # _r2_rows owns the two-point rule, so the model has rolled when it raises.
        res, train, test = small_benchmark()
        model = fit(train, SamossaConfig(rank=RankRule.fixed(8), p=1))
        with pytest.raises(MetricError, match=r"need at least two points for R\^2"):
            rolling_eval(model, test.window(0, steps))
        assert model.state.next_t == [test.t0 + steps] * test.n_series

    def test_no_test_leakage(self):
        # Mutating future test values must not change the first-step forecast.
        res, train, test = small_benchmark(seed=3)
        model_a = fit(train, SamossaConfig(rank=RankRule.fixed(8), p=1))
        model_b = fit(train, SamossaConfig(rank=RankRule.fixed(8), p=1))
        mutated = test.values.copy()
        mutated[:, 1:] += 100.0
        report_a = rolling_eval(model_a, test)
        report_b = rolling_eval(model_b, TimePanel(test.series_names, mutated, t0=test.t0))
        np.testing.assert_array_equal(report_a.predictions[:, 0], report_b.predictions[:, 0])

    def test_ar_stage_helps_on_ar_noise(self):
        res, train, test = small_benchmark(seed=5, length=5030)
        with_ar = fit(train, SamossaConfig(rank=RankRule.fixed(8), p=1))
        without = fit(train, SamossaConfig(rank=RankRule.fixed(8), p=0))
        r2_with = rolling_eval(with_ar, test).mean_r2
        r2_without = rolling_eval(without, test).mean_r2
        assert r2_with >= r2_without + 0.05

    def test_perfect_model_scores_one(self):
        # Noiseless low-rank panel: the order-0 model continues it exactly,
        # so every per-series R^2 is 1.
        rng = np.random.default_rng(1)
        t = np.arange(1, 501, dtype=float)
        fund = np.array([np.sin(0.21 * t + 0.3), np.sin(0.47 * t + 1.1)])
        values = rng.normal(size=(3, 2)) @ fund
        names = ("a", "b", "c")
        train = TimePanel(names, values[:, :400], t0=1)
        test = TimePanel(names, values[:, 400:], t0=401)
        model = fit(train, SamossaConfig(rank=RankRule.fixed(4), p=0))
        report = rolling_eval(model, test)
        assert report.mean_r2 == pytest.approx(1.0, abs=1e-9)

    def test_zero_forecaster_on_zero_mean_data(self):
        rng = np.random.default_rng(2)
        actual = rng.normal(size=50)
        actual -= actual.mean()
        assert r_squared(np.zeros(50), actual) <= 0.0

    def test_for_err_oracle_is_zero(self):
        # Forecasting the conditional mean directly gives for_err 0.
        res, train, test = small_benchmark(seed=7)
        truth = GeneratorTruth(f=res.f, x=res.x, alphas=res.alphas)
        preds = conditional_means(test.t0, test.length, truth)
        assert for_err(preds, test, truth) < 1e-10

    def test_series_names_checked(self):
        # Reversed series are as many as the model's, but not the model's.
        y = load_csv(GOLDEN / "y.csv")
        model = fit(y.window(0, 400), SamossaConfig(rank=RankRule.fixed(5), p=1))
        test = y.window(400, 430)
        reversed_test = TimePanel(test.series_names[::-1], test.values[::-1], t0=test.t0)
        with pytest.raises(ShapeError, match=r"test series \['s3', 's2', 's1'\] do not match "
                                             r"the model's \['s1', 's2', 's3'\]"):
            rolling_eval(model, reversed_test)
        assert model.state.next_t == [401] * 3
        assert rolling_eval(model, test).mean_r2 > 0.0

    def test_for_err_reported(self):
        res, train, test = small_benchmark(seed=11)
        truth = GeneratorTruth(f=res.f, x=res.x, alphas=res.alphas)
        model = fit(train, SamossaConfig(rank=RankRule.fixed(8), p=1))
        report = rolling_eval(model, test, truth=truth)
        assert report.for_err is not None and report.for_err >= 0.0


def conditional_means(t0, horizon, truth) -> np.ndarray:
    """The one-step conditional mean per series and step, from t0 on, written out
    with scalar dots: the reference the targets of ``for_err`` must equal."""
    out = np.empty((len(truth.alphas), horizon))
    for n, alpha in enumerate(truth.alphas):
        for j in range(horizon):
            t = t0 + j
            window = truth.x.values[n, t - len(alpha) - truth.x.t0: t - truth.x.t0][::-1]
            out[n, j] = truth.f.values[n, t - truth.f.t0] + float(alpha @ window)
    return out


@st.composite
def truth_cases(draw):
    """Mixed AR orders, and truth panels that start and end at, before and after what
    the targets read: f over the test window, x from its start minus the largest
    order up to its last step."""
    n_series = draw(st.integers(1, 4))
    orders = draw(st.lists(st.integers(0, 3), min_size=n_series, max_size=n_series))
    horizon = draw(st.integers(1, 12))
    starts = (draw(st.integers(-2, 1)), draw(st.integers(-2, 1)))
    ends = (draw(st.sampled_from([-1, 0, 2])), draw(st.sampled_from([-1, 0, 2])))
    return orders, horizon, starts, ends, draw(st.integers(0, 2**32 - 1))


class TestForErr:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(truth_cases())
    def test_matches_scalar_reference(self, case):
        orders, horizon, (f_start, x_start), (f_end, x_end), seed = case
        rng = np.random.default_rng(seed)
        t0, p, names = 20, max(orders), tuple(f"s{n}" for n in range(len(orders)))
        spans = {"f": (t0 + f_start, t0 + horizon + f_end),
                 "x": (t0 - p + x_start, t0 + horizon - 1 + x_end)}
        f, x = (TimePanel(names, rng.normal(size=(len(names), max(hi - lo, 1))), t0=lo)
                for lo, hi in spans.values())
        truth = GeneratorTruth(f=f, x=x, alphas=tuple(rng.uniform(-0.6, 0.6, size=q)
                                                      for q in orders))
        test = TimePanel(names, rng.normal(size=(len(names), horizon)), t0=t0)
        preds = rng.normal(size=(len(names), horizon))
        covered = (f.t0 <= t0 and f.t0 + f.length >= t0 + horizon
                   and x.t0 <= t0 - p and x.t0 + x.length >= t0 + horizon - 1)
        if not covered:
            with pytest.raises(ShapeError, match=r"truth [fx] covers t=-?\d+\.\.-?\d+, "
                                                 r"scoring needs t="):
                for_err(preds, test, truth)
            return
        gaps = (preds - conditional_means(t0, horizon, truth)).ravel()
        want = sum(float(g) ** 2 for g in gaps) / gaps.size
        assert for_err(preds, test, truth) == pytest.approx(want, rel=1e-12)

    def test_names_the_needed_range(self):
        res, _, test = small_benchmark(seed=7)
        truth = GeneratorTruth(f=res.f.window(0, 1000), x=res.x, alphas=res.alphas)
        with pytest.raises(ShapeError, match=r"^truth f covers t=1\.\.1000, "
                                             r"scoring needs t=1171\.\.1200$"):
            for_err(test.values, test, truth)

    @pytest.mark.parametrize("drop", ["f", "x", "alphas"])
    def test_series_count_mismatch(self, drop):
        res, _, test = small_benchmark(seed=7)
        parts = {"f": res.f, "x": res.x, "alphas": res.alphas}
        parts[drop] = (res.alphas[:3] if drop == "alphas" else
                       TimePanel(res.f.series_names[:3], getattr(res, drop).values[:3]))
        with pytest.raises(ShapeError, match="4 x 30 forecasts against a truth of"):
            for_err(test.values, test, GeneratorTruth(**parts))

    @pytest.mark.parametrize("part", ["f", "x"])
    def test_series_names_mismatch(self, part):
        res, _, test = small_benchmark(seed=7)
        parts = {"f": res.f, "x": res.x, "alphas": res.alphas}
        panel = parts[part]
        parts[part] = TimePanel(panel.series_names[::-1], panel.values[::-1], t0=panel.t0)
        with pytest.raises(ShapeError, match=rf"^truth {part} series \['s4', 's3', 's2', 's1'\] "
                                             r"do not match the forecast series \['s1', "):
            for_err(test.values, test, GeneratorTruth(**parts))

    def test_forecast_rows_match_the_test_series(self):
        res, _, test = small_benchmark(seed=7)
        truth = GeneratorTruth(f=res.f, x=res.x, alphas=res.alphas)
        with pytest.raises(ShapeError, match="^1 x 30 forecasts for 4 test series$"):
            for_err(test.values[:1], test, truth)

    @pytest.mark.parametrize("predictions", [
        lambda v: v.tolist()[0], lambda v: v[0], lambda v: v[None], lambda v: v.astype(str),
        lambda v: None,
    ], ids=["list", "1-d", "3-d", "text", "none"])
    def test_forecasts_must_be_a_2d_array_of_numbers(self, predictions):
        res, _, test = small_benchmark(seed=7)
        truth = GeneratorTruth(f=res.f, x=res.x, alphas=res.alphas)
        with pytest.raises(ShapeError, match="forecasts must be a 2-D array|not an array of num"):
            for_err(predictions(test.values), test, truth)

    @pytest.mark.parametrize("spoil", ["nan_alpha", "huge_forecast"])
    def test_non_finite_mean_is_a_metric_error(self, spoil):
        res, _, test = small_benchmark(seed=7)
        alphas, preds = res.alphas, test.values.copy()
        if spoil == "nan_alpha":
            alphas = (np.array([np.nan]), *alphas[1:])
        else:
            preds[2, 5] = 1e300  # its squared gap overflows
        with pytest.raises(MetricError, match="for_err is undefined"):
            for_err(preds, test, GeneratorTruth(f=res.f, x=res.x, alphas=alphas))

    def test_a_squared_gap_past_the_float_range_is_no_error(self):
        # One forecast 1.5 * 2^512 off: its squared gap overflows, the mean of
        # the 40 (1.0e307) does not, and the other gaps are far below its ulp.
        res = generate(forecasting_spec(n_series=2, length=60, seed=0))
        test = TimePanel(res.y.series_names, res.y.values[:, 40:], t0=41)
        preds = test.values.copy()
        preds[1, 7] += 1.5 * 2.0 ** 512
        got = for_err(preds, test, GeneratorTruth(f=res.f, x=res.x, alphas=res.alphas))
        assert got == pytest.approx(np.ldexp(2.25 / 40, 1024), rel=1e-15)

    def test_no_forecasts(self):
        res, _, test = small_benchmark(seed=7)
        truth = GeneratorTruth(f=res.f, x=res.x, alphas=res.alphas)
        with pytest.raises(ShapeError, match="4 x 0 forecasts"):
            for_err(np.empty((4, 0)), test.window(0, 0), truth)

    @pytest.mark.parametrize("alphas, message", [
        (("ab", "cd"), r"alphas\[0\] are not an array of numbers"),
        ((None, None), r"alphas\[0\] are not an array of numbers"),
        (([0.5], [[0.5, 0.1]]), r"alphas\[1\] must be a vector, got shape \(1, 2\)"),
        (None, "must be a list or tuple of vectors, got NoneType"),
    ], ids=["text", "none", "2-d", "no-tuple"])
    def test_alphas_checked_on_construction(self, alphas, message):
        panel = TimePanel(("a", "b"), np.zeros((2, 4)))
        with pytest.raises(ShapeError, match=message):
            GeneratorTruth(f=panel, x=panel, alphas=alphas)

    def test_alphas_stored_as_read_only_floats(self):
        panel = TimePanel(("a", "b"), np.zeros((2, 4)))
        given = [[1], np.array([0.5, -0.25])]
        truth = GeneratorTruth(f=panel, x=panel, alphas=given)
        assert type(truth.alphas) is tuple
        assert [a.tolist() for a in truth.alphas] == [[1.0], [0.5, -0.25]]
        assert all(a.dtype == np.float64 and not a.flags.writeable for a in truth.alphas)
        given[1][0] = 9.0  # the truth keeps its own copy
        assert truth.alphas[1][0] == 0.5


def plain_r2(pred, actual) -> float:
    """R^2 of one series, written out: the reference the batched scores must equal."""
    sst = float(np.sum((actual - actual.mean()) ** 2))
    return 1.0 - float(np.sum((pred - actual) ** 2)) / sst


def with_constant_rows(panel: TimePanel, rows, value=0.1) -> TimePanel:
    values = panel.values.copy()
    values[rows] = value
    return TimePanel(panel.series_names, values, t0=panel.t0)


class TestZeroVarianceRule:
    # A series whose window values are all equal has no R^2. The test is
    # exact equality: the mean of 25 x 0.1 does not round back to 0.1, so
    # an SST <= 0 test lets such a window through with a tiny SST.
    def test_r_squared_constant_window_that_does_not_round(self):
        actual = np.full(25, 0.1)
        assert np.sum((actual - actual.mean()) ** 2) > 0.0
        with pytest.raises(MetricError):
            r_squared(np.zeros(25), actual)

    def test_rolling_eval_leaves_constant_series_out(self):
        res, train, test = small_benchmark()
        test = with_constant_rows(test, [1])
        model = fit(train, SamossaConfig(rank=RankRule.fixed(8), p=1))
        report = rolling_eval(model, test)
        assert report.per_series_r2[1] is None
        others = [plain_r2(report.predictions[n], test.values[n]) for n in (0, 2, 3)]
        assert [report.per_series_r2[n] for n in (0, 2, 3)] == others
        assert report.mean_r2 == float(np.mean(others))

    def test_grid_search_scores_config_with_constant_series(self):
        res, train, test = small_benchmark()
        test = with_constant_rows(test, [0])
        config = SamossaConfig(rank=RankRule.fixed(8), p=1)
        best, entries = grid_search(train, test, [config])
        assert best is config
        preds = roll(fit(train, config), test.values)[0]
        expected = np.mean([plain_r2(preds[n], test.values[n]) for n in (1, 2, 3)])
        assert [e.mean_r2 for e in entries] == [expected]

    def test_all_constant_window(self):
        res, train, test = small_benchmark()
        test = with_constant_rows(test, slice(None))
        model = fit(train, SamossaConfig(rank=RankRule.fixed(8), p=1))
        with pytest.raises(MetricError):
            rolling_eval(model, test)

    @given(N=st.integers(1, 5), H=st.integers(2, 700), seed=st.integers(0, 2**32 - 1),
           constant=st.sets(st.integers(0, 4)))
    @settings(max_examples=60, deadline=None)
    def test_batched_scores_equal_plain_formula(self, N, H, seed, constant):
        # One vectorized pass over every series gives each series the same
        # bits as the one-series formula (pairwise sums per row included).
        rng = np.random.default_rng(seed)
        pred, actual = rng.normal(size=(2, N, H))
        for n in constant & set(range(N)):
            actual[n] = 0.1
        expected = [None if n in constant else plain_r2(pred[n], actual[n]) for n in range(N)]
        assert _r2_rows(pred, actual) == expected

    @pytest.mark.parametrize("extreme, plain", [([0.0, 1e-200], [0.0, 1.0]),
                                                ([1e200, -1e200], [1.0, -1.0])],
                             ids=["1e-200", "1e200"])
    def test_extreme_window_scores_like_a_plain_one(self, extreme, plain):
        # Unscaled, the SST of these windows underflows to 0 or overflows to inf.
        assert r_squared([0.0, 0.0], extreme) == r_squared([0.0, 0.0], plain)

    @given(N=st.integers(1, 4), H=st.integers(2, 50), seed=st.integers(0, 2**32 - 1),
           k=st.integers(-900, 900))
    @settings(max_examples=60, deadline=None)
    def test_scores_invariant_under_powers_of_two(self, N, H, seed, k):
        rng = np.random.default_rng(seed)
        pred, actual = rng.normal(size=(2, N, H))
        actual[0] = actual[0, 0]
        assert _r2_rows(np.ldexp(pred, k), np.ldexp(actual, k)) == _r2_rows(pred, actual)

    def test_unusable_sst_names_the_series(self):
        pred = np.zeros((3, 2))
        actual = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, np.nan]])
        with pytest.raises(MetricError, match="'s3'.*sum of squares"):
            _r2_rows(pred, actual, ("s1", "s2", "s3"))

    @pytest.mark.parametrize("pred, actual", [([1e200, 0.0], [0.0, 1.0]),
                                              ([1e10, 0.0], [0.0, 1e-300])])
    def test_overflowing_sse_is_a_metric_error(self, pred, actual):
        # Squared forecast errors beyond the float range, before or after the
        # row scaling: a typed error, and no RuntimeWarning (warnings are errors here).
        with pytest.raises(MetricError, match="squared forecast errors sum to inf"):
            r_squared(pred, actual)
        with pytest.raises(MetricError, match="^R\\^2 undefined for series 's2'"):
            _r2_rows(np.array([[0.0, 1.0], pred]), np.array([[0.0, 2.0], actual]), ("s1", "s2"))

    def test_order_selection_skips_constant_series(self):
        # fit's p grid with series 2 constant over the validation tail picks
        # the order a manual argmax over the varying series picks.
        res, panel, _ = small_benchmark(seed=9, length=1500)
        v = 25
        values = panel.values.copy()
        values[2, -v:] = 0.1
        panel = TimePanel(panel.series_names, values, t0=panel.t0)
        head = TimePanel(panel.series_names, values[:, :-v], t0=panel.t0)
        tail = values[:, -v:]
        config = SamossaConfig(rank=RankRule.fixed(8), p=(0, 1, 2, 3), valid_len=v)
        means = []
        for p in config.p:
            preds = roll(fit(head, replace(config, p=p)), tail)[0]
            means.append(np.mean([plain_r2(preds[n], tail[n]) for n in (0, 1, 3)]))
        manual = config.p[int(np.argmax(means))]
        assert fit(panel, config).p_used == (manual,) * 4


class TestGridSearch:
    def test_single_config(self):
        res, train, test = small_benchmark(seed=2)
        grid = [SamossaConfig(rank=RankRule.fixed(5), p=1)]
        best, entries = grid_search(train, test, grid)
        assert best is grid[0]
        assert len(entries) == 1

    def test_dominant_config_wins(self):
        # AR(1) noise present: some p=1 config must beat its p=0 twin.
        res, train, test = small_benchmark(seed=4, length=5030)
        grid = [
            SamossaConfig(rank=RankRule.fixed(8), p=0),
            SamossaConfig(rank=RankRule.fixed(8), p=1),
        ]
        best, entries = grid_search(train, test, grid)
        assert best.p == 1
        scores = {e.config.p: e.mean_r2 for e in entries}
        assert scores[1] >= scores[0] + 0.05

    def test_tie_breaks_to_first(self):
        res, train, test = small_benchmark(seed=6)
        config = SamossaConfig(rank=RankRule.fixed(5), p=1)
        best, entries = grid_search(train, test, [config, config])
        assert best is config
        assert len(entries) == 2

    def test_all_fail(self):
        res, train, test = small_benchmark(seed=8)
        bad = SamossaConfig(L=10**9, rank=RankRule.fixed(5), p=1)
        with pytest.raises(SearchError) as excinfo:
            grid_search(train, test, [bad])
        assert len(excinfo.value.failures) == 1

    def test_programming_error_propagates(self, monkeypatch):
        # Only SamossaError and LinAlgError mark a config as failed; a bug
        # such as a TypeError stops the search instead of being recorded.
        import samossa.pipeline

        def broken_fit_ar_rows(residuals, p):
            raise TypeError("bug")

        monkeypatch.setattr(samossa.pipeline, "fit_ar_rows", broken_fit_ar_rows)
        res, train, test = small_benchmark(seed=8)
        with pytest.raises(TypeError):
            grid_search(train, test, [SamossaConfig(rank=RankRule.fixed(5), p=1)])

    def test_default_grid_size(self):
        assert len(default_grid()) == 3 * 3 * 4


class TestFigure2Driver:
    @pytest.mark.slow
    def test_high_persistence_level(self):
        # Strongly autocorrelated noise at the largest sweep size: the error
        # level shifts with the second-root placement, so the assertion is
        # the order-of-magnitude band around the 8.5e-3 reference value.
        report = figure2_experiment([0.95], [3_000_000], n_seeds=10, sigma2=0.04)
        med = report.median_est_err[0.95][3_000_000]
        assert 8.5e-4 <= med <= 8.5e-2

    def test_decay_direction_small(self):
        report = figure2_experiment(
            lambda_stars=[0.3], nt_values=[3000, 30_000], n_seeds=3,
        )
        med = report.median_est_err[0.3]
        assert med[30_000] < med[3000]
        assert len(report.rows) == 6
        assert report.rows == tuple(sorted(report.rows, key=lambda r: (r.lambda_star, r.nt, r.seed)))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_rows_match_a_serial_loop(self, monkeypatch, workers):
        monkeypatch.setattr(evaluation, "_workers", lambda: workers)
        lambda_stars, nts, seeds = [0.95, 0.3], [600, 300], range(5, 7)
        expected = sorted((_fig2_point(lam, nt, seed, 10, RankRule.fixed(6), 2, 0.2)
                           for lam in lambda_stars for nt in nts for seed in seeds),
                          key=lambda r: (r.lambda_star, r.nt, r.seed))
        assert figure2_experiment(lambda_stars, nts, n_seeds=2, base_seed=5).rows == \
            tuple(expected)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_error_in_task_order_propagates(self, monkeypatch, workers):
        # Points (0.3, 300, 1) and (0.3, 600, 0) fail; the first in task order
        # is slow, so from W = 2 on the other one fails first.
        monkeypatch.setattr(evaluation, "_workers", lambda: workers)
        started = []

        def point(lam, nt, seed, *rest):
            started.append((nt, seed))
            if (nt, seed) == (300, 1):
                time.sleep(0.2)
            if (nt, seed) in ((300, 1), (600, 0)):
                raise ValueError(f"point {nt}, {seed} failed")
            return Fig2Row(lambda_star=lam, nt=nt, seed=seed, est_err=1.0, alpha_err=1.0)

        monkeypatch.setattr(evaluation, "_fig2_point", point)
        with pytest.raises(ValueError, match="point 300, 1 failed"):
            figure2_experiment([0.3], [300, 600, 900], n_seeds=2)
        if workers == 1:  # no point starts after the error
            assert started == [(300, 0), (300, 1)]

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_alpha_err_pads_the_shorter_order(self, p):
        # The truth is an AR(2): a fitted AR(p) is compared as an AR(max(p, 2)).
        report = figure2_experiment([0.3], [300], n_seeds=2, p=p)
        for row in report.rows:
            result = generate(replace(estimation_spec(0.3, n_series=10, length=30, seed=row.seed),
                                      sigma2=0.2))
            decomp = decompose(result.y, default_L(10, 30), RankRule.fixed(6))
            fitted, truth = fit_ar(decomp.x_hat[0], p).alpha.tolist(), result.alphas[0].tolist()
            assert len(truth) == 2
            gaps = [(fitted[i] if i < p else 0.0) - (truth[i] if i < 2 else 0.0)
                    for i in range(max(p, 2))]
            assert row.alpha_err == pytest.approx(sum(g * g for g in gaps) ** 0.5, rel=1e-12)

    @pytest.mark.parametrize("bad, match", [
        ({"n_seeds": 1.5}, "seed count"), ({"n_seeds": 0}, "seed count"),
        ({"nt_values": ["300"]}, r"N\*T"), ({"nt_values": [300.5]}, r"N\*T"),
        ({"nt_values": [0]}, r"N\*T"), ({"n_series": 0}, "series count"),
        ({"n_series": 2.0}, "series count"), ({"base_seed": 0.5}, "base seed"),
        ({"base_seed": -1}, "base seed")])
    def test_counts_are_integers(self, bad, match):
        args = {"lambda_stars": [0.3], "nt_values": [300], "n_seeds": 1, **bad}
        with pytest.raises(SpecError, match=f"{match} must be an integer"):
            figure2_experiment(**args)


class TestArIdentificationDriver:
    def test_rows_and_slope(self):
        rows, slope = ar_identification_experiment(0.3, [200, 400], n_seeds=2, base_seed=3)
        assert [(t, seed) for t, seed, _ in rows] == [(200, 3), (200, 4), (400, 3), (400, 4)]
        assert all(type(t) is int for t, _, _ in rows) and np.isfinite(slope)

    @pytest.mark.parametrize("bad, match", [
        ({"n_seeds": 1.5}, "seed count"), ({"n_seeds": 0}, "seed count"),
        ({"t_values": [100.5, 200]}, "T"), ({"t_values": ["100", 200]}, "T"),
        ({"t_values": [0, 200]}, "T"), ({"base_seed": 0.5}, "base seed")])
    def test_counts_are_integers(self, bad, match):
        args = {"lambda_star": 0.3, "t_values": [100, 200], "n_seeds": 1, **bad}
        with pytest.raises(SpecError, match=f"^{match} must be an integer"):
            ar_identification_experiment(**args)

    @pytest.mark.parametrize("t_values", [[100], [100, 100], []])
    def test_fewer_than_two_lengths_have_no_slope(self, t_values):
        with pytest.raises(MetricError, match="two distinct T values"):
            ar_identification_experiment(0.3, t_values, n_seeds=1)
