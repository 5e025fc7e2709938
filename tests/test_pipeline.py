import copy

import numpy as np
import pytest

from samossa import (
    ConfigError,
    FitError,
    IngestError,
    ParseError,
    PersistError,
    RankError,
    RankRule,
    SamossaConfig,
    StateError,
    TimePanel,
)
from samossa.ar import fit_ar
from samossa.linear_forecaster import forecast_f
from samossa.pipeline import (
    fit,
    forecast_recursive,
    forecast_step,
    load_model,
    observe,
    roll,
    save_model,
)
from samossa.synth import GeneratorSpec, estimation_spec, forecasting_spec, generate


def harmonic_panel(n_series=4, length=600, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(1, length + 1)
    fund = np.array([np.sin(w * t + ph) for w, ph in
                     zip((0.19, 0.43), rng.uniform(0, 6.28, 2))])
    return TimePanel(
        tuple(f"s{i}" for i in range(n_series)), rng.normal(size=(n_series, 2)) @ fund
    )


class TestFit:
    def test_noiseless_lrf_continuation(self):
        full = harmonic_panel(length=700)
        train = TimePanel(full.series_names, full.values[:, :500])
        model = fit(train, SamossaConfig(rank=RankRule.fixed(4), p=0))
        scale = np.max(np.abs(full.values))
        for j in range(200):
            for n in range(full.n_series):
                y_hat, f_hat, x_hat = forecast_step(model, n)
                assert x_hat == 0.0
                assert abs(y_hat - full.values[n, 500 + j]) < 1e-6 * scale
            for n in range(full.n_series):
                observe(model, n, float(full.values[n, 500 + j]))

    def test_pure_ar_panel_recovers_alpha(self):
        # Nearly-zero smooth component: stage 2 on pipeline residuals should
        # agree with fitting the raw series directly.
        spec = GeneratorSpec(
            kind="pure_ar", n_series=3, length=10_000, ar_order=1,
            lambda_star=0.5, sigma2=1.0, seed=21,
        )
        res = generate(spec)
        model = fit(res.y, SamossaConfig(rank=RankRule.fixed(1), p=1))
        direct = fit_ar(res.y.values[0], 1)
        assert abs(model.ar_models[0].alpha[0] - 0.5) < 0.05
        assert abs(model.ar_models[0].alpha[0] - direct.alpha[0]) < 0.02
        assert float(np.linalg.norm(model.beta_model.beta)) < 0.5

    def test_p_grid_requires_validation(self):
        panel = harmonic_panel()
        with pytest.raises(ConfigError):
            fit(panel, SamossaConfig(rank=RankRule.fixed(4), p=(0, 1)))

    def test_p_grid_picks_ar_order_on_ar_noise(self):
        res = generate(forecasting_spec(n_series=8, length=2050, seed=2))
        config = SamossaConfig(rank=RankRule.fixed(8), p=(0, 1), valid_len=25)
        model = fit(res.y, config)
        assert model.p_used[0] == 1

    def test_determinism(self):
        res = generate(estimation_spec(0.6, n_series=4, length=800, seed=8))
        m1 = fit(res.y, SamossaConfig(rank=RankRule.fixed(6), p=2))
        m2 = fit(res.y, SamossaConfig(rank=RankRule.fixed(6), p=2))
        np.testing.assert_array_equal(m1.beta_model.beta, m2.beta_model.beta)
        for a1, a2 in zip(m1.ar_models, m2.ar_models):
            np.testing.assert_array_equal(a1.alpha, a2.alpha)
        assert m1.state.obs_lags[0].tolist() == m2.state.obs_lags[0].tolist()


    @pytest.mark.parametrize("rank, error", [
        (RankRule.energy(0.9), RankError),
        (RankRule.fixed(2), FitError),
        (RankRule.universal(), FitError),
    ])
    @pytest.mark.parametrize("p", [0, 2, (1, 2)])
    def test_overflowing_panel_is_a_typed_error(self, rank, error, p):
        # Near 1e200 the squares behind the energy rule, beta's residual RMS
        # and the AR noise variance overflow; no inf may reach a model.
        values = 1e200 * (1.0 + 0.1 * np.random.default_rng(0).normal(size=(3, 400)))
        panel = TimePanel(("a", "b", "c"), values)
        with pytest.raises(error, match="overflows|non-finite"):
            fit(panel, SamossaConfig(rank=rank, p=p, valid_len=20))


class TestForecastProtocol:
    @pytest.fixture()
    def model(self):
        res = generate(estimation_spec(0.3, n_series=3, length=400, seed=4))
        return fit(res.y, SamossaConfig(rank=RankRule.fixed(6), p=2))

    def test_forecast_is_pure(self, model):
        first = forecast_step(model, 0)
        second = forecast_step(model, 0)
        assert first == second
        assert model.state.next_t[0] == 401

    def test_ablation_identity(self):
        res = generate(estimation_spec(0.3, n_series=3, length=400, seed=4))
        model = fit(res.y, SamossaConfig(rank=RankRule.fixed(6), p=0))
        y_hat, f_hat, x_hat = forecast_step(model, 1)
        assert x_hat == 0.0
        assert y_hat == f_hat

    def test_component_sum(self, model):
        y_hat, f_hat, x_hat = forecast_step(model, 2)
        assert y_hat == f_hat + x_hat

    def test_zero_beta_unit_alpha(self):
        # Hand-built model: no smooth component, unit AR weight on a
        # residual lag of 5 forecasts exactly 5.
        from samossa.ar import ArModel
        from samossa.linear_forecaster import BetaModel
        from samossa.pipeline import SamossaModel, _State

        L = 4
        model = SamossaModel(
            beta_model=BetaModel(beta=np.zeros(L - 1), L=L, k_hat=1, resid_rms=0.0),
            ar_models=(ArModel(alpha=np.array([1.0]), p=1, noise_var_hat=0.0),),
            config=SamossaConfig(L=L, rank=RankRule.fixed(1), p=1),
            L=L,
            k_hat=1,
            p_used=(1,),
            series_names=("a",),
            state=_State(
                obs_lags=np.array([[1.0, 2.0, 3.0]]),
                resid_lags=np.array([[5.0]]),
                next_t=[10],
            ),
        )
        y_hat, f_hat, x_hat = forecast_step(model, 0)
        assert (y_hat, f_hat, x_hat) == (5.0, 0.0, 5.0)

    def test_observe_updates_buffers(self, model):
        _, f_hat, _ = forecast_step(model, 0)
        before = model.state.obs_lags[0].copy()
        observe(model, 0, 2.5)
        assert model.state.obs_lags[0][0] == 2.5
        np.testing.assert_array_equal(model.state.obs_lags[0][1:], before[:-1])
        assert model.state.resid_lags[0][0] == 2.5 - f_hat
        assert model.state.next_t[0] == 402

    def test_observe_without_forecast(self, model):
        with pytest.raises(StateError):
            observe(model, 0, 1.0)

    def test_double_observe(self, model):
        forecast_step(model, 0)
        observe(model, 0, 1.0)
        with pytest.raises(StateError):
            observe(model, 0, 2.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_observe_rejects_non_finite(self, model, bad):
        pending = forecast_step(model, 0)
        before = (model.state.obs_lags[0].copy(), model.state.resid_lags[0].copy())
        with pytest.raises(IngestError):
            observe(model, 0, bad)
        assert np.array_equal(model.state.obs_lags[0], before[0])
        assert np.array_equal(model.state.resid_lags[0], before[1])
        assert model.state.next_t[0] == 401
        # The pending forecast survives: the step can still be observed.
        observe(model, 0, 1.0)
        assert model.state.resid_lags[0][0] == 1.0 - pending[1]
        assert model.state.next_t[0] == 402

    @pytest.mark.parametrize("n", [1.5, True, "1", None])
    def test_forecast_step_series_index_must_be_an_integer(self, model, n):
        with pytest.raises(StateError, match="series index must be an integer"):
            forecast_step(model, n)
        assert model.state.pending_f == {}

    @pytest.mark.parametrize("n", [1.5, True])
    def test_observe_series_index_must_be_an_integer(self, model, n):
        forecast_step(model, 1)
        with pytest.raises(StateError, match="series index must be an integer"):
            observe(model, n, 1.0)
        assert model.state.next_t == [401, 401, 401]

    def test_numpy_integer_series_index(self, model):
        y_hat = forecast_step(model, np.int64(1))
        assert y_hat == forecast_step(model, 1)
        observe(model, np.int64(1), np.float32(0.5))
        assert model.state.next_t == [401, 402, 401] and model.state.pending_f == {}
        assert model.state.obs_lags[1, 0] == 0.5

    @pytest.mark.parametrize("y", ["1.0", None, [1.0], 10**400],
                             ids=["str", "none", "list", "huge_int"])
    def test_observe_rejects_non_numbers(self, model, y):
        pending = forecast_step(model, 0)
        before = copy.deepcopy(model.state)
        with pytest.raises(IngestError, match=r"observation for series 0 at t=401: "):
            observe(model, 0, y)
        assert np.array_equal(model.state.obs_lags, before.obs_lags)
        assert np.array_equal(model.state.resid_lags, before.resid_lags)
        assert model.state.pending_f == {0: pending[1]}

    @pytest.mark.parametrize("steps", [-1, 2.0, True, None])
    def test_recursive_steps_must_be_a_count(self, model, steps):
        with pytest.raises(ConfigError, match="steps must be an integer >= 0"):
            forecast_recursive(model, steps)

    def test_recursive_numpy_integer_steps(self, model):
        assert np.array_equal(forecast_recursive(model, np.int64(3)), forecast_recursive(model, 3))

    def test_roll_rejects_non_numeric_values(self, model):
        before = copy.deepcopy(model.state)
        with pytest.raises(IngestError, match="not an array of numbers"):
            roll(model, [["a", "a"]] * 3)
        assert np.array_equal(model.state.obs_lags, before.obs_lags)
        assert model.state.next_t == before.next_t

    def test_ring_buffer_order(self):
        # After observing 1, 2, 3, 4 the lag window reads most-recent-first.
        panel = TimePanel(("a",), np.ones((1, 40)))
        model = fit(panel, SamossaConfig(L=4, rank=RankRule.fixed(1), p=0))
        for value in (1.0, 2.0, 3.0, 4.0):
            forecast_step(model, 0)
            observe(model, 0, value)
        assert model.state.obs_lags[0].tolist() == [4.0, 3.0, 2.0]

    def test_series_clocks_independent(self, model):
        forecast_step(model, 0)
        observe(model, 0, 1.0)
        assert model.state.next_t == [401 + 1, 401, 401]


class TestAblationConsistency:
    def test_p0_matches_beta_only_path(self):
        res = generate(estimation_spec(0.3, n_series=3, length=500, seed=6))
        train = TimePanel(res.y.series_names, res.y.values[:, :400])
        model = fit(train, SamossaConfig(rank=RankRule.fixed(6), p=0))

        # Reference path: feed raw lags straight into the fitted lag model.
        lags = [train.values[n, -(model.L - 1):][::-1].copy() for n in range(3)]
        for j in range(100):
            for n in range(3):
                y_hat, _, _ = forecast_step(model, n)
                reference = forecast_f(model.beta_model, lags[n])
                assert y_hat == reference  # bit-exact
                realized = float(res.y.values[n, 400 + j])
                observe(model, n, realized)
                lags[n] = np.concatenate(([realized], lags[n][:-1]))


class TestRecursive:
    def test_state_untouched(self):
        res = generate(estimation_spec(0.3, n_series=2, length=300, seed=2))
        model = fit(res.y, SamossaConfig(rank=RankRule.fixed(6), p=2))
        before = [a.copy() for a in model.state.obs_lags]
        preds = forecast_recursive(model, 5)
        assert preds.shape == (2, 5)
        for a, b in zip(before, model.state.obs_lags):
            np.testing.assert_array_equal(a, b)

    def test_p0_recursion_matches_observe_loop(self):
        panel = harmonic_panel(n_series=2, length=400, seed=3)
        model_a = fit(panel, SamossaConfig(rank=RankRule.fixed(4), p=0))
        model_b = fit(panel, SamossaConfig(rank=RankRule.fixed(4), p=0))
        preds = forecast_recursive(model_a, 4)
        for j in range(4):
            for n in range(2):
                y_hat, _, _ = forecast_step(model_b, n)
                assert preds[n, j] == y_hat
            for n in range(2):
                observe(model_b, n, float(preds[n, j]))


class TestPersistence:
    def test_roundtrip_bit_exact_forecast(self, tmp_path):
        res = generate(estimation_spec(0.6, n_series=3, length=500, seed=12))
        model = fit(res.y, SamossaConfig(rank=RankRule.energy(0.9), p=2))
        expected = [forecast_step(model, n) for n in range(3)]
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        for n in range(3):
            assert forecast_step(loaded, n) == expected[n]
        np.testing.assert_array_equal(loaded.beta_model.beta, model.beta_model.beta)
        for a, b in zip(loaded.ar_models, model.ar_models):
            np.testing.assert_array_equal(a.alpha, b.alpha)
            assert a.noise_var_hat == b.noise_var_hat

    def test_truncated_file(self, tmp_path):
        res = generate(estimation_spec(0.6, n_series=2, length=300, seed=1))
        model = fit(res.y, SamossaConfig(rank=RankRule.fixed(2), p=1))
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ParseError):
            load_model(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"version": 99}')
        with pytest.raises(PersistError):
            load_model(path)

    def test_missing_version(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{}")
        with pytest.raises(ParseError):
            load_model(path)
