import numpy as np
import pytest

from samossa import BetaModel, FitError, RankError, RankRule, ShapeError, TimePanel
from samossa.linear_forecaster import fit_beta, forecast_f
from samossa.pagemat import stack


def harmonic_panel(n_series, length, freqs, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(1, length + 1)
    fund = []
    for w in freqs:
        fund.append(np.sin(w * t + rng.uniform(0, 2 * np.pi)))
    fund = np.array(fund)
    mix = rng.normal(size=(n_series, len(freqs)))
    return TimePanel(tuple(f"s{i}" for i in range(n_series)), mix @ fund)


class TestBetaModel:
    @pytest.mark.parametrize("k", [-1, 1.5, True, "1", None])
    def test_k_hat_must_be_a_count(self, k):
        with pytest.raises(RankError, match=f"k_hat must be an integer >= 0, got {k!r}"):
            BetaModel(beta=[0.5], k_hat=k, resid_rms=0.0)

    @pytest.mark.parametrize("beta", [["0.5"], [False], [[0.5], [0.5, 0.1]]])
    def test_coefficients_must_be_numbers(self, beta):
        with pytest.raises(FitError, match="regression coefficients are not an array of numbers"):
            BetaModel(beta=beta, k_hat=1, resid_rms=0.0)

    @pytest.mark.parametrize("rms", ["x", False, None, np.inf])
    def test_residual_rms_must_be_a_finite_real(self, rms):
        with pytest.raises(FitError, match="non-finite or non-real regression residual RMS"):
            BetaModel(beta=[0.5], k_hat=1, resid_rms=rms)


class TestFitBeta:
    def test_constant_series(self):
        panel = TimePanel(("a",), np.ones((1, 40)))
        model = fit_beta(panel, 2, RankRule.fixed(1))
        assert model.beta.shape == (1,)
        assert model.beta[0] == pytest.approx(1.0, abs=1e-10)
        assert forecast_f(model, [1.0]) == pytest.approx(1.0, abs=1e-10)

    def test_geometric_series(self):
        lam = 0.9
        series = lam ** np.arange(1, 41)
        panel = TimePanel(("a",), series[None, :])
        model = fit_beta(panel, 2, RankRule.fixed(1))
        assert model.beta[0] == pytest.approx(lam, abs=1e-9)
        assert model.resid_rms < 1e-10

    def test_noiseless_sinusoid_forecasts_match_exact_solution(self):
        # Oracle: solve the exact last-row relation on the noiseless Page
        # matrix (minimum-norm), then compare forecasts, not coefficients.
        panel = harmonic_panel(3, 240, freqs=[0.31], seed=5)
        L = 8
        model = fit_beta(panel, L, RankRule.fixed(2))
        assert model.resid_rms < 1e-8

        page = stack(panel, L)
        beta_star = np.linalg.lstsq(page.data[: L - 1].T, page.data[L - 1], rcond=1e-10)[0][::-1]
        for t in range(200, 240):
            lags = panel.values[0, t - L + 1: t][::-1]
            ours = forecast_f(model, lags)
            oracle = float(beta_star @ lags)
            assert ours == pytest.approx(oracle, abs=1e-8)

    def test_noiseless_self_consistency_out_of_sample(self):
        # Held-out one-step forecasts of a rank-4 panel are exact.
        freqs = [0.21, 0.47]
        full = harmonic_panel(4, 600, freqs, seed=11)
        train = TimePanel(full.series_names, full.values[:, :400])
        L = 20
        model = fit_beta(train, L, RankRule.fixed(4))
        worst = 0.0
        for n in range(4):
            for t in range(400, 600):
                lags = full.values[n, t - L + 1: t][::-1]
                err = abs(forecast_f(model, lags) - full.values[n, t])
                worst = max(worst, err)
        assert worst < 1e-6 * np.max(np.abs(full.values))

    def test_series_order_invariance(self):
        panel = harmonic_panel(5, 300, freqs=[0.17, 0.39], seed=2)
        model = fit_beta(panel, 12, RankRule.fixed(4))
        permuted = TimePanel(
            tuple(panel.series_names[i] for i in (3, 0, 4, 1, 2)),
            panel.values[(3, 0, 4, 1, 2), :],
        )
        model_p = fit_beta(permuted, 12, RankRule.fixed(4))
        np.testing.assert_allclose(model.beta, model_p.beta, atol=1e-10)

    def test_lag_ordering_pinned(self):
        # A pure one-period-lag recursion: y(t) = y(t-3) on a sawtooth of
        # period 3. With L=4 the only active lag is the oldest one, so the
        # most-recent-first beta must put its weight at index 2 (lag 3).
        series = np.tile([1.0, 2.0, 3.0], 20)
        panel = TimePanel(("a",), series[None, :])
        model = fit_beta(panel, 4, RankRule.fixed(2))
        pred = forecast_f(model, [3.0, 2.0, 1.0])  # y(t-1)=3, y(t-2)=2, y(t-3)=1
        assert pred == pytest.approx(1.0, abs=1e-8)

    def test_L_too_small(self):
        panel = TimePanel(("a",), np.ones((1, 10)))
        with pytest.raises(ShapeError):
            fit_beta(panel, 1, RankRule.fixed(1))

    @pytest.mark.parametrize("k", [1.5, "2", -1, True])
    def test_k_hat_must_be_a_count(self, k):
        panel = harmonic_panel(2, 60, freqs=[0.31])
        with pytest.raises(RankError, match=f"k_hat must be an integer >= 0, got {k!r}"):
            fit_beta(panel, 6, RankRule.fixed(2), k_hat=k)

    def test_degenerate_all_zero(self):
        from samossa import FitError

        panel = TimePanel(("a",), np.zeros((1, 30)))
        with pytest.raises(FitError):
            fit_beta(panel, 3, RankRule.fixed(1), k_hat=1)


class TestForecastF:
    def test_identity_recursion(self):
        model = BetaModel(beta=np.array([1.0]), k_hat=1, resid_rms=0.0)
        assert forecast_f(model, [3.7]) == pytest.approx(3.7)

    def test_zero_model(self):
        model = BetaModel(beta=np.zeros(4), k_hat=1, resid_rms=0.0)
        assert forecast_f(model, [1.0, 2.0, 3.0, 4.0]) == 0.0

    def test_average(self):
        model = BetaModel(beta=np.array([0.5, 0.5]), k_hat=1, resid_rms=0.0)
        assert forecast_f(model, [2.0, 4.0]) == pytest.approx(3.0)

    def test_wrong_lag_count(self):
        model = BetaModel(beta=np.array([0.5, 0.5]), k_hat=1, resid_rms=0.0)
        with pytest.raises(ShapeError):
            forecast_f(model, [1.0])


class TestRate:
    def test_beta_error_decays(self):
        # Squared distance to the noiseless minimum-norm solution shrinks as
        # N*T grows. At test-scale sizes the decay is conditioning-driven and
        # measurably steeper than the guaranteed 1/sqrt(NT) ceiling, so only
        # the decay side of the slope band is asserted here.
        from samossa.pagemat import default_L
        from samossa.synth import estimation_spec, generate

        lengths = (1000, 10_000, 100_000)
        medians = []
        for T in lengths:
            errs = []
            for seed in range(8):
                res = generate(estimation_spec(0.3, n_series=10, length=T, seed=seed))
                L = default_L(10, T)
                model = fit_beta(res.y, L, RankRule.fixed(6))
                page_f = stack(res.f, L)
                beta_star = np.linalg.lstsq(
                    page_f.data[: L - 1].T, page_f.data[L - 1], rcond=1e-10
                )[0][::-1]
                errs.append(float(np.sum((model.beta - beta_star) ** 2)))
            medians.append(np.median(errs))
        slope = np.polyfit(np.log([10 * T for T in lengths]), np.log(medians), 1)[0]
        assert slope <= -0.2
        assert np.isfinite(slope) and slope >= -4.0
