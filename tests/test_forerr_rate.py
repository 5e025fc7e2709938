"""Out-of-sample error decay of the full pipeline.

ForErr compares rolling one-step forecasts over a horizon of T steps with
the one-step conditional mean of the generating process. With realized
values fed back, the rolling forecasts have a closed form (no recursion),
so the sweep uses a vectorized evaluator; its equivalence to the real
forecast/observe protocol is asserted at the smallest size.
"""

import dataclasses

import numpy as np
import pytest

from samossa import RankRule, SamossaConfig, TimePanel
from samossa.evaluation import GeneratorTruth, rolling_eval
from samossa.pipeline import fit
from samossa.synth import estimation_spec, generate


def vectorized_rolling_forecasts(model, test_values: np.ndarray) -> np.ndarray:
    """Closed form of the forecast/observe loop under realized feedback."""
    N, H = test_values.shape
    beta = model.beta_model.beta[::-1]  # windows below are oldest-first
    y_hat = np.empty((N, H))
    for n in range(N):
        obs_tail = model.state.obs_lags[n][::-1]  # oldest-first
        y_ext = np.concatenate([obs_tail, test_values[n]])
        win = np.lib.stride_tricks.sliding_window_view(y_ext, model.L - 1)[:H]
        f_hat = win @ beta
        alpha = model.ar_models[n].alpha
        p = alpha.shape[0]
        if p == 0:
            y_hat[n] = f_hat
            continue
        resid_tail = model.state.resid_lags[n][::-1]
        x_ext = np.concatenate([resid_tail, test_values[n] - f_hat])
        xwin = np.lib.stride_tricks.sliding_window_view(x_ext, p)[:H]
        y_hat[n] = f_hat + xwin @ alpha[::-1]
    return y_hat


def conditional_means(truth_f, truth_x, alphas, t0: int, horizon: int) -> np.ndarray:
    N = truth_f.shape[0]
    out = np.empty((N, horizon))
    for n in range(N):
        alpha = alphas[n]
        p = alpha.shape[0]
        f_part = truth_f[n, t0 - 1: t0 - 1 + horizon]
        x_ext = truth_x[n, t0 - 1 - p: t0 - 1 + horizon - 1]
        xwin = np.lib.stride_tricks.sliding_window_view(x_ext, p)[:horizon]
        out[n] = f_part + xwin @ alpha[::-1]
    return out


def run_point(nt: int, seed: int, sigma2: float = 0.04):
    n_series = 10
    T = nt // n_series
    spec = dataclasses.replace(
        estimation_spec(0.3, n_series=n_series, length=2 * T, seed=seed), sigma2=sigma2
    )
    res = generate(spec)
    names = res.y.series_names
    train = TimePanel(names, res.y.values[:, :T], t0=1)
    model = fit(train, SamossaConfig(rank=RankRule.fixed(6), p=2))
    test_values = res.y.values[:, T:]
    y_hat = vectorized_rolling_forecasts(model, test_values)
    targets = conditional_means(res.f.values, res.x.values, res.alphas, T + 1, T)
    return float(np.mean((y_hat - targets) ** 2)), model, res


class TestForErrRate:
    def test_vectorized_matches_protocol(self):
        nt, seed = 1000, 0
        n_series = 10
        T = nt // n_series
        spec = dataclasses.replace(
            estimation_spec(0.3, n_series=n_series, length=2 * T, seed=seed), sigma2=0.04
        )
        res = generate(spec)
        names = res.y.series_names
        train = TimePanel(names, res.y.values[:, :T], t0=1)
        test = TimePanel(names, res.y.values[:, T:], t0=T + 1)

        model_a = fit(train, SamossaConfig(rank=RankRule.fixed(6), p=2))
        fast = vectorized_rolling_forecasts(model_a, test.values)

        model_b = fit(train, SamossaConfig(rank=RankRule.fixed(6), p=2))
        truth = GeneratorTruth(f=res.f, x=res.x, alphas=res.alphas)
        report = rolling_eval(model_b, test, truth=truth)
        np.testing.assert_allclose(fast, report.predictions, rtol=1e-12, atol=1e-12)

        fe = float(np.mean(
            (fast - conditional_means(res.f.values, res.x.values, res.alphas, T + 1, T)) ** 2
        ))
        assert fe == pytest_approx(report.for_err)

    @pytest.mark.slow
    def test_forerr_decays_over_three_decades(self):
        nts = (1000, 10_000, 100_000, 1_000_000)
        medians = []
        for nt in nts:
            errs = [run_point(nt, seed)[0] for seed in range(10)]
            medians.append(float(np.median(errs)))
        slope = np.polyfit(np.log(nts), np.log(medians), 1)[0]
        assert slope <= -0.2
        assert medians[-1] < medians[0]


def pytest_approx(value):
    return pytest.approx(value, rel=1e-9)
