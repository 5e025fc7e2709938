"""The batched rolling primitive against the per-series protocol it replaces.

``roll`` must be bit-identical to rounds of ``forecast_step`` then
``observe`` on every series: the forecasts and the state it leaves behind,
over any chunking of a window and whatever forecasts were pending.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samossa import (
    ArModel,
    BetaModel,
    IngestError,
    RankRule,
    SamossaConfig,
    ShapeError,
    StateError,
    TimePanel,
    fit,
    forecast_recursive,
    forecast_step,
    observe,
    roll,
)
from samossa.pipeline import SamossaModel, _State
from samossa.synth import forecasting_spec, generate


def random_model(rng, L, ps, t0=100) -> SamossaModel:
    """A model with random coefficients and state; one AR order per series."""
    n_series = len(ps)
    beta = BetaModel(beta=rng.normal(size=L - 1) / (L - 1), L=L, k_hat=1, resid_rms=0.1)
    ar_models = tuple(
        ArModel(alpha=rng.uniform(-0.4, 0.4, size=p), p=p, noise_var_hat=1.0) for p in ps
    )
    state = _State(
        obs_lags=[rng.normal(size=L - 1) for _ in ps],
        resid_lags=[rng.normal(size=p) for p in ps],
        next_t=[int(t) for t in t0 + rng.integers(0, 3, size=n_series)],
    )
    return SamossaModel(
        beta_model=beta, ar_models=ar_models, config=SamossaConfig(L=L, p=tuple(sorted(set(ps)))),
        L=L, k_hat=1, p_used=tuple(ps), series_names=tuple(f"s{n}" for n in range(n_series)),
        state=state,
    )


def loop_roll(model, values):
    """The reference protocol: every series forecast, then every series observed, per step."""
    n_series, horizon = values.shape
    out = np.empty((3, n_series, horizon))
    for j in range(horizon):
        for n in range(n_series):
            out[:, n, j] = forecast_step(model, n)
        for n in range(n_series):
            observe(model, n, float(values[n, j]))
    return out


def assert_same_state(a, b):
    assert len(a.obs_lags) == len(b.obs_lags)
    for x, y in zip(a.obs_lags, b.obs_lags):
        assert x.shape == y.shape and np.array_equal(x, y)
    for x, y in zip(a.resid_lags, b.resid_lags):
        assert x.shape == y.shape and np.array_equal(x, y)
    assert a.next_t == b.next_t
    assert a.pending_f == b.pending_f


@st.composite
def roll_cases(draw):
    n_series = draw(st.integers(1, 4))
    L = draw(st.integers(2, 9))
    ps = draw(st.lists(st.integers(0, 3), min_size=n_series, max_size=n_series))
    horizon = draw(st.integers(0, 24))
    cuts = sorted(draw(st.lists(st.integers(0, horizon), max_size=4)))
    pending = draw(st.lists(st.integers(0, n_series - 1), max_size=n_series, unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    return L, ps, horizon, cuts, pending, seed


class TestEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(roll_cases())
    def test_roll_equals_protocol_loop(self, case):
        L, ps, horizon, cuts, pending, seed = case
        rng = np.random.default_rng(seed)
        model = random_model(rng, L, ps)
        values = rng.normal(size=(len(ps), horizon))
        for n in pending:
            forecast_step(model, n)
        reference = copy.deepcopy(model)
        want = loop_roll(reference, values)

        got = np.empty_like(want)
        for lo, hi in zip([0, *cuts], [*cuts, horizon]):
            got[:, :, lo:hi] = roll(model, values[:, lo:hi])
        assert np.array_equal(got, want)
        assert_same_state(model.state, reference.state)

    def test_fitted_models_whole_and_chunked(self):
        res = generate(forecasting_spec(n_series=6, length=1300, seed=2))
        names = res.y.series_names
        train = TimePanel(names, res.y.values[:, :1000], t0=1)
        test = res.y.values[:, 1000:]
        for p in (0, 1, 3, (0, 1, 2, 3)):
            model = fit(train, SamossaConfig(rank=RankRule.energy(0.9), p=p, valid_len=25))
            reference = copy.deepcopy(model)
            want = loop_roll(reference, test)
            whole = copy.deepcopy(model)
            assert np.array_equal(np.stack(roll(whole, test)), want)
            assert_same_state(whole.state, reference.state)
            got = np.concatenate([np.stack(roll(model, test[:, lo:lo + 50]))
                                  for lo in range(0, test.shape[1], 50)], axis=2)
            assert np.array_equal(got, want)
            assert_same_state(model.state, reference.state)

    def test_empty_window_keeps_pending_forecast(self):
        model = random_model(np.random.default_rng(0), 4, [2, 0])
        forecast_step(model, 1)
        before = copy.deepcopy(model.state)
        y_hat, f_hat, x_hat = roll(model, np.zeros((2, 0)))
        assert y_hat.shape == f_hat.shape == x_hat.shape == (2, 0)
        assert_same_state(model.state, before)


class TestRecursive:
    @settings(max_examples=50, deadline=None)
    @given(roll_cases())
    def test_matches_protocol_loop(self, case):
        L, ps, steps, _, _, seed = case
        model = random_model(np.random.default_rng(seed), L, ps)
        before = copy.deepcopy(model.state)
        reference = copy.deepcopy(model)
        want = np.empty((len(ps), steps))
        for j in range(steps):
            for n in range(len(ps)):
                want[n, j] = forecast_step(reference, n)[0]
                observe(reference, n, want[n, j])
        assert np.array_equal(forecast_recursive(model, steps), want)
        assert_same_state(model.state, before)

    def test_fitted_mixed_order_model(self):
        res = generate(forecasting_spec(n_series=4, length=800, seed=5))
        model = fit(res.y, SamossaConfig(rank=RankRule.energy(0.9), p=2))
        model.p_used = (0, 1, 2, 2)
        model.ar_models = (ArModel.zero(), ArModel(alpha=np.array([0.5]), p=1, noise_var_hat=1.0),
                           *model.ar_models[2:])
        model.state.resid_lags = [np.zeros(0), model.state.resid_lags[1][:1],
                                  *model.state.resid_lags[2:]]
        reference = copy.deepcopy(model)
        want = np.empty((4, 40))
        for j in range(40):
            for n in range(4):
                want[n, j] = forecast_step(reference, n)[0]
                observe(reference, n, want[n, j])
        assert np.array_equal(forecast_recursive(model, 40), want)


class TestFailClosed:
    @pytest.fixture
    def model(self):
        model = random_model(np.random.default_rng(1), 5, [0, 1, 3])
        forecast_step(model, 2)
        return model

    def test_wrong_series_count(self, model):
        before = copy.deepcopy(model.state)
        for shape in ((2, 4), (4, 4), (3,)):
            with pytest.raises(ShapeError):
                roll(model, np.zeros(shape))
        assert_same_state(model.state, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_anywhere_touches_nothing(self, model, bad):
        before = copy.deepcopy(model.state)
        values = np.zeros((3, 6))
        values[1, 4] = bad
        values[2, 5] = bad
        with pytest.raises(IngestError, match=r"series 1 at t=%d" % (model.state.next_t[1] + 4)):
            roll(model, values)
        assert_same_state(model.state, before)

    def test_uninitialized_state(self, model):
        model.state.obs_lags[0] = model.state.obs_lags[0][:-1]
        before = copy.deepcopy(model.state)
        with pytest.raises(StateError):
            roll(model, np.zeros((3, 2)))
        assert_same_state(model.state, before)
