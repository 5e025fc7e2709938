"""The batched rolling primitive against the per-series protocol it replaces.

``roll`` must be bit-identical to rounds of ``forecast_step`` then
``observe`` on every series: the forecasts and the state it leaves behind,
over any chunking of a window and whatever forecasts were pending. All of
them run on one lag-dot kernel, so each is also checked against
``ScalarProtocol``, an independent reference built on the scalar
``forecast_f``/``forecast_ar`` and list buffers.
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
from samossa.ar import forecast_ar
from samossa.linear_forecaster import forecast_f
from samossa.pipeline import SamossaModel, _State
from samossa.synth import forecasting_spec, generate


def random_model(rng, L, ps, t0=100) -> SamossaModel:
    """A model with random coefficients and state; one AR order per series."""
    n_series = len(ps)
    beta = BetaModel(beta=rng.normal(size=L - 1) / (L - 1), L=L, k_hat=1, resid_rms=0.1)
    ar_models = tuple(
        ArModel(alpha=rng.uniform(-0.4, 0.4, size=p), p=p, noise_var_hat=1.0) for p in ps
    )
    resid_lags = np.zeros((n_series, max(ps, default=0)))
    for n, p in enumerate(ps):
        resid_lags[n, :p] = rng.normal(size=p)
    state = _State(
        obs_lags=rng.normal(size=(n_series, L - 1)),
        resid_lags=resid_lags,
        next_t=[int(t) for t in t0 + rng.integers(0, 3, size=n_series)],
    )
    return SamossaModel(
        beta_model=beta, ar_models=ar_models, config=SamossaConfig(L=L, p=tuple(sorted(set(ps)))),
        L=L, k_hat=1, p_used=tuple(ps), series_names=tuple(f"s{n}" for n in range(n_series)),
        state=state,
    )


class ScalarProtocol:
    """Reference forecaster: one list buffer per series and scalar dot products.

    Forecasts with ``forecast_f`` and ``forecast_ar`` on each series' own
    most-recent-first buffers, and observes by pushing the value and its
    residual onto the front. It reads the model's coefficients and its
    starting state, and nothing else of the package's forecasting code.
    """

    def __init__(self, model):
        state = model.state
        self.model = model
        self.obs = [state.obs_lags[n].copy() for n in range(model.n_series)]
        self.resid = [state.resid_lags[n, :p].copy() for n, p in enumerate(model.p_used)]
        self.next_t = list(state.next_t)
        self.pending = dict(state.pending_f)

    def forecast(self, n):
        f_hat = forecast_f(self.model.beta_model, self.obs[n])
        x_hat = forecast_ar(self.model.ar_models[n], self.resid[n])
        self.pending[n] = f_hat
        return f_hat + x_hat, f_hat, x_hat

    def observe(self, n, y):
        f_hat = self.pending.pop(n)
        self.obs[n] = np.concatenate(([y], self.obs[n][:-1]))
        p = self.model.p_used[n]
        if p > 0:
            self.resid[n] = np.concatenate(([y - f_hat], self.resid[n][:p - 1]))
        self.next_t[n] += 1

    def roll(self, values):
        n_series, horizon = values.shape
        out = np.empty((3, n_series, horizon))
        for j in range(horizon):
            for n in range(n_series):
                out[:, n, j] = self.forecast(n)
            for n in range(n_series):
                self.observe(n, float(values[n, j]))
        return out

    def recursive(self, steps):
        out = np.empty((len(self.obs), steps))
        for j in range(steps):
            for n in range(len(self.obs)):
                out[n, j] = self.forecast(n)[0]
                self.observe(n, out[n, j])
        return out

    def assert_state(self, state):
        """The package's blocks hold these buffers, and exact +0.0 in every padded cell."""
        n_series = len(self.obs)
        assert state.obs_lags.shape == (n_series, self.model.L - 1)
        assert state.resid_lags.shape == (n_series, max(self.model.p_used, default=0))
        for n, p in enumerate(self.model.p_used):
            assert np.array_equal(state.obs_lags[n], self.obs[n])
            assert np.array_equal(state.resid_lags[n, :p], self.resid[n])
            pad = state.resid_lags[n, p:]
            assert np.all(pad == 0) and not np.signbit(pad).any()
        assert state.next_t == self.next_t
        assert state.pending_f == self.pending


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
    for x, y in ((a.obs_lags, b.obs_lags), (a.resid_lags, b.resid_lags)):
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
        oracle = ScalarProtocol(model)
        for n in pending:
            assert forecast_step(model, n) == oracle.forecast(n)
        reference = copy.deepcopy(model)
        want = loop_roll(reference, values)
        assert np.array_equal(want, oracle.roll(values))
        oracle.assert_state(reference.state)

        got = np.empty_like(want)
        for lo, hi in zip([0, *cuts], [*cuts, horizon]):
            got[:, :, lo:hi] = roll(model, values[:, lo:hi])
        assert np.array_equal(got, want)
        assert_same_state(model.state, reference.state)
        oracle.assert_state(model.state)

    def test_fitted_models_whole_and_chunked(self):
        res = generate(forecasting_spec(n_series=6, length=1300, seed=2))
        names = res.y.series_names
        train = TimePanel(names, res.y.values[:, :1000], t0=1)
        test = res.y.values[:, 1000:]
        for p in (0, 1, 3, (0, 1, 2, 3)):
            model = fit(train, SamossaConfig(rank=RankRule.energy(0.9), p=p, valid_len=25))
            oracle = ScalarProtocol(model)
            reference = copy.deepcopy(model)
            want = loop_roll(reference, test)
            assert np.array_equal(want, oracle.roll(test))
            whole = copy.deepcopy(model)
            assert np.array_equal(np.stack(roll(whole, test)), want)
            assert_same_state(whole.state, reference.state)
            got = np.concatenate([np.stack(roll(model, test[:, lo:lo + 50]))
                                  for lo in range(0, test.shape[1], 50)], axis=2)
            assert np.array_equal(got, want)
            assert_same_state(model.state, reference.state)
            oracle.assert_state(model.state)

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
        oracle = ScalarProtocol(model)
        reference = copy.deepcopy(model)
        want = np.empty((len(ps), steps))
        for j in range(steps):
            for n in range(len(ps)):
                want[n, j] = forecast_step(reference, n)[0]
                observe(reference, n, want[n, j])
        assert np.array_equal(oracle.recursive(steps), want)
        assert np.array_equal(forecast_recursive(model, steps), want)
        assert_same_state(model.state, before)

    def test_fitted_mixed_order_model(self):
        res = generate(forecasting_spec(n_series=4, length=800, seed=5))
        model = fit(res.y, SamossaConfig(rank=RankRule.energy(0.9), p=2))
        model.p_used = (0, 1, 2, 2)
        model.ar_models = (ArModel.zero(), ArModel(alpha=np.array([0.5]), p=1, noise_var_hat=1.0),
                           *model.ar_models[2:])
        model.state.resid_lags[0] = 0.0
        model.state.resid_lags[1, 1:] = 0.0
        oracle = ScalarProtocol(model)
        reference = copy.deepcopy(model)
        want = np.empty((4, 40))
        for j in range(40):
            for n in range(4):
                want[n, j] = forecast_step(reference, n)[0]
                observe(reference, n, want[n, j])
        assert np.array_equal(oracle.recursive(40), want)
        assert np.array_equal(forecast_recursive(model, 40), want)
        oracle.assert_state(reference.state)


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
        model.state.obs_lags = model.state.obs_lags[:, :-1]
        before = copy.deepcopy(model.state)
        with pytest.raises(StateError):
            roll(model, np.zeros((3, 2)))
        assert_same_state(model.state, before)

    @pytest.mark.parametrize("block", ["obs_lags", "resid_lags"])
    def test_forecast_step_checks_the_whole_state(self, model, block):
        # A residual block one column too wide: every row's own first p
        # columns are still there, but the state does not fit the orders.
        lags = getattr(model.state, block)
        setattr(model.state, block, np.hstack([lags, np.zeros((3, 1))]))
        before = copy.deepcopy(model.state)
        for n in range(3):
            with pytest.raises(StateError):
                forecast_step(model, n)
        with pytest.raises(StateError):
            roll(model, np.zeros((3, 2)))
        assert_same_state(model.state, before)
