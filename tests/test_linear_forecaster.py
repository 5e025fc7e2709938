import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samossa import BetaModel, FitError, RankError, RankRule, ShapeError, TimePanel
from samossa import evaluation, lowrank, pipeline
from samossa.ar import fit_ar_rows
from samossa.linear_forecaster import fit_beta, forecast_f, solve_beta
from samossa.lowrank import _downdate_head, _gram_svd, svd, takes_topk
from samossa.pagemat import stack
from samossa.ssa_estimator import Stage1
from samossa.synth import forecasting_spec, generate


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
            Stage1(panel, 6).beta(k)

    def test_degenerate_all_zero(self):
        from samossa import FitError

        panel = TimePanel(("a",), np.zeros((1, 30)))
        with pytest.raises(FitError):
            Stage1(panel, 3).beta(1)


def page_panel(page):
    """A one-series panel whose Page matrix at L = len(page) is ``page``."""
    return TimePanel(("a",), page.T.reshape(1, -1))


def lstsq_beta(page, k_hat):
    """The reference: lstsq on the rank-k_hat truncation of the top rows, rebuilt dense."""
    u, s, vt = np.linalg.svd(page[:-1], full_matrices=False)
    if s[0] <= 0.0:
        raise FitError("all-zero feature matrix")
    features = (u[:, :k_hat] * s[:k_hat]) @ vt[:k_hat]
    coef = np.linalg.lstsq(features.T, page[-1], rcond=1e-10)[0]
    rms = np.sqrt(np.mean((features.T @ coef - page[-1]) ** 2))
    return BetaModel(beta=coef[::-1], k_hat=k_hat, resid_rms=rms)


def assert_near_reference(got, page, k_hat):
    """beta within the top rows' conditioning of the reference's, the RMS within rounding."""
    reference = lstsq_beta(page, k_hat)
    s = np.linalg.svd(page[:-1], compute_uv=False)
    with np.errstate(divide="ignore"):  # an exactly zero k_hat-th value bounds nothing
        cond = s[0] / s[min(k_hat, s.size) - 1]
    scale = np.abs(reference.beta).max()
    assert np.abs(got.beta - reference.beta).max() <= max(1e-9, 1e-14 * cond) * scale
    last_rms = np.sqrt(np.mean(page[-1] ** 2))
    assert abs(got.resid_rms - reference.resid_rms) <= 1e-11 * last_rms


def same_outcome(got, expected):
    """Equal bits for two BetaModels, or the same error type and message."""
    if isinstance(expected, Exception):
        return type(got) is type(expected) and str(got) == str(expected)
    return (np.array_equal(got.beta, expected.beta) and got.resid_rms == expected.resid_rms
            and got.k_hat == expected.k_hat)


def outcome(solve, *args):
    try:
        return solve(*args)
    except FitError as exc:
        return exc


class TestDowndate:
    """beta by one closed form on an SVD of the top rows, against lstsq on rebuilt features."""

    @given(rows=st.integers(3, 60), cols=st.integers(2, 90), rank=st.integers(1, 5),
           noise=st.sampled_from([0.0, 1e-8, 1e-4, 1e-2, 1.0]),
           exponent=st.sampled_from([-200, 0, 200]), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_lstsq_oracle(self, rows, cols, rank, noise, exponent, seed, data):
        # Planted singular values 1..10 plus Gaussian noise, all times 2^exponent.
        rng = np.random.default_rng(seed)
        rank = min(rank, rows, cols)
        u, _ = np.linalg.qr(rng.normal(size=(rows, rank)))
        v, _ = np.linalg.qr(rng.normal(size=(cols, rank)))
        s = np.sort(rng.uniform(1.0, 10.0, size=rank))[::-1]
        page = np.ldexp((u * s) @ v.T + noise * rng.normal(size=(rows, cols)), exponent)
        k_hat = data.draw(st.integers(1, min(rows - 1, cols)), label="k_hat")

        stage = Stage1(page_panel(page), rows)
        assert np.array_equal(stage.page.data, page)
        page = stage.page.data  # its memory layout, which LAPACK's rounding follows
        got = outcome(stage.beta, k_hat)
        # Stage1 solves on the downdate where it answers, else on the top rows' own SVD.
        sub = _downdate_head(_gram_svd(page), k_hat)
        assert same_outcome(got, outcome(solve_beta, page, sub or svd(page[:-1], k_hat), k_hat))
        reference = outcome(lstsq_beta, page, k_hat)
        if isinstance(reference, FitError):
            assert same_outcome(got, reference)
            return
        assert_near_reference(got, page, k_hat)
        if sub is not None:  # the downdate's triplets are the top rows' top k_hat
            dense = svd(page[:-1], k_hat)
            k = dense.singular_values.size
            assert sub.singular_values.shape == (k,)
            assert np.abs(sub.singular_values - dense.singular_values).max() \
                <= 1e-12 * dense.singular_values[0]
            for ours, theirs in ((sub.left_vectors, dense.left_vectors),
                                 (sub.right_vectors(), dense.right_vectors())):
                # the oracle SVD's rounding over the eigenvalue gap the downdate requires
                assert np.abs(ours @ ours.T - theirs @ theirs.T).max() <= 1e-8

    @given(r=st.integers(2, 40), rank=st.integers(1, 40),
           noise=st.sampled_from([0.0, 1e-8, 1e-3]), exponent=st.sampled_from([-200, 0, 200]),
           ties=st.integers(0, 3), zeros=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    @settings(max_examples=400)
    def test_head_matches_eigh_oracle(self, r, rank, noise, exponent, ties, zeros, seed, data):
        # r singular values: `rank` planted in [1, 10], `ties` of them copied
        # exactly onto others, and noise values (exact zeros at noise 0), all
        # times 2^exponent; the last left-vector row u of an orthonormal basis,
        # `zeros` of its entries set to exactly 0.
        rng = np.random.default_rng(seed)
        rank = min(rank, r)
        planted = rng.uniform(1.0, 10.0, size=rank)
        planted[rng.integers(0, rank, size=ties)] = planted[rng.integers(0, rank, size=ties)]
        s = np.ldexp(np.sort(np.append(planted, noise * rng.uniform(size=r - rank)))[::-1],
                     exponent)
        left = np.linalg.qr(rng.normal(size=(r + 1, r)))[0]
        left[-1, rng.integers(0, r, size=zeros)] = 0.0
        k = data.draw(st.integers(1, r - 1), label="k")
        # The oracle: eigh of the same scaled diag(s^2) - z z^T.
        scale = int(np.frexp(s[0])[1])
        s_hat = np.ldexp(s, -scale)
        d, z = s_hat * s_hat, s_hat * left[-1]
        lam, w = np.linalg.eigh(np.diag(d) - np.outer(z, z))
        lam, w = lam[::-1], w[:, ::-1]

        head = lowrank._secular_head(d, z, k)
        # The same spectrum served as a Gram spectrum (its matrix only gives the shape).
        sub = _downdate_head(lowrank.SvdResult(s, left, matrix=np.zeros((r + 1, r))), k)
        if head is None:
            assert sub is None
            return
        values, vectors = head
        assert values.shape == (k + 1,) and vectors.shape == (r, k)
        assert np.abs(values - lam[:k + 1]).max() <= 1e-14
        eps = np.finfo(np.float64).eps
        value_floor, gap_floor = eps / lowrank._GRAM_BETA, eps / lowrank._GRAM_ANGLE
        gap = lam[k - 1] - lam[k]
        if sub is None:  # declined by the Gram's floor at k, or the k-th value's or its gap's
            assert (not lowrank._clears_floor(s, k, r) or values[k - 1] <= value_floor
                    or values[k - 1] - values[k] <= gap_floor)
            return
        assert lam[k - 1] > 0.5 * value_floor and gap > 0.5 * gap_floor
        assert np.array_equal(np.ldexp(sub.singular_values, -scale), np.sqrt(values[:k]))
        assert np.abs(vectors @ vectors.T - w[:, :k] @ w[:, :k].T).max() <= 1e-8

    def test_unresolved_vectors_decline(self, monkeypatch):
        # Three poles an ulp apart, none tied and no z_j zero: the top two
        # roots cannot be told apart in floating point, and their vectors
        # come out 2e-4 off orthogonal, so the head declines.
        s = np.array([0.75, np.nextafter(0.75, 0), np.nextafter(np.nextafter(0.75, 0), 0)])
        z = s * np.array([-7.28833380531324e-09, -0.0012019823542437917, -0.46992272470079455])
        assert np.all(np.diff(s) < 0) and np.all(z != 0)
        assert lowrank._secular_head(s * s, z, 2) is None
        monkeypatch.setattr(lowrank, "_ORTHO_TOL", 1.0)
        assert lowrank._secular_head(s * s, z, 2) is not None

    @pytest.mark.parametrize("rule", [RankRule.fixed(5), RankRule.energy(0.9)], ids=str)
    def test_topk_head_matches_lstsq_oracle(self, rule, census):
        # 10 x 36 060 at L = 601: the top rows are 600 x 600, so beta at a small
        # k_hat reads a top-k svd of them rather than the downdate.
        stage = Stage1(generate(forecasting_spec(n_series=10, length=601 * 60, seed=0)).y, 601)
        k_hat = stage.rank(rule)
        assert takes_topk((600, 600), k_hat)
        census.taken.clear()
        model = stage.beta(k_hat)
        assert census.taken == [("topk", (600, 600))] and census.heads == []
        assert_near_reference(model, stage.page.data, k_hat)

    def test_split_tie_declines(self):
        # The period-3 sawtooth at L = 4 has s_2 = s_3: rank 2 splits the tie.
        panel = TimePanel(("a",), np.tile([1.0, 2.0, 3.0], 20)[None, :])
        assert _downdate_head(_gram_svd(stack(panel, 4).data), 2) is None
        model = Stage1(panel, 4).beta(2)
        assert forecast_f(model, [3.0, 2.0, 1.0]) == pytest.approx(1.0, abs=1e-8)

    def test_rank_past_the_sub_matrix_declines(self):
        # A rank-2 matrix: its Gram's third value is rounding, so neither a
        # truncation at k = 2 (whose residual is that rounding) nor one past it
        # clears the floor, and beta reads an SVD of the top rows.
        rng = np.random.default_rng(0)
        page = rng.normal(size=(12, 2)) @ rng.normal(size=(2, 30))
        gram = _gram_svd(page)
        assert not lowrank._clears_floor(gram.singular_values, 2, 12)
        assert _downdate_head(gram, 2) is None and _downdate_head(gram, 3) is None
        model = Stage1(page_panel(page), 12).beta(3)
        assert same_outcome(model, solve_beta(page, svd(page[:-1]), 3))
        assert_near_reference(model, page, 3)
        # The third value is rounding, below the 1e-10 s_1 cutoff: the rank-2 model.
        rank2 = Stage1(page_panel(page), 12).beta(2)
        assert same_outcome(rank2, solve_beta(page, svd(page[:-1]), 2))
        assert np.abs(model.beta - rank2.beta).max() <= 1e-9 * np.abs(rank2.beta).max()

    def test_zero_rank_declines(self):
        page = np.random.default_rng(1).normal(size=(5, 8))
        assert _downdate_head(_gram_svd(page), 0) is None
        model = Stage1(page_panel(page), 5).beta(0)
        assert np.array_equal(model.beta, np.zeros(4)) and model.k_hat == 0
        assert model.resid_rms == np.sqrt(np.mean(page[-1] ** 2))

    def test_all_zero_features_stay_a_fit_error(self):
        # s(t) = 1 at every fourth step: at L = 4 only the last Page row is non-zero.
        panel = TimePanel(("a",), (np.arange(48) % 4 == 3).astype(float)[None, :])
        assert _downdate_head(_gram_svd(stack(panel, 4).data), 1) is None
        for k_hat in (0, 1):
            with pytest.raises(FitError, match="^all-zero feature matrix$"):
                Stage1(panel, 4).beta(k_hat)

    def test_benchmark_seed_takes_the_downdate_every_time(self, census, monkeypatch):
        # The grid's beta solves (the nine default configs give five (L, k_hat)
        # pairs on the train panel) and both refits': one Gram factorisation of
        # each Page matrix (three Ls, and the refits' panel at its own L), no
        # SVD of it or of its top rows: each head is read off the secular equation.
        lstsqs, ar_fits, lstsq = [], [], np.linalg.lstsq

        def recording_fit(residuals, p):
            ar_fits.append(p)
            return fit_ar_rows(residuals, p)

        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kwargs: lstsqs.append(1) or lstsq(*args, **kwargs))
        monkeypatch.setattr(pipeline, "fit_ar_rows", recording_fit)
        evaluation.forecast_benchmark_run(0)
        assert [answered for _, answered in census.heads] == [True] * 7
        assert census.count("gram") == len(census.taken) == 4
        assert {shape for shape, _ in census.heads} == {shape for _, shape in census.taken}
        # Stage 2: one batched fit per (decomposition, order), every row by its lag Gram.
        assert len(ar_fits) == 26 and lstsqs == []

    @pytest.mark.parametrize("rule", [RankRule.fixed(4), RankRule.energy(0.9),
                                      RankRule.universal()], ids=str)
    @pytest.mark.parametrize("k", [-200, -40, 40, 200])
    def test_exact_under_powers_of_two(self, rule, k):
        y = generate(forecasting_spec(n_series=3, length=400, seed=0)).y
        stage = Stage1(y, 40)
        k_hat = stage.rank(rule)
        assert _downdate_head(_gram_svd(stage.page.data), k_hat) is not None
        model = stage.beta(k_hat)
        scaled = Stage1(TimePanel(y.series_names, np.ldexp(y.values, k)), 40).beta(k_hat)
        assert np.array_equal(scaled.beta, model.beta)
        assert scaled.resid_rms == np.ldexp(model.resid_rms, k)


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
