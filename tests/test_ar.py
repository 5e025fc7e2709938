import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samossa import (
    ArModel,
    DegenerateRootsError,
    FitError,
    NonStationaryError,
    ShapeError,
)
from samossa.ar import (
    characteristic_roots,
    companion_matrix,
    diagnostics,
    fit_ar,
    fit_ar_rows,
    forecast_ar,
)


def simulate_ar(alpha, eta):
    """Reference simulation of the recursion from a zero initial state."""
    p = len(alpha)
    x = np.zeros(len(eta))
    for t in range(len(eta)):
        acc = eta[t]
        for i in range(1, p + 1):
            if t - i >= 0:
                acc += alpha[i - 1] * x[t - i]
        x[t] = acc
    return x


class TestArModel:
    @pytest.mark.parametrize("alpha", [["1.5"], [True], [None], [[0.5], [0.5, 0.1]]])
    def test_coefficients_must_be_numbers(self, alpha):
        with pytest.raises(FitError, match="AR coefficients are not an array of numbers"):
            ArModel(alpha=alpha, noise_var_hat=1.0)

    @pytest.mark.parametrize("noise_var", ["x", True, None, 10**400, np.nan])
    def test_noise_variance_must_be_a_finite_real(self, noise_var):
        with pytest.raises(FitError, match="non-finite or non-real AR noise variance"):
            ArModel(alpha=[0.5], noise_var_hat=noise_var)

    def test_rank_deficient_must_be_a_bool(self):
        with pytest.raises(FitError, match="rank_deficient must be true or false, got 1"):
            ArModel(alpha=[0.5], noise_var_hat=1.0, rank_deficient=1)


class TestFitAr:
    def test_exact_recursion(self):
        x = np.empty(200)
        x[0] = 1.0
        for t in range(1, 200):
            x[t] = 0.8 * x[t - 1]
        model = fit_ar(x, 1)
        assert model.alpha[0] == pytest.approx(0.8, abs=1e-12)
        assert model.noise_var_hat < 1e-20

    def test_white_noise_concentrates_at_zero(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=100_000)
        model = fit_ar(x, 1)
        assert abs(model.alpha[0]) < 0.02

    def test_matches_normal_equations(self):
        # Closed-form oracle on a well-conditioned design.
        rng = np.random.default_rng(5)
        eta = rng.normal(size=5000)
        x = simulate_ar([1.2, -0.4], eta)
        model = fit_ar(x, 2)
        T = len(x)
        design = np.column_stack([x[1:T - 1], x[0:T - 2]])
        targets = x[2:]
        gram = design.T @ design
        assert np.linalg.cond(gram) < 1e8
        oracle = np.linalg.solve(gram, design.T @ targets)
        np.testing.assert_allclose(model.alpha, oracle, atol=1e-8)

    def test_too_short(self):
        with pytest.raises(FitError):
            fit_ar(np.ones(4), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_residuals_are_refused_quietly(self, bad, capfd):
        with pytest.raises(FitError, match="non-finite residuals"):
            fit_ar(np.array([1.0, bad, 2.0, 3.0, 4.0]), 1)
        assert capfd.readouterr().err == ""

    def test_rank_deficient_flagged(self):
        model = fit_ar(np.zeros(50), 2)
        assert model.rank_deficient
        assert np.all(model.alpha == 0.0)

    def test_identification_rate(self):
        # Squared coefficient error on clean AR data shrinks roughly like 1/T.
        rng_master = np.random.default_rng(17)
        alpha = np.array([0.45, -0.045])
        t_values = (1000, 10_000, 100_000)
        medians = []
        for T in t_values:
            errs = []
            for _ in range(10):
                eta = rng_master.normal(size=T) * 0.5
                x = simulate_ar(alpha, eta)
                model = fit_ar(x, 2)
                errs.append(np.sum((model.alpha - alpha) ** 2))
            medians.append(np.median(errs))
        slope = np.polyfit(np.log(t_values), np.log(medians), 1)[0]
        assert -1.3 <= slope <= -0.7


    @pytest.mark.parametrize("order", [1.5, "2", True, np.float64(2.0), -1])
    def test_order_must_be_an_integer_of_at_least_one(self, order):
        x = np.random.default_rng(3).normal(size=50)
        with pytest.raises(FitError, match="order must be an integer >= 0"):
            fit_ar(x, order)

    def test_order_zero_is_the_uncentred_mean_square(self):
        # AR(0) forecasts 0, so x itself is its one-step error: no centring.
        x = 0.3 + np.random.default_rng(3).normal(size=50)
        model = fit_ar(x, 0)
        assert model.alpha.shape == (0,) and not model.rank_deficient
        assert model.noise_var_hat == np.mean(x**2) != np.var(x)
        assert fit_ar(x[:1], 0).noise_var_hat == x[0] ** 2
        with pytest.raises(FitError, match="need at least 1 observations"):
            fit_ar(x[:0], 0)
        with pytest.raises(FitError, match="noise variance"):
            fit_ar(np.full(5, 1e200), 0)

    def test_numpy_integer_order(self):
        x = np.random.default_rng(3).normal(size=50)
        model = fit_ar(x, np.int64(2))
        assert type(model.p) is int and model.p == 2
        assert model.alpha.tolist() == fit_ar(x, 2).alpha.tolist()

    def test_overflowing_noise_variance(self):
        x = 1e200 * np.random.default_rng(4).normal(size=300)
        with pytest.raises(FitError, match="noise variance"):
            fit_ar(x, 2)
        with pytest.raises(FitError, match="noise variance"):
            ArModel.zero(noise_var_hat=math.inf)


def lag_design(x, p):
    """The explicit least-squares problem of an AR(p >= 1) fit: lags 1..p, and the targets."""
    T = len(x)
    return np.column_stack([x[p - i:T - i] for i in range(1, p + 1)]), x[p:]


def lstsq_fit(x, p):
    """The reference fit: lstsq on the explicit design, (alpha, noise_var_hat, rank_deficient)."""
    design, targets = lag_design(x, p)
    alpha, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    resid = targets - np.dot(design, alpha)
    with np.errstate(over="ignore"):
        return alpha, float(np.mean(resid**2)), bool(rank < p)


def ar_series(kind, T, seed):
    """White noise, a near-unit-root AR(1), or a noisy sinusoid, of length T."""
    rng = np.random.default_rng(seed)
    eta = rng.normal(size=T)
    if kind == "noise":
        return eta
    if kind == "unit_root":
        return simulate_ar([rng.uniform(0.99, 0.9999)], eta)
    t = np.arange(T)
    return rng.uniform(1.0, 10.0) * np.sin(rng.uniform(0.05, 3.0) * t + rng.uniform(0, 6)) + eta


class TestFitArRows:
    """One batched lag-Gram solve per call; the rows it cannot trust go to lstsq."""

    @given(kind=st.sampled_from(["noise", "unit_root", "sinusoid"]), p=st.integers(1, 3),
           T=st.integers(7, 3000), scale=st.sampled_from([1e-150, 1.0, 1e150]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_lstsq_oracle(self, kind, p, T, scale, seed):
        x = scale * ar_series(kind, T, seed)
        model = fit_ar_rows(x[None], p)[0]
        alpha, noise_var, rank_deficient = lstsq_fit(x, p)
        eps = np.finfo(float).eps
        kappa = np.linalg.cond(lag_design(x, p)[0])
        assert np.abs(model.alpha - alpha).max() <= \
            16 * eps * kappa**2 * max(1.0, np.abs(alpha).max())
        assert abs(model.noise_var_hat - noise_var) <= 1e-13 * noise_var
        assert model.rank_deficient == rank_deficient

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_a_rows_model_does_not_depend_on_the_other_rows(self, p):
        rng = np.random.default_rng(p)
        # 20 000 steps make blocks of three rows, so the order also moves rows across blocks.
        rows = [ar_series(kind, 20_000, seed) for seed, kind in
                enumerate(["noise", "unit_root", "sinusoid"] * 3)]
        rows[4] = np.zeros(20_000)  # a declining row among them
        X = np.array(rows) * np.ldexp(1.0, rng.integers(-60, 60, size=(len(rows), 1)))
        order = rng.permutation(len(X))
        batched, permuted = fit_ar_rows(X, p), fit_ar_rows(X[order], p)
        for n, model in enumerate(batched):
            for other in (fit_ar(X[n], p), permuted[list(order).index(n)]):
                assert model.alpha.tobytes() == other.alpha.tobytes()
                assert model.noise_var_hat == other.noise_var_hat
                assert model.rank_deficient == other.rank_deficient

    @pytest.mark.parametrize("x, p", [
        (np.zeros(50), 2),
        (0.8 ** np.arange(200.0), 2),  # an exact AR(1): the two lags are collinear
        (np.sin(0.3 * np.arange(300.0)), 3),  # x(t) = 2cos(0.3) x(t-1) - x(t-2)
        (1e-170 * 0.8 ** np.arange(200.0), 2),
    ], ids=["zeros", "exact_ar1", "sinusoid", "tiny_exact_ar1"])
    def test_a_singular_gram_declines_to_lstsq(self, x, p, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        model = fit_ar(x, p)
        monkeypatch.undo()
        alpha, noise_var, rank_deficient = lstsq_fit(x, p)
        assert calls == [1]
        assert model.alpha.tobytes() == alpha.tobytes()
        assert model.noise_var_hat == noise_var and model.rank_deficient == rank_deficient

    def test_an_overflowing_noise_variance_declines_to_lstsq(self, monkeypatch):
        x = 1e200 * np.random.default_rng(4).normal(size=300)
        assert not np.isfinite(lstsq_fit(x, 2)[1])
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        with pytest.raises(FitError, match="noise variance"):
            fit_ar(x, 2)
        assert calls == [1]

    def test_well_conditioned_rows_take_no_lstsq(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "lstsq", None)  # any call would fail
        X = np.array([ar_series(kind, 500, 7) for kind in ("noise", "unit_root", "sinusoid")])
        assert not any(model.rank_deficient for model in fit_ar_rows(X, 2))


class TestForecastAr:
    def test_single_lag(self):
        model = ArModel(alpha=np.array([0.5]), noise_var_hat=1.0)
        assert forecast_ar(model, [2.0]) == pytest.approx(1.0)

    def test_zero_model(self):
        model = ArModel(alpha=np.zeros(3), noise_var_hat=1.0)
        assert forecast_ar(model, [4.0, 5.0, 6.0]) == 0.0

    def test_two_lags(self):
        model = ArModel(alpha=np.array([1.5, -0.56]), noise_var_hat=1.0)
        assert forecast_ar(model, [1.0, 1.0]) == pytest.approx(0.94)

    def test_order_zero(self):
        assert forecast_ar(ArModel.zero(), []) == 0.0

    def test_lag_count_mismatch(self):
        model = ArModel(alpha=np.array([0.5]), noise_var_hat=1.0)
        with pytest.raises(ShapeError):
            forecast_ar(model, [1.0, 2.0])


class TestRoots:
    def test_linear(self):
        roots = characteristic_roots([0.5])
        assert roots.tolist() == [0.5]

    def test_distinct_real_pair(self):
        roots = characteristic_roots([1.5, -0.56])
        np.testing.assert_allclose(sorted(np.real(roots), reverse=True), [0.8, 0.7], atol=1e-12)

    def test_imaginary_pair(self):
        roots = characteristic_roots([0.0, -0.25])
        assert sorted(np.round(np.imag(roots), 12).tolist()) == [-0.5, 0.5]
        assert np.max(np.abs(roots)) == pytest.approx(0.5)

    def test_companion_layout(self):
        A = companion_matrix([1.5, -0.56, 0.1])
        np.testing.assert_array_equal(A[0], [1.5, -0.56, 0.1])
        np.testing.assert_array_equal(A[1:, :-1], np.eye(2))
        np.testing.assert_array_equal(A[1:, -1], [0.0, 0.0])


def assert_gramian_equations(diag):
    """Psi = A Psi A' + B B' (B = e_1) and Gamma = A Gamma A' + I, to 1e-12."""
    A, psi, gamma = diag.companion, diag.gramian_psi, diag.gramian_gamma
    p = A.shape[0]
    B = np.eye(p)[:, :1]
    np.testing.assert_allclose(psi, A @ psi @ A.T + B @ B.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gamma, A @ gamma @ A.T + np.eye(p), rtol=0, atol=1e-12)


class TestDiagnostics:
    def test_ar1_closed_forms(self):
        model = ArModel(alpha=np.array([0.5]), noise_var_hat=1.0)
        diag = diagnostics(model, sigma=1.0)
        assert diag.c_lambda == pytest.approx(1.0)
        assert diag.sigma_x == pytest.approx(2.0)
        assert diag.gramian_psi[0, 0] == pytest.approx(1.0 / 0.75, abs=1e-10)

    def test_partial_fractions_and_ma_head(self):
        # Roots 0.8, 0.7: a = (8, -7), c_lambda = 15, and the unrolled
        # second MA weight equals 8*0.8 - 7*0.7 = alpha_1.
        model = ArModel(alpha=np.array([1.5, -0.56]), noise_var_hat=1.0)
        diag = diagnostics(model, sigma=1.0)
        assert diag.c_lambda == pytest.approx(15.0, abs=1e-9)
        assert diag.ma_coeffs[0] == 1.0
        assert diag.ma_coeffs[1] == model.alpha[0]
        assert diag.ma_coeffs[1] == pytest.approx(8 * 0.8 - 7 * 0.7)

    def test_ma_coeffs_match_root_formula(self):
        # Independent oracle: beta_k = sum_i a_i lambda_i^k from the roots.
        alpha = np.array([1.1, -0.3])
        model = ArModel(alpha=alpha, noise_var_hat=1.0)
        diag = diagnostics(model, sigma=1.0, K=30)
        roots = np.roots([1.0, -alpha[0], -alpha[1]])
        a = np.array([
            1.0 / np.prod([1 - roots[j] / roots[i] for j in range(2) if j != i])
            for i in range(2)
        ])
        for k in range(30):
            expected = np.real(np.sum(a * roots**k))
            assert diag.ma_coeffs[k] == pytest.approx(expected, abs=1e-12)

    def test_lyapunov_fixed_point(self):
        model = ArModel(alpha=np.array([1.5, -0.56]), noise_var_hat=0.25)
        diag = diagnostics(model)
        A = diag.companion
        B = np.array([[1.0], [0.0]])
        np.testing.assert_allclose(
            diag.gramian_psi, A @ diag.gramian_psi @ A.T + B @ B.T, atol=1e-10
        )
        np.testing.assert_allclose(
            diag.gramian_gamma, A @ diag.gramian_gamma @ A.T + np.eye(2), atol=1e-10
        )

    def test_gramian_sandwich(self):
        for alpha in ([0.5], [1.5, -0.56], [0.2, 0.1, -0.02]):
            model = ArModel(alpha=np.array(alpha), noise_var_hat=1.0)
            diag = diagnostics(model)
            assert np.min(np.linalg.eigvalsh(diag.gramian_psi)) > 0.0
            gap = diag.gramian_gamma - diag.gramian_psi
            assert np.min(np.linalg.eigvalsh(gap)) >= -1e-10

    @pytest.mark.parametrize("alpha", [[0.999], [0.9, 0.2, -0.15]], ids=["p1-0.999", "p3"])
    def test_gramians_near_the_unit_circle(self, alpha):
        model = ArModel(alpha=np.array(alpha), noise_var_hat=1.0)
        diag = diagnostics(model)
        psi, gamma = diag.gramian_psi, diag.gramian_gamma
        assert_gramian_equations(diag)
        assert np.min(np.linalg.eigvalsh(psi)) > 0.0
        assert np.min(np.linalg.eigvalsh(gamma - psi)) >= -1e-10
        if model.p == 1:  # Psi = Gamma = 1 / (1 - lambda^2)
            np.testing.assert_allclose([psi[0, 0], gamma[0, 0]], 1.0 / (1.0 - 0.999**2),
                                       rtol=1e-12)

    @pytest.mark.parametrize("alpha, c_lambda", [([0.5, 0.0], 1.0), ([0.9, -0.2, 0.0], 9.0)],
                             ids=["p2", "p3"])
    def test_zero_root(self, alpha, c_lambda):
        # A last coefficient of 0 puts a root at 0, whose partial-fraction
        # constant is 0: roots 0.5, 0 give a = (1, 0); roots 0.5, 0.4, 0
        # give a = (5, -4, 0). No root is divided by, so nothing warns.
        diag = diagnostics(ArModel(alpha=np.array(alpha), noise_var_hat=1.0))
        assert abs(diag.roots[-1]) < 1e-12
        assert diag.lambda_star == pytest.approx(0.5, abs=1e-12)
        assert diag.c_lambda == pytest.approx(c_lambda, abs=1e-12)
        assert_gramian_equations(diag)

    @pytest.mark.parametrize("K", [0, -1, 2.5, True, "200"])
    def test_ma_length_must_be_a_positive_integer(self, K):
        model = ArModel(alpha=np.array([0.5]), noise_var_hat=1.0)
        with pytest.raises(ShapeError, match="K must be an integer >= 1"):
            diagnostics(model, K=K)

    def test_nonstationary_rejected(self):
        model = ArModel(alpha=np.array([1.05]), noise_var_hat=1.0)
        with pytest.raises(NonStationaryError):
            diagnostics(model)

    def test_repeated_roots_rejected(self):
        # (z - 0.6)^2 = z^2 - 1.2 z + 0.36
        model = ArModel(alpha=np.array([1.2, -0.36]), noise_var_hat=1.0)
        with pytest.raises(DegenerateRootsError):
            diagnostics(model)

    def test_two_zero_roots_are_degenerate(self):
        model = ArModel(alpha=np.array([0.0, 0.0]), noise_var_hat=1.0)
        with pytest.raises(DegenerateRootsError, match="closer than 1e-09"):
            diagnostics(model)

    def test_est_err_budget_reported(self):
        model = ArModel(alpha=np.array([0.5]), noise_var_hat=2.0)
        diag = diagnostics(model)
        expected = 2.0 * np.min(np.linalg.eigvalsh(diag.gramian_psi)) / 6.0
        assert diag.est_err_budget == pytest.approx(expected)


class TestMaArEquivalence:
    @pytest.mark.parametrize("lam", [0.3, 0.6, 0.95])
    def test_truncated_ma_matches_recursion(self, lam):
        from samossa.synth import ar_from_lambda_star

        K = 200
        alpha = ar_from_lambda_star(2, lam)
        model = ArModel(alpha=alpha, noise_var_hat=1.0)
        diag = diagnostics(model, sigma=1.0, K=K)
        rng = np.random.default_rng(23)
        eta = rng.normal(size=400)
        via_recursion = simulate_ar(alpha, eta)
        via_ma = np.convolve(eta, diag.ma_coeffs)[: len(eta)]
        # Sum of the omitted weights: sum_{k>=K} |beta_k| <= c * lam^K / (1-lam).
        bound = diag.c_lambda * lam**K / (1.0 - lam) * np.max(np.abs(eta))
        floor = 1e-11 * max(1.0, diag.sigma_x)  # float accumulation, not truncation
        assert np.max(np.abs(via_recursion - via_ma)) <= bound + floor
