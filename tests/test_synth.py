import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samossa import SpecError
from samossa.ar import characteristic_roots
from samossa.synth import (
    _BLOCK,
    GeneratorSpec,
    _simulate_ar,
    ar_from_lambda_star,
    estimation_spec,
    forecasting_spec,
    generate,
)

from test_ar import simulate_ar

EPS = np.finfo(float).eps


def scalar_ar(alpha, eta):
    """The plain recursion, one series and one step at a time."""
    return np.array([simulate_ar(alpha, row) for row in eta])


@st.composite
def stable_alphas(draw):
    """Coefficients of an AR(1..5) whose roots, real or conjugate pairs, have modulus <= 0.999."""
    p = draw(st.integers(1, 5))
    roots = []
    while len(roots) < p:
        r = draw(st.floats(0.0, 0.999))
        if p - len(roots) >= 2 and draw(st.booleans()):
            theta = draw(st.floats(0.0, math.pi))
            roots += [r * cmath.exp(1j * theta), r * cmath.exp(-1j * theta)]
        else:
            roots.append(draw(st.sampled_from([r, -r])))
    return -np.poly(roots).real[1:]


class TestArFromLambdaStar:
    def test_first_order(self):
        np.testing.assert_allclose(ar_from_lambda_star(1, 0.95), [0.95])

    def test_second_order_roots(self):
        alpha = ar_from_lambda_star(2, 0.6)
        np.testing.assert_allclose(alpha, [0.9, -0.18])
        roots = characteristic_roots(alpha)
        np.testing.assert_allclose(sorted(np.real(roots), reverse=True), [0.6, 0.3], atol=1e-12)

    def test_low_modulus_roots(self):
        roots = characteristic_roots(ar_from_lambda_star(2, 0.3))
        np.testing.assert_allclose(sorted(np.real(roots), reverse=True), [0.3, 0.15], atol=1e-12)

    def test_requested_modulus_hit(self):
        for p in (1, 2):
            for lam in (0.1, 0.3, 0.6, 0.95, 0.99):
                roots = characteristic_roots(ar_from_lambda_star(p, lam))
                assert np.max(np.abs(roots)) == pytest.approx(lam, abs=1e-12)

    def test_unsupported_order(self):
        with pytest.raises(SpecError):
            ar_from_lambda_star(3, 0.5)

    def test_bad_modulus(self):
        with pytest.raises(SpecError):
            ar_from_lambda_star(1, 1.2)


class TestGenerate:
    def test_stationary_variance_ar1(self):
        spec = GeneratorSpec(
            kind="pure_ar", n_series=1, length=1_000_000, ar_order=1,
            lambda_star=0.5, sigma2=1.0, seed=42,
        )
        res = generate(spec)
        target = 1.0 / (1.0 - 0.25)
        assert np.var(res.x.values[0]) == pytest.approx(target, rel=0.02)

    def test_noiseless_limit_low_rank(self):
        # Vanishing noise: observations equal the harmonics mixture and the
        # stacked Page matrix is (numerically) rank 2R.
        from samossa.pagemat import stack

        spec = GeneratorSpec(
            kind="harmonics", n_series=6, length=800, n_fundamentals=3,
            ar_order=1, lambda_star=0.5, sigma2=1e-30, seed=7,
        )
        res = generate(spec)
        np.testing.assert_allclose(res.y.values, res.f.values, atol=1e-12)
        s = np.linalg.svd(stack(res.f, 25).data, compute_uv=False)
        assert s[6] < 1e-6 * s[0]

    def test_trend_rank_bound(self):
        # Slope terms add a shared linear direction: rank <= 2R + 2.
        from samossa.pagemat import stack

        res = generate(forecasting_spec(n_series=8, length=1200, seed=3))
        s = np.linalg.svd(stack(res.f, 30).data, compute_uv=False)
        assert s[8] < 1e-6 * s[0]

    def test_determinism(self):
        spec = estimation_spec(0.6, n_series=4, length=500, seed=123)
        a, b = generate(spec), generate(spec)
        np.testing.assert_array_equal(a.y.values, b.y.values)
        np.testing.assert_array_equal(a.f.values, b.f.values)

    def test_seed_changes_draws(self):
        a = generate(estimation_spec(0.6, n_series=4, length=500, seed=1))
        b = generate(estimation_spec(0.6, n_series=4, length=500, seed=2))
        assert not np.array_equal(a.y.values, b.y.values)

    def test_components_add_up(self):
        res = generate(estimation_spec(0.3, n_series=3, length=200, seed=9))
        np.testing.assert_array_equal(res.y.values, res.f.values + res.x.values)

    def test_alphas_reported_per_series(self):
        res = generate(estimation_spec(0.3, n_series=5, length=100, seed=0))
        assert len(res.alphas) == 5
        for a in res.alphas:
            np.testing.assert_allclose(a, ar_from_lambda_star(2, 0.3))

    def test_series_noise_independent(self):
        res = generate(estimation_spec(0.3, n_series=2, length=2000, seed=5))
        r = np.corrcoef(res.x.values)[0, 1]
        assert abs(r) < 0.1

    def test_spec_validation(self):
        with pytest.raises(SpecError):
            generate(GeneratorSpec(kind="nope", n_series=1, length=10))
        with pytest.raises(SpecError):
            generate(GeneratorSpec(kind="pure_ar", n_series=1, length=10, sigma2=-1.0))
        with pytest.raises(SpecError):
            generate(GeneratorSpec(kind="pure_ar", n_series=1, length=10, lambda_star=1.5))
        with pytest.raises(SpecError):
            generate(GeneratorSpec(
                kind="harmonics", n_series=1, length=10, freq_range=(0.5, 4.0),
            ))

    @pytest.mark.parametrize("field, value", [
        ("n_series", 2.5), ("n_series", 0), ("length", True), ("n_fundamentals", "3"),
        ("ar_order", 1.0), ("seed", -1), ("seed", 0.5), ("sigma2", float("nan")),
        ("sigma2", float("inf")), ("sigma2", 0.0), ("sigma2", "0.2"), ("sigma2", True),
        ("lambda_star", "0.5"), ("lambda_star", None), ("lambda_star", float("nan")),
    ])
    def test_fields_checked_on_construction(self, field, value):
        with pytest.raises(SpecError, match=field if field != "sigma2" else "noise variance"):
            GeneratorSpec(kind="harmonics", **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("freq_range", "ab"), ("freq_range", (0.1,)), ("freq_range", None),
        ("freq_range", (0.0, float("nan"))), ("freq_range", (0.0, True)),
        ("alpha", ("a",)), ("alpha", ()), ("alpha", (0.5, float("inf"))), ("alpha", 0.5),
        ("alpha", (True,)),
    ])
    def test_ranges_and_alpha_checked_on_construction(self, field, value):
        with pytest.raises(SpecError, match=field.replace("alpha", "explicit alpha")):
            GeneratorSpec(kind="harmonics", **{field: value})

    def test_numpy_integer_fields_convert(self):
        spec = GeneratorSpec(kind="pure_ar", n_series=np.int64(2), length=np.uint16(30),
                             ar_order=np.int8(1), seed=np.int64(4))
        assert all(type(v) is int for v in (spec.n_series, spec.length, spec.ar_order, spec.seed))
        assert generate(spec).y.values.shape == (2, 30)

    def test_explicit_nonstationary_alpha_rejected(self):
        with pytest.raises(SpecError):
            generate(GeneratorSpec(kind="pure_ar", n_series=1, length=50, alpha=(1.01,)))

    def test_forecasting_preset_shape(self):
        res = generate(forecasting_spec(seed=1))
        assert res.y.values.shape == (25, 10_050)
        np.testing.assert_allclose(res.alphas[0], [-0.5])


def assert_near_scalar_recursion(alpha, eta, block=_BLOCK):
    x = eta.copy()
    _simulate_ar(alpha, x, block)
    want = scalar_ar(alpha, eta)
    # A stable recursion's error is its local rounding, about eps times the
    # step's terms, summed through the impulse response h. Over 4500 random
    # draws of test_matches_scalar_recursion's domain the error came to at
    # most 1.7 of this scale.
    h1 = np.abs(scalar_ar(alpha, np.eye(1, eta.shape[1]))).sum()
    scale = EPS * h1 * (np.abs(eta).max() + np.abs(alpha).sum() * np.abs(want).max())
    assert np.abs(x - want).max() <= 8 * scale


class TestArSimulation:
    # Block lengths 3 and _BLOCK; the lengths cover below p, below, at and one past a
    # block, and non-multiples of it; p = 4 and 5 exceed the short block.
    @given(alpha=stable_alphas(), n_series=st.integers(1, 5), block=st.sampled_from([3, _BLOCK]),
           length=st.one_of(st.sampled_from([1, 2, 3, 4, 5, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                             3 * _BLOCK + 5]), st.integers(1, 400)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_matches_scalar_recursion(self, alpha, n_series, block, length, seed):
        assert_near_scalar_recursion(alpha, np.random.default_rng(seed).normal(
            size=(n_series, length)), block)

    @pytest.mark.parametrize("roots", [
        [0.999] * 5, [0.99] * 5, [-0.999] * 4,
        [0.999 * cmath.exp(0.01j), 0.999 * cmath.exp(-0.01j), 0.998, 0.997, -0.999],
    ], ids=["0.999^5", "0.99^5", "-0.999^4", "mixed"])
    def test_crowded_roots_near_the_unit_circle(self, roots):
        # A whole 64-step block would scale these lags' rounding by up to 1e7
        # (errors of 24 to 1400 times the scale); shorter blocks keep it in.
        alpha = -np.poly(roots).real[1:]
        assert_near_scalar_recursion(alpha, np.random.default_rng(0).normal(size=(2, 1000)))

    @pytest.mark.parametrize("spec", [
        forecasting_spec(n_series=3, length=300, seed=4),
        estimation_spec(0.95, n_series=2, length=500, seed=1),
        GeneratorSpec(kind="pure_ar", n_series=2, length=200, alpha=(0.5, -0.3, 0.2), seed=3),
    ], ids=["forecasting", "estimation", "pure_ar_3"])
    def test_noise_gives_back_each_series_draws(self, spec):
        # Series n's innovations are normal(0, sigma, burn + T) from child 1 + n,
        # after a burn-in of 10 ceil(1 / (1 - lambda)) steps.
        res = generate(spec)
        alpha, x = res.alphas[0], res.x.values
        p, T = len(alpha), spec.length
        burn = 10 * math.ceil(1.0 / (1.0 - np.abs(characteristic_roots(alpha)[0])))
        children = np.random.SeedSequence(spec.seed).spawn(1 + spec.n_series)
        for n in range(spec.n_series):
            eta = np.random.default_rng(children[1 + n]).normal(
                0.0, math.sqrt(spec.sigma2), size=burn + T)[burn:]
            residual = x[n, p:] - sum(alpha[i - 1] * x[n, p - i:T - i] for i in range(1, p + 1))
            # Rounding only: these specs measure at most 1.2 of this scale.
            tol = 8 * EPS * (1 + np.abs(alpha).sum()) * np.abs(x[n]).max()
            assert np.abs(residual - eta[p:]).max() <= tol

    def test_series_noise_does_not_depend_on_the_panel_size(self):
        # Every operation is elementwise, so a series' noise is the same bits
        # whatever other series are drawn beside it.
        few = generate(estimation_spec(0.9, n_series=2, length=300, seed=8)).x.values
        many = generate(estimation_spec(0.9, n_series=7, length=300, seed=8)).x.values
        assert few.tobytes() == many[:2].tobytes()

    def test_burn_in_is_bounded(self):
        # 10^6 steps: a root of modulus 0.99998 draws (5 * 10^5 steps), 0.99999 is refused.
        spec = GeneratorSpec(kind="pure_ar", n_series=1, length=5, alpha=(0.99998,))
        assert generate(spec).x.values.shape == (1, 5)
        with pytest.raises(SpecError, match=r"root modulus 0\.99999 needs a burn-in of "
                                            r"1000010 steps, more than 1000000"):
            generate(GeneratorSpec(kind="pure_ar", n_series=1, length=5, alpha=(0.99999,)))
