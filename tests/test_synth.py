import numpy as np
import pytest

from samossa import SpecError
from samossa.ar import characteristic_roots
from samossa.synth import (
    GeneratorSpec,
    ar_from_lambda_star,
    estimation_spec,
    forecasting_spec,
    generate,
)


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
