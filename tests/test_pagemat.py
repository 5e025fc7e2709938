import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samossa import PageShape, ShapeError, TimePanel
from samossa.pagemat import default_L, stack, unstack


def _one_series(series) -> TimePanel:
    return TimePanel(("a",), np.asarray(series, dtype=float)[None, :])


class TestPageMatrix:
    # A one-series stack is that series' Page matrix.
    def test_even_division(self):
        pm = stack(_one_series([1, 2, 3, 4, 5, 6]), 2)
        assert pm.data.tolist() == [[1, 3, 5], [2, 4, 6]]
        assert pm.origin == 0

    def test_trailing_window_when_not_divisible(self):
        pm = stack(_one_series([9, 1, 2, 3, 4]), 2)
        assert pm.data.tolist() == [[1, 3], [2, 4]]
        assert pm.origin == 1

    def test_single_entry(self):
        pm = stack(_one_series([7]), 1)
        assert pm.data.tolist() == [[7]]

    def test_L_too_large(self):
        with pytest.raises(ShapeError):
            stack(_one_series([1, 2, 3]), 4)


class TestStack:
    def test_two_series(self):
        panel = TimePanel(("a", "b"), np.array([[1, 2, 3, 4], [5, 6, 7, 8]], dtype=float))
        pg = stack(panel, 2)
        assert pg.data.tolist() == [[1, 3, 5, 7], [2, 4, 6, 8]]

    def test_single_series_matches_page_matrix(self):
        # The Page matrix by definition: column j is the j-th length-L segment.
        series = np.arange(1, 9, dtype=float)
        page = np.column_stack([series[j * 4:(j + 1) * 4] for j in range(2)])
        np.testing.assert_array_equal(stack(_one_series(series), 4).data, page)

    def test_shared_origin(self):
        panel = TimePanel(("a", "b"), np.arange(10, dtype=float).reshape(2, 5))
        pg = stack(panel, 2)
        assert pg.origin == 1
        assert pg.data.tolist() == [[1, 3, 6, 8], [2, 4, 7, 9]]


    @given(
        N=st.integers(1, 4),
        T=st.integers(1, 40),
        L_pick=st.integers(0, 10**6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_unstack_inverts_stack(self, N, T, L_pick, seed):
        values = np.random.default_rng(seed).normal(size=(N, T))
        panel = TimePanel(tuple(f"s{n}" for n in range(N)), values)
        L = 1 + L_pick % T
        pg = stack(panel, L)
        assert pg.origin == T % L
        np.testing.assert_array_equal(unstack(pg.data, N), panel.values[:, pg.origin:])


class TestIndexMaps:
    # StackedPage's layout: cell (i, (n-1)*M + j), 1-based, holds series n's
    # value at time origin + (j-1)*L + i.
    def test_formula_cases(self):
        pg = stack(_one_series(np.arange(1, 7, dtype=float)), 2)  # value == t
        assert pg.shape == PageShape(L=2, M=3, N=1)
        assert pg.data[1 - 1, 2 - 1] == 3
        assert pg.data[1 - 1, 1 - 1] == 1

    def test_enumerated_layout(self):
        # Independent oracle: place distinct tokens, build the matrix, and
        # find each token's cell by search.
        panel = TimePanel(("a", "b"), np.arange(12, dtype=float).reshape(2, 6))
        pg = stack(panel, 2)
        assert pg.shape == PageShape(L=2, M=3, N=2)
        L, M = pg.shape.L, pg.shape.M
        for n in (1, 2):
            for t in range(1, 7):
                token = panel.values[n - 1, t - 1]
                hits = np.argwhere(pg.data == token)
                assert len(hits) == 1
                row, col = hits[0] + 1
                local = t - pg.origin
                assert (row, col) == ((local - 1) % L + 1, (n - 1) * M + (local - 1) // L + 1)
        assert pg.data[2 - 1, 6 - 1] == panel.values[2 - 1, 6 - 1]

    def test_out_of_window(self):
        # Only the trailing L*M values are retained; unstack gives back
        # exactly those, so the dropped prefix is in no cell.
        panel = _one_series([9, 1, 2, 3, 4])
        pg = stack(panel, 2)
        assert 9 not in pg.data
        np.testing.assert_array_equal(unstack(pg.data, 1), [[1, 2, 3, 4]])

    @given(
        L=st.integers(1, 6),
        M=st.integers(1, 6),
        N=st.integers(1, 4),
        origin=st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_bijection(self, L, M, N, origin):
        # unstack inverts stack on the retained window, value for value.
        if origin >= L:
            origin %= L
        values = np.arange(N * (origin + L * M), dtype=float).reshape(N, -1)
        panel = TimePanel(tuple(f"s{n}" for n in range(N)), values)
        pg = stack(panel, L)
        assert pg.shape == PageShape(L=L, M=M, N=N)
        assert pg.origin == origin
        np.testing.assert_array_equal(unstack(pg.data, N), values[:, origin:])


class TestDefaultL:
    def test_square(self):
        assert default_L(10, 1000) == 100

    def test_tiny(self):
        assert default_L(1, 4) == 2

    def test_shape_ratio(self):
        # Columns exceed rows by roughly the requested ratio.
        L = default_L(10, 1000, ratio=5)
        assert L == 44
        M = 1000 // L
        assert 4.0 <= (10 * M) / L <= 6.2

    def test_clamped_to_T(self):
        assert default_L(100, 3) == 3


class TestRankBound:
    def test_harmonic_panel_rank_bounded(self):
        # A mixture panel built from R fundamentals, each with Page rank
        # at most 2, keeps stacked rank <= 2R for every L <= sqrt(T).
        rng = np.random.default_rng(0)
        T, N, R = 400, 6, 3
        t = np.arange(1, T + 1)
        fundamentals = np.array([np.sin(0.07 * k * t + rng.uniform(0, 6)) for k in range(1, R + 1)])
        panel = TimePanel(
            tuple(f"s{i}" for i in range(N)), rng.normal(size=(N, R)) @ fundamentals
        )
        for L in (2, 5, 11, 20):
            pg = stack(panel, L)
            s = np.linalg.svd(pg.data, compute_uv=False)
            if s.shape[0] > 2 * R:
                assert s[2 * R] < 1e-8 * s[0]


class TestOperatorNormScaling:
    def test_ratio_bounded_small_sweep(self):
        # Smaller version of the full acceptance sweep: the spectral norm of
        # a pure-AR stacked Page matrix stays within 3 * sigma_x * sqrt(NT/L).
        from samossa.ar import ArModel, diagnostics
        from samossa.synth import GeneratorSpec, generate

        worst = 0.0
        for lam in (0.3, 0.95):
            alpha = np.array([lam])
            sigma = 1.0
            diag = diagnostics(ArModel(alpha=alpha, p=1, noise_var_hat=sigma**2))
            for seed in range(5):
                spec = GeneratorSpec(
                    kind="pure_ar", n_series=10, length=1000, ar_order=1,
                    lambda_star=lam, sigma2=sigma**2, seed=seed,
                )
                res = generate(spec)
                L = default_L(10, 1000)
                pg = stack(res.y, L)
                op = np.linalg.svd(pg.data, compute_uv=False)[0]
                q = pg.shape.cols
                worst = max(worst, op / (diag.sigma_x * np.sqrt(q)))
        assert worst <= 3.0
