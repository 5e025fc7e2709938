"""The top-k SVD path (the block Krylov head) against the dense LAPACK oracle.

``lowrank.svd(matrix, k)`` takes the head's k triplets only from
``lowrank._TOPK_MIN_DIM`` up, and only where its residual certificate
holds; most tests lower that constant so that their matrices stay small,
and ``TestAboveRealCrossover`` runs matrices and panels above the real value.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samossa import RankError, RankRule, default_L, evaluation, lowrank
from samossa.lowrank import svd, takes_topk
from samossa.ssa_estimator import Stage1, decompose, est_err
from samossa.synth import estimation_spec, forecasting_spec, generate

LOW_MIN_DIM = 30


def low_rank_plus_noise(rng, rows, cols, rank, noise, scale=1.0):
    """Planted singular values 1..10 (times ``scale``) plus Gaussian noise of sd ``noise * scale``."""
    u, _ = np.linalg.qr(rng.normal(size=(rows, rank)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, rank)))
    s = np.sort(rng.uniform(1.0, 10.0, size=rank))[::-1]
    return scale * ((u * s) @ v.T + noise * rng.normal(size=(rows, cols)))


def assert_same_head(head, dense, k):
    s0 = dense.singular_values[0]
    np.testing.assert_allclose(head.singular_values, dense.singular_values[:k], rtol=1e-10, atol=0)
    gap = np.abs(head.truncate(k) - dense.truncate(k)).max()
    assert gap <= 1e-9 * s0, gap


def assert_same_bits(first, second):
    for name in ("singular_values", "left_vectors", "right"):
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name))


class TestSvdHead:
    @given(rows=st.integers(LOW_MIN_DIM, 70), cols=st.integers(LOW_MIN_DIM, 70),
           rank=st.integers(1, 3), noise=st.sampled_from([0.0, 1e-6, 1e-3, 1e-2]),
           exponent=st.sampled_from([-200, 0, 200]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_dense_oracle(self, rows, cols, rank, noise, exponent, seed):
        rng = np.random.default_rng(seed)
        a = low_rank_plus_noise(rng, rows, cols, rank, noise, scale=10.0**exponent)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lowrank, "_TOPK_MIN_DIM", LOW_MIN_DIM)
            assert takes_topk(a.shape, rank)
            head = svd(a, k=rank)
        assert head.singular_values.shape == (rank,)
        assert np.all(np.diff(head.singular_values) <= 0)
        assert_same_head(head, svd(a), rank)

    def test_uses_head_above_crossover_only(self, monkeypatch):
        calls = []
        original = lowrank._krylov

        def counted(a, k):
            calls.append(k)
            return original(a, k)

        monkeypatch.setattr(lowrank, "_krylov", counted)
        a = low_rank_plus_noise(np.random.default_rng(0), 40, 50, 2, 1e-3)
        svd(a, k=2)
        assert calls == []  # below the crossover: the dense call, sliced
        monkeypatch.setattr(lowrank, "_TOPK_MIN_DIM", LOW_MIN_DIM)
        svd(a, k=2)
        assert calls == [2]

    def test_repeat_calls_bit_identical(self, monkeypatch):
        monkeypatch.setattr(lowrank, "_TOPK_MIN_DIM", LOW_MIN_DIM)
        a = low_rank_plus_noise(np.random.default_rng(1), 60, 45, 3, 1e-2)
        assert_same_bits(svd(a, k=3), svd(a, k=3))

    def test_rank_deficient_takes_dense_path(self, monkeypatch):
        # Rank 2 and k = 4: the 3rd and 4th values sit at the zero floor,
        # so the head must be the dense oracle's, bit for bit.
        monkeypatch.setattr(lowrank, "_TOPK_MIN_DIM", LOW_MIN_DIM)
        a = low_rank_plus_noise(np.random.default_rng(2), 50, 60, 2, 0.0)
        assert takes_topk(a.shape, 4)
        head, dense = svd(a, k=4), svd(a)
        np.testing.assert_array_equal(head.singular_values, dense.singular_values[:4])
        np.testing.assert_array_equal(head.left_vectors, dense.left_vectors[:, :4])
        np.testing.assert_array_equal(head.right_vectors(), dense.right_vectors(4))

    def test_zero_matrix_takes_dense_path(self):
        a = np.zeros((lowrank._TOPK_MIN_DIM, lowrank._TOPK_MIN_DIM))
        assert takes_topk(a.shape, 2) and lowrank._krylov(a, 2) is None
        head = svd(a, k=2)
        np.testing.assert_array_equal(head.singular_values, [0.0, 0.0])

    @pytest.mark.parametrize("k", [5, 30, 40, 41])
    def test_k_not_small_takes_dense_path(self, monkeypatch, k):
        # Past a tenth of the smaller side the dense call is cheaper.
        monkeypatch.setattr(lowrank, "_TOPK_MIN_DIM", LOW_MIN_DIM)
        a = np.random.default_rng(3).normal(size=(40, 55))
        assert not takes_topk(a.shape, k)
        head, dense = svd(a, k=k), svd(a)
        np.testing.assert_array_equal(head.singular_values, dense.singular_values[:k])
        np.testing.assert_array_equal(head.truncate(min(k, 40)), dense.truncate(min(k, 40)))

    def test_k_must_be_positive(self):
        with pytest.raises(RankError):
            svd(np.eye(3), k=0)


class TestStage1Head:
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_fixed_rank_matches_dense_path(self, seed, k):
        # 3 x 1300 at L = 60: a 60 x 63 Page matrix.
        panel = generate(forecasting_spec(n_series=3, length=1300, seed=seed % 2**31)).y
        rule = RankRule.fixed(k)
        dense_stage = Stage1(panel, 60)
        dense, dense_beta = dense_stage.decompose(rule), dense_stage.beta(k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lowrank, "_TOPK_MIN_DIM", LOW_MIN_DIM)
            stage = Stage1(panel, 60)
            assert takes_topk(stage.page.data.shape, k)
            head, head_beta = stage.decompose(rule), stage.beta(k)
        assert head.k_hat == dense.k_hat == k
        assert head.singular_values.shape == (k,)
        np.testing.assert_allclose(head.singular_values, dense.singular_values[:k], rtol=1e-10)
        assert np.abs(head.f_hat - dense.f_hat).max() <= 1e-9
        np.testing.assert_array_equal(head.x_hat, panel.values[:, head.origin:] - head.f_hat)
        np.testing.assert_allclose(head_beta.beta, dense_beta.beta, rtol=1e-7, atol=1e-9)
        assert head.balance == pytest.approx(dense.balance, rel=1e-10)

    def test_result_independent_of_call_order(self, monkeypatch):
        monkeypatch.setattr(lowrank, "_TOPK_MIN_DIM", LOW_MIN_DIM)
        panel = generate(forecasting_spec(n_series=3, length=1300, seed=4)).y
        fixed, energy = RankRule.fixed(3), RankRule.energy(0.9)
        alone = Stage1(panel, 60).decompose(fixed)
        shared = Stage1(panel, 60)
        by_energy = shared.decompose(energy)
        after = shared.decompose(fixed)
        assert by_energy.singular_values.size == 60  # every value: the full SVD
        np.testing.assert_array_equal(after.f_hat, alone.f_hat)
        np.testing.assert_array_equal(after.singular_values, alone.singular_values)
        np.testing.assert_array_equal(shared.decompose(energy).f_hat, by_energy.f_hat)

    def test_every_head_taken_once(self, monkeypatch):
        # The memo keeps each (rows, k) head, so returning to a k costs no SVD.
        monkeypatch.setattr(lowrank, "_TOPK_MIN_DIM", LOW_MIN_DIM)
        calls = []
        monkeypatch.setattr(lowrank, "_krylov", lambda a, k: calls.append(k) or None)
        stage = Stage1(generate(forecasting_spec(n_series=3, length=1300, seed=4)).y, 60)
        for k in (3, 5, 3, 5, 4):
            assert stage.decompose(RankRule.fixed(k)).k_hat == k
        assert calls == [3, 5, 4]


class TestAboveRealCrossover:
    @given(rows=st.integers(0, 100), cols=st.integers(0, 100), rank=st.integers(1, 4),
           noise=st.sampled_from([0.0, 1e-6, 1e-3]), exponent=st.sampled_from([-200, 0, 200]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_head_matches_dense_oracle(self, rows, cols, rank, noise, exponent, seed):
        # Planted rank plus noise at the real crossover: the head answers,
        # and within the oracle's bounds.
        rows, cols = lowrank._TOPK_MIN_DIM + rows, lowrank._TOPK_MIN_DIM + cols
        a = low_rank_plus_noise(np.random.default_rng(seed), rows, cols, rank, noise,
                                scale=10.0**exponent)
        assert takes_topk(a.shape, rank)
        head = lowrank._krylov(a, rank)
        assert head is not None
        assert_same_bits(svd(a, k=rank), head)
        assert_same_head(head, svd(a), rank)

    def test_near_tie_declines_to_the_dense_bits(self):
        # Planted values 10, 5 (1 + 1e-13) and 5: the 2nd and 3rd are a tie
        # that only rounding resolves, so k = 2 takes the dense bits.
        rng = np.random.default_rng(5)
        u, _ = np.linalg.qr(rng.normal(size=(600, 3)))
        v, _ = np.linalg.qr(rng.normal(size=(620, 3)))
        a = (u * [10.0, 5.0 * (1 + 1e-13), 5.0]) @ v.T
        assert lowrank._krylov(a, 2) is None
        head, dense = svd(a, k=2), svd(a)
        np.testing.assert_array_equal(head.singular_values, dense.singular_values[:2])
        np.testing.assert_array_equal(head.left_vectors, dense.left_vectors[:, :2])
        np.testing.assert_array_equal(head.right_vectors(), dense.right_vectors(2))
        assert lowrank._krylov(a, 3) is not None  # the whole tie is clear of the rest

    def test_head_bits_scale_exactly(self):
        a = low_rank_plus_noise(np.random.default_rng(6), 600, 640, 3, 1e-3)
        head = svd(a, k=3)
        assert lowrank._krylov(a, 3) is not None
        for exponent in (-900, 900):
            scaled = svd(np.ldexp(a, exponent), k=3)
            np.testing.assert_array_equal(scaled.singular_values,
                                          np.ldexp(head.singular_values, exponent))
            np.testing.assert_array_equal(scaled.left_vectors, head.left_vectors)
            np.testing.assert_array_equal(scaled.right, head.right)

    def test_heads_on_the_job_runner_match_serial_calls(self, monkeypatch):
        rng = np.random.default_rng(7)
        mats = [low_rank_plus_noise(rng, 600, 610, 2, 1e-3), low_rank_plus_noise(rng, 620, 600, 4, 0.0)]
        serial = [svd(a, k=k) for a, k in zip(mats, (2, 4))]
        monkeypatch.setattr(evaluation, "_workers", lambda: 2)
        pooled = evaluation._run_jobs([lambda stop, a=a, k=k: svd(a, k=k)
                                       for a, k in zip(mats, (2, 4))])
        for first, second in zip(serial, pooled):
            assert_same_bits(first, second)

    def test_noiseless_recovery(self):
        # 10 x 36 100 at the default L = 600: a 600 x 600 Page matrix, the
        # smallest square one that takes the head's path for fixed:6.
        spec = estimation_spec(0.3, n_series=10, length=36_100, seed=0)
        truth = generate(spec).f
        L = default_L(10, 36_100)
        stage = Stage1(truth, L)
        assert takes_topk(stage.page.data.shape, 6)
        decomp = decompose(truth, L, RankRule.fixed(6))
        assert decomp.singular_values.shape == (6,)
        assert max(est_err(decomp, truth, n) for n in range(10)) < 1e-10

    def test_noisy_panel_matches_dense(self, monkeypatch):
        panel = generate(estimation_spec(0.3, n_series=10, length=36_100, seed=1)).y
        head = decompose(panel, 600, RankRule.fixed(6))
        monkeypatch.setattr(lowrank, "_TOPK_MIN_DIM", 10**9)
        dense = decompose(panel, 600, RankRule.fixed(6))
        assert dense.singular_values.shape == (600,)
        np.testing.assert_allclose(head.singular_values, dense.singular_values[:6], rtol=1e-10)
        assert np.abs(head.f_hat - dense.f_hat).max() <= 1e-9
