import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from samossa import RankError, RankRule, lowrank
from samossa.lowrank import PageSvds, hsvt, select_rank, svd
from samossa.pagemat import stack
from samossa.ssa_estimator import Stage1
from samossa.synth import forecasting_spec, generate

RULES = (RankRule.fixed(5), RankRule.energy(0.9), RankRule.universal())

# The spectrum of a 3 x 400 forecasting panel (seed 3) at L = 34: energy:0.9
# picks 13 of its 34 values. Scaled by 2^-560 its squares underflowed, and
# by 2^600 they overflowed, when the energy was summed unscaled.
PANEL_SPECTRUM = svd(stack(generate(forecasting_spec(n_series=3, length=400, seed=3)).y,
                           34).data).singular_values


class TestHsvt:
    def test_rank_one_reproduced(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        np.testing.assert_allclose(hsvt(A, 1), A, atol=1e-12)

    def test_full_rank_identity(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(5, 7))
        np.testing.assert_allclose(hsvt(A, 5), A, atol=1e-10)

    def test_axis_aligned_truncation(self):
        A = np.diag([3.0, 1.0])
        np.testing.assert_allclose(hsvt(A, 1), np.diag([3.0, 0.0]), atol=1e-12)

    def test_k_out_of_range(self):
        A = np.ones((2, 3))
        with pytest.raises(RankError):
            hsvt(A, 0)
        with pytest.raises(RankError):
            hsvt(A, 3)

    def test_eckart_young_tail_energy(self):
        # Frobenius error of the rank-k truncation equals the tail energy.
        rng = np.random.default_rng(7)
        for trial in range(5):
            A = rng.normal(size=(12, 9))
            s = np.linalg.svd(A, compute_uv=False)
            for k in (1, 3, 8):
                err = np.linalg.norm(A - hsvt(A, k), "fro")
                tail = np.sqrt(np.sum(s[k:] ** 2))
                assert err == pytest.approx(tail, rel=1e-8)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(8, 6))
        once = hsvt(A, 3)
        np.testing.assert_allclose(hsvt(once, 3), once, atol=1e-10)


class TestSvdResult:
    def test_reconstruction_and_ordering(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(6, 10))
        result = svd(A)
        s = result.singular_values
        assert np.all(np.diff(s) <= 1e-12 * s[0])
        full = result.truncate(len(s))
        assert np.linalg.norm(full - A, "fro") < 1e-10 * s[0]

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(7, 4))
        result = svd(A)
        np.testing.assert_allclose(result.left_vectors.T @ result.left_vectors, np.eye(4), atol=1e-12)
        right = result.right_vectors()
        np.testing.assert_allclose(right.T @ right, np.eye(4), atol=1e-12)


class TestSelectRank:
    def test_energy_cumulative(self):
        # 100 / 101.01 = 0.99 >= 0.9 already at k=1
        assert select_rank([10.0, 1.0, 0.1], RankRule.energy(0.9), (3, 3)) == 1

    def test_energy_full(self):
        assert select_rank([5.0, 5.0], RankRule.energy(1.0), (2, 2)) == 2

    def test_single_positive(self):
        for rule in (RankRule.fixed(3), RankRule.energy(0.5), RankRule.universal()):
            assert select_rank([5.0, 0.0, 0.0], rule, (3, 3)) == 1

    def test_fixed_clamped(self):
        assert select_rank([4.0, 3.0, 0.0], RankRule.fixed(5), (3, 3)) == 2

    def test_all_zero_spectrum(self):
        with pytest.raises(RankError):
            select_rank([0.0, 0.0], RankRule.fixed(1), (2, 2))

    @pytest.mark.parametrize("s", [[np.inf, 1.0], [5.0, np.nan], [np.nan]])
    def test_non_finite_spectrum(self, s):
        for rule in (RankRule.fixed(1), RankRule.energy(0.9), RankRule.universal()):
            with pytest.raises(RankError, match="non-finite"):
                select_rank(s, rule, (2, 2))

    def test_energy_overflow(self):
        # s^2 overflows, which once ended in a RankError (and before that in
        # a k picked off inf - inf): the energy of s / 2^e picks s's own k.
        s = [3e201, 2e201, 1e200]
        assert select_rank(s, RankRule.energy(0.9), (3, 3)) == 2
        assert select_rank([3.0, 2.0, 0.1], RankRule.energy(0.9), (3, 3)) == 2
        assert select_rank(s, RankRule.fixed(2), (3, 3)) == 2

    @given(s=st.lists(st.one_of(st.just(0.0), st.floats(1e-30, 1e30)), min_size=1,
                      max_size=40).map(lambda v: np.sort(v)[::-1]).filter(lambda s: s[0] > 0),
           k=st.integers(-1000, 1000), rule=st.sampled_from(RULES), extra=st.integers(0, 60))
    @example(s=PANEL_SPECTRUM, k=-560, rule=RankRule.energy(0.9), extra=1)
    @example(s=PANEL_SPECTRUM, k=600, rule=RankRule.energy(0.9), extra=1)
    @settings(max_examples=300)
    def test_same_rank_at_every_power_of_two(self, s, k, rule, extra):
        # Where the scaled spectrum stays normal, scaling is exact and k must not move.
        with np.errstate(over="ignore"):
            scaled = np.ldexp(s, k)
        normal = (scaled == 0.0) | ((np.abs(scaled) >= np.finfo(np.float64).tiny)
                                    & np.isfinite(scaled))
        assume(np.all(normal))
        shape = (s.size, s.size + extra)
        assert select_rank(scaled, rule, shape) == select_rank(s, rule, shape)

    @pytest.mark.parametrize("s", [[1.0, 5.0, 2.0], [1e-100, 5e-100, 2e-100]])
    def test_rising_spectrum_refused_at_any_scale(self, s):
        with pytest.raises(RankError, match="non-increasing"):
            select_rank(s, RankRule.energy(0.9), (3, 3))

    @given(s=st.one_of(st.lists(st.floats(1e-30, 1e30), min_size=2, max_size=8),
                       st.lists(st.floats(1e-30, 1e30), min_size=2, max_size=8).map(
                           lambda v: sorted(v, reverse=True))),
           k=st.integers(-1000, 1000))
    @example(s=[1.0, 1.0 + 2e-12], k=-400)  # a rise of twice the tie tolerance
    @example(s=[1.0, 1.0 + 5e-13], k=-400)  # a rise within it
    @settings(max_examples=200)
    def test_order_check_does_not_depend_on_scale(self, s, k):
        def verdict(values):
            try:
                return select_rank(values, RankRule.fixed(1), (len(values), len(values)))
            except RankError as exc:
                return str(exc)

        with np.errstate(over="ignore"):
            scaled = np.ldexp(s, k)
        assume(np.all(scaled >= np.finfo(np.float64).tiny) and np.all(np.isfinite(scaled)))
        assert verdict(scaled) == verdict(np.array(s))

    def test_tied_group_never_split(self):
        # Threshold would land inside the tied pair; both stay.
        s = [10.0, 6.0, 6.0, 0.01]
        k = select_rank(s, RankRule.energy(0.75), (4, 4))
        assert k == 3

    def test_universal_recovers_planted_rank(self):
        rng = np.random.default_rng(3)
        m, n, true_k = 300, 200, 5
        low = rng.normal(size=(m, true_k)) @ rng.normal(size=(true_k, n)) * 3.0
        noisy = low + rng.normal(size=(m, n)) * 0.5
        s = np.linalg.svd(noisy, compute_uv=False)
        assert select_rank(s, RankRule.universal(), (m, n)) == true_k

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_energy_monotone_in_fraction(self, data):
        s = sorted(
            data.draw(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=8)),
            reverse=True,
        )
        f1 = data.draw(st.floats(0.05, 1.0))
        f2 = data.draw(st.floats(0.05, 1.0))
        lo, hi = sorted((f1, f2))
        k_lo = select_rank(s, RankRule.energy(lo), (8, 8))
        k_hi = select_rank(s, RankRule.energy(hi), (8, 8))
        assert k_lo <= k_hi

    def test_rule_validation(self):
        with pytest.raises(RankError):
            RankRule.fixed(0)
        with pytest.raises(RankError):
            RankRule.energy(0.0)
        with pytest.raises(RankError):
            RankRule.parse("banana")

    def test_parse_roundtrip(self):
        for text in ("fixed:5", "energy:0.9", "universal"):
            assert str(RankRule.parse(text)) == text


NAN_MATRIX = np.full((3, 3), np.nan)
BIG_NAN_MATRIX = np.full((lowrank._TOPK_MIN_DIM, lowrank._TOPK_MIN_DIM), np.nan)

# Bad input at the module's public entries, and the fragment of its RankError.
BAD_INPUTS = {
    "svd_nan": (lambda: svd(NAN_MATRIX), "non-finite matrix"),
    "hsvt_nan": (lambda: hsvt(NAN_MATRIX, 1), "non-finite matrix"),
    "svd_inf": (lambda: svd(np.array([[1.0, np.inf], [0.0, 1.0]])), "non-finite matrix"),
    "topk_svd_nan": (lambda: svd(BIG_NAN_MATRIX, k=2), "non-finite matrix"),
    "svd_1d": (lambda: svd(np.ones(3)), "expects a 2-D matrix"),
    "svd_empty": (lambda: svd(np.zeros((0, 3))), "expects a 2-D matrix"),
    "svd_string": (lambda: svd("abc"), "not an array of numbers"),
    "hsvt_string": (lambda: hsvt("abc", 1), "not an array of numbers"),
    "svd_fractional_k": (lambda: svd(np.eye(3), k=1.5), "k must be an integer"),
    "hsvt_fractional_k": (lambda: hsvt(np.eye(3), 1.5), "k must be an integer"),
    "svd_boolean_k": (lambda: svd(np.eye(3), k=True), "k must be an integer"),
    "hsvt_boolean_k": (lambda: hsvt(np.eye(3), True), "k must be an integer"),
    "select_rank_strings": (lambda: select_rank(["a"], RankRule.fixed(1), (1, 1)),
                            "singular values are not an array of numbers"),
    "select_rank_string_shape": (lambda: select_rank([1.0], RankRule.universal(), "ab"),
                                 "invalid shape 'ab'"),
    "select_rank_scalar_shape": (lambda: select_rank([1.0], RankRule.universal(), 3),
                                 "invalid shape 3"),
}


@pytest.mark.parametrize("call, fragment", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_is_a_rank_error(call, fragment):
    with pytest.raises(RankError) as info:
        call()
    assert fragment in str(info.value)


class TestGramCertificate:
    """The Gram spectrum serves a rule only where it picks the dense SVD's k_hat."""

    @given(rows=st.integers(2, 40), cols=st.integers(1, 80), rank=st.integers(1, 40),
           noise=st.sampled_from([0.0, 1e-12, 1e-8, 1e-5, 1e-2, 1.0]),
           ties=st.integers(0, 3), exponent=st.sampled_from([-600, -200, 0, 200, 600]),
           k=st.integers(1, 40), fraction=st.sampled_from([0.5, 0.8, 0.9, 0.99, 0.999, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    # The shape of a 25 x 10 000 panel's order-selection Page matrix (cli_online's).
    @example(rows=499, cols=475, rank=10, noise=1e-2, ties=0, exponent=0, k=10, fraction=0.9,
             seed=3)
    @example(rows=499, cols=475, rank=20, noise=1e-8, ties=1, exponent=200, k=12, fraction=0.99,
             seed=4)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_gram_answers_only_with_the_dense_rank(self, rows, cols, rank, noise, ties,
                                                    exponent, k, fraction, seed):
        # `rank` values planted in [1, 10], `ties` of them copied exactly onto
        # others, the rest noise (exact zeros at noise 0: a noiseless
        # spectrum), all times 2^exponent, on random singular vectors. The
        # matrix is wide or tall, down to a single column.
        rng = np.random.default_rng(seed)
        r = min(rows, cols)
        rank = min(rank, r)
        planted = rng.uniform(1.0, 10.0, size=rank)
        planted[rng.integers(0, rank, size=ties)] = planted[rng.integers(0, rank, size=ties)]
        s = np.sort(np.append(planted, noise * rng.uniform(size=r - rank)))[::-1]
        u = np.linalg.qr(rng.normal(size=(rows, r)))[0]
        v = np.linalg.qr(rng.normal(size=(cols, r)))[0]
        a = np.ldexp((u * s) @ v.T, exponent)
        svds, dense = PageSvds(a), svd(a)
        for rule in (RankRule.fixed(k), RankRule.energy(fraction), RankRule.universal()):
            served, k_hat = svds.for_rule(rule), select_rank(dense.singular_values, rule, a.shape)
            assert select_rank(served.singular_values, rule, a.shape) == k_hat
            if served.matrix is not None:  # the Gram spectrum answered
                want = dense.truncate(k_hat)
                assert np.abs(served.truncate(k_hat) - want).max() <= 1e-9 * np.abs(want).max()

    def test_energy_threshold_within_the_error_declines(self):
        # Squared values 3, 2, 1: the first holds exactly half the energy, so
        # energy:0.5 reads a cumulative sum that meets its target to rounding.
        s = np.sqrt([3.0, 2.0, 1.0])
        assert select_rank(s, RankRule.energy(0.5), (3, 4)) == 1
        assert not lowrank._gram_answers(s, RankRule.energy(0.5), (3, 4))
        assert lowrank._gram_answers(s, RankRule.energy(0.4), (3, 4))

    def test_universal_threshold_within_the_error_declines(self):
        # Five values whose second equals the threshold omega * median(s).
        omega = lowrank._omega(5 / 6)
        for second, answers in ((omega, False), (1.5 * omega, True)):
            s = np.array([10.0, second, 1.0, 0.5, 0.2])
            assert select_rank(s, RankRule.universal(), (5, 6)) == 1 + (second > omega)
            assert lowrank._gram_answers(s, RankRule.universal(), (5, 6)) is answers

    def test_gram_serves_a_noisy_panel(self):
        # A 20 x 60 Page matrix of a forecasting panel: every rule reads the Gram spectrum.
        svds = PageSvds(stack(generate(forecasting_spec(n_series=3, length=400, seed=3)).y,
                              20).data)
        for rule in RULES:
            assert svds.for_rule(rule).matrix is not None

    def test_noiseless_panel_declines(self):
        # Two noiseless series of 4 000 harmonics plus trends at L = 63: a 63 x 126
        # Page matrix with 14 values above the zero floor. Its Gram values
        # below about 1e-7 s_1 are rounding noise: 34 of them count as positive,
        # and universal's threshold lies among them (k_hat 21 where this was
        # written). The certificate declines, so the dense SVD serves.
        f = generate(forecasting_spec(n_series=2, length=4000, seed=1)).f
        page = stack(f, 63).data
        rule = RankRule.universal()
        gram = lowrank._gram_svd(page).singular_values
        assert page.shape == (63, 126)
        assert select_rank(svd(page).singular_values, rule, page.shape) == 14
        assert select_rank(gram, rule, page.shape) > 14
        assert not lowrank._gram_answers(gram, rule, page.shape)
        stage = Stage1(f, 63)
        assert stage.spectrum(rule).matrix is None
        assert stage.rank(rule) == 14
