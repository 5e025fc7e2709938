import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import samossa
from samossa import RankRule, ShapeError, TimePanel, default_L
from samossa.ssa_estimator import decompose, est_err
from samossa.synth import estimation_spec, generate


def harmonic_panel(n_series=4, length=512, n_fund=2, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(1, length + 1)
    fund = np.array([np.sin(w * t + p) for w, p in
                     zip(rng.uniform(0.05, 0.3, n_fund), rng.uniform(0, 6.28, n_fund))])
    values = rng.normal(size=(n_series, n_fund)) @ fund
    return TimePanel(tuple(f"s{i}" for i in range(n_series)), values)


def test_lowrank_owns_every_svd():
    # Which SVD serves stage 1 is decided in lowrank alone: only lowrank.py
    # takes an SVD or an eigensystem, and ssa_estimator.py names no SVD routine.
    package = Path(samossa.__file__).parent
    pattern = re.compile(r"\blinalg\.(svd|eigh)\b|\blinalg import\b|\bsvds\(")
    owners = sorted(p.name for p in package.glob("*.py")
                    if pattern.search(p.read_text(encoding="utf-8")))
    assert owners == ["lowrank.py"]
    tree = ast.parse((package / "ssa_estimator.py").read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not {"svd", "takes_topk"} & names
    assert not [name for name in names if "downdate" in name.lower()]


class TestDecompose:
    def test_noiseless_recovery(self):
        panel = harmonic_panel(n_series=2, length=512, n_fund=2)
        L = int(np.sqrt(2 * 512))
        decomp = decompose(panel, L, RankRule.fixed(4))
        truth = panel.values[:, decomp.origin:]
        assert np.max(np.abs(decomp.f_hat - truth)) < 1e-8

    def test_constant_panel(self):
        panel = TimePanel(("a", "b"), np.full((2, 60), 3.5))
        decomp = decompose(panel, 6, RankRule.fixed(1))
        np.testing.assert_allclose(decomp.f_hat, 3.5, atol=1e-12)
        np.testing.assert_allclose(decomp.x_hat, 0.0, atol=1e-12)

    def test_additivity_exact(self):
        res = generate(estimation_spec(0.6, n_series=5, length=700, seed=3))
        decomp = decompose(res.y, 40, RankRule.energy(0.9))
        retained = res.y.values[:, decomp.origin:]
        # The residual definition holds bitwise; re-summing the two float
        # arrays reproduces the observations to rounding.
        np.testing.assert_array_equal(decomp.x_hat, retained - decomp.f_hat)
        np.testing.assert_allclose(decomp.f_hat + decomp.x_hat, retained, rtol=1e-12, atol=1e-12)

    def test_low_rank_estimate(self):
        res = generate(estimation_spec(0.3, n_series=5, length=700, seed=4))
        decomp = decompose(res.y, 50, RankRule.fixed(6))
        from samossa.pagemat import stack

        page = stack(TimePanel(res.y.series_names, decomp.f_hat), 50)
        s = np.linalg.svd(page.data, compute_uv=False)
        assert s[6] < 1e-8 * s[0]

    def test_noiseless_est_err_floor(self):
        panel = harmonic_panel(n_series=3, length=400, n_fund=2, seed=9)
        decomp = decompose(panel, 20, RankRule.fixed(4))
        for n in range(3):
            assert est_err(decomp, panel, n) < 1e-16


class TestEstErr:
    def test_zero_when_exact(self):
        panel = TimePanel(("a",), np.ones((1, 40)))
        decomp = decompose(panel, 5, RankRule.fixed(1))
        assert est_err(decomp, panel, 0) == pytest.approx(0.0, abs=1e-24)

    def test_constant_offset(self):
        panel = TimePanel(("a",), np.ones((1, 100)))
        decomp = decompose(panel, 10, RankRule.fixed(1))
        shifted = TimePanel(("a",), np.full((1, 100), 1.1))
        assert est_err(decomp, shifted, 0) == pytest.approx(0.01)

    def test_mixed_signs(self):
        panel = TimePanel(("a",), np.ones((1, 4)))
        decomp = decompose(panel, 2, RankRule.fixed(1))
        truth = TimePanel(("a",), np.array([[2.0, 0.0, 1.0, 1.0]]))
        assert est_err(decomp, truth, 0) == pytest.approx(0.5)

    def test_misaligned_truth(self):
        panel = TimePanel(("a",), np.ones((1, 40)))
        decomp = decompose(panel, 5, RankRule.fixed(1))
        with pytest.raises(ShapeError):
            est_err(decomp, TimePanel(("a",), np.ones((1, 17))), 0)

    def test_bad_series_index(self):
        panel = TimePanel(("a",), np.ones((1, 40)))
        decomp = decompose(panel, 5, RankRule.fixed(1))
        with pytest.raises(ShapeError):
            est_err(decomp, panel, 1)

    @pytest.mark.parametrize("n", [0.5, "0", True, None])
    def test_series_index_must_be_an_integer(self, n):
        panel = TimePanel(("a",), np.ones((1, 40)))
        decomp = decompose(panel, 5, RankRule.fixed(1))
        with pytest.raises(ShapeError, match="series index must be an integer"):
            est_err(decomp, panel, n)

    def test_truth_read_at_the_window_times(self):
        # 43 observations at L = 5 drop a 3-step prefix: the window is t = 4..43.
        panel = harmonic_panel(n_series=2, length=43, seed=3)
        decomp = decompose(panel, 5, RankRule.fixed(2))
        assert (decomp.origin, decomp.t0) == (3, 4)
        wide = np.random.default_rng(1).normal(size=(2, 50))  # t = -2..47
        exact = TimePanel(panel.series_names, wide[:, 6:46], t0=4)
        wider = TimePanel(panel.series_names, wide, t0=-2)
        for n in range(2):
            assert est_err(decomp, wider, n) == est_err(decomp, exact, n)

    def test_retained_window_needs_its_own_t0(self):
        panel = harmonic_panel(n_series=2, length=43, seed=3)
        decomp = decompose(panel, 5, RankRule.fixed(2))
        retained = TimePanel(panel.series_names, panel.values[:, 3:])  # t0 = 1, not 4
        with pytest.raises(ShapeError, match=r"^truth covers t=1\.\.40, the decomposition "
                                             r"needs t=4\.\.43$"):
            est_err(decomp, retained, 0)
        relabelled = TimePanel(panel.series_names, panel.values[:, 3:], t0=4)
        assert est_err(decomp, relabelled, 0) == est_err(decomp, panel, 0)


class TestRateAndMonotonicity:
    def test_error_decays_with_panel_size(self):
        # log-log slope of the estimation error against N*T in [-0.75, -0.25].
        lengths = (300, 3000, 30_000)
        medians = []
        for T in lengths:
            errs = []
            for seed in range(10):
                res = generate(estimation_spec(0.3, n_series=10, length=T, seed=seed))
                decomp = decompose(res.y, default_L(10, T), RankRule.fixed(6))
                errs.append(est_err(decomp, res.f, 0))
            medians.append(np.median(errs))
        slope = np.polyfit(np.log([10 * T for T in lengths]), np.log(medians), 1)[0]
        assert -0.75 <= slope <= -0.25

    def test_more_noise_never_helps(self):
        base = estimation_spec(0.3, n_series=6, length=900, seed=0)
        med = {}
        for sigma2 in (0.1, 0.4):  # doubling the driving noise sigma
            errs = []
            for seed in range(10):
                spec = dataclasses.replace(base, sigma2=sigma2, seed=seed)
                res = generate(spec)
                decomp = decompose(res.y, default_L(6, 900), RankRule.fixed(6))
                errs.append(est_err(decomp, res.f, 0))
            med[sigma2] = np.median(errs)
        assert med[0.4] >= med[0.1]
