"""``fit`` + ``roll`` against plain SAMoSSA, written out from the paper.

The package reaches each stage by a shortcut: beta's top-row triplets by a
rank-one downdate of the Page matrix's SVD, every series' AR fit by one
batched lag Gram, the rolling loop by lag dots over windows. The reference
below takes none of them: dense SVDs of the Page matrix and of its top rows,
``select_rank``, hard thresholding read back series by series, ``lstsq`` for
beta and for each series' AR coefficients, and the scalar forecast/observe
loop. It shares only ``select_rank`` with the package.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from samossa import RankRule, SamossaConfig, TimePanel, fit, roll
from samossa.lowrank import select_rank
from samossa.ssa_estimator import Stage1
from samossa.synth import forecasting_spec, generate

# Relative to max(1, max |reference|). Over 4 000 random draws like the
# property's, k_hat always agreed and the largest differences were 5.3e-14
# (beta), 3.1e-15 (alpha) and 4.5e-13 (the rolled forecasts), at 1 BLAS
# thread; the release that took beta's downdate by an eigendecomposition
# measured 5.7e-14, 3.1e-15 and 4.8e-13.
BETA_TOL, ALPHA_TOL, ROLL_TOL = 1e-12, 1e-13, 1e-11


def textbook_fit(values, L, rule, p):
    """k_hat, the Page matrix's spectrum, beta (most recent lag first), each
    series' alpha, and x_hat."""
    N, T = values.shape
    M, origin = T // L, T % L
    # Column n * M + j holds series n's j-th retained segment of L values.
    page = np.array([values[n, origin + j * L:origin + (j + 1) * L]
                     for n in range(N) for j in range(M)]).T
    u, s, vt = np.linalg.svd(page, full_matrices=False)
    k = select_rank(s, rule, page.shape)
    smooth = (u[:, :k] * s[:k]) @ vt[:k]
    f_hat = np.array([smooth[:, n * M:(n + 1) * M].T.ravel() for n in range(N)])
    x_hat = values[:, origin:] - f_hat
    u, top_s, vt = np.linalg.svd(page[:-1], full_matrices=False)
    features = (u[:, :k] * top_s[:k]) @ vt[:k]
    beta = np.linalg.lstsq(features.T, page[-1], rcond=1e-10)[0][::-1]
    alphas = []
    for x in x_hat:
        lags = np.array([x[p - i:x.size - i] for i in range(1, p + 1)]).reshape(p, x.size - p).T
        alphas.append(np.linalg.lstsq(lags, x[p:], rcond=None)[0])
    return k, s, beta, alphas, x_hat


def textbook_roll(train, x_hat, beta, alphas, test):
    """(y_hat, f_hat, x_hat) of one forecast, then one observation, at a time."""
    out = np.empty((3,) + test.shape)
    for n, alpha in enumerate(alphas):
        obs, resid = list(train[n, ::-1][:beta.size]), list(x_hat[n, ::-1][:alpha.size])
        for j, y in enumerate(test[n]):
            f, x = float(np.dot(beta, obs)), float(np.dot(alpha, resid))
            out[:, n, j] = f + x, f, x
            obs, resid = ([y] + obs)[:beta.size], ([y - f] + resid)[:alpha.size]
    return out


def documented_tie(s, rule, k1, k2):
    """Whether the rule's choice between k1 and k2 lies within rounding of its boundary:
    s_k and s_{k+1} tied to 1e-10 of s_1 (the tie rule), or, under the energy
    rule, the energy of the top k within 1e-12 of the fraction."""
    k = min(k1, k2)
    if s[k - 1] - s[k] <= 1e-10 * s[0]:
        return True
    energy = np.cumsum(s**2) / np.sum(s**2)
    return rule.kind == "energy" and abs(energy[k - 1] - rule.fraction) <= 1e-12


RULES = st.one_of(st.integers(1, 8).map(RankRule.fixed),
                  st.sampled_from([0.5, 0.8, 0.9, 0.99]).map(RankRule.energy),
                  st.just(RankRule.universal()))


@given(n=st.integers(1, 5), t=st.integers(60, 400), h=st.integers(1, 30), rule=RULES,
       p=st.integers(0, 3), seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=150)
def test_fit_and_roll_match_the_textbook(n, t, h, rule, p, seed, data):
    L = data.draw(st.integers(2, t // 3), label="L")
    values = generate(forecasting_spec(n_series=n, length=t + h, seed=seed)).y.values
    train, test = values[:, :t], values[:, t:]
    k, s, beta, alphas, x_hat = textbook_fit(train, L, rule, p)
    model = fit(TimePanel(tuple(f"s{i}" for i in range(n)), train),
                SamossaConfig(L=L, rank=rule, p=p))
    if model.k_hat != k:
        spectrum = Stage1(TimePanel(model.series_names, train), L).spectrum(rule)
        assert documented_tie(s, rule, k, model.k_hat), (k, model.k_hat)
        assert documented_tie(spectrum.singular_values, rule, k, model.k_hat)
        return
    assert np.abs(model.beta_model.beta - beta).max() <= BETA_TOL * max(1.0, np.abs(beta).max())
    for ours, theirs in zip(model.ar_models, alphas):
        assert ours.p == p
        assert np.abs(ours.alpha - theirs).max(initial=0.0) <= (
            ALPHA_TOL * max(1.0, np.abs(theirs).max(initial=0.0)))
    want = textbook_roll(train, x_hat, beta, alphas, test)
    got = np.array(roll(model, test))
    assert np.abs(got - want).max() <= ROLL_TOL * max(1.0, np.abs(want).max())
