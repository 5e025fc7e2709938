"""Seeded generators for synthetic experiment panels.

Two families of deterministic components, plus a pure-noise mode:

* ``harmonics``: each fundamental is sin(w_k t + phi_k); the estimation
  experiments use frequencies in [2*pi/100, 2*pi/50] and AR(2) noise.
* ``harmonics_trend``: adds a slope m_k * t per fundamental; the forecasting
  experiments use frequencies in [2*pi/100, 2*pi/10], slopes within
  +/- 5e-4, and AR(1) noise with coefficient -0.5.
* ``pure_ar``: zero deterministic component.

Each series observes a standard-normal mixture of the fundamentals plus an
independent AR noise path started from (approximately) its stationary
distribution via a discarded burn-in of 10 ceil(1 / (1 - lambda)) steps,
lambda the largest root modulus (at most 10^6 steps, else SpecError). The
paths run x(t) = sum_i alpha_i x(t-i) + eta(t) from zero lags in numpy alone,
for all series at once: time is cut into blocks, each block runs from zero
lags, and the true lags are carried in through a table of the block's
response to them (``_simulate_ar``).

Randomness: one 64-bit master seed feeds a ``numpy.random.SeedSequence``;
child 0 drives the deterministic component's draws (frequencies, phases,
slopes, mixture coefficients) and child 1+n drives series n's innovations.
Streams use the PCG64 generator, so panels are bit-reproducible for a fixed
seed within one platform/numpy pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ar import characteristic_roots
from .errors import SpecError, _float_array, _integer, _is_real
from .panel import TimePanel

__all__ = [
    "GeneratorSpec",
    "SynthResult",
    "generate",
    "ar_from_lambda_star",
    "estimation_spec",
    "forecasting_spec",
]

_TWO_PI = 2.0 * math.pi

# Every fundamental's phase, and with a trend its slope, is drawn uniformly from these.
_PHASE_RANGE = (0.0, _TWO_PI)
_SLOPE_RANGE = (-5e-4, 5e-4)

_KINDS = ("harmonics", "harmonics_trend", "pure_ar")

# At most this many burn-in steps: a root near 1 would need more than memory
# holds (10^6 steps take every root modulus below 0.99999).
_MAX_BURN = 10**6
_BLOCK = 64  # time steps per block of the AR simulation


@dataclass(frozen=True)
class GeneratorSpec:
    """What to draw, checked on construction (SpecError): counts are integers >= 1,
    the seed an integer >= 0 (numpy integers convert), ``freq_range`` a pair of
    finite reals, ``sigma2`` finite and > 0, and ``lambda_star`` a real in
    (0, 1), or None beside an explicit ``alpha``: a non-empty vector of finite
    reals, stored as a tuple of floats, that owns the AR order and the roots,
    so the spec then stores ``ar_order`` as its length and ``lambda_star`` as None.

    ``pure_ar`` keeps none of the deterministic-component fields: it stores
    ``n_fundamentals`` and ``freq_range`` as None. A field the kind does not
    read may be None; any other value is still checked, then dropped. Phases
    and slopes are drawn from fixed ranges, [0, 2 pi) and +/- 5e-4."""

    kind: str                 # harmonics | harmonics_trend | pure_ar
    n_series: int = 10
    length: int = 10_000
    n_fundamentals: int | None = 3
    freq_range: tuple[float, float] | None = (_TWO_PI / 100.0, _TWO_PI / 50.0)
    ar_order: int = 2
    lambda_star: float | None = 0.3
    alpha: tuple[float, ...] | None = None   # explicit coefficients override
    sigma2: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SpecError(f"unknown generator kind {self.kind!r}")
        harmonic = self.kind != "pure_ar"  # reads n_fundamentals and freq_range
        for name in ("n_series", "length", "ar_order", "seed"):
            value = _integer(getattr(self, name), name, 0 if name == "seed" else 1, SpecError)
            object.__setattr__(self, name, value)
        for name in ("n_fundamentals", "freq_range"):
            value = getattr(self, name)
            if value is not None or harmonic:
                value = (_integer(value, name, 1, SpecError) if name == "n_fundamentals"
                         else _pair(value, name))
            object.__setattr__(self, name, value if harmonic else None)
        if harmonic:
            lo, hi = self.freq_range
            if not (0.0 < lo <= hi < math.pi):
                raise SpecError(f"frequency range {self.freq_range} not inside (0, pi)")
        if not _is_real(self.sigma2) or self.sigma2 <= 0.0:
            raise SpecError(f"noise variance must be a finite number > 0, got {self.sigma2!r}")
        lam = self.lambda_star
        if (self.alpha is None or lam is not None) and not (_is_real(lam) and 0.0 < lam < 1.0):
            raise SpecError(f"lambda_star must be in (0, 1), got {lam}")
        if self.alpha is not None:
            alpha = _float_array(self.alpha, "explicit alpha", SpecError)
            if alpha.ndim != 1 or alpha.size < 1 or not np.isfinite(alpha).all():
                raise SpecError(f"explicit alpha must be a non-empty vector of finite numbers, "
                                f"got {self.alpha!r}")
            for name, value in (("alpha", tuple(alpha.tolist())), ("ar_order", alpha.size),
                                ("lambda_star", None)):  # generate reads neither of the last two
                object.__setattr__(self, name, value)


def _pair(value, what: str) -> tuple[float, float]:
    """``value`` as a pair of floats; SpecError unless it is two finite reals."""
    try:
        lo, hi = value
    except (TypeError, ValueError):  # not a pair
        lo = hi = None
    if not (_is_real(lo) and _is_real(hi)):
        raise SpecError(f"{what} must be a pair of finite numbers, got {value!r}")
    return float(lo), float(hi)


@dataclass(frozen=True)
class SynthResult:
    y: TimePanel
    f: TimePanel
    x: TimePanel
    alphas: tuple[np.ndarray, ...]
    spec: GeneratorSpec


def ar_from_lambda_star(p: int, lambda_star: float) -> np.ndarray:
    """Coefficients of a stationary AR(p) whose dominant root modulus is as given.

    p=1 places the single root at lambda_star; p=2 uses distinct real roots
    (lambda_star, lambda_star/2), keeping a quantified gap so the
    partial-fraction constants stay well-defined.
    """
    if not 0.0 < lambda_star < 1.0:
        raise SpecError(f"lambda_star must be in (0, 1), got {lambda_star}")
    if p == 1:
        return np.array([lambda_star])
    if p == 2:
        # (z - r1)(z - r2) = z^2 - (r1 + r2) z + r1 r2 with r2 = r1 / 2
        return np.array([1.5 * lambda_star, -0.5 * lambda_star**2])
    raise SpecError(f"root placement only defined for p in {{1, 2}}, got p={p}")


def _run_lags(z: np.ndarray, alpha: np.ndarray, start: int) -> None:
    """z[j] += sum_i alpha_i z[j-i] for j = start, ..., len(z)-1, in place: lags
    that fall before row 0 count as zero."""
    for j in range(start, len(z)):
        for i in range(1, min(alpha.size, j) + 1):
            z[j] += alpha[i - 1] * z[j - i]


def _simulate_ar(alpha: np.ndarray, x: np.ndarray, block: int = _BLOCK) -> None:
    """Overwrite each row of ``x`` (N, M), the innovations eta, with the AR path
    x(t) = sum_i alpha_i x(t-i) + eta(t) they drive from zero initial state.

    Time is cut into blocks of at most ``block`` steps, stored time-in-block
    first, so each step of the recursion is one axpy over every block of every
    series, run from zero lags. The true lags enter a block through its
    response to unit initial lags (a block x p table): the p values before
    each block are carried block to block, then added in. Elementwise numpy
    only, so the bits depend on no BLAS kernel or thread count.
    """
    p = alpha.size
    N, M = x.shape
    # Rows p + j: time j of a block whose lag m (row p - m) alone is 1.
    response = np.zeros((p + block, p))
    response[p - 1 - np.arange(p), np.arange(p)] = 1.0
    _run_lags(response, alpha, p)
    # A block scales its lags' rounding by the table's row sums. It ends before
    # they pass 4 sum_i |alpha_i| (row 0's, one step of the plain recursion),
    # which keeps the rounding near the plain recursion's when roots crowd
    # near the unit circle; the presets keep the whole block.
    sums = np.maximum.accumulate(np.abs(response[p:]).sum(axis=1))
    block = int(np.count_nonzero(sums <= 4.0 * sums[0]))
    full, tail = divmod(M, block)
    n_blocks = full + (tail > 0)

    # z[j, n, b] = eta[n, b * block + j], zero past M.
    z = np.zeros((block, N, n_blocks))
    for n in range(N):
        z[:, n, :full] = x[n, :full * block].reshape(full, block).T
    z[:tail, :, -1] = x[:, full * block:].T
    _run_lags(z, alpha, 1)
    # lags[m - 1, :, b] = x(b * block - m): block b - 1 run from zero lags, at
    # row p + block - m of the table's time axis, plus its response to its lags.
    carry = response[p + block - 1 - np.arange(p)]
    lags = np.zeros((p, N, n_blocks))
    q = min(p, block)  # lags past the block's length are older blocks' values
    lags[:q, :, 1:] = z[block - 1 - np.arange(q), :, :-1]
    for b in range(1, n_blocks):
        for m in range(p):
            lags[:, :, b] += carry[:, m, None] * lags[m, :, b - 1]
    for j in range(block):
        for m in range(p):
            z[j] += response[p + j, m] * lags[m]

    for n in range(N):
        x[n, :full * block].reshape(full, block)[:] = z[:, n, :full].T
    x[:, full * block:] = z[:tail, :, -1].T


def generate(spec: GeneratorSpec) -> SynthResult:
    """Draw one synthetic panel: observations, truth components, and alphas."""
    alpha = (np.array(spec.alpha) if spec.alpha is not None
             else ar_from_lambda_star(spec.ar_order, spec.lambda_star))
    lam = float(np.abs(characteristic_roots(alpha)[0]))
    if lam >= 1.0:
        raise SpecError(f"explicit alpha is non-stationary (root modulus {lam})")
    burn = 10 * math.ceil(1.0 / (1.0 - lam))
    if burn > _MAX_BURN:
        raise SpecError(f"AR root modulus {lam} needs a burn-in of {burn} steps, "
                        f"more than {_MAX_BURN}")

    children = np.random.SeedSequence(spec.seed).spawn(1 + spec.n_series)
    rng_det = np.random.default_rng(children[0])
    N, T = spec.n_series, spec.length

    if spec.kind == "pure_ar":
        f = np.zeros((N, T))
    else:
        R = spec.n_fundamentals
        omega = rng_det.uniform(*spec.freq_range, size=R)
        phi = rng_det.uniform(*_PHASE_RANGE, size=R)
        t = np.arange(1, T + 1, dtype=np.float64)
        fundamentals = np.sin(omega[:, None] * t[None, :] + phi[:, None])
        if spec.kind == "harmonics_trend":
            slopes = rng_det.uniform(*_SLOPE_RANGE, size=R)
            fundamentals = fundamentals + slopes[:, None] * t[None, :]
        mixture = rng_det.normal(0.0, 1.0, size=(N, R))
        f = mixture @ fundamentals

    sigma = math.sqrt(spec.sigma2)
    eta = np.empty((N, burn + T))
    for n in range(N):
        eta[n] = np.random.default_rng(children[1 + n]).normal(0.0, sigma, size=burn + T)
    _simulate_ar(alpha, eta)
    x = eta[:, burn:]

    names = tuple(f"s{n + 1}" for n in range(N))
    return SynthResult(
        y=TimePanel(names, f + x),
        f=TimePanel(names, f),
        x=TimePanel(names, x),
        alphas=tuple(alpha.copy() for _ in range(N)),
        spec=spec,
    )


def estimation_spec(lambda_star: float, n_series: int = 10, length: int = 10_000,
                    seed: int = 0) -> GeneratorSpec:
    """Model-estimation preset: 3 harmonics, AR(2) noise, sigma^2 = 0.2 (the spec's defaults)."""
    return GeneratorSpec(kind="harmonics", n_series=n_series, length=length,
                         lambda_star=lambda_star, seed=seed)


def forecasting_spec(n_series: int = 25, length: int = 10_050, seed: int = 0) -> GeneratorSpec:
    """Forecasting preset: harmonics plus slight trends, AR(1) alpha = -0.5."""
    return GeneratorSpec(
        kind="harmonics_trend",
        n_series=n_series,
        length=length,
        n_fundamentals=3,
        freq_range=(_TWO_PI / 100.0, _TWO_PI / 10.0),
        alpha=(-0.5,),
        sigma2=1.0,
        seed=seed,
    )
