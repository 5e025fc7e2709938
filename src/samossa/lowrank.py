"""SVD, hard singular value thresholding, and data-driven rank selection.

Stateless numerics: which factorisation of a Page matrix serves stage 1 is
:class:`~samossa.ssa_estimator.Stage1`'s to decide. This module gives the
factorisations and the certificates that say where each may serve: the Gram
factorisation (:func:`_gram_svd`, one symmetric eigendecomposition of the
scaled Gram matrix, of a tall matrix's R factor after a QR) where every
comparison a rule makes clears its rounding error (:func:`_gram_answers`),
and its downdate head (:func:`_downdate_head`) for beta. Right vectors are
computed on request. :func:`svd` and :func:`hsvt` are the dense oracle, save
a certified top-k head of a large matrix (:func:`_krylov`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankError, _float_array, _integer, _is_real

__all__ = ["SvdResult", "RankRule", "svd", "takes_topk", "hsvt", "select_rank"]

# Singular values below this relative floor count as zero.
_ZERO_REL = 1e-14

# Two singular values within this relative gap are a tied group; threshold
# rules never split one (the retained subspace would be ill-defined).
_TIE_REL = 1e-12

# svd(matrix, k) takes a top-k head (_krylov) instead of every LAPACK triplet
# from this smaller side up, while k is at most a tenth of it. At 1 BLAS
# thread the dense SVD of a square Page-like matrix (fig2's sigma^2) takes
# 0.08 s at 500, 0.13 s at 600 and 0.58 s at 1000, and the head at k = 6
# 7 ms, 11 ms and 14 ms. Where no gap at k lets it certify, it declines after
# 0.02-0.24 s (k a tenth of the side, past the rank) or 0.06-0.40 s (pure
# noise), and the dense SVD is paid on top.
_TOPK_MIN_DIM = 600

# The head (_krylov) adds k + _KRYLOV_EXTRA vectors to its basis a step, up to
# 1 / _KRYLOV_SHARE of the smaller side, and answers once R = A V - U S has
# ||R||_F (s_k + s_{k+1}) < _KRYLOV_TOL s_1 (s_k - s_{k+1}): its truncation is
# then within _KRYLOV_TOL s_1 (Wedin, the (k+1)-th Ritz value for the true
# one), and a near-tie at k never passes. The 601 Page matrices the fig2 bench
# workload draws for seeds 0-9 (1732 x 1730, k = 6) all answered, 505 at 3
# steps and the last at 32, in 40 ms median and 57 ms p90 at 1 BLAS thread
# (ARPACK: 54-77 ms). A fixed 4 or 7 steps leaves 48 or 11 of them (a weak
# 6th value at the noise edge) to the dense SVD, 3 s and 109 MB each.
_KRYLOV_EXTRA = 6
_KRYLOV_SHARE = 3
_KRYLOV_TOL = 1e-10

# The Gram path's eigenvalue error, in units of r * eps * lambda_1 for an
# r x r Gram, r = min(rows, cols) (Golub & Van Loan 8.6: the cross-product
# matrix loses the values below about sqrt(r eps) s_1). A scratch study
# compared eigh of the scaled Gram with the squares of the dense SVD's values
# on 451 wide matrices of 2 to 500 rows (Gaussian, planted rank plus noise
# from 1e-16 to 1e-1, geometric decay over up to 20 decades, rows scaled by
# 2^-300 to 2^300, and Page matrices of forecasting and noiseless estimation
# panels, the benchmark's among them): the largest error was 0.98 of that
# unit (0.054 from 223 rows up) and the 99th percentile 0.58. On 500 tall
# ones through the QR (the same kinds, 1 to 300 columns under up to 20 000
# rows, and 32 Page matrices, 499 x 475 among them) it was 1.33 (at 3
# columns; 0.098 from r = 223 up). Four times the wide worst case gives the
# bound a certificate clears.
_GRAM_ERR = 4.0

# The Gram's rounding turns its top-k eigenvectors toward the rest by an
# angle of about eps lambda_1 / (lambda_k - lambda_{k+1}), up to r s_1 / s_k
# times the dense SVD's; a Gram truncation or downdate head at k answers only
# where that estimate is at most this. In a scratch study on 8 benchmark
# train panels (25 x 10 000, the grid's three L and three rules) it reached
# 8.3e-11 for a truncation and 1.9e-10 for a downdate head. Over 3 000 draws
# like TestDowndate's (planted rank plus noise, k_hat in the noise), beta
# from the Gram's downdate was off lstsq's by more than a tenth of that
# test's tolerance only from 2.7e-9 up. With this bound and _GRAM_BETA, the
# 1 842 of 6 000 such draws that the Gram served came within 0.011 of it.
_GRAM_ANGLE = 1e-9

# Beta off a Gram downdate head reads its right vectors as A'^T U'_k / s'_k,
# which, like the normal equations, loses about eps (s'_1 / s'_k)^2 of beta;
# the head answers only where that is at most this. The seven heads of
# forecast_benchmark_run(0) read at most 3.8e-13 (their smallest eigenvalue
# is 5.8e-4 of the largest), far inside it, and 1e-11 keeps beta a hundred
# times inside TestDowndate's 1e-9.
_GRAM_BETA = 1e-11

# The rounding bound on a downdate head's vectors: it declines when an entry
# of W_k^T W_k - I exceeds this. Heads that answer measure at most 1.1e-15 on
# the benchmark and 1.4e-14 on 3 000 random heads with poles clustered down
# to an ulp apart; the few of those whose poles an ulp apart cannot be
# resolved measure 8e-5 and more. At 1e-10 a vector error stays well inside
# the 1e-8 that the head's subspace is tested to.
_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class SvdResult:
    """Singular values in non-increasing order and their left vectors: every one, or a top-k head.

    Right vectors come on request, for the k columns asked for. A
    factorisation that computed them keeps them (``right``, as columns);
    one that did not (a Gram spectrum, or a downdate head off one) keeps a
    reference to the ``matrix`` A it factorised instead, and gives
    V_k = A^T U_k / S_k. Exactly one of the two is set.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right: np.ndarray | None = None
    matrix: np.ndarray | None = None

    def right_vectors(self, k: int | None = None) -> np.ndarray:
        """The right vectors of the top k triplets (every one by default), as columns."""
        if self.matrix is None:
            return self.right[:, :k]
        return self.matrix.T @ self.left_vectors[:, :k] / self.singular_values[:k]

    def truncate(self, k: int) -> np.ndarray:
        """Best rank-k reconstruction: U_k S_k V_k^T, or U_k (U_k^T A) from the matrix."""
        u = self.left_vectors[:, :k]
        if self.matrix is not None:
            return u @ (u.T @ self.matrix)
        return (u * self.singular_values[:k]) @ self.right[:, :k].T


def takes_topk(shape: tuple[int, int], k: int | None) -> bool:
    """Whether ``svd`` of a matrix of ``shape`` computes only the top ``k`` triplets."""
    return k is not None and min(shape) >= _TOPK_MIN_DIM and 10 * k <= min(shape)


def svd(matrix: np.ndarray, k: int | None = None) -> SvdResult:
    """Deterministic SVD; right vectors come back as columns.

    Without ``k``, every triplet from one dense LAPACK call. With ``k`` (an
    integer >= 1), the top k triplets: the certified block Krylov head when
    :func:`takes_topk` says so, otherwise the dense result sliced to k (every
    triplet when k reaches the smaller side). The dense path is the oracle.
    It also serves a matrix whose k-th value is at or below the zero floor,
    whose positive values must be counted exactly. RankError unless
    ``matrix`` is a non-empty 2-D array of finite numbers.
    """
    a = _float_array(matrix, "matrix entries", RankError)
    if a.ndim != 2 or a.size == 0:
        raise RankError(f"svd expects a 2-D matrix of at least one entry, got shape {a.shape}")
    if k is not None:
        k = _integer(k, "k", 1, RankError)
    if takes_topk(a.shape, k):
        head = _krylov(a, k)
        if head is not None and head.singular_values[-1] > _ZERO_REL * head.singular_values[0]:
            return head
    if not np.isfinite(a).all():  # LAPACK spins on an inf
        raise RankError("svd of a non-finite matrix")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return SvdResult(singular_values=s[:k], left_vectors=u[:, :k], right=vt[:k].T)


def _gram_svd(matrix: np.ndarray) -> SvdResult | None:
    """Every singular value of a matrix A and its left vectors, off the Gram of its smaller side.

    A is scaled by 2^-e, with e the exponent of max |A|, which is exact and
    keeps the Gram in range. A tall A is first factorised as Q R (T. F.
    Chan 1982), so the Gram is always r x r for r = min(rows, cols): one
    eigh of G = B B^T, with B the scaled A or its R, gives U_B and s = 2^e
    sqrt(lambda), negative rounding read as 0, and A's left vectors are U_B
    or Q U_B. Values below about sqrt(r eps) s_1 are rounding noise
    (``_GRAM_ERR``): :func:`_gram_answers` decides where the result may
    serve. Right vectors come on request from A. None for a zero or
    non-finite A.
    """
    peak = np.abs(matrix).max()
    if not 0.0 < peak < np.inf:
        return None
    exp = int(np.frexp(peak)[1])
    scaled = np.ldexp(matrix, -exp)
    rows, cols = matrix.shape
    q, b = np.linalg.qr(scaled) if rows > cols else (None, scaled)
    lam, u = np.linalg.eigh(b @ b.T)
    u = u[:, ::-1]
    return SvdResult(singular_values=np.ldexp(np.sqrt(np.maximum(lam[::-1], 0.0)), exp),
                     left_vectors=u if q is None else q @ u, matrix=matrix)


def _downdate_head(gram: SvdResult | None, k: int) -> SvdResult | None:
    """The top k triplets of A[:-1] off A's Gram spectrum, or None if not clear of rounding.

    The Gram spectrum gives A = U S V^T (U with r = min(rows, cols)
    orthonormal columns), so A' = A[:-1] = U[:-1] S V^T, and A'^T A' =
    V (S^2 - z z^T) V^T with z = S U[-1], a rank-one downdate (Bunch,
    Nielsen & Sorensen 1978; Gu & Eisenstat 1995). With S^2 - z z^T =
    W diag(lambda) W^T in descending order, the top k values of A' are
    sqrt(lambda_k), its left vectors U[:-1] S W_k / sqrt(lambda_k), and its
    right vectors, on request, A'^T U'_k / s'_k. The top k + 1 eigenvalues
    and the top k eigenvectors are :func:`_secular_head`'s roots of the
    downdate's secular equation, in O(k r). S is first scaled by a power of
    two so that s_1 is in [1/2, 1), which is exact and keeps S^2 in range.
    None when ``gram`` is None (A zero or not finite), a truncation of it at
    k is not clear of its rounding (:func:`_clears_floor`; k < 1 never is),
    the secular form cannot certify the head, or the k-th eigenvalue is at
    or below eps / ``_GRAM_BETA`` or the gap below it at or below eps /
    ``_GRAM_ANGLE`` (a zero or tied k-th value).
    """
    if gram is None or not _clears_floor(gram.singular_values, k, min(gram.matrix.shape)):
        return None
    s = gram.singular_values
    scale = int(np.frexp(s[0])[1])
    s = np.ldexp(s, -scale)
    head = _secular_head(s * s, s * gram.left_vectors[-1], k)
    if head is None:
        return None
    lam, w = head
    eps = np.finfo(np.float64).eps
    if not (lam[k - 1] > eps / _GRAM_BETA and lam[k - 1] - lam[k] > eps / _GRAM_ANGLE):
        return None
    root = np.sqrt(lam[:k])
    return SvdResult(singular_values=np.ldexp(root, scale),
                     left_vectors=gram.left_vectors[:-1] @ (s[:, None] * w) / root,
                     matrix=gram.matrix[:-1])


def _gram_error(r: int) -> float:
    """The bound on a Gram eigenvalue's error, relative to lambda_1, for an r x r Gram:
    r = min(rows, cols) of the matrix it factorises."""
    return _GRAM_ERR * r * np.finfo(np.float64).eps


def _clears_floor(s: np.ndarray, k: int, r: int) -> bool:
    """Whether a truncation at k of the Gram values ``s`` is clear of the rounding of an r x r Gram.

    The (k+1)-th value must exceed the floor sqrt(error) * s_1 under which
    Gram values are noise (``_GRAM_ERR``), so that the residual A - A_k that
    stage 2 reads, of size about s_{k+1}, is data and not the Gram's
    rounding: a full-rank truncation, whose residual is rounding alone, is
    left to the dense SVD. And the eigenvalue gap lambda_k - lambda_{k+1}
    must hold the top-k eigenvectors' rounding to ``_GRAM_ANGLE``; that gap
    also puts s_k far above the floor and the tie test.
    """
    if not 1 <= k < s.size:
        return False
    x = s / s[0]
    eps = np.finfo(np.float64).eps
    return bool(x[k] > np.sqrt(_gram_error(r))
                and x[k - 1] ** 2 - x[k] ** 2 > eps / _GRAM_ANGLE)


def _gram_answers(s: np.ndarray, rule: RankRule, shape: tuple[int, int]) -> bool:
    """Whether the Gram values ``s`` of a matrix of ``shape`` decide ``rule`` as the dense SVD would.

    Each Gram eigenvalue s_j^2 is within e = ``_GRAM_ERR`` r eps s_1^2 of
    the exact one, with r = min(rows, cols) the Gram's size. The Gram
    answers only when every comparison :func:`select_rank` makes at its
    k_hat clears that error, and the truncation at k_hat clears the floor
    (:func:`_clears_floor`), which also puts s_k_hat and the gap below it
    far above the zero and tie tests':

    - ``fixed:K``: nothing more (s_K is above the floor, so no zero value
      caps K);
    - ``energy:F``: the cumulative energies either side of k_hat clear
      F times the total by their errors (j e for j values, r e for the
      total), so the tie rule did not extend k_hat either;
    - ``universal``: no s_j^2 within (1 + omega^2) e of the square of its
      threshold omega * median(s), and no tie extension past the count of
      values above it (so the threshold is at least s_{k_hat+1}, above the
      floor).
    """
    r = min(shape)
    k = select_rank(s, rule, shape)
    if not _clears_floor(s, k, r):
        return False
    err = _gram_error(r)
    lam = (s / s[0]) ** 2
    if rule.kind == "energy":
        energy = np.cumsum(lam)
        target = (rule.fraction - 1e-15) * energy[-1]
        margin = r * err
        above = energy[k - 1] - target > (k * err + margin)
        below = k == 1 or target - energy[k - 2] > ((k - 1) * err + margin)
        return bool(above and below)
    if rule.kind == "universal":
        omega = _omega(min(shape) / max(shape))
        tau = omega * float(np.median(s / s[0]))
        clear = np.all(np.abs(lam - tau * tau) > (1.0 + omega * omega) * err)
        return bool(clear and k == max(1, int(np.sum(s / s[0] > tau))))
    return True


def _secular_head(d: np.ndarray, z: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The top min(k + 1, r) eigenvalues of diag(d) - z z^T and its top k eigenvectors.

    ``d`` holds r values in descending order. Each eigenvalue is a root of
    the secular equation 1 = sum_j z_j^2 / (d_j - lambda), root i the only
    one between the poles d_{i+1} and d_i (between d_r - |z|^2 and d_r for
    the last), and its eigenvector is proportional to z / (d - lambda_i)
    (Bunch, Nielsen & Sorensen 1978). A root is found as an offset tau from
    its nearer pole d_o, so every difference d_j - lambda_i is read as
    (d_j - d_o) - tau to full relative accuracy (Gu & Eisenstat 1995), by
    Newton's method on the pole-free form tau (1 - R(tau)) + z_o^2, with R
    the sum over the other poles, safeguarded by bisection. None when
    a bracketing pole is tied or has a zero z_j (the roots no longer
    interlace the poles one to one), when a vector is not finite, or when
    W_k^T W_k is off the identity by more than ``_ORTHO_TOL``.
    """
    r, m = d.size, min(k + 1, d.size)
    z2 = z * z
    rows = np.arange(m)
    lower = np.append(d[1:m + 1], d[-1] - z2.sum())[:m]
    if not (np.all(z[:m + 1] != 0.0) and np.all(lower < d[:m])):
        return None
    with np.errstate(all="ignore"):  # a bracket too narrow to resolve ends in the checks below
        mid = 0.5 * (lower + d[:m])
        nearer_lower = (1.0 - (z2 / (d - mid[:, None])).sum(axis=1) < 0.0) & (rows + 1 < r)
        origin = rows + nearer_lower
        delta = d - d[origin][:, None]  # d_j - d_o, exact near d_o
        side = np.where(nearer_lower, 1.0, -1.0)  # tau's sign: above or below its pole
        far = np.where(nearer_lower, d[:m] - d[origin], lower - d[origin])
        lo, hi = np.minimum(far, 0.0), np.maximum(far, 0.0)
        # R(tau) sums every pole but the origin: its z^2 is 0 in the sum, and its
        # delta 1, so that no term divides by zero.
        others = np.tile(z2, (m, 1))
        others[rows, origin] = 0.0
        delta_r = delta.copy()
        delta_r[rows, origin] = 1.0
        z2_o = z2[origin]

        def pole_free(tau):
            t = delta_r - tau[:, None]
            q = others / t
            rest = 1.0 - q.sum(axis=1)
            return tau * rest + z2_o, rest - tau * (q / t).sum(axis=1)

        # From the middle of its bracket a head's slowest root takes 5 to 8
        # steps to an ulp on the benchmark and at most 22 on 1 800 random
        # planted-rank heads, but for 22 of them that reach the cap of 30
        # with a root whose steps wander within a few ulps of it. A root stops
        # on its own test, so no root's bits depend on m.
        tau, active = 0.5 * (lo + hi), np.ones(m, dtype=bool)
        for _ in range(30):
            g, slope = pole_free(tau)
            above = side * g > 0.0  # the root lies above tau
            lo, hi = np.where(above, tau, lo), np.where(above, hi, tau)
            guess = tau - g / slope  # a Newton step, or a halving where it leaves the bracket
            guess = np.where((lo <= guess) & (guess <= hi), guess, 0.5 * (lo + hi))
            ulp = np.finfo(np.float64).eps * np.abs(guess)
            moving = (np.abs(guess - tau) > ulp) & (hi - lo > 4.0 * ulp)
            tau = np.where(active, guess, tau)
            active &= moving
            if not active.any():
                break
        lam = d[origin] + tau
        w = (z / (delta[:k] - tau[:k, None])).T
        w /= np.sqrt((w * w).sum(axis=0))
    if not np.all(np.isfinite(w)):
        return None
    if np.abs(w.T @ w - np.eye(k)).max() > _ORTHO_TOL:
        return None
    return lam, w


def _krylov(a: np.ndarray, k: int) -> SvdResult | None:
    """The top k triplets of A from a block Krylov head, or None where ``_KRYLOV_TOL`` fails.

    Block Golub-Kahan-Lanczos (Musco & Musco 2015; Halko, Martinsson & Tropp
    2011, Alg. 4.4) from a seed-0 Gaussian block W: a QR after every product,
    Ritz triplets from the SVD of the small Q^T A P, certified on the stored
    A P. The bases fill buffers sized for the last step, so nothing grows.
    Products are scaled by 2^-e, e the exponent of max |A W|: exact, so the
    bits do not depend on A's scale. None for a zero or non-finite A too.
    """
    (m, n), width = a.shape, k + _KRYLOV_EXTRA
    rows = (min(m, n) // (_KRYLOV_SHARE * width) + 1) * width
    (q, ap), p, t = np.empty((2, rows, m)), np.empty((rows, n)), np.empty((rows, rows))
    y = np.random.default_rng(0).standard_normal((width, n)) @ a.T
    peak = np.abs(y).max()
    if not 0.0 < peak < np.inf:
        return None
    e = -int(np.frexp(peak)[1])
    y = np.ldexp(y, e)
    for lo in range(0, rows, width):
        hi = lo + width
        q[lo:hi] = _orthonormal(y, q[:lo])
        z = np.ldexp(q[lo:hi] @ a, e)
        t[lo:hi, :lo] = z @ p[:lo].T
        p[lo:hi] = _orthonormal(z, p[:lo])
        ap[lo:hi] = y = np.ldexp(p[lo:hi] @ a.T, e)
        t[:hi, lo:hi] = q[:hi] @ y.T
        w, s, vt = np.linalg.svd(t[:hi, :hi])
        u = w[:, :k].T @ q[:hi]
        resid = np.linalg.norm(vt[:k] @ ap[:hi] - s[:k, None] * u)
        if resid * (s[k - 1] + s[k]) < _KRYLOV_TOL * s[0] * (s[k - 1] - s[k]):
            return SvdResult(singular_values=np.ldexp(s[:k], -e), left_vectors=u.T,
                             right=(vt[:k] @ p[:hi]).T)
    return None  # not certified (a NaN, or a tie at k, fails too)


def _orthonormal(block: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning ``block``'s rows projected off the orthonormal rows of ``basis``."""
    for _ in range(2):
        block = block - (block @ basis.T) @ basis
    return np.linalg.qr(block.T)[0].T


@dataclass(frozen=True)
class RankRule:
    """How to pick the HSVT threshold k from a singular spectrum.

    Three kinds: a fixed ``k``, an integer >= 1 (numpy integers convert); the
    smallest k capturing a ``fraction`` of the spectral energy, a real in
    (0, 1] stored as a float; or counting values above the shape-dependent
    universal threshold omega(beta) * median(s). A kind holds only the field
    it reads, so a rule has one spelling; anything else raises RankError on
    construction.
    """

    kind: str
    k: int | None = None
    fraction: float | None = None

    def __post_init__(self):
        if self.kind == "fixed":
            object.__setattr__(self, "k", _integer(self.k, "fixed rank", 1, RankError))
        elif self.kind == "energy":
            f = self.fraction
            if not _is_real(f) or not 0.0 < f <= 1.0:
                raise RankError(f"energy fraction must be in (0, 1], got {f!r}")
            object.__setattr__(self, "fraction", float(f))
        elif self.kind != "universal":
            raise RankError(f"unknown rank rule {self.kind!r}")
        for name in {"fixed": ("fraction",), "energy": ("k",)}.get(self.kind, ("k", "fraction")):
            if getattr(self, name) is not None:
                raise RankError(f"a {self.kind} rank rule takes no {name}, "
                                f"got {getattr(self, name)!r}")

    @classmethod
    def fixed(cls, k: int) -> "RankRule":
        return cls(kind="fixed", k=k)

    @classmethod
    def energy(cls, fraction: float) -> "RankRule":
        return cls(kind="energy", fraction=fraction)

    @classmethod
    def universal(cls) -> "RankRule":
        return cls(kind="universal")

    @classmethod
    def parse(cls, text: str) -> "RankRule":
        """Parse ``fixed:K``, ``energy:F``, or ``universal``; RankError for anything else."""
        if isinstance(text, str):
            if text == "universal":
                return cls.universal()
            kind, sep, arg = text.partition(":")
            try:
                if sep and kind == "fixed":
                    return cls.fixed(int(arg))
                if sep and kind == "energy":
                    return cls.energy(float(arg))
            except ValueError:  # not a number
                pass
        raise RankError(f"cannot parse rank rule {text!r}")

    def __str__(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{self.k}"
        if self.kind == "energy":
            return f"energy:{self.fraction}"
        return "universal"


def hsvt(matrix: np.ndarray, k: int) -> np.ndarray:
    """Hard singular value thresholding: the best rank-k approximation.

    Keeps the top k singular triplets and zeroes the rest; by Eckart-Young
    this is the Frobenius-optimal rank-k approximation.
    """
    k = _integer(k, "k", 1, RankError)
    full = svd(matrix)
    if k > full.singular_values.size:
        raise RankError(f"k={k} out of range for a matrix of {full.singular_values.size} "
                        "singular values")
    return full.truncate(k)


def _omega(beta: float) -> float:
    # Rational approximation of the optimal hard-threshold coefficient for
    # unknown noise level, as a function of the aspect ratio beta <= 1.
    return 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43


def _extend_ties(s: np.ndarray, k: int, n_positive: int) -> int:
    tol = _TIE_REL * s[0]
    while k < n_positive and s[k - 1] - s[k] <= tol:
        k += 1
    return k


def select_rank(singular_values, rule: RankRule, shape: tuple[int, int]) -> int:
    """Number of singular values to retain under ``rule``.

    ``shape`` is the (rows, cols) of the matrix the spectrum came from; only
    the universal-threshold rule uses it. ``fixed:K`` keeps K values, or
    every positive one where there are fewer. Threshold-based rules never
    split a tied group of singular values. The energy rule sums the squares
    of s / 2^e, with e the exponent of s_1: the power of two is exact, so k
    does not depend on the spectrum's scale, and no square overflows.
    Raises RankError when the spectrum is all zero or not finite.
    """
    s = _float_array(singular_values, "singular values", RankError)
    if s.ndim != 1 or s.size == 0:
        raise RankError("need a non-empty 1-D singular spectrum")
    if not np.all(np.isfinite(s)):
        raise RankError("non-finite singular spectrum")
    if np.any(np.diff(s) > _TIE_REL * s[0]):
        raise RankError("singular values must be non-increasing")
    if s[0] <= 0.0:
        raise RankError("all-zero spectrum")
    n_positive = int(np.sum(s > _ZERO_REL * s[0]))

    if rule.kind == "fixed":
        return min(rule.k, n_positive)

    if rule.kind == "energy":
        energy = np.cumsum(np.ldexp(s, -int(np.frexp(s[0])[1])) ** 2)
        k = int(np.searchsorted(energy, rule.fraction * energy[-1] - 1e-15 * energy[-1])) + 1
        k = min(k, n_positive)
        return _extend_ties(s, k, n_positive)

    # universal threshold
    try:
        rows, cols = (_integer(n, "a shape entry", 1) for n in shape)
    except (TypeError, ValueError):  # not a pair of positive integers
        raise RankError(f"invalid shape {shape!r}") from None
    beta = min(rows, cols) / max(rows, cols)
    threshold = _omega(beta) * float(np.median(s))
    k = int(np.sum(s > threshold))
    k = max(1, min(k, n_positive))
    return _extend_ties(s, k, n_positive)
