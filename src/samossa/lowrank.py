"""SVD, hard singular value thresholding, and data-driven rank selection.

:class:`PageSvds` alone decides which SVD of a Page matrix serves stage 1:
the spectrum a rank rule reads, and the top-row triplets the lag model's
beta is solved on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankError, _integer, _is_real

__all__ = [
    "SvdResult", "RankRule", "PageSvds", "svd", "takes_topk", "hsvt", "select_rank",
]

# Singular values below this relative floor count as zero.
_ZERO_REL = 1e-14

# Two singular values within this relative gap are a tied group; threshold
# rules never split one (the retained subspace would be ill-defined).
_TIE_REL = 1e-12

# svd(matrix, k) takes k ARPACK triplets instead of every LAPACK triplet
# from this smaller side up, while k is at most a tenth of it. At 1 BLAS
# thread the dense SVD of a square Page-like matrix takes 0.088 s at 500,
# 0.15 s at 600 and 0.60 s at 1000; ARPACK with k = 6 takes 0.006 s, 0.009 s
# and 0.023 s. On pure noise, where no gap speeds ARPACK up, it costs as much
# as the dense call at k = 60 of 600 and k = 100 of 1000. The Page matrices
# of at most 500 rows that the search and the CLI tests fit keep the dense
# path and its bits.
_TOPK_MIN_DIM = 600

# A PageSvds downdate head divides by the square roots of the top k
# eigenvalues of the downdated Gram, scaled so that s_1 is in [1/2, 1), and
# keeps the top k eigenvectors: it answers only when the k-th eigenvalue and
# the gap below it both exceed this floor, far above the secular roots'
# absolute error of a few eps (within 2.2e-16 of eigh's on the benchmark's
# heads, 1.4e-15 on random ones). The seven beta solves of
# forecast_benchmark_run(0) have their smallest eigenvalue at 5.8e-4 and their
# smallest gap at 6.6e-6, 660 times the floor. A split tie (a period-3
# sawtooth's s_2 = s_3) or a k past the rank of the remaining rows falls
# below it.
_DOWNDATE_TOL = 1e-8

# The rounding bound on a downdate head's vectors: it declines when an entry
# of W_k^T W_k - I exceeds this. Heads that answer measure at most 1.1e-15 on
# the benchmark and 1.4e-14 on 3 000 random heads with poles clustered down
# to an ulp apart; the few of those whose poles an ulp apart cannot be
# resolved measure 8e-5 and more. At 1e-10 a vector error stays well inside
# the 1e-8 that the head's subspace is tested to.
_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class SvdResult:
    """Singular triplets, values in non-increasing order: every one, or a top-k head."""

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def truncate(self, k: int) -> np.ndarray:
        """Best rank-k reconstruction."""
        u = self.left_vectors[:, :k]
        s = self.singular_values[:k]
        vt = self.right_vectors[:, :k].T
        return (u * s) @ vt


def takes_topk(shape: tuple[int, int], k: int | None) -> bool:
    """Whether ``svd`` of a matrix of ``shape`` computes only the top ``k`` triplets."""
    return k is not None and min(shape) >= _TOPK_MIN_DIM and 10 * k <= min(shape)


def svd(matrix: np.ndarray, k: int | None = None) -> SvdResult:
    """Deterministic SVD; right vectors come back as columns.

    Without ``k``, every triplet from one dense LAPACK call. With ``k``, the
    top k triplets: from ARPACK when :func:`takes_topk` says so, started
    from a fixed Gaussian vector, otherwise the dense result sliced to k
    (every triplet when k reaches the smaller side). The dense path is the
    oracle. It also serves a matrix whose k-th value is at or below the zero
    floor, whose positive values must be counted exactly.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if k is not None and k < 1:
        raise RankError(f"need k >= 1 singular triplets, got {k}")
    if takes_topk(a.shape, k):
        head = _arpack(a, k)
        if head is not None and head.singular_values[-1] > _ZERO_REL * head.singular_values[0]:
            return head
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return SvdResult(singular_values=s[:k], left_vectors=u[:, :k], right_vectors=vt[:k].T)


class PageSvds:
    """The SVDs stage 1 takes of one Page matrix A, each computed once, on first use.

    :meth:`for_rule` gives the SVD of A that serves a rank rule: a K-head for
    ``fixed:K`` where :func:`takes_topk` allows, else the one dense SVD.
    :meth:`top_rows` gives the top k triplets of A[:-1], for the lag
    regression. The answer depends only on A and the request, never on the
    order of calls. Every SVD taken is kept (a head is only K vectors per
    side), and nothing else: a downdate head is worked out on each request,
    in O(k r) time and memory for r singular values.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        # k of a top-k head, or None for every triplet -> SVD of A
        self._svds: dict[int | None, SvdResult] = {}

    def _svd(self, k: int | None) -> SvdResult:
        key = k if takes_topk(self.matrix.shape, k) else None
        if key not in self._svds:
            self._svds[key] = svd(self.matrix, k=key)
        return self._svds[key]

    def for_rule(self, rule: RankRule) -> SvdResult:
        """The SVD of A that serves ``rule``, one object per matrix or head."""
        return self._svd(rule.k if rule.kind == "fixed" else None)

    def top_rows(self, k: int) -> SvdResult:
        """The top k >= 0 triplets of A[:-1] (at least one): an ARPACK head where
        :func:`takes_topk` allows, else the dense SVD's downdate head, unless it
        declines, else :func:`svd` of A[:-1]."""
        top = self.matrix[:-1]
        head = None if takes_topk(top.shape, k) else self._downdate_head(k)
        return head or svd(top, max(k, 1))

    def _downdate_head(self, k: int) -> SvdResult | None:
        """The top k triplets of A[:-1] off the dense SVD of A, or None if not clear of rounding.

        The dense SVD A = U S V^T gives A' = A[:-1] = U[:-1] S V^T, and
        A'^T A' = V (S^2 - z z^T) V^T with z = S U[-1], a rank-one downdate
        (Bunch, Nielsen & Sorensen 1978; Gu & Eisenstat 1995). With
        S^2 - z z^T = W diag(lambda) W^T in descending order, the top k
        triplets of A' are sqrt(lambda_k), U[:-1] S W_k / sqrt(lambda_k) and
        V W_k. The top k + 1 eigenvalues and the top k eigenvectors are
        :func:`_secular_head`'s roots of the downdate's secular equation, in
        O(k r) for r singular values. S is first scaled by a power of two so
        that s_1 is in [1/2, 1), which is exact and keeps S^2 in range. None
        when k < 1, s_1 is not positive and finite, the secular form cannot
        certify the head, or the k-th eigenvalue or the gap below it is at or
        below the rounding floor ``_DOWNDATE_TOL`` (a zero or tied k-th value).
        """
        full = self._svd(None)
        s = full.singular_values
        if k < 1 or not 0.0 < s[0] < np.inf:
            return None
        scale = int(np.frexp(s[0])[1])
        s = np.ldexp(s, -scale)
        k = min(k, s.size)
        head = _secular_head(s * s, s * full.left_vectors[-1], k)
        if head is None:
            return None
        lam, w = head
        gap = lam[k - 1] - lam[k] if k < lam.size else lam[k - 1]
        if not (lam[k - 1] > _DOWNDATE_TOL and gap > _DOWNDATE_TOL):
            return None
        root = np.sqrt(lam[:k])
        return SvdResult(singular_values=np.ldexp(root, scale),
                         left_vectors=full.left_vectors[:-1] @ (s[:, None] * w) / root,
                         right_vectors=full.right_vectors @ w)


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


def _arpack(a: np.ndarray, k: int) -> SvdResult | None:
    """The top k triplets from ARPACK, or None if it fails (a zero matrix does)."""
    from scipy.sparse.linalg import ArpackError, svds  # scipy is slow to import

    # ARPACK iterates on a^T a, whose entries overflow or underflow for
    # extreme magnitudes; scaling by a power of two is exact.
    exp = int(np.frexp(np.abs(a).max())[1])
    start = np.random.default_rng(0).standard_normal(min(a.shape))
    try:
        u, s, vt = svds(np.ldexp(a, -exp), k=k, solver="arpack", v0=start)
    except ArpackError:  # no convergence, or no Krylov space to grow
        return None
    order = np.argsort(s)[::-1]
    return SvdResult(singular_values=np.ldexp(s[order], exp), left_vectors=u[:, order],
                     right_vectors=vt[order].T)


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
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise RankError("hsvt expects a 2-D matrix")
    if not 1 <= k <= min(matrix.shape):
        raise RankError(f"k={k} out of range for shape {matrix.shape}")
    return svd(matrix).truncate(k)


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
    the universal-threshold rule uses it. Threshold-based rules never split
    a tied group of singular values. The energy rule sums the squares of
    s / 2^e, with e the exponent of s_1: the power of two is exact, so k
    does not depend on the spectrum's scale, and no square overflows.
    Raises RankError when the spectrum is all zero or not finite.
    """
    s = np.asarray(singular_values, dtype=np.float64)
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
    rows, cols = shape
    if rows < 1 or cols < 1:
        raise RankError(f"invalid shape {shape}")
    beta = min(rows, cols) / max(rows, cols)
    threshold = _omega(beta) * float(np.median(s))
    k = int(np.sum(s > threshold))
    k = max(1, min(k, n_positive))
    return _extend_ties(s, k, n_positive)
