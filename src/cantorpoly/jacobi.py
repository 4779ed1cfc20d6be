"""Recurrence coefficients, arbitrary-degree polynomials, and eigensolves.

The three-term recurrence used throughout is the monic one,

    x P_n(x) = P_{n+1}(x) + b_{n+1} P_n(x) + a_n^2 P_{n-1}(x),

with P_{-1} = 0 and P_0 = 1. The coefficients of mu_gamma come directly
from the polynomial-mapping structure of the generating maps, by a
level-by-level unfolding with no nodes and no iteration
(``jacobi_for_gamma``). Coefficients of discrete measures are recovered
by a discretized Stieltjes procedure in its orthonormal (Lanczos)
formulation with full reorthogonalization; applied to the refinement
measures it serves as an independent cross-check of the unfolding.
Zeros of P_n are eigenvalues of the n-by-n Jacobi truncation. The fast
path is one LAPACK symmetric eigensolve; only when neighbouring
eigenvalues approach the double-precision resolution limit is the solve
escalated to a double-double Sturm-count bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .ddouble import DoubleDouble
from .errors import ConvergenceError, DomainError
from .exact import MapFamily, ZeroSet
from .geometry import all_branch_values
from .serialize import csv_text

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_LANCZOS_BREAKDOWN = 256.0 * _EPS
_DD_ESCALATION_FACTOR = 1e3


# ---------------------------------------------------------------------------
# measures and matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite probability measure: sorted nodes with positive weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise DomainError("nodes and weights must be 1-d arrays of equal length")
        if nodes.size > 1 and not np.all(np.diff(nodes) > 0):
            raise DomainError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise DomainError("weights must be positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1 within 1e-12")

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    def __len__(self):
        return self.nodes.size

    def to_csv(self) -> str:
        return csv_text(["node", "weight"], list(zip(self.nodes, self.weights)))

    @classmethod
    def from_csv(cls, text: str) -> "DiscreteMeasure":
        nodes, weights = [], []
        for line in text.strip().splitlines()[1:]:
            n, w = line.split(",")
            nodes.append(float(n))
            weights.append(float(w))
        return cls(np.array(nodes), np.array(weights))


@dataclass(frozen=True)
class JacobiMatrix:
    """Recurrence coefficients b_1..b_K (diagonal) and a_1..a_{K-1}.

    valid_length is the number of certified coefficients: P_n can be
    evaluated and eigensolved for n <= valid_length. a_K does not exist
    at the truncation limit K = node count, hence the one-shorter array.
    """

    a: np.ndarray
    b: np.ndarray
    valid_length: int = field(default=-1)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.valid_length == -1:
            object.__setattr__(self, "valid_length", b.size)
        if a.size != b.size - 1:
            raise DomainError("need exactly one fewer off-diagonal than diagonal entries")
        if not 1 <= self.valid_length <= b.size:
            raise DomainError("valid_length out of range")
        if not np.all((a > 0) & (a < 1)):
            raise DomainError("off-diagonal coefficients must lie in (0, 1)")
        if not np.all((b > 0) & (b < 1)):
            raise DomainError("diagonal coefficients must lie in (0, 1)")

    def to_csv(self) -> str:
        rows = []
        for k in range(self.b.size):
            ak = self.a[k] if k < self.a.size else None
            rows.append((k + 1, ak, self.b[k]))
        return csv_text(["k", "a_k", "b_k"], rows)

    @classmethod
    def from_csv(cls, text: str) -> "JacobiMatrix":
        a, b = [], []
        for line in text.strip().splitlines()[1:]:
            _, ak, bk = line.split(",")
            if ak:
                a.append(float(ak))
            b.append(float(bk))
        return cls(np.array(a), np.array(b))


# ---------------------------------------------------------------------------
# refinement measures and coefficient recovery
# ---------------------------------------------------------------------------

def refinement_measure(fam: MapFamily, N: int, a_target: float) -> DiscreteMeasure:
    """Equal-weight counting measure on the 2^N solutions of F_N(z) = a.

    Requires |a| < 1 so the preimages stay one per level-N basic interval
    and pairwise distinct.
    """
    if N < 1:
        raise DomainError("refinement depth must be >= 1")
    if not -1.0 < a_target < 1.0:
        raise DomainError(f"refinement target {a_target} outside (-1, 1)")
    nodes = np.sort(np.asarray(all_branch_values(fam.gamma, N, a_target)))
    return DiscreteMeasure(nodes, np.full(nodes.size, 2.0 ** -N))


def stieltjes_lanczos(measure: DiscreteMeasure, K: int) -> JacobiMatrix:
    """Recurrence coefficients of a discrete measure, k = 1..K.

    Lanczos on diag(nodes) started from sqrt(weights), with two-pass full
    reorthogonalization. With K equal to the node count the recovered
    matrix reproduces the measure's own Gauss rule. A collapsed norm
    (orthogonality exhausted) truncates the output, with valid_length set
    to the last safe index.
    """
    x = measure.nodes
    w = measure.weights
    M = x.size
    if not 1 <= K <= M:
        raise DomainError(f"requested {K} coefficients from a {M}-node measure")
    Q = np.empty((K, M))
    Q[0] = np.sqrt(w)
    b = np.empty(K)
    a = np.empty(K - 1 if K > 1 else 0)
    beta_prev = 0.0
    kept = K
    for k in range(K):
        v = x * Q[k]
        b[k] = float(Q[k] @ v)
        if k == K - 1:
            break
        v -= b[k] * Q[k]
        if k > 0:
            v -= beta_prev * Q[k - 1]
        for _ in range(2):
            v -= Q[: k + 1].T @ (Q[: k + 1] @ v)
        beta = float(np.sqrt(v @ v))
        if beta <= _LANCZOS_BREAKDOWN:
            kept = k + 1
            break
        a[k] = beta
        Q[k + 1] = v / beta
        beta_prev = beta
    return JacobiMatrix(a[: max(kept - 1, 0)], b[:kept], valid_length=kept)


def jacobi_for_gamma(fam: MapFamily, K: int) -> JacobiMatrix:
    """Recurrence coefficients b_1..b_K and a_1..a_{K-1} of mu_gamma.

    f_n (n >= 2) is an even quadratic and f_1 is even about 1/2, so
    mu_gamma is a balanced pullback and its coefficients unfold level by
    level through the symmetric-square relations (Chihara, Sec. I.8;
    Geronimo and Van Assche, Trans. AMS 308, 1988). Level k holds the
    squared off-diagonals c of the zero-diagonal Jacobi matrix of the
    level-k pullback; with those of level k + 1 as q,

        c_1 = bp_k,  c_{2n} = s_k q_n / c_{2n-1},  c_{2n+1} = bp_k - c_{2n},

    where bp_k = 1 - 2 gamma_k, s_k = 4 gamma_k^2 for k >= 2 and
    bp_1 = 1/4 - gamma_1/2, s_1 = gamma_1^2/4. Level 1 needs K - 1
    entries and each deeper level half as many, so the recursion starts
    at the first level that needs only c_1 and no seed measure is
    involved. Then a_k = sqrt(c_k) and b_k = 1/2 exactly. The result is a
    bit-identical prefix of the result for any larger K.

    Raises ArithmeticError if rounding drives some c_k to a non-positive
    or non-finite value (cancellation in bp_k - c_{2n}).
    """
    if K < 1:
        raise DomainError("coefficient count must be >= 1")
    needs = [K - 1]
    while needs[-1] > 1:
        needs.append(needs[-1] // 2)
    q: list[float] = []
    for k in range(len(needs), 0, -1):
        g = fam.gamma.value(k)
        if k == 1:
            bp, s = float(Fraction(1, 4) - g / 2), float(g * g / 4)
        else:
            bp, s = float(1 - 2 * g), float(4 * g * g)
        c = [bp]
        for i in range(1, needs[k - 1]):
            c.append(s * q[i // 2] / c[-1] if i % 2 else bp - c[-1])
            if not 0.0 < c[-1] < math.inf:
                raise ArithmeticError(
                    f"squared coefficient c_{i + 1} = {c[-1]} at level {k} lost all precision"
                )
        q = c
    return JacobiMatrix(np.sqrt(np.asarray(q[: K - 1])), np.full(K, 0.5))


# ---------------------------------------------------------------------------
# polynomial evaluation
# ---------------------------------------------------------------------------

def opoly_eval(J: JacobiMatrix, n: int, x):
    """Monic P_n(x) by the three-term recurrence; accepts scalars or arrays."""
    if not 0 <= n <= J.valid_length:
        raise DomainError(f"degree {n} exceeds certified length {J.valid_length}")
    p_prev = np.zeros_like(np.asarray(x, dtype=float))
    p = np.ones_like(p_prev)
    for k in range(n):
        asq = J.a[k - 1] ** 2 if k > 0 else 0.0
        p, p_prev = (x - J.b[k]) * p - asq * p_prev, p
    if np.ndim(x) == 0:
        return float(p)
    return p


# ---------------------------------------------------------------------------
# tridiagonal eigensolve: LAPACK fast path, double-double Sturm escalation
# ---------------------------------------------------------------------------

def _gershgorin(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    rad = np.zeros_like(d)
    if e.size:
        rad[:-1] += np.abs(e)
        rad[1:] += np.abs(e)
    return float(np.min(d - rad)), float(np.max(d + rad))


def _tridiagonal(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _eigvals_lapack(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending.

    One LAPACK symmetric eigensolve (``numpy.linalg.eigvalsh``) of the
    assembled matrix; backward stable, so each eigenvalue is accurate to a
    few eps times the spectral norm.
    """
    n = d.size
    if n == 1:
        return d.copy()
    return np.linalg.eigvalsh(_tridiagonal(d, e))


def _sturm_count_dd(d: list, esq: list, x: DoubleDouble, pivmin: float) -> int:
    q = d[0] - x
    if abs(q) < DoubleDouble(pivmin):
        q = DoubleDouble(-pivmin)
    cnt = 1 if q < 0.0 else 0
    for k in range(1, len(d)):
        q = (d[k] - x) - esq[k - 1] / q
        if abs(q) < DoubleDouble(pivmin):
            q = DoubleDouble(-pivmin)
        if q < 0.0:
            cnt += 1
    return cnt


def _eigvals_bisect_dd(d_f: np.ndarray, e_f: np.ndarray) -> list:
    """All eigenvalues by double-double Sturm-count bisection, one at a time.

    The coefficients are promoted exactly; the extra 53 bits let brackets
    resolve spacings far below the double-precision resolution of the
    spectral width.
    """
    n = d_f.size
    d = [DoubleDouble(v) for v in d_f]
    esq = [DoubleDouble(v) * DoubleDouble(v) for v in e_f]
    glo, ghi = _gershgorin(d_f, e_f)
    width = ghi - glo
    target = DoubleDouble(1e-29) * width
    out = []
    for i in range(n):
        lo = DoubleDouble(glo)
        hi = DoubleDouble(ghi)
        for _ in range(220):
            mid = (lo + hi) * 0.5
            if _sturm_count_dd(d, esq, mid, _TINY) > i:
                hi = mid
            else:
                lo = mid
            if hi - lo <= target:
                break
        else:
            raise ConvergenceError("double-double bisection exhausted its iteration budget")
        out.append((lo + hi) * 0.5)
    return out


def eigen_zeros(J: JacobiMatrix, n: int) -> ZeroSet:
    """Zeros of P_n as eigenvalues of the n-by-n Jacobi truncation.

    The eigenvalues come from one LAPACK eigensolve, ascending. If
    consecutive ones come out closer than 1e3 * eps * Gershgorin width,
    the solve is repeated by double-double Sturm-count bisection and the
    result is flagged as escalated, with the dd values in points_dd.
    """
    if not 1 <= n <= J.valid_length:
        raise DomainError(f"degree {n} exceeds certified length {J.valid_length}")
    d = J.b[:n]
    e = J.a[: n - 1]
    vals = _eigvals_lapack(d, e)
    if n >= 2:
        glo, ghi = _gershgorin(d, e)
        if float(np.min(np.diff(vals))) < _DD_ESCALATION_FACTOR * _EPS * (ghi - glo):
            dd_vals = _eigvals_bisect_dd(d, e)
            return ZeroSet(degree=n, points=np.asarray([float(v) for v in dd_vals]),
                           provenance="eigensolve", escalated=True,
                           points_dd=tuple(dd_vals))
    return ZeroSet(degree=n, points=vals, provenance="eigensolve", escalated=False)


def sign_alternation_ok(J: JacobiMatrix, zs: ZeroSet) -> bool:
    """Check that P_n changes sign across consecutive computed zeros."""
    n = zs.degree
    if n < 2:
        return True
    mids = 0.5 * (zs.points[:-1] + zs.points[1:])
    signs = np.sign(opoly_eval(J, n, np.concatenate([[zs.points[0] - 1e-9], mids,
                                                     [zs.points[-1] + 1e-9]])))
    return bool(np.all(signs[:-1] * signs[1:] < 0))


# ---------------------------------------------------------------------------
# Gauss quadrature measures
# ---------------------------------------------------------------------------

def gauss_measure(J: JacobiMatrix, r: int) -> DiscreteMeasure:
    """The r-point Gauss rule of the measure represented by J.

    Nodes are the zeros of P_r; the weights follow Golub and Welsch
    (Math. Comp. 23, 1969): each is the squared first component of the
    corresponding normalized eigenvector of the r-by-r Jacobi truncation,
    taken from one LAPACK symmetric eigensolve. The rule integrates any
    polynomial of degree <= 2r - 1 exactly against the moment functional
    of J.
    """
    if not 1 <= r <= J.valid_length:
        raise DomainError(f"rule size {r} exceeds certified length {J.valid_length}")
    if r == 1:
        return DiscreteMeasure(np.array([J.b[0]]), np.array([1.0]))
    _, vecs = np.linalg.eigh(_tridiagonal(J.b[:r], J.a[: r - 1]))
    w = vecs[0] ** 2
    total = float(w.sum())
    if not np.all(w > 0) or abs(total - 1.0) > 1e-8:
        raise ConvergenceError(
            f"eigenvector first components give unusable weights (sum {total})"
        )
    return DiscreteMeasure(eigen_zeros(J, r).points, w / total)


def moments(J: JacobiMatrix, max_degree: int) -> np.ndarray:
    """Power moments of the measure represented by J, degrees 0..max_degree.

    Computed as the top-left entries of powers of the Jacobi truncation;
    exact (up to rounding) while max_degree <= 2 * valid_length - 1.
    """
    if max_degree > 2 * J.valid_length - 1:
        raise DomainError("moment degree exceeds what the truncation determines")
    size = J.valid_length
    b = J.b[:size]
    asq = J.a[: size - 1] ** 2
    v = np.zeros(size)
    v[0] = 1.0
    out = np.empty(max_degree + 1)
    out[0] = 1.0
    for j in range(1, max_degree + 1):
        nxt = b * v
        if size > 1:
            nxt[:-1] += J.a[: size - 1] * v[1:]
            nxt[1:] += J.a[: size - 1] * v[:-1]
        v = nxt
        out[j] = v[0]
    return out
