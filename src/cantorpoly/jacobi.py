"""Recurrence coefficients, arbitrary-degree polynomials, and eigensolves.

The three-term recurrence used throughout is the monic one,

    x P_n(x) = P_{n+1}(x) + b_{n+1} P_n(x) + a_n^2 P_{n-1}(x),

with P_{-1} = 0 and P_0 = 1. Coefficients are recovered from discrete
refinement measures by a discretized Stieltjes procedure, implemented in
its orthonormal (Lanczos) formulation with full reorthogonalization; the
raw monic norms would underflow long before degree 256 on these
measures. Zeros of P_n are eigenvalues of the n-by-n Jacobi truncation.
The fast path is one LAPACK symmetric eigensolve; only when neighbouring
eigenvalues approach the double-precision resolution limit is the solve
escalated to a double-double Sturm-count bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        if np.any(a <= 0) or np.any(a >= 1):
            raise DomainError("off-diagonal coefficients must lie in (0, 1)")
        if np.any(b <= 0) or np.any(b >= 1):
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


@dataclass(frozen=True)
class AccuracyControl:
    """Stabilization policy for coefficient recovery across depths."""

    tol: float = 1e-10
    max_depth: int = 14
    start_depth: int | None = None

    def __post_init__(self):
        if self.tol <= 0:
            raise DomainError("stabilization tolerance must be positive")


@dataclass(frozen=True)
class ConvergenceInfo:
    """Per-coefficient change between the last two refinement depths.

    history records (depth, max coefficient change against the previous
    depth) for every step taken, so a failure of the changes to shrink is
    visible in the diagnostics.
    """

    depths: tuple[int, ...]
    delta_a: np.ndarray
    delta_b: np.ndarray
    history: tuple[tuple[int, float], ...] = ()

    @property
    def max_change(self) -> float:
        return max(
            float(self.delta_a.max(initial=0.0)),
            float(self.delta_b.max(initial=0.0)),
        )


def _coefficient_change(j1: JacobiMatrix, j2: JacobiMatrix, K: int) -> ConvergenceInfo:
    ka = min(K - 1, j1.a.size, j2.a.size)
    kb = min(K, j1.b.size, j2.b.size)
    return ConvergenceInfo(
        depths=(0, 0),
        delta_a=np.abs(j1.a[:ka] - j2.a[:ka]),
        delta_b=np.abs(j1.b[:kb] - j2.b[:kb]),
    )


def jacobi_for_gamma(fam: MapFamily, K: int, control: AccuracyControl = AccuracyControl(),
                     with_convergence: bool = False):
    """Recurrence coefficients of the limit measure, certified by depth
    stabilization.

    Runs the Stieltjes recovery on refinement measures of increasing depth
    N (starting where K <= 2^(N-2) holds) until coefficients 1..K agree
    between consecutive depths to control.tol. Raises ConvergenceError,
    carrying the last two iterates, if the budget is exhausted.
    """
    if K < 1:
        raise DomainError("coefficient count must be >= 1")
    start = control.start_depth or max(math.ceil(math.log2(K)) + 2, 3)
    if K > 2 ** (start - 2):
        raise DomainError(f"start depth {start} violates K <= 2^(N-2)")
    if start + 1 > control.max_depth:
        raise DomainError(f"depth budget {control.max_depth} cannot fit K={K}")
    prev = stieltjes_lanczos(refinement_measure(fam, start, 0.0), K)
    history: list[tuple[int, float]] = []
    for N in range(start + 1, control.max_depth + 1):
        cur = stieltjes_lanczos(refinement_measure(fam, N, 0.0), K)
        step = _coefficient_change(prev, cur, K)
        history.append((N, step.max_change))
        if prev.valid_length >= K and cur.valid_length >= K and step.max_change <= control.tol:
            info = ConvergenceInfo((N - 1, N), step.delta_a, step.delta_b,
                                   history=tuple(history))
            out = JacobiMatrix(cur.a[: K - 1], cur.b[:K], valid_length=K)
            return (out, info) if with_convergence else out
        prev = cur
    raise ConvergenceError(
        f"coefficients not stable to {control.tol} within depth {control.max_depth}",
        diagnostics={"last": prev, "history": history},
    )


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
