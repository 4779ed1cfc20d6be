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
Zeros of P_n are eigenvalues of the n-by-n Jacobi truncation, and the
truncations of one matrix are leading blocks of the largest, so several
degrees share one set-up (``eigen_zero_sets``). The fast path is one
LAPACK solve per degree. Where the diagonal is constant, as it is
(b_k = 1/2) for every mu_gamma, the shifted truncation has a zero
diagonal and its eigenvalues are plus and minus the singular values of
a bidiagonal with floor(n/2) columns. Its two diagonals are split off
once for the largest degree, and each degree hands their leading entries
to LAPACK's dqds (``dlasq1``), which finds every singular value to high
relative accuracy in O(n^2). numpy does not wrap ``dlasq1``; it is looked
up once, at import, in the LAPACK that numpy's linalg extension links
(the scipy-openblas of numpy's wheels). Where that LAPACK lacks it, the
bidiagonal of each degree is assembled densely for ``numpy.linalg.svd``.
These solves release the interpreter lock, so a batch large enough to
repay the hand-offs is split across threads, one per CPU of the
process's affinity mask; dlasq1 is reentrant, and the zeros do not
depend on the number of threads.
Any other diagonal gets one symmetric eigensolve at full size. Only
when neighbouring eigenvalues approach the double-precision resolution
limit is the solve escalated to a Sturm-count bisection of the full
matrix in 34-digit ``decimal`` arithmetic; the zero set of that degree
then holds the Decimal values, and its points are their double view.
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, DomainError
from .exact import MapFamily, ZeroSet, min_gap_with_index
from .geometry import all_branch_values, as_decimal, extended_context
from .serialize import csv_text

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_LANCZOS_BREAKDOWN = 256.0 * _EPS
_DD_ESCALATION_FACTOR = 1e3
_UNFOLD_DIGITS = 50  # and twice as many, to check the first run
_THREAD_WORK = 1 << 16  # sum of (n//2)^2 from which a batch's dqds calls are threaded
_CALL_WORK = 128  # the fixed cost of one dqds call, in units of (n//2)^2


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
        return csv_text(["node", "weight"], [self.nodes, self.weights])

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

    Every coefficient held is certified, so P_n can be evaluated and
    eigensolved for n <= K = b.size. a_K does not exist at the truncation
    limit K = node count, hence the one-shorter array.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.size != b.size - 1:
            raise DomainError("need exactly one fewer off-diagonal than diagonal entries")
        if not np.all((a > 0) & (a < 1)):
            raise DomainError("off-diagonal coefficients must lie in (0, 1)")
        if not np.all((b > 0) & (b < 1)):
            raise DomainError("diagonal coefficients must lie in (0, 1)")

    def to_csv(self) -> str:
        """One row per k; a_K does not exist, so the last a_k is empty."""
        K = self.b.size
        return csv_text(["k", "a_k", "b_k"], [range(1, K + 1), self.a.tolist() + [None], self.b])

    @classmethod
    def from_csv(cls, text: str) -> "JacobiMatrix":
        """Parse the to_csv layout; any other layout raises DomainError.

        The header is k,a_k,b_k, k runs 1..K in order, and a_k is empty on
        the last row and on no other.
        """
        lines = text.strip().splitlines()
        if not lines or lines[0] != "k,a_k,b_k":
            raise DomainError("jacobi file must start with the header k,a_k,b_k")
        rows = [line.split(",") for line in lines[1:]]
        if not rows or any(len(row) != 3 for row in rows):
            raise DomainError("jacobi file needs at least one row of three fields")
        K = len(rows)
        if [row[0] for row in rows] != [str(k) for k in range(1, K + 1)]:
            raise DomainError(f"jacobi file rows must run k = 1..{K} in order")
        if [k for k, row in enumerate(rows, start=1) if not row[1]] != [K]:
            raise DomainError("a_k must be empty on the last row and on no other")
        try:
            a = [float(row[1]) for row in rows[:-1]]
            b = [float(row[2]) for row in rows]
        except ValueError as exc:
            raise DomainError(f"malformed number in jacobi file: {exc}") from None
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
    (orthogonality exhausted) truncates the output after the last safe
    index, so it may hold fewer than K coefficients.
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
    return JacobiMatrix(a[: max(kept - 1, 0)], b[:kept])


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

    bp_k - c_{2n} cancels where a gamma_k near 1/4 sits above a tiny
    gamma_{k+1}, so the unfolding runs in decimal at 50 and at 100 digits.
    Raises ArithmeticError naming the level where some c_k is not positive,
    or where the two runs, rounded to double, differ beyond 4 eps relative.
    """
    if K < 1:
        raise DomainError("coefficient count must be >= 1")
    needs = [K - 1]
    while needs[-1] > 1:
        needs.append(needs[-1] // 2)
    runs = []
    for digits in (_UNFOLD_DIGITS, 2 * _UNFOLD_DIGITS):
        levels, q = [], []
        with localcontext(extended_context(digits)):
            for k in range(len(needs), 0, -1):
                g = fam.gamma.value(k)
                bp, s = (Fraction(1, 4) - g / 2, g * g / 4) if k == 1 else (1 - 2 * g, 4 * g * g)
                bp, s = as_decimal(bp), as_decimal(s)
                c = [bp]
                for i in range(1, needs[k - 1]):
                    c.append(s * q[i // 2] / c[-1] if i % 2 else bp - c[-1])
                    if not c[-1] > 0:
                        raise ArithmeticError(f"squared coefficient c_{i + 1} = {c[-1]:.3e} "
                                              f"at level {k} lost all precision")
                levels.append(np.asarray(c, dtype=float))
                q = c
        runs.append(levels)
    for k, x, y in zip(range(len(needs), 0, -1), *runs):
        if not np.all((y > 0) & (np.abs(x - y) <= 4 * _EPS * y)):
            raise ArithmeticError(f"squared coefficients at level {k} differ beyond 4 eps "
                                  f"between {_UNFOLD_DIGITS} and {2 * _UNFOLD_DIGITS} digits")
    return JacobiMatrix(np.sqrt(runs[1][-1][: K - 1]), np.full(K, 0.5))


# ---------------------------------------------------------------------------
# polynomial evaluation
# ---------------------------------------------------------------------------

def opoly_eval(J: JacobiMatrix, n: int, x):
    """Monic P_n(x) by the three-term recurrence; accepts scalars or arrays."""
    if not 0 <= n <= J.b.size:
        raise DomainError(f"degree {n} exceeds the {J.b.size} coefficients")
    p_prev = np.zeros_like(np.asarray(x, dtype=float))
    p = np.ones_like(p_prev)
    for k in range(n):
        asq = J.a[k - 1] ** 2 if k > 0 else 0.0
        p, p_prev = (x - J.b[k]) * p - asq * p_prev, p
    if np.ndim(x) == 0:
        return float(p)
    return p


# ---------------------------------------------------------------------------
# tridiagonal eigensolve: LAPACK fast path, decimal Sturm escalation
# ---------------------------------------------------------------------------

def _gershgorin_prefix(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gershgorin bounds of every leading truncation J_n, n >= 2, at index n - 2.

    Rows 0..n-2 of J_n have the radii of the full matrix; its last row
    has only |e_{n-2}|. Radii are summed in the same order for every n,
    so each bound is the one of J_n assembled on its own.
    """
    rad = np.zeros_like(d)
    rad[:-1] += np.abs(e)
    rad[1:] += np.abs(e)
    lo = np.minimum(np.minimum.accumulate(d - rad)[:-1], d[1:] - np.abs(e))
    hi = np.maximum(np.maximum.accumulate(d + rad)[:-1], d[1:] + np.abs(e))
    return lo, hi


def _tridiagonal(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    n = d.size
    T = np.zeros((n, n))
    flat = T.reshape(-1)
    flat[:: n + 1] = d
    flat[1 :: n + 1] = e
    flat[n :: n + 1] = e
    return T


def _find_dlasq1():
    """LAPACK's dlasq1 (dqds) from the LAPACK that numpy's linalg extension links, or None.

    dlsym on the extension's handle also searches the libraries it links,
    which in numpy's wheels is the bundled scipy-openblas with 64-bit
    integers. Only the ILP64 names are accepted, so N and INFO are int64.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError, AttributeError):
        return None
    for name in ("scipy_dlasq1_64_", "dlasq1_64_"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = None
            fn.argtypes = [ctypes.c_void_p] * 5
            return fn
    return None


_DLASQ1 = _find_dlasq1()


class _HalfSizeSolver:
    """Singular values of the half-size bidiagonal of every J_n - d_0 I, n <= e.size + 1.

    e is the off-diagonal of the largest truncation. The bidiagonal B_n of
    J_n is its odd rows against its even columns: n - n//2 rows, n//2
    columns, e_1, e_3, ... on the diagonal and e_2, e_4, ... below it, so
    every n reads leading entries of the same two diagonals. For odd n, B_n
    has one row more than columns; a 0 appended to its diagonal makes it
    square and adds the singular value 0 and nothing else.

    Each solve is one call of dlasq1 (dqds; Fernando and Parlett, Numer.
    Math. 67, 1994) on the two diagonals, O(n^2), in buffers and a
    workspace allocated once per solver. Where numpy's LAPACK has no
    dlasq1, B_n is assembled densely and handed to ``numpy.linalg.svd``.
    """

    def __init__(self, e: np.ndarray):
        self.n_max = e.size + 1
        self.diag = np.ascontiguousarray(e[0::2])
        self.sub = np.ascontiguousarray(e[1::2])
        self._allocate()

    def _allocate(self):
        self.size = size = self.diag.size + 1
        self.buf = np.empty(6 * size)  # dlasq1's D, E and 4 * size WORK
        self.io = np.zeros(2, dtype=np.int64)  # N, INFO
        d_ptr, io_ptr = self.buf.ctypes.data, self.io.ctypes.data
        self.args = (io_ptr, d_ptr, d_ptr + 8 * size, d_ptr + 16 * size, io_ptr + 8)

    def twin(self) -> "_HalfSizeSolver":
        """A solver that reads the same two diagonals, with a workspace of its own."""
        other = object.__new__(_HalfSizeSolver)
        other.n_max, other.diag, other.sub = self.n_max, self.diag, self.sub
        other._allocate()
        return other

    def sigma(self, n: int) -> np.ndarray:
        """The n//2 singular values of B_n, descending."""
        if not 2 <= n <= self.n_max:
            raise DomainError(f"degree {n} outside 2..{self.n_max} of this bidiagonal")
        m = n // 2
        k = n - m
        dlasq1 = _DLASQ1
        if dlasq1 is None:
            B = np.zeros((k, m))
            flat = B.reshape(-1)
            flat[:: m + 1] = self.diag[:m]
            flat[m :: m + 1] = self.sub[: k - 1]
            return np.linalg.svd(B, compute_uv=False)
        buf, size = self.buf, self.size
        buf[:m] = self.diag[:m]
        buf[m:k] = 0.0
        buf[size : size + k - 1] = self.sub[: k - 1]
        self.io[0] = k
        dlasq1(*self.args)
        if self.io[1]:
            raise ConvergenceError(f"dlasq1 returned INFO = {self.io[1]} at degree {n}")
        return buf[:m].copy()  # for odd n, drops the appended 0, the smallest


def _eigvals_lapack(d: np.ndarray, e: np.ndarray,
                    sigma: np.ndarray | None = None) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending.

    Without sigma the assembled n-by-n matrix gets one backward-stable
    symmetric eigensolve (``numpy.linalg.eigvalsh``), so each eigenvalue
    is accurate to a few eps times the spectral norm.

    sigma asserts a constant diagonal d_0: it is ``_HalfSizeSolver.sigma(n)``
    of this matrix or of any larger one with the same leading entries. T =
    J - d_0 I then has a zero diagonal, and its eigenvalues are plus and
    minus the singular values sigma of the (n - n//2)-by-(n//2) bidiagonal
    B_n, and 0 for odd n (Golub and Kahan, SIAM J. Numer. Anal. 2, 1965).
    Only sigma is computed, by LAPACK's dqds (``dlasq1``, looked up once
    through numpy's linalg extension), which finds every singular value of
    a bidiagonal to high relative accuracy; where numpy's LAPACK lacks it,
    ``numpy.linalg.svd`` of the dense B_n gives sigma to a few eps
    absolute. The eigenvalues are d_0 - sigma, d_0 + sigma and, for odd n,
    d_0 exactly. sigma carries no more than the absolute error of a direct
    solve, also near d_0, where the eigenvalues sigma^2 of the half-size
    block B^T B of T^2 would leave an error of about eps / (2 sigma).
    """
    n = d.size
    if n == 1:
        return d.copy()
    if sigma is None:
        return np.linalg.eigvalsh(_tridiagonal(d, e))
    mid = d[:1] if n % 2 else d[:0]
    return np.concatenate([d[0] - sigma, mid, d[0] + sigma[::-1]])


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _solve_share(half: _HalfSizeSolver, share: list, out: dict) -> None:
    # every degree of the share, ascending; a failure is kept for the caller
    for n in share:
        try:
            out[n] = half.sigma(n)
        except Exception as exc:  # re-raised by eigen_zero_sets at degree n
            out[n] = exc


def _half_size_sigmas(half: _HalfSizeSolver, ns: list) -> dict:
    """half.sigma(n), or the exception it raised, for every n in ns, on up to one thread per CPU.

    Each dlasq1 call releases the interpreter lock, so the calls of
    different degrees run in parallel. The degrees are dealt largest first
    to the least-loaded share, a call costing about (n//2)^2 plus a fixed
    overhead, and each share is solved in ascending order. The calling
    thread solves the first share and one daemon helper each of the
    others, each helper with a workspace of its own; every helper is joined
    before this returns. Below _THREAD_WORK in sum (n//2)^2, as for a verify
    run to degree 64, handing the lock between threads costs more than the
    second CPU saves, so the batch stays on the calling thread. dlasq1 keeps
    no state between calls (no SAVE variables since LAPACK 3.2), and each
    sigma depends on its degree alone, so the result is the same for any
    number of threads.
    """
    work = [(n // 2) ** 2 for n in ns]
    count = min(_cpu_count(), len(ns)) if sum(work) >= _THREAD_WORK else 1
    loads = [0] * count
    shares = [[] for _ in range(count)]
    for w, n in sorted(zip(work, ns), reverse=True):
        i = loads.index(min(loads))
        loads[i] += w + _CALL_WORK
        shares[i].append(n)
    outs = [{} for _ in shares]
    helpers = [threading.Thread(target=_solve_share, args=(half.twin(), sorted(share), out),
                                daemon=True)
               for share, out in zip(shares[1:], outs[1:])]
    try:
        for thread in helpers:
            thread.start()
        _solve_share(half, sorted(shares[0]), outs[0])
    finally:
        for thread in helpers:
            if thread.ident is not None:  # started
                thread.join()
    return {n: sigma for out in outs for n, sigma in out.items()}


def _sturm_count(d: list, esq: list, x: Decimal, pivmin: Decimal) -> int:
    q = d[0] - x
    if abs(q) < pivmin:
        q = -pivmin
    cnt = 1 if q < 0 else 0
    for k in range(1, len(d)):
        q = (d[k] - x) - esq[k - 1] / q
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0:
            cnt += 1
    return cnt


def _eigvals_bisect_decimal(d_f: np.ndarray, e_f: np.ndarray, glo: float, ghi: float) -> list:
    """All eigenvalues by Sturm-count bisection in 34-digit decimal, one at a time.

    [glo, ghi] is the Gershgorin hull of the matrix. The coefficients are
    taken exactly; the digits beyond double let the brackets resolve
    spacings far below the double-precision resolution of the spectral
    width, down to 1e-29 times that width.
    """
    n = d_f.size
    out = []
    with localcontext(extended_context()):
        d = [Decimal(v) for v in d_f]
        esq = [Decimal(v) * Decimal(v) for v in e_f]
        pivmin = Decimal(_TINY)
        target = Decimal("1e-29") * Decimal(ghi - glo)
        for i in range(n):
            lo = Decimal(glo)
            hi = Decimal(ghi)
            for _ in range(220):
                mid = (lo + hi) / 2
                if _sturm_count(d, esq, mid, pivmin) > i:
                    hi = mid
                else:
                    lo = mid
                if hi - lo <= target:
                    break
            else:
                raise ConvergenceError("decimal bisection exhausted its iteration budget")
            out.append((lo + hi) / 2)
    return out


def eigen_zero_sets(J: JacobiMatrix, degrees) -> dict[int, ZeroSet]:
    """Zeros of P_n for each requested degree n, keyed by n in ascending order.

    The truncations J_n are leading blocks of the largest one, J_N, so the
    set-up is done once for all degrees: the constant-diagonal test
    (leading blocks inside the constant run of the diagonal share the two
    diagonals of its half-size bidiagonal, and each solves leading slices
    of them; every other degree gets one symmetric eigensolve) and the
    Gershgorin bounds of every J_n, from one prefix pass. Each degree then
    costs one LAPACK solve. The dqds solves of the constant run are split
    across the CPUs of the process's affinity mask, each thread with a
    workspace of its own, once their summed (n//2)^2 reaches _THREAD_WORK;
    smaller batches, such as degrees 2..64, stay on the calling thread.
    dlasq1 is reentrant, so the results do not depend on the number of
    threads. The symmetric eigensolves, the escalations and the assembly
    of each set run on the calling thread in ascending order, and a failed
    solve raises there, at its degree, as it would in a serial run. If
    consecutive eigenvalues come out closer than 1e3 * eps * Gershgorin
    width, that degree is solved again by decimal Sturm-count bisection
    and its set holds the Decimal values, which makes it escalated. An
    unescalated set keeps the smallest gap of that test as its min_gap.
    Every set is bit for bit the one its degree would get alone.
    """
    ns = sorted({int(n) for n in degrees})
    for n in ns:
        if not 1 <= n <= J.b.size:
            raise DomainError(f"degree {n} exceeds the {J.b.size} coefficients")
    if not ns:
        return {}
    N = ns[-1]
    d = J.b[:N]
    e = J.a[: N - 1]
    run = int(np.argmax(d != d[0])) or N  # length of the constant leading run
    glo, ghi = _gershgorin_prefix(d, e)
    sigmas = {}
    if run > 1:
        sigmas = _half_size_sigmas(_HalfSizeSolver(e[: run - 1]), [n for n in ns if 2 <= n <= run])
    out = {}
    for n in ns:
        d_n, e_n = d[:n], e[: n - 1]
        sigma = sigmas.pop(n, None)
        if isinstance(sigma, Exception):
            raise sigma
        vals = _eigvals_lapack(d_n, e_n, sigma)
        gap = None
        if n >= 2:
            gap = min_gap_with_index(vals)
            lo, hi = float(glo[n - 2]), float(ghi[n - 2])
            if gap[0] < _DD_ESCALATION_FACTOR * _EPS * (hi - lo):
                ext = _eigvals_bisect_decimal(d_n, e_n, lo, hi)
                out[n] = ZeroSet(degree=n, values=ext, provenance="eigensolve")
                continue
        out[n] = ZeroSet(degree=n, values=vals, provenance="eigensolve", min_gap=gap)
    return out


def eigen_zeros(J: JacobiMatrix, n: int) -> ZeroSet:
    """Zeros of P_n as eigenvalues of the n-by-n Jacobi truncation.

    The one-degree call of ``eigen_zero_sets``: one LAPACK eigensolve,
    ascending, escalated to decimal Sturm-count bisection where
    consecutive eigenvalues come out closer than 1e3 * eps * Gershgorin
    width.
    """
    return eigen_zero_sets(J, (n,))[n]


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
    if not 1 <= r <= J.b.size:
        raise DomainError(f"rule size {r} exceeds the {J.b.size} coefficients")
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
    exact (up to rounding) while max_degree <= 2 K - 1, K = b.size.
    """
    if max_degree > 2 * J.b.size - 1:
        raise DomainError("moment degree exceeds what the truncation determines")
    v = np.zeros(J.b.size)
    v[0] = 1.0
    out = np.empty(max_degree + 1)
    out[0] = 1.0
    for j in range(1, max_degree + 1):
        nxt = J.b * v
        nxt[:-1] += J.a * v[1:]
        nxt[1:] += J.a * v[:-1]
        v = nxt
        out[j] = v[0]
    return out
