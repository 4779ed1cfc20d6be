"""Recurrence coefficients and eigensolves.

The three-term recurrence used throughout is the monic one,

    x P_n(x) = P_{n+1}(x) + b_{n+1} P_n(x) + a_n^2 P_{n-1}(x),

with P_{-1} = 0 and P_0 = 1. The coefficients of mu_gamma come directly
from the polynomial-mapping structure of the generating maps, by a
level-by-level unfolding with no nodes and no iteration
(``jacobi_for_gamma``), which keeps every level's coefficients. Zeros
of P_n are eigenvalues of the n-by-n Jacobi truncation, and the
truncations of one matrix are leading blocks of the largest, so several
degrees share one set-up (``eigen_zero_sets``). Only a constant
diagonal is solved, as every mu_gamma has (b_k = 1/2): the shifted
truncation then has a zero diagonal and its eigenvalues are plus and
minus the singular values of a bidiagonal with floor(n/2) columns. The
mapping tower shrinks the even degrees: P_{2^j m} is the degree-m
polynomial of level j + 1 composed with F_j, so degree 2^j m, m odd,
solves the level-(j+1) truncation of size m, whose eigenvalues the
branches of F_j pull back, and a dyadic degree solves nothing. Each
level's two diagonals are split off once per call, and
each degree hands their leading entries to LAPACK's dqds (``dlasq1``),
which finds every singular value to high relative accuracy in O(m^2).
numpy does not wrap ``dlasq1``; it is looked up once, at import, in the
LAPACK that numpy's linalg extension links (the scipy-openblas of
numpy's wheels). Where that LAPACK lacks it, the bidiagonal of each
degree is assembled densely for ``numpy.linalg.svd``. These solves
release the interpreter lock, so a batch large enough to repay the
hand-offs is split across threads, one per CPU of the process's
affinity mask; dlasq1 is reentrant, and the zeros do not depend on the
number of threads. Only when neighbouring zeros approach the
double-precision resolution limit is the solve escalated to a
Sturm-count bisection of the full level-1 matrix in 34-digit
``decimal`` arithmetic; the zero set of that degree
then holds the Decimal values, and its points are their double view.
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, DomainError, RangeOverflowError
from .exact import MapFamily, ZeroSet
from .geometry import GammaSequence, _level_table, branch_order, extended_context
from .serialize import csv_text

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_DD_ESCALATION_FACTOR = 1e3
_UNFOLD_DIGITS = 50  # the unfolding starts at these digits and doubles them
_UNFOLD_MAX_DIGITS = 1600  # up to this cap
_THREAD_WORK = 1 << 16  # sum of (m//2)^2 from which a batch's dqds calls are threaded
_CALL_WORK = 128  # the fixed cost of one dqds call, in units of (m//2)^2
_DOUBLE = ("double", 0)  # the precision of a pullback: the eigenvalues are doubles
_NO_SIGMA = np.empty(0)  # the singular values of a degree that solves nothing (m = 1)


# ---------------------------------------------------------------------------
# measures and matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiMatrix:
    """Recurrence coefficients b_1..b_K (diagonal) and a_1..a_{K-1}.

    Every coefficient held is certified, so P_n can be evaluated and
    eigensolved for n <= K = b.size. P_n needs no a_K, hence the
    one-shorter array.

    deeper holds the tower above level 1, as ``jacobi_for_gamma`` unfolds
    it: deeper[k - 2] is the correctly rounded c_1..c_{(K-1) >> (k-1)} of
    the zero-diagonal matrix T^(k) of level k >= 2. The branches of F_{k-1}
    pull its eigenvalues back to zeros, so a matrix with a tower also holds
    its gamma. Level 1 is a itself (a_k = sqrt(c_k)). A matrix built by
    hand holds level 1 alone, and its degrees all solve there.
    """

    a: np.ndarray
    b: np.ndarray
    gamma: GammaSequence | None = None
    deeper: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        deeper = tuple(np.asarray(c, dtype=float) for c in self.deeper)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "deeper", deeper)
        if a.size != b.size - 1:
            raise DomainError("need exactly one fewer off-diagonal than diagonal entries")
        if not np.all((a > 0) & (a < 1)):
            raise DomainError("off-diagonal coefficients must lie in (0, 1)")
        if not np.all((b > 0) & (b < 1)):
            raise DomainError("diagonal coefficients must lie in (0, 1)")
        if deeper and self.gamma is None:
            raise DomainError("deeper levels need the gamma whose branches pull them back")
        for k, c in enumerate(deeper, start=2):
            if c.size != a.size >> (k - 1):
                raise DomainError(f"level {k} needs {a.size >> (k - 1)} coefficients, "
                                  f"got {c.size}")
            if not np.all((c >= 0) & (c <= 1)):  # a c below the doubles rounds to 0
                raise DomainError(f"squared coefficients of level {k} must lie in [0, 1]")

    def to_csv(self) -> str:
        """One row per k; a_K does not exist, so the last a_k is empty."""
        K = self.b.size
        return csv_text(["k", "a_k", "b_k"], [range(1, K + 1), self.a.tolist() + [None], self.b])


# ---------------------------------------------------------------------------
# the coefficients of mu_gamma
# ---------------------------------------------------------------------------

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

    Level k of the unfolding is the zero-diagonal matrix T^(k) of the
    level-k pullback, and P_{2^j m} is the degree-m orthogonal polynomial of
    T^(j+1) composed with F_j, up to a constant factor. The matrix keeps
    every level's c (``JacobiMatrix.deeper``), so that ``eigen_zero_sets``
    solves each degree at its own level of the tower.

    bp_k - c_{2n} cancels where a gamma_k near 1/4 sits above a tiny
    gamma_{k+1}, so ``_unfold`` encloses each c at 50 digits, doubled up to
    1600 until every enclosure of every level rounds to one double, the
    correctly rounded c; else ArithmeticError names the level. A level-1 c
    that rounds to 0 raises RangeOverflowError.
    """
    if K < 1:
        raise DomainError("coefficient count must be >= 1")
    needs = [K - 1]
    while needs[-1] > 1:
        needs.append(needs[-1] // 2)
    digits = _UNFOLD_DIGITS
    while True:
        lo, hi, unresolved = _unfold(fam.gamma, needs, digits)
        c = [np.asarray(level, dtype=float) for level in lo]
        if unresolved is None and all(l == h or np.array_equal(x, np.asarray(h, dtype=float))
                                      for l, h, x in zip(lo, hi, c)):
            break
        if 2 * digits > _UNFOLD_MAX_DIGITS:
            raise ArithmeticError(f"{unresolved or 'a level is unresolved'} at {digits} digits")
        digits *= 2
    if not np.all(c[0] > 0):
        raise RangeOverflowError(f"squared coefficient c_{np.argmin(c[0]) + 1} at level 1 "
                                 "underflows")
    return JacobiMatrix(np.sqrt(c[0]), np.full(K, 0.5), fam.gamma, tuple(c[1:]))


def _unfold(gamma, needs: list, digits: int) -> tuple[list, list, str | None]:
    """Every level's lo <= c <= hi from one pass, level 1 first, lo rounded down and hi up,
    each read from the other end of a divisor or subtrahend; or [], [] and the first divisor
    with lo <= 0."""
    down, up = (Context(prec=digits, rounding=r) for r in (ROUND_FLOOR, ROUND_CEILING))
    levels_lo, levels_hi = [], []
    for k, g in ((k, gamma.value(k)) for k in range(len(needs), 0, -1)):
        bp, s = (Fraction(1, 4) - g / 2, g * g / 4) if k == 1 else (1 - 2 * g, 4 * g * g)
        s_lo, s_hi = (r.divide(*s.as_integer_ratio()) for r in (down, up))
        lo, hi = ([r.divide(*bp.as_integer_ratio())] for r in (down, up))
        for i in range(1, needs[k - 1], 2):  # c_{i+1} = s q / c_i and c_{i+2} = bp - c_{i+1}
            if not lo[-1] > 0:
                return [], [], f"c_{i} at level {k} is not enclosed above 0"
            x = down.divide(down.multiply(s_lo, q_lo[i // 2]), hi[-1])
            y = up.divide(up.multiply(s_hi, q_hi[i // 2]), lo[-1])
            lo += x, down.subtract(lo[0], y)
            hi += y, up.subtract(hi[0], x)
        q_lo, q_hi = lo[: needs[k - 1]], hi[: needs[k - 1]]
        levels_lo.append(q_lo)
        levels_hi.append(q_hi)
    return levels_lo[::-1], levels_hi[::-1], None


# ---------------------------------------------------------------------------
# constant-diagonal eigensolve: dqds fast path, decimal Sturm escalation
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

    def sigma(self, n: int, degree: int | None = None) -> np.ndarray:
        """The n//2 singular values of B_n, descending; an error names degree, n by default."""
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
            raise ConvergenceError(f"dlasq1 returned INFO = {self.io[1]} at degree {degree or n}")
        return buf[:m].copy()  # for odd n, drops the appended 0, the smallest


def _spectrum(d0: float, sigma: np.ndarray, n: int) -> np.ndarray:
    """The eigenvalues of J_n, ascending, from the descending singular values sigma of B_n:
    d0 - sigma, then d0 itself for odd n, then d0 + sigma, written into one array."""
    out = np.empty(n)
    k = sigma.size
    np.subtract(d0, sigma, out=out[:k])
    out[k : n - k] = d0
    np.add(d0, sigma[::-1], out=out[n - k :])
    return out


def _tower_step(J: JacobiMatrix, n: int) -> tuple[int, int]:
    """(j, m) with n = 2^j m: degree n solves T^(j+1)_m, and F_j pulls its eigenvalues back.

    j is the largest with 2^j dividing n, so m is odd, or 1: a dyadic degree
    needs no solve, only the branches of gamma at t = 0. Otherwise j + 1 is
    at most the deepest level J holds: 1 for a matrix built by hand.
    """
    if J.gamma is None:
        return 0, n
    j = (n & -n).bit_length() - 1
    if n >> j > 1:
        j = min(j, len(J.deeper))
    return j, n >> j


def _zeros_from(J: JacobiMatrix, steps: dict, sigmas: dict) -> dict:
    """The zeros of every degree n, ascending, from the singular values sigmas[n] of
    T^(j+1)_m, (j, m) = steps[n]; or the exception the solve of n raised.

    At level 1 (j = 0) they are b_1 -+ sigma. Above it the m eigenvalues t
    of T^(j+1)_m, -sigma, 0 for odd m and sigma, each in [-1, 1], are
    pulled back through f_j, ..., f_1, and the values are placed by
    branch_order instead of sorted. The eigenvalues of every degree with
    the same j share one doubling pass, which works elementwise, so each
    degree's zeros are the ones a pass of its own would give.
    """
    out, pending = {}, {}
    for n, (j, m) in steps.items():
        sigma = sigmas.get(n, _NO_SIGMA)
        if isinstance(sigma, Exception):
            out[n] = sigma
        elif j == 0:
            out[n] = _spectrum(J.b[0], sigma, m)
        else:  # the true sigma is below 1
            pending.setdefault(j, []).append((n, _spectrum(0.0, np.minimum(sigma, 1.0), m)))
    for j, group in pending.items():
        table = _level_table(J.gamma, j, np.concatenate([t for _, t in group]), _DOUBLE)[1]
        start = 0
        for n, t in group:
            out[n] = branch_order(table[:, start : start + t.size])
            start += t.size
    return out


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _solve_share(solvers: dict, share: list, out: dict) -> None:
    # every job (n, j, m) of the share, ascending in n; a failure is kept for the caller
    for n, j, m in share:
        try:
            out[n] = solvers[j].sigma(m, degree=n)
        except Exception as exc:  # re-raised by eigen_zero_sets at degree n
            out[n] = exc


def _half_size_sigmas(solvers: dict, jobs: list) -> dict:
    """solvers[j].sigma(m) for every job (n, j, m), keyed by n, or the exception it raised,
    on up to one thread per CPU.

    solvers maps j to the solver of level j + 1, and the jobs of every
    level share one pool. Each dlasq1 call releases the interpreter lock,
    so the calls run in parallel. The jobs are dealt largest first to the
    least-loaded share, a call costing about (m//2)^2 plus a fixed overhead,
    and each share is solved in ascending degree. The calling thread solves
    the first share and one daemon helper each of the others, each helper
    with a workspace of its own for every level; every helper is joined
    before this returns. Below _THREAD_WORK in sum (m//2)^2, as for a verify
    run to degree 64, handing the lock between threads costs more than the
    second CPU saves, so the batch stays on the calling thread. dlasq1 keeps
    no state between calls (no SAVE variables since LAPACK 3.2), and each
    sigma depends on its job alone, so the result is the same for any
    number of threads.
    """
    work = [(m // 2) ** 2 for _, _, m in jobs]
    count = min(_cpu_count(), len(jobs)) if sum(work) >= _THREAD_WORK else 1
    loads = [0] * count
    shares = [[] for _ in range(count)]
    for w, job in sorted(zip(work, jobs), reverse=True):
        i = loads.index(min(loads))
        loads[i] += w + _CALL_WORK
        shares[i].append(job)
    outs = [{} for _ in shares]
    helpers = [threading.Thread(target=_solve_share, daemon=True,
                                args=({j: s.twin() for j, s in solvers.items()}, sorted(share), out))
               for share, out in zip(shares[1:], outs[1:])]
    try:
        for thread in helpers:
            thread.start()
        _solve_share(solvers, sorted(shares[0]), outs[0])
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

    The diagonal of J_N, N the largest degree, must be constant, d_0, as
    it is (1/2) for every mu_gamma; else DomainError names the first b_k
    that differs. T = J_n - d_0 I then has a zero diagonal, and its
    eigenvalues are plus and minus the singular values sigma of the
    (n - n//2)-by-(n//2) bidiagonal B_n, and 0 for odd n (Golub and Kahan,
    SIAM J. Numer. Anal. 2, 1965). The zeros are d_0 - sigma, d_0 + sigma
    and, for odd n, d_0 exactly. Only sigma is computed, by LAPACK's dqds
    (``dlasq1``), which finds every singular value of a bidiagonal to high
    relative accuracy; where numpy's LAPACK lacks it, ``numpy.linalg.svd``
    of the dense B_n gives sigma to a few eps absolute. sigma carries no
    more than the absolute error of a direct solve, also near d_0, where
    the eigenvalues sigma^2 of the half-size block B^T B of T^2 would leave
    an error of about eps / (2 sigma).

    A matrix from ``jacobi_for_gamma`` holds the tower of levels above
    level 1, and P_{2^j m} is P_m of level j + 1 composed with F_j, so
    degree n = 2^j m, m odd, solves the zero-diagonal T^(j+1)_m instead,
    the same way: a dqds of m//2 columns, not n//2. Its eigenvalues t are
    pulled back through f_j, ..., f_1 by the branch doubling in double, and
    placed in order, not sorted (``branch_order``). A dyadic degree (m = 1)
    solves nothing: its zeros are the branch values at t = 0, bit for bit
    ``exact_zeros`` where that works in double. Odd degrees, and every
    degree of a matrix built by hand, solve at level 1. Where some gamma_k
    of the pullback is near 1/4, an eigenvalue t near -1 has its absolute
    error amplified, as f_k's critical value nears -1: at gamma = 1/4 the
    zeros to degree 256 lie within 7e-15 of the closed form, against 4e-16
    for a level-1 solve.

    The truncations J_n are leading blocks of J_N, and those of one level
    of the tower are leading blocks of its largest, so the set-up is done
    once for all degrees: the two diagonals of each level's bidiagonal,
    and the Gershgorin bounds of every J_n, from one prefix pass. Each
    degree then costs one dqds call, or none. The calls of every level are
    split across the CPUs of the process's affinity mask, each thread with
    a workspace of its own for each level, once their summed (m//2)^2
    reaches _THREAD_WORK; smaller batches, such as degrees 2..112, stay on
    the calling thread. dlasq1 is reentrant, so the results do not depend
    on the number of threads. The pullbacks, the escalations and the
    assembly of each set run on the calling thread, the sets in ascending
    order, and a failed solve raises there, at its degree, as it would in a
    serial run. The degrees with one j share one doubling pass, which
    works elementwise. If consecutive zeros come out closer than 1e3 * eps
    * Gershgorin width of J_n, or out of order, that degree is solved again
    by decimal Sturm-count bisection of J_n and its set holds the Decimal
    values, which makes it escalated. An unescalated set reads its
    strict-increase check and its min_gap from the one difference array of
    that test. Every set is bit for bit the one its degree would get alone.
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
    varies = d != d[0]
    if varies.any():
        k = int(np.argmax(varies))
        raise DomainError(f"diagonal b_{k + 1} = {float(d[k])} differs from b_1 = {float(d[0])}; "
                          "only a constant diagonal is solved")
    glo, ghi = _gershgorin_prefix(d, e)
    steps = {n: _tower_step(J, n) for n in ns}
    jobs = [(n, j, m) for n, (j, m) in steps.items() if m > 1]
    solvers = {j: _HalfSizeSolver(e if j == 0 else np.sqrt(J.deeper[j - 1]))
               for j in {j for _, j, _ in jobs}}
    zeros = _zeros_from(J, steps, _half_size_sigmas(solvers, jobs))
    out = {}
    for n in ns:
        vals = zeros.pop(n)
        if isinstance(vals, Exception):
            raise vals
        if n == 1:
            out[n] = ZeroSet(degree=n, values=vals, provenance="eigensolve")
            continue
        gaps = np.diff(vals)  # a tie or a misplaced value gives a gap <= 0: it escalates
        lo, hi = float(glo[n - 2]), float(ghi[n - 2])
        if gaps.min() < _DD_ESCALATION_FACTOR * _EPS * (hi - lo):
            ext = _eigvals_bisect_decimal(d[:n], e[: n - 1], lo, hi)
            out[n] = ZeroSet(degree=n, values=ext, provenance="eigensolve")
        else:
            out[n] = ZeroSet(degree=n, values=vals, provenance="eigensolve", gaps=gaps)
    return out
