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
level's two diagonals are split off once per call, and each degree
hands their leading entries to LAPACK's dqds (``dlasq1``), which finds
every singular value to high relative accuracy in O(m^2). numpy does
not wrap ``dlasq1``; it is looked up once, at import, in the LAPACK
that numpy's linalg extension links (the scipy-openblas of numpy's
wheels). Where that LAPACK lacks it, the bidiagonal of each degree is
assembled densely for ``numpy.linalg.svd``. These solves release the
interpreter lock, so a batch large enough to repay the hand-offs is
split across threads, one per CPU of the process's affinity mask, each
with one dqds workspace; dlasq1 is reentrant, and the zeros do not
depend on the number of threads. The zeros of every degree of a call
form one flat table (``_zero_table``), built, checked and reduced as
whole arrays, all in double. A degree whose zeros come out tied,
misordered or on an end of (0, 1) is a numerical failure: the table
names the first such degree, and no other precision is tried.
"""

from __future__ import annotations

import ctypes
import numbers
import os
import threading
from collections import namedtuple
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Context
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, DomainError, RangeOverflowError
from .exact import MapFamily, ZeroSet
from .geometry import GammaSequence, _level_table, _runs, branch_order
from .serialize import csv_text, render

_UNFOLD_DIGITS = 50  # the unfolding starts at these digits and doubles them
_UNFOLD_MAX_DIGITS = 1600  # up to this cap
_THREAD_WORK = 1 << 16  # sum of (m//2)^2 from which a batch's dqds calls are threaded
_DOUBLE = ("double", 0)  # the precision of a pullback: the eigenvalues are doubles


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
        return csv_text(["k", "a_k", "b_k"], [range(1, K + 1), render(self.a) + [""], self.b])


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
# constant-diagonal eigensolve: dqds on the half-size bidiagonal
# ---------------------------------------------------------------------------

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


def _sigma(diag: np.ndarray, sub: np.ndarray, n: int, work: np.ndarray, io: np.ndarray,
           degree: int) -> np.ndarray:
    """The n//2 singular values of B_n, descending; errors name degree.

    B_n, n - n//2 rows by n//2 columns, is the odd rows of J_n - d_0 I
    against its even columns: the leading entries of diag = e_1, e_3,
    ... and, below it, sub = e_2, e_4, .... For odd n, a 0 appended to its
    diagonal makes it square and adds the singular value 0 and nothing else.
    One dlasq1 call (dqds; Fernando and Parlett, Numer. Math. 67, 1994),
    O(n^2), runs in work (6 (n - n//2) doubles or more) and io (int64 N,
    INFO), and the values are a view of work. Where numpy's LAPACK has no
    dlasq1, B_n is assembled densely and handed to ``numpy.linalg.svd``.
    """
    m = n // 2
    k = n - m
    dlasq1 = _DLASQ1
    if dlasq1 is None:
        B = np.zeros((k, m))
        flat = B.reshape(-1)
        flat[:: m + 1] = diag[:m]
        flat[m :: m + 1] = sub[: k - 1]
        return np.linalg.svd(B, compute_uv=False)
    work[:m] = diag[:m]
    work[m:k] = 0.0
    work[k : 2 * k - 1] = sub[: k - 1]
    io[0] = k
    # ~1 us each, a third of ndarray.ctypes.data: the smallest solves take a few us
    d_ptr = ctypes.addressof(ctypes.c_char.from_buffer(work))
    io_ptr = ctypes.addressof(ctypes.c_char.from_buffer(io))
    dlasq1(io_ptr, d_ptr, d_ptr + 8 * k, d_ptr + 16 * k, io_ptr + 8)
    if io[1]:
        raise ConvergenceError(f"dlasq1 returned INFO = {io[1]} at degree {degree}")
    return work[:m]  # for odd n, drops the appended 0, the smallest


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


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _solve_all(jobs: list) -> dict:
    """_sigma(diag, sub, m) into out for every job (n, diag, sub, m, out), on up to one thread
    per CPU; the exception of each failing job, keyed by n.

    The jobs of every level share one list, sorted by m; each writes its
    own slice of one buffer. The calling thread and min(CPUs, jobs) - 1
    daemon helpers pop from the end of that list until it is empty, so
    each thread takes the largest solve left and no cost model is needed.
    Each thread has one dqds workspace, sized for the largest m of the
    batch, whatever its level. Each dlasq1 call releases the interpreter
    lock, so the calls run in parallel; every helper is joined before this
    returns. Below _THREAD_WORK in sum (m//2)^2, as for a verify run to
    degree 64, handing the lock between threads costs more than the second
    CPU saves, so the batch stays on the calling thread. dlasq1 keeps no
    state between calls (no SAVE variables since LAPACK 3.2), and each
    sigma depends on its job alone, so the result is the same for any
    number of threads.
    """
    todo = sorted(jobs, key=lambda job: job[3])
    top = todo[-1][3] if todo else 0
    failures = {}

    def drain():
        work, io = np.empty(6 * (top - top // 2)), np.zeros(2, dtype=np.int64)
        while True:
            try:
                n, diag, sub, m, out = todo.pop()  # the largest m left
            except IndexError:
                return
            try:
                out[:] = _sigma(diag, sub, m, work, io, n)
            except Exception as exc:  # re-raised by _zero_table at the least failing degree
                failures[n] = exc

    cost = sum((job[3] // 2) ** 2 for job in jobs)
    count = min(_cpu_count(), len(jobs)) if cost >= _THREAD_WORK else 1
    helpers = [threading.Thread(target=drain, daemon=True) for _ in range(count - 1)]
    try:
        for thread in helpers:
            thread.start()
        drain()
    finally:
        for thread in helpers:
            if thread.ident is not None:  # started
                thread.join()
    return failures


def eigen_zero_sets(J: JacobiMatrix, degrees) -> dict[int, ZeroSet]:
    """Zeros of P_n for each requested integer degree n in 1..K, keyed by n in ascending order.

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
    once for all degrees: the two diagonals of each level's bidiagonal.
    Each degree then costs one dqds call, or none, and large batches split
    the calls across threads (``_solve_all``); a failed solve raises at the
    least failing degree, as in a serial run. The zeros of all degrees are
    one table (``_zero_table``), built, checked and reduced as whole
    arrays, and each set returned is a view of its slice. Every set is
    double, and bit for bit the one its degree would get alone. A degree
    whose zeros are not strictly increasing inside (0, 1) in double is
    unresolved: RangeOverflowError names the first such degree.
    """
    t = _zero_table(J, degrees)
    return {n: ZeroSet(degree=n, values=t.values[a:b], provenance="eigensolve",
                       gaps=np.diff(t.values[a:b]) if n > 1 else None)
            for n, a, b in zip(t.degrees, t.offsets[:-1].tolist(), t.offsets[1:].tolist())}


_ZeroTable = namedtuple("_ZeroTable", "degrees offsets values min_gap min_index")


def _zero_table(J: JacobiMatrix, degrees, least: int = 1) -> _ZeroTable:
    """The zeros of eigen_zero_sets(J, degrees) as one table; DomainError names a degree that
    is not an integer or lies outside least..K, RangeOverflowError (a numerical failure) the
    first degree whose double zeros are not strictly increasing inside (0, 1).

    Degree degrees[i] holds values[offsets[i]:offsets[i + 1]], ascending, and min_gap[i],
    min_index[i] are their min_gap_with_index, from one np.diff of the table (inf for
    degree 1). The solves write one buffer; then each level in turn gathers its
    spectra (-sigma, 0 for odd m, sigma), adds d_0 at level 1 or is pulled back in one
    doubling pass, and is placed by one gather (``branch_order``).
    """
    ns = sorted(set(degrees))
    for n in ns:
        if not isinstance(n, numbers.Integral):
            raise DomainError(f"degree {n!r} is not an integer")
        if not least <= n <= J.b.size:
            raise DomainError(f"degree {n} outside {least}..{J.b.size}")
    ns = [int(n) for n in ns]
    N = ns[-1] if ns else 1
    d, e = J.b[:N], J.a[: N - 1]
    varies = d != d[0]
    if varies.any():
        k = int(np.argmax(varies))
        raise DomainError(f"diagonal b_{k + 1} = {float(d[k])} differs from b_1 = {float(d[0])}; "
                          "only a constant diagonal is solved")
    offsets = np.cumsum([0, *ns])
    # every degree's (j, n, m) and where it starts in the table, by level, then degree
    j_o, n_o, m_o = np.array(sorted((j, n, m) for n in ns for j, m in [_tower_step(J, n)]),
                             dtype=np.int64).reshape(-1, 3).T
    at = offsets[np.searchsorted(ns, n_o)]
    soff = np.cumsum(np.append(0, m_o // 2 + 1))
    sigma = np.zeros(soff[-1])  # each degree's singular values, then the 0 of an odd m
    # the two diagonals of the bidiagonal of each level that solves, split once
    halves = {j: (c[0::2], c[1::2]) for j in set(j_o[m_o > 1].tolist())
              for c in [e if j == 0 else np.sqrt(J.deeper[j - 1])]}
    jobs = [(n, *halves[j], m, sigma[a : b - 1]) for j, n, m, a, b in zip(
        j_o.tolist(), n_o.tolist(), m_o.tolist(), soff[:-1].tolist(), soff[1:].tolist()) if m > 1]
    failures = _solve_all(jobs)
    if failures:
        raise failures[min(failures)]
    values = np.empty(offsets[-1])
    for j in sorted(set(j_o.tolist())):  # level 1 (j = 0), where n = m, adds d_0
        a, b = np.searchsorted(j_o, [j, j + 1])
        m = m_o[a:b]
        q = _runs(m)
        lower = q < np.repeat(m // 2, m)
        np.minimum(q, np.repeat(m - 1, m) - q, out=q)  # the middle of an odd m reads its 0
        q += np.repeat(soff[a:b], m)
        t = sigma[q]
        np.minimum(t, 1.0, out=t, where=j > 0)  # the true sigma is below 1
        np.subtract(0.0, t, out=t, where=lower)
        dest = _runs(n_o[a:b])
        dest += np.repeat(at[a:b], n_o[a:b])
        values[dest] = (np.add(d[0], t, out=t) if j == 0 else
                        branch_order(_level_table(J.gamma, j, t, _DOUBLE)[1], m))
    gaps = np.empty(values.size)
    np.subtract(values[1:], values[:-1], out=gaps[:-1])
    gaps[offsets[1:] - 1] = np.inf
    starts, counts = offsets[:-1], np.diff(offsets)
    min_gap = np.minimum.reduceat(gaps, starts)
    # a tie or a misplaced value gives a gap <= 0, and NaN fails every test; degree 1 reads inf
    bad = ~((min_gap > 0) & (values[starts] > 0.0) & (values[offsets[1:] - 1] < 1.0))
    if bad.any():
        raise RangeOverflowError(f"the zeros of degree {ns[int(np.argmax(bad))]} are not "
                                 "strictly increasing inside (0, 1) in double")
    hits = np.flatnonzero(gaps == np.repeat(min_gap, counts))
    min_index = hits[np.searchsorted(hits, starts)] - starts
    return _ZeroTable(ns, offsets, values, min_gap, min_index)
