"""Independent cross-check oracles that only the tests use.

The package computes the coefficients of mu_gamma by the polynomial-mapping
unfolding (``jacobi_for_gamma``) and checks the branch lemma from one separation
table per level (``spacing.verify_branch_lemma``), all levels from one ladder.
The routes here reach the same quantities another way, and the tests compare
the two:

- the forward maps f_n, their leading coefficients and the forward
  composition F_n, evaluated directly;
- the refinement measures (equal weights on the 2^N solutions of
  F_N(z) = a) and the discretized Stieltjes procedure in its orthonormal
  (Lanczos) formulation with full reorthogonalization, which recovers the
  recurrence coefficients of any discrete measure; applied to the
  refinement measures it is an independent cross-check of the unfolding;
- the power moments of a Jacobi matrix and the sign alternation of P_n
  across computed zeros;
- the separation chain of the branch lemma for one word, from scalar
  branch compositions, and the branch lemma's table of one level, its
  d(Z, Y) over every critical point and every gap between neighbouring
  zeros, in decimal: the oracles of the double separation ladder; and
  the ladder's own neighbour gaps read by sorting its anchors, beside
  the package's Gray-code reading (``spacing._ladder_gaps``);
- discrete measures, the Gauss rule of a Jacobi matrix (Golub-Welsch) and
  P_n by the three-term recurrence;
- a level's branch table and zeros from the decimal doubling pass, the
  reference for a level that works in double;
- the scalar branch composition, which walks one word of letters L and R
  from the inside out, in a level's own precision or in decimal: the
  independent oracle of the doubling table
  (``geometry.branch_value_table``) and of ``leftmost_length``;
- one branch value and one basic interval, each from that walk, and the
  gaps of a level;
- at-most-one interlacing, the distance bound and the second-neighbour
  bound on one pair or triple of zero sets, from which the tests build
  the exhaustive entries of a full verification;
- the zeros of one degree (``eigen_zero_sets`` of that degree alone), the
  spectrum of one degree from its singular values, and the critical set of
  one level (``critical_levels`` of that level alone);
- the Gershgorin bounds of every leading truncation and the decimal
  Sturm-count bisection of a tridiagonal with any diagonal, against which
  the package's constant-diagonal forms are checked bit for bit.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from itertools import product

import numpy as np

from cantorpoly.errors import ConvergenceError, DomainError, RangeOverflowError
from cantorpoly.exact import EXACT, CriticalSet, MapFamily, ZeroSet, critical_levels
from cantorpoly.geometry import (
    GammaSequence,
    _as_fraction,
    _level_table,
    _pull,
    all_branch_values,
    as_decimal,
    extended_context,
    level_intervals,
    u_map,
)
from cantorpoly.jacobi import JacobiMatrix, eigen_zero_sets
from cantorpoly.spacing import ReportEntry, _points, min_spacing, set_distance

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_LANCZOS_BREAKDOWN = 256.0 * _EPS


# ---------------------------------------------------------------------------
# the generating maps and their forward composition
# ---------------------------------------------------------------------------

def f(fam: MapFamily, n: int, z):
    """Evaluate the level-n generating map."""
    if n < 1:
        raise DomainError("map index must be >= 1")
    g = float(fam.gamma.value(n))
    if n == 1:
        return 2.0 * z * (z - 1.0) / g + 1.0
    return z * z / (2.0 * g) + 1.0 - 1.0 / (2.0 * g)


def lead(fam: MapFamily, n: int) -> float:
    """Leading coefficient of f_n."""
    g = float(fam.gamma.value(n))
    return 2.0 / g if n == 1 else 1.0 / (2.0 * g)


def subleading(fam: MapFamily, n: int) -> float:
    """Coefficient of z^(deg-1) in f_n; vanishes for every n >= 2."""
    if n == 1:
        return -2.0 / float(fam.gamma.value(1))
    return 0.0


def tau(fam: MapFamily, m: int) -> float:
    """Leading coefficient of F_m; tau_{m+1} = tau_m^2 / (2 gamma_{m+1}).

    Grows doubly exponentially and overflows to inf around m = 10;
    ``monic_opoly_exact`` never forms it explicitly.
    """
    if m < 1:
        raise DomainError("composition depth must be >= 1")
    t = lead(fam, 1)
    for k in range(2, m + 1):
        t = t * t / (2.0 * float(fam.gamma.value(k)))
    return t


def evaluate_F(fam: MapFamily, n: int, z):
    """Forward composition F_n(z) = f_n(...f_1(z)).

    Off the invariant set the values blow up doubly exponentially; a
    non-finite intermediate raises RangeOverflowError.
    """
    if n < 1:
        raise DomainError("composition depth must be >= 1")
    v = z
    for k in range(1, n + 1):
        v = f(fam, k, v)
        if not np.all(np.isfinite(v)):
            raise RangeOverflowError(f"F_{k} overflowed at z = {z!r}")
    return v


# ---------------------------------------------------------------------------
# discrete measures, Gauss rules and polynomial evaluation
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


def gauss_measure(J: JacobiMatrix, r: int) -> DiscreteMeasure:
    """The r-point Gauss rule of the measure represented by J.

    One LAPACK symmetric eigensolve of the r-by-r Jacobi truncation, for
    any diagonal, gives both: the nodes are its eigenvalues, the zeros of
    P_r, and the weights follow Golub and Welsch (Math. Comp. 23, 1969):
    each is the squared first component of the corresponding normalized
    eigenvector. The rule integrates any polynomial of degree <= 2r - 1
    exactly against the moment functional of J.
    """
    if not 1 <= r <= J.b.size:
        raise DomainError(f"rule size {r} exceeds the {J.b.size} coefficients")
    if r == 1:
        return DiscreteMeasure(np.array([J.b[0]]), np.array([1.0]))
    # eigh reads the lower triangle only
    nodes, vecs = np.linalg.eigh(np.diag(J.b[:r]) + np.diag(J.a[: r - 1], -1))
    w = vecs[0] ** 2
    total = float(w.sum())
    if not np.all(w > 0) or abs(total - 1.0) > 1e-8:
        raise ConvergenceError(
            f"eigenvector first components give unusable weights (sum {total})"
        )
    return DiscreteMeasure(nodes, w / total)


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
# branch values, basic intervals and gaps, one at a time
# ---------------------------------------------------------------------------

def words(n: int) -> list[str]:
    """Every word of length n over {L, R}, in the word-bit order of a branch table."""
    return ["".join(w) for w in product("LR", repeat=n)]


def decimal(gamma: GammaSequence, depth: int) -> tuple[str, int]:
    """The precision of a decimal pass at the digits of gamma.context(depth): level depth's
    own precision where that is extended, a decimal reference where it is double."""
    return "dd", gamma.context(depth).prec


def decimal_table(gamma: GammaSequence, n: int, ts) -> np.ndarray:
    """Level n's branch table from the decimal doubling pass at the digits of
    gamma.context(n): branch_value_table's where level n works extended, a decimal
    reference where it works in double."""
    return _level_table(gamma, n, tuple(ts), decimal(gamma, n))[1]


def decimal_zeros(gamma: GammaSequence, m: int) -> np.ndarray:
    """The 2^m zeros of degree 2^m from ``decimal_table`` at t = 0, sorted: exact_zeros'
    values where level m works extended."""
    return np.array(sorted(decimal_table(gamma, m, (0.0,))[:, 0]))


def branch_composition(gamma: GammaSequence, word: str, t_inner, precision=None):
    """Evaluate g_1(gamma_1 * g_2(... gamma_{n-1} * g_n(t_inner))).

    Each g_k is u (letter L) or 1 - u (letter R); t_inner must lie in
    [0, gamma_n]. This is the common core of branch values, interval
    endpoints, and the separation quantities built from them. The walk
    runs in precision, (mode, digits) as gamma.precision gives it, level
    n's own by default. In double, a t_inner above gamma_n / 2 (t < 0)
    starts as the table does, from the root argument (1 - 4 gamma_n) +
    4 gamma_n (1 - t_inner / gamma_n).
    """
    n = len(word)
    mode, digits = gamma.precision(n) if precision is None else precision
    g = gamma.value(n)
    with localcontext(extended_context(digits)) if digits else contextlib.nullcontext():
        if mode == "double" and t_inner > g / 2:
            v = _pull(g, float(1 - t_inner / g), True, mode)[0]
        else:
            v = u_map(float(t_inner) if mode == "double" else as_decimal(t_inner))
        for k in range(n - 1, 0, -1):
            v = _pull(gamma.value(k), v, word[k] == "R", mode)[0]
        return 1 - v if word[0] == "R" else v


def branch_value(gamma: GammaSequence, word: str, t, precision=None):
    """Value of the composed inverse branch addressed by ``word`` at t.

    t ranges over [-1, 1]; the innermost substitution is
    t_inner = gamma_n * (1 - t) / 2, formed exactly.
    """
    if not -1.0 <= t <= 1.0:
        raise DomainError(f"branch parameter {t} outside [-1, 1]")
    t_inner = gamma.value(len(word)) * (1 - _as_fraction(t)) / 2
    return branch_composition(gamma, word, t_inner, precision)


def basic_interval(gamma: GammaSequence, word: str) -> tuple:
    """The level-n basic interval addressed by a word of length n, as (lo, hi)."""
    a = branch_value(gamma, word, 1.0)
    b = branch_value(gamma, word, -1.0)
    return (a, b) if a < b else (b, a)


def level_gaps(gamma: GammaSequence, n: int) -> list[tuple]:
    """The 2^n open gaps removed inside the level-n parents.

    Derived from the level-(n+1) intervals rather than stored; entries are
    (lo, hi) pairs and may be degenerate (lo == hi) in the boundary case
    gamma_k = 1/4.
    """
    ivs = level_intervals(gamma, n + 1)
    return [(ivs[2 * j, 1], ivs[2 * j + 1, 0]) for j in range(2 ** n)]


# ---------------------------------------------------------------------------
# the branch lemma, one word at a time
# ---------------------------------------------------------------------------

# branch values carry rounding at the ~1e-34 scale of their O(1) size and
# a separation keeps it as an absolute error, so the tie cushion is
# absolute; 1e-29 sits far below every genuine scale in range
_TIE_CUSHION = Decimal("1e-29")


def _scales_ok(chain, l_next, d_next) -> bool:
    # chain = l_{1,n+1} when gamma_{n+1} = 1/4, but the two round apart
    # (decimal halving is inexact), so that tie gets a relative cushion
    with localcontext(EXACT):
        return chain >= l_next * (1 - _TIE_CUSHION) and l_next >= d_next


def _oracle_digits(gamma: GammaSequence, n: int) -> int:
    """max(60, ceil(-log10 delta_{n+1}) + 20): the separations of level n, about
    delta_{n+1} at their least, keep at least 20 digits."""
    d = gamma.delta_fraction(n + 1)
    return max(60, math.ceil(math.log10(d.denominator) - math.log10(d.numerator)) + 20)


def separation_table(gamma: GammaSequence, n: int) -> np.ndarray:
    """The oracle of the first three columns of ``geometry._separation_ladder``'s level n:
    [x(0), x(+1) - x(0), x(-1) - x(0)] per word, from the decimal doubling pass at
    ``_oracle_digits``, each difference formed exactly."""
    table = _level_table(gamma, n, (0.0, 1.0, -1.0), ("dd", _oracle_digits(gamma, n)))[1]
    with localcontext(EXACT):
        return np.column_stack([table[:, 0], table[:, 1:] - table[:, :1]])


def critical_distance(gamma: GammaSequence, n: int) -> Decimal:
    """The oracle of the ladder's d(Z, Y) at level n: the least |z - y| over the zeros Z of
    F_n and every critical point y of F_n, 1/2 and the zeros of F_1, ..., F_{n-1}, each set
    from the decimal doubling pass at ``_oracle_digits``, each difference formed exactly."""
    digits = _oracle_digits(gamma, n)
    z, *shallower = (_level_table(gamma, k, (0.0,), ("dd", digits))[1][:, 0]
                     for k in range(n, 0, -1))
    y = np.concatenate([[Decimal("0.5")], *shallower])
    with localcontext(EXACT):
        return np.abs(z[:, None] - y[None, :]).min()


def zero_gaps(gamma: GammaSequence, n: int) -> np.ndarray:
    """The oracle of every gap between neighbouring zeros of F_n, left to right: the zeros
    from the decimal doubling pass at ten digits more than ``_oracle_digits`` gives level
    n + 1, sorted, each difference formed exactly. The gaps of level n are about
    delta_{n+1} at their least, and keep at least 30 digits."""
    digits = _oracle_digits(gamma, n + 1) + 10
    z = np.sort(_level_table(gamma, n, (0.0,), ("dd", digits))[1][:, 0])
    with localcontext(EXACT):
        return z[1:] - z[:-1]


def ladder_gaps(table: np.ndarray) -> np.ndarray:
    """The neighbour gaps that level n of ``geometry._separation_ladder`` carries, found
    another way than ``spacing._ladder_gaps``: the words sorted by their anchors, and each
    neighbour pair's deepest common ancestor from the highest bit in which the two word
    indices differ (bit b, from the right, is the letter of level n - b), its column then
    3 + b."""
    order = np.argsort(table[:, 0], kind="stable")
    gaps = []
    for w, v in zip(order[:-1].tolist(), order[1:].tolist()):
        col = 3 + (w ^ v).bit_length() - 1
        gaps.append(abs(table[w, col]) + abs(table[v, col]))
    return np.array(gaps)


def relative_error(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """|got - want| / want for doubles against Decimals, the differences formed exactly."""
    with localcontext(EXACT):
        err = np.abs(np.frompyfunc(Decimal, 1, 1)(got) - want)
    return (err / want).astype(float)


def branch_separation_chain(fam: MapFamily, word, t_tilde) -> dict:
    """The three chained quantities for one word and inner endpoint.

    Returns the separation |G(t_tilde) - G(gamma_n/2)| together with the
    nested all-L value at gamma_n/2, the leftmost length l_{1,n+1} and
    delta_{n+1}; everything is evaluated in extended precision so equality
    cases do not flip from rounding.
    """
    gamma = fam.gamma
    n = len(word)
    half, here, below = gamma.value(n) / 2, decimal(gamma, n), decimal(gamma, n + 1)
    anchor = branch_composition(gamma, word, half, here)
    value = branch_composition(gamma, word, t_tilde, here)
    chain = branch_composition(gamma, "L" * n, half, here)
    l_next = branch_composition(gamma, "L" * (n + 1), gamma.value(n + 1), below)
    with localcontext(extended_context(below[1])):
        d_next = as_decimal(gamma.delta_fraction(n + 1))
    # words whose inner letters are all L attain sep == chain exactly at
    # t_tilde = 0, and the reflected branches compute the tied sides
    # through different expressions: hence _TIE_CUSHION
    with localcontext(EXACT):
        sep = abs(value - anchor)
        sep_ok = chain - sep <= _TIE_CUSHION
    return {
        "separation": sep,
        "chain": chain,
        "leftmost_next": l_next,
        "delta_next": d_next,
        "ok": sep_ok and _scales_ok(chain, l_next, d_next),
    }


# ---------------------------------------------------------------------------
# the checks on one pair or triple of zero sets
# ---------------------------------------------------------------------------

def interlacing_at_most_one(small, big) -> bool:
    """True when the smaller-degree zeros sit one per bin of the larger set.

    Checks both requirements: the small zeros lie strictly between the
    extreme large zeros, and no two of them share a closed interval of
    consecutive large zeros.
    """
    zs = _points(small)
    zr = _points(big)
    if zs[0] <= zr[0] or zs[-1] >= zr[-1]:
        return False
    bins = np.searchsorted(zr, zs)
    return bool(np.all(np.diff(bins) >= 1))


def verify_interlacing_bound(zl: ZeroSet, zm: ZeroSet, zn: ZeroSet) -> ReportEntry:
    """d(Z_l, Z_m) <= M_n for the zero sets of degrees l > m > n > 1."""
    l, m, n = zl.degree, zm.degree, zn.degree
    if not l > m > n > 1:
        raise DomainError(f"need l > m > n > 1, got {(l, m, n)}")
    lhs = set_distance(zl, zm)
    rhs = min_spacing(zn)
    return ReportEntry(
        check="interlacing_distance_bound",
        passed=lhs <= rhs,
        lhs=lhs,
        rhs=rhs,
        detail={"l": l, "m": m, "n": n},
    )


def second_gap(zn) -> float:
    """Minimum second-neighbour gap of a zero set, with 0 and 1 at its ends."""
    aug = np.concatenate([[0], _points(zn), [1]])
    with localcontext(EXACT):
        return float(np.min(aug[2:] - aug[:-2]))


def verify_second_neighbor_bound(zr: ZeroSet, zn: ZeroSet) -> ReportEntry:
    """M_r <= min second-neighbour gap of the degree-n zeros.

    Indices 0 and n+1 denote the support endpoints 0 and 1.
    """
    r, n = zr.degree, zn.degree
    if not (r > 1 and r >= n >= 1):
        raise DomainError(f"need r > 1 and r >= n >= 1, got {(r, n)}")
    rhs = second_gap(zn)
    lhs = min_spacing(zr)
    return ReportEntry(
        check="second_neighbor_bound",
        passed=lhs <= rhs,
        lhs=lhs,
        rhs=rhs,
        detail={"r": r, "n": n},
    )


# ---------------------------------------------------------------------------
# one eigensolved degree, one critical set
# ---------------------------------------------------------------------------

def eigen_zeros(J: JacobiMatrix, n: int) -> ZeroSet:
    """Zeros of P_n as eigenvalues of the n-by-n Jacobi truncation.

    The one-degree call of ``eigen_zero_sets``: a constant diagonal, one
    dqds solve at half size of the degree's own level of the tower,
    ascending, escalated to decimal Sturm-count bisection where consecutive
    zeros come out closer than 1e3 * eps * Gershgorin width.
    """
    return eigen_zero_sets(J, (n,))[n]


def spectrum(d0: float, sigma: np.ndarray, n: int) -> np.ndarray:
    """The eigenvalues of J_n, ascending, from the descending singular values sigma of B_n:
    d0 - sigma, then d0 itself for odd n, then d0 + sigma, written into one array.

    One degree at a time, the spectrum that ``jacobi._zero_table`` gathers
    for every degree at once.
    """
    out = np.empty(n)
    k = sigma.size
    np.subtract(d0, sigma, out=out[:k])
    out[k : n - k] = d0
    np.add(d0, sigma[::-1], out=out[n - k :])
    return out


def critical_set(fam: MapFamily, n: int) -> CriticalSet:
    """Critical points of F_n: {1/2} together with all shallower zero sets.

    The chain rule factors F_n' over f_1' (vanishing at 1/2) and
    f_k'(F_{k-1}) for k = 2..n, whose zeros are the zeros of F_{k-1};
    the union has exactly 2^n - 1 points and misses the level-n set.
    Every level is computed in level n - 1's precision.
    """
    if n < 1:
        raise DomainError("level must be >= 1")
    return CriticalSet.from_zero_sets(critical_levels(fam, n))


# ---------------------------------------------------------------------------
# a tridiagonal with any diagonal: Gershgorin bounds and decimal bisection
# ---------------------------------------------------------------------------

def gershgorin_prefix(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def sturm_count(d: list, esq: list, x: Decimal, pivmin: Decimal) -> int:
    """Eigenvalues below x of the tridiagonal with diagonal d and squared off-diagonals esq."""
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


def eigvals_bisect_decimal(d_f: np.ndarray, e_f: np.ndarray, glo: float, ghi: float) -> list:
    """All eigenvalues of the tridiagonal with diagonal d_f and off-diagonal e_f, by
    Sturm-count bisection in 34-digit decimal inside its Gershgorin hull [glo, ghi]."""
    out = []
    with localcontext(extended_context()):
        d = [Decimal(v) for v in d_f]
        esq = [Decimal(v) * Decimal(v) for v in e_f]
        pivmin = Decimal(_TINY)
        target = Decimal("1e-29") * Decimal(ghi - glo)
        for i in range(d_f.size):
            lo = Decimal(glo)
            hi = Decimal(ghi)
            for _ in range(220):
                mid = (lo + hi) / 2
                if sturm_count(d, esq, mid, pivmin) > i:
                    hi = mid
                else:
                    lo = mid
                if hi - lo <= target:
                    break
            else:
                raise ConvergenceError("decimal bisection exhausted its iteration budget")
            out.append((lo + hi) / 2)
    return out
