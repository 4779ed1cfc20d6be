"""Independent cross-check oracles that only the tests use.

The package computes the coefficients of mu_gamma by the polynomial-mapping
unfolding (``jacobi_for_gamma``) and checks the branch lemma from one branch
table per level (``spacing.verify_branch_lemma``). The routes here reach the
same quantities another way, and the tests compare the two:

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
  branch compositions;
- discrete measures, the Gauss rule of a Jacobi matrix (Golub-Welsch) and
  P_n by the three-term recurrence;
- the scalar branch composition, which walks one word of letters L and R
  from the inside out: the independent oracle of the doubling table
  (``geometry.branch_value_table``) and of ``leftmost_length``;
- one branch value and one basic interval, each from that walk, and the
  gaps of a level;
- at-most-one interlacing, the distance bound and the second-neighbour
  bound on one pair or triple of zero sets, from which the tests build
  the exhaustive entries of a full verification;
- the zeros of one degree (``eigen_zero_sets`` of that degree alone) and
  the critical set of one level (``critical_levels`` of that level alone).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import localcontext
from itertools import product

import numpy as np

from cantorpoly.errors import ConvergenceError, DomainError, RangeOverflowError
from cantorpoly.exact import EXACT, CriticalSet, MapFamily, ZeroSet, critical_levels
from cantorpoly.geometry import (
    GammaSequence,
    _as_fraction,
    _pull,
    _scalar,
    all_branch_values,
    leftmost_length,
    level_intervals,
    u_map,
)
from cantorpoly.jacobi import JacobiMatrix, eigen_zero_sets
from cantorpoly.spacing import (
    _TIE_CUSHION,
    ReportEntry,
    _points,
    _scales_ok,
    _second_gap,
    min_spacing,
    set_distance,
)

_EPS = np.finfo(float).eps
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


def branch_composition(gamma: GammaSequence, word: str, t_inner, mode: str = "auto"):
    """Evaluate g_1(gamma_1 * g_2(... gamma_{n-1} * g_n(t_inner))).

    Each g_k is u (letter L) or 1 - u (letter R); t_inner must lie in
    [0, gamma_n]. This is the common core of branch values, interval
    endpoints, and the separation quantities built from them.
    """
    n = len(word)
    mode = gamma.resolve_mode(n, mode)
    with localcontext(gamma.context(n)):
        v = u_map(_scalar(t_inner, mode))
        for k in range(n - 1, 0, -1):
            v = _pull(gamma.value(k), v, word[k] == "R", mode)
        return 1 - v if word[0] == "R" else v


def branch_value(gamma: GammaSequence, word: str, t, mode: str = "auto"):
    """Value of the composed inverse branch addressed by ``word`` at t.

    t ranges over [-1, 1]; the innermost substitution is
    t_inner = gamma_n * (1 - t) / 2, formed exactly.
    """
    if not -1.0 <= t <= 1.0:
        raise DomainError(f"branch parameter {t} outside [-1, 1]")
    t_inner = gamma.value(len(word)) * (1 - _as_fraction(t)) / 2
    return branch_composition(gamma, word, t_inner, mode)


def basic_interval(gamma: GammaSequence, word: str, mode: str = "auto") -> tuple:
    """The level-n basic interval addressed by a word of length n, as (lo, hi)."""
    a = branch_value(gamma, word, 1.0, mode)
    b = branch_value(gamma, word, -1.0, mode)
    return (a, b) if a < b else (b, a)


def level_gaps(gamma: GammaSequence, n: int, mode: str = "auto") -> list[tuple]:
    """The 2^n open gaps removed inside the level-n parents.

    Derived from the level-(n+1) intervals rather than stored; entries are
    (lo, hi) pairs and may be degenerate (lo == hi) in the boundary case
    gamma_k = 1/4.
    """
    ivs = level_intervals(gamma, n + 1, mode)
    return [(ivs[2 * j, 1], ivs[2 * j + 1, 0]) for j in range(2 ** n)]


# ---------------------------------------------------------------------------
# the branch lemma, one word at a time
# ---------------------------------------------------------------------------

def branch_separation_chain(fam: MapFamily, word, t_tilde) -> dict:
    """The three chained quantities for one word and inner endpoint.

    Returns the separation |G(t_tilde) - G(gamma_n/2)| together with the
    nested all-L value at gamma_n/2, the leftmost length l_{1,n+1} and
    delta_{n+1}; everything is evaluated in extended precision so equality
    cases do not flip from rounding.
    """
    gamma = fam.gamma
    n = len(word)
    half = gamma.value(n) / 2
    anchor = branch_composition(gamma, word, half, "dd")
    value = branch_composition(gamma, word, t_tilde, "dd")
    chain = branch_composition(gamma, "L" * n, half, "dd")
    l_next = leftmost_length(gamma, n + 1, "dd")
    d_next = gamma.delta(n + 1, "dd")
    # words whose inner letters are all L attain sep == chain exactly at
    # t_tilde = 0, and the reflected branches compute the tied sides
    # through different expressions: see spacing._TIE_CUSHION
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


def verify_second_neighbor_bound(zr: ZeroSet, zn: ZeroSet) -> ReportEntry:
    """M_r <= min second-neighbour gap of the degree-n zeros.

    Indices 0 and n+1 denote the support endpoints 0 and 1.
    """
    r, n = zr.degree, zn.degree
    if not (r > 1 and r >= n >= 1):
        raise DomainError(f"need r > 1 and r >= n >= 1, got {(r, n)}")
    rhs = _second_gap(zn)
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


def critical_set(fam: MapFamily, n: int, mode: str = "auto") -> CriticalSet:
    """Critical points of F_n: {1/2} together with all shallower zero sets.

    The chain rule factors F_n' over f_1' (vanishing at 1/2) and
    f_k'(F_{k-1}) for k = 2..n, whose zeros are the zeros of F_{k-1};
    the union has exactly 2^n - 1 points and misses the level-n set.
    Every level is computed in level n - 1's precision.
    """
    if n < 1:
        raise DomainError("level must be >= 1")
    return CriticalSet.from_zero_sets(critical_levels(fam, n, mode=mode))
