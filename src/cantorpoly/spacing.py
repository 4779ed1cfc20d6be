"""Zero-spacing measurements and verification of the two-sided bounds.

The central quantity is M_n, the minimum distance between distinct zeros
of the degree-n orthogonal polynomial. For n between 2^(s-1) and 2^s it
obeys

    delta_{s+2}  <=  M_n  <=  (pi^2 / 4) * delta_{s-2},

and, when inf gamma_k = c > 0 is declared,

    c^2 * delta_s  <=  M_n  <=  (pi^2 / (4 c^2)) * delta_s.

The checks in this module compute each side independently (exact branch
compositions at dyadic degrees, eigensolves elsewhere) and report the
comparison outcome with scale-free ratio margins. The bounds change only
once per octave s, so a report decides them once per octave, and it
solves all its degrees in one batched eigensolve. Each rational lower
bound q (a delta product) is decided through the least double t >= q:
for a double M_n, M_n >= t holds exactly when M_n >= q, so the verdicts
carry no rounding slack of their own. Gaps and distances between Decimal
points are formed exactly and rounded once, to double.

A full verification run keeps one run-local cache: each eigensolve, each
dyadic zero set and each critical set is computed once per run and read
by every check, and the cache dies with the run. The dyadic zero sets
and the branch-lemma tables of levels 1..8 come from one branch ladder
each (geometry.branch_value_ladder), and a critical set reuses the
cached zero sets wherever they share its deepest level's precision.
Each eigensolved zero set carries its smallest gap from the solve, so
M_n takes no second pass. The at-most-one interlacing test is decided
one larger degree r at a time, with one binning of all smaller-degree
zeros.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .exact import EXACT as _EXACT
from .exact import (
    CriticalSet,
    MapFamily,
    ZeroSet,
    critical_levels,
    exact_zero_ladder,
    exact_zeros,
    min_gap_with_index,
)
from .geometry import (
    BranchWord,
    branch_composition,
    branch_value_ladder,
    branch_value_table,
    largest_gap,
    leftmost_length,
)
from .jacobi import JacobiMatrix, eigen_zero_sets
from .serialize import csv_text

_PI_SQ_4 = math.pi ** 2 / 4.0
_EXACT_VS_EIGEN_TOL = 1e-9
_TO_DECIMAL = np.frompyfunc(Decimal, 1, 1)
# branch values carry rounding at the ~1e-34 scale of their O(1) size and
# a separation keeps it as an absolute error, so the tie cushion is
# absolute; 1e-29 sits far below every genuine scale in range
_TIE_CUSHION = Decimal("1e-29")
# the sizes of a full verification: seeded (l, m, n) samples of the
# interlacing distance bound, the critical-set bound for k' < k <= 5,
# the branch lemma at levels 1..8, at-most-one interlacing to degree 64
_TEO1_SAMPLES = 50
_TM_MAX_K = 5
_RORO_MAX_LEVEL = 8
_INTERLACING_MAX = 64
# the branch lemma's parameters: anchors (t = 0) and both endpoints
_LEMMA_TS = (0.0, 1.0, -1.0)


def _scales_ok(chain, l_next, d_next) -> bool:
    # chain = l_{1,n+1} when gamma_{n+1} = 1/4, but the two round apart
    # (decimal halving is inexact), so that tie gets a relative cushion
    with localcontext(_EXACT):
        return chain >= l_next * (1 - _TIE_CUSHION) and l_next >= d_next


def _points(obj) -> np.ndarray:
    # an extended set gives an object array of Decimals: numpy's diff,
    # argmin, searchsorted, abs and min all work on it
    if isinstance(obj, (ZeroSet, CriticalSet)):
        return obj.values
    return np.asarray(obj, dtype=float)


# ---------------------------------------------------------------------------
# elementary set quantities
# ---------------------------------------------------------------------------

def min_spacing(zero_set) -> float:
    """Minimum gap between consecutive zeros, in the set's working precision."""
    return _min_gap_with_index(zero_set)[0]


def _min_gap_with_index(zero_set) -> tuple[float, int]:
    if isinstance(zero_set, ZeroSet):
        return zero_set.smallest_gap()
    return min_gap_with_index(_points(zero_set))


def set_distance(A, B) -> float:
    """min |a - b| over the two point sets, via a sorted merge."""
    a, b = _points(A), _points(B)
    if a.dtype != b.dtype:  # a double set against an extended one
        a, b = _TO_DECIMAL(a), _TO_DECIMAL(b)
    if a.size == 0 or b.size == 0:
        raise DomainError("set distance needs nonempty sets")
    pos = np.searchsorted(b, a)
    best = np.inf
    right = pos < b.size
    left = pos > 0
    with localcontext(_EXACT):
        if np.any(right):
            best = min(best, float(np.min(np.abs(b[pos[right]] - a[right]))))
        if np.any(left):
            best = min(best, float(np.min(np.abs(b[pos[left] - 1] - a[left]))))
    return best


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


# ---------------------------------------------------------------------------
# report records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportEntry:
    """Outcome of one verified inequality or one informational check."""

    check: str
    passed: bool
    lhs: float
    rhs: float
    detail: dict = field(default_factory=dict)
    severity: str = "assert"

    def as_json(self) -> dict:
        return {
            "check": self.check,
            "passed": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "severity": self.severity,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class SpacingRow:
    """Per-degree spacing record."""

    n: int
    s: int
    m_n: float
    lower_eq1: float
    upper_eq1: float
    lower_eq2: float | None
    upper_eq2: float | None
    pass_eq1: bool
    pass_eq2: bool | None
    margin_lo: float
    margin_hi: float
    source: str
    min_pair: tuple[int, int]
    escalated: bool

    def __post_init__(self):
        if not self.lower_eq1 <= self.upper_eq1:
            raise DomainError("lower bound exceeds upper bound")
        if self.lower_eq2 is not None and not self.lower_eq2 <= self.upper_eq2:
            raise DomainError("lower bound exceeds upper bound")


_CSV_COLUMNS = ["n", "s", "M_n", "lower_eq1", "upper_eq1", "lower_eq2",
                "upper_eq2", "pass_eq1", "pass_eq2", "margin_lo", "margin_hi"]


@dataclass(frozen=True)
class SpacingReport:
    """All spacing rows of a run plus the metadata needed to reproduce it."""

    rows: tuple[SpacingRow, ...]
    metadata: dict

    @property
    def all_pass(self) -> bool:
        return all(r.pass_eq1 and (r.pass_eq2 is not False) for r in self.rows)

    @property
    def escalated_degrees(self) -> tuple[int, ...]:
        return tuple(r.n for r in self.rows if r.escalated)

    def to_csv(self) -> str:
        # each header name is its SpacingRow field in lower case (M_n is m_n)
        return csv_text(_CSV_COLUMNS,
                        [[getattr(r, name.lower()) for r in self.rows] for name in _CSV_COLUMNS])

    def as_json(self) -> dict:
        return {
            "metadata": dict(self.metadata),
            "escalated_degrees": list(self.escalated_degrees),
            "rows": [
                {
                    "n": r.n, "s": r.s, "M_n": r.m_n,
                    "lower_eq1": r.lower_eq1, "upper_eq1": r.upper_eq1,
                    "lower_eq2": r.lower_eq2, "upper_eq2": r.upper_eq2,
                    "pass_eq1": r.pass_eq1, "pass_eq2": r.pass_eq2,
                    "margin_lo": r.margin_lo, "margin_hi": r.margin_hi,
                    "source": r.source, "min_pair": list(r.min_pair),
                    "escalated": r.escalated,
                }
                for r in self.rows
            ],
        }


# ---------------------------------------------------------------------------
# verified inequalities
# ---------------------------------------------------------------------------

def verify_interlacing_bound(J: JacobiMatrix, l: int, m: int, n: int,
                             cache: dict | None = None) -> ReportEntry:
    """d(Z_l, Z_m) <= M_n for degrees l > m > n > 1."""
    if not l > m > n > 1:
        raise DomainError(f"need l > m > n > 1, got {(l, m, n)}")
    if l > J.b.size:
        raise DomainError(f"degree {l} exceeds the {J.b.size} coefficients")
    zl = _cached_zeros(J, l, cache)
    zm = _cached_zeros(J, m, cache)
    zn = _cached_zeros(J, n, cache)
    lhs = set_distance(zl, zm)
    rhs = min_spacing(zn)
    return ReportEntry(
        check="interlacing_distance_bound",
        passed=lhs <= rhs,
        lhs=lhs,
        rhs=rhs,
        detail={"l": l, "m": m, "n": n},
    )


def verify_critical_bound(fam: MapFamily, k: int, k_prime: int,
                          cache: dict | None = None) -> ReportEntry:
    """d(Z, Y) <= d(Z, Z') on the exact dyadic sets.

    Z and Y are the zero and critical sets at level 1 + k, Z' the zero set
    at level 1 + k'; requires k > k' >= 0.
    """
    if not k > k_prime >= 0:
        raise DomainError(f"need k > k' >= 0, got {(k, k_prime)}")
    z = _cached_exact_zeros(fam, 1 + k, cache)
    y = _cached_critical_set(fam, 1 + k, cache)
    zp = _cached_exact_zeros(fam, 1 + k_prime, cache)
    lhs = set_distance(z, y)
    rhs = set_distance(z, zp)
    return ReportEntry(
        check="critical_distance_bound",
        passed=lhs <= rhs,
        lhs=lhs,
        rhs=rhs,
        detail={"k": k, "k_prime": k_prime,
                "degree": 2 ** (1 + k), "degree_prime": 2 ** (1 + k_prime)},
    )


def verify_second_neighbor_bound(J: JacobiMatrix, r: int, n: int,
                                 cache: dict | None = None) -> ReportEntry:
    """M_r <= min second-neighbour gap of the degree-n zeros.

    Indices 0 and n+1 denote the support endpoints 0 and 1.
    """
    if not (r > 1 and r >= n >= 1):
        raise DomainError(f"need r > 1 and r >= n >= 1, got {(r, n)}")
    if r > J.b.size:
        raise DomainError(f"degree {r} exceeds the {J.b.size} coefficients")
    zr = _cached_zeros(J, r, cache)
    zn = _cached_zeros(J, n, cache)
    aug = np.concatenate([[0], _points(zn), [1]])
    with localcontext(_EXACT):
        rhs = float(np.min(aug[2:] - aug[:-2]))
    lhs = min_spacing(zr)
    return ReportEntry(
        check="second_neighbor_bound",
        passed=lhs <= rhs,
        lhs=lhs,
        rhs=rhs,
        detail={"r": r, "n": n},
    )


def branch_separation_chain(fam: MapFamily, word, t_tilde) -> dict:
    """The three chained quantities for one word and inner endpoint.

    Returns the separation |G(t_tilde) - G(gamma_n/2)| together with the
    nested all-L value at gamma_n/2, the leftmost length l_{1,n+1} and
    delta_{n+1}; everything is evaluated in extended precision so equality
    cases do not flip from rounding.
    """
    gamma = fam.gamma
    w = word if isinstance(word, BranchWord) else BranchWord(word)
    n = len(w)
    half = gamma.value(n) / 2
    anchor = branch_composition(gamma, w, half, "dd")
    value = branch_composition(gamma, w, t_tilde, "dd")
    chain = branch_composition(gamma, BranchWord.leftmost(n), half, "dd")
    l_next = leftmost_length(gamma, n + 1, "dd")
    d_next = gamma.delta(n + 1, "dd")
    # words whose inner letters are all L attain sep == chain exactly at
    # t_tilde = 0, and the reflected branches compute the tied sides
    # through different expressions: see _TIE_CUSHION
    with localcontext(_EXACT):
        sep = abs(value - anchor)
        sep_ok = chain - sep <= _TIE_CUSHION
    return {
        "separation": sep,
        "chain": chain,
        "leftmost_next": l_next,
        "delta_next": d_next,
        "ok": sep_ok and _scales_ok(chain, l_next, d_next),
    }


def verify_branch_lemma(fam: MapFamily, n: int, cache: dict | None = None) -> ReportEntry:
    """Exhaustive check of the separation chain at level n.

    For every one of the 2^n words and both inner endpoints the branch
    separation must dominate the all-L chain value, which in turn
    dominates l_{1,n+1} and delta_{n+1}. Additionally d(Z, Y) at degree
    2^n must dominate the minimum separation over all words and
    endpoints. The anchors (t = 0) and endpoints (t = +-1) come from one
    branch-value table over the three parameters in extended precision:
    the run's lemma ladder when the cache holds one, else a fresh
    doubling pass, O(2^n) decimal operations. The word-independent terms
    are computed once.
    """
    if n < 1:
        raise DomainError("level must be >= 1")
    gamma = fam.gamma
    table = _cached_lemma_table(fam, n, cache)
    anchors = table[:, 0]
    chain = anchors[0]
    l_next = leftmost_length(gamma, n + 1, "dd")
    d_next = gamma.delta(n + 1, "dd")
    scales_ok = _scales_ok(chain, l_next, d_next)
    # same absolute tie cushion as branch_separation_chain
    with localcontext(_EXACT):
        seps = [abs(value - anchor)
                for col in (1, 2) for value, anchor in zip(table[:, col], anchors)]
        failures = sum(1 for sep in seps if not (scales_ok and chain - sep <= _TIE_CUSHION))
    min_sep = float(min(seps))
    min_margin = min_sep / float(chain) if float(chain) > 0 else math.inf
    dzy = set_distance(_cached_exact_zeros(fam, n, cache), _cached_critical_set(fam, n, cache))
    chain_ok = failures == 0
    dzy_ok = dzy >= min_sep
    return ReportEntry(
        check="branch_separation_chain",
        passed=chain_ok and dzy_ok,
        lhs=dzy,
        rhs=min_sep,
        detail={"n": n, "words": 2 ** n, "chain_failures": failures,
                "min_margin": min_margin, "critical_distance_ok": dzy_ok},
    )


# ---------------------------------------------------------------------------
# the spacing report
# ---------------------------------------------------------------------------

def _memo(cache: dict | None, key, compute):
    # cache is one run's dict; without one every call computes afresh
    if cache is None:
        return compute()
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def _cached_zero_sets(J: JacobiMatrix, degrees, cache: dict | None) -> dict[int, ZeroSet]:
    # one batched eigensolve of the degrees the cache does not hold yet
    if cache is None:
        return eigen_zero_sets(J, degrees)
    missing = [n for n in degrees if n not in cache]
    if missing:
        cache.update(eigen_zero_sets(J, missing))
    return {n: cache[n] for n in degrees}


def _cached_zeros(J: JacobiMatrix, n: int, cache: dict | None) -> ZeroSet:
    return _cached_zero_sets(J, (n,), cache)[n]


def _ladder(cache: dict | None, key: str) -> list:
    # the levels 1..L of one ladder that full_verification put in the cache
    return [] if cache is None else cache.get(key, [])


def _cached_exact_zeros(fam: MapFamily, m: int, cache: dict | None) -> ZeroSet:
    ladder = _ladder(cache, "exact ladder")
    if m <= len(ladder):
        return ladder[m - 1]
    return _memo(cache, ("exact", m), lambda: exact_zeros(fam, m))


def _cached_lemma_table(fam: MapFamily, n: int, cache: dict | None) -> np.ndarray:
    ladder = _ladder(cache, "lemma ladder")
    if n <= len(ladder):
        return ladder[n - 1]
    return _memo(cache, ("lemma", n), lambda: branch_value_table(fam.gamma, n, _LEMMA_TS, "dd"))


def _cached_critical_set(fam: MapFamily, n: int, cache: dict | None) -> CriticalSet:
    """{1/2} together with the zero sets of levels 1..n-1, all in level
    n - 1's precision: the cached ones wherever they share it."""
    if n < 1:
        raise DomainError("level must be >= 1")
    return _memo(cache, ("critical", n), lambda: CriticalSet.from_zero_sets(critical_levels(
        fam, n, [_cached_exact_zeros(fam, k, cache) for k in range(1, n)])))


def _dyadic_exponent(n: int) -> int | None:
    if n >= 2 and (n & (n - 1)) == 0:
        return n.bit_length() - 1
    return None


def _spacing(fam: MapFamily, zs: ZeroSet, cache: dict | None):
    """M_n with provenance: exact at dyadic degrees, eigensolve elsewhere.

    At dyadic degrees both routes are computed and cross-checked before
    the exact value is used.
    """
    n = zs.degree
    m_eig, pair = _min_gap_with_index(zs)
    m = _dyadic_exponent(n)
    if m is None:
        return m_eig, pair, "eigensolve", zs.escalated
    m_exact, pair_exact = _min_gap_with_index(_cached_exact_zeros(fam, m, cache))
    if abs(m_exact - m_eig) > _EXACT_VS_EIGEN_TOL:
        raise DomainError(
            f"exact and eigensolve spacing disagree at degree {n}: "
            f"{m_exact} vs {m_eig}"
        )
    return m_exact, pair_exact, "both", zs.escalated


def _least_double_at_least(q: Fraction) -> float:
    """The least double t >= q: for every double x, x >= t exactly when x >= q."""
    t = float(q)  # correctly rounded, also into the subnormals and to 0
    return math.nextafter(t, math.inf) if Fraction(t) < q else t


def spacing_report(fam: MapFamily, J: JacobiMatrix, degrees, c=None,
                   cache: dict | None = None, metadata: dict | None = None) -> SpacingReport:
    """Spacing rows for the requested degrees, with bound verdicts.

    All degrees come from one batched eigensolve (with a cache, of the
    degrees it does not hold yet). Lower-bound comparisons are exact: the
    delta products are rationals, and M_n is compared against the least
    double at or above each, which decides M_n >= q without rounding. The
    pi^2-scaled upper bounds are evaluated in double, where their margins
    are many orders of magnitude wide. Both depend only on s, so each
    octave's bounds are formed once.
    """
    gamma = fam.gamma
    c_frac = None
    if c is not None:
        c_frac = c if isinstance(c, Fraction) else Fraction(c)
        if c_frac <= 0:
            raise DomainError(f"declared c = {c} must lie in (0, inf gamma] "
                              f"= (0, {gamma.infimum()}]")
        if c_frac > gamma.infimum():
            raise DomainError(f"declared c = {c} exceeds the materialized infimum")
        c_sq = c_frac * c_frac

    @functools.cache
    def bounds(s: int):
        # (lower, upper, least double >= the rational lower bound) of
        # each inequality; None for the second when no c is declared
        d_lo = gamma.delta_fraction(s + 2)
        eq1 = (float(d_lo), _PI_SQ_4 * float(gamma.delta_fraction(s - 2)),
               _least_double_at_least(d_lo))
        if c_frac is None:
            return eq1, None
        d_s = gamma.delta_fraction(s)
        lo2 = c_sq * d_s
        return eq1, (float(lo2), _PI_SQ_4 / float(c_sq) * float(d_s), _least_double_at_least(lo2))

    ns = sorted({int(d) for d in degrees})
    for n in ns:
        if not 1 < n <= J.b.size:
            raise DomainError(f"degree {n} outside (1, {J.b.size}]")
    zero_sets = _cached_zero_sets(J, ns, cache)
    rows = []
    for n in ns:
        s = n.bit_length()
        m_n, pair, source, escalated = _spacing(fam, zero_sets[n], cache)
        (lower1, upper1, least1), eq2 = bounds(s)
        pass1 = m_n >= least1 and m_n <= upper1
        if eq2 is None:
            lower2 = upper2 = pass2 = None
        else:
            lower2, upper2, least2 = eq2
            pass2 = m_n >= least2 and m_n <= upper2
        rows.append(SpacingRow(
            n=n, s=s, m_n=m_n,
            lower_eq1=lower1, upper_eq1=upper1,
            lower_eq2=lower2, upper_eq2=upper2,
            pass_eq1=pass1, pass_eq2=pass2,
            margin_lo=m_n / lower1, margin_hi=upper1 / m_n,
            source=source, min_pair=(pair, pair + 1), escalated=escalated,
        ))
    meta = {
        "gamma": gamma.descriptor(),
        "c": None if c_frac is None else str(c_frac),
        "valid_length": J.b.size,
    }
    if metadata:
        meta.update(metadata)
    return SpacingReport(rows=tuple(rows), metadata=meta)


# ---------------------------------------------------------------------------
# full verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationResult:
    spacing: SpacingReport
    entries: tuple[ReportEntry, ...]

    @property
    def passed(self) -> bool:
        asserted = all(e.passed for e in self.entries if e.severity == "assert")
        return asserted and self.spacing.all_pass

    def as_json(self) -> dict:
        return {
            "passed": self.passed,
            "spacing": self.spacing.as_json(),
            "checks": [e.as_json() for e in self.entries],
        }


def _interlacing_violations(sets: dict) -> list[tuple[int, int]]:
    """Every (s, r), s < r, for which interlacing_at_most_one(sets[s], sets[r])
    is False, ordered by r and then s.

    One pass per r: the points of all smaller keys are concatenated and
    binned into sets[r] by one searchsorted, then both requirements are
    decided per segment. Comparisons between double and Decimal points
    are exact, so double, extended and mixed sets get the per-pair verdicts.
    """
    keys = sorted(sets)
    points = [_points(sets[k]) for k in keys]
    sizes = np.array([p.size for p in points])
    violations = []
    for j in range(1, len(keys)):
        big = points[j]
        small = np.concatenate(points[:j])
        ends = np.cumsum(sizes[:j])
        starts = ends - sizes[:j]
        bins = np.searchsorted(big, small)
        # a point crowds its predecessor in the same segment when both
        # fall in one closed interval of consecutive big points
        crowds = np.zeros(small.size, dtype=bool)
        crowds[1:] = bins[1:] <= bins[:-1]
        crowds[starts] = False
        crowded = np.logical_or.reduceat(crowds, starts)
        outside = (small[starts] <= big[0]) | (small[ends - 1] >= big[-1])
        violations += [(keys[i], keys[j]) for i in np.flatnonzero(crowded | outside)]
    return violations


def full_verification(fam: MapFamily, J: JacobiMatrix, *, n_max: int,
                      c=None, seed: int = 20240601,
                      metadata: dict | None = None) -> VerificationResult:
    """Run every verified inequality up to degree n_max plus the
    informational checks, at the module's fixed sizes.

    One run-local cache holds the eigensolves and the dyadic zero and
    critical sets, so each is computed once per call; the spacing report
    fills it with one batched eigensolve of degrees 2..n_max, and
    interlacing is checked one degree r at a time. The dyadic zero sets
    of every level the run reads come from one ladder, and so do the
    branch-lemma tables.
    """
    if not 2 <= n_max <= J.b.size:
        raise DomainError(f"n_max {n_max} outside [2, {J.b.size}]")
    rng = np.random.default_rng(seed)
    # the run reads the dyadic levels up to n_max and up to the branch lemma's
    cache: dict = {
        "exact ladder": exact_zero_ladder(fam, max(n_max.bit_length() - 1, _RORO_MAX_LEVEL)),
        "lemma ladder": branch_value_ladder(fam.gamma, _RORO_MAX_LEVEL, _LEMMA_TS, "dd"),
    }
    entries: list[ReportEntry] = []

    report = spacing_report(fam, J, range(2, n_max + 1), c=c, cache=cache,
                            metadata=metadata)

    if n_max >= 4:
        for _ in range(_TEO1_SAMPLES):
            l = int(rng.integers(4, n_max + 1))
            m = int(rng.integers(3, l))
            n = int(rng.integers(2, m))
            entries.append(verify_interlacing_bound(J, l, m, n, cache))

    for k in range(1, _TM_MAX_K + 1):
        for k_prime in range(k):
            entries.append(verify_critical_bound(fam, k, k_prime, cache=cache))

    uuu_pairs = sorted({(n_max, max(2, n_max // 2)), (n_max, 2),
                        (max(2, n_max // 2), max(2, n_max // 4)),
                        (n_max, n_max)})
    for r, n in uuu_pairs:
        entries.append(verify_second_neighbor_bound(J, r, n, cache))

    for n in range(1, _RORO_MAX_LEVEL + 1):
        entries.append(verify_branch_lemma(fam, n, cache))

    top = min(_INTERLACING_MAX, n_max)
    violations = _interlacing_violations({r: _cached_zeros(J, r, cache) for r in range(2, top + 1)})
    entries.append(ReportEntry(
        check="interlacing_at_most_one",
        passed=not violations,
        lhs=float(len(violations)),
        rhs=0.0,
        detail={"max_degree": top, "violations": violations[:20]},
    ))

    # informational: max consecutive-zero gap versus half the largest gap
    # of the matching pre-Cantor level
    gap_checks = []
    for n in sorted(n for n in {4, n_max // 2, n_max} if 2 <= n <= n_max):
        zs = _cached_zeros(J, n, cache)
        level = math.ceil(math.log2(n))
        half_gap = 0.5 * largest_gap(fam.gamma, level)
        max_zero_gap = float(np.max(np.diff(zs.points)))
        gap_checks.append({"n": n, "max_zero_gap": max_zero_gap,
                           "half_largest_gap": half_gap,
                           "ok": max_zero_gap >= half_gap})
    entries.append(ReportEntry(
        check="max_gap_sanity",
        passed=all(g["ok"] for g in gap_checks),
        lhs=float(len([g for g in gap_checks if not g["ok"]])),
        rhs=0.0,
        detail={"cases": gap_checks},
        severity="info",
    ))

    # informational: M at dyadic degrees should collapse monotonically
    dyadic = []
    m = 1
    while 2 ** m <= n_max:
        dyadic.append(min_spacing(_cached_exact_zeros(fam, m, cache)))
        m += 1
    collapse_ok = all(b <= a for a, b in zip(dyadic[1:], dyadic[2:]))
    entries.append(ReportEntry(
        check="dyadic_spacing_collapse",
        passed=collapse_ok,
        lhs=float(len(dyadic)),
        rhs=0.0,
        detail={"values": dyadic},
        severity="info",
    ))

    return VerificationResult(spacing=report, entries=tuple(entries))
