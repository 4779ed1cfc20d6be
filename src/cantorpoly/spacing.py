"""Zero-spacing measurements and verification of the two-sided bounds.

The central quantity is M_n, the minimum distance between distinct zeros
of the degree-n orthogonal polynomial. For n between 2^(s-1) and 2^s it
obeys

    delta_{s+2}  <=  M_n  <=  (pi^2 / 4) * delta_{s-2},

and, when inf gamma_k = c > 0 is declared,

    c^2 * delta_s  <=  M_n  <=  (pi^2 / (4 c^2)) * delta_s.

The checks in this module compute each side independently (exact branch
compositions at dyadic degrees, eigensolves elsewhere) and report the
comparison outcome with scale-free ratio margins. Lower bounds against
delta products are compared through exact rationals so the verdicts carry
no rounding slack of their own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .ddouble import DoubleDouble
from .errors import DomainError
from .exact import CriticalSet, MapFamily, ZeroSet, critical_set, exact_zero_scalars, exact_zeros
from .geometry import (
    BranchWord,
    all_branch_values,
    branch_composition,
    largest_gap,
    leftmost_length,
)
from .jacobi import JacobiMatrix, eigen_zeros
from .serialize import csv_text

_PI_SQ_4 = math.pi ** 2 / 4.0
_EXACT_VS_EIGEN_TOL = 1e-9


def _points(obj) -> np.ndarray:
    if isinstance(obj, (ZeroSet, CriticalSet)):
        return obj.points
    return np.asarray(obj, dtype=float)


# ---------------------------------------------------------------------------
# elementary set quantities
# ---------------------------------------------------------------------------

def min_spacing(zero_set) -> float:
    """Minimum gap between consecutive zeros; needs at least two of them."""
    if isinstance(zero_set, ZeroSet) and zero_set.points_dd is not None:
        pts = zero_set.points_dd
        if len(pts) < 2:
            raise DomainError("minimum spacing needs at least two zeros")
        return min(float(pts[i + 1] - pts[i]) for i in range(len(pts) - 1))
    pts = _points(zero_set)
    if pts.size < 2:
        raise DomainError("minimum spacing needs at least two zeros")
    return float(np.min(np.diff(pts)))


def _min_gap_with_index(pts: np.ndarray) -> tuple[float, int]:
    gaps = np.diff(pts)
    i = int(np.argmin(gaps))
    return float(gaps[i]), i


def set_distance(A, B) -> float:
    """min |a - b| over the two point sets, via a sorted merge."""
    a = _points(A)
    b = _points(B)
    if a.size == 0 or b.size == 0:
        raise DomainError("set distance needs nonempty sets")
    pos = np.searchsorted(b, a)
    best = np.inf
    right = pos < b.size
    if np.any(right):
        best = min(best, float(np.min(np.abs(b[pos[right]] - a[right]))))
    left = pos > 0
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
        rows = [
            (r.n, r.s, r.m_n, r.lower_eq1, r.upper_eq1, r.lower_eq2,
             r.upper_eq2, r.pass_eq1, r.pass_eq2, r.margin_lo, r.margin_hi)
            for r in self.rows
        ]
        return csv_text(_CSV_COLUMNS, rows)

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
    if l > J.valid_length:
        raise DomainError(f"degree {l} exceeds certified length {J.valid_length}")
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
                          mode: str = "double") -> ReportEntry:
    """d(Z, Y) <= d(Z, Z') on the exact dyadic sets.

    Z and Y are the zero and critical sets at level 1 + k, Z' the zero set
    at level 1 + k'; requires k > k' >= 0.
    """
    if not k > k_prime >= 0:
        raise DomainError(f"need k > k' >= 0, got {(k, k_prime)}")
    z = exact_zeros(fam, 1 + k, mode)
    y = critical_set(fam, 1 + k, mode)
    zp = exact_zeros(fam, 1 + k_prime, mode)
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
    if r > J.valid_length:
        raise DomainError(f"degree {r} exceeds certified length {J.valid_length}")
    zr = _cached_zeros(J, r, cache)
    zn = _cached_zeros(J, n, cache)
    aug = np.concatenate([[0.0], zn.points, [1.0]])
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
    delta_{n+1}; everything is evaluated in double-double so equality
    cases do not flip from rounding.
    """
    gamma = fam.gamma
    w = word if isinstance(word, BranchWord) else BranchWord(word)
    n = len(w)
    gn = gamma.gamma(n, "dd")
    if not isinstance(t_tilde, DoubleDouble):
        t_tilde = DoubleDouble(float(t_tilde))
    anchor = branch_composition(gamma, w, gn * 0.5, "dd")
    value = branch_composition(gamma, w, t_tilde, "dd")
    sep = abs(value - anchor)
    chain = branch_composition(gamma, BranchWord.leftmost(n), gn * 0.5, "dd")
    l_next = leftmost_length(gamma, n + 1, "dd")
    d_next = gamma.delta(n + 1, "dd")
    # words whose inner letters are all L attain sep == chain exactly at
    # t_tilde = 0, and the reflected branches compute the tied sides through
    # different expressions. The branch values carry dd rounding at the
    # ~1e-32 scale of their O(1) magnitude, and the subtraction forming the
    # separation preserves it as an absolute error, so the tie cushion must
    # be absolute; 1e-29 sits far below every genuine scale in range.
    sep_ok = chain - sep <= DoubleDouble(1e-29)
    return {
        "separation": sep,
        "chain": chain,
        "leftmost_next": l_next,
        "delta_next": d_next,
        "ok": sep_ok and chain >= l_next and l_next >= d_next,
    }


def verify_branch_lemma(fam: MapFamily, n: int) -> ReportEntry:
    """Exhaustive check of the separation chain at level n.

    For every one of the 2^n words and both inner endpoints the branch
    separation must dominate the all-L chain value, which in turn
    dominates l_{1,n+1} and delta_{n+1}. Additionally d(Z, Y) at degree
    2^n must dominate the minimum separation over all words and
    endpoints. The anchors (t = 0) and endpoints (t = +-1) come from three
    doubling passes of all_branch_values, so the whole level costs
    O(2^n) double-double operations; the word-independent terms are
    computed once.
    """
    if n < 1:
        raise DomainError("level must be >= 1")
    gamma = fam.gamma
    anchors = all_branch_values(gamma, n, 0.0, "dd")
    seps = [abs(value - anchor)
            for t in (1.0, -1.0)
            for value, anchor in zip(all_branch_values(gamma, n, t, "dd"), anchors)]
    chain = anchors[0]
    l_next = leftmost_length(gamma, n + 1, "dd")
    d_next = gamma.delta(n + 1, "dd")
    scales_ok = chain >= l_next and l_next >= d_next
    # same absolute tie cushion as branch_separation_chain
    cushion = DoubleDouble(1e-29)
    failures = sum(1 for sep in seps if not (scales_ok and chain - sep <= cushion))
    min_sep = min(float(sep) for sep in seps)
    min_margin = min_sep / float(chain) if float(chain) > 0 else math.inf
    dzy = set_distance(exact_zeros(fam, n), critical_set(fam, n))
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

def _cached_zeros(J: JacobiMatrix, n: int, cache: dict | None) -> ZeroSet:
    if cache is None:
        return eigen_zeros(J, n)
    if n not in cache:
        cache[n] = eigen_zeros(J, n)
    return cache[n]


def _dyadic_exponent(n: int) -> int | None:
    if n >= 2 and (n & (n - 1)) == 0:
        return n.bit_length() - 1
    return None


def spacing_for_degree(fam: MapFamily, J: JacobiMatrix, n: int,
                       cache: dict | None = None, mode: str = "auto"):
    """M_n with provenance: exact at dyadic degrees, eigensolve elsewhere.

    At dyadic degrees both routes are computed and cross-checked before
    the exact value is used.
    """
    zs = _cached_zeros(J, n, cache)
    m_eig, pair = _min_gap_with_index(zs.points)
    if zs.points_dd is not None:
        m_eig = min_spacing(zs)
    m = _dyadic_exponent(n)
    if m is None:
        return m_eig, pair, "eigensolve", zs.escalated
    pts = exact_zero_scalars(fam, m, mode)
    gaps = [float(pts[i + 1] - pts[i]) for i in range(len(pts) - 1)]
    m_exact = min(gaps)
    pair_exact = int(np.argmin(gaps))
    if abs(m_exact - m_eig) > _EXACT_VS_EIGEN_TOL:
        raise DomainError(
            f"exact and eigensolve spacing disagree at degree {n}: "
            f"{m_exact} vs {m_eig}"
        )
    return m_exact, pair_exact, "both", zs.escalated


def spacing_report(fam: MapFamily, J: JacobiMatrix, degrees, c=None,
                   cache: dict | None = None, mode: str = "auto",
                   metadata: dict | None = None) -> SpacingReport:
    """Spacing rows for the requested degrees, with bound verdicts.

    Lower-bound comparisons are exact: the delta products are rationals
    and M_n is compared against them without rounding. The pi^2-scaled
    upper bounds are evaluated in double, where their margins are many
    orders of magnitude wide.
    """
    gamma = fam.gamma
    c_frac = None
    if c is not None:
        c_frac = c if isinstance(c, Fraction) else Fraction(c)
        if c_frac <= 0 or c_frac > gamma.infimum():
            raise DomainError(f"declared c = {c} exceeds the materialized infimum")
        c_sq = c_frac * c_frac
    # delta products depend only on s, which changes once per octave
    delta = functools.cache(gamma.delta_fraction)

    rows = []
    for n in sorted(set(int(d) for d in degrees)):
        if not 1 < n <= J.valid_length:
            raise DomainError(f"degree {n} outside (1, valid_length]")
        s = n.bit_length()
        m_n, pair, source, escalated = spacing_for_degree(fam, J, n, cache, mode)
        d_lo = delta(s + 2)
        d_hi = delta(s - 2)
        lower1 = float(d_lo)
        upper1 = _PI_SQ_4 * float(d_hi)
        pass1 = (Fraction(m_n) >= d_lo) and (m_n <= upper1)
        if c_frac is not None:
            d_s = delta(s)
            lo2_frac = c_sq * d_s
            lower2 = float(lo2_frac)
            upper2 = _PI_SQ_4 / float(c_sq) * float(d_s)
            pass2 = (Fraction(m_n) >= lo2_frac) and (m_n <= upper2)
        else:
            lower2 = upper2 = pass2 = None
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
        "valid_length": J.valid_length,
        "precision_mode": mode,
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


def full_verification(fam: MapFamily, J: JacobiMatrix, *, n_max: int,
                      c=None, seed: int = 20240601, teo1_samples: int = 50,
                      roro_max_level: int = 8,
                      tm_max_k: int = 5, interlacing_max: int = 64,
                      metadata: dict | None = None) -> VerificationResult:
    """Run every verified inequality up to degree n_max plus the
    informational checks, sharing one eigensolve cache."""
    if not 2 <= n_max <= J.valid_length:
        raise DomainError(f"n_max {n_max} outside [2, valid_length]")
    rng = np.random.default_rng(seed)
    cache: dict = {}
    entries: list[ReportEntry] = []

    report = spacing_report(fam, J, range(2, n_max + 1), c=c, cache=cache,
                            metadata=metadata)

    if n_max >= 4:
        for _ in range(teo1_samples):
            l = int(rng.integers(4, n_max + 1))
            m = int(rng.integers(3, l))
            n = int(rng.integers(2, m))
            entries.append(verify_interlacing_bound(J, l, m, n, cache))

    for k in range(1, tm_max_k + 1):
        for k_prime in range(k):
            entries.append(verify_critical_bound(fam, k, k_prime))

    uuu_pairs = sorted({(n_max, max(2, n_max // 2)), (n_max, 2),
                        (max(2, n_max // 2), max(2, n_max // 4)),
                        (n_max, n_max)})
    for r, n in uuu_pairs:
        entries.append(verify_second_neighbor_bound(J, r, n, cache))

    for n in range(1, roro_max_level + 1):
        entries.append(verify_branch_lemma(fam, n))

    violations = []
    top = min(interlacing_max, n_max)
    for r in range(3, top + 1):
        zr = _cached_zeros(J, r, cache)
        for s in range(2, r):
            if not interlacing_at_most_one(_cached_zeros(J, s, cache), zr):
                violations.append((s, r))
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
    for n in sorted({4, n_max // 2, n_max}):
        if n < 2:
            continue
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
        dyadic.append(min_spacing(exact_zeros(fam, m)))
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
