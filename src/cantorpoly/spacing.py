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
solves all its degrees in one batched eigensolve, each degree 2^j m at
level j + 1 of the mapping tower (jacobi.eigen_zero_sets). A dyadic
degree solves nothing there: its eigensolved zeros are the branch values
at t = 0, which are the exact zeros wherever those work in double, so
the two routes part only where the exact set is extended or the
eigensolve escalates. Each rational lower
bound q (a delta product) is decided through the least double t >= q:
for a double M_n, M_n >= t holds exactly when M_n >= q, so the verdicts
carry no rounding slack of their own. Gaps and distances between Decimal
points are formed exactly and rounded once, to double.

A full verification run builds each point set it reads once, before its
checks run, and hands the sets to the checks, which take point sets and
read each degree or level from them: the eigensolved zero sets of every
degree from one batched solve, the dyadic zero sets and the branch-lemma
tables of levels 1..8 from one branch ladder each
(geometry.branch_value_ladder), and the critical sets from those zero
sets wherever they share its deepest level's precision. Each
eigensolved zero set carries its smallest gap from the difference array
of its solve, so M_n takes no second pass. No check samples: one pass
per degree r up to 256 bins all smaller-degree zeros into Z_r, and
decides at-most-one interlacing and the distance bound on every pair and
triple of degrees.

Besides the rows of both inequalities, a run's checks are:

- interlacing_distance_bound: d(Z_l, Z_m) <= M_n for every l > m > n > 1,
  l <= min(n_max, 256);
- second_neighbor_bound: M_r below every second-neighbour gap of Z_n,
  for every 2 <= n <= r <= n_max;
- branch_separation_chain: the branch lemma at each level 1..8, with
  d(Z, Y) above its least separation;
- interlacing_at_most_one: every pair of degrees to min(n_max, 256);
- max_gap_sanity and dyadic_spacing_collapse, informational only.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, fields
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
    min_gap_with_index,
)
from .geometry import branch_value_ladder, largest_gap, leftmost_length
from .jacobi import JacobiMatrix, eigen_zero_sets
from .serialize import csv_text

_PI_SQ_4 = math.pi ** 2 / 4.0
_EXACT_VS_EIGEN_TOL = 1e-9
_TO_DECIMAL = np.frompyfunc(Decimal, 1, 1)
# branch values carry rounding at the ~1e-34 scale of their O(1) size and
# a separation keeps it as an absolute error, so the tie cushion is
# absolute; 1e-29 sits far below every genuine scale in range
_TIE_CUSHION = Decimal("1e-29")
# the sizes of a full verification: the branch lemma at levels 1..8, and
# the pairs of degrees up to 256 for at-most-one interlacing and the
# distance bound
_RORO_MAX_LEVEL = 8
_PAIRS_MAX = 256
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
    if isinstance(zero_set, ZeroSet):
        return zero_set.smallest_gap()[0]
    return min_gap_with_index(_points(zero_set))[0]


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
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
        # one key per SpacingRow field, M_n for m_n as in the CSV
        keys = [("M_n" if f.name == "m_n" else f.name, f.name) for f in fields(SpacingRow)]
        return {
            "metadata": dict(self.metadata),
            "escalated_degrees": list(self.escalated_degrees),
            "rows": [{key: getattr(r, name) for key, name in keys} for r in self.rows],
        }


# ---------------------------------------------------------------------------
# verified inequalities
# ---------------------------------------------------------------------------

def _level(zero_set: ZeroSet) -> int:
    """m for the zero set of a dyadic degree 2^m; DomainError otherwise."""
    m = _dyadic_exponent(zero_set.degree)
    if m is None:
        raise DomainError(f"degree {zero_set.degree} is not a dyadic degree")
    return m


def _second_gap(zn) -> float:
    """Minimum second-neighbour gap of a zero set, with 0 and 1 at its ends."""
    aug = np.concatenate([[0], _points(zn), [1]])
    with localcontext(_EXACT):
        return float(np.min(aug[2:] - aug[:-2]))


def verify_branch_lemma(fam: MapFamily, table: np.ndarray, z: ZeroSet,
                        y: CriticalSet) -> ReportEntry:
    """Exhaustive check of the separation chain at level n.

    For every one of the 2^n words and both inner endpoints the branch
    separation must dominate the all-L chain value, which in turn
    dominates l_{1,n+1} and delta_{n+1}. Additionally d(Z, Y) at degree
    2^n must dominate the minimum separation over all words and
    endpoints. table is the level's branch-value table over the
    parameters (0, 1, -1) in extended precision, one row per word: the
    anchors (t = 0) and both endpoints (t = +-1). z and y are the zero
    and critical sets of level n. The word-independent terms are
    computed once.
    """
    n = _level(z)
    if y.level != n:
        raise DomainError(f"critical set of level {y.level} against zeros of level {n}")
    if np.shape(table) != (2 ** n, len(_LEMMA_TS)):
        raise DomainError(f"level {n} needs a {2 ** n} x {len(_LEMMA_TS)} branch table, "
                          f"got shape {np.shape(table)}")
    gamma = fam.gamma
    anchors = table[:, 0]
    chain = anchors[0]
    l_next = leftmost_length(gamma, n + 1, "dd")
    d_next = gamma.delta(n + 1, "dd")
    scales_ok = _scales_ok(chain, l_next, d_next)
    # words whose inner letters are all L tie with the chain, and the
    # reflected branches compute the tied sides through different
    # expressions: hence the absolute tie cushion
    with localcontext(_EXACT):
        seps = abs(table[:, 1:] - anchors[:, None])
        failures = int(np.count_nonzero(chain - seps > _TIE_CUSHION)) if scales_ok else seps.size
    min_sep = float(seps.min())
    min_margin = min_sep / float(chain) if float(chain) > 0 else math.inf
    dzy = set_distance(z, y)
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

def _dyadic_exponent(n: int) -> int | None:
    if n >= 2 and (n & (n - 1)) == 0:
        return n.bit_length() - 1
    return None


def _spacing(zs: ZeroSet, exact: list[ZeroSet]):
    """M_n with provenance: exact at dyadic degrees, eigensolve elsewhere.

    exact holds the zero sets of levels 1, 2, ...; at dyadic degrees both
    routes are cross-checked before the exact value is used.
    """
    n = zs.degree
    m_eig, pair = zs.smallest_gap()
    m = _dyadic_exponent(n)
    if m is None:
        return m_eig, pair, "eigensolve"
    m_exact, pair_exact = exact[m - 1].smallest_gap()
    if abs(m_exact - m_eig) > _EXACT_VS_EIGEN_TOL:
        raise DomainError(
            f"exact and eigensolve spacing disagree at degree {n}: "
            f"{m_exact} vs {m_eig}"
        )
    return m_exact, pair_exact, "both"


def _least_double_at_least(q: Fraction) -> float:
    """The least double t >= q: for every double x, x >= t exactly when x >= q."""
    t = float(q)  # correctly rounded, also into the subnormals and to 0
    return math.nextafter(t, math.inf) if Fraction(t) < q else t


def _to_double(q: Fraction) -> float:
    """q rounded once to double; inf above the double range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf


def _declared_c(gamma, c) -> Fraction | None:
    """The declared c as a Fraction, checked against (0, inf gamma]."""
    if c is None:
        return None
    c_frac = c if isinstance(c, Fraction) else Fraction(c)
    if c_frac <= 0:
        raise DomainError(f"declared c = {c} must lie in (0, inf gamma] "
                          f"= (0, {gamma.infimum()}]")
    if c_frac > gamma.infimum():
        raise DomainError(f"declared c = {c} exceeds the materialized infimum")
    return c_frac


def _report(fam: MapFamily, J: JacobiMatrix, zero_sets: dict[int, ZeroSet],
            exact: list[ZeroSet], c_frac: Fraction | None,
            metadata: dict | None) -> SpacingReport:
    """One row per zero set, in ascending degree; exact holds the zero sets
    of every dyadic level among them, and c_frac is already checked."""
    gamma = fam.gamma

    @functools.cache
    def bounds(s: int):
        # (lower, upper, least double >= the rational lower bound) of
        # each inequality; None for the second when no c is declared
        d_lo = gamma.delta_fraction(s + 2)
        eq1 = (float(d_lo), _PI_SQ_4 * float(gamma.delta_fraction(s - 2)),
               _least_double_at_least(d_lo))
        if c_frac is None:
            return eq1, None
        d_s, c_sq = gamma.delta_fraction(s), c_frac * c_frac
        lo2 = c_sq * d_s
        if float(c_sq) >= sys.float_info.min:
            up2 = _PI_SQ_4 / float(c_sq) * float(d_s)
        else:  # c^2 is no normal double: divide exactly, then round once
            up2 = _PI_SQ_4 * _to_double(d_s / c_sq)
        return eq1, (float(lo2), up2, _least_double_at_least(lo2))

    rows = []
    for n, zs in zero_sets.items():
        s = n.bit_length()
        m_n, pair, source = _spacing(zs, exact)
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
            # a lower bound below the doubles rounds to 0: divide exactly
            margin_lo=(m_n / lower1 if lower1 > 0
                       else _to_double(Fraction(m_n) / gamma.delta_fraction(s + 2))),
            margin_hi=upper1 / m_n,
            source=source, min_pair=(pair, pair + 1), escalated=zs.escalated,
        ))
    meta = {
        "gamma": gamma.descriptor(),
        "c": None if c_frac is None else str(c_frac),
        "valid_length": J.b.size,
    }
    if metadata:
        meta.update(metadata)
    return SpacingReport(rows=tuple(rows), metadata=meta)


def spacing_report(fam: MapFamily, J: JacobiMatrix, degrees, c=None,
                   metadata: dict | None = None) -> SpacingReport:
    """Spacing rows for the requested degrees, with bound verdicts.

    All degrees come from one batched eigensolve, and the exact zero sets
    of the dyadic degrees among them from one exact_zero_ladder.
    Lower-bound comparisons are exact: the delta products are rationals,
    and M_n is compared against the least double at or above each, which
    decides M_n >= q without rounding. The pi^2-scaled upper bounds are
    evaluated in double, where their margins are many orders of magnitude
    wide. Both depend only on s, so each octave's bounds are formed once.
    """
    c_frac = _declared_c(fam.gamma, c)
    ns = sorted({int(d) for d in degrees})
    for n in ns:
        if not 1 < n <= J.b.size:
            raise DomainError(f"degree {n} outside (1, {J.b.size}]")
    zero_sets = eigen_zero_sets(J, ns)
    top = max((_dyadic_exponent(n) or 0 for n in ns), default=0)
    return _report(fam, J, zero_sets, exact_zero_ladder(fam, top), c_frac, metadata)


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


def _pair_pass(sets: dict) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Every (s, r), s < r, for which sets[s] breaks at-most-one interlacing
    with sets[r], ordered by r and then s, and the set distance of sets[s]
    and sets[r] at [r, s] of a matrix over the positions of the sorted keys.

    sets[s] interlaces at most once with sets[r] when its points lie
    strictly between the extreme points of sets[r] and no two of them share
    a closed interval of consecutive points of sets[r]. The points of all
    sets are laid end to end once, in key order, and the pass of r bins the
    prefix before sets[r] into it by one searchsorted, then decides both
    requirements and the nearest distances per segment. The passes before
    the first Decimal set read the doubles; from that pass on, every pass
    reads all points in Decimal, so double, extended and mixed sets get the
    per-pair results."""
    keys = sorted(sets)
    points = [_points(sets[k]) for k in keys]
    offsets = np.cumsum([0] + [p.size for p in points])
    first = next((i for i, p in enumerate(points) if p.dtype == object), len(points))
    doubles = np.concatenate(points[:first]) if first else None
    decimals = (np.concatenate([p if p.dtype == object else _TO_DECIMAL(p) for p in points])
                if first < len(points) else None)
    violations, distances = [], np.zeros((len(keys), len(keys)))
    for j in range(1, len(keys)):
        flat = doubles if j < first else decimals
        big, small = flat[offsets[j]:offsets[j + 1]], flat[:offsets[j]]
        starts, ends = offsets[:j], offsets[1:j + 1]
        bins = np.searchsorted(big, small)
        # a point crowds its predecessor in the same segment when both
        # fall in one closed interval of consecutive big points
        crowds = np.zeros(small.size, dtype=bool)
        crowds[1:] = bins[1:] <= bins[:-1]
        crowds[starts] = False
        crowded = np.logical_or.reduceat(crowds, starts)
        outside = (small[starts] <= big[0]) | (small[ends - 1] >= big[-1])
        violations += [(keys[i], keys[j]) for i in np.flatnonzero(crowded | outside)]
        with localcontext(_EXACT):  # each point against its big neighbours
            near = np.minimum(np.abs(small - big[np.maximum(bins - 1, 0)]),
                              np.abs(big[np.minimum(bins, big.size - 1)] - small))
        # rounding once to double is monotone, so it keeps each minimum
        distances[j, :j] = np.minimum.reduceat(near.astype(float), starts)
    return violations, distances


def full_verification(fam: MapFamily, J: JacobiMatrix, *, n_max: int,
                      c=None, metadata: dict | None = None) -> VerificationResult:
    """Run every verified inequality up to degree n_max plus the
    informational checks, at the module's fixed sizes.

    Each point set the checks read is built once per call, before the
    checks run: the zero sets of degrees 2..n_max from one batched
    eigensolve, the exact zero sets of every dyadic level the run reads
    from one exact_zero_ladder, the branch-lemma tables from one
    branch_value_ladder, and the critical sets of levels 1..8 from those
    exact zero sets wherever they share a level's precision. The spacing
    report reads the same sets. No check samples: the bounds on pairs and
    triples of degrees are decided on every case, listing 20 violations.
    """
    if not 2 <= n_max <= J.b.size:
        raise DomainError(f"n_max {n_max} outside [2, {J.b.size}]")
    # the run reads the dyadic levels up to n_max and up to the branch lemma's
    exact = exact_zero_ladder(fam, max(n_max.bit_length() - 1, _RORO_MAX_LEVEL))
    tables = branch_value_ladder(fam.gamma, _RORO_MAX_LEVEL, _LEMMA_TS, "dd")
    c_frac = _declared_c(fam.gamma, c)
    zeros = eigen_zero_sets(J, range(2, n_max + 1))
    report = _report(fam, J, zeros, exact, c_frac, metadata)
    critical = [CriticalSet.from_zero_sets(critical_levels(fam, n, exact[:n - 1]))
                for n in range(1, _RORO_MAX_LEVEL + 1)]
    top = min(_PAIRS_MAX, n_max)
    violations, dist = _pair_pass({r: zeros[r] for r in range(2, top + 1)})
    spacings = np.array([min_spacing(zeros[n]) for n in range(2, n_max + 1)])  # M_n at n - 2
    entries: list[ReportEntry] = []

    def every_case(check, max_degree, cases, ratios, name, failed):
        # ratios is lhs / rhs, or lower where no case is; failed, the failing cases
        worst = np.unravel_index(np.argmax(ratios), ratios.shape)
        entries.append(ReportEntry(check, not len(failed), float(len(failed)), 0.0, {
            "max_degree": max_degree, "cases": cases, "violations": failed[:20].tolist(),
            "worst_ratio": float(ratios[worst]) if cases else None,
            "worst_case": name(*map(int, worst)) if cases else None}))

    # d(Z_l, Z_m) <= M_n, l > m > n > 1: each pair [l - 2, m - 2] against the least M_n
    least = np.minimum.accumulate(np.concatenate([[np.inf], spacings[:top - 2]]))
    bad = np.argwhere(dist > least)  # pairs with a failing triple; hit: (pair, n) each
    hit = np.argwhere((spacings[:top - 1] < dist[tuple(bad.T)][:, None])
                      & (np.arange(top - 1) < bad[:, 1:]))
    every_case("interlacing_distance_bound", top, math.comb(top - 1, 3),
               np.where(np.tri(top - 1, k=-1, dtype=bool) & (least < np.inf), dist / least, -1),
               lambda l, m: (l + 2, m + 2, int(np.argmin(spacings[:m])) + 2),
               np.column_stack([bad[hit[:, 0]], hit[:, 1]]) + 2)

    # M_r <= every second-neighbour gap of Z_n, 2 <= n <= r: each n against the largest M_r
    second = np.array([_second_gap(zeros[n]) for n in range(2, n_max + 1)])
    every_case("second_neighbor_bound", n_max, math.comb(n_max, 2),
               np.maximum.accumulate(spacings[::-1])[::-1] / second,
               lambda n: (n + 2 + int(np.argmax(spacings[n:])), n + 2),
               np.argwhere(np.tril(spacings[:, None] > second)) + 2)

    for n in range(1, _RORO_MAX_LEVEL + 1):
        entries.append(verify_branch_lemma(fam, tables[n - 1], exact[n - 1], critical[n - 1]))

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
        level = math.ceil(math.log2(n))
        half_gap = 0.5 * largest_gap(fam.gamma, level)
        max_zero_gap = float(np.max(np.diff(zeros[n].points)))
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
    dyadic = [min_spacing(zs) for zs in exact[:n_max.bit_length() - 1]]
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
