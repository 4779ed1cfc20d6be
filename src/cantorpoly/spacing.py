"""Zero-spacing measurements and verification of the two-sided bounds.

The central quantity is M_n, the minimum distance between distinct zeros
of the degree-n orthogonal polynomial. For n between 2^(s-1) and 2^s it
obeys

    delta_{s+2}  <=  M_n  <=  (pi^2 / 4) * delta_{s-2},

and, when inf gamma_k = c > 0 is declared,

    c^2 * delta_s  <=  M_n  <=  (pi^2 / (4 c^2)) * delta_s.

The checks in this module compare M_n with both sides and report the
outcome with scale-free ratio margins. A report solves all its degrees
in one batched eigensolve, each degree 2^j m at level j + 1 of the
mapping tower (jacobi.eigen_zero_sets), into one zero table whose gaps
give M_n; the report is its columns, one list per field with one entry
per degree, formed as whole arrays. The bounds change only
once per octave s, so they are formed once per octave. A dyadic degree
2^m solves nothing, and its M_n is no difference of rounded zeros: each
gap of level m is the sum of two distances to a centre, carried with no
subtraction by one separation ladder (geometry._separation_ladder) in
double at every level. Every eigensolved zero is double: a degree that
double cannot resolve stops the run as a numerical failure
(jacobi._zero_table). Both entry points take the table, the ladder, the
M_n array and the report from one step, _spacing.
Each rational lower bound q (a delta product) is decided through the
least double t >= q: for a double M_n, M_n >= t holds exactly when
M_n >= q, so the verdicts carry no rounding slack of their own. Gaps and
distances between Decimal points are formed exactly and rounded once, to
double.

A full verification run builds each point set it reads once, and the
checks read each degree or level from them: the eigensolved zeros of
every degree as one table from one batched solve, and the separation
ladder of the report, built to level 8 at least, whose levels 1..8 are
the branch lemma's tables. Each table holds every word's separations and
its distances to the centres of its ancestors, which are the critical
points of F_n, so the lemma reads d(Z, Y) there too, and no zero or
critical set of F_n is built for it. No check samples: one pass per
degree r up to 256 bins all smaller-degree zeros into Z_r, and decides
at-most-one interlacing and the distance bound on every pair and triple
of degrees.

Besides the rows of both inequalities, a run's checks are below; each
that reads M_n reads the report's M_n column, the value its row prints:

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

import contextlib
import functools
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field, fields
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .exact import EXACT as _EXACT
from .exact import CriticalSet, MapFamily, ZeroSet, min_gap_with_index
from .geometry import _separation_ladder, largest_gap, leftmost_length
from .jacobi import JacobiMatrix, _zero_table
from .serialize import csv_text

_PI_SQ_4 = math.pi ** 2 / 4.0
_TO_DECIMAL = np.frompyfunc(Decimal, 1, 1)
# the sizes of a full verification: the branch lemma at levels 1..8, and
# the pairs of degrees up to 256 for at-most-one interlacing and the
# distance bound
_RORO_MAX_LEVEL = 8
_PAIRS_MAX = 256


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
    """min |a - b| over the two point sets: each a against its neighbours in B (``_against``);
    its error is the points' own, absolute (about an ulp of 1 in double), not relative."""
    a, b = _points(A), _points(B)
    if a.dtype != b.dtype:  # a double set against an extended one
        a, b = _TO_DECIMAL(a), _TO_DECIMAL(b)
    if a.size == 0 or b.size == 0:
        raise DomainError("set distance needs nonempty sets")
    return float(_against(b, a, np.array([0]))[1][0])


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


# a record of the spacing of one degree, or, in SpacingReport.columns, the
# column of each field, one entry per degree
SpacingRow = namedtuple("SpacingRow", "n s m_n lower_eq1 upper_eq1 lower_eq2 upper_eq2 "
                        "pass_eq1 pass_eq2 margin_lo margin_hi source min_pair")

_CSV_COLUMNS = ["n", "s", "M_n", "lower_eq1", "upper_eq1", "lower_eq2",
                "upper_eq2", "pass_eq1", "pass_eq2", "margin_lo", "margin_hi"]


@dataclass(frozen=True)
class SpacingReport:
    """The spacing columns of a run, one list per SpacingRow field with one entry per
    degree, plus the metadata needed to reproduce it."""

    columns: SpacingRow
    metadata: dict

    @functools.cached_property
    def rows(self) -> tuple[SpacingRow, ...]:
        """One SpacingRow per degree, built on first read."""
        return tuple(map(SpacingRow._make, zip(*self.columns)))

    @property
    def all_pass(self) -> bool:
        return all(self.columns.pass_eq1) and False not in self.columns.pass_eq2

    def to_csv(self) -> str:
        # each header name is its SpacingRow field in lower case (M_n is m_n)
        return csv_text(_CSV_COLUMNS,
                        [getattr(self.columns, name.lower()) for name in _CSV_COLUMNS])

    def as_json(self) -> dict:
        # one key per SpacingRow field, M_n for m_n as in the CSV
        keys = ["M_n" if name == "m_n" else name for name in SpacingRow._fields]
        return {
            "metadata": dict(self.metadata),
            "rows": [dict(zip(keys, row)) for row in zip(*self.columns)],
        }


# ---------------------------------------------------------------------------
# verified inequalities
# ---------------------------------------------------------------------------

def _second_gaps(v: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The least second-neighbour gap of each set v[offsets[i]:offsets[i + 1]] of two points
    or more, with 0 and 1 at its ends."""
    starts, ends = offsets[:-1], offsets[1:]
    second = np.empty(v.size)  # a set's last two slots take its two end terms
    np.subtract(v[2:], v[:-2], out=second[:-2])
    second[ends - 2] = 1 - v[ends - 2]
    second[ends - 1] = v[starts + 1]
    return np.minimum.reduceat(second, starts)


def verify_branch_lemma(fam: MapFamily, table: tuple[np.ndarray, float]) -> ReportEntry:
    """Exhaustive check of the separation chain at level n, and of d(Z, Y) at degree 2^n.

    table is level n of ``geometry._separation_ladder``: its (2^n, n + 3) array, per word the
    anchor, its signed separations at t = +1 and -1 and its signed distances to the centres
    of its ancestors, and l_{1,n+1} in double. For every word and both
    inner endpoints the separation must dominate the all-L chain value, which in turn
    dominates l_{1,n+1} and delta_{n+1}. And d(Z, Y), from the zeros Z of F_n to its
    critical points Y, must dominate the least separation. Y is 1/2 and the zeros of F_1,
    ..., F_{n-1}: the centres of the level-k intervals, k < n. Every gap between
    neighbouring level-n intervals lies inside their deepest common ancestor and holds its
    centre, so both critical points next to a zero are centres of its own ancestors, and
    d(Z, Y) is the least centre distance, formed in double with no subtraction. No tie needs
    a cushion: the all-L words at t = +1 equal the chain bit for bit, and so does l_{1,n+1},
    pulled by the chain's own steps, where gamma_{n+1} = 1/4. l_{1,n+1} >= delta_{n+1} is
    decided in level n + 1's precision, as every level's: where that is double, u(x) / x >=
    1 + x gives l / delta >= 1 + gamma_{n+1}, and gamma_{n+1} = delta_{n+1} / delta_n >= 1e-12
    * 4^n, over 100 times the rounding of delta_{n+1} and of l, whose relative error e a pull
    takes to at most 1.25 e + 6.25 u (u = 2^-53).
    """
    words, leftmost = table
    n = len(words).bit_length() - 1
    if n < 1 or np.shape(words) != (2 ** n, n + 3):
        raise DomainError(f"level {n} needs a {2 ** n} x {n + 3} separation table, "
                          f"got {np.shape(words)}")
    chain, seps, gamma = words[0, 0], np.abs(words[:, 1:3]), fam.gamma
    scales_ok = chain >= leftmost and leftmost_length(gamma, n + 1) >= gamma.delta(n + 1)
    failures = int(np.count_nonzero(seps < chain)) if scales_ok else seps.size
    min_sep, dzy = float(seps.min()), float(np.abs(words[:, 3:]).min())
    return ReportEntry("branch_separation_chain", failures == 0 and dzy >= min_sep, dzy, min_sep, {
        "n": n, "words": 2 ** n, "chain_failures": failures,
        "min_margin": min_sep / float(chain) if float(chain) > 0 else math.inf,
        "critical_distance_ok": dzy >= min_sep})


# ---------------------------------------------------------------------------
# the spacing report
# ---------------------------------------------------------------------------

def _dyadic_exponent(n: int) -> int | None:
    if n >= 2 and (n & (n - 1)) == 0:
        return n.bit_length() - 1
    return None


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


def _octave_bounds(gamma, s: int, c_frac: Fraction | None) -> list[tuple]:
    """(lower, upper, least double >= the rational lower bound) of eq. 1 in octave s, then
    of eq. 2 when c_frac is declared; DomainError if a lower bound exceeds its upper one."""
    d_lo = gamma.delta_fraction(s + 2)
    eqs = [(float(d_lo), _PI_SQ_4 * float(gamma.delta_fraction(s - 2)),
            _least_double_at_least(d_lo))]
    if c_frac is not None:
        d_s, c_sq = gamma.delta_fraction(s), c_frac * c_frac
        lo2 = c_sq * d_s
        if float(c_sq) >= sys.float_info.min:
            up2 = _PI_SQ_4 / float(c_sq) * float(d_s)
        else:  # c^2 is no normal double: divide exactly, then round once
            up2 = _PI_SQ_4 * _to_double(d_s / c_sq)
        eqs.append((float(lo2), up2, _least_double_at_least(lo2)))
    if not all(lower <= upper for lower, upper, _ in eqs):
        raise DomainError("lower bound exceeds upper bound")
    return eqs


def _ladder_gaps(words: np.ndarray) -> np.ndarray:
    """The 2^n - 1 gaps between neighbouring zeros of F_n, left to right, from level n of
    ``geometry._separation_ladder``, with no subtraction.

    The zeros are the anchors in Gray-code order, word i ^ (i >> 1) at position i, as
    ``geometry.branch_order`` places them. The words at positions i - 1 and i differ in the
    letter of level n - j alone, j the trailing zeros of i, so they share their level-(n - 1
    - j) ancestor, whose centre lies between them: the gap is the sum of both words' centre
    distances in column 3 + j, each relatively accurate, rounded once. A word and its mirror
    carry one distance negated, so mirror gaps are equal bit for bit.
    """
    i = np.arange(1, len(words))
    col = 3 + np.log2(i & -i).astype(np.int64)  # exact: i & -i is a power of two
    return np.abs(words[(i - 1) ^ ((i - 1) >> 1), col]) + np.abs(words[i ^ (i >> 1), col])


def _report(fam: MapFamily, J: JacobiMatrix, degrees: list[int], m_n: np.ndarray,
            pair: np.ndarray, c_frac: Fraction | None,
            metadata: dict | None) -> SpacingReport:
    """The spacing columns of the degrees, each with its M_n and the first index of its
    least gap, as whole arrays; c_frac is already checked. The bounds are formed once per
    octave s and gathered to the degrees by s."""
    gamma = fam.gamma
    s = np.array([n.bit_length() for n in degrees], dtype=np.int64)
    octaves = sorted(set(s.tolist()))
    eqs = np.array([_octave_bounds(gamma, k, c_frac) for k in octaves], dtype=float)
    # each [equation, degree]: eq. 1, then eq. 2 when c is declared
    lower, upper, least = eqs.reshape(len(octaves), 1 + (c_frac is not None), 3)[
        np.searchsorted(octaves, s)].transpose(2, 1, 0)
    margin_lo = np.divide(m_n, lower[0], out=np.zeros_like(m_n), where=lower[0] > 0)
    # a lower bound below the doubles rounds to 0: divide exactly
    for i in np.flatnonzero(lower[0] == 0).tolist():
        margin_lo[i] = _to_double(Fraction(float(m_n[i])) / gamma.delta_fraction(int(s[i]) + 2))
    margin_hi = upper[0] / m_n
    # one more column of None, eq. 2's when no c is declared
    lower, upper, passed = (x.tolist() + [[None] * len(degrees)]
                            for x in (lower, upper, (m_n >= least) & (m_n <= upper)))
    columns = SpacingRow(
        n=list(degrees), s=s.tolist(), m_n=m_n.tolist(),
        lower_eq1=lower[0], upper_eq1=upper[0], lower_eq2=lower[1], upper_eq2=upper[1],
        pass_eq1=passed[0], pass_eq2=passed[1],
        margin_lo=margin_lo.tolist(), margin_hi=margin_hi.tolist(),
        source=["eigensolve" if _dyadic_exponent(n) is None else "both" for n in degrees],
        min_pair=list(zip(pair.tolist(), (pair + 1).tolist())),
    )
    meta = {"gamma": gamma.descriptor(), "c": None if c_frac is None else str(c_frac),
            "valid_length": J.b.size, **(metadata or {})}
    return SpacingReport(columns=columns, metadata=meta)


def _spacing(fam: MapFamily, J: JacobiMatrix, degrees, c, metadata: dict | None,
             top: int = 0):
    """The zero table of degrees, fam's separation ladder to the deepest of top and their
    dyadic levels, the M_n array (degree table.degrees[i] at i) and the report, built in this
    order once c is checked. A dyadic row 2^m takes its M_n and pair from the gaps of the
    ladder's level m (``_ladder_gaps``), also for a matrix built by hand, whose degrees all
    solve at level 1; every other row takes the table's."""
    c_frac = _declared_c(fam.gamma, c)
    table = _zero_table(J, degrees, least=2)
    dyadic = {m: i for i, m in enumerate(map(_dyadic_exponent, table.degrees)) if m}
    ladder = _separation_ladder(fam.gamma, max([top, *dyadic]))
    m_n, pair = table.min_gap.copy(), table.min_index.copy()
    for m, i in dyadic.items():
        gaps = _ladder_gaps(ladder[m - 1][0])
        pair[i] = np.argmin(gaps)
        m_n[i] = gaps[pair[i]]
    return table, ladder, m_n, _report(fam, J, table.degrees, m_n, pair, c_frac, metadata)


def spacing_report(fam: MapFamily, J: JacobiMatrix, degrees, c=None,
                   metadata: dict | None = None) -> SpacingReport:
    """Spacing columns for the requested degrees, with bound verdicts.

    All degrees come from one batched eigensolve, whose zero table gives
    the M_n of every degree that is not dyadic; a dyadic degree 2^m reads
    its M_n from level m of one separation ladder, built to the deepest
    dyadic level, as a sum of two distances to a centre (``_spacing``).
    Lower-bound comparisons are exact: the delta products are rationals,
    and M_n is compared against the least double at or above each, which
    decides M_n >= q without rounding. The pi^2-scaled upper bounds are
    evaluated in double, where their margins are many orders of magnitude
    wide. Both depend only on s, so each octave's bounds are formed once.
    """
    return _spacing(fam, J, degrees, c, metadata)[-1]


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


def _against(big: np.ndarray, small: np.ndarray, starts: np.ndarray):
    """Per segment of small at starts: whether it breaks interlacing with big, and its distance."""
    bins = np.searchsorted(big, small)
    # a point crowds its predecessor in the same segment when both
    # fall in one closed interval of consecutive big points
    crowds = np.zeros(small.size, dtype=bool)
    crowds[1:] = bins[1:] <= bins[:-1]
    crowds[starts] = False
    outside = (small[starts] <= big[0]) | (small[np.append(starts[1:], small.size) - 1] >= big[-1])
    # each point against its big neighbours, exactly where they are Decimals
    with localcontext(_EXACT) if small.dtype == object else contextlib.nullcontext():
        near = np.minimum(np.abs(small - big[np.maximum(bins - 1, 0)]),
                          np.abs(big[np.minimum(bins, big.size - 1)] - small))
    # rounding once to double is monotone, so it keeps each minimum
    return (np.logical_or.reduceat(crowds, starts) | outside,
            np.minimum.reduceat(near, starts).astype(float))


def _pair_pass(keys: list, points: np.ndarray,
               offsets: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Every (s, r), s < r, for which set s breaks at-most-one interlacing
    with set r, ordered by r and then s, and the set distance of sets s and
    r at [r, s] of a matrix over the positions of keys.

    Set keys[i] is points[offsets[i]:offsets[i + 1]], as in a zero table. Set s interlaces
    at most once with set r when its points lie strictly between the extreme points of set r
    and no two share a closed interval of consecutive points of set r. The pass of r bins the
    prefix before set r into it by one searchsorted and decides both per segment in double,
    whose differences are the exact ones rounded once."""
    offsets = offsets[: len(keys) + 1]
    violations, distances = [], np.zeros((len(keys), len(keys)))
    for j in range(1, len(keys)):
        big = points[offsets[j] : offsets[j + 1]]
        bad, distances[j, :j] = _against(big, points[: offsets[j]], offsets[:j])
        violations += [(keys[i], keys[j]) for i in np.flatnonzero(bad)]
    return violations, distances


def full_verification(fam: MapFamily, J: JacobiMatrix, *, n_max: int,
                      c=None, metadata: dict | None = None) -> VerificationResult:
    """Run every verified inequality up to degree n_max plus the
    informational checks, at the module's fixed sizes.

    Each point set the checks read is built once per call, by ``_spacing``
    as in spacing_report: the zeros of degrees 2..n_max as one table, and
    one geometry._separation_ladder, to level 8 or the deepest dyadic
    level if deeper. The ladder gives the report its dyadic M_n and the
    branch lemma its levels 1..8, separations and d(Z, Y), checked one
    level at a time. Every check on M_n reads the M_n array that the
    report prints. No check samples: the bounds on pairs and triples of
    degrees are decided on every case, listing 20 violations.
    """
    if not 2 <= n_max <= J.b.size:
        raise DomainError(f"n_max {n_max} outside [2, {J.b.size}]")
    # degree n at n - 2 of the table and of spacings, M_n as its row prints it
    table, ladder, spacings, report = _spacing(fam, J, range(2, n_max + 1), c, metadata,
                                               _RORO_MAX_LEVEL)
    top = min(_PAIRS_MAX, n_max)
    violations, dist = _pair_pass(table.degrees[:top - 1], table.values, table.offsets)
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
    second = _second_gaps(table.values, table.offsets)
    every_case("second_neighbor_bound", n_max, math.comb(n_max, 2),
               np.maximum.accumulate(spacings[::-1])[::-1] / second,
               lambda n: (n + 2 + int(np.argmax(spacings[n:])), n + 2),
               np.argwhere(np.tril(spacings[:, None] > second)) + 2)

    entries += [verify_branch_lemma(fam, level) for level in ladder[:_RORO_MAX_LEVEL]]

    entries.append(ReportEntry("interlacing_at_most_one", not violations, float(len(violations)),
                               0.0, {"max_degree": top, "violations": violations[:20]}))

    # informational: max consecutive-zero gap versus half the largest gap
    # of the matching pre-Cantor level
    gap_checks = []
    for n in sorted(n for n in {4, n_max // 2, n_max} if 2 <= n <= n_max):
        half_gap = 0.5 * largest_gap(fam.gamma, math.ceil(math.log2(n)))
        zn = table.values[table.offsets[n - 2] : table.offsets[n - 1]]
        max_zero_gap = float(np.max(np.diff(zn)))
        gap_checks.append({"n": n, "max_zero_gap": max_zero_gap, "half_largest_gap": half_gap,
                           "ok": max_zero_gap >= half_gap})
    failed = [g for g in gap_checks if not g["ok"]]
    entries.append(ReportEntry("max_gap_sanity", not failed, float(len(failed)), 0.0,
                               {"cases": gap_checks}, "info"))

    # informational: M at dyadic degrees should collapse monotonically
    dyadic = spacings[[2 ** m - 2 for m in range(1, n_max.bit_length())]].tolist()
    entries.append(ReportEntry("dyadic_spacing_collapse",
                               all(b <= a for a, b in zip(dyadic[1:], dyadic[2:])),
                               float(len(dyadic)), 0.0, {"values": dyadic}, "info"))

    return VerificationResult(spacing=report, entries=tuple(entries))
