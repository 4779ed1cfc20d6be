"""Exact structure of the iterated maps and their dyadic-degree polynomials.

The generating maps are

    f_1(z) = 2 z (z - 1) / gamma_1 + 1,
    f_n(z) = z^2 / (2 gamma_n) + 1 - 1/(2 gamma_n)      (n >= 2),

and F_n = f_n o ... o f_1. The monic orthogonal polynomial of degree 2^m
for the equilibrium measure of the limit set is F_m / tau_m, where tau_m
is the leading coefficient of F_m. Zeros and critical points at dyadic
degrees come from closed-form inverse-branch compositions; no root
finding is involved. Dyadic zero sets come from exact_zeros, or for
levels 1..top together from exact_zero_ladder, which runs one branch
ladder. geometry.branch_order places the branch values in increasing
order by a fixed Gray-code permutation of the words, and the sets'
strict-increase check confirms it. In extended precision their values
are Decimals, and points is the double view of them.

The critical points of F_n are 1/2 together with the zeros of F_1, ...,
F_{n-1}, and Rolle's theorem interlaces them: the point at 1-based
position j = 2^nu (2i + 1) is zero i of level n - 1 - nu, where level 0
is {1/2}. CriticalSet.from_zero_sets places the levels there instead of
sorting, and its strict-increase check confirms the interlacing. Every
level of a critical set is computed in the precision of its deepest
level, n - 1 (critical_levels): a double level promoted next to extended
ones would be too coarse to order.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import InitVar, dataclass, field
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext

import numpy as np

from .errors import DomainError, RangeOverflowError
from .geometry import GammaSequence, all_branch_values, branch_order, branch_value_ladder

_ZERO_PROVENANCES = ("exact-branch", "eigensolve")
# Decimal subtraction is exact here; entered only around differences
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def min_gap_with_index(points: np.ndarray) -> tuple[float, int]:
    """The smallest gap between neighbouring points, rounded once to double,
    and the first index i where points i and i + 1 attain it. Gaps between
    Decimals are formed exactly."""
    if points.size < 2:
        raise DomainError("minimum spacing needs at least two zeros")
    with localcontext(EXACT) if points.dtype == object else contextlib.nullcontext():
        gaps = np.diff(points)
    i = int(np.argmin(gaps))
    return float(gaps[i]), i


@dataclass(frozen=True)
class MapFamily:
    """The map sequence generated by a gamma sequence."""

    gamma: GammaSequence


class _PointSet:
    """Sorted points, checked in their working precision.

    values is the one stored array: float64, or for a set computed in
    extended precision a read-only object array of Decimals. points is its
    double view, formed on first read; in extended precision neighbours
    may tie there and extreme points may round to 0 or 1. Two sets are
    equal when they are of one type and their values are equal point for
    point.
    """

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.values, other.values)  # False on a size mismatch

    @functools.cached_property
    def points(self) -> np.ndarray:
        """The double view of values (values itself for a double set)."""
        return self.values.astype(float, copy=False)

    def _validate(self, count: int, what: str, gaps=None) -> np.ndarray:
        # gaps, when the builder has it, is np.diff(values), read instead of a second pass
        vals = np.asarray(self.values)
        if vals.dtype == object:
            vals = vals.copy()  # freezing it leaves the caller's array writable
            vals.flags.writeable = False
        else:
            vals = vals.astype(float, copy=False)
        object.__setattr__(self, "values", vals)
        if count < 1 or vals.size != count:
            raise DomainError(f"expected {count} {what}, got {vals.size}")
        if not (vals[1:] > vals[:-1] if gaps is None else gaps > 0).all():
            raise DomainError(f"{what} must be strictly increasing")
        return vals


@dataclass(frozen=True, eq=False)
class ZeroSet(_PointSet):
    """Sorted zeros of one orthogonal polynomial, strictly inside (0, 1).

    Extended-precision branch zeros hold Decimal values; eigensolved
    zeros are double. min_gap is (gap, i) of min_gap_with_index on values;
    a builder that already has the difference array np.diff(values) passes
    it as gaps, and both the strict-increase check and min_gap are read
    from it. Otherwise smallest_gap computes min_gap on first use.
    """

    degree: int
    values: np.ndarray = field(repr=False)
    provenance: str
    min_gap: tuple[float, int] | None = field(default=None, init=False, repr=False)
    gaps: InitVar[np.ndarray | None] = None

    def __post_init__(self, gaps):
        vals = self._validate(self.degree, "zeros", gaps)
        if gaps is not None:
            i = int(np.argmin(gaps))
            object.__setattr__(self, "min_gap", (float(gaps[i]), i))
        if vals[0] <= 0.0 or vals[-1] >= 1.0:
            raise DomainError("zeros must lie strictly inside (0, 1)")
        if self.provenance not in _ZERO_PROVENANCES:
            raise DomainError(f"unknown provenance {self.provenance!r}")

    def __len__(self):
        return self.degree

    def smallest_gap(self) -> tuple[float, int]:
        """min_gap_with_index of the zeros, computed once."""
        if self.min_gap is None:
            object.__setattr__(self, "min_gap", min_gap_with_index(self.values))
        return self.min_gap


@dataclass(frozen=True, eq=False)
class CriticalSet(_PointSet):
    """Sorted critical points of F_n: the 2^n - 1 zeros of its derivative.

    Holds Decimal values when its levels were computed in extended
    precision.
    """

    level: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self._validate(2 ** self.level - 1, "critical points")

    @classmethod
    def from_zero_sets(cls, zero_sets) -> "CriticalSet":
        """{1/2} together with the zero sets of levels 1..n-1, in that order.

        The levels are placed by interlacing (critical_order), and the
        strict-increase check then confirms it: a missing, misordered or
        misplaced level raises DomainError. The levels must share one
        precision, all double or all extended (see critical_levels).
        """
        zero_sets = list(zero_sets)
        level = len(zero_sets) + 1
        for k, zs in enumerate(zero_sets, start=1):
            if zs.degree != 2 ** k:
                raise DomainError(f"level {k} of a critical set needs {2 ** k} zeros, "
                                  f"got {zs.degree}")
        extended = {zs.values.dtype == object for zs in zero_sets}
        if len(extended) > 1:
            raise DomainError("the levels of a critical set must share one precision")
        half = Decimal("0.5") if extended == {True} else 0.5
        return cls(level, critical_order([np.array([half])] + [zs.values for zs in zero_sets]))


def critical_order(levels) -> np.ndarray:
    """The points of levels 0..n-1 merged in the order of a critical set.

    levels[k] holds the 2^k points of level k in increasing order (level
    0 is 1/2). Rolle's theorem puts point i of level n - 1 - nu at 1-based
    position 2^nu (2i + 1); the result is an object array unless every
    level is a float array.
    """
    n = len(levels)
    floats = all(isinstance(a, np.ndarray) and a.dtype == np.float64 for a in levels)
    out = np.empty(2 ** n - 1, dtype=float if floats else object)
    for nu in range(n):
        out[2 ** nu - 1::2 ** (nu + 1)] = levels[n - 1 - nu]
    return out


def monic_opoly_exact(fam: MapFamily, m: int, z):
    """Monic degree-2^m orthogonal polynomial F_m(z) / tau_m.

    Uses the doubling recursion P -> P^2 - (1 - 2 gamma_{k+1}) / tau_k^2,
    propagating 1/tau_k^2 instead of tau_k so nothing overflows; the
    correction underflows harmlessly once it drops below the subnormal
    range (around m = 10).
    """
    if m < 1:
        raise DomainError("degree exponent must be >= 1")
    g1 = float(fam.gamma.value(1))
    p = (z * z - z) + g1 / 2.0
    inv_tau_sq = (g1 / 2.0) ** 2
    for k in range(2, m + 1):
        gk = float(fam.gamma.value(k))
        p = p * p - (1.0 - 2.0 * gk) * inv_tau_sq
        inv_tau_sq = (inv_tau_sq * 2.0 * gk) ** 2
        if not np.all(np.isfinite(p)):
            raise RangeOverflowError(f"monic evaluation overflowed at depth {k}")
    return p


def _zero_set(m: int, table: np.ndarray) -> ZeroSet:
    """The zero set of level m from its branch table at t = 0 alone."""
    return ZeroSet(degree=2 ** m, values=branch_order(table), provenance="exact-branch")


def exact_zeros(fam: MapFamily, m: int, mode: str = "auto") -> ZeroSet:
    """The 2^m zeros of the degree-2^m orthogonal polynomial, in level m's precision.

    They are the preimages of 0 under F_m, i.e. the branch values at t = 0
    over all words of length m; equivalently the pullbacks of the two
    roots of f_m through the level-(m-1) branches. One zero lies in each
    level-m basic interval. In extended precision the values are Decimals,
    and their order is checked exactly. mode accepts only "auto".
    """
    if m < 1:
        raise DomainError("degree exponent must be >= 1")
    if mode != "auto":
        raise DomainError(f"unknown precision mode {mode!r} (only 'auto')")
    return _zero_set(m, np.asarray(all_branch_values(fam.gamma, m, 0.0))[:, None])


def exact_zero_ladder(fam: MapFamily, top: int, depth: int | None = None) -> list[ZeroSet]:
    """exact_zeros(fam, m) for m = 1..top, from one branch_value_ladder.

    With depth, every level is computed in level depth's precision
    instead of its own.
    """
    tables = branch_value_ladder(fam.gamma, top, (0.0,), depth)
    return [_zero_set(m, table) for m, table in enumerate(tables, start=1)]


def critical_levels(fam: MapFamily, n: int, zero_sets=None) -> list[ZeroSet]:
    """The zero sets of levels 1..n-1, all in the precision of level n - 1.

    zero_sets, when given, are the zero sets of levels 1..n-1 each in its
    own precision, as exact_zero_ladder gives them. Those whose level
    works in level n - 1's precision are kept as they are: computed again
    they would come out bit for bit the same. The levels 1..j up to the
    last one of another precision come from one ladder at depth n - 1,
    and so do all levels when zero_sets is None.
    """
    gamma = fam.gamma
    if zero_sets is None:
        return exact_zero_ladder(fam, n - 1, depth=n - 1)
    deepest = gamma.precision(n - 1)
    j = max((k for k in range(1, n) if gamma.precision(k) != deepest), default=0)
    redone = exact_zero_ladder(fam, j, depth=n - 1) if j else []
    return redone + list(zero_sets)[j:]
