"""Exact structure of the iterated maps and their dyadic-degree polynomials.

The generating maps are

    f_1(z) = 2 z (z - 1) / gamma_1 + 1,
    f_n(z) = z^2 / (2 gamma_n) + 1 - 1/(2 gamma_n)      (n >= 2),

and F_n = f_n o ... o f_1. The monic orthogonal polynomial of degree 2^m
for the equilibrium measure of the limit set is F_m / tau_m, where tau_m
is the leading coefficient of F_m. Zeros and critical points at dyadic
degrees come from closed-form inverse-branch compositions; no root
finding is involved. Dyadic zero sets come only from exact_zeros and
critical sets only from CriticalSet.from_zero_sets; in extended precision
both keep their exactly sorted Decimal values in points_dd next to the
double view in points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RangeOverflowError
from .geometry import GammaSequence, all_branch_values, extended_context

_ZERO_PROVENANCES = ("exact-branch", "eigensolve")


@dataclass(frozen=True)
class MapFamily:
    """The map sequence generated by a gamma sequence."""

    gamma: GammaSequence

    def f(self, n: int, z):
        """Evaluate the level-n generating map."""
        if n < 1:
            raise DomainError("map index must be >= 1")
        g = float(self.gamma.value(n))
        if n == 1:
            return 2.0 * z * (z - 1.0) / g + 1.0
        return z * z / (2.0 * g) + 1.0 - 1.0 / (2.0 * g)

    def lead(self, n: int) -> float:
        """Leading coefficient of f_n."""
        g = float(self.gamma.value(n))
        return 2.0 / g if n == 1 else 1.0 / (2.0 * g)

    def subleading(self, n: int) -> float:
        """Coefficient of z^(deg-1) in f_n; vanishes for every n >= 2."""
        if n == 1:
            return -2.0 / float(self.gamma.value(1))
        return 0.0

    def tau(self, m: int) -> float:
        """Leading coefficient of F_m; tau_{m+1} = tau_m^2 / (2 gamma_{m+1}).

        Grows doubly exponentially and overflows to inf around m = 10; the
        monic evaluation below never forms it explicitly.
        """
        if m < 1:
            raise DomainError("composition depth must be >= 1")
        t = self.lead(1)
        for k in range(2, m + 1):
            t = t * t / (2.0 * float(self.gamma.value(k)))
        return t


class _PointSet:
    """Sorted points, checked in their working precision.

    A set computed in extended precision carries its Decimal values in
    points_dd; points is then only their double view, where neighbours
    may tie and extreme points may round to 0 or 1. values holds the
    points in the working precision: points itself, or a read-only object
    array of the Decimals, built once here. Two sets are equal when they
    are of one type and their values are equal point for point.
    """

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.values, other.values)  # False on a size mismatch

    def _validate(self, count: int, what: str) -> np.ndarray:
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        if self.points_dd is None:
            vals = self.points
        else:
            vals = np.array(self.points_dd, dtype=object)
            vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if count < 1 or self.points.size != count or vals.size != count:
            raise DomainError(f"expected {count} {what}, got {self.points.size}")
        if not np.all(vals[1:] > vals[:-1]):
            raise DomainError(f"{what} must be strictly increasing")
        return vals


@dataclass(frozen=True, eq=False)
class ZeroSet(_PointSet):
    """Sorted zeros of one orthogonal polynomial, strictly inside (0, 1).

    Extended-precision branch zeros and escalated eigensolves carry
    points_dd.
    """

    degree: int
    points: np.ndarray
    provenance: str
    escalated: bool = False
    points_dd: tuple | None = None
    values: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        vals = self._validate(self.degree, "zeros")
        if vals[0] <= 0.0 or vals[-1] >= 1.0:
            raise DomainError("zeros must lie strictly inside (0, 1)")
        if self.provenance not in _ZERO_PROVENANCES:
            raise DomainError(f"unknown provenance {self.provenance!r}")

    def __len__(self):
        return self.degree


@dataclass(frozen=True, eq=False)
class CriticalSet(_PointSet):
    """Sorted critical points of F_n: the 2^n - 1 zeros of its derivative.

    Carries points_dd when any of its levels was computed in extended
    precision.
    """

    level: int
    points: np.ndarray
    points_dd: tuple | None = None
    values: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self._validate(2 ** self.level - 1, "critical points")

    @classmethod
    def from_zero_sets(cls, zero_sets) -> "CriticalSet":
        """{1/2} together with the zero sets of levels 1..n-1.

        If any level is extended, the double levels are promoted, rounded
        to 34 digits (their exact binary values would print 50 or more).
        """
        zero_sets = list(zero_sets)
        level = len(zero_sets) + 1
        if all(zs.points_dd is None for zs in zero_sets):
            return cls(level, np.sort(np.concatenate([[0.5]] + [zs.points for zs in zero_sets])))
        promote = extended_context().create_decimal
        vals = [promote(0.5)]
        for zs in zero_sets:
            vals.extend(zs.points_dd or map(promote, zs.points))
        vals.sort()
        return cls(level, np.asarray(vals, dtype=float), tuple(vals))


def evaluate_F(fam: MapFamily, n: int, z):
    """Forward composition F_n(z) = f_n(...f_1(z)).

    Off the invariant set the values blow up doubly exponentially; a
    non-finite intermediate raises RangeOverflowError.
    """
    if n < 1:
        raise DomainError("composition depth must be >= 1")
    v = z
    for k in range(1, n + 1):
        v = fam.f(k, v)
        if not np.all(np.isfinite(v)):
            raise RangeOverflowError(f"F_{k} overflowed at z = {z!r}")
    return v


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


def exact_zeros(fam: MapFamily, m: int, mode: str = "auto") -> ZeroSet:
    """The 2^m zeros of the degree-2^m orthogonal polynomial.

    They are the preimages of 0 under F_m, i.e. the branch values at t = 0
    over all words of length m; equivalently the pullbacks of the two
    roots of f_m through the level-(m-1) branches. One zero lies in each
    level-m basic interval. In extended precision the Decimal values are
    sorted exactly and kept in points_dd.
    """
    if m < 1:
        raise DomainError("degree exponent must be >= 1")
    vals = all_branch_values(fam.gamma, m, 0.0, mode)
    if isinstance(vals, np.ndarray):  # double mode; extended precision gives a list
        return ZeroSet(degree=2 ** m, points=np.sort(vals), provenance="exact-branch")
    vals = sorted(vals)
    return ZeroSet(degree=2 ** m, points=np.asarray(vals, dtype=float),
                   provenance="exact-branch", points_dd=tuple(vals))


def critical_set(fam: MapFamily, n: int, mode: str = "auto") -> CriticalSet:
    """Critical points of F_n: {1/2} together with all shallower zero sets.

    The chain rule factors F_n' over f_1' (vanishing at 1/2) and
    f_k'(F_{k-1}) for k = 2..n, whose zeros are the zeros of F_{k-1};
    the union has exactly 2^n - 1 points and misses the level-n set.
    """
    if n < 1:
        raise DomainError("level must be >= 1")
    return CriticalSet.from_zero_sets(exact_zeros(fam, k, mode) for k in range(1, n))
