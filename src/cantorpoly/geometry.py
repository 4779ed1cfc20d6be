"""Geometry of the quadratically generated Cantor sets.

The level-n pre-Cantor set is a union of 2^n basic intervals, each
addressed by a word over {L, R}: letter k selects the branch of level k,
L the kernel u and R its reflection 1 - u. All interval endpoints and branch
values factor through the elementary kernel

    u(t) = 1/2 - (1/2) * sqrt(1 - 4t),      0 <= t <= 1/4,

composed from the inside out with per-level scale factors gamma_k. The
fundamental scale of level s is delta_s = gamma_1 * ... * gamma_s.

Every function here is pure and works on floats, numpy arrays or
Decimals. Precision is the level's, by one rule (``GammaSequence.precision``):
level n works in double while delta_n is at least 1e-12, below it extended
(stdlib ``decimal``, in the private context ``GammaSequence.context(n)``).
The one override is the ``depth`` of the two ladders, for critical sets. No
level is forced to double (the zero spacing falls with delta), but
differences carried subtraction-free stay relatively accurate in double.

The branch values of every word of one level come from one doubling
pass (``branch_value_table``). ``branch_value_ladder`` yields the tables
of levels 1..top from one run of that pass: when gamma repeats with
period p and level n works in the precision of level n - p, level n
continues level n - p's doubling by p steps instead of restarting, so
the levels together cost about as much as the deepest one alone.
branch_order places a table's values in increasing order by a fixed
Gray-code permutation of the words. The basic intervals of a level are
its table at t = -1 and 1 in that order, as [lo, hi] rows, and the
leftmost length l_{1,s} is the all-L branch at t = -1, pulled alone.
Every pass, the branch lemma's separation ladder too, pulls by one
subtraction-free step in both precisions (``_inner_kernel``, ``_pull``).
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import DomainError, RangeOverflowError

Scalar = Union[float, Decimal]

_QUARTER = Fraction(1, 4)
_EXTENDED_BELOW = 1e-12
_MIN_DIGITS = 34  # the decimal128 width
_GUARD_DIGITS = 10


def extended_context(digits: int = _MIN_DIGITS) -> Context:
    """A fresh decimal context of the given precision, rounding half-even."""
    return Context(prec=digits, rounding=ROUND_HALF_EVEN)


def as_decimal(x) -> Decimal:
    """x exactly, or a rational rounded once in the active decimal context."""
    if isinstance(x, Fraction):
        return Decimal(x.numerator) / x.denominator
    return Decimal(x)


# ---------------------------------------------------------------------------
# gamma sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaSequence:
    """Scale sequence gamma_1, gamma_2, ... defined by a finite descriptor.

    kind
        "constant": every gamma_k equals values[0].
        "list": explicit prefix, extended indefinitely by its last entry.
        "periodic": the values repeat cyclically.

    Entries are kept as exact rationals so products (delta_s) and
    materializations in either precision are correctly rounded. Each entry
    must satisfy 0 < gamma_k <= 1/4; the closed upper endpoint admits the
    degenerate case in which the construction fills all of [0, 1] and the
    basic intervals touch instead of leaving gaps. The prefix products
    delta_s and the digits of each context are computed once per
    instance; the sequence is frozen, so they cannot go stale.
    """

    kind: str
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if self.kind not in ("constant", "list", "periodic"):
            raise DomainError(f"unknown gamma descriptor kind {self.kind!r}")
        if not self.values:
            raise DomainError("gamma descriptor needs at least one value")
        if self.kind == "constant" and len(self.values) != 1:
            raise DomainError("constant descriptor takes exactly one value")
        for v in self.values:
            if not (0 < v <= _QUARTER):
                raise DomainError(f"gamma value {v} outside (0, 1/4]")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value) -> "GammaSequence":
        return cls("constant", (_as_fraction(value),))

    @classmethod
    def from_list(cls, values) -> "GammaSequence":
        return cls("list", tuple(_as_fraction(v) for v in values))

    @classmethod
    def periodic(cls, values) -> "GammaSequence":
        return cls("periodic", tuple(_as_fraction(v) for v in values))

    @classmethod
    def from_descriptor(cls, desc) -> "GammaSequence":
        """Build from a descriptor mapping or a compact string.

        Mappings look like ``{"kind": "periodic", "values": ["0.125", ...]}``.
        The string form is ``kind:v1,v2,...``, e.g. ``constant:0.25``.
        """
        if isinstance(desc, str):
            kind, _, rest = desc.partition(":")
            if not rest:
                raise DomainError(f"malformed gamma descriptor {desc!r}")
            values = [v.strip() for v in rest.split(",") if v.strip()]
            return cls(kind.strip(), tuple(_as_fraction(v) for v in values))
        if isinstance(desc, dict):
            return cls(desc["kind"], tuple(_as_fraction(v) for v in desc["values"]))
        raise DomainError(f"unsupported gamma descriptor {desc!r}")

    def descriptor(self) -> dict:
        """Reproducible descriptor; values render as exact strings."""
        return {"kind": self.kind, "values": [_fraction_str(v) for v in self.values]}

    # -- materialization ---------------------------------------------------

    def value(self, k: int) -> Fraction:
        """Exact gamma_k for k >= 1."""
        if k < 1:
            raise DomainError("gamma index must be >= 1")
        if self.kind == "constant":
            return self.values[0]
        if self.kind == "list":
            return self.values[min(k, len(self.values)) - 1]
        return self.values[(k - 1) % len(self.values)]

    @property
    def period(self) -> int | None:
        """The p with gamma_{k+p} = gamma_k for every k >= 1: 1 for a
        constant, len(values) for a periodic descriptor, None for a list."""
        return {"constant": 1, "periodic": len(self.values)}.get(self.kind)

    @functools.cached_property
    def _deltas(self) -> list[Fraction]:
        # delta_0, delta_1, ..., extended on demand by delta_fraction
        return [Fraction(1)]

    @functools.cached_property
    def _digits(self) -> dict[int, int]:
        # depth -> digits of context(depth)
        return {}

    def delta_fraction(self, s: int) -> Fraction:
        if s < 0:
            raise DomainError("delta index must be >= 0")
        deltas = self._deltas
        while len(deltas) <= s:
            deltas.append(deltas[-1] * self.value(len(deltas)))
        return deltas[s]

    def delta(self, s: int) -> Scalar:
        """delta_s = gamma_1 * ... * gamma_s (delta_0 = 1), rounded once in level s's precision."""
        with localcontext(self.context(s)):
            d = self.delta_fraction(s)
            return as_decimal(d) if self.precision(s)[0] == "dd" else float(d)

    def infimum(self) -> Fraction:
        """inf over k of gamma_k; exact because the descriptor is finite."""
        return min(self.values)

    def context(self, depth: int) -> Context:
        """The decimal context of extended work down to level depth. Its
        digits resolve delta_{depth+2}, the lower bound on the zero spacing
        at degree 2^depth, with a guard; at least 34."""
        digits = self._digits.get(depth)
        if digits is None:
            d = self.delta_fraction(depth + 2)
            decades = math.ceil(math.log10(d.denominator) - math.log10(d.numerator))
            digits = self._digits[depth] = max(_MIN_DIGITS, decades + _GUARD_DIGITS)
        return extended_context(digits)

    def precision(self, depth: int) -> tuple[str, int]:
        """Level depth's working precision, the one rule, as (mode, digits):
        ("dd", context(depth)'s digits) once delta_depth < 1e-12, else
        ("double", 0). Two levels of one precision round every operation alike."""
        if float(self.delta_fraction(depth)) < _EXTENDED_BELOW:
            return "dd", self.context(depth).prec
        return "double", 0

    # -- informational diagnostics ----------------------------------------

    def summability_partial(self, depth: int) -> float:
        """Partial sum of 2^-k * log(1/gamma_k) up to the given depth."""
        return sum(2.0 ** -k * math.log(1.0 / float(self.value(k)))
                   for k in range(1, depth + 1))

    def classification(self, depth: int = 32) -> dict:
        """Informational flags about the materialized prefix only.

        The reported conditions classify the limit measure when they hold
        for the whole tail; a finite prefix cannot certify that, so these
        are surfaced as diagnostics, never asserted.
        """
        gs = [self.value(k) for k in range(1, depth + 1)]
        return {
            "depth": depth,
            "summability_partial": self.summability_partial(depth),
            "sqrt_gap_partial": sum(math.sqrt(1.0 - 4.0 * float(g)) for g in gs),
            "prefix_all_le_one_sixth": all(g <= Fraction(1, 6) for g in gs),
            "prefix_min_gamma": float(min(gs)),
        }


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"{v!r} is not a finite rational number") from None
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float) and math.isfinite(v):
        return Fraction(v)
    raise DomainError(f"cannot interpret {v!r} as a finite rational")


def _fraction_str(v: Fraction) -> str:
    # exact decimal when the denominator is 2^a * 5^b, else "p/q"
    den = v.denominator
    for p in (2, 5):
        while den % p == 0:
            den //= p
    if den == 1:  # enough digits for the exact quotient
        with localcontext(extended_context(len(str(v.numerator)) + v.denominator.bit_length())):
            return str(Decimal(v.numerator) / v.denominator)
    return f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# the kernel and the doubling table
# ---------------------------------------------------------------------------

def u_map(t):
    """Increasing branch kernel on [0, 1/4], with values in [0, 1/2].

    Evaluated as 2t / (1 + sqrt(1 - 4t)), which is algebraically identical
    to 1/2 - sqrt(1 - 4t)/2 but free of cancellation near t = 1/4.
    Decimals (np.sqrt calls Decimal.sqrt) run in the active context.
    """
    if np.any(np.asarray(t) < 0) or np.any(np.asarray(t) > 0.25):
        raise DomainError("u argument outside [0, 1/4]")
    return 2 * t / (1 + np.sqrt(1 - 4 * t))


def _pull(g: Fraction, v, reflected: bool, mode: str):
    """u(g y) for y = v (letter L) or y = 1 - v (letter R), elementwise, and its root
    sqrt(1 - 4g y): the one pull step of every doubling pass, in either precision.

    No root argument cancels, as v lies in [0, 1/2]: for L it is 1 - 4g v >= 1/2, and for R
    it is (1 - 4g) + 4g v, 1 - 4g rounded once from the exact g, where 1 - 4g (1 - v) would
    cancel next to f_k's critical point. In double, 2g and 4g scale the double g exactly.
    """
    two_g, four_g = ((2 * float(g), 4 * float(g)) if mode == "double"
                     else (as_decimal(2 * g), as_decimal(4 * g)))
    root = np.sqrt(_one_minus_4g(g, mode) + four_g * v if reflected else 1 - four_g * v)
    return two_g * (1 - v if reflected else v) / (1 + root), root


def _one_minus_4g(g: Fraction, mode: str) -> Scalar:
    """1 - 4g rounded once. In double it is formed from g's integers, as int / int rounds
    correctly: float(1 - 4 * g) bit for bit, with no Fraction arithmetic."""
    if mode == "double":
        return (g.denominator - 4 * g.numerator) / g.denominator
    return as_decimal(1 - 4 * g)


def _check_ts(ts) -> tuple:
    ts = tuple(ts)
    for t in ts:
        if not -1.0 <= t <= 1.0:
            raise DomainError(f"branch parameter {t} outside [-1, 1]")
    return ts


def _inner_kernel(g: Fraction, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u(t_inner) and its root sqrt(1 - 4 t_inner), t_inner = g (1 - t) / 2, for an array of
    doubles t in [-1, 1]: the double first step of every doubling pass.

    t_inner is formed as one array operation, (g / 2) (1 - t), the factor rounded once.
    Where t < 0 the root argument is formed from t, as (1 - 4g) + 2g (1 + t) with 1 - 4g
    rounded once, as ``_pull`` forms letter R's: 1 + t is exact there, while t_inner, which
    nears g as t nears -1, would drop t's last bit, and at g = 1/4 the square root amplifies
    that loss. At t = 0 and 1 the value is u_map of the correctly rounded t_inner, bit for bit.
    g / 2, like 1 - 4g, is rounded from g's integers: float(g / 2) bit for bit.
    """
    g_half = g.numerator / (2 * g.denominator)
    t_inner = g_half * (1 - t)
    base = _one_minus_4g(g, "double")
    root = np.sqrt(np.where(t < 0, base + 2 * float(g) * (1 + t), 1 - 4 * t_inner))
    return 2 * t_inner / (1 + root), root


def _level_table(gamma: GammaSequence, n: int, ts: tuple, precision: tuple[str, int],
                 carried: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The doubling array of level n and its table, in the given precision.

    The doubling array holds the values of every word whose level-1 letter is L; index bits
    read the level-2 letter first (0 = L), and the parameter varies fastest: entry
    w * len(ts) + j is word w at ts[j]. Without carried it starts from u(t_inner), in double
    by ``_inner_kernel``, where ts may be any array of doubles in [-1, 1], and pulls through
    gamma_{n-1}, ..., gamma_1 by ``_pull``. With carried, the doubling array of level n - p
    in the same precision, p the period of gamma, it pulls only through gamma_p, ...,
    gamma_1: the inner steps would repeat level n - p's with the same scales, arguments and
    rounding. The table appends the level-1 reflection and has one row per word.
    """
    mode, digits = precision
    with localcontext(extended_context(digits)) if digits else contextlib.nullcontext():
        if carried is None and mode == "double":
            v, k_top = _inner_kernel(gamma.value(n), np.asarray(ts, dtype=float))[0], n - 1
        elif carried is None:
            t_inner = np.array([as_decimal(gamma.value(n) * (1 - _as_fraction(t)) / 2)
                                for t in ts])
            v, k_top = u_map(t_inner), n - 1
        else:
            v, k_top = carried, gamma.period
        for k in range(k_top, 0, -1):
            g = gamma.value(k)
            v = np.concatenate([_pull(g, v, False, mode)[0], _pull(g, v, True, mode)[0]])
        return v, np.concatenate([v, 1 - v]).reshape(-1, len(ts))


def branch_value_table(gamma: GammaSequence, n: int, ts) -> np.ndarray:
    """The branch value of every word of length n at every t in ts.

    The branch value of a word at t in [-1, 1] is its composed inverse
    branch at t_inner = gamma_n * (1 - t) / 2. One row per word in
    word-bit order (level-1 letter first, 0 = L) and one column per t,
    from one doubling pass in level n's precision; an object array of
    Decimals if extended. The total work is O(2^n) per parameter. This is
    a one-level branch_value_ladder, with nothing carried.
    """
    return _level_table(gamma, n, _check_ts(ts), gamma.precision(n))[1]


def branch_value_ladder(gamma: GammaSequence, top: int, ts,
                        depth: int | None = None) -> list[np.ndarray]:
    """branch_value_table(gamma, n, ts) for n = 1..top, in one run.

    Level n works in its own precision, or in level depth's for every n
    when depth is given (the levels of a critical set), the one override
    of the rule. When gamma repeats with period p and level n works in the
    precision of level n - p, it
    continues level n - p's doubling array by p pull steps instead of
    restarting. Every table is bit for bit the fresh one, and a constant
    sequence in one precision pays about 2^top pulls per parameter for all
    its levels, against 2^(top+1) when each level starts afresh.
    """
    ts = _check_ts(ts)
    p = gamma.period
    arrays: dict[int, tuple] = {}  # the last p levels: n -> (precision, doubling array)
    tables = []
    for n in range(1, top + 1):
        precision = gamma.precision(n if depth is None else depth)
        prior = arrays.pop(n - p, None) if p else None
        carried = prior[1] if prior is not None and prior[0] == precision else None
        v, table = _level_table(gamma, n, ts, precision, carried)
        if p:
            arrays[n] = (precision, v)
        tables.append(table)
    return tables


def all_branch_values(gamma: GammaSequence, n: int, t: float):
    """Every word's branch value at t, level n, in word-bit order (a list if extended)."""
    x = branch_value_table(gamma, n, (t,))[:, 0]
    return x.tolist() if x.dtype == object else x


def _separation_ladder(gamma: GammaSequence, top: int) -> list[tuple[np.ndarray, float]]:
    """The branch lemma's tables of levels 1..top in double, each with l_{1,n+1}, from one
    doubling pass. Level n's table has one row per word, in word-bit order: the anchor x(0)
    of its branch value x(t), the signed separations x(+1) - x(0) and x(-1) - x(0), and at
    column 3 + j the signed distance from x(0) to the centre of its level-(n - 1 - j)
    ancestor (level 0 is [0, 1], centre 1/2). The centres of levels 1..n - 1 are the zeros
    of F_1, ..., F_{n-1}; with 1/2 they are the critical points of F_n, and every gap
    between neighbouring zeros of F_n is the sum of two centre distances (spacing._ladder_gaps).

    The values are the branch tables' bit for bit (the anchors are branch_value_table(gamma,
    n, (0.0,)) in double): level n starts with ``_inner_kernel`` and pulls its L and R halves
    by ``_pull``, as ``_level_table`` does, or, where gamma has period p, continues level
    n - p's arrays by p pulls. Each pull takes a difference by u(a) - u(b) = 2(a - b) /
    (sqrt(1 - 4a) + sqrt(1 - 4b)) with the roots of the values' own pull, so no step
    cancels, and starts the centre column of the level below, y = 1/2, at 1/2 - u(t) =
    sqrt(1 - 4t) / 2 from the anchor's root. To first order
    in u = 2^-53 a pull takes a value's relative error e to 1.25 e + 6.25 u and adds
    e / 2 + 6.5 u to a difference's, and a centre difference starts within e / 2 + 2 u, so
    every difference of level n is within 50 (1.25^n - 1) u relative (2.8e-14 at n = 8; the
    tests hold 4e-15 and 1e-15) while every value and difference of levels 1..top stays a
    normal double, checked after every pull; RangeOverflowError otherwise. l_{1,n+1} is
    level n + 1's all-L value at t = -1, its row pulled alone and unchecked for n = top. The
    all-L words at t = +1 equal the chain, the all-L anchor, bit for bit, as does l_{1,n+1}
    where gamma_{n+1} = 1/4.
    """
    p, states, tables, leftmost, ts = gamma.period, {}, [], [], np.array([[0.0, 1.0, -1.0]])
    for n in range(1, top + 2):
        rows = None if n <= top else 1  # level top + 1: the all-L row alone, unchecked
        state = states.pop(n - p, None) if p else None
        v, d = (None, None) if state is None else [x[:rows] for x in state]
        for k in range(n if state is None else p, 0, -1):
            g = gamma.value(k)
            if v is None:  # the first step: t_inner - g / 2 = -g t / 2
                v, s = _inner_kernel(g, ts)
                d = -float(g) * ts[:, 1:] / (s[:, 1:] + s[:, :1])
            else:  # letter R pulls y = 1 - v, whose differences are -d
                halves = [_pull(g, v, reflected, "double") for reflected in (False, True)[:rows]]
                d = np.concatenate([sign * 2 * float(g) * d / (root[:, 1:] + root[:, :1])
                                    for sign, (_, root) in zip((1, -1), halves)])
                v, s = map(np.concatenate, zip(*halves))
            # the all-L anchor is the least nonzero value
            if rows is None and not (np.abs(d).min() >= sys.float_info.min
                                     and v[0, 0] >= sys.float_info.min):
                raise RangeOverflowError(
                    f"a branch separation of level {n} leaves the normal doubles")
            v, d = np.column_stack([v, np.full(len(v), 0.5)]), np.column_stack([d, s[:, 0] / 2])
        if p:
            states[n] = v, d
        leftmost.append(float(v[0, 2]))
        if rows is None:  # the level-1 reflection
            tables.append(np.column_stack([np.concatenate([v[:, 0], 1 - v[:, 0]]),
                                           np.concatenate([d, -d])]))
    return list(zip(tables, leftmost[1:]))


def _runs(sizes) -> np.ndarray:
    """The index of every element inside its run, for runs of the given sizes end to end."""
    ends = np.cumsum(sizes, dtype=np.int64)
    index = np.arange(ends[-1] if ends.size else 0)
    index -= np.repeat(ends - sizes, sizes)
    return index


def branch_order(table: np.ndarray, widths=None) -> np.ndarray:
    """The values of a branch table in increasing order, placed, not sorted.

    table has one row per word of one level, in word-bit order, and one
    column per parameter t, ascending. Each letter R reverses the order of
    the values inside it, so the increasing order visits the words in
    reflected Gray code order, word i ^ (i >> 1) at position i. The count of
    letters R in that word has the parity of i, and the all-L branch
    decreases in t, so the words at even positions place their values in
    descending t and the others in ascending t. A set's strict-increase check
    confirms the order instead of a sort making it. With widths, the columns
    are groups of those widths, left to right, each placed as a table of its
    own, and the groups' values follow one another: one gather for all.
    """
    w = np.asarray([table.shape[1]] if widths is None else widths, dtype=np.int64)
    sizes = w * table.shape[0]
    m = np.repeat(w, sizes)
    i, r = np.divmod(_runs(sizes), m)
    np.subtract(m - 1, r, out=r, where=i % 2 == 0)  # in place: these are as long as the table
    r += np.repeat(np.cumsum(w) - w, sizes)
    i ^= i >> 1
    return table[i, r]


_INTERVAL_ENDS = (-1.0, 1.0)


def _interval_rows(table: np.ndarray) -> np.ndarray:
    """The basic intervals of one level from its table at _INTERVAL_ENDS,
    as [lo, hi] rows left to right: placed by branch_order, then confirmed.
    Each interval must have positive length, and may touch the next one
    (where gamma_k = 1/4) but not overlap it."""
    ivs = branch_order(table).reshape(-1, 2)
    if not ((ivs[:, 0] < ivs[:, 1]).all() and (ivs[:-1, 1] <= ivs[1:, 0]).all()):
        raise DomainError(f"{len(ivs)} basic intervals: one is empty or out of order")
    return ivs


def level_intervals(gamma: GammaSequence, n: int) -> np.ndarray:
    """All 2^n level-n basic intervals, left to right, as a (2^n, 2) array
    of [lo, hi] rows; an object array of Decimals if extended."""
    if n == 0:
        return np.array([[0.0, 1.0]])
    return _interval_rows(branch_value_table(gamma, n, _INTERVAL_ENDS))


def _interval_ladder(gamma: GammaSequence, top: int) -> list[np.ndarray]:
    """level_intervals(gamma, n) for n = 0..top, levels 1..top from one
    branch_value_ladder."""
    tables = branch_value_ladder(gamma, top, _INTERVAL_ENDS)
    return [level_intervals(gamma, 0)] + [_interval_rows(table) for table in tables]


def largest_gap(gamma: GammaSequence, n: int) -> float:
    """Length of the widest gap of the level-n set."""
    ivs = level_intervals(gamma, n).astype(float)
    return float(np.max(ivs[1:, 0] - ivs[:-1, 1], initial=0.0))


# ---------------------------------------------------------------------------
# scale quantities
# ---------------------------------------------------------------------------

def leftmost_length(gamma: GammaSequence, s: int) -> Scalar:
    """Length of the leftmost level-s basic interval (1 for s = 0), in level s's precision.

    Equals the fully nested kernel value u(gamma_1 * u(... * u(gamma_s))), the all-L branch
    at t = -1, bit for bit in double, and satisfies delta_s <= l <= (pi^2/4) delta_s.
    """
    if s < 0:
        raise DomainError("level must be >= 0")
    if s == 0:  # delta_0 = 1: double
        return 1.0
    mode = gamma.precision(s)[0]
    with localcontext(gamma.context(s)):
        v = (_inner_kernel(gamma.value(s), np.float64(-1.0))[0] if mode == "double"
             else u_map(as_decimal(gamma.value(s))))
        for k in range(s - 1, 0, -1):
            v = _pull(gamma.value(k), v, False, mode)[0]
        return v


def scale_rows(gamma: GammaSequence, s_max: int) -> list[tuple]:
    """(s, delta_s, l_{1,s}, ratio) rows for s = 0 .. s_max, each in level s's precision; the
    ratio is the exact quotient l_{1,s} / delta_s rounded once, so a delta_s below the doubles
    leaves it finite."""
    rows = []
    for s in range(s_max + 1):
        d = gamma.delta(s)
        l = leftmost_length(gamma, s)
        rows.append((s, d, l, float(Fraction(l) / Fraction(d))))
    return rows
