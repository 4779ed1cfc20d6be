"""Geometry of the quadratically generated Cantor sets.

The level-n pre-Cantor set is a union of 2^n basic intervals, each
addressed by a word over {L, R}: letter k selects the branch of level k,
L the kernel u and R its reflection 1 - u. All interval endpoints and branch
values factor through the elementary kernel

    u(t) = 1/2 - (1/2) * sqrt(1 - 4t),      0 <= t <= 1/4,

composed from the inside out with per-level scale factors gamma_k. The
fundamental scale of level s is delta_s = gamma_1 * ... * gamma_s.

Every function here is pure and works on floats, numpy arrays or
Decimals. The ``mode`` argument of the higher-level operations is
"auto" (the default): double while delta at the requested depth is at
least 1e-12, below it extended precision (stdlib ``decimal``, in the
private context ``GammaSequence.context(depth)``); or "dd", always
extended. No mode forces double: the zero spacing falls with delta.

The branch values of every word of one level come from one doubling
pass (``branch_value_table``). ``branch_value_ladder`` yields the tables
of levels 1..top from one run of that pass: when gamma repeats with
period p and level n works in the precision of level n - p, level n
continues level n - p's doubling by p steps instead of restarting, so
the levels together cost about as much as the deepest one alone.
branch_order places a table's values in increasing order by a fixed
Gray-code permutation of the words. The basic intervals of a level are
its table at t = -1 and 1 in that order, as [lo, hi] rows, and the
leftmost length l_{1,s} is the all-L branch at t = -1, pulled alone:
the doubling pass is the one branch evaluator.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import DomainError

Scalar = Union[float, Decimal]

_QUARTER = Fraction(1, 4)
_AUTO_EXTENDED_THRESHOLD = 1e-12
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

    def gamma(self, k: int, mode: str = "auto") -> Scalar:
        with localcontext(self.context(k)):
            return _scalar(self.value(k), self.resolve_mode(k, mode))

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

    def delta(self, s: int, mode: str = "auto") -> Scalar:
        """The level-s scale delta_s = gamma_1 * ... * gamma_s (delta_0 = 1)."""
        with localcontext(self.context(s)):
            return _scalar(self.delta_fraction(s), self.resolve_mode(s, mode))

    def infimum(self) -> Fraction:
        """inf over k of gamma_k; exact because the descriptor is finite."""
        return min(self.values)

    def resolve_mode(self, depth: int, mode: str) -> str:
        """The working precision, "double" or "dd": "auto" is "dd" once
        delta_depth < 1e-12; any mode but "auto" and "dd" raises."""
        if mode == "auto":
            return "dd" if float(self.delta_fraction(depth)) < _AUTO_EXTENDED_THRESHOLD else "double"
        if mode != "dd":
            raise DomainError(f"unknown precision mode {mode!r} (use 'auto' or 'dd')")
        return mode

    def context(self, depth: int) -> Context:
        """The decimal context of extended work down to level depth: the one
        precision rule. Its digits resolve delta_{depth+2}, the lower bound
        on the zero spacing at degree 2^depth, with a guard; at least 34."""
        digits = self._digits.get(depth)
        if digits is None:
            d = self.delta_fraction(depth + 2)
            decades = math.ceil(math.log10(d.denominator) - math.log10(d.numerator))
            digits = self._digits[depth] = max(_MIN_DIGITS, decades + _GUARD_DIGITS)
        return extended_context(digits)

    def precision(self, depth: int, mode: str = "auto") -> tuple[str, int]:
        """The working precision of level depth as (mode, digits): digits is
        the context's precision in "dd" and 0 in "double", which reads no
        context. Two levels of one precision round every operation alike."""
        mode = self.resolve_mode(depth, mode)
        return mode, self.context(depth).prec if mode == "dd" else 0

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


def _scalar(x, mode: str) -> Scalar:
    return as_decimal(x) if mode == "dd" else float(x)


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
    """u(g y) for y = v (letter L) or y = 1 - v (letter R), elementwise.

    In extended precision the reflected root argument 1 - 4g(1 - v) is
    formed as (1 - 4g) + 4g v, a sum of non-negative terms: the plain form
    cancels half the digits where g y nears 1/4.
    """
    if mode == "double":  # u_map, less its range check: g y lies in [0, g]
        y = float(g) * (1 - v if reflected else v)
        return 2 * y / (1 + np.sqrt(1 - 4 * y))
    two_g, four_g = as_decimal(2 * g), as_decimal(4 * g)
    if reflected:
        return two_g * (1 - v) / (1 + np.sqrt(as_decimal(1 - 4 * g) + four_g * v))
    return two_g * v / (1 + np.sqrt(1 - four_g * v))


def _check_ts(ts) -> tuple:
    ts = tuple(ts)
    for t in ts:
        if not -1.0 <= t <= 1.0:
            raise DomainError(f"branch parameter {t} outside [-1, 1]")
    return ts


def _inner_kernel(g: Fraction, t: np.ndarray) -> np.ndarray:
    """u(t_inner) with t_inner = g (1 - t) / 2, for an array of doubles t in [-1, 1].

    t_inner is formed as one array operation, (g / 2) (1 - t), the factor
    rounded once. The root argument 1 - 4 t_inner is formed from t where
    t < 0, as (1 - 4g) + 2g (1 + t): 1 + t is exact there, while t_inner,
    which nears g as t nears -1, would drop t's last bit, and at g = 1/4
    the square root amplifies that loss. At t = 0, 1 and -1 both give the
    bits of u_map of the correctly rounded t_inner.
    """
    g_half = float(g / 2)
    t_inner = g_half * (1 - t)
    root_arg = np.where(t < 0, (1 - 4 * float(g)) + 2 * float(g) * (1 + t), 1 - 4 * t_inner)
    return 2 * t_inner / (1 + np.sqrt(root_arg))


def _level_table(gamma: GammaSequence, n: int, ts: tuple, precision: tuple[str, int],
                 carried: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The doubling array of level n and its table, in the given precision.

    The doubling array holds the values of every word whose level-1
    letter is L; index bits read the level-2 letter first (0 = L), and
    the parameter varies fastest: entry w * len(ts) + j is word w at
    ts[j]. Without carried it starts from u(t_inner) and pulls through
    gamma_{n-1}, ..., gamma_1; in double, ts may be any array of doubles
    in [-1, 1], and the first step is ``_inner_kernel``. With carried,
    the doubling array of level n - p in the same precision, where p is
    the period of gamma, it pulls only through gamma_p, ..., gamma_1: the
    inner steps would repeat level n - p's with the same scales, arguments
    and rounding. The table appends the level-1 reflection and has one row
    per word.
    """
    mode, digits = precision
    with localcontext(extended_context(digits)) if digits else contextlib.nullcontext():
        if carried is None and mode == "double":
            v, k_top = _inner_kernel(gamma.value(n), np.asarray(ts, dtype=float)), n - 1
        elif carried is None:
            t_inner = np.array([_scalar(gamma.value(n) * (1 - _as_fraction(t)) / 2, mode)
                                for t in ts])
            v, k_top = u_map(t_inner), n - 1
        else:
            v, k_top = carried, gamma.period
        for k in range(k_top, 0, -1):
            g = gamma.value(k)
            v = np.concatenate([_pull(g, v, False, mode), _pull(g, v, True, mode)])
        return v, np.concatenate([v, 1 - v]).reshape(-1, len(ts))


def branch_value_table(gamma: GammaSequence, n: int, ts, mode: str = "auto") -> np.ndarray:
    """The branch value of every word of length n at every t in ts.

    The branch value of a word at t in [-1, 1] is its composed inverse
    branch at t_inner = gamma_n * (1 - t) / 2. One row per word in
    word-bit order (level-1 letter first, 0 = L) and one column per t,
    from one doubling pass over all the parameters; an object array of
    Decimals if extended. The total work is O(2^n) per
    parameter. This is a one-level branch_value_ladder, with nothing
    carried.
    """
    return _level_table(gamma, n, _check_ts(ts), gamma.precision(n, mode))[1]


def branch_value_ladder(gamma: GammaSequence, top: int, ts, mode: str = "auto",
                        depth: int | None = None) -> list[np.ndarray]:
    """branch_value_table(gamma, n, ts, mode) for n = 1..top, in one run.

    Level n works in its own precision, or in level depth's for every n
    when depth is given (the levels of a critical set). When gamma repeats
    with period p and level n works in the precision of level n - p, it
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
        precision = gamma.precision(n if depth is None else depth, mode)
        prior = arrays.pop(n - p, None) if p else None
        carried = prior[1] if prior is not None and prior[0] == precision else None
        v, table = _level_table(gamma, n, ts, precision, carried)
        if p:
            arrays[n] = (precision, v)
        tables.append(table)
    return tables


def all_branch_values(gamma: GammaSequence, n: int, t: float, mode: str = "auto"):
    """Every word's branch value at t, level n, in word-bit order (a list if extended)."""
    x = branch_value_table(gamma, n, (t,), mode)[:, 0]
    return x.tolist() if x.dtype == object else x


def branch_order(table: np.ndarray) -> np.ndarray:
    """The values of a branch table in increasing order, placed, not sorted.

    table has one row per word of one level, in word-bit order, and one
    column per parameter t, ascending. Each letter R reverses the order of
    the values inside it, so the increasing order visits the words in
    reflected Gray code order, word i ^ (i >> 1) at position i. The count of
    letters R in that word has the parity of i, and the all-L branch
    decreases in t, so the words at even positions place their values in
    descending t and the others in ascending t. A set's strict-increase check
    confirms the order instead of a sort making it.
    """
    i = np.arange(table.shape[0])
    rows = table[i ^ (i >> 1)]
    rows[0::2] = rows[0::2, ::-1]
    return rows.reshape(-1)


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


def level_intervals(gamma: GammaSequence, n: int, mode: str = "auto") -> np.ndarray:
    """All 2^n level-n basic intervals, left to right, as a (2^n, 2) array
    of [lo, hi] rows; an object array of Decimals if extended."""
    if n == 0:
        return np.array([[0.0, 1.0]])
    return _interval_rows(branch_value_table(gamma, n, _INTERVAL_ENDS, mode))


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

def leftmost_length(gamma: GammaSequence, s: int, mode: str = "auto") -> Scalar:
    """Length of the leftmost level-s basic interval (1 for s = 0).

    Equals the fully nested kernel value u(gamma_1 * u(... * u(gamma_s))),
    the all-L branch at t = -1, and satisfies delta_s <= l <= (pi^2/4) delta_s.
    """
    if s < 0:
        raise DomainError("level must be >= 0")
    mode = gamma.resolve_mode(s, mode)
    if s == 0:
        return Decimal(1) if mode == "dd" else 1.0
    with localcontext(gamma.context(s)):
        v = u_map(_scalar(gamma.value(s), mode))
        for k in range(s - 1, 0, -1):
            v = _pull(gamma.value(k), v, False, mode)
        return v


def scale_rows(gamma: GammaSequence, s_max: int, mode: str = "auto") -> list[tuple]:
    """(s, delta_s, l_{1,s}, ratio) rows for s = 0 .. s_max."""
    rows = []
    for s in range(s_max + 1):
        d = gamma.delta(s, mode)
        l = leftmost_length(gamma, s, mode)
        rows.append((s, d, l, float(l) / float(d)))
    return rows
