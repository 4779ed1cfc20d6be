"""Kernel, branch-value, interval, and scale-quantity behaviour."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import cantorpoly as cp
from cantorpoly import geometry
from cantorpoly.errors import DomainError, RangeOverflowError
from cantorpoly.exact import EXACT
from cantorpoly.geometry import (
    GammaSequence,
    _separation_ladder,
    all_branch_values,
    branch_value_ladder,
    branch_value_table,
    largest_gap,
    leftmost_length,
    level_intervals,
    scale_rows,
    u_map,
)

from reference import (basic_interval, branch_value, critical_distance, decimal, decimal_table,
                       level_gaps, separation_table, words)

PI_SQ_4 = math.pi ** 2 / 4.0


def _bisect_u(target: float) -> float:
    # independent route: solve x (1 - x) = target on [0, 1/2] by bisection
    lo, hi = 0.0, 0.5
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid * (1.0 - mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestUMap:
    def test_endpoints(self):
        assert cp.u_map(0.0) == 0.0
        assert cp.u_map(0.25) == 0.5

    def test_interior_value_against_bisection(self):
        assert cp.u_map(0.125) == pytest.approx(0.5 - math.sqrt(2.0) / 4.0, abs=1e-16)
        assert cp.u_map(0.125) == pytest.approx(_bisect_u(0.125), abs=1e-14)

    @pytest.mark.parametrize("bad", [-1e-9, 0.2500001, 1.0])
    def test_domain_rejected(self, bad):
        with pytest.raises(DomainError):
            cp.u_map(bad)

    def test_array_input(self):
        t = np.array([0.0, 0.1, 0.25])
        out = cp.u_map(t)
        assert out.shape == (3,)
        with pytest.raises(DomainError):
            cp.u_map(np.array([0.1, 0.3]))

    def test_double_double_input(self):
        x = Decimal("0.125")
        v = cp.u_map(x)
        assert isinstance(v, Decimal)
        assert float(v) == pytest.approx(0.5 - math.sqrt(2.0) / 4.0, abs=1e-16)

    @given(st.floats(0.0, 0.25), st.floats(0.0, 0.25))
    @example(0.25, math.nextafter(0.25, 0.0))
    def test_monotone_and_convex(self, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        if lo < hi:
            assert cp.u_map(lo) < cp.u_map(hi)
            # the float midpoint can round onto an endpoint, so take the
            # chord at the computed mid; w is exactly 1/2 when mid is exact
            mid = 0.5 * (lo + hi)
            w = (mid - lo) / (hi - lo)
            chord = (1.0 - w) * cp.u_map(lo) + w * cp.u_map(hi)
            assert cp.u_map(mid) < chord + 1e-15

    @given(st.floats(0.0, 1.0), st.floats(0.0, 0.25))
    def test_scaling_bound(self, a, t):
        assert cp.u_map(a * t) <= a * cp.u_map(t) + 1e-15

    @given(st.floats(0.0, 0.25))
    def test_derivative_bound(self, t):
        assert cp.u_map(t) * math.sqrt(1.0 - 4.0 * t) <= t + 1e-15


class TestGammaSequence:
    def test_period(self):
        assert GammaSequence.constant("0.1").period == 1
        assert GammaSequence.periodic(["1/6", "1/5", "1/4"]).period == 3
        assert GammaSequence.from_list(["1/4", "1/4"]).period is None

    @pytest.mark.parametrize("desc", ["constant:0.001", "periodic:1/6,1/5,1/4",
                                      "list:1/4,1/1000"])
    def test_memoized_scales_keep_their_values(self, desc):
        # the prefix products and context digits are kept per instance;
        # any order of calls gives the products and digits of the rule
        g = GammaSequence.from_descriptor(desc)
        for s in (7, 3, 12, 0, 12):
            want = math.prod((g.value(k) for k in range(1, s + 1)), start=Fraction(1))
            assert g.delta_fraction(s) == want
            d = want * g.value(s + 1) * g.value(s + 2)
            decades = math.ceil(math.log10(d.denominator) - math.log10(d.numerator))
            assert g.context(s).prec == max(34, decades + 10)
            assert g.context(s) is not g.context(s)  # a fresh context each call
        assert g == GammaSequence.from_descriptor(desc)
        assert hash(g) == hash(GammaSequence.from_descriptor(desc))

    def test_kinds_and_extension(self):
        g = GammaSequence.from_list(["0.1", "0.2"])
        assert g.value(1) == Fraction(1, 10)
        assert g.value(2) == Fraction(1, 5)
        assert g.value(9) == Fraction(1, 5)  # extended by last value
        p = GammaSequence.periodic(["1/6", "1/5"])
        assert p.value(3) == Fraction(1, 6)
        assert p.value(4) == Fraction(1, 5)
        c = GammaSequence.constant(0.25)
        assert c.value(17) == Fraction(1, 4)

    @pytest.mark.parametrize("bad", ["0.26", "0.0", "-0.1", "0.2500000001"])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(DomainError):
            GammaSequence.constant(bad)

    def test_quarter_boundary_allowed(self):
        GammaSequence.constant("0.25")

    def test_descriptor_roundtrip(self):
        for g in (GammaSequence.constant("0.25"),
                  GammaSequence.periodic(["1/6", "1/5"]),
                  GammaSequence.from_list(["0.125", "0.015625"])):
            back = GammaSequence.from_descriptor(g.descriptor())
            assert back == g
        s = GammaSequence.from_descriptor("periodic:1/6,1/5")
        assert s.values == (Fraction(1, 6), Fraction(1, 5))

    def test_delta_examples(self):
        g4 = GammaSequence.constant(Fraction(1, 4))
        assert g4.delta(0) == 1.0
        assert g4.delta(4) == 1.0 / 256.0
        g = GammaSequence.from_list([Fraction(1, 6), Fraction(1, 5)])
        assert g.delta_fraction(2) == Fraction(1, 30)

    def test_infimum_and_classification(self):
        p = GammaSequence.periodic(["1/6", "1/5"])
        assert p.infimum() == Fraction(1, 6)
        flags = p.classification(12)
        assert flags["summability_partial"] > 0
        assert flags["prefix_all_le_one_sixth"] is False

    def test_descriptor_keeps_every_digit(self):
        g = GammaSequence.constant("0.1234567890123456789012345678901")
        assert g.descriptor()["values"] == ["0.1234567890123456789012345678901"]
        assert GammaSequence.constant("0.25").descriptor()["values"] == ["0.25"]

    def test_dd_materialization(self):
        # delta_20 = 6^-20 < 1e-12: a Decimal, rounded once at level 20's digits
        g = GammaSequence.constant("1/6")
        v, want = g.delta(20), Fraction(1, 6) ** 20
        assert isinstance(v, Decimal)
        assert abs(Fraction(v) - want) < want / 2 ** 100

    @pytest.mark.parametrize("desc,depth,digits", [
        ("constant:1/6", 8, 34), ("constant:0.02", 12, 34), ("constant:0.05", 12, 34),
        ("constant:0.1", 13, 34), ("periodic:1/6,1/5", 14, 34),
        ("constant:0.001", 12, 52), ("constant:0.001", 8, 40)])
    def test_precision_rule(self, desc, depth, digits):
        # ceil(-log10 delta_{depth+2}) + 10 digits, never fewer than 34
        assert GammaSequence.from_descriptor(desc).context(depth).prec == digits

    def test_auto_mode_resolution(self):
        # the one rule: decimal once delta_depth < 1e-12, at context(depth)'s digits
        g = GammaSequence.constant("1/6")
        assert g.precision(4) == ("double", 0) and g.precision(15) == ("double", 0)
        assert g.precision(16) == ("dd", g.context(16).prec) == ("dd", 34)
        assert isinstance(g.delta(16), Decimal) and isinstance(g.delta(15), float)
        assert g.precision(0) == ("double", 0) and g.delta(0) == 1.0


class TestBranchValue:
    def test_right_endpoint_is_zero(self, gamma_sixth):
        # t = 1 forces the innermost argument to 0, and u(0) = 0
        assert branch_value(gamma_sixth, "L", 1.0) == 0.0

    def test_left_endpoint_at_quarter(self, gamma_quarter):
        assert branch_value(gamma_quarter, "L", -1.0) == 0.5

    @pytest.mark.parametrize("n", range(1, 21))
    def test_all_left_word_matches_cosine_form(self, gamma_quarter, n):
        # a Decimal from n = 20, where delta_n < 1e-12
        got = float(branch_value(gamma_quarter, "L" * n, -1.0))
        want = math.sin(math.pi / 2 ** (n + 1)) ** 2  # = (1 - cos(pi/2^n)) / 2
        assert abs(got - want) <= 4 * np.finfo(float).eps * want

    def test_parameter_validation(self, gamma_sixth):
        with pytest.raises(DomainError):
            branch_value(gamma_sixth, "L", 1.5)

    def test_value_lies_in_addressed_interval(self, gamma_periodic):
        for word in ("LRL", "RRL", "LLR"):
            lo, hi = basic_interval(gamma_periodic, word)
            for t in (-0.7, 0.0, 0.3, 1.0):
                assert lo <= branch_value(gamma_periodic, word, t) <= hi


class TestBasicInterval:
    def test_level_one_quarter(self, gamma_quarter):
        assert basic_interval(gamma_quarter, "L") == (0.0, 0.5)

    def test_reflection_symmetry(self, gamma_periodic):
        left = basic_interval(gamma_periodic, "L")
        right = basic_interval(gamma_periodic, "R")
        assert right == (1.0 - left[1], 1.0 - left[0])

    def test_left_left_quarter(self, gamma_quarter):
        lo, hi = basic_interval(gamma_quarter, "LL")
        assert lo == 0.0
        assert hi == pytest.approx(0.146446609, abs=1e-9)

    def test_nesting_and_disjointness(self, gamma_sixth):
        for n in range(1, 6):
            parents = level_intervals(gamma_sixth, n - 1)
            children = level_intervals(gamma_sixth, n)
            assert children.shape == (2 ** n, 2)
            assert np.all(children[:-1, 1] < children[1:, 0])
            for lo, hi in children:
                assert np.any((parents[:, 0] <= lo) & (hi <= parents[:, 1]))

    def test_word_extension_nests(self, gamma_periodic):
        for word in ("L", "RL", "LRL"):
            outer = basic_interval(gamma_periodic, word)
            for letter in "LR":
                inner = basic_interval(gamma_periodic, word + letter)
                assert outer[0] <= inner[0] and inner[1] <= outer[1]
                assert inner[1] - inner[0] < outer[1] - outer[0]

    def test_endpoint_inheritance(self, gamma_sixth):
        # left endpoint of each odd child and right endpoint of each even
        # child reproduce the parent endpoints exactly
        for n in range(0, 5):
            parents = level_intervals(gamma_sixth, n)
            children = level_intervals(gamma_sixth, n + 1)
            assert np.array_equal(children[0::2, 0], parents[:, 0])
            assert np.array_equal(children[1::2, 1], parents[:, 1])

    def test_gaps_are_parent_complements(self, gamma_sixth):
        for n in range(0, 4):
            parents = level_intervals(gamma_sixth, n)
            children = level_intervals(gamma_sixth, n + 1)
            gaps = level_gaps(gamma_sixth, n)
            assert len(gaps) == 2 ** n
            for j, (lo, hi) in enumerate(gaps):
                assert lo == children[2 * j, 1]
                assert hi == children[2 * j + 1, 0]
                assert parents[j, 0] < lo < hi < parents[j, 1]

    def test_degenerate_gaps_at_quarter(self, gamma_quarter):
        # neighbouring intervals touch, and the placement check admits that
        for n in range(1, 6):
            for lo, hi in level_gaps(gamma_quarter, n):
                assert lo == hi
        assert largest_gap(gamma_quarter, 6) == 0.0

    def test_largest_gap_sixth(self, gamma_sixth):
        ivs = level_intervals(gamma_sixth, 1)
        assert largest_gap(gamma_sixth, 1) == pytest.approx(
            float(ivs[1, 0]) - float(ivs[0, 1]))

    def test_tiny_gamma_intervals_in_auto_precision(self):
        # at gamma = 0.001 the level-6 intervals next to 1 tie in double;
        # in auto precision they stay distinct and ordered
        g = GammaSequence.constant("0.001")
        ivs = level_intervals(g, 6)
        assert ivs.dtype == object
        assert np.all(ivs[:, 0] < ivs[:, 1]) and np.all(ivs[:-1, 1] < ivs[1:, 0])
        assert largest_gap(g, 6) == pytest.approx(1 - 2 * cp.u_map(0.001), rel=1e-14)

    @pytest.mark.parametrize("desc", ["constant:1/4", "constant:0.001", "periodic:2/9,1/4"])
    def test_levels_are_the_sorted_scalar_intervals(self, desc):
        # at 1/4 neighbours touch, at 0.001 the levels from 5 on are decimal
        gamma = GammaSequence.from_descriptor(desc)
        for n in range(1, 9):
            want = sorted(basic_interval(gamma, w) for w in words(n))
            assert level_intervals(gamma, n).tolist() == [list(iv) for iv in want], n

    @pytest.mark.parametrize("misplace", [
        lambda table: table[::-1],                 # words out of order: lo > hi
        lambda table: table[:, [1, 1]],            # one endpoint twice: lo == hi
        lambda table: np.vstack([[0.3, 0.0], table[1:]]),  # the leftmost overlaps the next
    ], ids=["reversed", "degenerate", "overlapping"])
    def test_misplaced_table_raises(self, gamma_sixth, monkeypatch, misplace):
        real = geometry.branch_value_table
        monkeypatch.setattr(geometry, "branch_value_table",
                            lambda *args: misplace(real(*args)))
        with pytest.raises(DomainError, match="empty or out of order"):
            level_intervals(gamma_sixth, 2)


class TestScaleQuantities:
    def test_leftmost_length_base_cases(self, gamma_quarter):
        assert cp.leftmost_length(gamma_quarter, 0) == 1.0
        l1 = cp.leftmost_length(gamma_quarter, 1)
        assert l1 == 0.5
        assert 0.25 <= l1 <= PI_SQ_4 * 0.25

    def test_leftmost_length_nested_evaluation(self, gamma_sixth):
        g = 1.0 / 6.0
        direct = cp.u_map(g * cp.u_map(g * cp.u_map(g)))
        got = cp.leftmost_length(gamma_sixth, 3)
        assert got == pytest.approx(direct, rel=1e-15)
        assert 1.0 / 216.0 <= got <= math.pi ** 2 / 864.0

    def test_leftmost_equals_interval_length(self, gamma_periodic):
        for s in range(1, 8):
            lo, hi = level_intervals(gamma_periodic, s)[0]
            assert cp.leftmost_length(gamma_periodic, s) == pytest.approx(
                float(hi - lo), rel=1e-14)

    @pytest.mark.parametrize("gname", ["gamma_quarter", "gamma_sixth", "gamma_periodic"])
    def test_two_sided_bound_double(self, gname, request):
        gamma = request.getfixturevalue(gname)
        for s in range(0, 15):
            d = gamma.delta_fraction(s)
            l = cp.leftmost_length(gamma, s)
            assert Fraction(l) >= d
            assert l <= PI_SQ_4 * float(d) * (1 + 1e-14)

    def test_two_sided_bound_dd_deep(self, gamma_sixth):
        for s in (16, 20, 24):
            d = gamma_sixth.delta_fraction(s)
            l = cp.leftmost_length(gamma_sixth, s)  # delta_s < 1e-12: decimal
            assert isinstance(l, Decimal)
            assert Fraction(l) >= d
            assert float(l) <= PI_SQ_4 * float(d)

    @pytest.mark.parametrize("mode", ["auto", "dd"])
    @pytest.mark.parametrize("desc", ["constant:1/4", "constant:1/6", "constant:0.001",
                                      "periodic:2/9,1/4", "list:1/4,1/1000"])
    def test_is_the_scalar_all_left_branch(self, desc, mode):
        # the all-L branch at t = -1, walked in level s's own precision ("auto"): bit for bit
        # and in type; walked in decimal ("dd"): bit for bit where level s is decimal, and
        # within 4e-15 relative where it works in double (1.2e-15 measured, s <= 24)
        gamma = GammaSequence.from_descriptor(desc)
        for s in range(1, 25):
            got = cp.leftmost_length(gamma, s)
            want = branch_value(gamma, "L" * s, -1.0, decimal(gamma, s) if mode == "dd" else None)
            if type(got) is type(want):
                assert got == want, s
            else:
                assert mode == "dd" and abs(got - float(want)) <= 4e-15 * float(want), s

    def test_auto_mode_escalates(self, gamma_sixth):
        assert isinstance(cp.leftmost_length(gamma_sixth, 20), Decimal)
        assert isinstance(cp.leftmost_length(gamma_sixth, 5), float)

    def test_scale_rows(self, gamma_quarter):
        rows = scale_rows(gamma_quarter, 3)
        assert rows[0][:3] == (0, 1.0, 1.0)
        s, d, l, ratio = rows[1]
        assert (d, l, ratio) == (0.25, 0.5, 2.0)
        assert ratio <= PI_SQ_4


class TestAllBranchValues:
    def test_matches_scalar_route(self, gamma_periodic):
        n = 4
        vals = sorted(all_branch_values(gamma_periodic, n, 0.0))
        scalars = sorted(
            branch_value(gamma_periodic, w, 0.0) for w in words(n)
        )
        assert np.allclose(vals, scalars, rtol=0, atol=0)

    @pytest.mark.parametrize("desc", ["constant:0.02", "constant:0.001",
                                      "periodic:1/1000000,1/4", "list:1/4,1/1000"])
    def test_extended_values_match_mpmath(self, desc):
        # 300-bit mpmath runs the same doubling; every extended value must
        # lie within m units of the last of the digits the rule gives level m
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.prec = 300
        gamma = GammaSequence.from_descriptor(desc)

        def g(k):
            return mp.mpf(gamma.value(k).numerator) / gamma.value(k).denominator

        def u(t):
            return 2 * t / (1 + mp.sqrt(1 - 4 * t))

        for m in (1, 2, 5, 8, 10):
            bound = m * mp.mpf(10) ** -gamma.context(m).prec
            for t in (0, 1, -1):
                v = [u(g(m) * (1 - t) / 2)]
                for k in range(m - 1, 0, -1):
                    x = v + [1 - y for y in v]
                    v = [u(g(k) * y) for y in x]
                want = v + [1 - y for y in v]
                got = decimal_table(gamma, m, (float(t),))[:, 0]
                err = max(abs(mp.mpf(str(a)) - b) for a, b in zip(got, want))
                assert err <= bound, (m, t, err)

    @pytest.mark.parametrize("prec", [28, 100])
    def test_extended_values_ignore_the_callers_context(self, prec):
        gamma = GammaSequence.from_descriptor("constant:0.001")
        want = all_branch_values(gamma, 9, 0.0)  # delta_9 = 1e-27: decimal
        with localcontext() as ctx:
            ctx.prec = prec
            assert all_branch_values(gamma, 9, 0.0) == want
            assert tuple(cp.exact_zeros(cp.MapFamily(gamma), 9).values) == tuple(sorted(want))

    @pytest.mark.parametrize("mode", ["auto", "dd"])
    def test_table_columns_are_the_single_passes(self, gamma_periodic, mode):
        # one doubling over several parameters, in (word, parameter) order: in each level's
        # own precision ("auto", double here), and in the decimal reference pass ("dd")
        ts = (0.0, 1.0, -1.0, 0.25)
        table_of = branch_value_table if mode == "auto" else decimal_table
        for n in (1, 2, 5, 8):
            table = table_of(gamma_periodic, n, ts)
            assert table.shape == (2 ** n, len(ts))
            for j, t in enumerate(ts):
                assert list(table[:, j]) == list(table_of(gamma_periodic, n, (t,))[:, 0])
        with pytest.raises(DomainError):
            branch_value_table(gamma_periodic, 3, (0.0, 1.5))

    def test_dd_mode_agrees_with_double(self, gamma_sixth):
        vals_d = sorted(all_branch_values(gamma_sixth, 5, -1.0))
        vals_dd = sorted(float(v) for v in decimal_table(gamma_sixth, 5, (-1.0,))[:, 0])
        assert np.allclose(vals_d, vals_dd, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("desc", ["constant:1/4", "periodic:2/9,1/4", "list:1/4,1/1000",
                                      "periodic:1/4,1/10000", "periodic:1/4,1/100000000"])
    def test_double_tables_match_80_digits(self, desc):
        # every double level <= 10 at t = 0, +1 and -1 within 2e-16 absolute of an
        # 80-digit pass: formed as 1 - 4g (1 - v), a letter R's root argument cancels
        # next to f_k's critical point, to 4.0e-13 off at list:1/4,1/1000
        gamma = GammaSequence.from_descriptor(desc)
        ts = (0.0, 1.0, -1.0)
        levels = [n for n in range(1, 11) if gamma.precision(n)[0] == "double"]
        assert len(levels) >= 3
        for n in levels:
            got = branch_value_table(gamma, n, ts)
            want = geometry._level_table(gamma, n, ts, ("dd", 80))[1]
            with localcontext(EXACT):
                err = np.abs(np.frompyfunc(Decimal, 1, 1)(got) - want).astype(float)
            assert err.max() <= 2e-16, (n, err.max())


class TestInnerKernel:
    """The double first step of a doubling pass over an array of parameters t."""

    @pytest.mark.parametrize("g", [Fraction(1, 4), Fraction(1, 6), Fraction(2, 9),
                                   Fraction(1, 20), Fraction(1, 1000), Fraction(1, 10 ** 6)])
    def test_endpoints_and_anchor_are_the_exact_t_inner(self, g):
        # at t = 0 and 1 the bits of u_map of the correctly rounded g (1 - t) / 2 and its
        # root; at t = -1 the root of the correctly rounded 1 - 4g, not of 1 - 4 float(g)
        value, root = geometry._inner_kernel(g, np.array([-1.0, 0.0, 1.0]))
        t_inner = np.array([float(g / 2), 0.0])
        assert value[1:].tobytes() == u_map(t_inner).tobytes()
        assert root[1:].tobytes() == np.sqrt(1 - 4 * t_inner).tobytes()
        assert root[0] == np.sqrt(float(1 - 4 * g)) and value[0] == 2 * float(g) / (1 + root[0])
        if g == Fraction(2, 9):  # u(2/9) = 1/3, and 1 - 4 float(g) is 4 units above 1/9
            assert value[0] == 1 / 3 != u_map(float(g))

    @given(g=st.fractions(min_value=0, max_value=Fraction(1, 4)).filter(bool))
    @example(g=Fraction(1, 4))
    @example(g=Fraction(2, 9))
    @example(g=Fraction(1, 6))
    @example(g=Fraction(1, 10 ** 100))
    def test_terms_from_the_integers_round_once(self, g):
        # 1 - 4g and g / 2, formed from g's numerator and denominator, are the correctly
        # rounded float(1 - 4 * g) and float(g / 2): at t = 0 t_inner is g / 2 itself
        assert geometry._one_minus_4g(g, "double") == float(1 - 4 * g)
        value, root = geometry._inner_kernel(g, np.array([0.0]))
        t_inner = np.array([float(g / 2)])
        assert value.tobytes() == u_map(t_inner).tobytes()
        assert root.tobytes() == np.sqrt(1 - 4 * t_inner).tobytes()

    def test_keeps_one_plus_t_near_minus_one(self):
        # at g = 1/4 the root argument is (1 + t) / 2: formed from 1 + t, exact
        # there, u keeps full accuracy where forming t_inner first loses t's last bit
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        t = -1 + np.array([2.0 ** -k + 2.0 ** -53 for k in range(2, 50)])  # t's last bit set
        got = geometry._inner_kernel(Fraction(1, 4), t)[0]
        want = [(1 - mp.mpf(x)) / 4 / (1 + mp.sqrt((1 + mp.mpf(x)) / 2)) for x in t]
        err = max(abs(mp.mpf(u) - w) / w for u, w in zip(got, want))
        assert err <= 4 * np.finfo(float).eps


class TestBranchValueLadder:
    @pytest.mark.parametrize("desc", ["constant:0.05", "constant:0.001", "periodic:1/5,1/6",
                                      "periodic:1/6,1/5,1/4", "list:1/4,1/1000",
                                      "constant:1/4"])
    def test_levels_equal_fresh_tables(self, desc):
        # 0.05 turns decimal at level 10; at 0.001 the context grows every
        # level, so nothing is carried; a list is never carried
        gamma = GammaSequence.from_descriptor(desc)
        ts = (0.0, 1.0, -1.0)
        tables = branch_value_ladder(gamma, 12, ts)
        assert len(tables) == 12
        for n, table in enumerate(tables, start=1):
            fresh = branch_value_table(gamma, n, ts)
            assert table.dtype == fresh.dtype and table.shape == fresh.shape == (2 ** n, 3)
            if fresh.dtype == object:
                assert table.tolist() == fresh.tolist(), n
            else:
                assert np.array_equal(table, fresh), n

    def test_depth_fixes_one_precision(self):
        gamma = GammaSequence.constant("0.02")
        tables = branch_value_ladder(gamma, 10, (0.0,), depth=10)
        assert all(t.dtype == object for t in tables)
        for n in (1, 5, 8, 10):  # levels 8..10 already work at level 10's 34 digits
            want = geometry._level_table(gamma, n, (0.0,), gamma.precision(10))[1]
            assert tables[n - 1].tolist() == want.tolist()
        assert branch_value_ladder(gamma, 0, (0.0,)) == []
        with pytest.raises(DomainError):
            branch_value_ladder(gamma, 3, (0.0, 1.5))

    def test_carry_halves_the_decimal_pulls(self, monkeypatch):
        # values pulled in decimal for levels 8..12 of constant 0.02: one
        # fresh doubling per level pulls 2^n - 2 values each, the ladder
        # starts level 8 afresh and carries every later level by one step
        gamma = GammaSequence.constant("0.02")
        pulled = []
        real = geometry._pull

        def counting(g, v, reflected, mode):
            if mode == "dd":
                pulled.append(len(v))
            return real(g, v, reflected, mode)

        monkeypatch.setattr(geometry, "_pull", counting)
        for n in range(1, 13):
            branch_value_table(gamma, n, (0.0,))
        assert sum(pulled) == 7926
        pulled.clear()
        branch_value_ladder(gamma, 12, (0.0,))
        assert sum(pulled) == 254 + 256 + 512 + 1024 + 2048


_KERNEL_INPUTS = ["constant:1/6", "constant:1/4", "constant:0.05", "constant:0.02",
                  "constant:0.001", "constant:0.0001", "constant:1/100000000", "list:1/4,1/1000",
                  "periodic:1/1000000,1/4", "periodic:1/4,1/100000000", "periodic:2/9,1/4"]


class TestSeparationKernel:
    @pytest.mark.parametrize("desc", _KERNEL_INPUTS)
    def test_matches_the_decimal_oracle(self, desc):
        # every anchor and signed separation of levels 1..8 within 4e-15
        # relative; at 1e-8, level 8, the separations are about 1e-64
        gamma = GammaSequence.from_descriptor(desc)
        for n, (table, _) in enumerate(_separation_ladder(gamma, 8), 1):
            want = separation_table(gamma, n)
            assert table.shape == (2 ** n, n + 3) and table.dtype == float
            with localcontext(EXACT):
                err = np.frompyfunc(Decimal, 1, 1)(table[:, :3]) - want
            rel = np.abs(err / want).astype(float)
            assert rel.max() <= 4e-15, (desc, n, rel.max())

    @pytest.mark.parametrize("desc", _KERNEL_INPUTS)
    def test_critical_distance_matches_the_decimal_oracle(self, desc):
        # d(Z, Y), the least centre distance, against the least |z - y| over
        # every zero and every critical point of each level 1..8
        gamma = GammaSequence.from_descriptor(desc)
        for n, (table, _) in enumerate(_separation_ladder(gamma, 8), 1):
            got, want = np.abs(table[:, 3:]).min(), critical_distance(gamma, n)
            with localcontext(EXACT):
                err = abs(Decimal(got) - want)
            assert float(err) <= 1e-15 * float(want), (desc, n, float(err) / float(want))

    @pytest.mark.parametrize("desc, values", [("constant:1/6", ["1/6"]),
                                              ("periodic:1/6,1/5", ["1/6", "1/5"]),
                                              ("periodic:1/1000000,1/4", ["1/1000000", "1/4"])])
    def test_carried_levels_are_fresh_passes(self, desc, values):
        # a list has no period, so each of its levels is a fresh pass; the
        # periodic levels continue their predecessors' arrays bit for bit
        carried = _separation_ladder(GammaSequence.from_descriptor(desc), 8)
        fresh = _separation_ladder(GammaSequence.from_list(values * 9), 8)
        for (table, leftmost), (want, want_leftmost) in zip(carried, fresh):
            assert table.tobytes() == want.tobytes() and leftmost == want_leftmost

    def test_ties_hold_bit_for_bit(self):
        # the all-L words at t = +1 (level-1 letter L or R) against the chain,
        # and the chain against l_{1,n+1} wherever gamma_{n+1} = 1/4
        quarter_ties = 0
        for desc in _KERNEL_INPUTS:
            gamma = GammaSequence.from_descriptor(desc)
            for n, (table, leftmost) in enumerate(_separation_ladder(gamma, 8), 1):
                chain = table[0, 0]
                assert -table[0, 1] == chain and table[2 ** (n - 1), 1] == chain, (desc, n)
                if gamma.value(n + 1) == Fraction(1, 4):
                    assert leftmost == chain, (desc, n)
                    quarter_ties += 1
        assert quarter_ties == 20

    @pytest.mark.parametrize("desc", _KERNEL_INPUTS)
    def test_pulls_as_the_branch_tables_do(self, desc):
        # one pull step, in double at levels 1..10: the anchors are the table at t = 0,
        # and l_{1,s}, the table's all-L value at t = -1 and, where it works in double,
        # leftmost_length are one value
        gamma = GammaSequence.from_descriptor(desc)
        double = ("double", 0)
        for n, (table, leftmost) in enumerate(_separation_ladder(gamma, 10), 1):
            anchors = geometry._level_table(gamma, n, (0.0,), double)[1][:, 0]
            assert table[:, 0].tobytes() == anchors.tobytes(), (desc, n)
            s = n + 1
            assert leftmost == geometry._level_table(gamma, s, (-1.0,), double)[1][0, 0], s
            if gamma.precision(s)[0] == "double":
                assert leftmost_length(gamma, s) == leftmost, (desc, s)
                assert branch_value_table(gamma, s, (-1.0,))[0, 0] == leftmost, (desc, s)

    def test_leftmost_length_in_double(self):
        # the double l_{1,s} is leftmost_length where that works in double
        for desc in ("constant:1/6", "periodic:2/9,1/4", "constant:0.02"):
            gamma = GammaSequence.from_descriptor(desc)
            for s, (_, leftmost) in enumerate(_separation_ladder(gamma, 6), 2):
                want = branch_value(gamma, "L" * s, -1.0, decimal(gamma, s))
                assert abs(leftmost - float(want)) <= 4e-15 * float(want)

    def test_no_value_below_the_normal_doubles(self):
        # level 4's separations are about 1e-301; level 5's would be 1e-401,
        # and l_{1,5} of the top level, pulled unchecked, rounds to 0
        gamma = GammaSequence.from_descriptor("list:1/4,1e-100")
        (table, leftmost), = _separation_ladder(gamma, 4)[3:]
        assert abs(table[:, 1:]).min() > 1e-302 and leftmost == 0.0
        with pytest.raises(RangeOverflowError, match="level 5"):
            _separation_ladder(gamma, 5)
