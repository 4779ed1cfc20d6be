"""Kernel, branch-value, interval, and scale-quantity behaviour."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import cantorpoly as cp
from cantorpoly import geometry
from cantorpoly.errors import DomainError
from cantorpoly.geometry import (
    GammaSequence,
    all_branch_values,
    branch_value_ladder,
    branch_value_table,
    largest_gap,
    level_intervals,
    scale_rows,
    u_map,
)

from reference import basic_interval, branch_value, level_gaps, words

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
        g = GammaSequence.constant("1/6")
        v = g.gamma(1, "dd")
        assert isinstance(v, Decimal)
        assert abs(Fraction(v) - Fraction(1, 6)) < Fraction(1, 6) / 2 ** 100

    @pytest.mark.parametrize("desc,depth,digits", [
        ("constant:1/6", 8, 34), ("constant:0.02", 12, 34), ("constant:0.05", 12, 34),
        ("constant:0.1", 13, 34), ("periodic:1/6,1/5", 14, 34),
        ("constant:0.001", 12, 52), ("constant:0.001", 8, 40)])
    def test_precision_rule(self, desc, depth, digits):
        # ceil(-log10 delta_{depth+2}) + 10 digits, never fewer than 34
        assert GammaSequence.from_descriptor(desc).context(depth).prec == digits

    def test_auto_mode_resolution(self):
        g = GammaSequence.constant("1/6")
        assert g.resolve_mode(4, "auto") == "double"
        assert g.resolve_mode(20, "auto") == "dd"
        assert isinstance(g.gamma(20), Decimal) and isinstance(g.delta(20), Decimal)
        assert isinstance(g.gamma(4), float) and isinstance(g.delta(4), float)
        for forced in ("quad", "double"):  # only auto and dd are modes
            with pytest.raises(DomainError):
                g.resolve_mode(4, forced)


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
        ivs = level_intervals(g, 6, "auto")
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
            l = cp.leftmost_length(gamma_sixth, s, "dd")
            assert isinstance(l, Decimal)
            assert Fraction(l) >= d
            assert float(l) <= PI_SQ_4 * float(d)

    @pytest.mark.parametrize("mode", ["auto", "dd"])
    @pytest.mark.parametrize("desc", ["constant:1/4", "constant:1/6", "constant:0.001",
                                      "periodic:2/9,1/4", "list:1/4,1/1000"])
    def test_is_the_scalar_all_left_branch(self, desc, mode):
        # the all-L branch at t = -1, bit for bit and in type
        gamma = GammaSequence.from_descriptor(desc)
        for s in range(1, 25):
            got = cp.leftmost_length(gamma, s, mode)
            want = branch_value(gamma, "L" * s, -1.0, mode)
            assert type(got) is type(want) and got == want, s

    def test_auto_mode_escalates(self, gamma_sixth):
        assert isinstance(cp.leftmost_length(gamma_sixth, 20, "auto"), Decimal)
        assert isinstance(cp.leftmost_length(gamma_sixth, 5, "auto"), float)

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
                got = all_branch_values(gamma, m, float(t), "dd")
                err = max(abs(mp.mpf(str(a)) - b) for a, b in zip(got, want))
                assert err <= bound, (m, t, err)

    @pytest.mark.parametrize("prec", [28, 100])
    def test_extended_values_ignore_the_callers_context(self, prec):
        gamma = GammaSequence.from_descriptor("constant:0.001")
        want = all_branch_values(gamma, 9, 0.0, "dd")
        with localcontext() as ctx:
            ctx.prec = prec
            assert all_branch_values(gamma, 9, 0.0, "dd") == want
            assert tuple(cp.exact_zeros(cp.MapFamily(gamma), 9, "dd").values) == tuple(sorted(want))

    @pytest.mark.parametrize("mode", ["auto", "dd"])
    def test_table_columns_are_the_single_passes(self, gamma_periodic, mode):
        # one doubling over several parameters, in (word, parameter) order
        ts = (0.0, 1.0, -1.0, 0.25)
        for n in (1, 2, 5, 8):
            table = branch_value_table(gamma_periodic, n, ts, mode)
            assert table.shape == (2 ** n, len(ts))
            for j, t in enumerate(ts):
                assert list(table[:, j]) == list(all_branch_values(gamma_periodic, n, t, mode))
        with pytest.raises(DomainError):
            branch_value_table(gamma_periodic, 3, (0.0, 1.5))

    def test_dd_mode_agrees_with_double(self, gamma_sixth):
        vals_d = sorted(all_branch_values(gamma_sixth, 5, -1.0))
        vals_dd = sorted(float(v) for v in all_branch_values(gamma_sixth, 5, -1.0, "dd"))
        assert np.allclose(vals_d, vals_dd, rtol=0, atol=1e-15)


class TestInnerKernel:
    """The double first step of a doubling pass over an array of parameters t."""

    @pytest.mark.parametrize("g", [Fraction(1, 4), Fraction(1, 6), Fraction(2, 9),
                                   Fraction(1, 20), Fraction(1, 1000), Fraction(1, 10 ** 6)])
    def test_endpoints_and_anchor_are_the_exact_t_inner(self, g):
        # at t = -1, 0, 1 the bits of u_map of the correctly rounded g (1 - t) / 2
        want = np.array([u_map(float(g * (1 - t) / 2)) for t in (-1, 0, 1)])
        assert geometry._inner_kernel(g, np.array([-1.0, 0.0, 1.0])).tobytes() == want.tobytes()

    def test_keeps_one_plus_t_near_minus_one(self):
        # at g = 1/4 the root argument is (1 + t) / 2: formed from 1 + t, exact
        # there, u keeps full accuracy where forming t_inner first loses t's last bit
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        t = -1 + np.array([2.0 ** -k + 2.0 ** -53 for k in range(2, 50)])  # t's last bit set
        got = geometry._inner_kernel(Fraction(1, 4), t)
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
            assert tables[n - 1].tolist() == branch_value_table(gamma, n, (0.0,), "dd").tolist()
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
