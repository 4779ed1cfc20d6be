"""Kernel, branch-word, interval, and scale-quantity behaviour."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import cantorpoly as cp
from cantorpoly.ddouble import DoubleDouble
from cantorpoly.errors import DomainError
from cantorpoly.geometry import (
    BranchWord,
    GammaSequence,
    Interval,
    all_branch_values,
    largest_gap,
    level_gaps,
    level_intervals,
    scale_rows,
)

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
        x = DoubleDouble.from_str("1/8")
        v = cp.u_map(x)
        assert isinstance(v, DoubleDouble)
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
        assert cp.delta(g4, 0) == 1.0
        assert cp.delta(g4, 4) == 1.0 / 256.0
        g = GammaSequence.from_list([Fraction(1, 6), Fraction(1, 5)])
        assert g.delta_fraction(2) == Fraction(1, 30)

    def test_infimum_and_classification(self):
        p = GammaSequence.periodic(["1/6", "1/5"])
        assert p.infimum() == Fraction(1, 6)
        flags = p.classification(12)
        assert flags["summability_partial"] > 0
        assert flags["prefix_all_le_one_sixth"] is False

    def test_dd_materialization(self):
        g = GammaSequence.constant("1/6")
        v = g.gamma(1, "dd")
        assert isinstance(v, DoubleDouble)
        assert abs(v.to_fraction() - Fraction(1, 6)) < Fraction(1, 6) / 2 ** 100

    def test_auto_mode_resolution(self):
        g = GammaSequence.constant("1/6")
        assert g.resolve_mode(4, "auto") == "double"
        assert g.resolve_mode(20, "auto") == "dd"
        with pytest.raises(DomainError):
            g.resolve_mode(4, "quad")


class TestBranchWord:
    def test_validation(self):
        with pytest.raises(DomainError):
            BranchWord("")
        with pytest.raises(DomainError):
            BranchWord("LX")
        assert len(BranchWord.leftmost(5)) == 5
        assert sum(1 for _ in BranchWord.all_words(4)) == 16


class TestBranchValue:
    def test_right_endpoint_is_zero(self, gamma_sixth):
        # t = 1 forces the innermost argument to 0, and u(0) = 0
        assert cp.branch_value(gamma_sixth, "L", 1.0) == 0.0

    def test_left_endpoint_at_quarter(self, gamma_quarter):
        assert cp.branch_value(gamma_quarter, "L", -1.0) == 0.5

    @pytest.mark.parametrize("n", range(1, 21))
    def test_all_left_word_matches_cosine_form(self, gamma_quarter, n):
        got = cp.branch_value(gamma_quarter, "L" * n, -1.0)
        want = math.sin(math.pi / 2 ** (n + 1)) ** 2  # = (1 - cos(pi/2^n)) / 2
        assert abs(got - want) <= 4 * np.finfo(float).eps * want

    def test_parameter_validation(self, gamma_sixth):
        with pytest.raises(DomainError):
            cp.branch_value(gamma_sixth, "L", 1.5)

    def test_value_lies_in_addressed_interval(self, gamma_periodic):
        for word in ("LRL", "RRL", "LLR"):
            iv = cp.basic_interval(gamma_periodic, word)
            for t in (-0.7, 0.0, 0.3, 1.0):
                assert iv.contains(cp.branch_value(gamma_periodic, word, t))


class TestBasicInterval:
    def test_level_one_quarter(self, gamma_quarter):
        iv = cp.basic_interval(gamma_quarter, "L")
        assert (iv.lo, iv.hi) == (0.0, 0.5)

    def test_reflection_symmetry(self, gamma_periodic):
        left = cp.basic_interval(gamma_periodic, "L")
        right = cp.basic_interval(gamma_periodic, "R")
        assert right.lo == 1.0 - left.hi
        assert right.hi == 1.0 - left.lo

    def test_left_left_quarter(self, gamma_quarter):
        iv = cp.basic_interval(gamma_quarter, "LL")
        assert iv.lo == 0.0
        assert iv.hi == pytest.approx(0.146446609, abs=1e-9)

    def test_nesting_and_disjointness(self, gamma_sixth):
        for n in range(1, 6):
            parents = level_intervals(gamma_sixth, n - 1)
            children = level_intervals(gamma_sixth, n)
            assert len(children) == 2 ** n
            for i in range(len(children) - 1):
                assert children[i].hi < children[i + 1].lo
            for child in children:
                assert any(p.contains_interval(child) for p in parents)

    def test_word_extension_nests(self, gamma_periodic):
        for word in ("L", "RL", "LRL"):
            outer = cp.basic_interval(gamma_periodic, word)
            for letter in "LR":
                inner = cp.basic_interval(gamma_periodic, word + letter)
                assert outer.contains_interval(inner)
                assert inner.length < outer.length

    def test_endpoint_inheritance(self, gamma_sixth):
        # left endpoint of each odd child and right endpoint of each even
        # child reproduce the parent endpoints exactly
        for n in range(0, 5):
            parents = level_intervals(gamma_sixth, n)
            children = level_intervals(gamma_sixth, n + 1)
            for j, parent in enumerate(parents):
                assert children[2 * j].lo == parent.lo
                assert children[2 * j + 1].hi == parent.hi

    def test_gaps_are_parent_complements(self, gamma_sixth):
        for n in range(0, 4):
            parents = level_intervals(gamma_sixth, n)
            children = level_intervals(gamma_sixth, n + 1)
            gaps = level_gaps(gamma_sixth, n)
            assert len(gaps) == 2 ** n
            for j, (lo, hi) in enumerate(gaps):
                assert lo == children[2 * j].hi
                assert hi == children[2 * j + 1].lo
                assert parents[j].lo < lo < hi < parents[j].hi

    def test_degenerate_gaps_at_quarter(self, gamma_quarter):
        for lo, hi in level_gaps(gamma_quarter, 1):
            assert lo == hi

    def test_largest_gap_sixth(self, gamma_sixth):
        ivs = level_intervals(gamma_sixth, 1)
        assert largest_gap(gamma_sixth, 1) == pytest.approx(
            float(ivs[1].lo) - float(ivs[0].hi))

    def test_interval_validation(self):
        with pytest.raises(DomainError):
            Interval(0.5, 0.5)


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
            iv = level_intervals(gamma_periodic, s)[0]
            assert cp.leftmost_length(gamma_periodic, s) == pytest.approx(
                float(iv.length), rel=1e-14)

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
            assert isinstance(l, DoubleDouble)
            assert l.to_fraction() >= d
            assert float(l) <= PI_SQ_4 * float(d)

    def test_auto_mode_escalates(self, gamma_sixth):
        assert isinstance(cp.leftmost_length(gamma_sixth, 20, "auto"), DoubleDouble)
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
            cp.branch_value(gamma_periodic, w, 0.0) for w in BranchWord.all_words(n)
        )
        assert np.allclose(vals, scalars, rtol=0, atol=0)

    def test_dd_mode_agrees_with_double(self, gamma_sixth):
        vals_d = sorted(all_branch_values(gamma_sixth, 5, -1.0))
        vals_dd = sorted(float(v) for v in all_branch_values(gamma_sixth, 5, -1.0, "dd"))
        assert np.allclose(vals_d, vals_dd, rtol=0, atol=1e-15)
