"""Map family, monic polynomials, exact zeros, and critical sets."""

import math
from dataclasses import fields
from decimal import Context, Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

import cantorpoly as cp
from cantorpoly.errors import DomainError, RangeOverflowError
from cantorpoly.exact import CriticalSet, ZeroSet, critical_order, exact_zero_ladder
from cantorpoly.geometry import branch_order, level_intervals

import reference as ref
from conftest import chebyshev_zeros_unit, mpmath_critical_points, worst_relative_error

EPS = np.finfo(float).eps


class TestMapFamily:
    def test_leading_and_subleading(self, fam_sixth):
        assert ref.lead(fam_sixth, 1) == 12.0
        assert ref.lead(fam_sixth, 2) == 3.0
        assert ref.subleading(fam_sixth, 1) == -12.0
        assert ref.subleading(fam_sixth, 2) == 0.0
        assert ref.subleading(fam_sixth, 7) == 0.0

    def test_tau_recursion(self, fam_periodic):
        for m in range(1, 7):
            g = float(fam_periodic.gamma.value(m + 1))
            assert ref.tau(fam_periodic, m + 1) == pytest.approx(
                ref.tau(fam_periodic, m) ** 2 / (2.0 * g), rel=1e-14)

    def test_even_maps_critical_at_zero(self, fam_periodic):
        # numerical derivative of f_n at 0 vanishes for n >= 2
        h = 1e-7
        for n in (2, 3, 5):
            der = (ref.f(fam_periodic, n, h) - ref.f(fam_periodic, n, -h)) / (2 * h)
            assert abs(der) < 1e-12
        der1 = (ref.f(fam_periodic, 1, 0.5 + h) - ref.f(fam_periodic, 1, 0.5 - h)) / (2 * h)
        assert abs(der1) < 1e-6


class TestEvaluateF:
    def test_fixed_points(self, fam_sixth, fam_quarter):
        assert ref.evaluate_F(fam_sixth, 1, 0.0) == 1.0
        assert ref.evaluate_F(fam_quarter, 1, 0.5) == -1.0
        assert ref.evaluate_F(fam_quarter, 2, 0.0) == 1.0

    def test_bounded_on_basic_intervals(self, fam_periodic):
        for n in range(1, 6):
            for lo, hi in level_intervals(fam_periodic.gamma, n):
                for z in np.linspace(float(lo), float(hi), 7):
                    assert abs(ref.evaluate_F(fam_periodic, n, z)) <= 1.0 + 1e-9

    def test_overflow_reported(self, fam_sixth):
        with pytest.raises(RangeOverflowError):
            ref.evaluate_F(fam_sixth, 64, 5.0)

    def test_bad_depth(self, fam_sixth):
        with pytest.raises(DomainError):
            ref.evaluate_F(fam_sixth, 0, 0.1)


class TestMonicExact:
    def test_degree_two_closed_form(self, fam_sixth):
        g1 = 1.0 / 6.0
        for z in np.linspace(-0.5, 1.5, 11):
            assert cp.monic_opoly_exact(fam_sixth, 1, z) == pytest.approx(
                z * z - z + g1 / 2.0, rel=1e-15, abs=1e-15)

    def test_degree_four_composition_identity(self, fam_periodic):
        # P_4 = P_2^2 - (1 - 2 gamma_2) / tau_1^2, checked at random points
        rng = np.random.default_rng(5)
        g2 = float(fam_periodic.gamma.value(2))
        tau1 = ref.tau(fam_periodic, 1)
        for z in rng.uniform(-0.3, 1.3, 10):
            p2 = cp.monic_opoly_exact(fam_periodic, 1, z)
            expected = p2 * p2 - (1.0 - 2.0 * g2) / tau1 ** 2
            assert cp.monic_opoly_exact(fam_periodic, 2, z) == pytest.approx(
                expected, rel=1e-13, abs=1e-18)

    def test_equals_scaled_F(self, fam_sixth):
        rng = np.random.default_rng(6)
        for m in (1, 2, 3, 4):
            tau = ref.tau(fam_sixth, m)
            for z in rng.uniform(0.0, 1.0, 5):
                assert cp.monic_opoly_exact(fam_sixth, m, z) == pytest.approx(
                    ref.evaluate_F(fam_sixth, m, z) / tau, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_chebyshev_identity_at_extrema(self, fam_quarter, m):
        # scaled classic Chebyshev polynomial at the mapped extrema grid
        n = 2 ** m
        grid = 0.5 * (1.0 + np.cos(np.arange(n + 1) * math.pi / n))
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        classic = npcheb.chebval(2.0 * grid - 1.0, coeffs)
        want = classic * 2.0 ** (1 - 2 * n)  # monic normalization then 2^-n scale
        got = cp.monic_opoly_exact(fam_quarter, m, grid)
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_monic_leading_coefficient(self, fam_sixth, m):
        # divided difference of order 2^m over a cosine-spaced grid
        n = 2 ** m
        grid = 0.5 * (1.0 + np.cos(np.arange(n + 1) * math.pi / n))
        table = cp.monic_opoly_exact(fam_sixth, m, grid).astype(float)
        xs = grid.copy()
        for order in range(1, n + 1):
            table = (table[1:] - table[:-1]) / (xs[order:] - xs[:-order])
        assert table[0] == pytest.approx(1.0, rel=1e-10)


class TestExactZeros:
    def test_level_one_quarter(self, fam_quarter):
        zs = cp.exact_zeros(fam_quarter, 1)
        want = [(1.0 - math.sqrt(0.5)) / 2.0, (1.0 + math.sqrt(0.5)) / 2.0]
        assert np.allclose(zs.points, want, atol=1e-15)
        assert np.allclose(zs.points, chebyshev_zeros_unit(1), atol=1e-15)

    def test_level_one_sixth(self, fam_sixth):
        zs = cp.exact_zeros(fam_sixth, 1)
        r = math.sqrt(2.0 / 3.0)
        assert np.allclose(zs.points, [(1.0 - r) / 2.0, (1.0 + r) / 2.0], atol=1e-15)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_chebyshev_cosine_oracle(self, fam_quarter, m):
        zs = cp.exact_zeros(fam_quarter, m)
        assert np.max(np.abs(zs.points - chebyshev_zeros_unit(m))) < 1e-12

    def test_matches_quadratic_root_pullback(self, fam_periodic):
        # same points as pulling the two roots of the top map through the
        # one-level-shallower branches
        m = 4
        gm = float(fam_periodic.gamma.value(m))
        r = math.sqrt(1.0 - 2.0 * gm)
        pulled = []
        for t in (r, -r):
            pulled.extend(
                ref.branch_value(fam_periodic.gamma, w, t)
                for w in ref.words(m - 1)
            )
        assert np.allclose(sorted(pulled), cp.exact_zeros(fam_periodic, m).points,
                           rtol=0, atol=1e-15)

    def test_one_zero_per_basic_interval(self, fam_sixth):
        for m in range(1, 7):
            zs = cp.exact_zeros(fam_sixth, m)
            for lo, hi in level_intervals(fam_sixth.gamma, m):
                inside = np.sum((zs.points >= lo) & (zs.points <= hi))
                assert inside == 1

    def test_residuals_within_scaled_tolerance(self, fam_periodic):
        for m in range(1, 9):
            zs = cp.exact_zeros(fam_periodic, m)
            res = np.abs(cp.monic_opoly_exact(fam_periodic, m, zs.points))
            grid = 0.5 * (1.0 + np.cos(np.arange(2 ** m + 1) * math.pi / 2 ** m))
            scale = max(1.0, float(np.max(np.abs(cp.monic_opoly_exact(fam_periodic, m, grid)))))
            assert float(res.max()) <= 2 ** m * EPS * scale

    def test_dd_mode_scalars(self, fam_sixth):
        pts = cp.exact_zeros(fam_sixth, 3, "dd").values
        assert len(pts) == 8
        floats = cp.exact_zeros(fam_sixth, 3).points
        assert np.allclose([float(p) for p in pts], floats, atol=1e-15)

    def test_dd_scalars_sorted_exactly(self):
        # at gamma = 0.02, m = 11 neighbouring dd zeros share a double
        # rounding, so ordering them by float leaves pairs reversed
        fam = cp.MapFamily(cp.GammaSequence.constant("0.02"))
        pts = cp.exact_zeros(fam, 11, "dd").values
        assert len(pts) == 2 ** 11
        assert all(x < y for x, y in zip(pts, pts[1:]))
        # in auto mode the set keeps its dd values from m = 10 on, where the
        # top zero (1 - 5.2e-18) rounds to 1.0 and neighbours tie in double
        for m in (10, 11, 12):
            pts = cp.exact_zeros(fam, m, "auto").values
            assert len(pts) == 2 ** m
            assert all(x < y for x, y in zip(pts, pts[1:]))
            assert pts[0] > 0.0 and pts[-1] < 1.0
            with localcontext(Context(prec=100)):  # exact sums
                worst = max(abs(x + y - 1) for x, y in zip(pts, reversed(pts)))
            assert worst <= Decimal("1e-30"), m

    def test_tiny_gamma_needs_more_than_34_digits(self):
        # at gamma = 0.001, m = 12 neighbouring zeros lie 1e-33 apart within
        # 1e-36 of 0 and 1; the precision rule gives 52 digits there
        fam = cp.MapFamily(cp.GammaSequence.constant("0.001"))
        assert fam.gamma.context(12).prec == 52
        zs = cp.exact_zeros(fam, 12, "auto")
        pts = zs.values
        assert len(pts) == 2 ** 12
        assert all(x < y for x, y in zip(pts, pts[1:]))
        with localcontext(Context(prec=100)):  # exact differences
            assert 0 < pts[0] < Decimal("1e-36") and 0 < 1 - pts[-1] < Decimal("1e-36")
            assert min(y - x for x, y in zip(pts, pts[1:])) > Decimal("1e-33")

    def test_zero_set_validation(self):
        with pytest.raises(DomainError):
            ZeroSet(degree=2, values=np.array([0.5, 0.2]), provenance="exact-branch")
        with pytest.raises(DomainError):
            ZeroSet(degree=2, values=np.array([0.2, 1.5]), provenance="exact-branch")
        with pytest.raises(DomainError):
            ZeroSet(degree=2, values=np.array([0.2, 0.5]), provenance="guess")
        # with dd values present, order and range are checked on them
        lo, hi = Decimal("0.2"), Decimal("0.5")
        with pytest.raises(DomainError):
            ZeroSet(degree=2, values=(hi, lo), provenance="exact-branch")
        with pytest.raises(DomainError):
            ZeroSet(degree=2, values=(lo, Decimal(1)), provenance="exact-branch")
        # a double view that ties or touches 1 is fine when the dd values are not
        ZeroSet(degree=2, values=(Decimal("0.99999999999999999998"),
                                  Decimal("0.99999999999999999999")), provenance="exact-branch")


class TestBranchOrder:
    """Branch values over several parameters are placed in order, not sorted."""

    @pytest.mark.parametrize("desc", ["constant:1/6", "constant:1/4", "periodic:2/9,1/4",
                                      "list:1/4,1/1000"])
    def test_placement_is_the_sort(self, desc):
        gamma = cp.GammaSequence.from_descriptor(desc)
        ts = (-0.9, -0.25, 0.0, 0.5, 0.75)
        for n in range(1, 6):
            table = cp.geometry.branch_value_table(gamma, n, ts)
            placed = branch_order(table)
            assert placed.tolist() == sorted(table.ravel().tolist()), n
            assert np.all(placed[1:] > placed[:-1]), n

    def test_one_column_is_the_gray_order(self, fam_sixth):
        table = cp.geometry.branch_value_table(fam_sixth.gamma, 4, (0.0,))
        i = np.arange(16)
        assert np.array_equal(branch_order(table), table[i ^ (i >> 1), 0])


class TestCriticalSet:
    def test_level_one(self, fam_sixth):
        ys = ref.critical_set(fam_sixth, 1)
        assert list(ys.points) == [0.5]

    def test_level_two_quarter(self, fam_quarter):
        ys = ref.critical_set(fam_quarter, 2)
        assert np.allclose(ys.points, [0.14644660940672624, 0.5, 0.8535533905932737],
                           atol=1e-15)

    def test_cardinality(self, fam_periodic):
        for n in range(1, 7):
            assert ref.critical_set(fam_periodic, n).points.size == 2 ** n - 1

    def test_zero_sets_nest_in_critical_sets(self, fam_sixth):
        for n in range(2, 6):
            ys = ref.critical_set(fam_sixth, n)
            for k in range(1, n):
                zk = cp.exact_zeros(fam_sixth, k)
                assert cp.set_distance(zk, ys) == 0.0

    def test_levels_share_the_deepest_precision(self):
        # at gamma = 0.02 levels 1..7 are double and 8..10 dd in auto mode;
        # the critical set of level 11 computes all of 1..10 in level 10's
        # precision (a double level promoted to 34 digits is off by ~1e-16)
        gamma = cp.GammaSequence.constant("0.02")
        fam = cp.MapFamily(gamma)
        zero_sets = [cp.exact_zeros(fam, k, "auto") for k in range(1, 11)]
        assert [zs.values.dtype == object for zs in zero_sets] == [False] * 7 + [True] * 3
        ys = ref.critical_set(fam, 11, "auto")
        assert ys.values.dtype == object
        assert worst_relative_error(ys.values, mpmath_critical_points(gamma, 11)) <= 1e-30
        levels = exact_zero_ladder(fam, 10, depth=10)
        assert ys == CriticalSet.from_zero_sets(levels)
        assert np.array_equal(ys.points, [float(v) for v in ys.values])
        # the shared dd levels are the ones exact_zeros gives
        assert [list(zs.values) for zs in levels[7:]] == [list(zs.values) for zs in zero_sets[7:]]
        with pytest.raises(DomainError, match="one precision"):
            CriticalSet.from_zero_sets(zero_sets)
        with pytest.raises(DomainError):
            CriticalSet.from_zero_sets(levels[1:])

    @pytest.mark.parametrize("desc, n", [("constant:1/4", 9), ("constant:1/6", 10),
                                         ("constant:0.1", 10), ("periodic:1/5,1/6", 10),
                                         ("periodic:2/9,1/4", 9), ("constant:0.001", 8)])
    def test_placement_is_the_sorted_union(self, desc, n):
        # where every level shares one precision, placing the levels by
        # interlacing gives the sorted union exactly
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
        levels = exact_zero_ladder(fam, n - 1, depth=n - 1)
        ys = CriticalSet.from_zero_sets(levels)
        if levels[0].values.dtype != object:
            want = np.sort(np.concatenate([[0.5]] + [zs.points for zs in levels]))
            assert np.array_equal(ys.points, want) and ys.values.dtype == float
        else:
            want = sorted([Decimal("0.5")] + [v for zs in levels for v in zs.values])
            assert list(ys.values) == want
        assert ys == ref.critical_set(fam, n)

    def test_missing_or_misordered_level_raises(self, fam_periodic):
        levels = exact_zero_ladder(fam_periodic, 5)
        assert CriticalSet.from_zero_sets(levels).level == 6
        for bad in (levels[1:], levels[:2] + levels[3:], [levels[1], levels[0]] + levels[2:]):
            with pytest.raises(DomainError):
                CriticalSet.from_zero_sets(bad)
        # a level of the right size in the wrong place breaks the interlacing
        shifted = ZeroSet(degree=8, values=levels[2].points * 0.5, provenance="exact-branch")
        with pytest.raises(DomainError, match="strictly increasing"):
            CriticalSet.from_zero_sets(levels[:2] + [shifted] + levels[3:])

    def test_critical_order_positions(self):
        # 1-based position 2^nu (2i + 1) holds point i of level n - 1 - nu
        levels = [np.array([0.5]), np.array([0.2, 0.8]), np.array([0.1, 0.3, 0.7, 0.9])]
        assert list(critical_order(levels)) == [0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9]
        assert critical_order(levels).dtype == float
        assert list(critical_order([["c"], ["b", "d"]])) == ["b", "c", "d"]

    def test_working_view_built_once(self):
        fam = cp.MapFamily(cp.GammaSequence.constant("0.02"))
        zs = cp.exact_zeros(fam, 9, "auto")
        ys = ref.critical_set(fam, 9, "auto")
        for s in (zs, ys):
            assert s.values is s.values
            assert s.values.dtype == object and not s.values.flags.writeable
            assert np.array_equal(s.points, [float(v) for v in s.values])
            assert "values" not in repr(s)
        double = cp.exact_zeros(fam, 3)
        assert double.values is double.points

    def test_sets_compare_by_values(self):
        # levels 3 and 4 are double and 9 is extended at gamma = 0.02
        fam = cp.MapFamily(cp.GammaSequence.constant("0.02"))
        for m in (3, 9):
            assert cp.exact_zeros(fam, m) == cp.exact_zeros(fam, m)
            assert ref.critical_set(fam, m) == ref.critical_set(fam, m)
        assert cp.exact_zeros(fam, 3) != cp.exact_zeros(fam, 4)
        other = cp.MapFamily(cp.GammaSequence.constant("0.03"))
        assert cp.exact_zeros(fam, 9) != cp.exact_zeros(other, 9)
        # a zero set and a critical set are never equal, nor hashable
        assert cp.exact_zeros(fam, 2) != ref.critical_set(fam, 2)
        with pytest.raises(TypeError):
            hash(cp.exact_zeros(fam, 3))

    def test_critical_points_avoid_level_set(self, fam_sixth):
        for n in range(1, 6):
            ys = ref.critical_set(fam_sixth, n)
            for y in ys.points:
                assert not any(lo <= y <= hi
                               for lo, hi in level_intervals(fam_sixth.gamma, n))

    def test_map_values_exceed_one_at_critical_points(self, fam_sixth):
        for n in range(1, 6):
            for y in ref.critical_set(fam_sixth, n).points:
                assert abs(ref.evaluate_F(fam_sixth, n, y)) > 1.0


class TestOneStoredArray:
    """A point set stores its values once; points is their double view."""

    def test_extended_points_are_the_double_view(self):
        fam = cp.MapFamily(cp.GammaSequence.constant("0.02"))
        zs = cp.exact_zeros(fam, 12)
        assert zs.values.dtype == object and not zs.values.flags.writeable
        assert np.array_equal(zs.points, [float(v) for v in zs.values])
        assert zs.points.dtype == np.float64
        assert zs.points is zs.points
        with pytest.raises(ValueError):
            zs.values[0] = Decimal("0.5")
        # a double set's view is its values
        ds = cp.exact_zeros(fam, 6)
        assert ds.values.dtype == np.float64 and ds.points is ds.values

    def test_escalated_only_on_decimal_eigensolves(self):
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor("list:1/4,1/1000"))
        sets = cp.eigen_zero_sets(cp.jacobi_for_gamma(fam, 64), range(2, 65))
        assert [n for n, zs in sets.items() if zs.escalated] == [55, 63, 64]
        assert all(zs.values.dtype == object for zs in (sets[55], sets[63], sets[64]))
        # exact-branch sets are never escalated, double (1/6) or extended
        for desc in ("constant:1/6", "constant:0.02", "list:1/4,1/1000"):
            fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
            ladder = exact_zero_ladder(fam, 12)
            assert not any(zs.escalated for zs in ladder), desc
            assert ladder[-1].values.dtype == (float if desc == "constant:1/6" else object)

    def test_init_takes_only_the_values(self):
        assert [f.name for f in fields(ZeroSet) if f.init] == ["degree", "values", "provenance"]
        assert [f.name for f in fields(CriticalSet) if f.init] == ["level", "values"]
        with pytest.raises(TypeError):
            ZeroSet(degree=2, points=np.array([0.1, 0.2]), provenance="exact-branch")
        with pytest.raises(TypeError):
            ZeroSet(degree=2, values=np.array([0.1, 0.2]), provenance="exact-branch",
                    escalated=True)
        with pytest.raises(TypeError):
            ZeroSet(degree=2, values=np.array([0.1, 0.2]), provenance="exact-branch",
                    min_gap=(0.1, 0))

    def test_critical_set_makes_one_ordering_pass(self, monkeypatch):
        calls = []
        real = cp.exact.critical_order

        def counting(levels):
            calls.append(len(levels))
            return real(levels)

        monkeypatch.setattr(cp.exact, "critical_order", counting)
        for desc in ("constant:1/6", "constant:0.02"):
            fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
            levels = exact_zero_ladder(fam, 10, depth=10)
            calls.clear()
            ys = CriticalSet.from_zero_sets(levels)
            assert calls == [11], desc
            assert ys.values.dtype == levels[0].values.dtype

    def test_no_other_module_names_the_double_double_stub(self):
        package = Path(cp.__file__).parent
        for path in sorted(package.glob("*.py")):
            if path.name != "ddouble.py":
                text = path.read_text()
                assert "ddouble" not in text and "DoubleDouble" not in text, path.name
