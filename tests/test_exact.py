"""Map family, monic polynomials, exact zeros, and critical sets."""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

import cantorpoly as cp
from cantorpoly.errors import DomainError, RangeOverflowError
from cantorpoly.exact import ZeroSet, exact_zero_scalars
from cantorpoly.geometry import level_intervals

from conftest import chebyshev_zeros_unit

EPS = np.finfo(float).eps


class TestMapFamily:
    def test_leading_and_subleading(self, fam_sixth):
        assert fam_sixth.lead(1) == 12.0
        assert fam_sixth.lead(2) == 3.0
        assert fam_sixth.subleading(1) == -12.0
        assert fam_sixth.subleading(2) == 0.0
        assert fam_sixth.subleading(7) == 0.0

    def test_tau_recursion(self, fam_periodic):
        for m in range(1, 7):
            g = float(fam_periodic.gamma.value(m + 1))
            assert fam_periodic.tau(m + 1) == pytest.approx(
                fam_periodic.tau(m) ** 2 / (2.0 * g), rel=1e-14)

    def test_even_maps_critical_at_zero(self, fam_periodic):
        # numerical derivative of f_n at 0 vanishes for n >= 2
        h = 1e-7
        for n in (2, 3, 5):
            der = (fam_periodic.f(n, h) - fam_periodic.f(n, -h)) / (2 * h)
            assert abs(der) < 1e-12
        der1 = (fam_periodic.f(1, 0.5 + h) - fam_periodic.f(1, 0.5 - h)) / (2 * h)
        assert abs(der1) < 1e-6


class TestEvaluateF:
    def test_fixed_points(self, fam_sixth, fam_quarter):
        assert cp.evaluate_F(fam_sixth, 1, 0.0) == 1.0
        assert cp.evaluate_F(fam_quarter, 1, 0.5) == -1.0
        assert cp.evaluate_F(fam_quarter, 2, 0.0) == 1.0

    def test_bounded_on_basic_intervals(self, fam_periodic):
        for n in range(1, 6):
            for iv in level_intervals(fam_periodic.gamma, n):
                for z in np.linspace(float(iv.lo), float(iv.hi), 7):
                    assert abs(cp.evaluate_F(fam_periodic, n, z)) <= 1.0 + 1e-9

    def test_overflow_reported(self, fam_sixth):
        with pytest.raises(RangeOverflowError):
            cp.evaluate_F(fam_sixth, 64, 5.0)

    def test_bad_depth(self, fam_sixth):
        with pytest.raises(DomainError):
            cp.evaluate_F(fam_sixth, 0, 0.1)


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
        tau1 = fam_periodic.tau(1)
        for z in rng.uniform(-0.3, 1.3, 10):
            p2 = cp.monic_opoly_exact(fam_periodic, 1, z)
            expected = p2 * p2 - (1.0 - 2.0 * g2) / tau1 ** 2
            assert cp.monic_opoly_exact(fam_periodic, 2, z) == pytest.approx(
                expected, rel=1e-13, abs=1e-18)

    def test_equals_scaled_F(self, fam_sixth):
        rng = np.random.default_rng(6)
        for m in (1, 2, 3, 4):
            tau = fam_sixth.tau(m)
            for z in rng.uniform(0.0, 1.0, 5):
                assert cp.monic_opoly_exact(fam_sixth, m, z) == pytest.approx(
                    cp.evaluate_F(fam_sixth, m, z) / tau, rel=1e-12, abs=1e-300)

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
                cp.branch_value(fam_periodic.gamma, w, t)
                for w in cp.BranchWord.all_words(m - 1)
            )
        assert np.allclose(sorted(pulled), cp.exact_zeros(fam_periodic, m).points,
                           rtol=0, atol=1e-15)

    def test_one_zero_per_basic_interval(self, fam_sixth):
        for m in range(1, 7):
            zs = cp.exact_zeros(fam_sixth, m)
            for iv in level_intervals(fam_sixth.gamma, m):
                inside = np.sum((zs.points >= iv.lo) & (zs.points <= iv.hi))
                assert inside == 1

    def test_residuals_within_scaled_tolerance(self, fam_periodic):
        for m in range(1, 9):
            zs = cp.exact_zeros(fam_periodic, m)
            res = np.abs(cp.monic_opoly_exact(fam_periodic, m, zs.points))
            grid = 0.5 * (1.0 + np.cos(np.arange(2 ** m + 1) * math.pi / 2 ** m))
            scale = max(1.0, float(np.max(np.abs(cp.monic_opoly_exact(fam_periodic, m, grid)))))
            assert float(res.max()) <= 2 ** m * EPS * scale

    def test_dd_mode_scalars(self, fam_sixth):
        pts = exact_zero_scalars(fam_sixth, 3, "dd")
        assert len(pts) == 8
        floats = cp.exact_zeros(fam_sixth, 3).points
        assert np.allclose([float(p) for p in pts], floats, atol=1e-15)

    def test_dd_scalars_sorted_exactly(self):
        # at gamma = 0.02, m = 11 neighbouring dd zeros share a double
        # rounding, so ordering them by float leaves pairs reversed
        fam = cp.MapFamily(cp.GammaSequence.constant("0.02"))
        pts = exact_zero_scalars(fam, 11, "dd")
        assert len(pts) == 2 ** 11
        assert all(x < y for x, y in zip(pts, pts[1:]))

    def test_zero_set_validation(self):
        with pytest.raises(DomainError):
            ZeroSet(degree=2, points=np.array([0.5, 0.2]), provenance="exact-branch")
        with pytest.raises(DomainError):
            ZeroSet(degree=2, points=np.array([0.2, 1.5]), provenance="exact-branch")
        with pytest.raises(DomainError):
            ZeroSet(degree=2, points=np.array([0.2, 0.5]), provenance="guess")


class TestCriticalSet:
    def test_level_one(self, fam_sixth):
        ys = cp.critical_set(fam_sixth, 1)
        assert list(ys.points) == [0.5]

    def test_level_two_quarter(self, fam_quarter):
        ys = cp.critical_set(fam_quarter, 2)
        assert np.allclose(ys.points, [0.14644660940672624, 0.5, 0.8535533905932737],
                           atol=1e-15)

    def test_cardinality(self, fam_periodic):
        for n in range(1, 7):
            assert cp.critical_set(fam_periodic, n).points.size == 2 ** n - 1

    def test_zero_sets_nest_in_critical_sets(self, fam_sixth):
        for n in range(2, 6):
            ys = cp.critical_set(fam_sixth, n)
            for k in range(1, n):
                zk = cp.exact_zeros(fam_sixth, k)
                assert cp.set_distance(zk, ys) == 0.0

    def test_critical_points_avoid_level_set(self, fam_sixth):
        for n in range(1, 6):
            ys = cp.critical_set(fam_sixth, n)
            for y in ys.points:
                assert not any(iv.contains(y)
                               for iv in level_intervals(fam_sixth.gamma, n))

    def test_map_values_exceed_one_at_critical_points(self, fam_sixth):
        for n in range(1, 6):
            for y in cp.critical_set(fam_sixth, n).points:
                assert abs(cp.evaluate_F(fam_sixth, n, y)) > 1.0
