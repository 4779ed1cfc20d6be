"""Coefficient recovery, eigensolves, and Gauss measures."""

import ctypes
import math
import os
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import cantorpoly as cp
from cantorpoly import jacobi
from cantorpoly.errors import ConvergenceError, DomainError, RangeOverflowError
from cantorpoly.geometry import level_intervals
from cantorpoly.jacobi import (_HalfSizeSolver, _eigvals_bisect_decimal, _gershgorin_prefix,
                               _spectrum)

from conftest import chebyshev_zeros_unit, read_jacobi_csv
from reference import (DiscreteMeasure, eigen_zeros, gauss_measure, moments, opoly_eval,
                       refinement_measure, sign_alternation_ok, stieltjes_lanczos)


class TestRefinementMeasure:
    def test_depth_one_matches_exact_zeros(self, fam_periodic):
        m = refinement_measure(fam_periodic, 1, 0.0)
        zs = cp.exact_zeros(fam_periodic, 1)
        assert np.allclose(m.nodes, zs.points, atol=0)
        assert np.allclose(m.weights, [0.5, 0.5], atol=0)

    @pytest.mark.parametrize("N", [2, 4, 6])
    def test_chebyshev_nodes(self, fam_quarter, N):
        m = refinement_measure(fam_quarter, N, 0.0)
        assert np.max(np.abs(m.nodes - chebyshev_zeros_unit(N))) < 1e-13
        assert np.allclose(m.weights, 2.0 ** -N)

    def test_nodes_populate_every_interval(self, fam_sixth):
        m = refinement_measure(fam_sixth, 3, 0.5)
        assert len(m) == 8
        for lo, hi in level_intervals(fam_sixth.gamma, 3):
            assert np.sum((m.nodes >= lo) & (m.nodes <= hi)) == 1

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.7])
    def test_target_outside_open_interval_rejected(self, fam_sixth, bad):
        with pytest.raises(DomainError):
            refinement_measure(fam_sixth, 3, bad)

    def test_measure_validation(self):
        with pytest.raises(DomainError):
            DiscreteMeasure(np.array([0.2, 0.1]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            DiscreteMeasure(np.array([0.1, 0.2]), np.array([0.6, 0.6]))


class TestStieltjesLanczos:
    def test_two_point_closed_form(self):
        m = DiscreteMeasure(np.array([0.3, 0.7]), np.array([0.5, 0.5]))
        J = stieltjes_lanczos(m, 2)
        assert J.b[0] == pytest.approx(0.5, abs=1e-15)
        assert J.a[0] == pytest.approx(0.2, abs=1e-15)
        assert J.b[1] == pytest.approx(0.5, abs=1e-15)

    def test_first_coefficient_is_mean(self, fam_periodic):
        m = refinement_measure(fam_periodic, 5, 0.0)
        J = stieltjes_lanczos(m, 1)
        assert J.b[0] == pytest.approx(float(m.nodes @ m.weights), abs=1e-15)

    def test_chebyshev_coefficients(self, fam_quarter):
        m = refinement_measure(fam_quarter, 8, 0.0)
        J = stieltjes_lanczos(m, 33)
        assert np.max(np.abs(J.b - 0.5)) < 1e-13
        assert abs(J.a[0] - math.sqrt(1.0 / 8.0)) < 1e-13
        assert np.max(np.abs(J.a[1:] - 0.25)) < 1e-13

    def test_reproduces_gauss_rule_at_full_length(self, fam_quarter):
        m = refinement_measure(fam_quarter, 3, 0.0)
        J = stieltjes_lanczos(m, 8)
        rule = gauss_measure(J, 8)
        assert np.allclose(rule.nodes, m.nodes, atol=1e-12)
        assert np.allclose(rule.weights, m.weights, atol=1e-12)

    def test_k_larger_than_node_count_rejected(self, fam_sixth):
        m = refinement_measure(fam_sixth, 2, 0.0)
        with pytest.raises(DomainError):
            stieltjes_lanczos(m, 5)


def _needs(K: int) -> list:
    """The entry count of each level of ``jacobi_for_gamma``, level 1 first."""
    needs = [K - 1]
    while needs[-1] > 1:
        needs.append(needs[-1] // 2)
    return needs


def _reference_levels(fam, K: int, one) -> list:
    """Every level's c of ``jacobi_for_gamma``, level 1 first, in the number
    type of one: exact with Fraction(1), rounded to its precision with an
    mpmath 1."""
    needs, q, levels = _needs(K), [], []
    for k in range(len(needs), 0, -1):
        g = fam.gamma.value(k)
        g = one * g.numerator / g.denominator
        bp, s = (one / 4 - g / 2, g * g / 4) if k == 1 else (1 - 2 * g, 4 * g * g)
        c = [bp]
        for i in range(1, needs[k - 1]):
            c.append(s * q[i // 2] / c[-1] if i % 2 else bp - c[-1])
        q = c[: needs[k - 1]]
        levels.append(q)
    return levels[::-1]


def _reference_unfolding(fam, K: int, one) -> list:
    """The level-1 c_1..c_{K-1} of ``_reference_levels``."""
    return _reference_levels(fam, K, one)[0]


class TestJacobiForGamma:
    def test_chebyshev_certified(self, jacobi_quarter_small):
        J = jacobi_quarter_small
        assert J.b.size == 16
        assert np.max(np.abs(J.b - 0.5)) < 1e-10
        assert abs(J.a[0] - math.sqrt(1.0 / 8.0)) < 1e-10
        assert np.max(np.abs(J.a[1:] - 0.25)) < 1e-10

    def test_symmetry_gives_half(self, fam_periodic):
        J = cp.jacobi_for_gamma(fam_periodic, 1)
        assert J.b[0] == pytest.approx(0.5, abs=1e-12)

    def test_cross_module_zero_consistency(self, fam_sixth, jacobi_sixth_small):
        got = eigen_zeros(jacobi_sixth_small, 4).points
        want = cp.exact_zeros(fam_sixth, 2).points
        assert np.max(np.abs(got - want)) < 1e-9

    def test_chebyshev_bit_exact(self, fam_quarter):
        # at gamma = 1/4 every level constant is a power of two, so the
        # unfolding reproduces the affine Chebyshev recurrence exactly
        J = cp.jacobi_for_gamma(fam_quarter, 1024)
        assert J.b.size == 1024
        assert J.a[0] == math.sqrt(1.0 / 8.0)
        assert np.all(J.a[1:] == 0.25)
        assert np.all(J.b == 0.5)

    @pytest.mark.parametrize("desc", ["constant:1/6", "periodic:1/6,1/5", "periodic:2/9,1/4",
                                      "constant:0.05", "constant:0.02",
                                      "list:1/4,1/1000", "list:1/4,1/4,1/1000"])
    def test_eigenvalues_match_exact_zeros(self, desc):
        # the dd branch values, rounded once, are the oracle: at gamma = 0.02
        # the double-mode exact_zeros cannot represent the top zero at m = 10
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
        J = cp.jacobi_for_gamma(fam, 1024)
        for m in range(1, 11):
            n = 2 ** m
            got = np.linalg.eigvalsh(np.diag(J.b[:n]) + np.diag(J.a[: n - 1], 1)
                                     + np.diag(J.a[: n - 1], -1))
            want = cp.exact_zeros(fam, m, "dd").points
            assert np.max(np.abs(got - want)) <= 1e-14, m

    @pytest.mark.parametrize("N", [6, 8, 10])
    def test_agrees_with_lanczos_on_refinement_measure(self, fam_sixth, fam_periodic, N):
        K = 2 ** (N - 2)
        for fam in (fam_sixth, fam_periodic):
            lanczos = stieltjes_lanczos(refinement_measure(fam, N, 0.0), K)
            J = cp.jacobi_for_gamma(fam, K)
            assert np.max(np.abs(J.a - lanczos.a)) <= 1e-12
            assert np.max(np.abs(J.b - lanczos.b)) <= 1e-12

    @pytest.mark.parametrize("K", [1, 2, 3, 7, 64, 100, 512])
    def test_prefix_stable(self, fam_periodic, K):
        short, long = cp.jacobi_for_gamma(fam_periodic, K), cp.jacobi_for_gamma(fam_periodic, 2 * K)
        assert np.array_equal(short.a, long.a[: K - 1])
        assert np.array_equal(short.b, long.b[:K])

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["list", "periodic"]),
           values=st.lists(st.one_of(
               st.sampled_from([Fraction(1, 4), Fraction(1, 4) - Fraction(1, 10 ** 12),
                                Fraction(1, 10 ** 3), Fraction(1, 10 ** 6),
                                Fraction(1, 10 ** 12)]),
               st.fractions(Fraction(1, 100), Fraction(1, 4), max_denominator=10 ** 6)),
               min_size=1, max_size=6))
    def test_valid_gamma_gives_coefficients(self, kind, values):
        # gamma_k = 1/4 right above a tiny gamma_{k+1} cancels bp_k - c_{2n};
        # the unfolding adds digits until every enclosure resolves
        fam = cp.MapFamily(cp.GammaSequence(kind, tuple(values)))
        J = cp.jacobi_for_gamma(fam, 1024)
        assert np.all(np.isfinite(J.a)) and np.all((J.a > 0) & (J.a < 1))
        assert np.all(J.b == 0.5)

    @pytest.mark.parametrize("desc,K", [
        pytest.param(desc, K, id=desc) for desc, K in [
            ("periodic:1/1000000,1/4", 1024), ("list:1/4,1/1000", 1024),
            ("periodic:1/4,1/6", 1024), ("constant:1/6", 1024),
            # 50 digits do not pin these to one double; 100 do
            ("periodic:1/4,1/1000000", 4096), ("periodic:1/4,1/100000000", 1024),
            ("list:1/4,1/100000000", 64), ("periodic:1/1000000000000,1/4", 1024)]])
    def test_matches_mpmath_unfolding(self, desc, K):
        # the same recursion at 2000 bits: every a_k is the double square root
        # of the correctly rounded c_k, bit for bit
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.prec = 2000
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
        want = np.sqrt([float(c) for c in _reference_unfolding(fam, K, mp.mpf(1))])
        assert np.array_equal(cp.jacobi_for_gamma(fam, K).a, want)

    @pytest.mark.parametrize("desc", ["constant:1/6", "list:1/4,1/1000", "periodic:1/4,1/1000000",
                                      "periodic:1/1000000000000,1/4"])
    def test_enclosures_contain_exact_unfolding(self, desc):
        # the recursion in exact rationals: every 50-digit [lo, hi] of every level holds its c
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
        lo, hi, unresolved = jacobi._unfold(fam.gamma, _needs(512), 50)
        assert unresolved is None
        exact = _reference_levels(fam, 512, Fraction(1))
        assert len(lo) == len(hi) == len(exact) == len(_needs(512))
        for lo_k, hi_k, exact_k in zip(lo, hi, exact):
            assert all(Fraction(x) <= c <= Fraction(y)
                       for x, y, c in zip(lo_k, hi_k, exact_k, strict=True))

    def test_digit_cap_raises_arithmetic_error(self, monkeypatch):
        # gamma = 1e-12 under 1/4 cancels more than 50 digits at level 2,
        # which 100 digits resolve; capped at 50, the unfolding gives up there
        fam = cp.MapFamily(cp.GammaSequence.periodic([Fraction(1, 10 ** 12), Fraction(1, 4)]))
        monkeypatch.setattr(jacobi, "_UNFOLD_MAX_DIGITS", 50)
        with pytest.raises(ArithmeticError, match="level 2 .* at 50 digits"):
            cp.jacobi_for_gamma(fam, 1024)

    def test_underflowing_coefficient_raises_range_overflow(self):
        # gamma_2 = 1e-100 drives c_171 below the smallest double; the
        # enclosure resolves at 800 digits and the square root would be 0
        fam = cp.MapFamily(cp.GammaSequence.periodic([Fraction(1, 4), Fraction(1, 10 ** 100)]))
        with pytest.raises(RangeOverflowError, match="c_171 at level 1"):
            cp.jacobi_for_gamma(fam, 1024)

    def test_jacobi_csv_roundtrip(self, jacobi_sixth_small):
        back = read_jacobi_csv(jacobi_sixth_small.to_csv())
        assert np.array_equal(back.a, jacobi_sixth_small.a)
        assert np.array_equal(back.b, jacobi_sixth_small.b)

    def test_matrix_validation(self):
        with pytest.raises(DomainError):
            cp.JacobiMatrix(np.array([-0.1]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            cp.JacobiMatrix(np.array([0.1]), np.array([0.5, 1.5]))
        with pytest.raises(DomainError):
            cp.JacobiMatrix(np.array([0.1, 0.2]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            cp.JacobiMatrix(np.array([np.nan]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            cp.JacobiMatrix(np.array([0.1]), np.array([0.5, np.nan]))


class TestOpolyEval:
    def test_base_cases(self, jacobi_sixth_small):
        J = jacobi_sixth_small
        assert opoly_eval(J, 0, 0.37) == 1.0
        assert opoly_eval(J, 1, 0.37) == pytest.approx(0.37 - J.b[0], abs=1e-16)

    def test_matches_exact_dyadic(self, fam_quarter, jacobi_quarter_small):
        rng = np.random.default_rng(17)
        xs = rng.uniform(0.0, 1.0, 20)
        for m in (1, 2, 3, 4):
            got = np.array([opoly_eval(jacobi_quarter_small, 2 ** m, x) for x in xs])
            want = cp.monic_opoly_exact(fam_quarter, m, xs)
            scale = float(np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 1e-8 * scale

    def test_degree_beyond_certification_rejected(self, jacobi_sixth_small):
        with pytest.raises(DomainError):
            opoly_eval(jacobi_sixth_small, 17, 0.3)


@pytest.fixture(scope="module", params=["fam_sixth", "fam_periodic"])
def fam_jacobi_256(request):
    fam = request.getfixturevalue(request.param)
    return fam, cp.jacobi_for_gamma(fam, 256)


class TestEigenZeros:
    def test_single_degree(self, jacobi_sixth_small):
        zs = eigen_zeros(jacobi_sixth_small, 1)
        assert zs.points[0] == jacobi_sixth_small.b[0]

    def test_two_by_two_quadratic_oracle(self):
        # P_2(x) = (x - 1/2)^2 - a_1^2 on b = (1/2, 1/2), so its zeros are 1/2 -+ a_1
        J = cp.JacobiMatrix(np.array([0.21]), np.array([0.5, 0.5]))
        assert np.allclose(eigen_zeros(J, 2).points, [0.5 - 0.21, 0.5 + 0.21], atol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_chebyshev_cosine_oracle(self, jacobi_quarter_small, fam_quarter, m):
        if 2 ** m > jacobi_quarter_small.b.size:
            J = cp.jacobi_for_gamma(fam_quarter, 64)
        else:
            J = jacobi_quarter_small
        zs = eigen_zeros(J, 2 ** m)
        assert np.max(np.abs(zs.points - chebyshev_zeros_unit(m))) < 1e-12

    def test_against_lapack(self, jacobi_sixth_small):
        for n in (2, 5, 9, 16):
            ours = eigen_zeros(jacobi_sixth_small, n).points
            lapack = eigh_tridiagonal(jacobi_sixth_small.b[:n],
                                      jacobi_sixth_small.a[:n - 1],
                                      eigvals_only=True)
            assert np.max(np.abs(ours - np.sort(lapack))) < 1e-12

    def test_sign_alternation(self, jacobi_sixth_small):
        for n in (2, 7, 16):
            zs = eigen_zeros(jacobi_sixth_small, n)
            assert sign_alternation_ok(jacobi_sixth_small, zs)

    def test_spectrum_inside_support_hull(self, jacobi_sixth_small):
        for n in (3, 8, 16):
            zs = eigen_zeros(jacobi_sixth_small, n)
            assert zs.points[0] > 0.0 and zs.points[-1] < 1.0

    def test_double_double_escalation(self):
        # a pair split by ~5e-16 around 0.5 inside a wide spectrum: its
        # bidiagonal [[1e-8, 0], [0.4, 1e-8]] has the singular values 0.4
        # and 2.5e-16, below double resolution, so the decimal re-run must kick in
        J = cp.JacobiMatrix(np.array([1e-8, 0.4, 1e-8]), np.full(4, 0.5))
        zs = eigen_zeros(J, 4)
        assert zs.escalated
        assert zs.values.dtype == object
        gap = cp.min_spacing(zs)
        assert 0.0 < gap < 1e-14

    def test_provenance(self, jacobi_sixth_small):
        assert eigen_zeros(jacobi_sixth_small, 4).provenance == "eigensolve"

    @pytest.mark.parametrize("m", [6, 8])
    def test_matches_exact_dyadic_zeros(self, fam_jacobi_256, m):
        fam, J = fam_jacobi_256
        zs = eigen_zeros(J, 2 ** m)
        assert not zs.escalated
        assert np.max(np.abs(zs.points - cp.exact_zeros(fam, m).points)) <= 1e-14

    def test_strictly_ascending(self, fam_jacobi_256):
        _, J = fam_jacobi_256
        for n in range(2, 65):
            assert np.all(np.diff(eigen_zeros(J, n).points) > 0), n


class TestTowerDescent:
    """Degree 2^j m, m odd, solves T^(j+1)_m and pulls its eigenvalues back through F_j."""

    @pytest.fixture(scope="class", params=["constant:1/6", "constant:1/4", "constant:0.05",
                                           "periodic:2/9,1/4"])
    def fam_jacobi_128(self, request):
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor(request.param))
        return fam, cp.jacobi_for_gamma(fam, 128)

    @staticmethod
    def _full_size(J, n):
        # the oracle: a dense symmetric eigensolve of J_n itself, at level 1
        return np.linalg.eigvalsh(np.diag(J.b[:n]) + np.diag(J.a[: n - 1], -1))

    def test_matches_full_size_eigvalsh(self, fam_jacobi_128):
        _, J = fam_jacobi_128
        for n, zs in cp.eigen_zero_sets(J, range(2, 129)).items():
            assert not zs.escalated, n
            assert np.max(np.abs(zs.points - self._full_size(J, n))) <= 1e-13, n

    def test_dyadic_degrees_are_the_exact_zeros(self, fam_jacobi_128):
        # m = 1: no solve, the branch values at t = 0, bit for bit
        fam, J = fam_jacobi_128
        sets = cp.eigen_zero_sets(J, [2 ** m for m in range(1, 8)])
        for m in range(1, 8):
            want = cp.exact_zeros(fam, m).values
            assert sets[2 ** m].values.dtype == want.dtype == float
            assert sets[2 ** m].values.tobytes() == want.tobytes(), m

    def test_every_level_is_correctly_rounded(self, fam_jacobi_128):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 200
        fam, J = fam_jacobi_128
        levels = _reference_levels(fam, 128, mp.mpf(1))
        assert len(J.deeper) == len(levels) - 1 == 6
        assert np.array_equal(J.a, np.sqrt([float(c) for c in levels[0]]))
        for k, (got, want) in enumerate(zip(J.deeper, levels[1:]), start=2):
            assert np.array_equal(got, [float(c) for c in want]), k

    def test_quarter_within_the_closed_form(self, fam_quarter):
        # a gamma_k = 1/4 pullback amplifies the error of t near -1: 7.0e-15 at n = 210
        sets = cp.eigen_zero_sets(cp.jacobi_for_gamma(fam_quarter, 256), range(2, 257))
        for n, zs in sets.items():
            want = np.sort((1 + np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n))) / 2)
            assert np.max(np.abs(zs.points - want)) <= 1e-14, n

    def test_shorter_tower_solves_one_level_up(self, fam_jacobi_128):
        # without level 3, degree 12 solves T^(2)_6; by hand, level 1 alone
        fam, J = fam_jacobi_128
        short = cp.JacobiMatrix(J.a, J.b, fam.gamma, J.deeper[:1])
        by_hand = cp.JacobiMatrix(J.a, J.b)
        for Jx in (short, by_hand):
            for n, zs in cp.eigen_zero_sets(Jx, range(2, 129)).items():
                assert np.max(np.abs(zs.points - self._full_size(J, n))) <= 1e-13, n
        assert jacobi._tower_step(short, 12) == (1, 6)
        assert jacobi._tower_step(short, 16) == (4, 1)
        assert jacobi._tower_step(by_hand, 16) == (0, 16)
        assert jacobi._tower_step(J, 96) == (5, 3)

    def test_tower_validation(self, fam_jacobi_128):
        fam, J = fam_jacobi_128
        with pytest.raises(DomainError, match="need the gamma"):
            cp.JacobiMatrix(J.a, J.b, None, J.deeper)
        with pytest.raises(DomainError, match="level 3 needs 31"):
            cp.JacobiMatrix(J.a, J.b, fam.gamma, (J.deeper[0], J.deeper[1][:-1]))
        with pytest.raises(DomainError, match="level 2 .* in \\[0, 1\\]"):
            cp.JacobiMatrix(J.a, J.b, fam.gamma, (-J.deeper[0],))


class TestHalfSizeSplit:
    """A constant diagonal is solved from a bidiagonal with floor(n/2) columns."""

    SIZES = [2, 3, 4, 5, 6, 7, 15, 16, 63, 64, 100, 127, 128, 129, 254, 255]

    @pytest.fixture(scope="class", params=["constant:1/6", "constant:1/4", "constant:0.05",
                                           "periodic:1/5,2/9"])
    def jacobi_255(self, request):
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor(request.param))
        return cp.jacobi_for_gamma(fam, 255)

    def test_matches_independent_lapack_driver(self, jacobi_255):
        J = jacobi_255
        for n in self.SIZES:
            zs = eigen_zeros(J, n)
            assert not zs.escalated, n
            want = eigh_tridiagonal(J.b[:n], J.a[: n - 1], eigvals_only=True)
            assert np.max(np.abs(zs.points - np.sort(want))) <= 4e-15, n

    def test_odd_degree_middle_zero_is_the_diagonal(self, jacobi_255):
        J = jacobi_255
        for n in (n for n in self.SIZES if n % 2):
            assert eigen_zeros(J, n).points[n // 2] == J.b[0], n

    def test_near_degenerate_pair_escalates(self):
        # two 2x2 blocks with eigenvalues 0.5 +- 0.3, coupled by 1e-16
        J = cp.JacobiMatrix(np.array([0.3, 1e-16, 0.3]), np.full(4, 0.5))
        zs = eigen_zeros(J, 4)
        assert zs.escalated
        assert zs.values.dtype == object
        assert np.allclose(zs.points, [0.2, 0.2, 0.8, 0.8], atol=1e-15)


def _dense_slice_zeros(J, n):
    """Zeros of P_n from numpy.linalg.svd of the dense half-size block B_n."""
    m = n // 2
    e = J.a[: n - 1]
    B = np.zeros((n - m, m))
    B[np.arange(m), np.arange(m)] = e[0::2]
    B[np.arange(1, n - m), np.arange(n - m - 1)] = e[1::2]
    sigma = np.linalg.svd(B, compute_uv=False) if m else np.empty(0)
    mid = J.b[:1] if n % 2 else J.b[:0]
    return np.concatenate([J.b[0] - sigma, mid, J.b[0] + sigma[::-1]])


class TestDqdsKernel:
    """The half-size solve: dqds on the two diagonals of the bidiagonal."""

    EPS = np.finfo(float).eps

    @pytest.fixture(scope="class", params=["constant:1/6", "constant:1/4", "periodic:1/6,1/5",
                                           "constant:0.02", "list:1/4,1/1000"])
    def jacobi_1024(self, request):
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor(request.param))
        return request.param, cp.jacobi_for_gamma(fam, 1024)

    def test_matches_dense_svd(self, jacobi_1024):
        _, J = jacobi_1024
        half = _HalfSizeSolver(J.a)
        for n in range(1, 1025):
            got = _spectrum(J.b[0], half.sigma(n) if n > 1 else np.empty(0), n)
            assert np.max(np.abs(got - _dense_slice_zeros(J, n))) <= 32 * self.EPS, n

    def test_matches_decimal_bisection(self, jacobi_1024):
        # on list:1/4,1/1000 the zero near 2.5e-4 of P_43 is 1/2 - sigma with
        # sigma near 1/2, so it carries sigma's relative error, a small
        # multiple of m eps for dqds: 12.6 eps there (the dense SVD: 9 eps)
        desc, J = jacobi_1024
        bound = (16 if desc == "list:1/4,1/1000" else 4) * self.EPS
        half = _HalfSizeSolver(J.a[:63])
        lo, hi = _gershgorin_prefix(J.b[:64], J.a[:63])
        for n in range(2, 65):
            want = np.asarray(_eigvals_bisect_decimal(J.b[:n], J.a[: n - 1], lo[n - 2], hi[n - 2]),
                              dtype=float)
            got = _spectrum(J.b[0], half.sigma(n), n)
            assert np.max(np.abs(got - want)) <= bound, n


class TestDqdsLookup:
    """dlasq1 is found in numpy's LAPACK, and the dense SVD stands in where it is not."""

    def test_wheel_lapack_provides_dlasq1(self):
        # the fast path relies on numpy's wheels linking scipy-openblas,
        # whose ILP64 symbols include dlasq1; a change of that layout must
        # fail here rather than fall back silently to the dense SVD
        try:
            lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
        except (TypeError, KeyError):
            pytest.skip("numpy does not report its LAPACK")
        if lapack != "scipy-openblas":
            pytest.skip(f"numpy links {lapack}, not the wheel's scipy-openblas")
        assert jacobi._DLASQ1 is not None

    def test_fallback_gives_the_same_report(self, monkeypatch):
        fam = cp.MapFamily(cp.GammaSequence.constant(Fraction(1, 6)))
        J = cp.jacobi_for_gamma(fam, 64)
        fast = cp.spacing_report(fam, J, range(2, 65), Fraction(1, 6))
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        monkeypatch.setattr(jacobi, "_DLASQ1", None)
        slow = cp.spacing_report(fam, J, range(2, 65), Fraction(1, 6))
        assert len(calls) == 63 - 6  # the six dyadic degrees solve nothing
        for f, s in zip(fast.rows, slow.rows, strict=True):
            assert (f.n, f.pass_eq1, f.pass_eq2) == (s.n, s.pass_eq1, s.pass_eq2)
            assert abs(f.m_n - s.m_n) <= 1e-12 * f.m_n, f.n

    def test_nonzero_info_raises(self, monkeypatch):
        def failing(n_ptr, d_ptr, e_ptr, work_ptr, info_ptr):
            ctypes.c_int64.from_address(info_ptr).value = 1

        monkeypatch.setattr(jacobi, "_DLASQ1", failing)
        J = cp.jacobi_for_gamma(cp.MapFamily(cp.GammaSequence.constant(Fraction(1, 6))), 8)
        # degree 7 solves at level 1 and degree 6 at level 2; degree 8 solves nothing
        for n in (6, 7):
            with pytest.raises(ConvergenceError, match=f"at degree {n}"):
                eigen_zeros(J, n)


def _same_zero_set(a, b) -> bool:
    return (a.degree == b.degree and a.provenance == b.provenance
            and a.escalated == b.escalated and np.array_equal(a.values, b.values)
            and a.points.dtype == b.points.dtype and a.points.tobytes() == b.points.tobytes())


class TestEigenZeroSets:
    """The batched eigensolve gives every degree the set it gets on its own."""

    DEGREES = [64, 3, 2, 255, 17, 64, 128, 1, 3, 200]

    @staticmethod
    def _check(J, degrees):
        got = cp.eigen_zero_sets(J, degrees)
        assert list(got) == sorted(set(degrees))
        for n, zs in got.items():
            assert _same_zero_set(zs, eigen_zeros(J, n)), n
        return got

    @pytest.mark.parametrize("desc", ["constant:1/6", "constant:1/4", "periodic:1/5,1/6",
                                      "constant:0.05"])
    def test_jacobi_for_gamma(self, desc):
        J = cp.jacobi_for_gamma(cp.MapFamily(cp.GammaSequence.from_descriptor(desc)), 255)
        self._check(J, self.DEGREES)
        self._check(J, range(2, 256))

    def test_non_constant_diagonal(self):
        # only a constant diagonal is solved; the error names the first b_k that differs
        J = cp.jacobi_for_gamma(cp.MapFamily(cp.GammaSequence.constant(Fraction(1, 6))), 255)
        b = 0.5 + 0.01 * np.sin(np.arange(255.0) + 1.0)
        with pytest.raises(DomainError, match="diagonal b_2 = .* differs from b_1"):
            cp.eigen_zero_sets(cp.JacobiMatrix(0.95 * J.a, b), self.DEGREES)

    def test_constant_run_then_varying_diagonal(self):
        # only the truncations asked for are checked: degrees inside the
        # constant leading run are solved, and a batch past it raises
        J = cp.jacobi_for_gamma(cp.MapFamily(cp.GammaSequence.constant(Fraction(1, 6))), 255)
        b = np.full(255, 0.5)
        b[40:] += 0.01 * np.sin(np.arange(215.0) + 1.0)
        varying = cp.JacobiMatrix(0.95 * J.a, b)
        got = self._check(varying, [n for n in self.DEGREES if n <= 40] + [40])
        assert got[17].points[8] == 0.5
        for degrees in (self.DEGREES + [40, 41], [41]):
            with pytest.raises(DomainError, match="b_41 "):
                cp.eigen_zero_sets(varying, degrees)

    def test_escalated_degree_in_a_batch(self):
        J = cp.JacobiMatrix(np.array([0.3, 1e-16, 0.3]), np.full(4, 0.5))
        got = self._check(J, [4, 2, 3, 4])
        assert got[4].escalated and not got[3].escalated

    def test_each_set_keeps_its_smallest_gap(self, monkeypatch):
        # the escalation test's gap pass is the only one: M_n reads it back
        fam = cp.MapFamily(cp.GammaSequence.constant(Fraction(1, 6)))
        J = cp.jacobi_for_gamma(fam, 64)
        for n, zs in cp.eigen_zero_sets(J, range(1, 65)).items():
            if n == 1:
                assert zs.min_gap is None
                continue
            gaps = np.diff(zs.points)
            i = int(np.argmin(gaps))
            assert zs.min_gap == (float(gaps[i]), i) and isinstance(zs.min_gap[0], float)
        escalated = eigen_zeros(cp.JacobiMatrix(np.array([0.3, 1e-16, 0.3]), np.full(4, 0.5)), 4)
        assert escalated.escalated and escalated.min_gap is None
        assert escalated.smallest_gap() == cp.exact.min_gap_with_index(escalated.values)
        calls = []
        real = cp.exact.min_gap_with_index
        monkeypatch.setattr(cp.exact, "min_gap_with_index",
                            lambda pts: calls.append(pts.size) or real(pts))
        cp.spacing_report(fam, J, range(2, 65))
        assert sorted(calls) == [2, 4, 8, 16, 32, 64]  # the exact dyadic sets alone

    def test_gershgorin_prefix_is_each_truncation_alone(self):
        rng = np.random.default_rng(11)
        d = rng.uniform(0.2, 0.8, 40)
        e = rng.uniform(-0.3, 0.3, 39)
        lo, hi = _gershgorin_prefix(d, e)
        for n in range(2, 41):
            rad = np.zeros(n)
            rad[:-1] += np.abs(e[: n - 1])
            rad[1:] += np.abs(e[: n - 1])
            assert lo[n - 2] == np.min(d[:n] - rad) and hi[n - 2] == np.max(d[:n] + rad), n

    def test_degree_range(self, jacobi_sixth_small):
        assert cp.eigen_zero_sets(jacobi_sixth_small, []) == {}
        for bad in ([0, 4], [4, 17]):
            with pytest.raises(DomainError):
                cp.eigen_zero_sets(jacobi_sixth_small, bad)


class _ThreadRecorder:
    """Stands in for threading.Thread and keeps every thread it starts."""

    def __init__(self, monkeypatch):
        self.started = []
        recorder = self

        class Thread(threading.Thread):
            def start(self):
                recorder.started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Thread)

    def assert_all_joined(self):
        assert not any(t.is_alive() for t in self.started)


def _jacobi(desc, K):
    return cp.jacobi_for_gamma(cp.MapFamily(cp.GammaSequence.from_descriptor(desc)), K)


class TestThreadedSweep:
    """The dqds calls of one batch are split across the CPUs, bit for bit as on one."""

    @staticmethod
    def _on_cpus(monkeypatch, J, degrees, cpus):
        monkeypatch.setattr(jacobi, "_cpu_count", lambda: cpus)
        return cp.eigen_zero_sets(J, degrees)

    def _check_same(self, monkeypatch, J, degrees):
        serial = self._on_cpus(monkeypatch, J, degrees, 1)
        recorder = _ThreadRecorder(monkeypatch)
        threaded = self._on_cpus(monkeypatch, J, degrees, 3)
        assert len(recorder.started) == 2
        recorder.assert_all_joined()
        assert list(threaded) == list(serial)
        for n in serial:
            assert _same_zero_set(threaded[n], serial[n]), n
        return threaded

    @pytest.mark.parametrize("desc", ["constant:1/6", "constant:1/4", "periodic:1/6,1/5",
                                      "constant:0.02"])
    def test_threads_equal_one_thread(self, monkeypatch, desc):
        self._check_same(monkeypatch, _jacobi(desc, 256), range(2, 257))

    def test_constant_run_ending_inside_the_batch(self, monkeypatch):
        # the diagonal is checked before any solve, so such a batch starts no thread
        J = _jacobi("constant:1/6", 256)
        b = np.full(256, 0.5)
        b[200:] += 0.01 * np.sin(np.arange(56.0) + 1.0)
        varying = cp.JacobiMatrix(0.95 * J.a, b)
        recorder = _ThreadRecorder(monkeypatch)
        with pytest.raises(DomainError, match="b_201 "):
            self._on_cpus(monkeypatch, varying, range(2, 257), 3)
        assert recorder.started == []
        got = self._check_same(monkeypatch, varying, range(2, 201))
        assert got[199].points[99] == 0.5

    def test_escalated_degrees_from_threaded_solves(self, monkeypatch):
        monkeypatch.setattr(jacobi, "_THREAD_WORK", 0)
        got = self._check_same(monkeypatch, _jacobi("list:1/4,1/1000", 64), range(2, 65))
        assert {n for n, zs in got.items() if zs.escalated} == {55, 63, 64}

    def test_small_batches_start_no_thread(self, monkeypatch):
        recorder = _ThreadRecorder(monkeypatch)
        J = _jacobi("constant:1/6", 1024)
        self._on_cpus(monkeypatch, J, range(2, 65), 2)
        eigen_zeros(J, 1024)
        assert recorder.started == []

    def test_cpu_count_without_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert jacobi._cpu_count() == (os.cpu_count() or 1)

    def test_two_cpus_start_one_helper(self, monkeypatch):
        recorder = _ThreadRecorder(monkeypatch)
        self._on_cpus(monkeypatch, _jacobi("constant:1/6", 256), range(2, 257), 2)
        assert len(recorder.started) == 1
        recorder.assert_all_joined()

    def test_failure_names_the_serial_degree(self, monkeypatch):
        real = jacobi._DLASQ1
        if real is None:
            pytest.skip("numpy's LAPACK has no dlasq1")

        def failing_from_60(n_ptr, d_ptr, e_ptr, work_ptr, info_ptr):
            real(n_ptr, d_ptr, e_ptr, work_ptr, info_ptr)
            if ctypes.c_int64.from_address(n_ptr).value >= 60:
                ctypes.c_int64.from_address(info_ptr).value = 1

        monkeypatch.setattr(jacobi, "_DLASQ1", failing_from_60)
        J = _jacobi("constant:1/6", 256)
        with pytest.raises(ConvergenceError) as serial:
            self._on_cpus(monkeypatch, J, range(2, 257), 1)
        recorder = _ThreadRecorder(monkeypatch)
        with pytest.raises(ConvergenceError) as threaded:
            self._on_cpus(monkeypatch, J, range(2, 257), 3)
        assert len(recorder.started) == 2
        recorder.assert_all_joined()
        assert str(threaded.value) == str(serial.value)
        assert "degree 119" in str(serial.value)


class TestGaussMeasure:
    def test_rule_size_one(self, jacobi_sixth_small):
        rule = gauss_measure(jacobi_sixth_small, 1)
        assert rule.nodes[0] == jacobi_sixth_small.b[0]
        assert rule.weights[0] == 1.0

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_chebyshev_equal_weights(self, jacobi_quarter_small, m):
        rule = gauss_measure(jacobi_quarter_small, 2 ** m)
        assert np.max(np.abs(rule.weights - 2.0 ** -m)) < 1e-13

    def test_polynomial_exactness(self, jacobi_sixth_small):
        rng = np.random.default_rng(23)
        for r in (3, 6, 8):
            rule = gauss_measure(jacobi_sixth_small, r)
            mom = moments(jacobi_sixth_small, 2 * r - 1)
            coeffs = rng.uniform(-1.0, 1.0, 2 * r)
            want = float(coeffs @ mom)
            got = float(rule.weights @ np.polyval(coeffs[::-1], rule.nodes))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-14)

    def test_weights_positive_nodes_simple(self, jacobi_sixth_small):
        for r in (2, 5, 11, 16):
            rule = gauss_measure(jacobi_sixth_small, r)
            assert np.all(rule.weights > 0)
            assert np.all(np.diff(rule.nodes) > 0)

    def test_dyadic_rules_have_equal_weights(self, fam_jacobi_256):
        # at dyadic sizes the Gauss rule of mu_gamma puts mass 2^-m on the
        # one zero inside each level-m basic interval
        _, J = fam_jacobi_256
        for m in range(1, 9):
            rule = gauss_measure(J, 2 ** m)
            assert np.max(np.abs(rule.weights - 2.0 ** -m)) <= 1e-12, m

    def test_relanczos_self_consistency(self, jacobi_sixth_small):
        rule = gauss_measure(jacobi_sixth_small, 4)
        back = stieltjes_lanczos(rule, 4)
        assert np.max(np.abs(back.b[:3] - jacobi_sixth_small.b[:3])) < 1e-12
        assert np.max(np.abs(back.a[:3] - jacobi_sixth_small.a[:3])) < 1e-12


class TestMoments:
    def test_matches_direct_sum(self, fam_sixth):
        m = refinement_measure(fam_sixth, 4, 0.0)
        J = stieltjes_lanczos(m, 16)
        mom = moments(J, 9)
        direct = [float(m.weights @ m.nodes ** j) for j in range(10)]
        assert np.allclose(mom, direct, rtol=1e-12, atol=1e-15)

    def test_degree_cap(self, jacobi_sixth_small):
        with pytest.raises(DomainError):
            moments(jacobi_sixth_small, 2 * jacobi_sixth_small.b.size)

