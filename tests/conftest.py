"""Shared fixtures and independent oracles for the test suite."""

from fractions import Fraction

import numpy as np
import pytest

import cantorpoly as cp


def chebyshev_zeros_unit(m: int) -> np.ndarray:
    """Zeros of the degree-2^m Chebyshev polynomial mapped onto [0, 1].

    Independent closed form: (1 + cos((2j - 1) pi / 2^(m+1))) / 2.
    """
    n = 2 ** m
    j = np.arange(1, n + 1)
    return np.sort((1.0 + np.cos((2.0 * j - 1.0) * np.pi / (2.0 * n))) / 2.0)


def mpmath_critical_points(gamma, n: int, dps: int = 60) -> list:
    """The 2^n - 1 critical points of F_n as sorted mpmath numbers.

    Independent reference: {1/2} and the zeros of levels 1..n-1, each
    level from its own doubling of u(t) = 2t / (1 + sqrt(1 - 4t)) at dps
    digits, merged by sorting.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = dps

    def g(k):
        return mp.mpf(gamma.value(k).numerator) / gamma.value(k).denominator

    def u(t):
        return 2 * t / (1 + mp.sqrt(1 - 4 * t))

    points = [mp.mpf(1) / 2]
    for m in range(1, n):
        v = [u(g(m) / 2)]
        for k in range(m - 1, 0, -1):
            v = [u(g(k) * y) for y in v] + [u(g(k) * (1 - y)) for y in v]
        points += v + [1 - y for y in v]
    return sorted(points)


def worst_relative_error(values, reference) -> float:
    """max |v - r| / r over the pairs, with each value read from its string."""
    assert len(values) == len(reference)
    return float(max(abs(type(r)(str(v)) - r) / r for v, r in zip(values, reference)))


def chebyshev_min_gap(m: int) -> float:
    """Smallest consecutive-zero gap of the unit-interval Chebyshev zeros.

    Product-to-sum form: the edge pair attains sin(pi/2^(m+1)) sin(pi/2^m).
    """
    n = 2 ** m
    return float(np.sin(np.pi / (2 * n)) * np.sin(np.pi / n))


@pytest.fixture(scope="session")
def gamma_quarter():
    return cp.GammaSequence.constant(Fraction(1, 4))


@pytest.fixture(scope="session")
def gamma_sixth():
    return cp.GammaSequence.constant(Fraction(1, 6))


@pytest.fixture(scope="session")
def gamma_periodic():
    return cp.GammaSequence.periodic([Fraction(1, 6), Fraction(1, 5)])


@pytest.fixture(scope="session")
def fam_quarter(gamma_quarter):
    return cp.MapFamily(gamma_quarter)


@pytest.fixture(scope="session")
def fam_sixth(gamma_sixth):
    return cp.MapFamily(gamma_sixth)


@pytest.fixture(scope="session")
def fam_periodic(gamma_periodic):
    return cp.MapFamily(gamma_periodic)


@pytest.fixture(scope="session")
def jacobi_sixth_small(fam_sixth):
    """Certified coefficients for gamma = 1/6 up to degree 16."""
    return cp.jacobi_for_gamma(fam_sixth, 16)


@pytest.fixture(scope="session")
def jacobi_quarter_small(fam_quarter):
    return cp.jacobi_for_gamma(fam_quarter, 16)
