"""Acceptance suite: every top-level criterion at its stated tolerance.

Each test prints one PASS line once its assertions have held; run with
``pytest tests/test_acceptance.py -v -s`` to see them inline. The heavy
artifacts (full degree sweeps to 256) are session fixtures shared across
criteria.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import cantorpoly as cp
from cantorpoly.spacing import spacing_report

from conftest import chebyshev_zeros_unit
from reference import (branch_separation_chain, critical_set, eigen_zeros, gauss_measure,
                       interlacing_at_most_one, refinement_measure, stieltjes_lanczos)

SWEEP_DEGREE = 256


def _announce(num, label):
    print(f"criterion {num} ({label}): PASS")


def _sweep(fam):
    J = cp.jacobi_for_gamma(fam, SWEEP_DEGREE)
    report = spacing_report(fam, J, range(2, SWEEP_DEGREE + 1), c=Fraction(1, 6))
    # the zero sets criteria 05 and 06 read, degrees 2..128
    zeros = {n: eigen_zeros(J, n) for n in range(2, SWEEP_DEGREE // 2 + 1)}
    return {"fam": fam, "J": J, "zeros": zeros, "report": report}


@pytest.fixture(scope="session")
def sweep_sixth(fam_sixth):
    return _sweep(fam_sixth)


@pytest.fixture(scope="session")
def sweep_periodic(fam_periodic):
    return _sweep(fam_periodic)


@pytest.fixture(scope="session")
def jacobi_quarter_64(fam_quarter):
    return cp.jacobi_for_gamma(fam_quarter, 64)


def test_criterion_01_chebyshev_zero_oracle(fam_quarter, jacobi_quarter_64):
    for n in range(1, 11):
        zs = cp.exact_zeros(fam_quarter, n)
        assert np.max(np.abs(zs.points - chebyshev_zeros_unit(n))) <= 1e-12
    for n in range(1, 7):
        zs = eigen_zeros(jacobi_quarter_64, 2 ** n)
        assert np.max(np.abs(zs.points - chebyshev_zeros_unit(n))) <= 1e-9
    _announce(1, "Chebyshev closed-form zeros, exact to 1e-12 and eigensolve to 1e-9")


def test_criterion_02_jacobi_recovery(fam_quarter):
    measure = refinement_measure(fam_quarter, 8, 0.0)
    J = stieltjes_lanczos(measure, 33)
    assert np.max(np.abs(J.b[:32] - 0.5)) <= 1e-10
    assert abs(J.a[0] - math.sqrt(1.0 / 8.0)) <= 1e-10
    assert np.max(np.abs(J.a[1:32] - 0.25)) <= 1e-10
    _announce(2, "recurrence coefficients at depth 8 match the affine Chebyshev form")


def test_criterion_03_two_sided_sweep(sweep_sixth, sweep_periodic):
    for sweep in (sweep_sixth, sweep_periodic):
        report = sweep["report"]
        assert len(report.rows) == SWEEP_DEGREE - 1
        failures = [r.n for r in report.rows if not r.pass_eq1]
        assert failures == []
        assert all(r.margin_lo >= 1.0 and r.margin_hi >= 1.0 for r in report.rows)
    _announce(3, "delta_{s+2} <= M_n <= (pi^2/4) delta_{s-2} for all 2 <= n <= 256, both sequences")


def test_criterion_04_uniform_c_sweep(sweep_sixth, sweep_periodic):
    for sweep in (sweep_sixth, sweep_periodic):
        failures = [r.n for r in sweep["report"].rows if not r.pass_eq2]
        assert failures == []
    _announce(4, "c^2 delta_s <= M_n <= (pi^2/(4c^2)) delta_s for all 2 <= n <= 256, both sequences")


def test_criterion_05_interlacing_suite(sweep_sixth, sweep_periodic):
    for sweep in (sweep_sixth, sweep_periodic):
        zeros = sweep["zeros"]
        for r in range(3, 65):
            for s in range(2, r):
                assert interlacing_at_most_one(zeros[s], zeros[r])
    _announce(5, "at-most-one interlacing for all 2 <= s < r <= 64, both sequences")


def test_criterion_06_distance_bound_every_triple(sweep_sixth, sweep_periodic):
    for sweep in (sweep_sixth, sweep_periodic):
        result = cp.full_verification(sweep["fam"], sweep["J"], n_max=SWEEP_DEGREE,
                                      c=Fraction(1, 6))
        [entry] = [e for e in result.entries if e.check == "interlacing_distance_bound"]
        assert entry.passed and entry.lhs == 0.0 and entry.detail["violations"] == []
        assert entry.detail["max_degree"] == SWEEP_DEGREE
        assert entry.detail["cases"] == math.comb(SWEEP_DEGREE - 1, 3)
        assert entry.detail["worst_ratio"] < 1.0
    _announce(6, "d(Z_l, Z_m) <= M_n for every triple l > m > n > 1, l <= 256, both sequences")


def test_criterion_07_critical_containment(fam_sixth, fam_periodic):
    for fam in (fam_sixth, fam_periodic):
        for k in range(1, 6):
            y = critical_set(fam, 1 + k)
            z = cp.exact_zeros(fam, 1 + k)
            for k_prime in range(k):
                z_small = cp.exact_zeros(fam, 1 + k_prime)
                gap = max(
                    float(np.min(np.abs(y.points - z))) for z in z_small.points
                )
                assert gap <= 1e-12
                assert cp.set_distance(z, y) <= cp.set_distance(z, z_small)
    _announce(7, "zero sets nest in critical sets to 1e-12 and d(Z,Y) <= d(Z,Z'), k <= 5")


def test_criterion_08_branch_chain_random_instances():
    rng = np.random.default_rng(8675309)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        values = rng.uniform(0.02, 0.2499, size=n)
        gamma = cp.GammaSequence.from_list([Fraction(v) for v in values])
        fam = cp.MapFamily(gamma)
        word = "".join(rng.choice(["L", "R"], size=n))
        gn = float(gamma.value(n))
        for t_tilde in (0.0, gn):
            res = branch_separation_chain(fam, word, t_tilde)
            assert res["ok"], (word, t_tilde, values)
    _announce(8, "separation chain holds on 1000 random (word, level, gamma) instances")


def test_criterion_09_leftmost_length_bounds(gamma_sixth, gamma_periodic):
    PI_SQ_4 = math.pi ** 2 / 4.0
    sequences = (gamma_sixth, gamma_periodic, cp.GammaSequence.constant("0.24"))
    for gamma in sequences:
        for s in range(0, 25):
            d = gamma.delta_fraction(s)
            l = cp.leftmost_length(gamma, s)  # in level s's precision, decimal once d < 1e-12
            assert Fraction(l) >= d
            assert float(l) <= PI_SQ_4 * float(d)
    _announce(9, "delta_s <= l_{1,s} <= (pi^2/4) delta_s for s <= 24, three sequences, "
              "each level in its own precision")


def test_criterion_10_gauss_self_consistency(sweep_sixth):
    J = sweep_sixth["J"]
    for r in (4, 8, 16):
        rule = gauss_measure(J, r)
        back = stieltjes_lanczos(rule, r)
        assert np.max(np.abs(back.b[: r - 1] - J.b[: r - 1])) <= 1e-12
        assert np.max(np.abs(back.a[: r - 1] - J.a[: r - 1])) <= 1e-12
    _announce(10, "re-recovered coefficients from the r-point Gauss rule match for k < r")
