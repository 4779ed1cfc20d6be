"""Spacing quantities, bound verification, and report assembly."""

import math
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cantorpoly as cp
from cantorpoly import exact, spacing
from cantorpoly.errors import DomainError
from cantorpoly.geometry import branch_value_table
from cantorpoly.spacing import SpacingRow, full_verification

from conftest import chebyshev_min_gap, chebyshev_zeros_unit
from reference import (branch_separation_chain, critical_set, eigen_zeros,
                       interlacing_at_most_one, verify_interlacing_bound,
                       verify_second_neighbor_bound, words)

PI_SQ_4 = math.pi ** 2 / 4.0


class TestMinSpacing:
    def test_simple(self):
        assert cp.min_spacing(np.array([0.2, 0.5, 0.6])) == pytest.approx(0.1)

    def test_two_zero_quadratic(self, fam_sixth):
        got = cp.min_spacing(cp.exact_zeros(fam_sixth, 1))
        assert got == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_chebyshev_minimum_gap_product_form(self, fam_quarter, m):
        zs = cp.exact_zeros(fam_quarter, m)
        direct = float(np.min(np.diff(chebyshev_zeros_unit(m))))
        assert cp.min_spacing(zs) == pytest.approx(chebyshev_min_gap(m), rel=1e-12)
        assert cp.min_spacing(zs) == pytest.approx(direct, rel=1e-12)

    def test_rejects_singletons(self):
        with pytest.raises(DomainError):
            cp.min_spacing(np.array([0.4]))


class TestSetDistance:
    def test_examples(self):
        assert cp.set_distance(np.array([0.1, 0.9]), np.array([0.5])) == pytest.approx(0.4)
        z = np.array([0.2, 0.7])
        assert cp.set_distance(z, z) == 0.0

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = np.sort(rng.uniform(0, 1, rng.integers(1, 12)))
            b = np.sort(rng.uniform(0, 1, rng.integers(1, 12)))
            brute = min(abs(x - y) for x in a for y in b)
            assert cp.set_distance(a, b) == pytest.approx(brute, abs=0)

    def test_dyadic_zero_vs_critical_closed_forms(self, fam_quarter):
        # degree 4 zeros against {1/2} union degree-2 zeros, all cosines
        z4 = chebyshev_zeros_unit(2)
        y4 = np.sort(np.concatenate([[0.5], chebyshev_zeros_unit(1)]))
        want = min(abs(x - y) for x in z4 for y in y4)
        got = cp.set_distance(cp.exact_zeros(fam_quarter, 2),
                              critical_set(fam_quarter, 2))
        assert got == pytest.approx(want, rel=1e-13)


class TestInterlacing:
    def test_detects_good_and_bad(self):
        big = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        assert interlacing_at_most_one(np.array([0.2, 0.6]), big)
        assert not interlacing_at_most_one(np.array([0.35, 0.45]), big)
        assert not interlacing_at_most_one(np.array([0.05, 0.5]), big)

    def test_consecutive_degrees(self, jacobi_sixth_small):
        for r in range(3, 17):
            zr = eigen_zeros(jacobi_sixth_small, r)
            for s in range(2, r):
                zs = eigen_zeros(jacobi_sixth_small, s)
                assert interlacing_at_most_one(zs, zr)


def _per_pair_violations(sets):
    """The reference: interlacing_at_most_one on every (s, r), r then s."""
    keys = sorted(sets)
    return [(s, r) for r in keys for s in keys
            if s < r and not interlacing_at_most_one(sets[s], sets[r])]


def _extended(values):
    # a ZeroSet whose working values are the given Decimals
    dd = tuple(Decimal(v) for v in values)
    return cp.ZeroSet(degree=len(dd), values=dd, provenance="eigensolve")


# a coarse grid forces ties and shared endpoints between the sets; the
# values outside [0, 1] put small points beyond the extreme big ones
_GRID = [i / 8 for i in range(-2, 11)]
_SORTED_SETS = st.lists(st.lists(st.sampled_from(_GRID), min_size=1, max_size=8, unique=True)
                        .map(sorted).map(np.array), min_size=2, max_size=6)


def _per_pair_distances(sets):
    """The reference: set_distance on every (s, r), s < r, at [r, s] by key position."""
    keys = sorted(sets)
    want = np.zeros((len(keys), len(keys)))
    for j, r in enumerate(keys):
        for i, s in enumerate(keys[:j]):
            want[j, i] = cp.set_distance(sets[s], sets[r])
    return want


class TestBatchedInterlacing:
    @settings(max_examples=300, deadline=None)
    @given(_SORTED_SETS, st.lists(st.sampled_from(_GRID[2:]), min_size=6, max_size=6))
    def test_matches_per_pair_reference(self, arrays, bounds):
        sets = {k: a for k, a in enumerate(arrays)}
        violations, dist = spacing._pair_pass(sets)
        assert violations == _per_pair_violations(sets)
        assert np.array_equal(dist, _per_pair_distances(sets))
        # a bound per smaller key: the same pairs break it
        pairs = [(s, r) for r in sets for s in range(r)]
        assert ([p for p in pairs if dist[p[1], p[0]] > bounds[p[0]]]
                == [p for p in pairs if cp.set_distance(sets[p[0]], sets[p[1]]) > bounds[p[0]]])

    def test_mixed_double_and_decimal_sets(self):
        # the Decimal points straddle 1/2 by 1e-40: in their double views
        # they tie, so (2, 3) and (3, 4) pass only when compared exactly
        with localcontext() as ctx:
            ctx.prec = 50
            eps = Decimal("1e-40")
            half = Decimal("0.5")
            sets = {
                2: _extended([half - eps, half + eps]),
                3: np.array([0.25, 0.5, 0.75]),
                4: _extended([Decimal("0.2"), half - 2 * eps, half + 2 * eps, Decimal("0.8")]),
            }
        want = _per_pair_violations(sets)
        assert want == [(2, 4)]
        violations, dist = spacing._pair_pass(sets)
        assert violations == want
        # one pass reads Decimal and double sets: the distances are formed
        # exactly, where the double views would give 0 for each pair
        assert np.array_equal(dist, _per_pair_distances(sets))
        assert (dist[1, 0], dist[2, 0], dist[2, 1]) == (1e-40, 1e-40, 2e-40)

    @pytest.mark.parametrize("desc", ["list:1/4,1/1000", "constant:0.01"])
    def test_full_verification_lists_every_violation(self, desc):
        # both inputs have known false violations at degree 64, and
        # list:1/4,1/1000 escalates degrees 55, 63 and 64 to Decimal
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
        J = cp.jacobi_for_gamma(fam, 64)
        result = full_verification(fam, J, n_max=64)
        entry = next(e for e in result.entries if e.check == "interlacing_at_most_one")
        sets = {r: eigen_zeros(J, r) for r in range(2, 65)}
        want = _per_pair_violations(sets)
        assert want
        assert entry.lhs == len(want)
        assert spacing._pair_pass(sets)[0] == want
        assert entry.detail["violations"] == want[:20]


class TestRunLocalCache:
    @staticmethod
    def _count_branch_passes(monkeypatch):
        # every binding that reaches a branch doubling pass: exact_zeros
        # (all_branch_values), largest_gap's level intervals, and the
        # ladders of the run's zero sets and lemma tables
        calls = Counter()
        for module, name in ((exact, "all_branch_values"), (cp.geometry, "branch_value_table")):
            real = getattr(module, name)

            def counted(gamma, n, t, mode="auto", _real=real, _where=module.__name__):
                calls[(_where, n, t, mode)] += 1
                return _real(gamma, n, t, mode)

            monkeypatch.setattr(module, name, counted)
        for module in (exact, spacing):
            real = module.branch_value_ladder

            def counted_ladder(gamma, top, ts, mode="auto", depth=None, _real=real,
                               _where=module.__name__):
                calls[(_where, "ladder", top, ts, mode, depth)] += 1
                return _real(gamma, top, ts, mode, depth)

            monkeypatch.setattr(module, "branch_value_ladder", counted_ladder)
        return calls

    def test_each_dyadic_level_built_once_per_run(self, monkeypatch, fam_sixth):
        J = cp.jacobi_for_gamma(fam_sixth, 64)
        calls = self._count_branch_passes(monkeypatch)
        totals = []
        # nothing survives the call: a second run repeats the same work
        for _ in range(2):
            calls.clear()
            full_verification(fam_sixth, J, n_max=64, c=Fraction(1, 6))
            # one ladder gives the zeros of levels 1..8, one the lemma tables;
            # every critical set reuses the zeros, which are all double
            ladders = {key: k for key, k in calls.items() if key[1] == "ladder"}
            assert ladders == {("cantorpoly.exact", "ladder", 8, (0.0,), "auto", None): 1,
                               ("cantorpoly.spacing", "ladder", 8, (0.0, 1.0, -1.0), "dd",
                                None): 1}
            assert not [key for key in calls if key[0] == "cantorpoly.exact" and key not in ladders]
            assert not [key for key in calls if key[0] == "cantorpoly.spacing"
                        and key not in ladders]
            totals.append(sum(calls.values()))
        assert totals[0] == totals[1]


def _lemma(fam, n, ts=spacing._LEMMA_TS):
    """verify_branch_lemma at level n on sets from the public producers."""
    table = branch_value_table(fam.gamma, n, ts, "dd")
    return cp.verify_branch_lemma(fam, table, cp.exact_zeros(fam, n), critical_set(fam, n))


class TestVerifyOps:
    def test_interlacing_bound_chebyshev(self, jacobi_quarter_small):
        J = jacobi_quarter_small
        entry = verify_interlacing_bound(eigen_zeros(J, 8), eigen_zeros(J, 4),
                                         eigen_zeros(J, 2))
        assert entry.passed
        assert entry.detail == {"l": 8, "m": 4, "n": 2}
        # both sides from cosine closed forms
        z8, z4 = chebyshev_zeros_unit(3), chebyshev_zeros_unit(2)
        want_lhs = min(abs(x - y) for x in z8 for y in z4)
        assert entry.lhs == pytest.approx(want_lhs, rel=1e-9)
        assert entry.rhs == pytest.approx(chebyshev_min_gap(1), rel=1e-9)

    def test_interlacing_bound_small_degrees(self, jacobi_sixth_small):
        z = {n: eigen_zeros(jacobi_sixth_small, n) for n in (2, 3, 4)}
        assert verify_interlacing_bound(z[4], z[3], z[2]).passed

    def test_interlacing_bound_preconditions(self, jacobi_sixth_small):
        z = {n: eigen_zeros(jacobi_sixth_small, n) for n in (1, 2, 3, 4)}
        with pytest.raises(DomainError):
            verify_interlacing_bound(z[4], z[4], z[2])
        with pytest.raises(DomainError):
            verify_interlacing_bound(z[4], z[3], z[1])

    def test_second_neighbor_bound(self, jacobi_quarter_small, jacobi_sixth_small):
        def bound(J, r, n):
            return verify_second_neighbor_bound(eigen_zeros(J, r), eigen_zeros(J, n))

        trivial = bound(jacobi_sixth_small, 8, 8)
        assert trivial.passed
        assert bound(jacobi_quarter_small, 16, 4).passed
        assert bound(jacobi_sixth_small, 8, 4).passed
        with pytest.raises(DomainError):
            bound(jacobi_sixth_small, 1, 1)

    def test_mismatched_levels_raise(self, fam_sixth):
        z = {m: cp.exact_zeros(fam_sixth, m) for m in (1, 3)}
        y = {m: critical_set(fam_sixth, m) for m in (2, 3)}
        table = branch_value_table(fam_sixth.gamma, 3, spacing._LEMMA_TS, "dd")
        assert cp.verify_branch_lemma(fam_sixth, table, z[3], y[3]).passed
        with pytest.raises(DomainError, match="critical set of level 2"):
            cp.verify_branch_lemma(fam_sixth, table, z[3], y[2])
        with pytest.raises(DomainError, match="branch table"):
            cp.verify_branch_lemma(fam_sixth, table[:4], z[3], y[3])
        with pytest.raises(DomainError, match="branch table"):
            cp.verify_branch_lemma(fam_sixth, table[:, :2], z[3], y[3])
        # an eigensolved set of a non-dyadic degree has no level
        odd = eigen_zeros(cp.jacobi_for_gamma(fam_sixth, 8), 7)
        with pytest.raises(DomainError, match="not a dyadic degree"):
            cp.verify_branch_lemma(fam_sixth, table, odd, y[3])

    def test_branch_chain_equality_case(self, fam_sixth):
        # all-L word at the inner endpoint 0 attains the chain value exactly
        res = branch_separation_chain(fam_sixth, "L", 0.0)
        assert res["ok"]
        assert float(res["separation"]) == float(res["chain"])

    def test_branch_lemma_levels(self):
        # the doubling pass must agree with the per-word reference on
        # every word and both inner endpoints
        for desc in ("constant:1/6", "periodic:1/6,1/5", "constant:1/4", "constant:0.02"):
            fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
            for n in range(1, 7):
                entry = _lemma(fam, n)
                assert entry.passed, (desc, n)
                assert entry.detail["words"] == 2 ** n
                assert entry.detail["chain_failures"] == 0
                assert entry.detail["min_margin"] >= 1.0
                gn = fam.gamma.gamma(n, "dd")
                want = min(float(branch_separation_chain(fam, w, t)["separation"])
                           for w in words(n) for t in (0.0, gn))
                assert entry.rhs == want, (desc, n)
        # at tiny gamma d(Z, Y) needs the dd zero and critical sets: their
        # extreme points round to 0 and 1 in double
        for desc in ("constant:0.01", "constant:0.005"):
            entry = _lemma(cp.MapFamily(cp.GammaSequence.from_descriptor(desc)), 8)
            assert entry.passed and entry.detail["critical_distance_ok"], desc
            assert entry.detail["chain_failures"] == 0

    def test_branch_lemma_tie_at_quarter(self):
        # with gamma_8 = 1/4 the chain value equals l_{1,8}; in decimal the
        # two round apart, which must not count as 2^8 chain failures
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor("periodic:1/1000000,1/4"))
        entry = _lemma(fam, 7)
        assert entry.passed and entry.detail["chain_failures"] == 0
        gn = fam.gamma.gamma(7, "dd")
        assert branch_separation_chain(fam, "L" * 7, gn)["ok"]

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_branch_lemma_checks_both_endpoints(self, fam_sixth, side):
        # collapse one endpoint family onto the zeros: each of its words
        # then has separation 0 < chain and must be counted as a failure
        entry = _lemma(fam_sixth, 3, [0.0 if t == side else t for t in spacing._LEMMA_TS])
        assert not entry.passed
        assert entry.detail["chain_failures"] == 8


def _every_case_entry(check, max_degree, cases):
    """The entry of a bound decided on every case, from (case, lhs, rhs) per
    case in order: a case fails unless lhs <= rhs, and the worst is the
    first case of the largest ratio lhs / rhs."""
    cases = list(cases)
    failed = [list(case) for case, lhs, rhs in cases if not lhs <= rhs]
    worst = max(cases, key=lambda c: c[1] / c[2], default=None)
    return spacing.ReportEntry(check, not failed, float(len(failed)), 0.0, {
        "max_degree": max_degree, "cases": len(cases), "violations": failed[:20],
        "worst_ratio": None if worst is None else worst[1] / worst[2],
        "worst_case": None if worst is None else worst[0]})


def _distance_cases(top, lhs_rhs):
    return (((l, m, n), *lhs_rhs(l, m, n)) for l in range(4, top + 1)
            for m in range(3, l) for n in range(2, m))


def _second_neighbor_cases(z, n_max):
    return (((r, n), e.lhs, e.rhs) for r in range(2, n_max + 1) for n in range(2, r + 1)
            for e in [verify_second_neighbor_bound(z[r], z[n])])


class TestChecksOnPublicSets:
    """full_verification's entries are the branch lemma and the reference
    checks of tests/reference.py on the sets that the public producers
    build, one degree or level at a time."""

    @pytest.mark.parametrize("desc", ["constant:1/6", "periodic:1/6,1/5"])
    def test_entries_match_public_checks(self, desc):
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
        J = cp.jacobi_for_gamma(fam, 64)
        result = full_verification(fam, J, n_max=64, c=Fraction(1, 6))
        z = {n: eigen_zeros(J, n) for n in range(2, 65)}
        # the triples read one set_distance per pair, as verify_interlacing_bound does
        dist = {(l, m): cp.set_distance(z[l], z[m]) for l in z for m in z if m < l}
        want = {
            "interlacing_distance_bound": lambda d: _every_case_entry(
                "interlacing_distance_bound", 64,
                _distance_cases(64, lambda l, m, n: (dist[l, m], cp.min_spacing(z[n])))),
            "second_neighbor_bound": lambda d: _every_case_entry(
                "second_neighbor_bound", 64, _second_neighbor_cases(z, 64)),
            "branch_separation_chain": lambda d: _lemma(fam, d["n"]),
        }
        checked = Counter()
        for entry in result.entries:
            if entry.check in want:
                assert entry == want[entry.check](entry.detail), entry
                checked[entry.check] += 1
        assert checked == {"interlacing_distance_bound": 1, "second_neighbor_bound": 1,
                           "branch_separation_chain": 8}
        assert result.spacing.rows == cp.spacing_report(fam, J, range(2, 65), Fraction(1, 6)).rows
        interlacing = next(e for e in result.entries if e.check == "interlacing_at_most_one")
        assert interlacing.lhs == len(_per_pair_violations(z)) == 0

    @pytest.mark.parametrize("desc", ["constant:1/6", "periodic:1/6,1/5"])
    def test_every_triple_and_pair_by_the_public_checks(self, desc):
        # all 1,771 triples through verify_interlacing_bound and all 276
        # pairs through verify_second_neighbor_bound
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
        J = cp.jacobi_for_gamma(fam, 24)
        entries = {e.check: e for e in full_verification(fam, J, n_max=24).entries}
        z = {n: eigen_zeros(J, n) for n in range(2, 25)}

        def triple(l, m, n):
            e = verify_interlacing_bound(z[l], z[m], z[n])
            return e.lhs, e.rhs

        want = _every_case_entry("interlacing_distance_bound", 24, _distance_cases(24, triple))
        assert want.detail["cases"] == 1771 and want.passed
        assert entries["interlacing_distance_bound"] == want
        want = _every_case_entry("second_neighbor_bound", 24, _second_neighbor_cases(z, 24))
        assert want.detail["cases"] == 276 and want.passed
        assert entries["second_neighbor_bound"] == want

    def test_one_deep_pair_breaks_the_distance_bound(self, monkeypatch, fam_sixth):
        # raise d(Z_24, Z_20) above M_n for exactly the n < 20 whose M_n lies
        # below the median: only that pair fails, on exactly those triples
        J = cp.jacobi_for_gamma(fam_sixth, 24)
        z = {n: eigen_zeros(J, n) for n in range(2, 25)}
        spacings = {n: cp.min_spacing(z[n]) for n in range(2, 20)}
        raised = float(np.median(list(spacings.values())))
        real = spacing._pair_pass

        def one_deep_pair(sets):
            violations, dist = real(sets)
            dist[22, 18] = raised
            return violations, dist

        monkeypatch.setattr(spacing, "_pair_pass", one_deep_pair)
        entries = {e.check: e for e in full_verification(fam_sixth, J, n_max=24).entries}
        entry = entries["interlacing_distance_bound"]
        failing = [[24, 20, n] for n in sorted(spacings) if spacings[n] < raised]
        assert 0 < len(failing) < 18
        assert not entry.passed and entry.lhs == len(failing)
        assert entry.detail["violations"] == failing
        least = min(spacings, key=spacings.get)
        assert entry.detail["worst_case"] == (24, 20, least)
        assert entry.detail["worst_ratio"] == raised / spacings[least]
        assert entries["second_neighbor_bound"].passed
        assert entries["interlacing_at_most_one"].passed


class TestSpacingReport:
    def test_quarter_degree_two(self, fam_quarter, jacobi_quarter_small):
        report = cp.spacing_report(fam_quarter, jacobi_quarter_small, [2])
        row = report.rows[0]
        assert (row.n, row.s) == (2, 2)
        assert row.lower_eq1 == pytest.approx(1.0 / 256.0)
        assert row.upper_eq1 == pytest.approx(PI_SQ_4)
        assert row.m_n == pytest.approx(math.sqrt(0.5), abs=1e-13)
        assert row.pass_eq1 and row.pass_eq2 is None
        assert row.source == "both"

    def test_sixth_degree_two(self, fam_sixth, jacobi_sixth_small):
        row = cp.spacing_report(fam_sixth, jacobi_sixth_small, [2]).rows[0]
        assert row.m_n == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-13)
        assert row.lower_eq1 == pytest.approx(6.0 ** -4)
        assert row.pass_eq1

    def test_sixth_with_declared_c(self, fam_sixth, jacobi_sixth_small):
        report = cp.spacing_report(fam_sixth, jacobi_sixth_small, [8],
                                   c=Fraction(1, 6))
        row = report.rows[0]
        assert row.s == 4
        assert row.lower_eq2 == pytest.approx((1.0 / 36.0) * 6.0 ** -4)
        assert row.upper_eq2 == pytest.approx(9.0 * math.pi ** 2 * 6.0 ** -4)
        assert row.pass_eq1 and row.pass_eq2

    def test_c_above_infimum_rejected(self, fam_sixth, jacobi_sixth_small):
        with pytest.raises(DomainError):
            cp.spacing_report(fam_sixth, jacobi_sixth_small, [4], c=Fraction(1, 5))

    def test_degree_bounds_checked(self, fam_sixth, jacobi_sixth_small):
        with pytest.raises(DomainError):
            cp.spacing_report(fam_sixth, jacobi_sixth_small, [1])
        with pytest.raises(DomainError):
            cp.spacing_report(fam_sixth, jacobi_sixth_small, [17])

    def test_dyadic_cross_check_and_sources(self, fam_sixth, jacobi_sixth_small):
        rows = {r.n: r for r in cp.spacing_report(fam_sixth, jacobi_sixth_small, [7, 8]).rows}
        assert rows[8].source == "both"
        assert rows[8].min_pair[0] >= 0
        assert rows[7].source == "eigensolve"
        assert rows[7].m_n > rows[8].m_n > 0

    def test_csv_shape(self, fam_sixth, jacobi_sixth_small):
        report = cp.spacing_report(fam_sixth, jacobi_sixth_small, range(2, 9),
                                   c=Fraction(1, 6))
        text = report.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == ("n,s,M_n,lower_eq1,upper_eq1,lower_eq2,upper_eq2,"
                            "pass_eq1,pass_eq2,margin_lo,margin_hi")
        assert len(lines) == 8
        assert report.all_pass
        assert report.as_json()["rows"][0]["n"] == 2

    def test_row_validation(self):
        with pytest.raises(DomainError):
            SpacingRow(n=2, s=2, m_n=0.5, lower_eq1=1.0, upper_eq1=0.5,
                       lower_eq2=None, upper_eq2=None, pass_eq1=True,
                       pass_eq2=None, margin_lo=1.0, margin_hi=1.0,
                       source="both", min_pair=(0, 1), escalated=False)

    def test_subnormal_c_squared_bound_from_the_exact_quotient(self):
        # c^2 = 1e-312 is subnormal, and pi^2/4 / c^2 alone overflows, but
        # delta_3 / c^2 = 1e-5: the upper bound is small and finite
        gamma = cp.GammaSequence.from_descriptor("list:1e-156,1e-156,1e-5,1/4")
        fam, c = cp.MapFamily(gamma), Fraction(1, 10 ** 156)
        ladder = exact.exact_zero_ladder(fam, 2)
        report = spacing._report(fam, cp.jacobi_for_gamma(fam, 4), {4: ladder[1]}, ladder, c, None)
        row = report.rows[0]
        bound = Fraction(PI_SQ_4) * gamma.delta_fraction(3) / (c * c)
        assert row.s == 3 and 0 < row.upper_eq2 < 1e-4
        assert abs(Fraction(row.upper_eq2) - bound) <= bound * Fraction(1, 2 ** 52)
        assert row.pass_eq2 is (Fraction(row.m_n) <= bound) is True

    @pytest.mark.parametrize("desc", ["constant:1e-70", "constant:1e-160"])
    def test_margin_lo_from_the_exact_quotient(self, desc):
        # delta_5 = gamma^5 lies below the smallest double, so the lower
        # bound of eq. 1 rounds to 0; the margin M_4 / delta_5 = gamma^-4 is
        # divided exactly, finite at 1e-70 and above the doubles at 1e-160
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
        ladder = exact.exact_zero_ladder(fam, 2)
        row = spacing._report(fam, cp.jacobi_for_gamma(fam, 4), {4: ladder[1]}, ladder,
                              None, None).rows[0]
        assert row.s == 3 and row.lower_eq1 == 0.0 and row.pass_eq1
        quotient = Fraction(row.m_n) / fam.gamma.delta_fraction(5)
        if quotient > Fraction(sys.float_info.max):
            assert row.margin_lo == math.inf
        else:
            assert row.margin_lo == float(quotient) and 1e279 < row.margin_lo < 1e281

    def test_margins_are_ratios(self, fam_sixth, jacobi_sixth_small):
        row = cp.spacing_report(fam_sixth, jacobi_sixth_small, [5]).rows[0]
        assert row.margin_lo == pytest.approx(row.m_n / row.lower_eq1)
        assert row.margin_hi == pytest.approx(row.upper_eq1 / row.m_n)
        assert row.margin_lo >= 1.0 and row.margin_hi >= 1.0


def _reference_rows(fam, J, degrees, c):
    """Rows built one degree at a time, with exact rational lower-bound verdicts."""
    gamma = fam.gamma
    rows = []
    for n in degrees:
        zs = eigen_zeros(J, n)
        m_n, pair = zs.smallest_gap()
        source = "eigensolve"
        if n & (n - 1) == 0:
            m_exact, pair_exact = cp.exact_zeros(fam, n.bit_length() - 1, "auto").smallest_gap()
            assert abs(m_exact - m_n) <= 1e-9
            m_n, pair, source = m_exact, pair_exact, "both"
        s = n.bit_length()
        d_lo, d_hi = gamma.delta_fraction(s + 2), gamma.delta_fraction(s - 2)
        lower1, upper1 = float(d_lo), PI_SQ_4 * float(d_hi)
        lower2 = upper2 = pass2 = None
        if c is not None:
            lo2 = c * c * gamma.delta_fraction(s)
            lower2 = float(lo2)
            upper2 = PI_SQ_4 / float(c * c) * float(gamma.delta_fraction(s))
            pass2 = Fraction(m_n) >= lo2 and m_n <= upper2
        rows.append(SpacingRow(
            n=n, s=s, m_n=m_n, lower_eq1=lower1, upper_eq1=upper1,
            lower_eq2=lower2, upper_eq2=upper2,
            pass_eq1=Fraction(m_n) >= d_lo and m_n <= upper1, pass_eq2=pass2,
            margin_lo=m_n / lower1, margin_hi=upper1 / m_n,
            source=source, min_pair=(pair, pair + 1), escalated=zs.escalated))
    return tuple(rows)


class TestBatchedReport:
    """spacing_report solves all degrees at once and decides bounds per octave."""

    @pytest.mark.parametrize("desc, c, degrees", [
        ("constant:1/6", Fraction(1, 6), range(2, 257)),
        ("constant:1/4", Fraction(1, 4), range(2, 257)),
        ("periodic:1/5,1/6", Fraction(1, 6), range(2, 257)),
        ("list:1/4,1/1000", None, range(54, 57)),
    ])
    def test_rows_match_per_degree_reference(self, desc, c, degrees):
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
        J = cp.jacobi_for_gamma(fam, degrees[-1])
        report = cp.spacing_report(fam, J, degrees, c=c)
        want = _reference_rows(fam, J, degrees, c)
        assert report.rows == want
        assert [r.m_n.hex() for r in report.rows] == [r.m_n.hex() for r in want]
        assert report.escalated_degrees == ((55,) if desc.startswith("list") else ())


@st.composite
def _tiny_to_moderate_fractions(draw):
    # q = (a / b) * 2^-e reaches from ~2^60 down past the smallest
    # subnormal, 2^-1074, where float(q) rounds to 0
    a = draw(st.integers(1, 2 ** 60))
    b = draw(st.integers(1, 2 ** 60))
    return Fraction(a, b) / 2 ** draw(st.integers(0, 1200))


class TestLeastDoubleAtLeast:
    @given(q=_tiny_to_moderate_fractions(), steps=st.integers(-2, 2))
    @settings(max_examples=400, deadline=None)
    def test_decides_like_the_rational(self, q, steps):
        t = spacing._least_double_at_least(q)
        assert Fraction(t) >= q
        m = float(q)
        for _ in range(abs(steps)):
            m = math.nextafter(m, math.copysign(math.inf, steps))
        assert (m >= t) == (Fraction(m) >= q)

    def test_edge_cases(self):
        smallest = math.ulp(0.0)
        assert spacing._least_double_at_least(Fraction(1, 2 ** 1100)) == smallest
        assert spacing._least_double_at_least(Fraction(1, 2 ** 1074)) == smallest
        assert spacing._least_double_at_least(Fraction(3, 8)) == 0.375
        third = spacing._least_double_at_least(Fraction(1, 3))
        assert Fraction(third) > Fraction(1, 3) > Fraction(math.nextafter(third, 0.0))


class TestFullVerification:
    def test_small_run_passes(self, fam_sixth, jacobi_sixth_small):
        result = full_verification(fam_sixth, jacobi_sixth_small, n_max=16, c=Fraction(1, 6))
        assert result.passed
        checks = {e.check for e in result.entries}
        assert "interlacing_distance_bound" in checks
        assert "critical_distance_bound" not in checks
        assert "second_neighbor_bound" in checks
        assert "branch_separation_chain" in checks
        assert "interlacing_at_most_one" in checks
        payload = result.as_json()
        assert payload["passed"] is True
        assert len(payload["spacing"]["rows"]) == 15

    def test_informational_entries_present(self, fam_periodic):
        J = cp.jacobi_for_gamma(fam_periodic, 16)
        result = full_verification(fam_periodic, J, n_max=16)
        severities = {e.check: e.severity for e in result.entries}
        assert severities["max_gap_sanity"] == "info"
        assert severities["dyadic_spacing_collapse"] == "info"
