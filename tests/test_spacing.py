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
from cantorpoly import exact, jacobi, spacing
from cantorpoly.errors import DomainError
from cantorpoly.geometry import _separation_ladder
from cantorpoly.geometry import as_decimal, extended_context
from cantorpoly.spacing import SpacingRow, full_verification

from conftest import chebyshev_min_gap, chebyshev_zeros_unit
from reference import (branch_separation_chain, branch_value, critical_distance, critical_set,
                       eigen_zeros, interlacing_at_most_one, ladder_gaps, relative_error,
                       verify_interlacing_bound, verify_second_neighbor_bound, words,
                       zero_gaps)

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


def _pair_pass(sets):
    # spacing._pair_pass on the double sets laid end to end, as a zero table holds them
    keys = sorted(sets)
    values = [spacing._points(sets[k]) for k in keys]
    return spacing._pair_pass(keys, np.concatenate(values),
                              np.cumsum([0] + [v.size for v in values]))


def _exact_row(fam, m, c):
    # the report row of degree 2^m on the exact set's M_n, formed exactly and rounded once:
    # at 1e-160 the gaps of level 2 lie in the subnormals, which the separation ladder refuses
    gap, i = cp.exact_zeros(fam, m).smallest_gap()
    return spacing._report(fam, cp.jacobi_for_gamma(fam, 2 ** m), [2 ** m], np.array([gap]),
                           np.array([i]), c, None).rows[0]


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
        violations, dist = _pair_pass(sets)
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
        assert _per_pair_violations(sets) == [(2, 4)]
        # set_distance takes a Decimal set beside a double one and forms each distance
        # exactly, where the double views would give 0 for each pair
        dist = _per_pair_distances(sets)
        assert (dist[1, 0], dist[2, 0], dist[2, 1]) == (1e-40, 1e-40, 2e-40)
        # the pair pass reads a zero table, which is double: there the views tie
        doubles = {k: spacing._points(v).astype(float) for k, v in sets.items()}
        violations, dist = _pair_pass(doubles)
        assert violations == _per_pair_violations(doubles)
        assert np.array_equal(dist, _per_pair_distances(doubles))
        assert (dist[1, 0], dist[2, 0], dist[2, 1]) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("desc", ["list:1/4,1/1000", "constant:0.01"])
    def test_full_verification_lists_every_violation(self, desc):
        # both inputs have known false violations at degree 64
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
        J = cp.jacobi_for_gamma(fam, 64)
        result = full_verification(fam, J, n_max=64)
        entry = next(e for e in result.entries if e.check == "interlacing_at_most_one")
        sets = {r: eigen_zeros(J, r) for r in range(2, 65)}
        want = _per_pair_violations(sets)
        assert want
        assert entry.lhs == len(want)
        assert _pair_pass(sets)[0] == want
        assert entry.detail["violations"] == want[:20]
        # the Decimal sets' second-neighbour gaps, beside the table's
        second = next(e for e in result.entries if e.check == "second_neighbor_bound")
        assert second == _every_case_entry("second_neighbor_bound", 64,
                                           _second_neighbor_cases(sets, 64))


class TestRunLocalCache:
    @staticmethod
    def _count_branch_passes(monkeypatch):
        # every binding that reaches a branch doubling pass: exact_zeros
        # (all_branch_values), largest_gap's level intervals, a ladder of
        # exact zero sets, and the separation ladder of the report and the lemma
        calls = Counter()
        for module, name in ((exact, "all_branch_values"), (cp.geometry, "branch_value_table")):
            real = getattr(module, name)

            def counted(gamma, n, t, _real=real, _where=module.__name__):
                calls[(_where, n, t)] += 1
                return _real(gamma, n, t)

            monkeypatch.setattr(module, name, counted)
        real_ladder, real_kernel = exact.branch_value_ladder, spacing._separation_ladder

        def counted_ladder(gamma, top, ts, depth=None):
            calls[("cantorpoly.exact", "ladder", top, ts, depth)] += 1
            return real_ladder(gamma, top, ts, depth)

        def counted_kernel(gamma, top):
            calls[("cantorpoly.spacing", "kernel", top)] += 1
            return real_kernel(gamma, top)

        monkeypatch.setattr(exact, "branch_value_ladder", counted_ladder)
        monkeypatch.setattr(spacing, "_separation_ladder", counted_kernel)
        return calls

    def test_each_dyadic_level_built_once_per_run(self, monkeypatch, fam_sixth):
        J = cp.jacobi_for_gamma(fam_sixth, 64)
        calls = self._count_branch_passes(monkeypatch)
        totals = []
        # nothing survives the call: a second run repeats the same work
        for _ in range(2):
            calls.clear()
            full_verification(fam_sixth, J, n_max=64, c=Fraction(1, 6))
            # the zero table holds every dyadic level, which all work in
            # double, so no exact zero set is built; one separation ladder
            # gives the dyadic rows and the tables of the lemma levels 1..8
            kernels = {key: k for key, k in calls.items() if key[1] == "kernel"}
            assert kernels == {("cantorpoly.spacing", "kernel", 8): 1}
            assert not [key for key in calls if key[0] == "cantorpoly.exact"]
            totals.append(sum(calls.values()))
        assert totals[0] == totals[1]


# the 24 inputs of the validity grid, and the 16 pairs periodic:p,q over {1/6, 1/5, 2/9, 1/4}
_VALIDITY_GRID = (
    [f"constant:{g}" for g in ("1/4", "1/5", "1/6", "0.1", "0.05", "0.02", "0.01", "0.001",
                               "0.0001", "0.000001", "0.00000001")]
    + [f"periodic:{p}" for q in ("1/100", "1/10000", "1/1000000", "1/100000000")
       for p in (f"1/4,{q}", f"{q},1/4")]
    + ["list:1/4,1/1000", "list:1/4,1/100000000", "list:1/1000,1/4", "periodic:1/6,1/5",
       "periodic:2/9,1/4"])
_PAIRS = [f"periodic:{p},{q}" for p in ("1/6", "1/5", "2/9", "1/4")
          for q in ("1/6", "1/5", "2/9", "1/4")]


def _lemma(fam, n, table=None):
    """verify_branch_lemma at level n, on the separation ladder's level n unless a table
    is given."""
    return cp.verify_branch_lemma(fam, table or _separation_ladder(fam.gamma, n)[-1])


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
        # the rows name the level, 2^n, and the columns must then be its n + 3
        table, leftmost = _separation_ladder(fam_sixth.gamma, 3)[-1]
        assert cp.verify_branch_lemma(fam_sixth, (table, leftmost)).detail["n"] == 3
        with pytest.raises(DomainError, match=r"level 2 needs a 4 x 5 separation table"):
            cp.verify_branch_lemma(fam_sixth, (table[:4], leftmost))
        with pytest.raises(DomainError, match=r"level 3 needs a 8 x 6 separation table"):
            cp.verify_branch_lemma(fam_sixth, (table[:, :5], leftmost))
        with pytest.raises(DomainError, match="separation table"):
            cp.verify_branch_lemma(fam_sixth, (table[:6], leftmost))

    def test_branch_chain_equality_case(self, fam_sixth):
        # all-L word at the inner endpoint 0 attains the chain value exactly
        res = branch_separation_chain(fam_sixth, "L", 0.0)
        assert res["ok"]
        assert float(res["separation"]) == float(res["chain"])

    def test_branch_lemma_levels(self):
        # the separation ladder must agree with the per-word decimal reference
        # on every word and both inner endpoints, within its relative bound, and
        # d(Z, Y) with the least distance over every zero and critical point
        for desc in ("constant:1/6", "periodic:1/6,1/5", "constant:1/4", "constant:0.02"):
            fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
            for n in range(1, 7):
                entry = _lemma(fam, n)
                assert entry.passed, (desc, n)
                assert entry.detail["words"] == 2 ** n
                assert entry.detail["chain_failures"] == 0
                assert entry.detail["min_margin"] >= 1.0
                gn = fam.gamma.value(n)
                want = min(float(branch_separation_chain(fam, w, t)["separation"])
                           for w in words(n) for t in (0.0, gn))
                assert abs(entry.rhs - want) <= 4e-15 * want, (desc, n)
                assert abs(entry.lhs - float(critical_distance(fam.gamma, n))) <= 1e-15 * entry.lhs
        # at tiny gamma the extreme zeros and critical points round to 0 and 1
        # in double, but their distances are pulled back, not subtracted
        for desc in ("constant:0.01", "constant:0.005"):
            entry = _lemma(cp.MapFamily(cp.GammaSequence.from_descriptor(desc)), 8)
            assert entry.passed and entry.detail["critical_distance_ok"], desc
            assert entry.detail["chain_failures"] == 0

    def test_branch_lemma_tie_at_quarter(self):
        # with gamma_8 = 1/4 the chain value equals l_{1,8}: both are pulled in
        # double by the same steps, so they are equal bit for bit, and no word
        # counts as a chain failure
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor("periodic:1/1000000,1/4"))
        entry = _lemma(fam, 7)
        assert entry.passed and entry.detail["chain_failures"] == 0
        table, leftmost = _separation_ladder(fam.gamma, 7)[-1]
        assert table[0, 0] == leftmost
        gn = fam.gamma.value(7)
        assert branch_separation_chain(fam, "L" * 7, gn)["ok"]

    # the chain falls to about 5e-49 at constant 1e-8, level 6, and to 2e-35 at
    # periodic:1/4,1e-8, level 8: no cushion may hide a separation of 0 there
    @pytest.mark.parametrize("desc, n", [("constant:1/6", 3), ("constant:1/100000000", 6),
                                         ("periodic:1/4,1/100000000", 8)])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_branch_lemma_checks_both_endpoints(self, desc, n, side):
        # collapse one endpoint family onto the zeros: each of its words
        # then has separation 0 < chain and must be counted as a failure
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
        table, leftmost = _separation_ladder(fam.gamma, n)[-1]
        table[:, 1 if side == 1.0 else 2] = 0.0
        entry = _lemma(fam, n, (table, leftmost))
        assert not entry.passed
        assert entry.detail["chain_failures"] == 2 ** n

    @pytest.mark.parametrize("desc", _VALIDITY_GRID + _PAIRS + ["periodic:1/4,1/10000000000000000"])
    def test_scale_decision_matches_60_digits(self, desc):
        # the lemma decides l_{1,s} >= delta_s in level s's precision, double while
        # delta_s >= 1e-12; a 60-digit pass decides it the same way at levels 1..14. The
        # reference l_{1,s} is the all-L walk at t = -1, the decimal table's all-L value
        gamma = cp.GammaSequence.from_descriptor(desc)
        for s in range(1, 15):
            want = branch_value(gamma, "L" * s, -1.0, ("dd", 60))
            with localcontext(extended_context(60)):
                decided = want >= as_decimal(gamma.delta_fraction(s))
            assert (cp.leftmost_length(gamma, s) >= gamma.delta(s)) == decided, (desc, s)


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
            if entry.check == "branch_separation_chain":  # d(Z, Y) against the decimal oracle
                dzy = float(critical_distance(fam.gamma, entry.detail["n"]))
                assert abs(entry.lhs - dzy) <= 1e-15 * dzy, entry
        assert checked == {"interlacing_distance_bound": 1, "second_neighbor_bound": 1,
                           "branch_separation_chain": 8}
        assert result.spacing.rows == cp.spacing_report(fam, J, range(2, 65), Fraction(1, 6)).rows
        interlacing = next(e for e in result.entries if e.check == "interlacing_at_most_one")
        assert interlacing.lhs == len(_per_pair_violations(z)) == 0

    @pytest.mark.parametrize("desc, top, c, by_hand", [
        # by hand, every dyadic row reads fam's ladder, to level 8 either way
        ("constant:1/6", 256, Fraction(1, 6), True),
        # the extended levels 5 and 6 read the ladder too: to level 6, or 8 under the lemma
        ("list:1/4,1/1000", 64, None, False)])
    def test_verification_prints_the_spacing_report(self, desc, top, c, by_hand):
        fam = cp.MapFamily(cp.GammaSequence.from_descriptor(desc))
        J = cp.jacobi_for_gamma(fam, top)
        if by_hand:
            J = cp.JacobiMatrix(J.a, J.b)
        result = full_verification(fam, J, n_max=top, c=c)
        assert result.spacing.rows == cp.spacing_report(fam, J, range(2, top + 1), c).rows

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

        def one_deep_pair(*layout):
            violations, dist = real(*layout)
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
        for bad in (1, 17):
            with pytest.raises(DomainError, match=f"degree {bad} outside 2\\.\\.16$"):
                cp.spacing_report(fam_sixth, jacobi_sixth_small, [bad])
        # a degree is never truncated to an integer
        with pytest.raises(DomainError, match="degree 2.5 is not an integer"):
            cp.spacing_report(fam_sixth, jacobi_sixth_small, [2.5])
        assert cp.spacing_report(fam_sixth, jacobi_sixth_small, []).rows == ()

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

    def test_row_validation(self, monkeypatch, fam_sixth, jacobi_sixth_small):
        # the bounds are formed and checked lower <= upper once per octave: degrees 2..16
        # span octaves 2..5; with pi^2/4 patched below gamma^4 = 1/1296 every upper bound
        # of both inequalities falls below its lower bound
        octaves = []
        real = spacing._octave_bounds
        monkeypatch.setattr(spacing, "_octave_bounds",
                            lambda gamma, s, c: octaves.append(s) or real(gamma, s, c))
        cp.spacing_report(fam_sixth, jacobi_sixth_small, range(2, 17), c=Fraction(1, 6))
        assert octaves == [2, 3, 4, 5]
        monkeypatch.setattr(spacing, "_PI_SQ_4", 1e-4)
        for c in (None, Fraction(1, 6)):
            with pytest.raises(DomainError, match="^lower bound exceeds upper bound$"):
                cp.spacing_report(fam_sixth, jacobi_sixth_small, range(2, 17), c=c)

    def test_no_row_is_built_until_rows_is_read(self, monkeypatch, fam_sixth):
        # the report holds one list per field; the per-degree rows are built on first read
        J = cp.jacobi_for_gamma(fam_sixth, 32)
        built = []
        real = spacing.SpacingRow

        def counted(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(spacing, "SpacingRow", counted)
        reports = [cp.spacing_report(fam_sixth, J, range(2, 33), c=Fraction(1, 6)),
                   full_verification(fam_sixth, J, n_max=32, c=Fraction(1, 6)).spacing]
        assert [r.columns for r in reports] == built
        assert all(type(column) is list and len(column) == 31 for r in built for column in r)
        assert all("rows" not in vars(r) for r in reports)
        monkeypatch.undo()
        for report in reports:
            rows = report.rows
            assert report.rows is rows and len(rows) == 31
            assert all(type(row) is SpacingRow for row in rows)
            assert [list(column) for column in zip(*rows)] == list(report.columns)

    def test_subnormal_c_squared_bound_from_the_exact_quotient(self):
        # c^2 = 1e-312 is subnormal, and pi^2/4 / c^2 alone overflows, but
        # delta_3 / c^2 = 1e-5: the upper bound is small and finite
        gamma = cp.GammaSequence.from_descriptor("list:1e-156,1e-156,1e-5,1/4")
        fam, c = cp.MapFamily(gamma), Fraction(1, 10 ** 156)
        # M_4 of the exact set, whose level 2 works in extended precision
        row = _exact_row(fam, 2, c)
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
        row = _exact_row(fam, 2, None)
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
    """Rows built one degree at a time, with exact rational lower-bound verdicts. A dyadic
    row 2^m takes the least gap of level m of a separation ladder built to m alone, read by
    sorting (reference.ladder_gaps), once it agrees to 1e-9 with the exact set's gap and
    with the eigensolved zeros' gap."""
    gamma = fam.gamma
    rows = []
    for n in degrees:
        zs = eigen_zeros(J, n)
        m_n, pair = zs.smallest_gap()
        source = "eigensolve"
        if n & (n - 1) == 0:
            gaps = ladder_gaps(_separation_ladder(gamma, n.bit_length() - 1)[-1][0])
            m_exact = cp.exact_zeros(fam, n.bit_length() - 1).smallest_gap()[0]
            pair = int(np.argmin(gaps))
            assert abs(m_exact - gaps[pair]) <= 1e-9 and abs(m_n - gaps[pair]) <= 1e-9
            m_n, source = float(gaps[pair]), "both"
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
            source=source, min_pair=(pair, pair + 1)))
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


def _family(desc):
    return cp.MapFamily(cp.GammaSequence.from_descriptor(desc))


class TestDyadicRowsFromTheTable:
    """A dyadic row reads its zeros from the table and its M_n from the separation ladder."""

    @pytest.mark.parametrize("desc, top", [
        *((desc, 256) for desc in ["constant:1/6", "constant:1/4", "constant:0.05",
                                   "periodic:1/5,1/6"]),
        ("constant:0.02", 64)])
    def test_table_holds_the_exact_zeros_at_double_levels(self, desc, top):
        fam = _family(desc)
        J = cp.jacobi_for_gamma(fam, top)
        table = jacobi._zero_table(J, range(2, top + 1))
        read = [m for m in range(1, top.bit_length()) if fam.gamma.precision(m)[0] == "double"]
        assert read == list(range(1, top.bit_length()))  # every dyadic level, here
        for m in read:
            zeros = table.values[table.offsets[2 ** m - 2] : table.offsets[2 ** m - 1]]
            assert zeros.tobytes() == cp.exact_zeros(fam, m).values.tobytes(), m

    @pytest.mark.parametrize("desc", ["list:1/4,1/1000", "periodic:1/1000000,1/4"])
    def test_extended_rows_read_the_ladder(self, desc):
        # each to its last degree that resolves in double: periodic:1/1000000,1/4 fails at 22;
        # the exact set's gap is formed exactly from its Decimals and rounded once
        top = 64 if desc.startswith("list") else 21
        fam = _family(desc)
        report = cp.spacing_report(fam, cp.jacobi_for_gamma(fam, top), range(2, top + 1))
        extended = [m for m in range(1, top.bit_length())
                    if fam.gamma.precision(m)[0] != "double"]
        assert extended == ([5, 6] if desc.startswith("list") else [3, 4])
        for m in extended:
            row = report.rows[2 ** m - 2]
            gaps = ladder_gaps(_separation_ladder(fam.gamma, m)[-1][0])
            assert (row.n, row.source, row.m_n) == (2 ** m, "both", gaps.min())
            assert row.min_pair == (int(np.argmin(gaps)), int(np.argmin(gaps)) + 1)
            exact_gap = cp.exact_zeros(fam, m).smallest_gap()[0]
            assert abs(row.m_n - exact_gap) <= 2e-15 * exact_gap, m

    def test_a_matrix_built_by_hand_reads_the_ladder(self, fam_sixth):
        # its degrees all solve at level 1, but its dyadic rows read fam's ladder, as a
        # matrix with the tower does: the same rows, whatever the zeros' route
        J = cp.jacobi_for_gamma(fam_sixth, 64)
        by_hand = cp.JacobiMatrix(J.a, J.b)
        dyadic = [2 ** m - 2 for m in range(1, 7)]
        got, want = (cp.spacing_report(fam_sixth, Jx, range(2, 65)).rows for Jx in (by_hand, J))
        assert [got[i] for i in dyadic] == [want[i] for i in dyadic]
        assert [got[i].m_n for i in dyadic] == [
            ladder_gaps(table).min() for table, _ in _separation_ladder(fam_sixth.gamma, 6)]

    def test_the_checks_read_the_printed_m_n(self, fam_quarter):
        # every dyadic row prints the ladder's M_n, 1.6e-12 relative off the gap of the
        # zeros of a matrix built by hand at n = 256; that row binds the second-neighbour
        # bound, which reads the printed M_n, as the dyadic collapse does
        J = cp.jacobi_for_gamma(fam_quarter, 256)
        by_hand = cp.JacobiMatrix(J.a, J.b)
        result = full_verification(fam_quarter, by_hand, n_max=256)
        printed = [row.m_n for row in result.spacing.rows]
        table = jacobi._zero_table(by_hand, range(2, 257))
        assert printed[254] != table.min_gap[254]
        entries = {e.check: e for e in result.entries}
        entry = entries["second_neighbor_bound"]
        z = table.values[table.offsets[254] :]
        second = min(float(np.min(z[2:] - z[:-2])), 1 - z[-2], z[1])
        assert entry.detail["worst_case"] == (256, 256)
        assert entry.detail["worst_ratio"] == printed[254] / second
        assert entries["dyadic_spacing_collapse"].detail["values"] == [
            ladder_gaps(table).min() for table, _ in _separation_ladder(fam_quarter.gamma, 8)]

    @staticmethod
    def _count_ladders(monkeypatch):
        # every exact zero ladder and every separation ladder built, by its top level
        calls = []
        real_exact, real_kernel = exact.exact_zero_ladder, spacing._separation_ladder
        monkeypatch.setattr(exact, "exact_zero_ladder", lambda fam, top, *args: calls.append(
            ("exact", top)) or real_exact(fam, top, *args))
        monkeypatch.setattr(spacing, "_separation_ladder", lambda gamma, top: calls.append(
            ("separation", top)) or real_kernel(gamma, top))
        return calls

    @pytest.mark.parametrize("desc, top, ladders", [
        # one separation ladder, to the deepest dyadic level, and no exact zero set
        ("periodic:1/5,1/6", 256, [8]), ("constant:1/4", 256, [8]), ("list:1/4,1/1000", 64, [6])])
    def test_exact_ladders_per_report(self, monkeypatch, desc, top, ladders):
        fam = _family(desc)
        J = cp.jacobi_for_gamma(fam, top)
        calls = self._count_ladders(monkeypatch)
        cp.spacing_report(fam, J, range(2, top + 1))
        assert calls == [("separation", t) for t in ladders]
        calls.clear()
        cp.spacing_report(fam, J, [3, 5, 7])  # no dyadic degree: the ladder holds no level
        assert calls == [("separation", 0)]

    @pytest.mark.parametrize("by_hand, ladders", [(False, [9]), (True, [9])])
    def test_exact_ladder_per_verification(self, monkeypatch, by_hand, ladders):
        # one separation ladder gives the report its dyadic rows and the branch lemma its
        # levels 1..8, whatever the matrix; no exact zero set is built
        fam = _family("constant:1/6")
        J = cp.jacobi_for_gamma(fam, 512)
        if by_hand:
            J = cp.JacobiMatrix(J.a, J.b)
        calls = self._count_ladders(monkeypatch)
        cp.full_verification(fam, J, n_max=512)
        assert calls == [("separation", t) for t in ladders]
        calls.clear()
        cp.full_verification(fam, J, n_max=64)  # the lemma's level 8 is the floor
        assert calls == [("separation", 8)]


# the ten grid inputs that pass at degree 64, each to level 8
_GRID_PASSING = ["constant:1/4", "constant:1/5", "constant:1/6", "constant:0.1", "constant:0.05",
                 "periodic:1/4,1/100", "periodic:1/100,1/4", "list:1/1000,1/4",
                 "periodic:1/6,1/5", "periodic:2/9,1/4"]
_GAP_CASES = {**{desc: (range(1, 9), 8) for desc in _PAIRS + _GRID_PASSING},
              "constant:1/6": (range(1, 11), 10),
              # levels 5 and 6 work in decimal; degree 64 does not resolve in double
              "constant:0.001": ((5, 6), 5)}


class TestDyadicGapsAgainstTheOracle:
    """Every neighbour gap of the separation ladder, and every dyadic M_n the report prints,
    within 2e-15 relative of the decimal oracle (reference.zero_gaps), in double and
    extended levels alike: the tests-side form of the report's old cross-check of a dyadic
    M_n against the exact zero set."""

    @pytest.mark.parametrize("desc", sorted(_GAP_CASES))
    def test_every_gap_and_every_dyadic_m_n(self, desc):
        levels, top = _GAP_CASES[desc]
        fam = _family(desc)
        ladder = _separation_ladder(fam.gamma, max(levels))
        least = {}
        for m in levels:
            table = ladder[m - 1][0]
            gaps, want = spacing._ladder_gaps(table), zero_gaps(fam.gamma, m)
            assert gaps.size == want.size == 2 ** m - 1
            rel = relative_error(gaps, want)
            assert rel.max() <= 2e-15, (m, rel.max())
            assert np.array_equal(gaps, ladder_gaps(table))  # the sorted reading, too
            assert gaps.tobytes() == gaps[::-1].tobytes()  # mirror gaps, bit for bit
            least[2 ** m] = want.min()
        degrees = [2 ** m for m in range(1, top + 1)]
        report = cp.spacing_report(fam, cp.jacobi_for_gamma(fam, degrees[-1]), degrees)
        printed = {row.n: row.m_n for row in report.rows if row.n in least}
        assert printed and all(row.source == "both" for row in report.rows)
        for n, m_n in printed.items():
            assert relative_error(np.array([m_n]), np.array([least[n]]))[0] <= 2e-15, n


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

    def test_n_max_below_two_is_outside_the_degrees(self, fam_sixth, jacobi_sixth_small):
        with pytest.raises(DomainError, match=r"^n_max 1 outside \[2, 16\]$"):
            full_verification(fam_sixth, jacobi_sixth_small, n_max=1)

    def test_informational_entries_present(self, fam_periodic):
        J = cp.jacobi_for_gamma(fam_periodic, 16)
        result = full_verification(fam_periodic, J, n_max=16)
        severities = {e.check: e.severity for e in result.entries}
        assert severities["max_gap_sanity"] == "info"
        assert severities["dyadic_spacing_collapse"] == "info"
