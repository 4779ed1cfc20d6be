"""End-to-end command-line behaviour and file contracts."""

import hashlib
import json
import math
from decimal import Decimal

import numpy as np
import pytest

import cantorpoly as cp
from cantorpoly import cli
from cantorpoly.cli import main
from cantorpoly.serialize import csv_text

from conftest import mpmath_critical_points, read_jacobi_csv, worst_relative_error


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestGeometryCommand:
    def test_quarter_scales(self, tmp_path):
        rc = main(["geometry", "--gamma", "constant:0.25", "--levels", "3",
                   "--out", str(tmp_path)])
        assert rc == 0
        header, rows = _read_csv(tmp_path / "scales.csv")
        assert header == ["s", "delta_s", "l_1s", "ratio"]
        s1 = rows[1]
        assert float(s1[1]) == 0.25
        assert float(s1[2]) == 0.5
        assert float(s1[3]) == 2.0 <= math.pi ** 2 / 4
        _, ivs = _read_csv(tmp_path / "intervals.csv")
        assert len(ivs) == 1 + 2 + 4 + 8
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["config"]["gamma"]["kind"] == "constant"
        assert meta["tool_version"] == cp.__version__

    def test_level_zero_only(self, tmp_path):
        rc = main(["geometry", "--gamma", "constant:0.2", "--levels", "0",
                   "--out", str(tmp_path)])
        assert rc == 0
        _, rows = _read_csv(tmp_path / "scales.csv")
        assert len(rows) == 1
        assert [float(v) for v in rows[0][:3]] == [0.0, 1.0, 1.0]

    def test_scales_below_the_doubles(self, tmp_path):
        # delta_s and l_1s of s >= 5 lie near 1e-401 and below, under the doubles: the
        # ratio is their exact quotient rounded once, 1 + ~1e-100, so 1.0
        assert main(["geometry", "--gamma", "list:1/4,1e-100", "--levels", "8",
                     "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "scales.csv")
        assert [int(r[0]) for r in rows] == list(range(9))
        assert [float(r[3]) for r in rows[5:]] == [1.0] * 4

    def test_malformed_gamma_exits_2(self, tmp_path):
        out = tmp_path / "sub"
        rc = main(["geometry", "--gamma", "constant:0.3", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_gamma_above_quarter_rejected_even_slightly(self, tmp_path):
        assert main(["geometry", "--gamma", "constant:0.2500001",
                     "--out", str(tmp_path)]) == 2

    def test_out_below_a_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["geometry", "--gamma", "constant:0.2", "--levels", "2",
                     "--out", str(blocker / "x")]) == 2
        assert "invalid input" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["geometry", "--gamma", "periodic:1/6,1/5",
                         "--levels", "4", "--out", str(out)]) == 0
        assert (a / "intervals.csv").read_bytes() == (b / "intervals.csv").read_bytes()
        assert (a / "scales.csv").read_bytes() == (b / "scales.csv").read_bytes()

    @pytest.mark.parametrize("desc, levels", [("periodic:2/9,1/4", 11), ("constant:0.02", 11),
                                              ("constant:0.001", 8)])
    def test_intervals_are_the_levels_one_at_a_time(self, tmp_path, desc, levels):
        # the command takes levels 1..L from one branch ladder, which carries
        # the doubling of level n - p into level n (at 0.02 in decimal too)
        assert main(["geometry", "--gamma", desc, "--levels", str(levels),
                     "--out", str(tmp_path)]) == 0
        gamma = cp.GammaSequence.from_descriptor(desc)
        rows = [(level, index, lo, hi) for level in range(levels + 1)
                for index, (lo, hi) in enumerate(cp.level_intervals(gamma, level), start=1)]
        want = csv_text(["level", "index", "lo", "hi"], list(zip(*rows)))
        assert (tmp_path / "intervals.csv").read_text() == want


class TestJacobiCommand:
    def test_chebyshev_recovery(self, tmp_path):
        rc = main(["jacobi", "--gamma", "constant:0.25", "--degree-max", "16",
                   "--depth", "8", "--out", str(tmp_path)])
        assert rc == 0
        J = read_jacobi_csv((tmp_path / "jacobi.csv").read_text())
        assert np.max(np.abs(J.b - 0.5)) < 1e-10
        assert abs(J.a[0] - math.sqrt(0.125)) < 1e-10
        assert np.max(np.abs(J.a[1:] - 0.25)) < 1e-10

    def test_single_coefficient(self, tmp_path):
        rc = main(["jacobi", "--gamma", "periodic:1/6,1/5", "--degree-max", "1",
                   "--depth", "6", "--out", str(tmp_path)])
        assert rc == 0
        J = read_jacobi_csv((tmp_path / "jacobi.csv").read_text())
        assert J.b.size == 1
        assert J.b[0] == pytest.approx(0.5, abs=1e-12)

    def test_depth_too_small_exits_2(self, tmp_path):
        rc = main(["jacobi", "--gamma", "constant:0.25", "--degree-max", "64",
                   "--depth", "5", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("gamma,degree", [("constant:0.02", "64"), ("constant:0.05", "256")])
    def test_small_gamma_succeeds(self, tmp_path, gamma, degree):
        rc = main(["jacobi", "--gamma", gamma, "--degree-max", degree,
                   "--depth", "14", "--out", str(tmp_path)])
        assert rc == 0
        J = read_jacobi_csv((tmp_path / "jacobi.csv").read_text())
        assert J.b.size == int(degree)


    @pytest.mark.parametrize("gamma,degree,depth", [
        pytest.param(gamma, degree, depth, id=gamma) for gamma, degree, depth in [
            ("list:1/4,1/1000", 1024, 12), ("periodic:1/1000000,1/4", 1024, 12),
            ("periodic:1/4,1/1000000", 4096, 14), ("periodic:1/4,1/100000000", 1024, 12),
            ("list:1/4,1/100000000", 64, 8), ("periodic:1/1000000000000,1/4", 1024, 12)]])
    def test_cancelling_gamma_succeeds(self, tmp_path, gamma, degree, depth):
        # in double the first wrote a_1023 = 7.45e-9 (true value 2.55e-13)
        # and the second raised ArithmeticError; the last four cancel more
        # digits than 50 hold, and the unfolding doubles them
        rc = main(["jacobi", "--gamma", gamma, "--degree-max", str(degree),
                   "--depth", str(depth), "--out", str(tmp_path)])
        assert rc == 0
        J = read_jacobi_csv((tmp_path / "jacobi.csv").read_text())
        assert J.b.size == degree
        if gamma == "list:1/4,1/1000":
            assert J.a[-1] == pytest.approx(math.sqrt(6.50e-26), rel=1e-2)


    def test_underflowing_coefficient_exits_1(self, tmp_path, capsys):
        # c_171 at gamma_2 = 1e-100 is below the smallest double: a numerical
        # failure, not an invalid input
        assert main(["jacobi", "--gamma", "periodic:1/4,1e-100", "--degree-max", "1024",
                     "--depth", "12", "--out", str(tmp_path)]) == 1
        assert "c_171 at level 1 underflows" in capsys.readouterr().err


class TestZerosCommand:
    def test_writes_dyadic_zero_files(self, tmp_path, fam_sixth):
        rc = main(["zeros", "--gamma", "constant:1/6", "--degree-max", "16",
                   "--depth", "6", "--out", str(tmp_path)])
        assert rc == 0
        for m in (1, 2, 3, 4):
            header, rows = _read_csv(tmp_path / f"zeros_d{2 ** m}.csv")
            assert header == ["index", "value"]
            got = np.array([float(r[1]) for r in rows])
            assert np.allclose(got, cp.exact_zeros(fam_sixth, m).points, atol=0)
        _, crit = _read_csv(tmp_path / "critical_l4.csv")
        assert len(crit) == 15

    def test_dd_outputs_strictly_increasing(self, tmp_path):
        # at gamma = 0.02 the deep zeros need dd; their double roundings
        # collide near the interval ends, so only an exact sort keeps order
        rc = main(["zeros", "--gamma", "constant:0.02", "--degree-max", "2048",
                   "--depth", "13", "--precision", "auto", "--out", str(tmp_path)])
        assert rc == 0
        for name in ("zeros_d2048.csv", "critical_l11.csv"):
            _, rows = _read_csv(tmp_path / name)
            values = [Decimal(r[1]) for r in rows]
            assert all(x < y for x, y in zip(values, values[1:])), name

    def test_tiny_gamma_zeros_need_more_than_34_digits(self, tmp_path):
        # at gamma = 0.001 the zeros of degree 4096 lie within 1e-36 of 0 and
        # 1; they are written at the 52 digits the precision rule gives m = 12,
        # with no --precision flag
        rc = main(["zeros", "--gamma", "constant:0.001", "--degree-max", "4096",
                   "--depth", "14", "--out", str(tmp_path)])
        assert rc == 0
        names = [f"zeros_d{2 ** m}.csv" for m in range(1, 13)] + ["critical_l12.csv"]
        for name in names:
            _, rows = _read_csv(tmp_path / name)
            values = [Decimal(r[1]) for r in rows]
            assert all(x < y for x, y in zip(values, values[1:])), name
            assert 0 < values[0] and values[-1] < 1, name
        _, rows = _read_csv(tmp_path / "zeros_d4096.csv")
        assert max(len(Decimal(r[1]).as_tuple().digits) for r in rows) == 52

    def test_one_branch_pass_per_level(self, tmp_path, monkeypatch):
        # one ladder gives every level's zeros; of the critical file's levels
        # 1..7 are double and 8..10 dd, so 1..7 come from one more ladder,
        # in level 10's precision, and all are placed by interlacing
        calls = []
        real = cp.exact.branch_value_ladder

        def counting(gamma, top, ts, depth=None):
            calls.append((top, depth))
            return real(gamma, top, ts, depth)

        monkeypatch.setattr(cp.exact, "branch_value_ladder", counting)
        rc = main(["zeros", "--gamma", "constant:0.02", "--degree-max", "2048",
                   "--depth", "13", "--precision", "auto", "--out", str(tmp_path)])
        assert rc == 0
        assert calls == [(11, None), (7, 10)]
        fam = cp.MapFamily(cp.GammaSequence.constant("0.02"))
        levels = cp.exact.exact_zero_ladder(fam, 10, depth=10)
        want = sorted([Decimal("0.5")] + [v for zs in levels for v in zs.values])
        _, rows = _read_csv(tmp_path / "critical_l11.csv")
        assert [Decimal(r[1]) for r in rows] == want
        # levels 8..10 are the same in both precisions, so their strings agree
        for m in range(8, 11):
            _, zrows = _read_csv(tmp_path / f"zeros_d{2 ** m}.csv")
            assert [r[1] for r in zrows] == [str(v) for v in levels[m - 1].values]

    def test_17_digit_roundtrip(self, tmp_path, fam_sixth):
        main(["zeros", "--gamma", "constant:1/6", "--degree-max", "4",
              "--depth", "5", "--out", str(tmp_path)])
        _, rows = _read_csv(tmp_path / "zeros_d4.csv")
        got = np.array([float(r[1]) for r in rows])
        assert np.array_equal(got, cp.exact_zeros(fam_sixth, 2).points)


class TestTinyGammaCriticalRows:
    @pytest.mark.parametrize("desc", ["periodic:1/1000000,1/4", "periodic:1/4,1/1000000"])
    def test_rows_match_mpmath(self, tmp_path, desc):
        # levels 1..9 mix double and decimal; a double level promoted to 34
        # digits was 1.9e-17 off and landed on the wrong side of a level-9
        # zero 8.8e-20 away; every level now works at level 9's 49 digits
        assert main(["zeros", "--gamma", desc, "--degree-max", "1024", "--depth", "12",
                     "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "critical_l10.csv")
        want = mpmath_critical_points(cp.GammaSequence.from_descriptor(desc), 10)
        assert worst_relative_error([r[1] for r in rows], want) <= 1e-30
        assert [int(r[0]) for r in rows] == list(range(1, 1024))


class TestVerifyCommand:
    def test_small_sweep_passes(self, tmp_path):
        rc = main(["verify", "--gamma", "constant:1/6", "--degree-max", "16",
                   "--depth", "7", "--c", "1/6",
                   "--out", str(tmp_path)])
        assert rc == 0
        header, rows = _read_csv(tmp_path / "spacing_report.csv")
        assert header[0] == "n" and len(rows) == 15
        assert all(r[7] == "true" for r in rows)
        assert all(r[8] == "true" for r in rows)
        payload = json.loads((tmp_path / "spacing_report.json").read_text())
        assert payload["passed"] is True
        assert payload["spacing"]["metadata"]["config"]["degree_max"] == 16

    def test_jacobi_file_flag_exits_2(self, tmp_path, capsys, fam_sixth):
        # verify unfolds its own coefficients and takes no coefficient file
        path = tmp_path / "jacobi.csv"
        path.write_text(cp.jacobi_for_gamma(fam_sixth, 8).to_csv())
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--gamma", "constant:1/6", "--degree-max", "8", "--depth", "6",
                  "--jacobi-file", str(path), "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jacobi-file" in capsys.readouterr().err

    def test_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["verify", "--gamma", "periodic:1/6,1/5",
                         "--degree-max", "8", "--depth", "6",
                         "--out", str(out)]) == 0
        assert (a / "spacing_report.csv").read_bytes() == (b / "spacing_report.csv").read_bytes()

    def test_separations_below_the_doubles_are_a_numerical_failure(self, tmp_path, capsys):
        # degree 2 solves at gamma_1 = 1/4, but the branch lemma's separations of
        # level 5 are about 1e-401: the double kernel refuses them, and no entry
        # passes on a separation rounded to 0
        assert main(["verify", "--gamma", "list:1/4,1e-100", "--degree-max", "2", "--depth", "3",
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == ("cantorpoly: numerical failure: a branch separation "
                                           "of level 5 leaves the normal doubles\n")

    @pytest.mark.parametrize("gamma, degree", [("constant:0.0001", 16),
                                               ("periodic:1/4,1/1000000", 43),
                                               ("constant:0.001", 64),
                                               ("periodic:1/1000000,1/4", 22)])
    def test_zeros_off_the_doubles_are_a_numerical_failure(self, tmp_path, capsys, gamma,
                                                            degree):
        # a valid gamma whose computed zeros fail the zero table's range check after the
        # solve: the first degree whose double zeros are not strictly increasing in (0, 1)
        assert main(["verify", "--gamma", gamma, "--degree-max", "64", "--depth", "8",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cantorpoly: numerical failure: ") and "invalid input" not in err
        assert f"degree {degree}" in err

    @pytest.mark.parametrize("gamma", ["list:1/4,1e-43", "list:1/4,1e-42"])
    def test_level_nine_is_not_range_checked(self, tmp_path, capsys, gamma):
        # the lemma's levels 1..8 keep normal doubles, level 9's separations would
        # not (about 1e-345 and 1e-337): only its all-L l_{1,9} is pulled, unchecked
        assert main(["verify", "--gamma", gamma, "--degree-max", "2", "--depth", "3",
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_tiny_declared_c_passes(self, tmp_path):
        # c = 1e-200 lies in (0, inf gamma]; c^2 underflows to 0 in double, and
        # delta_s / c^2 lies above the double range, so each upper bound is inf
        assert main(["verify", "--gamma", "constant:1/6", "--degree-max", "4", "--depth", "4",
                     "--c", "1e-200", "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "spacing_report.csv")
        assert len(rows) == 3
        assert all(r[header.index("pass_eq2")] == "true" for r in rows)
        assert all(math.isinf(float(r[header.index("upper_eq2")])) for r in rows)
        payload = json.loads((tmp_path / "spacing_report.json").read_text())
        assert [r["pass_eq2"] for r in payload["spacing"]["rows"]] == [True] * 3

    def test_json_is_strict_with_infinite_bounds(self, tmp_path):
        # the upper bounds of eq. 2 are inf at c = 1e-200: null in the JSON
        assert main(["verify", "--gamma", "constant:1/6", "--degree-max", "4", "--depth", "4",
                     "--c", "1e-200", "--out", str(tmp_path)]) == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = (tmp_path / "spacing_report.json").read_text()
        rows = json.loads(text, parse_constant=reject)["spacing"]["rows"]
        assert [r["upper_eq2"] for r in rows] == [None] * 3
        assert [r["pass_eq2"] for r in rows] == [True] * 3

    def test_seed_changes_no_output(self, tmp_path):
        # no check samples: --seed is recorded in config and read by nothing
        outs = [tmp_path / "s1", tmp_path / "s2"]
        for seed, out in zip(("1", "2"), outs):
            assert main(["verify", "--gamma", "constant:1/6", "--degree-max", "16",
                         "--depth", "6", "--seed", seed, "--out", str(out)]) == 0
        assert len({(out / "spacing_report.csv").read_bytes() for out in outs}) == 1
        payloads = [json.loads((out / "spacing_report.json").read_text()) for out in outs]
        configs = [p["spacing"]["metadata"]["config"] for p in payloads]
        assert [(c.pop("seed"), c.pop("out")) for c in configs] == [(1, str(outs[0])),
                                                                     (2, str(outs[1]))]
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("degree_max, depth", [("2", "3"), ("3", "4")])
    def test_degree_max_below_four_passes(self, tmp_path, degree_max, depth):
        # the informational max-gap check must stay within degree-max
        assert main(["verify", "--gamma", "constant:1/6", "--degree-max", degree_max,
                     "--depth", depth, "--out", str(tmp_path)]) == 0

    def test_degree_max_one_is_refused_before_the_matrix(self, tmp_path, capsys):
        assert main(["verify", "--gamma", "constant:1/6", "--degree-max", "1",
                     "--depth", "4", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == ("cantorpoly: invalid input: degree-max must be at "
                                           "least 2 for the verify command\n")
        assert not any(tmp_path.iterdir())


# sha256 of every CSV a small run writes, taken before the CSV writer became
# columnar; run.json is left out because it embeds --out. critical_l11.csv
# was re-pinned when every level of a critical set moved to its deepest
# level's precision: levels 1..9 are now 34-digit decimals instead of
# promoted doubles, every row within 1.2e-33 relative of 60-digit mpmath.
# zeros_d64..d512.csv and intervals.csv were re-pinned when the double letter R
# pull formed its root argument without cancelling: only double levels moved.
# Against a 60-digit pass, 39 of the 41 moved zeros came closer and two moved
# within 1.02 ulps (no level's worst error changed), and all 7 moved interval
# ends came closer (at most 3.5e-18 off before, 1.1e-18 after). scales.csv was
# re-pinned when its ratio became the exact quotient l_1s / delta_s rounded
# once: only the ratio of s = 8, a decimal level, moved, by one ulp, from 0.62
# to 0.38 ulps off the exact quotient
PINNED_OUTPUTS = {
    "zeros": (
        ["zeros", "--gamma", "constant:0.05", "--degree-max", "2048", "--depth", "13",
         "--precision", "auto"],
        {
            "critical_l11.csv": "36caddd684a2c014d0d31d292fde355528b28da2e10830730b95c32cf01cf544",
            "zeros_d2.csv": "0366c459900564e550cde2c8e79498942cb3cc848c03d0eb4192c810f5569240",
            "zeros_d4.csv": "17273050371638296c8b5dc96ad60e6aebbbb811d22c1597f1a918308856e2a3",
            "zeros_d8.csv": "98053a99726f25bea34395c051d1a4a45c748459cd5ba3cdd70329ba2396e268",
            "zeros_d16.csv": "6b7b1eb5a54b2b216052f00d9755244e0c4c8ceab99844a50580d2f232b4620e",
            "zeros_d32.csv": "260cbb9b2ed103d26685a9f042b1f64e845f0bbac536493eddc7871e50030f88",
            "zeros_d64.csv": "e3701aac929ce7f2a37e0d9650d81ff83117609d62c15af4d08002e5fe6cfc90",
            "zeros_d128.csv": "30ab80ad3b9f99c32c29c922dde08874c2f297cbbfa92ea8050541e9b4985607",
            "zeros_d256.csv": "bb5dcdf83d1f3b6a8f04c7331d05e4588b8f46a570fc292da15288711e842ea1",
            "zeros_d512.csv": "bfc877212eea8e48ed04ef908a0419e07d5500d398cb326fdc3456c9954d1c77",
            "zeros_d1024.csv": "5ec3805e98015c6d437318c185ca4691b68320ab3262b59fe98e234bd097d95f",
            "zeros_d2048.csv": "874b9e5b82fc2ffefafde76ee5b53350d2ec0761aa11bb380b6d21aab7cec8ad",
        },
    ),
    "jacobi": (
        ["jacobi", "--gamma", "constant:1/6", "--degree-max", "64", "--depth", "8"],
        {"jacobi.csv": "acc60fa39114d4644868bce1e6c5f506bea62442d07006ab9fd2ae94e5b7a8c5"},
    ),
    "geometry": (
        ["geometry", "--gamma", "constant:0.02", "--levels", "8", "--precision", "auto"],
        {
            "intervals.csv": "be794047c0ae887c2fec06c167ac8f7956aa762dd732a3b97e850b324cf6f9b4",
            "scales.csv": "8aa57c51bb05187d4e6964aff3bee50b1d19dd2b8e60117bc1bcc01cec2e44f8",
        },
    ),
    # M_n at non-dyadic n comes from the dqds singular values (dlasq1) of
    # the half-size bidiagonal, so its last ~2 digits follow that solve;
    # re-pinned when each even degree moved to its own level of the tower:
    # M_6, M_10, M_12 and M_14 moved, each closer to a 60-digit reference
    # (M_12 from 2.2e-15 to 3.7e-17 relative), and no other row changed;
    # re-pinned when each dyadic M_n became the least neighbour gap of the
    # separation ladder: M_4, M_8 and M_16 moved with their margins, each
    # closer to an 80-digit mpmath doubling (relative error 1.1e-16 -> 4.9e-17,
    # 1.5e-16 -> 3.0e-17 and 5.0e-15 -> 6.6e-17), and no verdict moved
    "verify": (
        ["verify", "--gamma", "constant:1/6", "--degree-max", "16"],
        {"spacing_report.csv": "94238696cc0bb8fc1b3a8b4840dc7e131490788c06594b445b615e5717f86db2"},
    ),
    # with c declared, so that the eq. 2 columns are filled too; taken before the
    # report held columns in place of one record per degree; re-pinned when each
    # dyadic M_n became the least neighbour gap of the separation ladder: M_4, M_8,
    # M_16, M_32, M_128 and M_256 moved with their margins, each closer to an
    # 80-digit mpmath doubling (M_256 from 6.9e-12 to 2.0e-16 relative, M_128 from
    # 2.4e-12 to 2.6e-16), M_2 and M_64 kept their bits, and no verdict moved
    "verify_c": (
        ["verify", "--gamma", "constant:1/6", "--degree-max", "256", "--depth", "10", "--c", "1/6"],
        {"spacing_report.csv": "cac60302f1acb3fa5b2d1140503eee519bd10579cded9c706b5814cadd40c071"},
    ),
}


VERIFY_JSON_SHA256 = "ea655b173d2d5534bf815ea7894332b9030d54f575f44e8b00db312ef6822d11"


class TestPinnedOutputBytes:
    @pytest.mark.parametrize("command", sorted(PINNED_OUTPUTS))
    def test_csv_sha256(self, tmp_path, command):
        argv, expected = PINNED_OUTPUTS[command]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.glob("*.csv")}
        assert written == expected

    def test_verify_json_sha256(self, tmp_path):
        # every check entry of a small run, taken before the dyadic zero and
        # critical sets were cached per run, re-pinned when config.precision
        # became "auto" and metadata.precision_mode went, again when the
        # half-size solve moved to dqds, when the JSON went compact (its
        # json.loads unchanged), and when config.jacobi_file and then
        # config.tol_zero went (each time the old bytes less that key's
        # '"<key>": null' entry are the new), and when the sampled distance
        # and second-neighbour entries became one exhaustive entry each
        # (json.loads of the old and new bytes less those entries are
        # equal), and when each even degree moved to its own level of the
        # tower (the four moved M_n of the CSV, their margins, the mirror
        # pair that min_pair names at n = 10, and the distance bound's worst
        # ratio, which the moved zeros give), and when the 15
        # critical_distance_bound entries went (json.loads of the old bytes
        # less those entries equals the new), and when the branch lemma's
        # separations came from the double kernel (the rhs of levels 2..8
        # moved, each by at most 6.3e-16 relative of the decimal one, and
        # json.loads of the old and new bytes with those rhs set equal are
        # equal), and when d(Z, Y) came from the separation ladder's centre
        # distances (the lhs of levels 2..8 moved, each to within 1e-15
        # relative of the decimal d(Z, Y), against up to 1.1e-11 before, and
        # json.loads of the old and new bytes with those lhs set equal are
        # equal), and when the escalated_degrees key and each row's escalated
        # field went (json.loads of the old bytes less those equals the new),
        # and when each dyadic M_n became the least neighbour gap of the
        # separation ladder (M_4, M_8 and M_16 moved, each closer to an
        # 80-digit mpmath doubling, with their margin_lo, M_16's margin_hi and
        # the dyadic collapse's values; M_16's min_pair moved from the top
        # edge's (14, 15) to its bit-equal mirror (0, 1); json.loads of the
        # old and new bytes with those set equal are equal); config.out is
        # normalised
        assert main(["verify", "--gamma", "constant:1/6", "--degree-max", "16",
                     "--out", str(tmp_path)]) == 0
        raw = (tmp_path / "spacing_report.json").read_bytes()
        normalised = raw.replace(json.dumps(str(tmp_path)).encode(), b'"OUT"')
        assert normalised != raw
        assert hashlib.sha256(normalised).hexdigest() == VERIFY_JSON_SHA256


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "gamma": {"kind": "constant", "values": ["1/6"]},
            "levels": 2,
            "degree_max": 8,
            "depth": 6,
        }))
        out = tmp_path / "out"
        rc = main(["geometry", "--config", str(cfg), "--levels", "3",
                   "--out", str(out)])
        assert rc == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["config"]["levels"] == 3

    def test_gamma_descriptor_file(self, tmp_path):
        desc = tmp_path / "gamma.json"
        desc.write_text(json.dumps({"kind": "periodic", "values": ["1/6", "1/5"]}))
        rc = main(["geometry", "--gamma", str(desc), "--levels", "2",
                   "--out", str(tmp_path / "out")])
        assert rc == 0

    @pytest.mark.parametrize("flags", [
        ["--gamma", "constant:abc"], ["--gamma", "constant:1/0"],
        ["--gamma", "constant:inf"], ["--gamma", "constant:nan"],
        ["--gamma", "constant:1/6", "--c", "abc"], ["--gamma", "constant:1/6", "--c", "nan"],
        ["--gamma", "constant:1/6", "--c", "1/0"],
    ])
    def test_malformed_number_exits_2(self, tmp_path, flags):
        assert main(["verify", *flags, "--degree-max", "4", "--depth", "4",
                     "--out", str(tmp_path)]) == 2

    def test_non_finite_json_number_exits_2(self, tmp_path):
        # JSON admits NaN and Infinity as bare numbers
        gamma = tmp_path / "gamma.json"
        gamma.write_text('{"kind": "constant", "values": [NaN]}')
        cfg = tmp_path / "run.json"
        cfg.write_text('{"gamma": "constant:1/6", "degree_max": 4, "depth": 4, "c": Infinity}')
        assert main(["verify", "--gamma", str(gamma), "--degree-max", "4", "--depth", "4",
                     "--out", str(tmp_path)]) == 2
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["zeros", "--gamma", "constant:0.02", "--degree-max", "4096", "--depth", "14"],
        ["geometry", "--gamma", "constant:0.001", "--levels", "8"],
    ])
    def test_small_gamma_needs_no_precision_flag(self, tmp_path, argv):
        # a forced double once rounded the extreme zeros and endpoints to 1
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "run.json").read_text())["config"]["precision"] == "auto"

    def test_missing_gamma_exits_2(self, tmp_path):
        assert main(["geometry", "--out", str(tmp_path)]) == 2

    def test_bad_tolerance_exits_2(self, tmp_path, capsys):
        # the zero tolerance is no setting: the computed residual bound is
        # the only one, and neither the flag nor the config key is accepted
        for command in ("verify", "zeros"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--gamma", "constant:1/6", "--degree-max", "8", "--depth", "6",
                      "--tol-zero", "1e-3", "--out", str(tmp_path)])
            assert exc.value.code == 2
            assert "unrecognized arguments: --tol-zero" in capsys.readouterr().err
            for tol in (None, 1e-3):
                cfg = tmp_path / "run.json"
                cfg.write_text(json.dumps({"gamma": "constant:1/6", "degree_max": 16, "depth": 6,
                                           "tol_zero": tol}))
                assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2, tol
                assert "tol_zero" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, embedded", [
        (["geometry", "--gamma", "constant:1/6", "--levels", "3"], ("run.json",)),
        (["verify", "--gamma", "constant:1/6", "--degree-max", "16", "--depth", "6", "--c", "1/6"],
         ("spacing_report.json", "spacing", "metadata")),
    ])
    def test_embedded_config_round_trips(self, tmp_path, argv, embedded):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(argv + ["--out", str(first)]) == 0
        meta = json.loads((first / embedded[0]).read_text())
        for key in embedded[1:]:
            meta = meta[key]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(meta["config"]))
        assert main([argv[0], "--config", str(cfg), "--out", str(second)]) == 0
        csvs = sorted(p.name for p in first.glob("*.csv"))
        assert csvs and csvs == sorted(p.name for p in second.glob("*.csv"))
        for name in csvs:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_config_of_another_command_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"command": "geometry", "gamma": "constant:1/6", "levels": 3}))
        assert main(["verify", "--config", str(cfg), "--degree-max", "8", "--depth", "6",
                     "--out", str(tmp_path)]) == 2
        assert "the config is for command 'geometry', not 'verify'" in capsys.readouterr().err

    def test_removed_trials_key_exits_2(self, tmp_path):
        # every removed knob: trials, tol_stab, jacobi_file and every precision but auto
        assert main(["verify", "--gamma", "constant:1/6", "--degree-max", "8", "--depth", "6",
                     "--precision", "double", "--out", str(tmp_path)]) == 2
        for key, value in (("trials", 10), ("tol_stab", 1e-10), ("jacobi_file", "jacobi.csv"),
                           ("precision", "double")):
            cfg = tmp_path / f"run_{key}.json"
            cfg.write_text(json.dumps({
                "gamma": {"kind": "constant", "values": ["1/6"]},
                "degree_max": 8,
                "depth": 6,
                key: value,
            }))
            assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2, key

    @pytest.mark.parametrize("key, value", [
        ("depth", 5.5), ("levels", True), ("levels", 2.0), ("degree_max", True),
        ("degree_max", 8.0), ("seed", True), ("seed", 1.5),
    ])
    def test_non_integer_count_exits_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"gamma": "constant:1/6", "degree_max": 8, "depth": 6,
                                   key: value}))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"{key} must be an integer" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert main(["verify", "--gamma", "constant:1/6", "--degree-max", "8", "--depth", "6",
                     "--seed", "-1", "--out", str(tmp_path)]) == 2
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"gamma": "constant:1/6", "degree_max": 8, "depth": 6,
                                   "seed": -1}))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.count("seed must be non-negative") == 2

    @pytest.mark.parametrize("text", ['["abc"]', '[["depth", 6]]', '"constant:1/6"'])
    def test_config_that_is_no_object_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        assert main(["verify", "--config", str(cfg), "--gamma", "constant:1/6",
                     "--degree-max", "8", "--depth", "6", "--out", str(tmp_path)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("c, message", [
        ("0", "declared c = 0 must lie in (0, inf gamma] = (0, 1/6]"),
        ("-1", "declared c = -1 must lie in (0, inf gamma] = (0, 1/6]"),
        ("1/5", "declared c = 1/5 exceeds the materialized infimum"),
    ])
    def test_declared_c_outside_its_range_exits_2(self, tmp_path, capsys, c, message):
        assert main(["verify", "--gamma", "constant:1/6", "--c", c, "--degree-max", "8",
                     "--depth", "6", "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("error", [TypeError, KeyError])
    def test_an_error_inside_a_command_propagates(self, monkeypatch, tmp_path, error):
        # only the config's KeyError and TypeError mean invalid input; raised inside a
        # command they are a fault of the program and propagate
        def broken(cfg):
            raise error("inside the command")

        monkeypatch.setitem(cli._COMMANDS, "verify", broken)
        with pytest.raises(error, match="inside the command"):
            main(["verify", "--gamma", "constant:1/6", "--degree-max", "8", "--depth", "6",
                  "--out", str(tmp_path)])

    def test_safety_margin_enforced(self, tmp_path):
        assert main(["verify", "--gamma", "constant:1/6", "--degree-max", "20",
                     "--depth", "6", "--out", str(tmp_path)]) == 2
