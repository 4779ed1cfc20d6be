"""End-to-end command-line behaviour and file contracts."""

import json
import math
from decimal import Decimal

import numpy as np
import pytest

import cantorpoly as cp
from cantorpoly.cli import main


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

    def test_malformed_gamma_exits_2(self, tmp_path):
        out = tmp_path / "sub"
        rc = main(["geometry", "--gamma", "constant:0.3", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_gamma_above_quarter_rejected_even_slightly(self, tmp_path):
        assert main(["geometry", "--gamma", "constant:0.2500001",
                     "--out", str(tmp_path)]) == 2

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["geometry", "--gamma", "periodic:1/6,1/5",
                         "--levels", "4", "--out", str(out)]) == 0
        assert (a / "intervals.csv").read_bytes() == (b / "intervals.csv").read_bytes()
        assert (a / "scales.csv").read_bytes() == (b / "scales.csv").read_bytes()


class TestJacobiCommand:
    def test_chebyshev_recovery(self, tmp_path):
        rc = main(["jacobi", "--gamma", "constant:0.25", "--degree-max", "16",
                   "--depth", "8", "--out", str(tmp_path)])
        assert rc == 0
        J = cp.JacobiMatrix.from_csv((tmp_path / "jacobi.csv").read_text())
        assert np.max(np.abs(J.b - 0.5)) < 1e-10
        assert abs(J.a[0] - math.sqrt(0.125)) < 1e-10
        assert np.max(np.abs(J.a[1:] - 0.25)) < 1e-10

    def test_single_coefficient(self, tmp_path):
        rc = main(["jacobi", "--gamma", "periodic:1/6,1/5", "--degree-max", "1",
                   "--depth", "6", "--out", str(tmp_path)])
        assert rc == 0
        J = cp.JacobiMatrix.from_csv((tmp_path / "jacobi.csv").read_text())
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
        J = cp.JacobiMatrix.from_csv((tmp_path / "jacobi.csv").read_text())
        assert J.b.size == int(degree)


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

    def test_17_digit_roundtrip(self, tmp_path, fam_sixth):
        main(["zeros", "--gamma", "constant:1/6", "--degree-max", "4",
              "--depth", "5", "--out", str(tmp_path)])
        _, rows = _read_csv(tmp_path / "zeros_d4.csv")
        got = np.array([float(r[1]) for r in rows])
        assert np.array_equal(got, cp.exact_zeros(fam_sixth, 2).points)


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

    def test_corrupted_jacobi_file_exits_2(self, tmp_path, fam_sixth):
        # one a_3 with its sign flipped, and one a_3 that is nan
        J = cp.jacobi_for_gamma(fam_sixth, 8)
        for name, corrupt in (("sign", lambda a: str(-float(a))), ("nan", lambda a: "nan")):
            lines = J.to_csv().strip().splitlines()
            k, a, b = lines[3].split(",")
            lines[3] = ",".join([k, corrupt(a), b])
            bad = tmp_path / f"jacobi_{name}.csv"
            bad.write_text("\n".join(lines) + "\n")
            rc = main(["verify", "--gamma", "constant:1/6", "--degree-max", "8",
                       "--depth", "6", "--jacobi-file", str(bad), "--out", str(tmp_path)])
            assert rc == 2, name

    def test_valid_jacobi_file_accepted(self, tmp_path, fam_sixth):
        J = cp.jacobi_for_gamma(fam_sixth, 8)
        path = tmp_path / "jacobi.csv"
        path.write_text(J.to_csv())
        rc = main(["verify", "--gamma", "constant:1/6", "--degree-max", "8",
                   "--depth", "6", "--jacobi-file", str(path),
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["verify", "--gamma", "periodic:1/6,1/5",
                         "--degree-max", "8", "--depth", "6",
                         "--out", str(out)]) == 0
        assert (a / "spacing_report.csv").read_bytes() == (b / "spacing_report.csv").read_bytes()


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

    def test_missing_gamma_exits_2(self, tmp_path):
        assert main(["geometry", "--out", str(tmp_path)]) == 2

    def test_bad_tolerance_exits_2(self, tmp_path):
        assert main(["verify", "--gamma", "constant:1/6", "--degree-max", "8",
                     "--depth", "6", "--tol-zero", "-1", "--out", str(tmp_path)]) == 2

    def test_removed_trials_key_exits_2(self, tmp_path):
        # every removed knob: trials and tol_stab
        for key, value in (("trials", 10), ("tol_stab", 1e-10)):
            cfg = tmp_path / f"run_{key}.json"
            cfg.write_text(json.dumps({
                "gamma": {"kind": "constant", "values": ["1/6"]},
                "degree_max": 8,
                "depth": 6,
                key: value,
            }))
            assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2, key

    def test_safety_margin_enforced(self, tmp_path):
        assert main(["verify", "--gamma", "constant:1/6", "--degree-max", "20",
                     "--depth", "6", "--out", str(tmp_path)]) == 2
