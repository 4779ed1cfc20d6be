"""Output checks for every benchmark op, built on independent oracles.

Each check raises CheckFailed with a one-line reason. The oracles do not
reuse the code path under test: coefficients are checked against the
closed form at gamma = 1/4 and, elsewhere, by a LAPACK eigensolve of
their truncations against the exact dyadic branch zeros; zero files are
checked against the Chebyshev closed form at gamma = 1/4, their mirror
symmetry about 1/2 and Rolle interlacing with the critical set; spacing
sweeps against sin(pi/n) sin(pi/2n) at gamma = 1/4 and the exact dyadic
zeros elsewhere.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from pathlib import Path

import numpy as np

import cantorpoly as cp

COEFF_TOL = 1e-10          # |a_k, b_k - closed form| at gamma = 1/4, |b_k - 1/2|
COEFF_EIG_TOL = 1e-12      # LAPACK zeros of J_n against the exact dyadic zeros
COEFF_EIG_MAX_M = 8        # eigen-oracle degrees 2, 4, ..., 256
CHEBYSHEV_ZERO_TOL = 1e-12
SPACING_REL_TOL = 1e-9
# z_k + z_{n+1-k} = 1 up to the rounding of the written digits: 17
# significant digits for double files, 34 for double-double files
SYMMETRY_TOL = {17: Decimal("1e-15"), 34: Decimal("1e-30")}


class CheckFailed(Exception):
    """An op's output disagrees with its oracle."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    require(path.is_file(), f"missing output {path.name}")
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def chebyshev_zeros(n: int) -> np.ndarray:
    """Zeros of the degree-n Chebyshev polynomial mapped onto [0, 1]."""
    j = np.arange(1, n + 1)
    return np.sort((1.0 + np.cos((2.0 * j - 1.0) * np.pi / (2.0 * n))) / 2.0)


def chebyshev_min_gap(n: int) -> float:
    return math.sin(math.pi / n) * math.sin(math.pi / (2 * n))


def exact_min_gap(fam: cp.MapFamily, m: int) -> float:
    return float(np.min(np.diff(cp.exact_zeros(fam, m).points)))


def check_cli_exit(result) -> None:
    require(result.code == 0, f"exit {result.code}: {result.stderr.strip()[:160]}")


# ---------------------------------------------------------------------------
# per-op checks
# ---------------------------------------------------------------------------

def check_verify(result, out: Path, degree_max: int) -> None:
    check_cli_exit(result)
    require("verify: PASS" in result.stdout, f"verdict line {result.stdout.strip()!r}")
    header, rows = read_csv(out / "spacing_report.csv")
    require(len(rows) == degree_max - 1, f"{len(rows)} spacing rows, expected {degree_max - 1}")
    verdicts = [i for i, h in enumerate(header) if h.startswith("pass_")]
    require(len(verdicts) == 2, f"verdict columns {header}")
    bad = [r[0] for r in rows if any(r[i] != "true" for i in verdicts)]
    require(not bad, f"verdicts not true at n = {bad[:5]}")
    report = json.loads((out / "spacing_report.json").read_text())
    require(report["passed"] is True, "spacing_report.json says not passed")


def check_jacobi(result, out: Path, fam: cp.MapFamily, K: int, quarter: bool) -> None:
    check_cli_exit(result)
    _, rows = read_csv(out / "jacobi.csv")
    require(len(rows) == K, f"{len(rows)} coefficient rows, expected {K}")
    require(rows[-1][1] == "", "a_K present at the truncation limit")
    a = np.array([float(r[1]) for r in rows[:-1]])
    b = np.array([float(r[2]) for r in rows])
    # K(gamma) is symmetric about 1/2 for every gamma
    require(np.max(np.abs(b - 0.5)) <= COEFF_TOL, f"max |b_k - 1/2| = {np.max(np.abs(b - 0.5)):.3g}")
    require(np.all((a > 0) & (a < 1)), "a_k outside (0, 1)")
    if quarter:
        ref = np.full(a.size, 0.25)
        ref[0] = math.sqrt(0.125)
        err = np.max(np.abs(a - ref))
        require(err <= COEFF_TOL, f"max |a_k - Chebyshev a_k| = {err:.3g}")
    for m in range(1, min(int(math.log2(K)), COEFF_EIG_MAX_M) + 1):
        n = 2 ** m
        J = np.diag(b[:n]) + np.diag(a[: n - 1], 1) + np.diag(a[: n - 1], -1)
        err = np.max(np.abs(np.linalg.eigvalsh(J) - cp.exact_zeros(fam, m).points))
        require(err <= COEFF_EIG_TOL, f"J_{n} eigenvalues miss the exact zeros by {err:.3g}")


def _decimal_column(path: Path, count: int) -> list[Decimal]:
    _, rows = read_csv(path)
    require(len(rows) == count, f"{path.name}: {len(rows)} values, expected {count}")
    vals = [Decimal(r[1]) for r in rows]
    require(all(x < y for x, y in zip(vals, vals[1:])), f"{path.name}: not strictly increasing")
    require(0 < vals[0] and vals[-1] < 1, f"{path.name}: values outside (0, 1)")
    return vals


def _check_mirror(name: str, vals: list[Decimal]) -> None:
    digits = max(len(v.as_tuple().digits) for v in vals)
    tol = SYMMETRY_TOL[34] if digits > 17 else SYMMETRY_TOL[17]
    worst = max(abs(x + y - 1) for x, y in zip(vals, reversed(vals)))
    require(worst <= tol, f"{name}: mirror residual {worst:.3g} > {tol}")


def check_zeros(result, out: Path, top_m: int, quarter: bool) -> None:
    check_cli_exit(result)
    zeros = None
    for m in range(1, top_m + 1):
        name = f"zeros_d{2 ** m}.csv"
        zeros = _decimal_column(out / name, 2 ** m)
        _check_mirror(name, zeros)
        if quarter:
            err = np.max(np.abs(np.array([float(v) for v in zeros]) - chebyshev_zeros(2 ** m)))
            require(err <= CHEBYSHEV_ZERO_TOL, f"{name}: off Chebyshev zeros by {err:.3g}")
    crit = _decimal_column(out / f"critical_l{top_m}.csv", 2 ** top_m - 1)
    # Rolle: one critical point strictly between consecutive zeros
    require(all(zeros[k] < crit[k] < zeros[k + 1] for k in range(len(crit))),
            "top-level zeros and critical points do not interlace")


def check_zero_set(zs, m: int) -> None:
    n = 2 ** m
    require(zs.degree == n and zs.points.size == n, f"{zs.points.size} zeros, expected {n}")
    pts = zs.points
    require(np.all(np.diff(pts) >= 0), "zeros not sorted")
    require(pts[0] > 0 and pts[-1] < 1, "zeros outside (0, 1)")
    worst = float(np.max(np.abs(pts + pts[::-1] - 1.0)))
    require(worst <= 4 * np.finfo(float).eps, f"mirror residual {worst:.3g}")


def check_sweep(report, fam: cp.MapFamily, n_max: int, quarter: bool) -> None:
    require(report.all_pass, "spacing report does not pass")
    ns = [r.n for r in report.rows]
    require(ns == list(range(2, n_max + 1)), f"{len(ns)} rows, expected {n_max - 1}")
    for r in report.rows:
        if quarter:
            ref = chebyshev_min_gap(r.n)
        elif r.n & (r.n - 1) == 0:
            ref = exact_min_gap(fam, r.n.bit_length() - 1)
        else:
            continue
        rel = abs(r.m_n - ref) / ref
        require(rel <= SPACING_REL_TOL, f"M_{r.n} = {r.m_n!r} vs oracle {ref!r} (rel {rel:.3g})")
