"""The workloads, their inputs drawn from the seed, and their ops.

An op is one call through a public entry point: ``cantorpoly.cli.main``
in-process for the commands, ``spacing_report`` and ``exact_zeros`` for
the two jobs only the library offers. Entry points are looked up at call
time, so the wrappers of a traced run see every call. See README.md for
why each workload exists and which module it loads.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable

import cantorpoly as cp
from cantorpoly import cli

import oracles

SIZES = ("full", "smoke")
# the seeded periodic pair (p, q) takes p and q from these values
PAIR_VALUES = ("1/6", "1/5", "2/9", "1/4")


@dataclass
class Op:
    """One closed-loop operation and the check of its output.

    known_defect marks valid inputs on which the program fails today.
    Their failures count as failed ops but do not make the run
    incorrect, so the fix of a defect shows as a drop in failed ops
    while any other failure still marks the run incorrect.
    """

    label: str
    run: Callable[[Path], Any]
    check: Callable[[Any, Path], None]
    digest: Callable[[Any, Path], bytes]
    known_defect: bool = False


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def _run_cli(argv: list[str], out: Path) -> CliResult:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main([*argv, "--out", str(out)])
    return CliResult(code, stdout.getvalue(), stderr.getvalue())


def _cli_digest(result: CliResult, out: Path) -> bytes:
    """Exit code, verdict line and every output file, byte for byte."""
    parts = [str(result.code).encode(), result.stdout.encode()]
    if out.is_dir():
        for path in sorted(out.iterdir()):
            parts += [path.name.encode(), path.read_bytes()]
    return b"\0".join(parts)


def cli_op(label: str, argv: list[str], check, known_defect: bool = False) -> Op:
    return Op(label, partial(_run_cli, argv), check, _cli_digest, known_defect)


def _family(descriptor: str) -> cp.MapFamily:
    return cp.MapFamily(cp.GammaSequence.from_descriptor(descriptor))


def draw_inputs(seed: int) -> tuple[str, str, int]:
    """The seeded periodic pair as a descriptor, its minimum, and verify --seed."""
    rng = random.Random(seed)
    p, q = rng.choice(PAIR_VALUES), rng.choice(PAIR_VALUES)
    return f"periodic:{p},{q}", str(min(Fraction(p), Fraction(q))), rng.randrange(2 ** 31)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def verify_ops(seed: int, size: str) -> list[Op]:
    pair, _, verify_seed = draw_inputs(seed)
    degree, depth = (64, 8) if size == "full" else (8, 5)
    check = partial(oracles.check_verify, degree_max=degree)
    return [
        cli_op(f"verify {gamma}",
               ["verify", "--gamma", gamma, "--degree-max", str(degree), "--depth", str(depth),
                "--c", "1/6", "--seed", str(verify_seed)], check)
        for gamma in ("constant:1/6", pair)
    ]


def _sweep(fam, J, n_max, c, out):
    return cp.spacing_report(fam, J, range(2, n_max + 1), c)


def _report_digest(report, out) -> bytes:
    return repr([(r.n, r.m_n, r.pass_eq1, r.pass_eq2) for r in report.rows]).encode()


def sweep_ops(seed: int, size: str) -> list[Op]:
    pair, pair_min, _ = draw_inputs(seed)
    n_max = 256 if size == "full" else 16
    ops = []
    for gamma, c in ((pair, pair_min), ("constant:1/4", "1/4")):
        fam = _family(gamma)
        J = cp.jacobi_for_gamma(fam, n_max)
        quarter = gamma == "constant:1/4"
        ops.append(Op(f"sweep {gamma}", partial(_sweep, fam, J, n_max, Fraction(c)),
                      lambda rep, out, fam=fam, q=quarter: oracles.check_sweep(rep, fam, n_max, q),
                      _report_digest))
    return ops


def coeffs_ops(seed: int, size: str) -> list[Op]:
    pair, _, _ = draw_inputs(seed)
    K = 1024 if size == "full" else 64
    cases = [("constant:1/6", K, False), (pair, K, False), ("constant:1/4", K, False),
             # known defects: "nodes must be strictly increasing", exit 2
             ("constant:0.05", 256 if size == "full" else 64, True),
             ("constant:0.02", 64, True)]
    ops = []
    for gamma, k, defect in cases:
        check = partial(oracles.check_jacobi, fam=_family(gamma), K=k,
                        quarter=gamma == "constant:1/4")
        ops.append(cli_op(f"jacobi {gamma} K={k}",
                          ["jacobi", "--gamma", gamma, "--degree-max", str(k), "--depth", "14"],
                          check, defect))
    return ops


def _exact_zeros(fam, m, out):
    return cp.exact_zeros(fam, m, "auto")


def _zero_set_digest(zs, out) -> bytes:
    return zs.points.tobytes()


def zeros_ops(seed: int, size: str) -> list[Op]:
    pair, _, _ = draw_inputs(seed)
    full = size == "full"
    cases = [("constant:0.05", 4096, 14, False), ("constant:0.1", 8192, 15, False),
             # known defect: exits 0, but exact_zero_scalars sorts the dd zeros by
             # their double rounding, so zeros_d2048/4096.csv come out unsorted
             ("constant:0.02", 4096, 14, True),
             ("constant:1/4", 16384, 16, False), (pair, 16384, 16, False)]
    ops = []
    for gamma, degree, depth, defect in cases:
        if not full:
            degree, depth = 64, 8
        top_m = degree.bit_length() - 1
        check = partial(oracles.check_zeros, top_m=top_m, quarter=gamma == "constant:1/4")
        ops.append(cli_op(f"zeros {gamma} d={degree}",
                          ["zeros", "--gamma", gamma, "--degree-max", str(degree),
                           "--depth", str(depth), "--precision", "auto"], check, defect))
    # known defect: DomainError "zeros must be strictly increasing"
    m = 12 if full else 6
    ops.append(Op(f"exact_zeros constant:0.02 m={m}",
                  partial(_exact_zeros, _family("constant:0.02"), m),
                  lambda zs, out: oracles.check_zero_set(zs, m), _zero_set_digest,
                  known_defect=True))
    return ops


def coeffs_zeros_ops(seed: int, size: str) -> list[Op]:
    # the zeros ops alone vary too much from run to run on a shared host (their
    # pass time swings 3-5 s with the host's load); riding along with the
    # Lanczos ops they are still traced, and their share of wall_s is ~15%
    return coeffs_ops(seed, size) + zeros_ops(seed, size)


BUILDERS = {"verify": verify_ops, "sweep": sweep_ops, "coeffs_zeros": coeffs_zeros_ops}


def build(workload: str, seed: int, size: str) -> list[Op]:
    """The workload's set-up: draw its inputs and prepare its ops."""
    return BUILDERS[workload](seed, size)
