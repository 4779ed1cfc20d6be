"""Command-line front end.

Four commands over a shared configuration:

    geometry   write intervals.csv and scales.csv for the pre-Cantor levels
    jacobi     write the recurrence coefficients of mu_gamma
    zeros      write exact zero/critical sets at dyadic degrees
    verify     run the full spacing verification suite

Configuration comes from an optional JSON file (--config) with flag
overrides; every run writes the resolved configuration into its JSON
output so results are reproducible from the artifact alone. Exit codes:
0 success / all checks passed, 1 internal numerical failure or failed
verification, 2 invalid input, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .ddouble import DoubleDouble
from .errors import ConvergenceError, DomainError, RangeOverflowError
from .exact import MapFamily, exact_zero_scalars, exact_zeros, monic_opoly_exact
from .geometry import GammaSequence, level_intervals, scale_rows
from .jacobi import JacobiMatrix, jacobi_for_gamma
from .serialize import atomic_write_text, write_csv, write_json
from .spacing import full_verification

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3

_PRECISION_ALIASES = {"double": "double", "double-double": "dd", "dd": "dd", "auto": "auto"}


@dataclass
class RunConfig:
    command: str
    gamma: dict
    levels: int = 6
    degree_max: int = 64
    depth: int = 10
    precision: str = "double"
    c: str | None = None
    out: str = "."
    tol_zero: float | None = None
    seed: int = 20240601
    jacobi_file: str | None = None

    def validate(self):
        if self.command not in ("geometry", "jacobi", "zeros", "verify"):
            raise DomainError(f"unknown command {self.command!r}")
        if self.levels < 0 or self.degree_max < 1 or self.depth < 1:
            raise DomainError("levels, degree-max and depth must be positive")
        if self.degree_max > 2 ** (self.depth - 2):
            raise DomainError(
                f"degree-max {self.degree_max} violates the safety margin "
                f"degree-max <= 2^(depth-2) = {2 ** (self.depth - 2)}"
            )
        if self.tol_zero is not None and self.tol_zero <= 0:
            raise DomainError("tol_zero must be positive")
        if self.precision not in _PRECISION_ALIASES:
            raise DomainError(f"unknown precision mode {self.precision!r}")

    @property
    def mode(self) -> str:
        return _PRECISION_ALIASES[self.precision]

    def gamma_sequence(self) -> GammaSequence:
        return GammaSequence.from_descriptor(self.gamma)

    def as_json(self) -> dict:
        return asdict(self)


def _parse_gamma_arg(arg: str) -> dict:
    path = Path(arg)
    if path.suffix == ".json" or path.exists():
        with open(path) as fh:
            desc = json.load(fh)
        return GammaSequence.from_descriptor(desc).descriptor()
    return GammaSequence.from_descriptor(arg).descriptor()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorpoly",
        description="Cantor-set orthogonal polynomials and zero-spacing checks",
    )
    parser.add_argument("command", choices=["geometry", "jacobi", "zeros", "verify"])
    parser.add_argument("--config", help="JSON config file; flags override its entries")
    parser.add_argument("--gamma", help="descriptor string (kind:v1,v2,...) or JSON file")
    parser.add_argument("--levels", type=int, help="maximum pre-Cantor level")
    parser.add_argument("--degree-max", type=int, dest="degree_max")
    parser.add_argument("--depth", type=int,
                        help="depth bound N: degree-max must not exceed 2^(N-2)")
    parser.add_argument("--precision", choices=sorted(_PRECISION_ALIASES))
    parser.add_argument("--c", help="declared lower bound for the gamma values")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--tol-zero", type=float, dest="tol_zero")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--jacobi-file", dest="jacobi_file",
                        help="verify a precomputed jacobi.csv instead of recovering one")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    settings: dict = {}
    if args.config:
        with open(args.config) as fh:
            settings.update(json.load(fh))
    for key in ("gamma", "levels", "degree_max", "depth", "precision", "c", "out",
                "tol_zero", "seed", "jacobi_file"):
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if "gamma" not in settings:
        raise DomainError("a gamma descriptor is required (--gamma or config file)")
    if isinstance(settings["gamma"], str):
        settings["gamma"] = _parse_gamma_arg(settings["gamma"])
    else:
        settings["gamma"] = GammaSequence.from_descriptor(settings["gamma"]).descriptor()
    cfg = RunConfig(command=args.command, **settings)
    cfg.validate()
    return cfg


def _run_meta(cfg: RunConfig) -> dict:
    gamma = cfg.gamma_sequence()
    return {
        "tool_version": __version__,
        "config": cfg.as_json(),
        "gamma_classification": gamma.classification(max(cfg.levels, 16)),
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_geometry(cfg: RunConfig) -> int:
    gamma = cfg.gamma_sequence()
    out = Path(cfg.out)
    rows = []
    for level in range(cfg.levels + 1):
        for index, iv in enumerate(level_intervals(gamma, level, cfg.mode), start=1):
            rows.append((level, index, iv.lo, iv.hi))
    write_csv(out / "intervals.csv", ["level", "index", "lo", "hi"], rows)
    write_csv(out / "scales.csv", ["s", "delta_s", "l_1s", "ratio"],
              scale_rows(gamma, cfg.levels, cfg.mode))
    write_json(out / "run.json", _run_meta(cfg))
    return EXIT_OK


def cmd_jacobi(cfg: RunConfig) -> int:
    fam = MapFamily(cfg.gamma_sequence())
    out = Path(cfg.out)
    atomic_write_text(out / "jacobi.csv", jacobi_for_gamma(fam, cfg.degree_max).to_csv())
    write_json(out / "run.json", _run_meta(cfg))
    return EXIT_OK


def _zero_values(fam: MapFamily, m: int, mode: str) -> list:
    """Zeros in the active scalar type, so dd runs serialize at 34 digits."""
    if fam.gamma.resolve_mode(m, mode) == "dd":
        return exact_zero_scalars(fam, m, "dd")
    return list(exact_zeros(fam, m).points)


def cmd_zeros(cfg: RunConfig) -> int:
    fam = MapFamily(cfg.gamma_sequence())
    out = Path(cfg.out)
    top_m = int(math.floor(math.log2(cfg.degree_max)))
    if 2 ** top_m > cfg.degree_max:
        top_m -= 1
    if top_m < 1:
        raise DomainError("degree-max must be at least 2 for the zeros command")
    eps = sys.float_info.epsilon
    for m in range(1, top_m + 1):
        values = _zero_values(fam, m, cfg.mode)
        residuals = abs(monic_opoly_exact(fam, m, np.asarray([float(v) for v in values])))
        tol = cfg.tol_zero if cfg.tol_zero is not None else \
            2 ** m * eps * max(1.0, float(abs(monic_opoly_exact(fam, m, _sample_grid(m))).max()))
        if float(residuals.max()) > tol:
            print(f"cantorpoly: zero residual {residuals.max()} exceeds {tol} at degree {2**m}",
                  file=sys.stderr)
            return EXIT_NUMERICAL
        write_csv(out / f"zeros_d{2 ** m}.csv", ["index", "value"],
                  list(enumerate(values, start=1)))
    crit = [0.5] if fam.gamma.resolve_mode(top_m, cfg.mode) == "double" else \
        [DoubleDouble(0.5)]
    for m in range(1, top_m):
        crit.extend(_zero_values(fam, m, cfg.mode))
    crit.sort()
    write_csv(out / f"critical_l{top_m}.csv", ["index", "value"],
              list(enumerate(crit, start=1)))
    write_json(out / "run.json", _run_meta(cfg))
    return EXIT_OK


def _sample_grid(m: int):
    j = np.arange(2 ** m + 1)
    return 0.5 * (1.0 + np.cos(j * math.pi / 2 ** m))


def cmd_verify(cfg: RunConfig) -> int:
    fam = MapFamily(cfg.gamma_sequence())
    out = Path(cfg.out)
    if cfg.jacobi_file:
        with open(cfg.jacobi_file) as fh:
            J = JacobiMatrix.from_csv(fh.read())
        if J.valid_length < cfg.degree_max:
            raise DomainError(
                f"jacobi file certifies {J.valid_length} < degree-max {cfg.degree_max}"
            )
    else:
        J = jacobi_for_gamma(fam, cfg.degree_max)
    c = cfg.c if cfg.c is None else _parse_c(cfg.c)
    result = full_verification(
        fam, J, n_max=cfg.degree_max, c=c, seed=cfg.seed, metadata=_run_meta(cfg),
    )
    atomic_write_text(out / "spacing_report.csv", result.spacing.to_csv())
    write_json(out / "spacing_report.json", result.as_json())
    n_checks = len(result.entries)
    print(f"verify: {'PASS' if result.passed else 'FAIL'} "
          f"({len(result.spacing.rows)} spacing rows, {n_checks} checks)")
    return EXIT_OK if result.passed else EXIT_NUMERICAL


def _parse_c(text: str):
    from fractions import Fraction
    return Fraction(text)


# ---------------------------------------------------------------------------

_COMMANDS = {
    "geometry": cmd_geometry,
    "jacobi": cmd_jacobi,
    "zeros": cmd_zeros,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except (DomainError, json.JSONDecodeError, FileNotFoundError, KeyError, TypeError) as exc:
        print(f"cantorpoly: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ConvergenceError as exc:
        print(f"cantorpoly: did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (RangeOverflowError, ArithmeticError) as exc:
        print(f"cantorpoly: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
