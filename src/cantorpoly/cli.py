"""Command-line front end.

Four commands over a shared configuration:

    geometry   write intervals.csv and scales.csv for the pre-Cantor levels
    jacobi     write the recurrence coefficients of mu_gamma
    zeros      write exact zero/critical sets at dyadic degrees
    verify     run the full spacing verification suite

Configuration comes from an optional JSON file (--config) with flag
overrides; every run writes the resolved configuration into its JSON
output so results are reproducible from the artifact alone: that object,
written to a file, is a --config of the same command. Exit codes:
0 success / all checks passed, 1 internal numerical failure or failed
verification, 2 invalid input, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConvergenceError, DomainError, RangeOverflowError
from .exact import (
    CriticalSet,
    MapFamily,
    critical_levels,
    critical_order,
    exact_zero_ladder,
    monic_opoly_exact,
)
from .geometry import GammaSequence, _as_fraction, _interval_ladder, scale_rows
from .jacobi import jacobi_for_gamma
from .serialize import atomic_write_text, render, write_csv, write_json
from .spacing import full_verification

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3


@dataclass
class RunConfig:
    command: str
    gamma: dict
    levels: int = 6
    degree_max: int = 64
    depth: int = 10
    precision: str = "auto"
    c: str | None = None
    out: str = "."
    seed: int = 20240601

    def validate(self):
        if self.command not in _COMMANDS:
            raise DomainError(f"unknown command {self.command!r}")
        for name in ("levels", "degree_max", "depth", "seed"):
            value = getattr(self, name)
            if type(value) is not int:  # bool is an int subclass, and no count
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.levels < 0 or self.degree_max < 1 or self.depth < 1:
            raise DomainError("levels, degree-max and depth must be positive")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")
        if self.degree_max > 2 ** (self.depth - 2):
            raise DomainError(
                f"degree-max {self.degree_max} violates the safety margin "
                f"degree-max <= 2^(depth-2) = {2 ** (self.depth - 2)}"
            )
        if self.precision != "auto":
            raise DomainError(f"unknown precision mode {self.precision!r} (only 'auto')")

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
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", help="JSON config file; flags override its entries")
    parser.add_argument("--gamma", help="descriptor string (kind:v1,v2,...) or JSON file")
    parser.add_argument("--levels", type=int, help="maximum pre-Cantor level")
    parser.add_argument("--degree-max", type=int, dest="degree_max")
    parser.add_argument("--depth", type=int,
                        help="depth bound N: degree-max must not exceed 2^(N-2)")
    parser.add_argument("--precision", help="only 'auto' (decimal once delta_n < 1e-12)")
    parser.add_argument("--c", help="declared lower bound for the gamma values")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="accepted and recorded; changes no output")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    settings: dict = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise DomainError(f"config file {args.config} must hold a JSON object")
        settings.update(loaded)
    for key in [f.name for f in fields(RunConfig) if f.name != "command"]:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if "gamma" not in settings:
        raise DomainError("a gamma descriptor is required (--gamma or config file)")
    if isinstance(settings["gamma"], str):
        settings["gamma"] = _parse_gamma_arg(settings["gamma"])
    else:
        settings["gamma"] = GammaSequence.from_descriptor(settings["gamma"]).descriptor()
    # the configuration a run embeds names its command: it must be this one
    command = settings.pop("command", args.command)
    if command != args.command:
        raise DomainError(f"the config is for command {command!r}, not {args.command!r}")
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
    rows = [(level, index, lo, hi)
            for level, ivs in enumerate(_interval_ladder(gamma, cfg.levels))
            for index, (lo, hi) in enumerate(ivs, start=1)]
    # level 0 always has its one interval, so the transpose has four columns
    write_csv(out / "intervals.csv", ["level", "index", "lo", "hi"], list(zip(*rows)))
    write_csv(out / "scales.csv", ["s", "delta_s", "l_1s", "ratio"],
              list(zip(*scale_rows(gamma, cfg.levels))))
    write_json(out / "run.json", _run_meta(cfg))
    return EXIT_OK


def cmd_jacobi(cfg: RunConfig) -> int:
    fam = MapFamily(cfg.gamma_sequence())
    out = Path(cfg.out)
    atomic_write_text(out / "jacobi.csv", jacobi_for_gamma(fam, cfg.degree_max).to_csv())
    write_json(out / "run.json", _run_meta(cfg))
    return EXIT_OK


def cmd_zeros(cfg: RunConfig) -> int:
    fam = MapFamily(cfg.gamma_sequence())
    out = Path(cfg.out)
    top_m = cfg.degree_max.bit_length() - 1
    if top_m < 1:
        raise DomainError("degree-max must be at least 2 for the zeros command")
    eps = sys.float_info.epsilon
    zero_sets = exact_zero_ladder(fam, top_m)
    texts = []  # each level's value strings, rendered once
    for m, zs in enumerate(zero_sets, start=1):
        residuals = abs(monic_opoly_exact(fam, m, zs.points))
        tol = 2 ** m * eps * max(1.0, float(abs(monic_opoly_exact(fam, m, _sample_grid(m))).max()))
        if float(residuals.max()) > tol:
            print(f"cantorpoly: zero residual {residuals.max()} exceeds {tol} at degree {2**m}",
                  file=sys.stderr)
            return EXIT_NUMERICAL
        texts.append(render(zs.values))
        write_csv(out / f"zeros_d{2 ** m}.csv", ["index", "value"],
                  [range(1, zs.degree + 1), texts[-1]])
    # the critical file reuses the level files' strings where its levels are theirs
    levels = critical_levels(fam, top_m, zero_sets[:-1])
    crit = CriticalSet.from_zero_sets(levels)  # confirms the interlacing
    strings = [["0.5"]] + [text if level is zs else render(level.values)
                           for level, zs, text in zip(levels, zero_sets, texts)]
    write_csv(out / f"critical_l{top_m}.csv", ["index", "value"],
              [range(1, crit.values.size + 1), critical_order(strings)])
    write_json(out / "run.json", _run_meta(cfg))
    return EXIT_OK


def _sample_grid(m: int):
    j = np.arange(2 ** m + 1)
    return 0.5 * (1.0 + np.cos(j * math.pi / 2 ** m))


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.degree_max < 2:  # before jacobi_for_gamma sizes J by it
        raise DomainError("degree-max must be at least 2 for the verify command")
    fam = MapFamily(cfg.gamma_sequence())
    out = Path(cfg.out)
    J = jacobi_for_gamma(fam, cfg.degree_max)
    c = cfg.c if cfg.c is None else _as_fraction(cfg.c)
    result = full_verification(fam, J, n_max=cfg.degree_max, c=c, metadata=_run_meta(cfg))
    atomic_write_text(out / "spacing_report.csv", result.spacing.to_csv())
    write_json(out / "spacing_report.json", result.as_json())
    n_checks = len(result.entries)
    print(f"verify: {'PASS' if result.passed else 'FAIL'} "
          f"({len(result.spacing.columns.n)} spacing rows, {n_checks} checks)")
    return EXIT_OK if result.passed else EXIT_NUMERICAL


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
        try:
            cfg = config_from_args(args)
        except (KeyError, TypeError) as exc:  # a config entry missing or of the wrong type
            raise DomainError(exc) from exc
        return _COMMANDS[cfg.command](cfg)
    except (DomainError, json.JSONDecodeError, OSError) as exc:
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
