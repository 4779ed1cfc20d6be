"""Closed-loop benchmark of cantorpoly's jobs.

    python3 bench/run.py --workload {verify,sweep,coeffs_zeros} --seed N \
        --seconds S --trace {0,1} [--size {full,smoke}]

It imports the package from the ``src/`` of the checkout it sits in and
exits non-zero if that is missing. One client in one process runs the
workload's ops in passes, each op starting when the previous one ends,
and checks every op's output (oracles.py). It keeps starting passes while
the next one, at the mean pass time so far, would end within --seconds;
it always runs at least one.

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced
pass, then the set-up and one pass again with every public function of
the program wrapped (tracer.py), prints the per-layer metrics and writes
the spans under .bench_build/trace/. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import os
import sys
import time

_T0 = time.perf_counter()


def _cap_threads() -> int:
    """Cap the BLAS/OpenMP pools at the CPUs this process may use.

    Must run before numpy is imported: the pools size themselves then.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


NPROC = _cap_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
SETUP_REPS = 3

if not (SRC / "cantorpoly" / "__init__.py").is_file():
    sys.exit(f"bench: no program sources at {SRC / 'cantorpoly'}")
# the program under test is this checkout's; compiling it on every run
# keeps set-up time the same in a fresh checkout and in a used one
sys.dont_write_bytecode = True
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _T0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "commit": _git_commit()}


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Tally:
    """Outcome of every op run: attempted, failed, and by which ops."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []     # failures of ops that should pass today
        self.known: list[str] = []        # failures of the listed known-defect ops
        self._digests: dict[int, bytes] = {}

    def record(self, index, op, result, error, out) -> None:
        self.attempted += 1
        try:
            if error is not None:
                raise oracles.CheckFailed(f"raised {type(error).__name__}: {error}")
            digest = op.digest(result, out)
            if index in self._digests:
                # outputs are deterministic: a repeat must match the checked first run
                oracles.require(digest == self._digests[index], "output differs from first run")
            else:
                op.check(result, out)
                self._digests[index] = digest
        except oracles.CheckFailed as exc:
            self.failed += 1
            (self.known if op.known_defect else self.problems).append(f"{op.label}: {exc}")

    @property
    def correct(self) -> bool:
        return not self.problems


def run_pass(ops, tally: Tally, tracer=None) -> list[float]:
    """Run every op once, in order; return the op times."""
    times = []
    for index, op in enumerate(ops):
        out = WORK / "out" / f"op{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        result = error = None
        if tracer is not None:
            tracer.op = index + 1
            tracer.install()
        start = time.perf_counter()
        try:
            result = op.run(out)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = exc
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.uninstall()
        tally.record(index, op, result, error, out)
    return times


def measure(ops, seconds: float, tally: Tally) -> list[list[float]]:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, tally))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def end_to_end(args, tally: Tally) -> dict:
    reps = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        ops = workloads.build(args.workload, args.seed, args.size)
        reps.append(time.perf_counter() - t)
    passes = measure(ops, args.seconds, tally)
    print(f"# {len(passes)} passes of {len(ops)} ops; pass times "
          + " ".join(f"{sum(p):.3f}" for p in passes))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (statistics.median(sum(p) for p in passes), "s"),
        "setup_s": (IMPORT_S + statistics.median(reps), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
    }


def per_layer(args, tally: Tally) -> dict:
    # imported here so that untraced runs carry none of its memory or set-up
    from tracer import Tracer

    ops = workloads.build(args.workload, args.seed, args.size)
    untraced = sum(run_pass(ops, tally))
    tracer = Tracer()          # spans of the set-up carry op id 0
    tracer.install()
    ops = workloads.build(args.workload, args.seed, args.size)
    tracer.uninstall()
    traced = sum(run_pass(ops, tally, tracer))
    metrics = tracer.layer_metrics()
    metrics["trace.overhead"] = (traced / untraced, "ratio")
    path = WORK / "trace" / f"{args.workload}-{args.size}-seed{args.seed}.spans.csv"
    tracer.dump(path, ["setup"] + [op.label for op in ops])
    print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    print("# env " + json.dumps(environment(), sort_keys=True))
    tally = Tally()
    metrics = per_layer(args, tally) if args.trace else end_to_end(args, tally)
    for message, count in Counter(tally.known).items():
        print(f"# known defect, failed {count}x: {message}")
    for message, count in Counter(tally.problems).items():
        print(f"# FAILED {count}x: {message}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    shutil.rmtree(WORK / "out", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
