"""Span tracing installed from outside the program, for --trace 1 runs.

The public functions of the traced modules are wrapped at every name
that binds them: the modules import each other's functions by name
(``spacing.eigen_zeros``, ``cli.full_verification``, ``jacobi.all_branch_values``
...), so patching only the defining module would miss most calls. Each
call becomes one in-memory span (name, start, end, parent, op id); the
spans are written out when the run ends. ``DoubleDouble.__init__`` is
wrapped to count constructions.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import importlib
import inspect
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import cantorpoly
from cantorpoly.ddouble import DoubleDouble

MODULES = ("cli", "serialize", "geometry", "exact", "jacobi", "spacing")
# per-scalar helpers called once per value: a span each would cost more
# than the work it measures, so their time stays in the caller's self time
UNWRAPPED = {"geometry.u_map", "serialize.fmt"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index, op id]
        self.op = 0
        self.constructions = 0
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._eigen_keys: set = set()
        self._hooks = {
            "jacobi.eigen_zeros": self._on_eigen_zeros,
            "jacobi.stieltjes_lanczos": self._on_lanczos,
            "jacobi.refinement_measure": self._on_refinement,
            "geometry.all_branch_values": self._on_branch_values,
            "serialize.atomic_write_text": self._on_write,
        }
        wrapped = {}
        namespaces = [cantorpoly]
        for mod in MODULES:
            module = importlib.import_module(f"cantorpoly.{mod}")
            namespaces.append(module)
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and f"{mod}.{name}" not in UNWRAPPED):
                    wrapped[fn] = self._wrap(f"{mod}.{name}", fn)
        # a binding site is a module global or an entry of a module-level
        # dispatch dict (cli._COMMANDS maps command names to cmd_* functions)
        self._patches = []
        for ns in namespaces:
            for table in [vars(ns)] + [v for v in vars(ns).values() if isinstance(v, dict)]:
                self._patches += [(table, key, fn, wrapped[fn]) for key, fn in table.items()
                                  if inspect.isfunction(fn) and fn in wrapped]
        self._init = DoubleDouble.__init__

        def counting_init(obj, hi=0.0, lo=0.0):
            self.constructions += 1
            self._init(obj, hi, lo)

        self._counting_init = counting_init

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for table, key, _, wrapper in self._patches:
            table[key] = wrapper
        DoubleDouble.__init__ = self._counting_init

    def uninstall(self) -> None:
        for table, key, fn, _ in self._patches:
            table[key] = fn
        DoubleDouble.__init__ = self._init

    def _wrap(self, name: str, fn):
        module = name.split(".")[0]
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if hook:
                    hook(signature.bind(*args, **kwargs).arguments, result)

        return traced

    # -- per-layer counters (result is None when the call raised) ---------------

    def _on_eigen_zeros(self, args, result) -> None:
        J, n = args["J"], args["n"]
        self.counts["eigen_size_sum"] += n
        self.counts["eigen_escalated"] += bool(result is not None and result.escalated)
        self._eigen_keys.add(hashlib.blake2b(J.b[:n].tobytes() + J.a[: n - 1].tobytes()).digest())

    def _on_lanczos(self, args, result) -> None:
        if result is not None:
            self.counts["lanczos_q_bytes"] += 8 * args["K"] * args["measure"].nodes.size

    def _on_refinement(self, args, result) -> None:
        self.counts["refinement_nodes"] += 2 ** args["N"]

    def _on_branch_values(self, args, result) -> None:
        if result is not None:
            self.counts["branch_values"] += len(result)
            self.counts["branch_values_dd"] += len(result) if isinstance(result, list) else 0

    def _on_write(self, args, result) -> None:
        self.counts["write_bytes"] += len(args["text"].encode())

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                covered[parent] += end - start
        self_s: defaultdict = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            self_s[name.split(".")[0]] += end - start - child
        depth_steps = sum(1 for name, _, _, parent, _ in self.spans
                          if name == "jacobi.stieltjes_lanczos" and parent >= 0
                          and self.spans[parent][0] == "jacobi.jacobi_for_gamma")
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "jacobi.eigen_zeros.calls": (calls["jacobi.eigen_zeros"], "count"),
            "jacobi.eigen_zeros.s": (total["jacobi.eigen_zeros"], "s"),
            "jacobi.eigen_zeros.escalated": (c["eigen_escalated"], "count"),
            "jacobi.eigen_zeros.size_sum": (c["eigen_size_sum"], "count"),
            "jacobi.eigen_zeros.unique_frac": (
                ratio(len(self._eigen_keys), calls["jacobi.eigen_zeros"]), "ratio"),
            "spacing.branch_separation_chain.calls": (
                calls["spacing.branch_separation_chain"], "count"),
            "spacing.branch_separation_chain.s": (total["spacing.branch_separation_chain"], "s"),
            "spacing.verify_branch_lemma.s": (total["spacing.verify_branch_lemma"], "s"),
            "geometry.branch_composition.calls": (calls["geometry.branch_composition"], "count"),
            "geometry.branch_composition.s": (total["geometry.branch_composition"], "s"),
            "geometry.leftmost_length.calls": (calls["geometry.leftmost_length"], "count"),
            "ddouble.constructions": (self.constructions, "count"),
            "jacobi.stieltjes_lanczos.calls": (calls["jacobi.stieltjes_lanczos"], "count"),
            "jacobi.stieltjes_lanczos.s": (total["jacobi.stieltjes_lanczos"], "s"),
            "jacobi.stieltjes_lanczos.q_bytes": (c["lanczos_q_bytes"], "B"),
            "jacobi.refinement_measure.s": (total["jacobi.refinement_measure"], "s"),
            "jacobi.refinement_measure.nodes": (c["refinement_nodes"], "count"),
            "jacobi.jacobi_for_gamma.s": (total["jacobi.jacobi_for_gamma"], "s"),
            "jacobi.jacobi_for_gamma.depth_steps": (
                ratio(depth_steps, calls["jacobi.jacobi_for_gamma"]), "count"),
            "geometry.all_branch_values.calls": (calls["geometry.all_branch_values"], "count"),
            "geometry.all_branch_values.s": (total["geometry.all_branch_values"], "s"),
            "geometry.all_branch_values.values": (c["branch_values"], "count"),
            "geometry.all_branch_values.dd_frac": (
                ratio(c["branch_values_dd"], c["branch_values"]), "ratio"),
        }
        for fn in ("exact_zeros", "exact_zero_scalars", "critical_set", "monic_opoly_exact"):
            m[f"exact.{fn}.s"] = (total[f"exact.{fn}"], "s")
        m.update({
            "serialize.write.calls": (calls["serialize.atomic_write_text"], "count"),
            "serialize.write.s": (total["serialize.atomic_write_text"], "s"),
            "serialize.write.bytes": (c["write_bytes"], "B"),
            "spacing.spacing_report.s": (total["spacing.spacing_report"], "s"),
            "spacing.full_verification.s": (total["spacing.full_verification"], "s"),
        })
        for mod in MODULES:
            m[f"{mod}.self_s"] = (self_s[mod], "s")
        for mod in MODULES:
            m[f"{mod}.errors"] = (self.errors[mod], "count")
        return m

    def dump(self, path: Path, op_labels: list[str]) -> None:
        """Write every span, times in seconds from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "op", "op_label", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.writerow([i, op, op_labels[op], name, f"{start - t0:.9f}", f"{end - t0:.9f}",
                              parent])
