"""Span tracer that wraps streamista's layer functions at run time.

Every wrapped call records one span: its name, the span that was open when
it started (its parent), a start and an end time.  A span's self time is its
duration minus the durations of its direct children, so summing self times
over every span of a tree gives the duration of the tree's root.

No package source changes.  ``install`` swaps each traced function object for
a wrapper in every ``streamista`` module namespace that holds it (callers
such as ``harness`` bind the names with ``from .rng import derive_seed``),
and ``restore`` swaps the originals back.  Spans stay in memory; ``summary``
folds them into per-name call counts and self times.  Spans are kept on one
stack, so the traced program must call the layers from a single thread.
"""

from collections import defaultdict
import functools
import inspect
import math
import os
import sys
import time

import numpy as np

# (module, function) pairs traced under the name "<module>.<function>".
LAYER_FUNCTIONS = (
    ("rng", "derive_seed"),
    ("rng", "make_rng"),
    ("measurement", "gen_gaussian_matrix"),
    ("measurement", "gen_noise"),
    ("measurement", "measure"),
    ("measurement", "rip_exact"),
    ("signals", "assemble_target"),
    ("solver", "run_streaming"),
    ("solver", "euler_lca_trace"),
    ("kernels", "stream"),
    ("theory", "support_cap_check"),
    ("theory", "rip_inequality_suite"),
    ("theory", "ista_error_bound"),
    ("theory", "lca_error_bound"),
    ("theory", "check_ista_preconditions"),
    ("theory", "check_lca_preconditions"),
    ("theory", "target_energy_envelope_check"),
)

# every CSV writer of the harness is traced under one name
CSV_WRITER_NAME = "harness.write_csv"
CSV_WRITERS = (
    "write_curve_csv",
    "write_steady_csv",
    "write_fit_csv",
    "write_qratio_csv",
    "write_preconditions_csv",
)

# functions whose distinct argument tuples are counted (useful-work ratio)
DISTINCT_ARGS = (
    "measurement.gen_gaussian_matrix",
    "measurement.gen_noise",
    "signals.assemble_target",
)

# the benchmark opens this span around each operation it times
ROOT_NAME = "harness"

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYER_FUNCTIONS) + (CSV_WRITER_NAME,)


class Tracer:
    """In-memory span recorder plus the counters measured at the same calls."""

    def __init__(self):
        self.clear()
        self._patches = []

    def clear(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self._stack = []
        self.counters = defaultdict(float)
        self.distinct = defaultdict(set)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` recording a span per call.

        ``before(args, kwargs)`` runs ahead of the span and
        ``after(args, kwargs)`` behind it, so their cost lands in the parent's
        self time rather than in the traced layer's.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before:
                before(args, kwargs)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if after:
                    after(args, kwargs)

        return traced

    def _count_distinct(self, name):
        def before(args, kwargs):
            self.distinct[name].add((args, tuple(kwargs.items())))

        return before

    def _counter(self, fn, count):
        """Hook calling ``count(arguments)`` with parameter names bound."""
        signature = inspect.signature(fn)

        def hook(args, kwargs):
            count(signature.bind(*args, **kwargs).arguments)

        return hook

    def _count_stream(self, arguments):
        phi, ys, p = arguments["phi"], arguments["ys"], arguments["p"]
        iterations = ys.shape[0] * int(p)
        self.counters["kernels.iterations"] += iterations
        self.counters["kernels.flops_computed"] += 4.0 * phi.shape[0] * phi.shape[1] * iterations

    def _count_supports(self, arguments):
        self.counters["measurement.rip_exact.supports"] += math.comb(
            arguments["phi"].cols, arguments["s"]
        )

    def _count_bytes(self, arguments):
        self.counters[f"{CSV_WRITER_NAME}.bytes"] += os.path.getsize(arguments["path"])

    def install(self, package: str = "streamista") -> None:
        """Wrap the layer functions in every loaded module of ``package``."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        plan = [(f"{m}.{f}", m, f) for m, f in LAYER_FUNCTIONS]
        plan += [(CSV_WRITER_NAME, "harness", f) for f in CSV_WRITERS]
        counters = {
            "kernels.stream": self._count_stream,
            "measurement.rip_exact": self._count_supports,
        }
        for name, mod_name, fn_name in plan:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            before = after = None
            if name in counters:
                before = self._counter(original, counters[name])
            elif name in DISTINCT_ARGS:
                before = self._count_distinct(name)
            elif name == CSV_WRITER_NAME:
                after = self._counter(original, self._count_bytes)
            traced = self.wrap(name, original, before, after)
            for mod in modules:
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = traced
                        self._patches.append((namespace, key, original))

    def restore(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def summary(self) -> dict:
        """Per-name ``{"calls": int, "self_s": float}`` over the recorded spans."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans are still open")
        durations = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(durations)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durations[has_parent])
        self_times = durations - child
        out = {}
        for name, self_s in zip(self.names, self_times.tolist()):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
        return out
