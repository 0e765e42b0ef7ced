"""Outside-in tracer: spans around calls into twfekit's public functions.

Nothing under ``src/`` knows about tracing.  The tracer replaces each target
function with a timing wrapper at every place the package binds it: the
defining module, every ``from .x import y`` site and the ``twfekit``
re-exports.  ``BalancedPanel`` construction is traced through its
``__post_init__``.  Spans (name, start, end, parent, request) are kept in
memory; self time is a span's duration minus its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# layer (twfekit module) -> traced public functions
TARGETS = {
    "panel": ("load_panel", "demean"),
    "estimators": ("twfe", "fd", "two_way_residual"),
    "inference": ("stack_differences", "cluster_robust_se"),
    "numerics": ("ols", "independent_columns", "fwl_residualize"),
    "decomposition": (
        "fd_decomposition",
        "pairwise_decomposition",
        "verify_equivalence",
        "weighted_summary",
    ),
    "generalized": ("gap_restricted", "generalized_twfe", "pretrend_covariate"),
    "diagnostics": ("simulate", "theorem2_audit", "causal_weights"),
    "cli": ("main", "run"),
}
PANEL_CLASS = "panel.BalancedPanel"

SPAN_NAMES = tuple(
    f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns
) + (PANEL_CLASS,)

# Counters other than per-span calls and self time.
COUNTER_UNITS = {
    "inference.stacked_rows": "count",
    "inference.stacked_mb": "MB",
    "numerics.dropped_columns": "count",
    "generalized.live_pair_ratio": "ratio",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTER_UNITS)
    return units


class Tracer:
    """Installs the wrappers, records spans and counts, and reports them."""

    def __init__(self):
        self.spans: list = []
        self.request = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if after is not None:
                after(result)
            return result

        return traced

    # The hooks read the program's arguments and results defensively: an
    # argument or field that a later version renames or removes is skipped,
    # and a hook never raises into the call it wraps.

    def _count_stacked(self, args, kwargs):
        stacked = args[0] if args else kwargs.get("stacked")
        arrays = [getattr(stacked, f, None) for f in ("response", "regressor", "cluster")]
        if not all(isinstance(v, np.ndarray) for v in arrays):
            return
        self.counts["inference.stacked_rows"] += arrays[0].shape[0]
        self.counts["inference.stacked_mb"] += sum(v.nbytes for v in arrays) / 1e6

    def _count_dropped(self, fit):
        self.counts["numerics.dropped_columns"] += len(getattr(fit, "dropped_columns", None) or ())

    def _count_pairs(self, result):
        comps = getattr(getattr(result, "decomposition", None), "components", None) or ()
        self.counts["generalized.pairs"] += len(comps)
        self.counts["generalized.live_pairs"] += sum(
            getattr(c, "beta", None) is not None for c in comps
        )

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "inference.cluster_robust_se": (self._count_stacked, None),
            "numerics.ols": (None, self._count_dropped),
            "generalized.generalized_twfe": (None, self._count_pairs),
        }
        modules = {
            layer: importlib.import_module(f"twfekit.{layer}") for layer in TARGETS
        }
        package = [
            m for name, m in list(sys.modules.items())
            if name == "twfekit" or name.startswith("twfekit.")
        ]
        for layer, fns in TARGETS.items():
            module = modules[layer]
            for fn_name in fns:
                original = getattr(module, fn_name, None)
                if original is None:  # a later version may drop a function
                    continue
                name = f"{layer}.{fn_name}"
                before, after = hooks.get(name, (None, None))
                wrapper = self._wrap(name, original, before, after)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        cls = importlib.import_module("twfekit.panel").BalancedPanel
        post_init = cls.__dict__["__post_init__"]
        self._patches.append((cls, "__post_init__", post_init))
        cls.__post_init__ = self._wrap(PANEL_CLASS, post_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- reporting ---------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) summed over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: [0, 0.0] for name in SPAN_NAMES}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name][0] += 1
            totals[name][1] += (end - start) - child[i]
        return {k: (c, s) for k, (c, s) in totals.items()}

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass span metrics and counters (``cli.bytes_written`` and
        ``trace.overhead_s`` are filled in by the harness)."""
        out: dict[str, float] = {}
        for name, (calls, self_s) in self.span_totals().items():
            out[f"{name}.calls"] = calls / passes
            out[f"{name}.self_s"] = self_s / passes
        out["inference.stacked_rows"] = self.counts["inference.stacked_rows"] / passes
        out["inference.stacked_mb"] = self.counts["inference.stacked_mb"] / passes
        out["numerics.dropped_columns"] = self.counts["numerics.dropped_columns"] / passes
        pairs = self.counts["generalized.pairs"]
        out["generalized.live_pair_ratio"] = (
            self.counts["generalized.live_pairs"] / pairs if pairs else 0.0
        )
        return out
