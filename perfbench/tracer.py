"""In-process spans around fedsim's public functions, installed from outside.

Each traced function is rebound in every fedsim module that holds it, with
one wrapper per holding module, so a span records which module made the call
(``engine`` and ``bounds`` both call ``models.loss_and_grad``). A span is
[name id, start, end, parent span index]; spans stay in memory until the
caller summarizes and clears them. Self time is a span's duration minus the
durations of its child spans, so the self times of a tree sum to its root.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = ("cli", "config", "data", "rng", "models", "engine", "metrics", "params", "bounds")

# The per-layer metrics: every function here reports .calls and .self_s.
TRACED = {
    "cli": ("main",),
    "config": ("load_config", "build_shards", "load_bound_config", "build_bound_trial_config"),
    "data": ("draw_round_batches",),
    "rng": ("substream",),
    "models": (
        "loss_and_grad", "batch_loss", "erm_closed_form", "jacobi_eigenvalues",
        "population_risk_closed_form",
    ),
    "engine": (
        "run_experiment", "local_sgd_step", "aggregate", "scaffold_control_update",
        "sample_participants",
    ),
    "metrics": ("consensus_map", "empirical_risk", "population_risk_estimate", "sample_losses"),
    "params": ("weighted_average", "weighted_sum"),
    "bounds": ("verify_theorem1", "one_round_fedavg_erm", "verify_participation_identities"),
}

# Functions whose calls and self time are also reported per calling module.
PER_CALLER = {
    "models.loss_and_grad": ("engine", "bounds"),
    "metrics.empirical_risk": ("engine", "cli"),
}

# Spanned for derived metrics only: one span per sweep grid point.
SPAN_ONLY = {"cli": ("_sweep_point",)}


def _participants(args, kwargs) -> int:
    """Clients averaged by one engine.aggregate call (one per role sync)."""
    return len(kwargs["participants"] if "participants" in kwargs else args[3])


class Tracer:
    """Install with install(), run fedsim, then summarize() and clear()."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []  # (function, calling module) per name id
        self.spans: list[list] = []
        self.participants = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {m: importlib.import_module(f"fedsim.{m}") for m in MODULES}
        for table in (TRACED, SPAN_ONLY):
            for home, funcs in table.items():
                for fname in funcs:
                    original = getattr(modules[home], fname)
                    for caller, mod in modules.items():
                        if getattr(mod, fname, None) is original:
                            wrapped = self._wrap(original, f"{home}.{fname}", caller)
                            self._restore.append((mod, fname, original))
                            setattr(mod, fname, wrapped)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._restore):
            setattr(mod, fname, original)
        self._restore.clear()

    def clear(self) -> None:
        self.spans.clear()
        self.participants = 0
        self._stack.clear()

    def _wrap(self, fn, name: str, caller: str):
        nid = len(self.names)
        self.names.append((name, caller))
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_participants = name == "engine.aggregate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_participants:
                self.participants += _participants(args, kwargs)
            idx = len(spans)
            spans.append([nid, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def summarize(self) -> dict:
        """Calls, total and self seconds per (function, caller); root total; participants."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        root_s = 0.0
        for i, (nid, start, end, parent) in enumerate(self.spans):
            acc = by_name[self.names[nid]]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child[i]
            if parent < 0:
                root_s += end - start
        return {"by_name": dict(by_name), "root_s": root_s, "participants": self.participants}
