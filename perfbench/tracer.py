"""In-memory span tracer that wraps the package's layer functions.

Each wrapped function records a span (name, parent span, start, end).
A layer's self time is its span's duration minus the durations of its
direct child spans.  Wrappers are installed at every name a caller
looks up: ``solver`` binds ``to_grid`` and ``sample_field`` in its own
namespace, ``fields`` binds scipy's ``rfft``/``irfft`` and the sine
transforms, ``cli`` binds ``run``, so replacing only the defining
module's attribute would miss those calls.  ``install`` therefore
replaces every binding, in every ``zkbstrip`` module, that refers to
the original object, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (metric prefix, module, attribute path inside the module)
LAYERS = (
    # x FFT and y DST, and the two full transforms built from them
    ("fields.rfft", "fields", "rfft"),
    ("fields.irfft", "fields", "irfft"),
    ("geometry.sine_transform", "geometry", "sine_transform"),
    ("geometry.inverse_sine_transform", "geometry", "inverse_sine_transform"),
    ("fields.to_grid", "fields", "to_grid"),
    ("fields.to_spectral", "fields", "to_spectral"),
    # stepper: dealiased product, ETDRK4 combination, per-step norms
    ("solver.run", "solver", "run"),
    ("solver.Stepper.nonlinear_rhs", "solver", "Stepper.nonlinear_rhs"),
    ("solver.Stepper.step_erk4", "solver", "Stepper.step_erk4"),
    ("solver.Stepper.l2sq", "solver", "Stepper.l2sq"),
    ("solver.Stepper.dxsq", "solver", "Stepper.dxsq"),
    # per-snapshot diagnostics and run I/O
    ("diagnostics.sample_field", "diagnostics", "sample_field"),
    ("diagnostics.tail_mass", "diagnostics", "tail_mass"),
    ("cli.write_series_csv", "cli", "write_series_csv"),
    ("cli.write_manifest", "cli", "write_manifest"),
    # verifiers and their corpus
    ("theory.verify_steklov", "theory", "verify_steklov"),
    ("theory.verify_gn", "theory", "verify_gn"),
    ("theory.verify_sup_lemma", "theory", "verify_sup_lemma"),
    ("fields.make_random_field", "fields", "make_random_field"),
    ("fields.Field.values_padded", "fields", "Field.values_padded"),
    # continuous dependence
    ("cli.cdep_experiment", "cli", "cdep_experiment"),
    ("diagnostics.weighted_inner", "diagnostics", "weighted_inner"),
    # set-up
    ("solver.Stepper.__init__", "solver", "Stepper.__init__"),
    ("fields.make_initial_field", "fields", "make_initial_field"),
    ("cli.parse_config", "cli", "parse_config"),
)

# Transforms whose computed bytes moved (array arguments + result) are counted.
TRANSFORMS = (
    "fields.rfft", "fields.irfft", "geometry.sine_transform",
    "geometry.inverse_sine_transform", "fields.to_grid", "fields.to_spectral",
)

# Layers whose set-up cost is reported from the traced set-up phase.
SETUP_LAYERS = ("solver.Stepper.__init__", "fields.make_initial_field",
                "cli.parse_config")


def _array_bytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


class Tracer:
    """Spans kept in memory as [name, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.bytes_moved: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans.clear()
        self.bytes_moved.clear()
        self.counters.clear()

    # -- wrapping -----------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        after = self._after_hook(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else None, clock(), None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _after_hook(self, name: str):
        """Counts taken where the work happens; their cost is charged to
        the caller's self time, not to the traced layer."""
        if name in TRANSFORMS:
            def count_bytes(args, kwargs, result):
                self.bytes_moved[name] += (_array_bytes(args)
                                           + _array_bytes(kwargs.values())
                                           + _array_bytes((result,)))
            return count_bytes
        if name == "solver.run":
            def count_run(args, kwargs, result):
                cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
                self.counters["solver.runs"] += 1
                self.counters["solver.steps"] += round(cfg.t_end / cfg.dt)
                snaps = getattr(result, "snapshots", None) or []
                self.counters["solver.snapshots_stored"] += len(snaps)
                self.counters["solver.snapshot_bytes"] += sum(
                    s.coeffs.nbytes for s in snaps)
            return count_run
        if name == "cli.write_series_csv":
            def count_csv(args, kwargs, result):
                path = args[1] if len(args) > 1 else kwargs["path"]
                self.counters["cli.series_csv_bytes"] += os.path.getsize(path)
            return count_csv
        return None

    def install(self):
        """Wrap every layer at each binding that refers to it.

        A layer the package no longer defines is skipped and reports
        zero calls.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "zkbstrip" or n.startswith("zkbstrip.")) and m]
        for name, mod_name, path in LAYERS:
            owner = importlib.import_module(f"zkbstrip.{mod_name}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            if owner_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self seconds, total seconds)."""
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = {name: [0, 0.0, 0.0] for name, _, _ in LAYERS}
        for (name, _, t0, t1), inner in zip(self.spans, child):
            rec = out[name]
            rec[0] += 1
            rec[1] += (t1 - t0) - inner
            rec[2] += t1 - t0
        return {k: tuple(v) for k, v in out.items()}
