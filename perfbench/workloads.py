"""The three benchmark workloads.

Each workload builds its inputs from a variant index (the benchmark
seed modulo ``VARIANTS``), does its set-up once, and then repeats one
timed call into the package.  Every call's outputs pass a correctness
gate against values recorded from the package at the commit that
introduced this benchmark (``reference.json``, written by
``record_reference.py``).

README.md says why each workload exists and what it should reveal.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from zkbstrip import cli, diagnostics, fields, solver

HERE = Path(__file__).resolve().parent
VARIANTS = 4
SERIES_COLUMNS = ("t", "l2", "diss_cum", "w_l2", "w_h1", "sup_w", "tail")
NORM_RTOL = 1e-13
CDEP_ATOL = 1e-10
ENERGY_RESIDUAL_LIMIT = 1e-6
# Relative error of the tail mass is measured against the contamination
# threshold: tail values far below it come from cancellation in the
# transforms, and only their position relative to the threshold matters.
TAIL_FLOOR = diagnostics.CONTAMINATION_THRESHOLD
MUTATION = 1e-12  # relative perturbation, 10x the norm tolerance

# (gaussian centre x0, initial norm as a fraction of the weak threshold)
STEPPING_VARIANTS = ((0.0, 0.90), (0.5, 0.85), (1.0, 0.80), (1.5, 0.75))
CDEP_EPS = (1e-3, 5e-4, 2e-3, 7.5e-4)
CORPUS_SAMPLES = 200  # per suite; the sup suite checks 3 deltas per sample


def _paper_ref_doc(variant: int) -> dict:
    doc = json.loads(json.dumps(cli.paper_ref_config().raw))
    x0, frac = STEPPING_VARIANTS[variant]
    weak = doc["initial"]["target_l2_norm"] / 0.9
    doc["initial"]["x0"] = x0
    doc["initial"]["target_l2_norm"] = frac * weak
    return doc


def _warm_stepper(u0, cfg):
    """Fill the process-level stepper cache for ``cfg`` and the transform
    caches with one short run, so their cost lands in set-up."""
    cached = getattr(solver, "_cached_stepper", None)
    if cached is not None:
        cached(u0.geometry, cfg)
    solver.run(u0, replace(cfg, t_end=cfg.dt))


def _series_array(samples) -> np.ndarray:
    return np.array([[getattr(s, c) for c in SERIES_COLUMNS] for s in samples])


def _table_misses(label: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    """Columns within NORM_RTOL relative; the tail column against TAIL_FLOOR."""
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    floor = np.full(want.shape[1], np.finfo(float).tiny)
    floor[SERIES_COLUMNS.index("tail")] = TAIL_FLOOR
    scale = np.maximum(np.abs(want), floor)
    err = np.abs(got - want) / scale
    worst = np.unravel_index(np.argmax(err), err.shape)
    if err[worst] <= NORM_RTOL:
        return []
    return [f"{label}: {SERIES_COLUMNS[worst[1]]} at row {worst[0]} off by "
            f"{err[worst]:.3e} relative (limit {NORM_RTOL:g})"]


def _rel_miss(label: str, got: float, want: float, rtol: float) -> list[str]:
    if abs(got - want) <= rtol * abs(want):
        return []
    return [f"{label}: {got!r} != reference {want!r} (rtol {rtol:g})"]


def _mutated(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out[-1, SERIES_COLUMNS.index("l2")] *= 1.0 + MUTATION
    return out


def live_coeff_frac(geom) -> float:
    """Share of (x slot, y mode) coefficients kept by the 2/3 rule,
    computed from the rule: |n| < Nx/3 and j <= max(1, 2*Ny//3)."""
    slots = geom.Nx // 2 + 1
    keep_x = sum(1 for n in range(slots) if n < geom.Nx / 3.0)
    keep_y = sum(1 for j in range(1, geom.Ny + 1) if j <= max(1, 2 * geom.Ny // 3))
    return keep_x * keep_y / (slots * geom.Ny)


class Workload:
    name = ""
    op_unit = ""  # what ops_norm counts on this workload
    # calibration kernel: the workload's grid sizes, and kernel runs per
    # timed block (about 0.1 s on a 2-vCPU x86-64 VM)
    calib_shapes: tuple[tuple[int, int], ...] = ()
    calib_reps = 1

    def __init__(self, variant: int):
        self.variant = variant

    def setup(self):
        """Everything up to the first timed call."""

    def call(self):
        """One timed iteration; returns its outputs."""
        raise NotImplementedError

    def ops(self, out) -> int:
        raise NotImplementedError

    def record(self, out) -> dict:
        """Reference values of ``out``, as stored by record_reference.py."""
        raise NotImplementedError

    def gate(self, out, ref) -> list[str]:
        """Correctness misses of ``out`` against the reference values."""
        raise NotImplementedError

    def mutate(self, out):
        """A deliberately wrong copy of ``out``, for the mutation check."""
        raise NotImplementedError

    def counts(self, out, tracer) -> dict:
        """Computed counts for the traced run (stepping geometry, cdep)."""
        return {}

    def close(self):
        pass


class RefSlice(Workload):
    """In-process ``zkbstrip simulate`` on paper-ref cut to t_end = 0.4."""

    name = "ref-slice"
    op_unit = "steps"
    calib_shapes = ((1024, 32),)
    calib_reps = 20
    workdir = None

    def setup(self):
        doc = _paper_ref_doc(self.variant)
        doc["solver"]["t_end"] = 0.4
        self.workdir = Path(tempfile.mkdtemp(prefix="ref-", dir=_output_dir()))
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(doc), encoding="utf-8")
        self.config = cli.load_config(str(self.config_path))
        u0 = fields.make_initial_field(self.config.initial,
                                       self.config.geometry).field
        _warm_stepper(u0, self.config.solver)
        self.calls = 0

    def call(self):
        self.calls += 1
        out_dir = self.workdir / f"run{self.calls}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--config", str(self.config_path),
                             "--out", str(out_dir)])
        return {"exit_code": code, "out_dir": out_dir}

    def _series(self, out) -> np.ndarray:
        if "series" not in out:
            series = cli.read_series_csv(out["out_dir"] / "series.csv",
                                         self.config.geometry)
            out["energy_residual"] = diagnostics.energy_residual(series)
            out["series"] = _series_array(series.samples)
        return out["series"]

    def ops(self, out):
        return round(self.config.solver.t_end / self.config.solver.dt)

    def record(self, out):
        return {"series": self._series(out).tolist()}

    def gate(self, out, ref):
        if out["exit_code"] != 0:
            return [f"simulate exit code {out['exit_code']} != 0"]
        try:
            manifest = cli.read_manifest(out["out_dir"])
        except cli.ConfigError as exc:
            return [f"manifest: {exc}"]
        misses = []
        if manifest["status"] != "clean":
            misses.append(f"manifest status {manifest['status']!r} != 'clean'")
        series = self._series(out)
        if not out["energy_residual"] < ENERGY_RESIDUAL_LIMIT:
            misses.append(f"energy residual {out['energy_residual']:.3e} >= "
                          f"{ENERGY_RESIDUAL_LIMIT:g}")
        return misses + _table_misses("series.csv", series,
                                      np.array(ref["series"]))

    def mutate(self, out):
        series = self._series(out)  # parses the run's files into ``out``
        return {**out, "series": _mutated(series)}

    def counts(self, out, tracer):
        return {"solver.live_coeff_frac": live_coeff_frac(self.config.geometry)}

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


class VerifyCorpus(Workload):
    name = "verify-corpus"
    op_unit = "checks"
    calib_shapes = ((256, 32), (512, 64))
    calib_reps = 22
    SUITES = ("steklov", "gn", "sup")

    def setup(self):
        self.corpus_seed = 1000 * self.variant
        for suite in self.SUITES:
            cli.verify_suite(suite, 1, self.corpus_seed)

    def call(self):
        return {suite: cli.verify_suite(suite, CORPUS_SAMPLES, self.corpus_seed)
                for suite in self.SUITES}

    def ops(self, out):
        # the sup suite checks three deltas per field
        return CORPUS_SAMPLES * (len(self.SUITES) + 2)

    def record(self, out):
        return {suite: out[suite]["worst_margin"] for suite in self.SUITES}

    def gate(self, out, ref):
        misses = []
        for suite in self.SUITES:
            if not out[suite]["all_hold"]:
                misses.append(f"{suite}: an inequality failed")
            misses += _rel_miss(f"{suite} worst margin",
                                out[suite]["worst_margin"], ref[suite], NORM_RTOL)
        return misses

    def mutate(self, out):
        gn = {**out["gn"], "worst_margin": out["gn"]["worst_margin"] * (1 + MUTATION)}
        return {**out, "gn": gn}


class CdepShort(Workload):
    """paper-ref on a quarter of the domain (Lx = 7.5, Nx = 256: the
    same grid spacing) to t = 0.4; contaminated at 0.3, clean until 0.2."""

    name = "cdep-short"
    op_unit = "steps"
    calib_shapes = ((256, 32),)
    calib_reps = 140

    def setup(self):
        doc = _paper_ref_doc(0)
        doc["geometry"].update(Lx=7.5, Nx=256)
        doc["solver"]["t_end"] = 0.4
        self.config = cli.parse_config(json.dumps(doc))
        self.eps = CDEP_EPS[self.variant]
        u0 = fields.make_initial_field(self.config.initial,
                                       self.config.geometry).field
        _warm_stepper(u0, self.config.solver)

    def call(self):
        return cli.cdep_experiment(self.config, self.eps)

    def ops(self, out):
        # base run plus the runs at eps and eps/2
        return 3 * round(self.config.solver.t_end / self.config.solver.dt)

    def record(self, out):
        return {k: out[k] for k in ("ratio", "final_ratio", "clean_until")}

    def gate(self, out, ref):
        misses = [] if out["stable"] else ["cdep reports unstable"]
        for key in ("ratio", "final_ratio"):
            if not abs(out[key] - ref[key]) <= CDEP_ATOL:
                misses.append(f"{key} {out[key]!r} differs from reference "
                              f"{ref[key]!r} by more than {CDEP_ATOL:g}")
        if out["clean_until"] != ref["clean_until"]:
            misses.append(f"clean_until {out['clean_until']} != {ref['clean_until']}")
        return misses

    def mutate(self, out):
        return {**out, "ratio": out["ratio"] + 10 * CDEP_ATOL}

    def counts(self, out, tracer):
        dt = self.config.solver.dt
        runs = tracer.counters["solver.runs"]
        return {
            "solver.live_coeff_frac": live_coeff_frac(self.config.geometry),
            "cli.cdep.steps_integrated": tracer.counters["solver.steps"],
            "cli.cdep.steps_used": runs * round(out["clean_until"] / dt),
        }


WORKLOADS = {w.name: w for w in (RefSlice, VerifyCorpus, CdepShort)}


def _output_dir() -> Path:
    """Benchmark outputs stay inside the checkout, under .bench_build."""
    path = HERE.parent / ".bench_build" / "perfbench"
    path.mkdir(parents=True, exist_ok=True)
    return path


def load_reference(name: str, variant: int):
    refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return refs[f"{name}/{variant}"]
