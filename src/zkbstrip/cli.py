"""Command-line harness: config parsing, runs, verification, reports.

Subcommands
-----------
constants  : closed-form decay constants for a strip width
simulate   : run a configured simulation, write manifest + series.csv
verify     : property suites (energy | steklov | gn | sup) on seeded corpora
fit-decay  : fit an exponential rate from a stored run, compare to chi
sweep      : grid of (width, amplitude) cells with per-cell verdicts
cdep       : two-run continuous-dependence experiment

Exit codes: 0 clean, 1 usage/IO error, 2 contamination flag, 3 blow-up.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import datetime
import functools
import hashlib
import io
import json
import math
import sys
from dataclasses import MISSING, asdict, astuple, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .diagnostics import (
    CONTAMINATION_THRESHOLD,
    DecayFit,
    NormSample,
    TimeSeries,
    default_fit_window,
    energy_residual,
    fit_decay_rate,
    weighted_inner,
)
from .fields import Field, InitialData, make_initial_field, make_random_field
from .geometry import StripGeometry
from .solver import BlowUpError, SolverConfig, run
from .theory import (
    check_smallness,
    constants_for_width,
    verify_gn,
    verify_steklov,
    verify_sup_lemma,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTAMINATED = 2
EXIT_BLOWUP = 3

CSV_HEADER = ",".join(f.name for f in fields(NormSample))
DECAY_TOLERANCE = 0.05  # fitted rate may undershoot chi by at most 5%
STABLE_TOLERANCE = 0.10  # cdep ratios may differ from 1 by at most 10%


def fmt(x: float) -> str:
    """Decimal scientific notation with 17 significant digits."""
    return f"{x:.16e}"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    fit_window: object = "last-half-clean"  # or [t0, t1]
    thresholds: str = "regular"

    def __post_init__(self):
        if self.thresholds not in ("regular", "weak"):
            raise ValueError(f"thresholds must be 'regular' or 'weak', "
                             f"got {self.thresholds!r}")


@dataclass(frozen=True)
class RunConfig:
    """A parsed config: each field but raw is a block of the document,
    whose keys are the fields of its class (see :func:`_block`)."""

    geometry: StripGeometry
    solver: SolverConfig
    initial: InitialData
    experiment: ExperimentConfig
    raw: dict


def _number(v, path: str):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(
            f"type mismatch at {path}: expected number, got {type(v).__name__}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(
            f"invalid value at {path}: expected finite number, got {v}")
    return v


def _integer(v, path: str) -> int:
    v = _number(v, path)
    if int(v) != v:
        raise ConfigError(f"type mismatch at {path}: expected integer, got {v}")
    return int(v)


def _boolean(v, path: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"type mismatch at {path}: expected boolean")
    return v


def _string(v, path: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"type mismatch at {path}: expected string")
    return v


def _weight_rate(v, path: str):
    if v == "auto":
        return v
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(
            f'type mismatch at {path}: expected number or "auto", got {v!r}')
    return float(_number(v, path))


def _samples(v, path: str):
    if v is None:
        return v
    try:
        values = np.asarray(v, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"invalid value at {path}: expected a rectangular array of "
            f"numbers ({exc})") from exc
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"invalid value at {path}: expected finite numbers")
    return values


def _fit_window(w, path: str):
    if w == "last-half-clean":
        return w
    if not isinstance(w, list) or len(w) != 2:
        raise ConfigError(
            f"type mismatch at {path}: expected 'last-half-clean' or [t0, t1]")
    t0, t1 = (_number(v, f"{path}[{i}]") for i, v in enumerate(w))
    if not t0 < t1:
        raise ConfigError(
            f"invalid value at {path}: expected t0 < t1, got {w}")
    return w


def _retired(only):
    """The check of a retired key: the one value the code implements."""
    def check(v, path: str):
        # type() keeps true distinct from 1
        if type(v) is not type(only) or v != only:
            raise ConfigError(f"invalid value at {path}: expected "
                              f"{json.dumps(only)}, got {json.dumps(v)}")
        return v
    return check


# The check of a field by its annotation; None is only ever a default
_CHECKS = {float: _number, float | None: _number, int: _integer,
           bool: _boolean, str: _string}
# Keys checked in place of their field's annotation.  The retired solver
# keys are no field: they are checked and dropped, so older configs and
# stored manifests keep parsing (the dissipation is accumulated at every
# step, whatever diss_per_step says)
_OWN_CHECKS = {
    "geometry.b": _weight_rate,
    "initial.values": _samples,
    "experiment.fit_window": _fit_window,
    "solver.scheme": _retired("exponential-RK4"),
    "solver.dealias": _retired(True),
    "solver.diss_per_step": _boolean,
}
_BLOCKS = {name: cls for name, cls in get_type_hints(RunConfig).items()
           if name != "raw"}
_annotations = functools.cache(get_type_hints)  # evaluating them is slow


def _block(doc: dict, name: str, cls) -> dict:
    """The checked keyword arguments of cls from the block doc[name].

    The block's keys are the fields of cls.  Each value is checked by
    its entry in _OWN_CHECKS, or else by its field's annotation.  A
    missing key takes the field's default; a field with no default is
    required, and so is a block that has one.
    """
    required = [f.name for f in fields(cls) if f.default is MISSING]
    if name not in doc and required:
        raise ConfigError(f"missing required key: {name}")
    block = doc.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"type mismatch at {name}: expected object")
    annotations = _annotations(cls)
    kwargs = {}
    for key, value in block.items():
        path = f"{name}.{key}"
        if path in _OWN_CHECKS:
            value = _OWN_CHECKS[path](value, path)
        elif key in annotations:
            value = _CHECKS[annotations[key]](value, path)
        else:
            raise ConfigError(f"unknown key: {path}")
        if key in annotations:
            kwargs[key] = value
    for key in required:
        if key not in kwargs:
            raise ConfigError(f"missing required key: {name}.{key}")
    return kwargs


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Besides "schema", the document holds one block per field of
    :class:`RunConfig`, read by :func:`_block`.  Unknown keys, missing
    required keys, and type mismatches are rejected with the offending
    path named, and an error of the block's own class as "invalid
    <block> block".  A weight rate of "auto", its default, resolves to
    the optimal rate for the configured width.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    for key in doc:
        if key != "schema" and key not in _BLOCKS:
            raise ConfigError(f"unknown key: {key}")
    if "schema" not in doc:
        raise ConfigError("missing required key: schema")
    if doc["schema"] != 1:
        raise ConfigError(f"unsupported schema version: {doc['schema']!r}")

    built = {}
    for name, cls in _BLOCKS.items():
        kwargs = _block(doc, name, cls)
        if cls is StripGeometry and kwargs.get("b", "auto") == "auto":
            B = kwargs["B"]
            kwargs["b"] = constants_for_width(B).b_star if B > 0 else 0.0
        try:
            built[name] = cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"invalid {name} block: {exc}") from exc
    return RunConfig(**built, raw=doc)


def paper_ref_config() -> RunConfig:
    """Built-in reference decay configuration (preset name "paper-ref").

    Width pi, half-length 30, 1024 x 32 modes, optimal weight rate, a
    first-mode gaussian scaled to 90% of the weak-solution threshold,
    dt = 1e-3 to t = 40.  The initial norm satisfies both smallness
    thresholds, so both decay guarantees apply.
    """
    consts = constants_for_width(math.pi)
    doc = {
        "schema": 1,
        "geometry": {"B": math.pi, "Lx": 30.0, "Nx": 1024, "Ny": 32, "b": "auto"},
        "solver": {"dt": 1e-3, "t_end": 40.0, "output_every": 100},
        "initial": {"kind": "gaussian_mode", "amplitude": 1.0, "x0": 0.0,
                    "s": 2.0, "j": 1,
                    "target_l2_norm": 0.9 * consts.weak_threshold},
        "experiment": {"thresholds": "weak"},
    }
    return parse_config(json.dumps(doc))


def load_config(spec: str) -> RunConfig:
    """Load a config from a file path, or a built-in preset by name."""
    if spec == "paper-ref":
        return paper_ref_config()
    path = Path(spec)
    if not path.is_file():
        raise ConfigError(f"config not found: {spec} (not a file or known preset)")
    return parse_config(path.read_text(encoding="utf-8"))


@functools.cache
def paper_ref_run() -> tuple[RunConfig, TimeSeries]:
    """The reference run, computed once per process.

    Shared by the energy suite and the acceptance tests; the run takes
    about a minute and a half.
    """
    config = paper_ref_config()
    init_field = make_initial_field(config.initial, config.geometry)
    return config, run(init_field.field, config.solver)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_series_csv(series: TimeSeries, path: Path):
    lines = [CSV_HEADER]
    for s in series.samples:
        lines.append(",".join(fmt(v) for v in astuple(s)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_series_csv(path: Path, geometry: StripGeometry) -> TimeSeries:
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"unexpected CSV header in {path}, line 1")
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            samples.append(NormSample(*(float(v) for v in line.split(","))))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"malformed row in {path}, line {lineno}: {exc}") from exc
    if not samples:
        raise ConfigError(f"{path} has no samples, only its header")
    return TimeSeries(geometry=geometry, samples=samples)


def write_manifest(out: Path, config: RunConfig, *, status: str, seed=None,
                   started: str, extra: dict | None = None):
    files = {}
    for f in sorted(out.iterdir()):
        if f.is_file() and f.name != "manifest.json":
            files[f.name] = {"sha256": _sha256(f), "bytes": f.stat().st_size}
    manifest = {
        "schema": 1,
        "code_version": __version__,
        "config": config.raw,
        "resolved_b": config.geometry.b,
        "seed": seed,
        "started_at": started,
        "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "status": status,
        "files": files,
    }
    if extra:
        manifest.update(extra)
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_manifest(out: Path) -> dict:
    """The manifest of a run directory, after checking every file's checksum."""
    path = out / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise ConfigError(f"{path} does not hold a JSON object")
    for key in ("config", "status", "files"):
        if key not in manifest:
            raise ConfigError(f"{path} has no {key!r} key")
    if not isinstance(manifest["files"], dict):
        raise ConfigError(f"{path}: 'files' is not a JSON object")
    for name, meta in manifest["files"].items():
        if not isinstance(meta, dict) or "sha256" not in meta:
            raise ConfigError(f"{path} has no 'sha256' key for {name}")
        if _sha256(out / name) != meta["sha256"]:
            raise ConfigError(f"checksum mismatch for {name} in {out}")
    return manifest


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    print(json.dumps(asdict(constants_for_width(args.B)), indent=2))
    return EXIT_OK


def _execute_run(config: RunConfig, out: Path):
    """Build the initial field, run, and persist everything under out."""
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    init_field = make_initial_field(config.initial, config.geometry)
    extra = {
        "initial_l2_norm": init_field.l2_norm,
        "initial_tail_mass": init_field.tail_mass,
    }
    try:
        series = run(init_field.field, config.solver)
    except BlowUpError as exc:
        write_series_csv(exc.series, out / "series.csv")
        extra["blow_up_time"] = exc.t
        write_manifest(out, config, status="blow-up", started=started, extra=extra)
        raise
    write_series_csv(series, out / "series.csv")
    if series.contaminated_at is not None:
        extra["contaminated_at"] = series.contaminated_at
    write_manifest(out, config, status=series.status, started=started, extra=extra)
    return series, init_field


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    out = Path(args.out)
    try:
        series, init_field = _execute_run(config, out)
    except BlowUpError as exc:
        print(f"blow-up at t = {exc.t:.6g}; partial results in {out}")
        return EXIT_BLOWUP
    last = series.samples[-1]
    print(f"run complete: status={series.status}, t_end={last.t:g}, "
          f"||u0||={init_field.l2_norm:.6g}, final l2={last.l2:.6e}")
    if series.status == "contaminated":
        print(f"tail mass exceeded {CONTAMINATION_THRESHOLD:g} at "
              f"t = {series.contaminated_at:g}; weighted-decay verdicts apply "
              f"to the clean prefix only")
        return EXIT_CONTAMINATED
    return EXIT_OK


def _fit_decay(series: TimeSeries, config: RunConfig, norm: str,
               t0=None, t1=None) -> tuple[DecayFit, float, bool]:
    """(fit, chi, compliant) of one norm of a run.  A window end left as
    None comes from experiment.fit_window; a window reaching into the
    contaminated segment is a ConfigError."""
    if t0 is None or t1 is None:
        w = config.experiment.fit_window
        if w == "last-half-clean":
            d0, d1 = default_fit_window(series)
        else:
            d0, d1 = float(w[0]), float(w[1])
        t0 = d0 if t0 is None else t0
        t1 = d1 if t1 is None else t1
    if series.contaminated_at is not None and t1 > series.clean_end():
        raise ConfigError(
            f"fit window [{t0}, {t1}] reaches into the contaminated segment "
            f"(clean until t = {series.clean_end():g})"
        )
    fit = fit_decay_rate(series, norm, t0, t1)
    chi = constants_for_width(config.geometry.B).chi
    return fit, chi, fit.rate >= chi * (1.0 - DECAY_TOLERANCE)


def cmd_fit_decay(args) -> int:
    run_dir = Path(args.out)
    manifest = read_manifest(run_dir)
    if manifest["status"] == "blow-up":
        raise ConfigError("run blew up; no decay fit possible")
    config = parse_config(json.dumps(manifest["config"]))
    series = read_series_csv(run_dir / "series.csv", config.geometry)
    fit, chi, compliant = _fit_decay(series, config, args.norm, args.t0, args.t1)
    print(json.dumps({
        "norm": fit.norm,
        "window": [fit.t0, fit.t1],
        "fitted_rate": fit.rate,
        "residual": fit.residual,
        "chi": chi,
        "compliant": bool(compliant),
    }, indent=2))
    return EXIT_OK if compliant else EXIT_USAGE


# -- verification suites ------------------------------------------------

def _verification_geometry() -> StripGeometry:
    consts = constants_for_width(math.pi)
    return StripGeometry(B=math.pi, Lx=10.0, Nx=256, Ny=32, b=consts.b_star)


# Per-field inequality checks of each corpus suite: field -> checks.
# The verifiers are looked up by module-level name at call time, so a
# wrapper installed on those names sees every call.
_CORPUS_SUITES = {
    "steklov": lambda u: [verify_steklov(u)],
    "gn": lambda u: [verify_gn(u)],
    "sup": lambda u: verify_sup_lemma(u, ((0.1, 1.0), (1.0, 1.0), (10.0, 1.0))),
}


def verify_suite(suite: str, samples: int, seed: int) -> dict:
    """Run one property suite; returns a report dict with worst margins."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    report = {"suite": suite, "samples": samples, "seed": seed}
    if suite == "energy":
        residuals = [_energy_sample(i, seed) for i in range(samples)]
        report["residuals"] = residuals
        report["worst_residual"] = max(residuals)
        report["all_hold"] = all(r < 1e-6 for r in residuals)
        return report
    if suite not in _CORPUS_SUITES:
        raise ValueError(f"unknown suite: {suite!r}")

    def margin(check):
        return (check.rhs - check.lhs) / check.rhs if check.rhs > 0 else math.inf

    geom = _verification_geometry()
    checks = _CORPUS_SUITES[suite]
    results = [r for i in range(samples)
               for r in checks(make_random_field(geom, seed + i))]
    report["all_hold"] = all(r.holds for r in results)
    report["worst_margin"] = min(margin(r) for r in results)
    return report


def _energy_sample(index: int, seed: int) -> float:
    """Energy-identity residual; sample 0 is the full reference run.

    Further samples integrate seeded smooth localized data (random
    gaussian bumps); rough band-edge data would be dominated by the
    trapezoid error of the dissipation integral rather than the scheme.
    """
    if index == 0:
        _, series = paper_ref_run()
        return energy_residual(series)
    geom = _verification_geometry()
    rng = np.random.default_rng(seed + index)
    init = InitialData(
        kind="gaussian_mode",
        amplitude=float(rng.uniform(0.05, 0.3)),
        x0=float(rng.uniform(-2.0, 2.0)),
        s=float(rng.uniform(1.0, 2.0)),
        j=int(rng.integers(1, 4)),
    )
    u0 = make_initial_field(init, geom).field
    cfg = SolverConfig(dt=1e-3, t_end=1.0, output_every=100)
    return energy_residual(run(u0, cfg))


def cmd_verify(args) -> int:
    report = verify_suite(args.suite, args.samples, args.seed)
    print(json.dumps(report, indent=2))
    return EXIT_OK if report["all_hold"] else EXIT_USAGE


# -- sweep ----------------------------------------------------------------

def _sweep_cell(template_json: str, B: float, amp_frac: float, out_dir: str):
    """One sweep cell; returns a summary row dict (runs in a worker)."""
    template = parse_config(template_json)
    consts = constants_for_width(B)
    regime = template.experiment.thresholds
    u0_norm = amp_frac * (consts.weak_threshold if regime == "weak"
                          else consts.reg_threshold)
    verdict = check_smallness(u0_norm, B, regime)
    doc = json.loads(template_json)
    doc["geometry"]["B"] = B
    doc.setdefault("initial", {})["target_l2_norm"] = u0_norm
    config = parse_config(json.dumps(doc))

    row = {
        "B": B,
        "amp_frac": amp_frac,
        "u0_norm": u0_norm,
        "threshold": verdict.threshold,
        "within_threshold": verdict.ok,
        "chi": consts.chi,
        "status": "",
        "fitted_rate": math.nan,
        "compliant": "",
    }
    cell_dir = Path(out_dir)
    try:
        series, _ = _execute_run(config, cell_dir)
        row["status"] = series.status
        fit, _, passed = _fit_decay(series, config, "w_l2")
        row["fitted_rate"] = fit.rate
        if row["within_threshold"]:
            row["compliant"] = "pass" if passed else "fail"
        else:
            row["compliant"] = "outside theorem scope"
    except BlowUpError:
        row["status"] = "blow-up"
        row["compliant"] = "fail" if row["within_threshold"] else "outside theorem scope"
    except ValueError as exc:
        row["status"] = f"error: {exc}"
        row["compliant"] = "fail" if row["within_threshold"] else "outside theorem scope"
    return row


def cmd_sweep(args) -> int:
    template = load_config(args.config)
    widths = [float(v) for v in args.B.split(",")]
    amps = [float(v) for v in args.amps.split(",")]
    # checked before any cell runs: the per-cell constants and smallness
    # verdict raise on these outside the cell's error handling
    if not all(math.isfinite(B) and B > 0 for B in widths):
        raise ConfigError(f"widths must be finite and > 0, got {args.B}")
    # zero data has no decay rate to fit
    if not all(math.isfinite(a) and a > 0 for a in amps):
        raise ConfigError(
            f"amplitude fractions must be finite and > 0, got {args.amps}")
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    template_json = json.dumps(template.raw)

    cells = [
        (B, amp, str(out / f"cell_B{idx_b}_a{idx_a}"))
        for idx_b, B in enumerate(widths)
        for idx_a, amp in enumerate(amps)
    ]
    # no more worker processes than cells: the pool starts them all at once
    workers = min(args.workers, len(cells))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            rows = list(pool.map(
                _sweep_cell,
                [template_json] * len(cells),
                [c[0] for c in cells],
                [c[1] for c in cells],
                [c[2] for c in cells],
            ))
    else:
        rows = [_sweep_cell(template_json, B, amp, d) for B, amp, d in cells]

    # the csv module quotes an error status that holds commas
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["B", "amp_frac", "u0_norm", "threshold",
                     "within_threshold", "chi", "status", "fitted_rate",
                     "compliant"])
    for r in rows:
        writer.writerow([
            fmt(r["B"]), fmt(r["amp_frac"]), fmt(r["u0_norm"]),
            fmt(r["threshold"]), str(r["within_threshold"]).lower(),
            fmt(r["chi"]), r["status"],
            fmt(r["fitted_rate"]) if math.isfinite(r["fitted_rate"]) else "nan",
            r["compliant"],
        ])
    (out / "summary.csv").write_text(text.getvalue(), encoding="utf-8")
    print(text.getvalue(), end="")
    failed = any(r["compliant"] == "fail" for r in rows)
    return EXIT_USAGE if failed else EXIT_OK


# -- continuous dependence -------------------------------------------------

def cdep_experiment(config: RunConfig, eps: float) -> dict:
    """Growth factors of a perturbed run at eps and eps/2.

    The perturbation is a unit-norm first-mode gaussian bump; factors are
    max over the base run's clean samples of the weighted difference norm
    over its initial value.  Every run stops at the base run's clean end:
    the base at its first contaminated sample, the perturbed runs at its
    last clean one.  The result is stable when both the ratio of the
    maxima and the ratio of the final factors lie within 10% of 1.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be finite and > 0")
    geom = config.geometry
    base_init = make_initial_field(config.initial, geom)
    bump_init = make_initial_field(
        InitialData(kind="gaussian_mode", amplitude=1.0, s=1.0,
                    x0=config.initial.x0, j=1, target_l2_norm=1.0),
        geom,
    )

    clean = []  # coefficients of the base run's clean samples

    def keep_clean(sample, u) -> bool:
        if sample.tail > CONTAMINATION_THRESHOLD:
            return True
        clean.append(u.coeffs)
        return False

    base = run(base_init.field, config.solver, observer=keep_clean)
    clean_end = base.clean_end()

    def growth_factor(e: float) -> tuple[float, float]:
        """(max over clean samples, value at the clean end) of the
        weighted difference norm over its initial value."""
        diffs = []  # weighted squared differences, one per clean sample

        def compare(sample, u) -> bool:
            z = Field(geom, u.coeffs - clean[len(diffs)])
            diffs.append(weighted_inner(z, z))
            return len(diffs) == len(clean)

        run(base_init.field + e * bump_init.field, config.solver,
            observer=compare)
        factors = [d / diffs[0] for d in diffs]
        return max(factors), factors[-1]

    factor_full, final_full = growth_factor(eps)
    factor_half, final_half = growth_factor(eps / 2.0)
    ratio = factor_full / factor_half if factor_half > 0 else math.inf
    final_ratio = final_full / final_half if final_half > 0 else math.inf
    return {
        "eps": eps,
        "growth_factor_eps": factor_full,
        "growth_factor_half_eps": factor_half,
        "ratio": ratio,
        "final_factor_eps": final_full,
        "final_factor_half_eps": final_half,
        "final_ratio": final_ratio,
        "stable": bool(abs(ratio - 1.0) <= STABLE_TOLERANCE
                       and abs(final_ratio - 1.0) <= STABLE_TOLERANCE),
        "clean_until": clean_end,
    }


def cmd_cdep(args) -> int:
    config = load_config(args.config)
    if args.out:  # created before the runs, so a bad --out costs none
        Path(args.out).mkdir(parents=True, exist_ok=True)
    report = {"eps": 0.0, "note": "identical runs"}
    if args.eps != 0:
        try:
            report = cdep_experiment(config, args.eps)
        except BlowUpError as exc:
            print(f"blow-up at t = {exc.t:.6g} during continuous-dependence"
                  " runs", file=sys.stderr)
            return EXIT_BLOWUP
    print(json.dumps(report, indent=2))
    if args.out:
        (Path(args.out) / "cdep.json").write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK if report.get("stable", True) else EXIT_USAGE


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Exits with EXIT_USAGE on a usage error; argparse's own status 2 is
    the CLI's contamination code.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="zkbstrip",
        description="Channel-strip wave simulator and decay-verification harness",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("constants", help="closed-form decay constants")
    pc.add_argument("--B", type=float, required=True, help="strip width")
    pc.set_defaults(func=cmd_constants)

    ps = sub.add_parser("simulate", help="run a simulation")
    ps.add_argument("--config", required=True,
                    help="config JSON path or preset name (paper-ref)")
    ps.add_argument("--out", required=True, help="output directory")
    ps.set_defaults(func=cmd_simulate)

    pv = sub.add_parser("verify", help="property-test suites")
    pv.add_argument("--suite", required=True,
                    choices=["energy", "steklov", "gn", "sup"])
    pv.add_argument("--samples", type=int, default=100)
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("fit-decay", help="fit decay rate from a stored run")
    pf.add_argument("--out", required=True, help="run directory")
    pf.add_argument("--norm", default="w_l2",
                    choices=["l2", "w_l2", "w_h1", "sup_w"])
    pf.add_argument("--t0", type=float, default=None)
    pf.add_argument("--t1", type=float, default=None)
    pf.set_defaults(func=cmd_fit_decay)

    pw = sub.add_parser("sweep", help="width x amplitude sweep")
    pw.add_argument("--config", required=True, help="template config or preset")
    pw.add_argument("--B", required=True, help="comma-separated widths")
    pw.add_argument("--amps", required=True,
                    help="comma-separated amplitude fractions of the threshold")
    pw.add_argument("--out", required=True)
    pw.add_argument("--workers", type=int, default=1)
    pw.set_defaults(func=cmd_sweep)

    pd = sub.add_parser("cdep", help="continuous-dependence experiment")
    pd.add_argument("--config", required=True)
    pd.add_argument("--eps", type=float, required=True)
    pd.add_argument("--out", default=None)
    pd.set_defaults(func=cmd_cdep)

    return p


def main(argv=None) -> int:
    """Run one subcommand; every config, value or I/O error it raises
    ends as ``error: ...`` on stderr and exit code 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
