"""One benchmark process: set-up, timed calls, one JSON line on stdout.

run.py starts this script in a fresh interpreter so that set-up time
includes importing the package and peak memory is this process's own:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 [--setup-only] [--mutate]

The seed picks one of the workload's input variants (seed modulo
workloads.VARIANTS), each with its own recorded reference outputs.

With --trace 0 a block of the calibration kernel (calib.py) is timed
before the first call and after every call.  With --trace 1 it
alternates untraced and traced calls and reports the per-layer numbers
of the traced ones.  With --mutate every output is
perturbed before its correctness gate, which must then fail.
"""

import time

T_START = time.perf_counter()  # set-up is timed from before the imports

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.fft  # noqa: E402

import calib  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import zkbstrip  # noqa: E402


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, if it is found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "scipy_fft_workers": scipy.fft.get_workers(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, n_traced, traced_walls, untraced_walls, counts,
                  setup_layers) -> dict:
    """Per traced call: calls, self and total seconds of each layer,
    computed counts, and the tracing overhead."""
    m = {}
    self_sum = 0.0
    for name, (calls, self_s, total_s) in tracer.layer_times().items():
        m[f"{name}.calls"] = calls / n_traced
        m[f"{name}.self_s"] = self_s / n_traced
        m[f"{name}.total_s"] = total_s / n_traced
        self_sum += self_s / n_traced
        if name in tracing.TRANSFORMS:
            m[f"{name}.computed_bytes_per_call"] = (
                tracer.bytes_moved[name] / calls if calls else 0.0)
    for name in ("solver.live_coeff_frac", "solver.snapshots_stored",
                 "solver.snapshot_bytes", "cli.series_csv_bytes",
                 "cli.cdep.steps_integrated", "cli.cdep.steps_used"):
        m[name] = float(counts.get(name, 0.0))
    for name in tracing.SETUP_LAYERS:
        m[f"setup.{name}.total_s"] = setup_layers[name][2]
    wall = statistics.fmean(traced_walls)
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = statistics.fmean(untraced_walls)
    m["trace.overhead_s"] = wall - m["trace.untraced_wall_s"]
    m["trace.unattributed_s"] = wall - self_sum
    return m


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--mutate", action="store_true")
    args = p.parse_args()

    if Path(zkbstrip.__file__).resolve().parent != SRC / "zkbstrip":
        print(f"error: imported zkbstrip from {zkbstrip.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    variant = args.seed % workloads.VARIANTS
    wl = workloads.WORKLOADS[args.workload](variant)
    tracer = tracing.Tracer() if args.trace else None
    try:
        ref = workloads.load_reference(wl.name, variant)
        if tracer:
            tracer.install()
        wl.setup()
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer:
            tracer.uninstall()
            setup_layers = tracer.layer_times()
            tracer.reset()

        kernel = None if tracer else calib.Kernel(wl.calib_shapes, wl.calib_reps)
        kernel_s = [kernel.block()] if kernel else []
        walls = {False: [], True: []}
        attempted = failed = 0
        misses, counts = [], {}
        ops = None
        deadline = time.perf_counter() + args.seconds
        modes = (False, True) if tracer else (False,)
        while True:
            for traced in modes:
                if traced:
                    tracer.counters.clear()
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    out = wl.call()
                except Exception as exc:  # a blow-up or crash is a failed call
                    out, error = None, f"{type(exc).__name__}: {exc}"
                finally:
                    elapsed = time.perf_counter() - t0
                    if traced:
                        tracer.uninstall()
                attempted += 1
                if out is not None:
                    if args.mutate:
                        out = wl.mutate(out)
                    problems = wl.gate(out, ref)
                    ops = wl.ops(out)
                    if traced:
                        counts = {**tracer.counters, **wl.counts(out, tracer)}
                else:
                    problems = [error]
                if problems:
                    failed += 1
                    misses.extend(problems)
                walls[traced].append(elapsed)
                if kernel:
                    kernel_s.append(kernel.block())
            per_round = sum(statistics.median(walls[t]) for t in modes)
            if kernel:
                per_round += statistics.median(kernel_s)
            if time.perf_counter() + per_round > deadline:
                break

        result = {
            "variant": variant,
            "setup_s": setup_s,
            "walls": walls[False],
            "kernel_s": kernel_s,
            "ops": ops,
            "op_unit": wl.op_unit,
            "attempted": attempted,
            "failed": failed,
            "misses": misses[:10],
            "peak_rss_mb": peak_rss_mb(),
            "machine": machine_info(),
        }
        if tracer:
            result["layers"] = layer_metrics(
                tracer, len(walls[True]), walls[True], walls[False], counts,
                setup_layers)
        print(json.dumps(result))
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
