"""Benchmark entry point for zkbstrip.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads: ref-slice,
verify-corpus, cdep-short (see README.md for why each exists).  Every
process this script starts runs worker.py on the package under
``src/``; nothing is installed.

--trace 0 prints the end-to-end metrics: the wall time of one call in
units of the calibration kernel timed around it (calib.py; median over
the calls), the median set-up time over five fresh processes, and the
peak resident memory of the measuring process.  The raw wall time and
the work done per second are printed above the result line.
--trace 1 prints the per-layer metrics of a separate run that
alternates untraced and traced calls.  The metric names and units are
the ones declared in BENCHMARK.json.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every
call passed its correctness gate; without the package sources the
script exits with 2 before measuring anything.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 5  # set-up samples per run, one of them the measuring process
TIME_LIMIT_S = 170.0
# Single-threaded BLAS: the y transforms are 32- and 64-wide matrix
# products, where a second BLAS thread made each call slower and, with
# another process on the CPU, several times slower.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, **WORKER_ENV},
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def wall_norm(walls: list[float], kernel_s: list[float]) -> float:
    """Median over calls of the call's wall time divided by the mean of
    the two kernel blocks timed just before and just after it."""
    return statistics.median(
        w / (0.5 * (k0 + k1)) for w, k0, k1 in zip(walls, kernel_s, kernel_s[1:]))


def print_table(title: str, rows):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<48} {value:>16.6g} {unit}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mutate", action="store_true",
                   help="perturb every output before its gate (mutation check)")
    args = p.parse_args()

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "zkbstrip" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: no zkbstrip sources or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.mutate:
        common.append("--mutate")
    try:
        setups = [run_worker(common + ["--setup-only"], deadline)
                  for _ in range(0 if args.trace else SETUP_PROCESSES - 1)]
        res = run_worker(common, deadline)
        setups.append(res)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted, failed = res["attempted"], res["failed"]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "variant": res["variant"], "calls": attempted,
                      "git_sha": git_sha(), "src_sha256": source_digest(),
                      **res["machine"]}))
    print("untraced call times (s): " + " ".join(f"{w:.4f}" for w in res["walls"]))
    for miss in res["misses"]:
        print(f"gate miss: {miss}")

    if args.trace:
        values = res["layers"]
        declared = bench["per_layer"]
        wall = values["trace.wall_s"]
        layers = sorted((k for k in values if k.endswith(".self_s")),
                        key=lambda k: -values[k])
        print_table("traced self time per call (share of trace.wall_s):",
                    [(k, values[k], f"s  {100 * values[k] / wall:5.1f} %")
                     for k in layers if values[k] > 0])
    else:
        wall = statistics.median(res["walls"])
        kern = res["kernel_s"]
        print("calibration kernel block times (s): "
              + " ".join(f"{k:.4f}" for k in kern))
        values = {
            "wall_norm": wall_norm(res["walls"], kern),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        declared = bench["end_to_end"]
        print_table(f"{args.workload}: {res['ops']} {res['op_unit']} per call",
                    [("wall_s", wall, "s"),
                     (f"{res['op_unit']}_per_s", (res["ops"] or 0) / wall, "1/s"),
                     ("kernel_block_s", statistics.median(kern), "s"),
                     ("failed_frac", failed / attempted, "ratio")])

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print_table("metrics:", [(k, v["value"], v["unit"]) for k, v in metrics.items()])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
