"""Record the reference outputs the correctness gates compare against.

    python3 perfbench/record_reference.py

Runs one call of every workload variant on the package under ``src/``
and rewrites ``reference.json``.  The committed file holds the outputs
of the commit that introduced the benchmark; re-record only on
purpose, when a change is meant to alter the numbers, and say so in
the change.
"""

import json
import os
import sys
from pathlib import Path

from run import WORKER_ENV

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.update(WORKER_ENV)  # the same BLAS threading as the benchmark

import workloads  # noqa: E402


def main() -> int:
    scalars = {}
    for name, cls in workloads.WORKLOADS.items():
        for variant in range(workloads.VARIANTS):
            wl = cls(variant)
            try:
                wl.setup()
                out = wl.call()
                values = wl.record(out)
            finally:
                wl.close()
            scalars[f"{name}/{variant}"] = values
            print(f"recorded {name} variant {variant}", file=sys.stderr)
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in scalars.items()]
    (HERE / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
