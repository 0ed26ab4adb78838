"""Show that every workload's correctness gate can fail.

    python3 perfbench/mutation_check.py [workload ...]

For each workload, runs ``run.py --mutate`` for one call: every output
is perturbed before its gate (a series value or worst margin by a
relative 1e-12, ten times the tolerance; the cdep ratio by ten times
its tolerance).  The check passes when each such run reports failed > 0,
correct = false and a non-zero exit code.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ref-slice", "verify-corpus", "cdep-short")


def main(argv: list[str]) -> int:
    ok = True
    for name in argv or WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", "0", "--seconds", "1", "--trace", "0", "--mutate"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        caught = (proc.returncode != 0 and result.get("failed", 0) > 0
                  and result.get("correct") is False)
        ok &= caught
        misses = [ln for ln in lines if ln.startswith("gate miss:")]
        print(f"{name}: {'caught' if caught else 'NOT CAUGHT'} "
              f"(exit {proc.returncode}, failed {result.get('failed')}/"
              f"{result.get('attempted')}) {misses[:1]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
