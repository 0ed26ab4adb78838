import os
import subprocess
import sys
from pathlib import Path

import zkbstrip


def test_every_exported_name_resolves():
    missing = [name for name in zkbstrip.__all__ if not hasattr(zkbstrip, name)]
    assert missing == []
    assert len(set(zkbstrip.__all__)) == len(zkbstrip.__all__)


def test_star_import():
    namespace = {}
    exec("from zkbstrip import *", namespace)
    assert set(zkbstrip.__all__) <= set(namespace)


def test_runs_without_scipy():
    """numpy's FFT is the package's only FFT: importing every module,
    taking a step and running the corpus verifiers loads no scipy (the
    tests' references do)."""
    code = (
        "import sys\n"
        "import zkbstrip, zkbstrip.cli\n"
        "g = zkbstrip.StripGeometry(B=3.0, Lx=4.0, Nx=16, Ny=6)\n"
        "u = zkbstrip.make_random_field(g, seed=0)\n"
        "series = zkbstrip.run(u, zkbstrip.SolverConfig(dt=1e-3, t_end=1e-3))\n"
        "assert len(series.samples) == 2\n"
        "for s in ('steklov', 'gn', 'sup'):\n"
        "    assert zkbstrip.cli.verify_suite(s, 1, 0)['all_hold']\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(zkbstrip.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
