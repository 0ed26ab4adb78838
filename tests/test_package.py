import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import zkbstrip
from zkbstrip import cli


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
        "import numpy as np\n"
        "import zkbstrip, zkbstrip.cli\n"
        "g = zkbstrip.StripGeometry(B=3.0, Lx=4.0, Nx=16, Ny=6)\n"
        "c = zkbstrip.fields.random_blocks(g, [0])[0]\n"
        "u = zkbstrip.Field(g, np.pad(c, [(0, 9 - c.shape[0]), (0, 6 - c.shape[1])]))\n"
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


def _is_config_key(block, key):
    """block.key names a key of the config block, as README's config
    section writes them (`geometry.b`, `solver.dealias`)."""
    return f"{block}.{key}" in cli._OWN_CHECKS or (
        block in cli._BLOCKS and key in {f.name for f in fields(cli._BLOCKS[block])})


def test_readme_module_references_resolve():
    """Every `module.name` in README.md whose first part is a zkbstrip
    module (`zkbstrip.` prefix optional) resolves by getattr, so a name
    the package drops cannot stay in the docs."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    modules = {m.name for m in pkgutil.iter_modules(zkbstrip.__path__)}
    refs = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", text)
    stale, checked = [], 0
    for ref in refs:
        first, *path = ref.removeprefix("zkbstrip.").split(".")
        if first not in modules or (path and _is_config_key(first, path[0])):
            continue
        checked += 1
        obj = importlib.import_module(f"zkbstrip.{first}")
        for part in path:
            obj = getattr(obj, part, None)
        if obj is None:
            stale.append(ref)
    assert checked >= 10  # the pattern still finds README's references
    assert stale == []


def test_unit_suite_takes_no_reference_run():
    """No test file but test_acceptance.py takes the session ``paper_ref``
    fixture or calls ``paper_ref_run``: the unit suite,
    ``pytest --ignore=tests/test_acceptance.py``, makes no reference run."""
    found = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        if path.name == "test_acceptance.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and "paper_ref" in (
                    a.arg for a in node.args.args):
                found.append(f"{path.name}:{node.lineno} {node.name}(paper_ref)")
            elif isinstance(node, ast.Call) and "paper_ref_run" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append(f"{path.name}:{node.lineno} paper_ref_run()")
    assert found == []
