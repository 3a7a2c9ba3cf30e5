"""A CLI process loads only what its command runs: mpmath for certified log
bounds, on first use. Searches run on one thread whatever ``workers`` says,
and no module of the package imports concurrent.futures, threading or
multiprocessing."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import zerosums

SRC = str(Path(zerosums.__file__).resolve().parent.parent)

SCRIPT = r"""
import contextlib, io, json, sys
from fractions import Fraction

LAZY = ("mpmath", "concurrent.futures")


def loaded():
    return [name for name in LAZY if name in sys.modules]


def run(*argv):
    from zerosums.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


steps = {}
import zerosums.cli
steps["import"] = loaded()
code, _ = run("catalog", "--max-order", "4", "--cache-dir", sys.argv[1])
steps["catalog"] = [code, loaded()]
code, out = run("invariant", "-g", "4", "-i", "K1", "--format", "json",
                "--cache-dir", sys.argv[1])
steps["cached"] = [code, json.loads(out)["provenance"], loaded()]

code, out = run("invariant", "-g", "6", "-i", "bound:gaowang-log", "--format", "json")
steps["bound"] = [code, json.loads(out)["value"], "mpmath" in sys.modules]

from zerosums import k1, normalize_group
from zerosums.invariants import to_record
group = normalize_group([2, 4])
serial = to_record(k1(group, workers=1))
steps["serial_search"] = "concurrent.futures" in sys.modules
ignored = to_record(k1(group, workers=2))
steps["workers_ignored"] = [ignored == serial, "concurrent.futures" in sys.modules]
print(json.dumps(steps))
"""


def test_cli_loads_lazy_modules_only_on_first_use(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env.pop("ZEROSUMS_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "cache")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert steps["import"] == []
    assert steps["catalog"] == [0, []]
    assert steps["cached"] == [0, "cached", []]
    # ln 6 + log2(6) / 2 = 3.0842..., rounded up to six digits.
    assert steps["bound"] == [0, "3084241/1000000", True]
    assert steps["serial_search"] is False
    assert steps["workers_ignored"] == [True, False]


POOL_MODULES = ("concurrent.futures", "threading", "multiprocessing")


def imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            # from concurrent import futures
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_package_imports_no_thread_or_process_pool():
    package = Path(zerosums.__file__).resolve().parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in imported_modules(tree):
            if any(name == m or name.startswith(m + ".") for m in POOL_MODULES):
                offenders.append(f"{path.name}: {name}")
    assert offenders == []
