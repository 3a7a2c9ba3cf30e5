"""A CLI process loads only what its command runs: mpmath for certified log
bounds, on first use. Searches run on one thread and take a ``Budget`` as
their only option: no public callable has a ``workers`` parameter, no CLI
command a ``--workers`` flag, and no module of the package imports
concurrent.futures, threading or multiprocessing. Each public name is
declared once, in the ``__all__`` of the module that defines it, and the
package re-exports those lists. No module of the package sets a
``config`` field, and no CLI command takes a ``--verify-mode`` flag."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import zerosums
from zerosums.cli import build_parser

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

from zerosums.logbounds import LogBound
steps["exact_compare"] = [
    LogBound.log2(4) < 3, LogBound.of(1) >= Fraction(1, 2), loaded()
]

code, out = run("invariant", "-g", "6", "-i", "bound:gaowang-log", "--format", "json")
steps["bound"] = [code, json.loads(out)["value"], "mpmath" in sys.modules]

from zerosums import k1, normalize_group
k1(normalize_group([2, 4]))
steps["serial_search"] = "concurrent.futures" in sys.modules
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
    assert steps["exact_compare"] == [True, True, []]
    # ln 6 + log2(6) / 2 = 3.0842..., rounded up to six digits.
    assert steps["bound"] == [0, "3084241/1000000", True]
    assert steps["serial_search"] is False


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


def test_no_public_callable_takes_workers():
    takers = []
    for name in zerosums.__all__:
        obj = getattr(zerosums, name)
        if inspect.isclass(obj):
            obj = obj.__init__
        if inspect.isroutine(obj) and "workers" in inspect.signature(obj).parameters:
            takers.append(name)
    assert takers == []


# Each CLI command with its required options.
COMMANDS = (
    ["invariant", "-g", "4", "-i", "K1"],
    ["verify", "--theorem", "gaowang"],
    ["decompose", "--multiset", "m.json", "--hom", "proj:0"],
    ["catalog", "--max-order", "4"],
)


def assert_flag_refused(argv, flag, capsys):
    parser = build_parser()
    parser.parse_args(argv)
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args([*argv, *flag])
    assert exit_info.value.code == 2
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_no_cli_command_takes_workers(argv, capsys):
    assert_flag_refused(argv, ["--workers", "2"], capsys)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_no_cli_command_takes_verify_mode(argv, capsys):
    # is_ufim has one path, so there is nothing to switch.
    assert_flag_refused(argv, ["--verify-mode"], capsys)


def config_writes(tree: ast.AST):
    """(enclosing function, field) per assignment or setattr of a ``config``
    attribute in the tree."""
    parent = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }

    def enclosing(node):
        while node in parent:
            node = parent[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node.name
        return None

    def fields(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from fields(elt)
        elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            if target.value.id == "config":
                yield target.attr

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "config"
        ):
            yield enclosing(node), ast.unparse(node.args[1])
            continue
        else:
            continue
        for target in targets:
            for name in fields(target):
                yield enclosing(node), name


def test_no_module_sets_a_config_field():
    # The library and the CLI read their caps from config and never set them.
    package = Path(zerosums.__file__).resolve().parent
    writes = set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        writes |= {(path.stem, *write) for write in config_writes(tree)}
    assert writes == set()


# -- the package surface ------------------------------------------------------

# The names the package exported before each module declared its own; each
# must stay exported, as the object its defining module binds.
EXPORTED = (
    "AtomCatalog", "Budget", "ConstraintCheck", "DecompositionResult", "Element",
    "Factorization", "FamilyReport", "FiniteAbelianGroup", "Homomorphism",
    "IndexSubset", "IndexedMultiset", "InvariantResult", "K_star", "ZerosumsError",
    "abelian_groups_of_order", "apply_hom", "atom_catalog", "big_cross_K",
    "check_size_limit", "construction4_decompose", "count_factorizations",
    "cross_number", "d_star", "davenport", "direct_sum_union", "disjoint_union",
    "element_order", "enumerate_atoms", "extremal_ufim", "extremal_zero_sum_free",
    "family_membership", "gao_wang_extremal", "is_minimal_zero_sum", "is_ufim",
    "is_ufim_by_intersection", "is_zero_sum", "is_zero_sum_free", "k1", "k1_star",
    "k_star", "kernel_elements", "kernel_structure", "little_cross_k",
    "lowest_order_bound", "m_p1_of", "mainthm2_constraint", "make_hom",
    "max_zero_sum_free_cross", "multiplication_hom", "n1_star", "narkiewicz_n1",
    "normalize_group", "phiunique_consequences", "prime_stats", "projection_hom",
    "quotient_bound", "quotient_structure", "reduction_hom", "sigma",
    "size_limit_threshold", "trivial_group", "unique_factorization",
    "upper_bounds", "verify_family", "zero_sum_subsets",
)


def declaring_modules():
    """Every module of the package that declares an ``__all__``."""
    package = Path(zerosums.__file__).resolve().parent
    names = sorted(p.stem for p in package.glob("*.py") if not p.stem.startswith("_"))
    modules = [importlib.import_module(f"zerosums.{name}") for name in names]
    return [m for m in modules if hasattr(m, "__all__")]


def test_every_exported_name_is_the_object_its_module_binds():
    assert len(EXPORTED) == 65
    owner = {name: m for m in declaring_modules() for name in m.__all__}
    for name in EXPORTED:
        assert name in zerosums.__all__, name
        assert getattr(zerosums, name) is getattr(owner[name], name), name


def test_each_name_is_declared_by_one_module():
    declared = Counter(name for m in declaring_modules() for name in m.__all__)
    assert [name for name, n in declared.items() if n > 1] == []
    assert sorted(zerosums.__all__) == sorted(declared)


def test_a_module_declares_only_the_functions_and_classes_it_defines():
    for module in declaring_modules():
        for name in module.__all__:
            # unwrap: a memoized function is a wrapper around one.
            obj = inspect.unwrap(getattr(module, name))
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, f"{module.__name__}.{name}"


def test_star_import_binds_exactly_the_package_list():
    namespace: dict = {}
    exec("from zerosums import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(zerosums.__all__)
