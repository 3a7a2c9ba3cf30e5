"""The names the benchmark in ``perfbench/`` reaches into the library by.

The benchmark patches, clears and configures the library by name, and a
removed name fails only when the benchmark runs. These tests read
``perfbench/`` (parsing ``tracer.py`` rather than importing it) and check
each hook against the library as it stands.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import zerosums
from zerosums import atoms, config, groups
from zerosums.multisets import IndexedMultiset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_targets() -> dict[str, tuple[str, ...]]:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize(
    "module, attr",
    [(m, a) for m, attrs in _tracer_targets().items() for a in attrs],
)
def test_every_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"zerosums.{module}")
    if "." in attr:
        # The tracer patches the method on the class itself.
        cls_name, method = attr.split(".")
        cls = getattr(owner, cls_name)
        assert method in vars(cls), f"{cls_name}.{method} is not defined on the class"
    else:
        assert callable(getattr(owner, attr))


def _library_names(script: str) -> list[str]:
    """Every name read as ``zs.<name>`` in a benchmark script, where the
    script imports the package as zs."""
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    imports = [
        alias for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    ]
    assert any(a.name == "zerosums" and a.asname == "zs" for a in imports), script
    return sorted({
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "zs"
    })


@pytest.mark.parametrize(
    "script, name",
    [(s, n) for s in ("predicates.py", "inproc.py") for n in _library_names(s)],
)
def test_every_library_name_the_benchmark_calls_resolves(script, name):
    assert hasattr(zerosums, name), f"{script} calls zs.{name}"


def test_memo_clearers_exist():
    assert callable(groups.group_table.cache_clear)
    assert callable(groups.order_statistics.cache_clear)
    assert callable(atoms.clear_catalog_memory)


def test_pinned_config_matches_the_defaults():
    # A fresh copy of the module: the live one is changed by the test
    # fixture (verification mode) and by the CLI.
    spec = importlib.util.spec_from_file_location("pristine_config", config.__file__)
    defaults = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(defaults)
    pinned = json.loads((PERFBENCH / "expected" / "config.json").read_text(encoding="utf-8"))
    assert pinned
    for name, value in pinned.items():
        assert getattr(defaults, name) == value, name


def test_from_elements_takes_max_size():
    group = groups.normalize_group([4])
    ms = IndexedMultiset.from_elements(group, [[1], [3]], max_size=2)
    assert ms.size == 2
