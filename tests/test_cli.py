import argparse
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from zerosums import cli, config, invariants
from zerosums.atoms import clear_catalog_memory
from zerosums.cache import ResultCache, open_cache
from zerosums.cli import build_parser, main, parse_group_spec
from zerosums.constructions import extremal_ufim
from zerosums.groups import normalize_group
from zerosums.invariants import THEOREMS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_table_output(capsys):
    code, out, err = run(
        capsys, "invariant", "-g", "4", "-i", "K1", "--witness"
    )
    assert code == 0
    assert "value       3/2" in out
    assert "witness     [[1], [2], [2], [3]]" in out
    assert "provenance  computed" in out
    assert "elapsed" in err and "elapsed" not in out


def test_readme_invariant_example_is_the_output(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    command = "$ zerosums invariant -g 4 -i K1 --witness\n"
    shown = readme[readme.index(command) + len(command) :].split("\n\n")[0]
    code, out, _ = run(capsys, "invariant", "-g", "4", "-i", "K1", "--witness")
    assert code == 0
    assert out == shown + "\n"


def test_invariant_json_golden(capsys):
    code, out, _ = run(
        capsys, "invariant", "-g", "2,3", "-i", "K1star", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record == {
        "version": 1,
        "group_key": "6",
        "invariant": "K1star",
        "value": "2/1",
        "witness": None,
        "stats": {"nodes": 0, "prunes": {}},
        "provenance": "formula",
        "incomplete": False,
    }


def test_invariant_davenport_normalizes_spec(capsys):
    code, out, _ = run(capsys, "invariant", "-g", "4,2", "-i", "D")
    assert code == 0
    assert "group       2x4" in out
    assert "value       5" in out


def test_invariant_power_token(capsys):
    code, out, _ = run(
        capsys, "invariant", "-g", "2^2,3", "-i", "K1", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["group_key"] == "12"
    assert record["value"] == "5/2"


def test_invariant_bound(capsys):
    code, out, _ = run(
        capsys, "invariant", "-g", "4", "-i", "bound:girard", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["value"] == "3/2"


@pytest.mark.parametrize("spec", ["2,32", "128"])
def test_log_bounds_need_no_search(monkeypatch, capsys, spec):
    # Past the atom caps: the two log bounds are closed forms in |G| and its
    # primes, so they are answered without computing k.
    def no_search(*args, **kwargs):
        raise AssertionError("little_cross_k was called")

    monkeypatch.setattr(invariants, "little_cross_k", no_search)
    group = cli.parse_group_spec(spec)
    bounds = invariants.upper_bounds(group, {"k": Fraction(0)})
    for name in ("bound:gaowang-log", "bound:asymptote-gap"):
        code, out, _ = run(capsys, "invariant", "-g", spec, "-i", name, "--format", "json")
        assert code == 0
        value = Fraction(json.loads(out)["value"])
        assert value == bounds[cli._BOUNDS[name]].upper_rational()


def test_exit_code_usage_errors(capsys):
    assert run(capsys, "invariant", "-g", "4", "-i", "BOGUS")[0] == 2
    assert run(capsys, "invariant", "-g", "4x2", "-i", "D")[0] == 2
    assert run(capsys, "invariant", "-g", "1", "-i", "D")[0] == 2
    assert run(capsys, "invariant", "-g", "2^-1", "-i", "D")[0] == 2
    assert run(capsys, "invariant", "-g", "0^-1", "-i", "D")[0] == 2


# N1*, the sum of the invariant factors, may have up to 4300 digits, the
# default of sys.get_int_max_str_digits(): 2^14284 has 4300, 2^14287 4301.
DIGIT_LIMIT_CASES = {
    "2^14284": 0,
    "2^7000,2^7300": 0,
    "1" + "0" * 4299: 0,
    "2^14287": 2,
    "2^7000,3^5000": 2,
    "-2^14287": 2,
    "1" + "0" * 4300: 2,
    "2^9999999": 2,
}


@pytest.mark.parametrize(
    "spec",
    DIGIT_LIMIT_CASES,
    ids=lambda spec: spec if len(spec) < 20 else f"{len(spec)} digits",
)
def test_group_spec_digit_limit(capsys, spec):
    code, out, err = run(
        capsys, "invariant", "-g=" + spec, "-i", "Dstar", "--format", "json"
    )
    assert code == DIGIT_LIMIT_CASES[spec]
    if code == 0:
        factors = parse_group_spec(spec).invariant_factors
        assert json.loads(out)["value"] == f"{sum(factors) - len(factors) + 1}/1"
    else:
        assert out == "" and "more than 4300 digits" in err and len(err) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "-i", "K1", "-g", "4", "--budget-nodes", "-1"],
        ["invariant", "-i", "K1", "-g", "4", "--budget-seconds", "-1"],
        ["invariant", "-i", "K1", "-g", "2,2,2,2", "--budget-seconds", "nan"],
        ["decompose", "--hom", "mod:2", "--max-size", "-1"],
        ["catalog", "--max-order", "-1"],
    ],
)
def test_nonsense_budgets_and_caps_are_usage_errors(tmp_path, capsys, argv):
    if argv[0] == "decompose":
        path = tmp_path / "ms.json"
        path.write_text(GOOD_MULTISET, encoding="utf-8")
        argv = [*argv, "--multiset", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "must be at least 0" in err


def test_exit_code_resource_limit(capsys):
    assert run(capsys, "invariant", "-g", "40", "-i", "K1")[0] == 5


def test_exit_code_budget_and_incomplete_marker(capsys):
    code, out, _ = run(
        capsys,
        "invariant", "-g", "2,2,3", "-i", "K1", "--budget-nodes", "20",
    )
    assert code == 3
    assert "incomplete" in out
    code, out, _ = run(
        capsys,
        "invariant", "-g", "2,2,3", "-i", "K1", "--budget-nodes", "20",
        "--format", "json",
    )
    assert code == 3
    record = json.loads(out)
    assert record["incomplete"] is True
    # the incumbent is at least the closed-form floor
    num, _, den = record["value"].partition("/")
    assert int(num) >= 3 * int(den)


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "gaowang", "--orders", "2..6")
    assert code == 0
    assert "6/6 instances passed" in out

    code, out, _ = run(
        capsys, "verify", "--theorem", "mainthm1", "--p", "2", "--m", "2", "--n", "1"
    )
    assert code == 0 and "[pass]" in out

    code, out, _ = run(
        capsys, "verify", "--theorem", "maximal-split-pq", "--pq", "2,3"
    )
    assert code == 0

    assert run(capsys, "verify", "--theorem", "unknown")[0] == 2
    assert run(capsys, "verify", "--theorem", "mainthm1", "--p", "2")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("maximal-split-pq", "--pq", "2,4"),
        ("n1k1", "--p", "6", "--n", "1"),
        ("n1k1", "--p", "2", "--n", "0"),
        ("mainthm1", "--p", "4", "--m", "1", "--n", "1"),
        ("mainthm2", "--p", "2", "--m", "1", "--q", "4", "--n", "1"),
    ],
    ids=" ".join,
)
def test_verify_rejects_non_prime_or_nonpositive_parameters(capsys, argv):
    code, out, err = run(capsys, "verify", "--theorem", *argv)
    assert code == 2
    assert out == "" and "must be" in err


@pytest.mark.parametrize("orders", ["x", "5..3", "2..", "..4", "3..x"])
def test_verify_rejects_malformed_order_range(capsys, orders):
    code, out, err = run(capsys, "verify", "--theorem", "gaowang", "--orders", orders)
    assert code == 2
    assert out == "" and "--orders" in err


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_verify_with_no_instance_is_a_usage_error(capsys, fmt):
    code, out, err = run(
        capsys, "verify", "--theorem", "gaowang", "--orders", "30..30", "--format", fmt
    )
    assert code == 2
    assert out == "" and "gaowang: no instance at orders [30]" in err


def test_verify_failure_exit_code(capsys):
    # A budget-starved search cannot certify the family, which must surface
    # as a verification failure, not a silent pass.
    code, out, _ = run(
        capsys,
        "verify", "--theorem", "gaowang", "--orders", "9..9",
        "--budget-nodes", "5",
    )
    assert code == 4
    assert "incomplete" in out


def test_decompose_command(tmp_path, capsys):
    payload = {"group": "4", "elements": [[1], [2], [3], [2]]}
    path = tmp_path / "ms.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, _ = run(
        capsys, "decompose", "--multiset", str(path), "--hom", "mod:2",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["t"] == 0
    assert data["kernel_part"]["elements"] == [[2], [2]]
    assert all(row["passed"] for row in data["consequences"])


def test_decompose_prints_rows_whose_invariants_are_past_a_cap(tmp_path, capsys):
    # The kernel of proj:0 on C_2^6 has order 32, past the search cap, so
    # every row that needs K1 or N1 of the kernel has no right side.
    group = normalize_group([2] * 6)
    elements = [list(e) for e in extremal_ufim(group).elements()]
    path = tmp_path / "ms.json"
    path.write_text(json.dumps({"group": "2,2,2,2,2,2", "elements": elements}))
    code, out, err = run(
        capsys, "decompose", "--multiset", str(path), "--hom", "proj:0",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["consequences"]
    assert [(r["item"], r["passed"], r["rhs"]) for r in rows] == [
        (1, None, "-"), (2, None, "-"), (3, None, "-"), (4, None, "-"),
        (5, True, "1"), (7, None, "-"),
    ]
    assert "exceeds the search cap" in err
    code, out, _ = run(
        capsys, "decompose", "--multiset", str(path), "--hom", "proj:0"
    )
    assert code == 0
    assert "[-] (1)" in out and "[pass] (5)" in out


def test_decompose_treats_a_search_stopped_on_the_budget_as_unknown(
    tmp_path, capsys, monkeypatch
):
    # proj:1 on C_2+C_16 has kernel C_2 and quotient C_16. One node is
    # enough for the kernel searches and too few for K1 of the quotient, so
    # only the rows that need it (5, and 7 as t = 0) lose their right side.
    monkeypatch.delenv("ZEROSUMS_CACHE_DIR", raising=False)
    group = normalize_group([2, 16])
    elements = [list(e) for e in extremal_ufim(group).elements()]
    path = tmp_path / "ms.json"
    path.write_text(json.dumps({"group": "2,16", "elements": elements}))
    argv = ["decompose", "--multiset", str(path), "--hom", "proj:1", "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert all(r["passed"] for r in json.loads(out)["consequences"])

    code, out, err = run(capsys, *argv, "--budget-nodes", "1")
    assert code == 3
    rows = json.loads(out)["consequences"]
    assert [(r["item"], r["passed"], r["rhs"]) for r in rows] == [
        (1, True, "1"), (2, True, "2"), (3, True, "23/8"), (4, True, "23/8"),
        (5, None, "-"), (7, None, "-"),
    ]
    assert err == (
        "note: K1 of the quotient not computed: the search stopped on the "
        "budget after 1 nodes\n"
    )
    code, out, _ = run(capsys, *argv[:-2], "--budget-nodes", "1")
    assert code == 3
    assert "[-] (5)" in out and "[pass] (4)" in out

    # A failing row outranks the stopped search.
    def failing(decomposition, parts):
        return [{"item": 1, "statement": "s", "lhs": Fraction(2), "rhs": Fraction(1),
                 "passed": False}]

    monkeypatch.setattr(cli, "phiunique_consequences", failing)
    code, _, _ = run(capsys, *argv, "--budget-nodes", "1")
    assert code == 4


GOOD_MULTISET = '{"group": "4", "elements": [[1], [3]]}'


@pytest.mark.parametrize("multiset, hom", [
    ("[1,2]", "mod:2"),
    ('{"group": 4, "elements": [[1], [3]]}', "mod:2"),
    ('{"group": "4", "elements": 5}', "mod:2"),
    ('{"group": "4", "elements": [[1], "x"]}', "mod:2"),
    ('{"group": "4", "elements": [[1.5], [2.5]]}', "mod:2"),
    (GOOD_MULTISET, "images:4:5"),
    (GOOD_MULTISET, 'images:4:[["a"]]'),
    (GOOD_MULTISET, 'images:2:{"a":1}'),
])
def test_decompose_malformed_input_is_a_usage_error(tmp_path, capsys, multiset, hom):
    path = tmp_path / "ms.json"
    path.write_text(multiset, encoding="utf-8")
    code, _, err = run(capsys, "decompose", "--multiset", str(path), "--hom", hom)
    assert code == 2
    assert err.startswith("error:")


def test_decompose_of_a_multiset_that_is_not_zero_sum_is_a_usage_error(
    tmp_path, capsys
):
    path = tmp_path / "ms.json"
    path.write_text('{"group": "4", "elements": [[1], [2]]}', encoding="utf-8")
    code, out, err = run(capsys, "decompose", "--multiset", str(path), "--hom", "mod:2")
    assert (code, out) == (2, "")
    assert err == (
        "error: decomposition needs a unique-factorization multiset over G\\{0}\n"
    )


def test_catalog_empty(capsys):
    code, out, _ = run(capsys, "catalog", "--max-order", "1")
    assert code == 0
    assert "empty" in out


def test_catalog_warm_cache_identical_values(tmp_path, capsys):
    argv = ["catalog", "--max-order", "6", "--cache-dir", str(tmp_path)]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert "computed" in out1 and "cached" in out2
    strip = lambda text: text.replace("computed", "@").replace("cached", "@")
    assert strip(out1) == strip(out2)


def test_truncated_cache_files_are_recomputed(tmp_path, capsys):
    argv = ["invariant", "-g", "2,4", "-i", "K1", "--format", "json"]
    code, fresh, _ = run(capsys, *argv, "--cache-dir", str(tmp_path / "fresh"))
    assert code == 0
    cache_dir = tmp_path / "cache"
    assert run(capsys, *argv, "--cache-dir", str(cache_dir))[0] == 0
    record = cache_dir / "results-v1" / "2_4__K1.json"
    whole_record = record.read_bytes()
    record.write_bytes(whole_record[: len(whole_record) // 2])
    code, out, err = run(capsys, *argv, "--cache-dir", str(cache_dir))
    assert code == 0 and not err
    assert json.loads(out) == json.loads(fresh)
    assert record.read_bytes() == whole_record
    assert not (cache_dir / "atoms-v1").exists()
    assert sorted(p.name for p in cache_dir.rglob("*")) == sorted(
        ["results-v1", record.name]
    )


def write_stale_catalog(cache_dir, atom_lines):
    """The C_4 catalog file that earlier versions wrote to the cache dir and
    read back unchecked; its header counts the atom lines given."""
    path = cache_dir / "atoms-v1" / "4__L4.txt"
    path.parent.mkdir(parents=True)
    header = ["zerosums-atoms/1", "group=4", "max_len=4", "complete=1",
              f"count={len(atom_lines)}"]
    path.write_text("\n".join(header + atom_lines) + "\n")


C4_ATOM_LINES = ["1 3", "2 2", "1 1 2", "2 3 3", "1 1 1 1", "3 3 3 3"]


def test_stale_catalog_without_the_longest_atoms_does_not_change_d(
    tmp_path, capsys
):
    write_stale_catalog(tmp_path, C4_ATOM_LINES[:4])
    code, out, _ = run(
        capsys, "invariant", "-g", "4", "-i", "D", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert "value       4" in out
    assert "provenance  computed" in out


def test_stale_catalog_with_a_foreign_element_does_not_break_k1(
    tmp_path, capsys
):
    write_stale_catalog(tmp_path, C4_ATOM_LINES + ["1 1 9"])
    code, out, _ = run(
        capsys, "invariant", "-g", "4", "-i", "K1", "--format", "json",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert json.loads(out)["value"] == "3/2"


def test_unwritable_cache_dir_is_an_error_not_a_traceback(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    code, out, err = run(
        capsys, "invariant", "-g", "4", "-i", "K1", "--cache-dir", str(not_a_dir)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write to the cache: ")
    assert "Not a directory" in err


def test_unreadable_record_is_a_miss(tmp_path, capsys):
    # A directory where the record should be: the lookup misses, the result
    # is computed, and storing it over the directory is an error.
    (tmp_path / "results-v1" / "4__K1.json").mkdir(parents=True)
    assert ResultCache(tmp_path).get_record("4", "K1") is None
    code, out, err = run(
        capsys, "invariant", "-g", "4", "-i", "K1", "--cache-dir", str(tmp_path)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write to the cache: ")
    assert "Is a directory" in err
    assert not list((tmp_path / "results-v1").glob(".*.tmp"))


def test_cache_dir_comes_from_the_option_then_the_environment(
    monkeypatch, tmp_path, capsys
):
    monkeypatch.delenv("ZEROSUMS_CACHE_DIR", raising=False)
    assert open_cache() is None
    monkeypatch.setenv("ZEROSUMS_CACHE_DIR", "")
    assert open_cache() is None
    monkeypatch.setenv("ZEROSUMS_CACHE_DIR", str(tmp_path))
    assert open_cache().root == tmp_path
    assert open_cache(tmp_path / "other").root == tmp_path / "other"
    # An empty option is the current directory, not "no cache".
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ZEROSUMS_CACHE_DIR")
    assert run(capsys, "invariant", "-g", "4", "-i", "K1", "--cache-dir", "")[0] == 0
    assert (tmp_path / "results-v1" / "4__K1.json").is_file()


def test_elapsed_includes_the_catalog(tmp_path, capsys):
    # D reads the C_24 catalog (28,064 atoms) and runs no search.
    clear_catalog_memory()
    code, _, err = run(
        capsys, "invariant", "-g", "24", "-i", "D", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    match = re.fullmatch(r"elapsed (\d+) ms\n", err)
    assert match and int(match.group(1)) >= 1


def test_cache_hit_with_a_wrong_value_is_recomputed(tmp_path, capsys):
    argv = ["invariant", "-g", "4", "-i", "K1", "--format", "json",
            "--cache-dir", str(tmp_path)]
    code, fresh, _ = run(capsys, *argv)
    assert code == 0 and json.loads(fresh)["value"] == "3/2"
    path = tmp_path / "results-v1" / "4__K1.json"
    whole = path.read_text()
    for edit in ({"value": "7/2"}, {"value": "7/2", "witness": None}):
        record = dict(json.loads(whole), **edit)
        path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        served = json.loads(out)
        assert served["value"] == "3/2" and served["provenance"] == "computed"
        assert path.read_text() == whole
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["provenance"] == "cached"


def test_cache_hit_below_the_lower_bound_is_recomputed(tmp_path, capsys):
    # [1, 1, 1, 1] over C_4 is a real UFIM of cross number 1, so the edited
    # record passes verify(); but K1(C_4) >= K1*(C_4) = 3/2.
    argv = ["invariant", "-g", "4", "-i", "K1", "--format", "json",
            "--cache-dir", str(tmp_path)]
    assert run(capsys, *argv)[0] == 0
    path = tmp_path / "results-v1" / "4__K1.json"
    whole = path.read_text()
    edit = {"value": "1/1", "witness": [[1], [1], [1], [1]]}
    record = dict(json.loads(whole), **edit)
    path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    served = json.loads(out)
    assert served["value"] == "3/2" and served["provenance"] == "computed"
    assert path.read_text() == whole


def test_main_restores_the_config_it_sets(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(config, "VERIFICATION_MODE", False)
    fields = {name: getattr(config, name) for name in dir(config) if name.isupper()}
    assert run(capsys, "invariant", "-g", "2,4", "-i", "K1", "--verify-mode")[0] == 0
    assert config.VERIFICATION_MODE is False
    # also when the command fails
    assert run(capsys, "invariant", "-g", "40", "-i", "K1", "--verify-mode")[0] == 5
    assert config.VERIFICATION_MODE is False
    # --max-size caps the multiset decompose reads, and sets no config field.
    path = tmp_path / "ms.json"
    path.write_text(GOOD_MULTISET, encoding="utf-8")
    argv = ["decompose", "--multiset", str(path), "--hom", "mod:2", "--max-size"]
    assert run(capsys, *argv, "2")[0] == 0
    assert run(capsys, *argv, "1")[0] == 5
    assert {name: getattr(config, name) for name in fields} == fields
    # and no other command takes it
    with pytest.raises(SystemExit):
        main(["invariant", "-g", "4", "-i", "D", "--max-size", "3"])


def test_unknown_names_exit_before_computing(monkeypatch, capsys):
    # Past the atom cap: nothing to compute, and still a usage error.
    code, _, err = run(capsys, "invariant", "-g", "128", "-i", "bound:nope")
    assert code == 2 and "unknown invariant 'bound:nope'" in err
    calls = []
    monkeypatch.setattr(cli, "upper_bounds", lambda *a, **k: calls.append(a) or {})
    for name in ("bound:nope", "nope"):
        code, _, err = run(capsys, "invariant", "-g", "2,16", "-i", name)
        assert code == 2 and f"unknown invariant {name!r}" in err
    assert calls == []


def _option_help(command: str, dest: str) -> str:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest).help


def test_invariant_help_lists_the_registry(capsys):
    names = _option_help("invariant", "invariant").split()
    registry = [*cli.INVARIANTS, *cli._FORMULAS, *cli._BOUNDS]
    assert sorted(names) == sorted(registry)
    for name in names:
        assert run(capsys, "invariant", "-g", "2,2", "-i", name)[0] == 0


def test_theorem_help_lists_the_theorem_table():
    assert _option_help("verify", "theorem").split() == list(THEOREMS)


def test_catalog_prints_a_dash_above_each_cap(monkeypatch, capsys):
    monkeypatch.setattr(config, "SEARCH_ORDER_CAP", 3)
    monkeypatch.setattr(config, "ATOM_ORDER_CAP", 5)
    code, out, _ = run(capsys, "catalog", "--max-order", "6", "--format", "json")
    assert code == 0
    rows = {row["group"]: row for row in json.loads(out)}
    assert list(rows) == ["2", "3", "2x2", "4", "5", "6"]
    for key, row in rows.items():
        order = normalize_group([int(m) for m in key.split("x")]).order
        for column in ("D", "K", "k"):
            assert (row[column] == "-") == (order > 5), (key, column)
        for column in ("N1", "K1", "K1 gap"):
            assert (row[column] == "-") == (order > 3), (key, column)


def test_catalog_and_invariant_agree(tmp_path, capsys):
    code, out, _ = run(
        capsys, "catalog", "--max-order", "8", "--format", "json",
        "--cache-dir", str(tmp_path / "catalog"),
    )
    assert code == 0
    rows = json.loads(out)
    columns = {
        **{name.replace("star", "*"): name for name in cli._FORMULAS},
        **{name: name for name in cli.INVARIANTS},
    }
    assert len(rows) == 10
    for row in rows:
        assert set(row) == {*columns, "group", "K1 gap", "provenance"}
        for column, name in columns.items():
            code, out, _ = run(
                capsys, "invariant", "-g", row["group"].replace("x", ","),
                "-i", name, "--format", "json",
                "--cache-dir", str(tmp_path / "invariant"),
            )
            assert code == 0
            assert Fraction(row[column]) == Fraction(json.loads(out)["value"]), (
                row["group"], name
            )
