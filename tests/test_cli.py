import json

from zerosums.cli import main


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


def test_exit_code_usage_errors(capsys):
    assert run(capsys, "invariant", "-g", "4", "-i", "BOGUS")[0] == 2
    assert run(capsys, "invariant", "-g", "4x2", "-i", "D")[0] == 2
    assert run(capsys, "invariant", "-g", "1", "-i", "D")[0] == 2


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


def test_structured_reports_identical_across_workers(tmp_path, capsys):
    outputs = []
    for workers in ("1", "4", "8"):
        code, out, _ = run(
            capsys,
            "invariant", "-g", "2,2,3", "-i", "K1",
            "--format", "json", "--workers", workers,
            "--cache-dir", str(tmp_path / f"w{workers}"),
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_truncated_cache_files_are_recomputed(tmp_path, capsys):
    argv = ["invariant", "-g", "2,4", "-i", "K1", "--format", "json"]
    code, fresh, _ = run(capsys, *argv, "--cache-dir", str(tmp_path / "fresh"))
    assert code == 0
    cache_dir = tmp_path / "cache"
    assert run(capsys, *argv, "--cache-dir", str(cache_dir))[0] == 0
    record = cache_dir / "results-v1" / "2_4__K1.json"
    catalog = cache_dir / "atoms-v1" / "2_4__L8.txt"
    whole_record, whole_catalog = record.read_bytes(), catalog.read_bytes()
    record.write_bytes(whole_record[: len(whole_record) // 2])
    catalog.write_bytes(whole_catalog[: len(whole_catalog) - 3])
    code, out, err = run(capsys, *argv, "--cache-dir", str(cache_dir))
    assert code == 0 and not err
    assert json.loads(out) == json.loads(fresh)
    assert record.read_bytes() == whole_record
    assert catalog.read_bytes() == whole_catalog
    assert sorted(p.name for p in cache_dir.rglob("*")) == sorted(
        ["results-v1", "atoms-v1", record.name, catalog.name]
    )


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
