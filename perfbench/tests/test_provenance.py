"""Result sets with different provenance are refused, not diffed."""

import json

import compare
from provenance import COMPARED, collect, mismatches

PROGRAM = {"exec_core": "vector", "cov_backend": "settrace",
           "crashgen": "singlepass", "warm_open": True, "isolation": "none",
           "transport": "none"}


def result_set(bench_dir, **overrides):
    prov = collect("pmfuzz-btree", 0, 30, "0", str(bench_dir), PROGRAM,
                   [0.1, 0.2])
    prov.update(overrides)
    return {"provenance": prov,
            "metrics": {"wall_s": {"value": 2.0, "unit": "s"}}}


def test_every_compared_key_is_recorded(tmp_path):
    prov = result_set(tmp_path)["provenance"]
    assert set(COMPARED) <= set(prov)
    assert {"seed", "loadavg_start"} <= set(prov)


def test_provenance_mismatch_is_refused(tmp_path):
    old = result_set(tmp_path, python="3.13.0", numpy="absent")
    new = result_set(tmp_path)
    lines = compare.compare(old, new, {})
    assert lines[0] == "not comparable: provenance differs"
    assert any("python" in line for line in lines)
    assert any("numpy" in line for line in lines)
    assert not any("wall_s" in line for line in lines)


def test_seed_and_load_do_not_block_a_comparison(tmp_path):
    old = result_set(tmp_path, seed=5, loadavg_start=[1.5, 1.0])
    new = result_set(tmp_path)
    new["metrics"]["wall_s"]["value"] = 2.5
    assert mismatches(old["provenance"], new["provenance"]) == []
    spec = {"wall_s": {"better": "lower", "bound": 0.2}}
    lines = compare.compare(old, new, spec)
    assert lines[0] == "comparable"
    assert "+25.0%" in lines[1] and "WORSE than bound" in lines[1]


def test_compare_cli_exit_codes(tmp_path, capsys):
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    old_path.write_text(json.dumps(result_set(tmp_path, exec_core="scalar")))
    new_path.write_text(json.dumps(result_set(tmp_path)))
    assert compare.main([str(old_path), str(new_path)]) == \
        compare.NOT_COMPARABLE
    assert "not comparable" in capsys.readouterr().out
    assert compare.main([str(new_path), str(new_path)]) == 0
