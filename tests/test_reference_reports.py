import copy
import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reference_reports.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("reference_reports", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reports(script):
    return [{"check": c, "n": n, "m": m, "seed": s,
             "max_rel": 1e-12, "tol": 1e-9, "pass": True}
            for c, n, m, s in script._runs()]


def test_runs_have_unique_keys_and_a_one_cell_check_runs_once_per_seed(script):
    runs = script._runs()
    assert len(runs) == len(set(runs)) == 130
    assert [r for r in runs if r[0] == "reduce-n1m1"] == [
        ("reduce-n1m1", 1, 1, seed) for seed in script.SEEDS]


def test_compare_lists_each_differing_report_and_sums_up(script):
    old = _reports(script)
    new = copy.deepcopy(old)
    lines, failed = script.compare(old, new)
    assert not failed and lines[0].startswith(f"0 of {len(old)} reports differ")
    k = next(i for i, r in enumerate(new) if r["check"] == "reduce-n1m1" and r["seed"] == 7)
    new[k]["max_rel"] = 1e-11
    lines, failed = script.compare(old[::-1], new)   # the order of the old file is free
    assert not failed
    assert lines[0] == ("reduce-n1m1 n=1 m=1 seed=7: differs in max_rel; "
                        "max_rel 1.000e-12 -> 1.000e-11 (+1.00 dec), pass True -> True")
    assert lines[1].startswith(f"1 of {len(old)} reports differ, 0 pass/fail flipped; "
                               f"largest max_rel rise +1.00 dec")
    assert lines[1].endswith("min headroom 3.0000 -> 2.0000")


def test_compare_fails_on_a_flip_or_a_different_layout(script):
    old = _reports(script)
    new = copy.deepcopy(old)
    new[0].update(max_rel=1.0, **{"pass": False})
    lines, failed = script.compare(old, new)
    assert failed and lines[0].endswith("pass True -> False  FLIPPED")
    assert "1 pass/fail flipped" in lines[-1]
    lines, failed = script.compare(old[1:], old)   # a run missing
    assert failed and len(lines) == 1
    lines, failed = script.compare(old + old[:1], old)   # a run twice
    assert failed and len(lines) == 1


def test_compare_names_the_keys_parts_and_worst_keys_that_differ(script):
    old = _reports(script)
    for rep in old:
        rep.update(max_abs=1e-12, parts={"assoc": 1e-12, "inverse": 0.0},
                   worst={"part": "assoc", "sample": 3})
    new = copy.deepcopy(old)
    new[0]["max_abs"] = 2e-12
    new[0]["parts"].update(inverse=1e-13, closure=0.0)   # one changed, one new
    new[0]["worst"]["sample"] = 4
    del new[1]["parts"]   # as in a file written before the key existed: named whole
    lines, failed = script.compare(old, new)
    assert not failed
    assert lines[0].split("; ")[0].endswith(
        ": differs in max_abs, parts[closure], parts[inverse], worst[sample]")
    assert lines[1].split("; ")[0].endswith(": differs in parts")
    assert lines[2].startswith("2 of ")
