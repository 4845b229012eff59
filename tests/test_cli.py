import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sjgeo

from sjgeo import verify
from sjgeo.cli import main
from sjgeo.cmatrix import SingularMatrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_origin_point(tmp_path):
    path = tmp_path / "origin.json"
    path.write_text(json.dumps({
        "model": "disk", "n": 1, "m": 1,
        "w": {"rows": 1, "cols": 1, "data": [[0.0, 0.0]]},
        "eta": {"rows": 1, "cols": 1, "data": [[0.0, 0.0]]},
    }))
    return str(path)


def _write_unit_tangent(tmp_path, d_w, d_eta):
    path = tmp_path / "tangent.json"
    path.write_text(json.dumps({
        "model": "disk", "n": 1, "m": 1,
        "dmat": {"rows": 1, "cols": 1, "data": [[d_w, 0.0]]},
        "dvec": {"rows": 1, "cols": 1, "data": [[d_eta, 0.0]]},
    }))
    return str(path)


def test_verify_single_check(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "cayley-roundtrip",
                             "--n", "2", "--m", "1", "--samples", "10",
                             "--out", str(out_file))
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["check"] == "cayley-roundtrip" and rep["pass"]
    assert "cayley-roundtrip" in err


def test_verify_all_reports_reduce_n1m1_at_its_own_cell(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "--n", "3", "--m", "2",
                             "--samples", "2")
    assert code == 0
    cells = {rep["check"]: (rep["n"], rep["m"]) for rep in json.loads(out)}
    assert cells.pop("reduce-n1m1") == (1, 1)
    assert set(cells.values()) == {(3, 2)}
    notes = [line for line in err.splitlines() if line.startswith("note:")]
    assert len(notes) == 1
    assert "reduce-n1m1" in notes[0] and "n = 1, m = 1" in notes[0]
    # at its own cell there is nothing to note
    code, out, err = run_cli(capsys, "verify", "reduce-n1m1", "--samples", "2")
    assert code == 0 and "note:" not in err


def test_verify_unknown_check(capsys):
    code, out, err = run_cli(capsys, "verify", "definitely-not-a-check")
    assert code == 2
    assert "unknown check" in err


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_verify_unwritable_out_exits_2_before_any_check(capsys, tmp_path, monkeypatch,
                                                        where):
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran before --out was checked")
    monkeypatch.setattr("sjgeo.cli.run_check", no_check)
    path = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code, out, err = run_cli(capsys, "verify", "group-laws", "--samples", "2",
                             "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: cannot write the report to {path}: "
                                + ("No such file or directory" if where == "missing-dir"
                                   else "Is a directory")]
    assert os.listdir(tmp_path) == []   # and nothing was created


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_verify_report_that_cannot_be_written_exits_2(capsys):
    # /dev/full opens but refuses the write, after the checks ran
    code, out, err = run_cli(capsys, "verify", "group-laws", "--samples", "2",
                             "--out", "/dev/full")
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: cannot write the report to /dev/full: No space left on device"]
    assert "Traceback" not in err


def test_verify_invariance_passes_at_tiny_weights(capsys):
    # the operators scale as 1/A and 1/B, but both sides of each invariance
    # residual are built from one mixed matrix, so none is noise against noise
    code, out, err = run_cli(capsys, "verify", "laplacian-invariance",
                             "--A", "1e-20", "--B", "1e-20", "--samples", "4")
    assert code == 0
    assert json.loads(out)["max_rel"] <= 1e-12


def test_verify_has_no_threads_flag(capsys):
    code, out, err = run_cli(capsys, "verify", "group-laws", "--threads", "2")
    assert code == 2
    assert out == ""


def test_verify_failing_tolerance(capsys):
    code, out, err = run_cli(capsys, "verify", "cayley-roundtrip",
                             "--samples", "5", "--tol", "1e-30")
    assert code == 1


def test_verify_csv_format(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, out, err = run_cli(capsys, "verify", "group-laws", "--samples", "5",
                             "--format", "csv", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0].startswith("check,n,m,A,B")
    assert lines[1].startswith("group-laws,")


def test_verify_json_is_strict(capsys, monkeypatch):
    # a sample whose oracle raises has an infinite residual: it is written as null
    def singular(f, p, metric):
        raise SingularMatrix("injected")
    monkeypatch.setattr(verify, "laplace_beltrami", singular)
    code, out, err = run_cli(capsys, "verify", "lb-equivalence-upper", "--samples", "2")
    assert code == 1

    def reject(token):
        raise ValueError(f"{token} is not RFC 8259 JSON")
    rep = json.loads(out, parse_constant=reject)
    assert rep["max_rel"] is None and rep["max_abs"] is None
    assert rep["parts"]["sample-error"] is None


def test_verify_stdout_json(capsys):
    code, out, err = run_cli(capsys, "verify", "tensor-pd", "--samples", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["check"] == "tensor-pd"


def test_eval_metric_closed_form(capsys, tmp_path):
    point = _write_origin_point(tmp_path)
    tangent = _write_unit_tangent(tmp_path, 1.0, 0.0)
    code, out, err = run_cli(capsys, "eval", "metric",
                             "--point", point, "--tangent", tangent)
    assert code == 0
    assert float(out.strip()) == pytest.approx(4.0)


def test_eval_laplacian_closed_form(capsys, tmp_path):
    point = _write_origin_point(tmp_path)
    code, out, err = run_cli(capsys, "eval", "laplacian",
                             "--point", point, "--field", "absW2")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, rel=1e-7)


def test_eval_field_value(capsys, tmp_path):
    point = _write_origin_point(tmp_path)
    code, out, err = run_cli(capsys, "eval", "field",
                             "--point", point, "--field", "absEta2")
    assert code == 0
    assert float(out.strip()) == 0.0


def test_eval_unknown_field_id_is_one_plain_line(capsys, tmp_path):
    point = _write_origin_point(tmp_path)
    code, out, err = run_cli(capsys, "eval", "field", "--point", point, "--field", "nope")
    assert code == 2
    assert out == ""
    assert err == "error: unknown field id 'nope' for model disk\n"


def test_eval_operator(capsys, tmp_path):
    point = _write_origin_point(tmp_path)
    code, out, err = run_cli(capsys, "eval", "Dtilde",
                             "--point", point, "--field", "absEta2")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, rel=1e-7)


def _library_value(target, sb, p):
    from sjgeo import operators as op
    from sjgeo.metrics import MetricParams
    if target == "laplacian":
        return op.lap_upper(sb, p, MetricParams(1.0, 1.0))
    return op.op_invariant(target, sb, p)


@pytest.mark.parametrize("target, model, field", [
    ("laplacian", "upper", "sigmaY"),
    ("L", "upper", "logDetY"),
    ("Dtilde", "disk", "absEta2"),
])
def test_eval_prints_the_library_value(capsys, tmp_path, target, model, field):
    from sjgeo import operators as op
    from sjgeo.geometry import point_to_json, random_point
    p = random_point(model, 2, 1, 5)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(point_to_json(p)))
    code, out, err = run_cli(capsys, "eval", target, "--point", str(path),
                             "--field", field)
    assert code == 0, err
    f = op.named_field(model, 2, 1, field, 42)
    full = op.second_bundle(f, p, mat_only=False)
    assert out == f"{_library_value(target, full, p):.15g}\n"
    if f.mat_only:
        # the field's own flag gives a bundle without the vector blocks,
        # which the full-chart operators refuse
        own = op.second_bundle(f, p)
        assert own.vec_vec is None
        with pytest.raises(ValueError, match="full-chart bundle"):
            _library_value(target, own, p)


def test_eval_rejects_bad_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    code, out, err = run_cli(capsys, "eval", "metric", "--point", str(bad),
                             "--tangent", str(bad))
    assert code == 2


def test_eval_rejects_a_file_nested_too_deeply(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    origin = _write_origin_point(tmp_path)
    for point, tangent in ((deep, origin), (origin, deep)):
        code, out, err = run_cli(capsys, "eval", "metric", "--point", str(point),
                                 "--tangent", str(tangent))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: malformed {deep}: nested too deeply"]


def test_eval_rejects_invalid_point(capsys, tmp_path):
    path = tmp_path / "outside.json"
    path.write_text(json.dumps({
        "model": "disk", "n": 1, "m": 1,
        "w": {"rows": 1, "cols": 1, "data": [[2.0, 0.0]]},
        "eta": {"rows": 1, "cols": 1, "data": [[0.0, 0.0]]},
    }))
    tangent = _write_unit_tangent(tmp_path, 1.0, 0.0)
    code, out, err = run_cli(capsys, "eval", "metric", "--point", str(path),
                             "--tangent", tangent)
    assert code == 2
    assert "positive definite" in err


def test_eval_singular_point_exits_2(capsys, tmp_path):
    # margin 1e-8 clears the absolute 1e-9 floor, but not PIVOT_RTOL times
    # the largest entry of Im Omega, where inverting it would trip the
    # pivot guard: rejected at validation, one error line, exit 2
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps({
        "model": "upper", "n": 2, "m": 1,
        "omega": {"rows": 2, "cols": 2,
                  "data": [[0.0, 1e6], [0.0, 0.0], [0.0, 0.0], [0.0, 1e-8]]},
        "z": {"rows": 1, "cols": 2, "data": [[0.0, 0.0], [0.0, 0.0]]},
    }))
    tangent = tmp_path / "t.json"
    tangent.write_text(json.dumps({
        "model": "upper", "n": 2, "m": 1,
        "dmat": {"rows": 2, "cols": 2,
                 "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
        "dvec": {"rows": 1, "cols": 2, "data": [[0.0, 0.0], [0.0, 0.0]]},
    }))
    code, out, err = run_cli(capsys, "eval", "metric", "--point", str(path),
                             "--tangent", str(tangent))
    assert code == 2
    assert out == ""
    assert err == "error: invalid point: Im Omega is not positive definite\n"


def test_eval_metric_rejects_a_tangent_of_other_sizes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "sample", "point", "--model", "upper",
                           "--n", "2", "--m", "1")
    assert code == 0
    point = tmp_path / "p.json"
    point.write_text(out)
    tangent = tmp_path / "t.json"
    tangent.write_text(json.dumps({
        "model": "upper", "n": 1, "m": 1,
        "dmat": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]},
        "dvec": {"rows": 1, "cols": 1, "data": [[0.0, 0.0]]},
    }))
    code, out, err = run_cli(capsys, "eval", "metric", "--point", str(point),
                             "--tangent", str(tangent))
    assert code == 2
    assert out == ""
    assert err == ("error: tangent size (n, m) = (1, 1) does not match "
                   "the point's (2, 1)\n")


def test_sample_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "sample", "point", "--model", "disk",
                             "--seed", "5")
    code2, out2, _ = run_cli(capsys, "sample", "point", "--model", "disk",
                             "--seed", "5")
    assert code1 == code2 == 0 and out1 == out2


def test_sample_element_valid(capsys):
    from sjgeo.groups import element_from_json, jacobistar_defect
    code, out, _ = run_cli(capsys, "sample", "element", "--model", "disk",
                           "--n", "2", "--m", "1", "--seed", "3")
    assert code == 0
    g = element_from_json(json.loads(out))
    assert jacobistar_defect(g) < 1e-9


def test_sample_point_margin(capsys):
    from sjgeo.geometry import point_from_json, point_margin
    code, out, _ = run_cli(capsys, "sample", "point", "--model", "disk",
                           "--n", "2", "--m", "2", "--seed", "8")
    assert code == 0
    assert point_margin(point_from_json(json.loads(out))) >= 0.1


def test_config_validation(capsys):
    code, out, err = run_cli(capsys, "verify", "group-laws", "--n", "0")
    assert code == 2
    code, out, err = run_cli(capsys, "verify", "group-laws", "--A", "-1")
    assert code == 2


@pytest.mark.parametrize("flag", ["--A", "--B", "--tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_verify_rejects_non_finite_or_non_positive_parameters(capsys, flag, value):
    code, out, err = run_cli(capsys, "verify", "group-laws", "--samples", "2",
                             flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--A", "--B"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_eval_rejects_non_finite_parameters(capsys, tmp_path, flag, value):
    code, out, err = run_cli(capsys, "eval", "laplacian", "--point",
                             _write_origin_point(tmp_path), "--field", "absEta2",
                             flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [
    ["verify", "lb-equivalence-upper", "--samples", "2"],
    ["eval", "laplacian", "--field", "absEta2"],
])
@pytest.mark.parametrize("flag", ["--A", "--B"])
def test_weights_whose_reciprocal_overflows_are_refused(capsys, tmp_path, command, flag):
    # 4/A and 4/B scale the operators: at 1e-308 they are infinite, and the
    # operators would turn them into NaN
    if command[0] == "eval":
        command = command + ["--point", _write_origin_point(tmp_path)]
    code, out, err = run_cli(capsys, *command, flag, "1e-308")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_all_does_not_import_scipy():
    # the library runs on numpy alone; scipy.linalg alone would add ~20 MB
    # of resident memory to every run
    script = ("import sys\n"
              "from sjgeo.cli import main\n"
              "code = main(['verify', 'all', '--n', '1', '--m', '1', '--samples', '3'])\n"
              "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'),"
              " file=sys.stderr)\n"
              "sys.exit(code)\n")
    src = str(Path(sjgeo.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[]"
