"""Property tests of the cli's input contract: bad input exits with code 2
and one ``error:`` line, never with a traceback.

``sjgeo eval`` reads fuzzed point and tangent JSON files; ``sjgeo sample``
gets fuzzed arguments.  Either must exit 0 or 2, print at most one line
holding ``error:``, and raise nothing out of ``main``.
"""

import json
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sjgeo.cli import _EVAL_TARGETS, main
from sjgeo.operators import field_registry_ids

FIELD_IDS = sorted(set(field_registry_ids("upper") + field_registry_ids("disk")))

scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 4),
                    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3))
anything = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=5), inner, max_size=3),
                        max_leaves=8)
entries = st.lists(st.one_of(st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(list),
                             anything), max_size=9)
matrices = st.one_of(st.fixed_dictionaries({"rows": st.integers(-1, 3) | scalars,
                                            "cols": st.integers(-1, 3) | scalars,
                                            "data": entries}),
                     anything)


@st.composite
def wire_points(draw):
    """Well-formed points of either model at (n, m) <= (2, 2), symmetric
    or not, with entries from tiny to huge: some valid, some outside."""
    model = draw(st.sampled_from(["disk", "upper"]))
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    scale = draw(st.sampled_from([0.0, 1e-9, 0.3, 1.0, 1e6]))
    raw = np.array(draw(st.lists(st.floats(-1, 1), min_size=4 * n * n, max_size=4 * n * n)))
    mat = scale * (raw[: n * n] + 1j * raw[n * n: 2 * n * n]).reshape(n, n)
    if draw(st.booleans()):
        mat = 0.5 * (mat + mat.T)
    if model == "upper":
        mat = mat + 1j * np.eye(n) * draw(st.sampled_from([1e-8, 1.0, 1e6]))
    vec = np.array(draw(st.lists(st.floats(-3, 3), min_size=2 * m * n, max_size=2 * m * n)))
    vec = (vec[: m * n] + 1j * vec[m * n:]).reshape(m, n)

    def wire(a):
        return {"rows": a.shape[0], "cols": a.shape[1],
                "data": [[float(z.real), float(z.imag)] for z in a.ravel()]}
    keys = ("w", "eta") if model == "disk" else ("omega", "z")
    return {"model": model, "n": n, "m": m, keys[0]: wire(mat), keys[1]: wire(vec)}


points = st.one_of(
    wire_points(),
    st.fixed_dictionaries({"model": st.sampled_from(["disk", "upper"]) | scalars,
                           "w": matrices, "eta": matrices,
                           "omega": matrices, "z": matrices}),
    anything)
tangents = st.one_of(
    wire_points().map(lambda p: {"model": p["model"],
                                 "dmat": p.get("w", p.get("omega")),
                                 "dvec": p.get("eta", p.get("z"))}),
    st.fixed_dictionaries({"model": st.sampled_from(["disk", "upper"]) | scalars,
                           "dmat": matrices, "dvec": matrices}),
    anything)




def _fuzz(examples: int):
    # capsys is read out after every example, so sharing it between examples is safe
    return settings(max_examples=examples, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in out + err
    assert sum("error:" in line for line in err.splitlines()) <= 1, err
    if code == 2:
        assert "error:" in err and out == ""
    else:
        assert err == ""


@_fuzz(150)
@given(point=points, tangent=tangents, target=st.sampled_from(_EVAL_TARGETS),
       field=st.sampled_from(FIELD_IDS + ["nope"]) | st.none(),
       text=st.booleans())
def test_eval_fuzzed_json_exits_0_or_2(capsys, point, tangent, target, field, text):
    with tempfile.TemporaryDirectory() as tmp:
        point_path = os.path.join(tmp, "p.json")
        tangent_path = os.path.join(tmp, "t.json")
        with open(point_path, "w") as fh:
            # sometimes not JSON at all
            fh.write(json.dumps(point)[:-1] if text else json.dumps(point))
        with open(tangent_path, "w") as fh:
            fh.write(json.dumps(tangent))
        argv = ["eval", target, "--point", point_path, "--tangent", tangent_path]
        if field is not None:
            argv += ["--field", field]
        _run(capsys, argv)


@_fuzz(80)
@given(kind=st.sampled_from(["point", "element", "curve"]),
       model=st.sampled_from(["upper", "disk", "cone"]),
       n=st.integers(-2, 4) | st.text(max_size=3), m=st.integers(-2, 4),
       seed=st.integers(-2**70, 2**70) | st.sampled_from(["", "1.5", "x"]))
def test_sample_fuzzed_arguments_exit_0_or_2(capsys, kind, model, n, m, seed):
    _run(capsys, ["sample", kind, "--model", model, "--n", str(n), "--m", str(m),
                  "--seed", str(seed)])
