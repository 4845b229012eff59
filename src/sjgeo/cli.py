"""Command-line surface.

Subcommands:
  verify <check|all>   run verification suites, write JSON/CSV reports
  eval <target>        evaluate metric / laplacian / operator / field values
  sample <kind>        emit a deterministic random point or group element

Machine output goes to stdout; progress lines go to stderr.  Exit codes:
0 all requested checks passed, 1 at least one check failed, 2 bad
configuration or invalid input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from .cmatrix import SingularMatrix
from .geometry import point_from_json, point_to_json, random_point, validate_point
from .groups import element_to_json, random_jacobi, random_jacobistar
from .metrics import MetricParams, q_disk, q_upper, tangent_from_json
from .operators import (
    DomainMargin,
    field_registry_ids,
    lap_disk,
    lap_upper,
    named_field,
    op_invariant,
    second_bundle,
)
from .verify import CHECK_NAMES, DEFAULT_TOLERANCES, UnknownCheck, run_check

_EVAL_TARGETS = ("metric", "laplacian", "D", "L", "Dtilde", "Ltilde", "field")


def _log(msg: str):
    print(msg, file=sys.stderr)


def _error(exc: Exception) -> int:
    """Report an input error on one line; exit code 2."""
    # str() of a KeyError is the repr of its message, quotes included
    msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
    _log(f"error: {msg}")
    return 2


def _cannot_write(path: str, exc: OSError) -> str:
    return f"cannot write the report to {path}: {exc.strerror}"


def _unwritable(path: str) -> str | None:
    """Why a report cannot be written to ``path``, or None when it can.

    The file is opened for appending, which changes no existing file; one
    that this creates is removed again.
    """
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        return _cannot_write(path, exc)
    if not existed:
        os.remove(path)
    return None


def _tolerance_table() -> str:
    rows = [f"  {name:<26s} {tol:g}" for name, tol in DEFAULT_TOLERANCES.items()]
    return "default tolerances per check:\n" + "\n".join(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sjgeo",
        description="Jacobi group actions, invariant metrics and Laplacians "
                    "on the Siegel-Jacobi space and disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser(
        "verify", help="run one named verification suite, or all of them",
        epilog=_tolerance_table(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    pv.add_argument("check", help="check name or 'all'")
    pv.add_argument("--n", type=int, default=1)
    pv.add_argument("--m", type=int, default=1)
    pv.add_argument("--A", type=float, default=1.0, dest="a")
    pv.add_argument("--B", type=float, default=1.0, dest="b")
    pv.add_argument("--samples", type=int, default=50)
    pv.add_argument("--seed", type=int, default=42)
    pv.add_argument("--tol", type=float, default=None,
                    help="override the per-check default tolerance")
    pv.add_argument("--out", default=None, help="write the report file here")
    pv.add_argument("--format", choices=("json", "csv"), default="json")

    pe = sub.add_parser("eval", help="evaluate a metric, Laplacian, operator or field")
    pe.add_argument("target", choices=_EVAL_TARGETS)
    pe.add_argument("--point", required=True, help="point JSON file")
    pe.add_argument("--tangent", default=None, help="tangent JSON file (metric)")
    pe.add_argument("--field", default=None,
                    help="field id (laplacian / operators / field)")
    pe.add_argument("--A", type=float, default=1.0, dest="a")
    pe.add_argument("--B", type=float, default=1.0, dest="b")
    pe.add_argument("--seed", type=int, default=42,
                    help="seed for seeded suite fields")

    ps = sub.add_parser("sample", help="emit a deterministic random object")
    ps.add_argument("kind", choices=("point", "element"))
    ps.add_argument("--model", choices=("upper", "disk"), default="disk")
    ps.add_argument("--n", type=int, default=1)
    ps.add_argument("--m", type=int, default=1)
    ps.add_argument("--seed", type=int, default=42)
    return parser


def _validate_common(args) -> str | None:
    if getattr(args, "n", 1) < 1 or getattr(args, "m", 1) < 1:
        return "n and m must be >= 1"
    a, b = getattr(args, "a", 1.0), getattr(args, "b", 1.0)
    # written so that NaN fails too; the operators scale by 4/A and 4/B
    if not (0.0 < a < math.inf and 0.0 < b < math.inf
            and math.isfinite(4.0 / a) and math.isfinite(4.0 / b)):
        return "A and B must be finite and positive, with 4/A and 4/B finite"
    if getattr(args, "samples", 1) < 1:
        return "samples must be >= 1"
    if getattr(args, "seed", 0) < 0:
        return "seed must be >= 0"
    if getattr(args, "tol", None) is not None and not 0.0 < args.tol < math.inf:
        return "tol must be finite and positive"
    return None


def _json_text(obj, indent: int | None = None) -> str:
    """RFC 8259 JSON text of obj: a non-finite number becomes null, as JSON
    has no Infinity or NaN."""
    def finite(x):
        if isinstance(x, float):
            return x if math.isfinite(x) else None
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, list):
            return [finite(v) for v in x]
        return x
    return json.dumps(finite(obj), sort_keys=True, allow_nan=False, indent=indent)


def _reports_to_csv(reports: list[dict]) -> str:
    buf = io.StringIO()
    fields = ["check", "n", "m", "A", "B", "samples", "seed",
              "max_abs", "max_rel", "tol", "pass", "constant", "retries", "ms"]
    writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
    writer.writeheader()
    for rep in reports:
        writer.writerow({k: rep.get(k) for k in fields})
    return buf.getvalue()


def _cmd_verify(args) -> int:
    problem = _validate_common(args) or (args.out and _unwritable(args.out))
    if problem:
        _log(f"error: {problem}")
        return 2
    names = CHECK_NAMES if args.check == "all" else [args.check]
    params = MetricParams(args.a, args.b)
    reports = []
    all_pass = True
    for name in names:
        try:
            rep = run_check(name, args.n, args.m, params, args.samples,
                            args.seed, tol=args.tol)
        except UnknownCheck as exc:
            _log(f"error: {exc}")
            return 2
        reports.append(rep.to_json())
        all_pass &= rep.passed
        _log(f"{name:<26s} {'pass' if rep.passed else 'FAIL'} "
             f"max_rel={rep.max_rel:.3e} tol={rep.tol:g} ({rep.ms:.0f} ms)")
        if (rep.n, rep.m) != (args.n, args.m):
            _log(f"note: {name} is defined at n = {rep.n}, m = {rep.m} only, so it "
                 f"ran and reports there, not at n = {args.n}, m = {args.m}")
    if args.format == "csv":
        text = _reports_to_csv(reports)
    else:
        payload = reports[0] if args.check != "all" else reports
        text = _json_text(payload, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:   # such as a full disk, after the checks ran
            _log(f"error: {_cannot_write(args.out, exc)}")
            return 2
        _log(f"report written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0 if all_pass else 1


def _load(path: str, parse):
    """parse() of a JSON file's content; content of the wrong shape, type
    or value, or nested too deeply to parse, is a ValueError that names
    the file."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError(f"malformed {path}: nested too deeply") from None
    try:
        return parse(obj)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"malformed {path}: {type(exc).__name__}: {exc}") from None


def _load_point(path: str):
    point = _load(path, point_from_json)
    problems = validate_point(point)
    if problems:
        raise ValueError("invalid point: " + "; ".join(problems))
    return point


def _cmd_eval(args) -> int:
    problem = _validate_common(args)
    if problem:
        _log(f"error: {problem}")
        return 2
    try:
        point = _load_point(args.point)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _error(exc)
    model = point.model
    params = MetricParams(args.a, args.b)
    try:
        if args.target == "metric":
            if not args.tangent:
                _log("error: eval metric needs --tangent")
                return 2
            tangent = _load(args.tangent, tangent_from_json)
            if tangent.model != model:
                _log("error: tangent model does not match the point")
                return 2
            if (tangent.n, tangent.m) != (point.n, point.m):
                _log(f"error: tangent size (n, m) = ({tangent.n}, {tangent.m}) does not "
                     f"match the point's ({point.n}, {point.m})")
                return 2
            form = q_upper if model == "upper" else q_disk
            value = form(point, tangent, params)
        else:   # the other targets all act on a field
            if not args.field:
                _log(f"error: eval {args.target} needs --field "
                     f"(known ids: {', '.join(field_registry_ids(model))})")
                return 2
            f = named_field(model, point.n, point.m, args.field, args.seed)
            if args.target == "field":
                value = f(point)
            else:
                # the full-chart bundle, also for a matrix-only field
                sb = second_bundle(f, point, mat_only=False)
                if args.target != "laplacian":
                    value = op_invariant(args.target, sb, point)
                elif model == "upper":
                    value = lap_upper(sb, point, params)
                else:
                    value = lap_disk(sb, point, params)
    except (KeyError, ValueError, DomainMargin, SingularMatrix, ArithmeticError,
            OSError, json.JSONDecodeError) as exc:
        return _error(exc)
    print(f"{value:.15g}")
    return 0


def _cmd_sample(args) -> int:
    problem = _validate_common(args)
    if problem:
        _log(f"error: {problem}")
        return 2
    if args.kind == "point":
        obj = point_to_json(random_point(args.model, args.n, args.m, args.seed))
    else:
        if args.model == "upper":
            obj = element_to_json(random_jacobi(args.n, args.m, args.seed))
        else:
            obj = element_to_json(random_jacobistar(args.n, args.m, args.seed))
    print(_json_text(obj))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "eval":
        return _cmd_eval(args)
    return _cmd_sample(args)


if __name__ == "__main__":
    sys.exit(main())
