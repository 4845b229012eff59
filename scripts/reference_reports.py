#!/usr/bin/env python3
"""Write the 130 reference reports, for comparing two commits byte by byte.

Every check runs at (n, m) = (1, 1), (2, 1), (2, 2) and (3, 2), with seeds
42 and 7, 50 samples (8 for the checks that build second-order stencils)
and unit weights; a check defined at one cell only (reduce-n1m1, at
(1, 1)) runs there once per seed.  So each report has its own
(check, n, m, seed).  The reports go to one JSON file with sorted keys and
without the timing field ``ms``, so two commits that compute the same
reports write the same bytes:

    PYTHONPATH=src python scripts/reference_reports.py --out new.json
    cmp old.json new.json

``--compare OLD.json`` computes the reports, pairs them with OLD.json's by
(check, n, m, seed) and prints one line per report that differs (its key;
what differs: top-level keys, ``parts[label]`` and ``worst[key]``; max_rel
and pass before and after), then a one-line summary; the exit code is 1
when a report's pass/fail result flipped, or when OLD.json does not hold
the same runs:

    PYTHONPATH=src python scripts/reference_reports.py --compare old.json
"""

import argparse
import json
import math
import sys

from sjgeo import verify
from sjgeo.metrics import MetricParams

CELLS = [(1, 1), (2, 1), (2, 2), (3, 2)]
SEEDS = [42, 7]
SAMPLES = 50
STENCIL_SAMPLES = 8


def _cells(name: str) -> list:
    """The cells a check runs at: its own cell, when it has one."""
    cell = verify._CHECKS[name].cell
    return [cell] if cell else CELLS


def _runs() -> list:
    """(check, n, m, seed) of every reference report, in the file's order."""
    return [(name, n, m, seed) for name in verify.CHECK_NAMES
            for n, m in _cells(name) for seed in SEEDS]


def reference_reports() -> list:
    params = MetricParams(1.0, 1.0)
    reports = []
    for name, n, m, seed in _runs():
        samples = STENCIL_SAMPLES if verify._CHECKS[name].fields is not None else SAMPLES
        rep = verify.run_check(name, n, m, params, samples, seed).to_json()
        del rep["ms"]
        reports.append(rep)
    return reports


def _decades(before, after) -> float:
    """log10(after / before); 0 when both are equal, +-inf when one is 0."""
    if before == after:
        return 0.0
    if not before or not after:
        return math.inf if after else -math.inf
    return math.log10(after / before)


def _headroom(rep: dict) -> float:
    return math.inf if not rep["max_rel"] else math.log10(rep["tol"] / rep["max_rel"])


def _key(rep: dict) -> tuple:
    return rep["check"], rep["n"], rep["m"], rep["seed"]


def _differences(before: dict, after: dict) -> list[str]:
    """The names of what differs between two reports of one run: each
    top-level key, but a label of ``parts`` or a key of ``worst`` on its own."""
    names = []
    for key in sorted(before.keys() | after.keys()):
        b, a = before.get(key), after.get(key)
        if b == a:
            continue
        if key in ("parts", "worst") and isinstance(b, dict) and isinstance(a, dict):
            names += [f"{key}[{k}]" for k in sorted(b.keys() | a.keys()) if b.get(k) != a.get(k)]
        else:
            names.append(key)
    return names


def compare(old: list, new: list) -> tuple[list[str], bool]:
    """One line per report that differs, a summary line last, and whether
    the comparison failed: a flipped pass/fail result, or files that do not
    hold the same runs.  Reports are paired by (check, n, m, seed).
    """
    before = {_key(rep): rep for rep in old}
    if len(before) != len(old) or set(before) != {_key(rep) for rep in new}:
        return [f"the old file does not hold the {len(new)} runs of the new one, "
                f"one report each"], True
    lines, flips, rise = [], 0, (-math.inf, None)
    for a in new:
        b = before[_key(a)]
        if a == b:
            continue
        label = "{} n={} m={} seed={}".format(*_key(a))
        flipped = a["pass"] != b["pass"]
        flips += flipped
        change = _decades(b["max_rel"], a["max_rel"])
        rise = max(rise, (change, label), key=lambda r: r[0])
        lines.append(f"{label}: differs in {', '.join(_differences(b, a))}; "
                     f"max_rel {b['max_rel']:.3e} -> {a['max_rel']:.3e} "
                     f"({change:+.2f} dec), pass {b['pass']} -> {a['pass']}"
                     + ("  FLIPPED" if flipped else ""))
    worst = "none" if rise[1] is None else f"{rise[0]:+.2f} dec ({rise[1]})"
    lines.append(f"{len(lines)} of {len(new)} reports differ, {flips} pass/fail flipped; "
                 f"largest max_rel rise {worst}; min headroom "
                 f"{min(map(_headroom, old)):.4f} -> {min(map(_headroom, new)):.4f}")
    return lines, bool(flips)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the reports here")
    ap.add_argument("--compare", metavar="OLD.json",
                    help="print the reports that differ from OLD.json's")
    args = ap.parse_args()
    if not (args.out or args.compare):
        ap.error("give --out FILE, --compare OLD.json or both")
    old = None
    if args.compare:
        with open(args.compare) as fh:
            old = json.load(fh)
    reports = reference_reports()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(reports, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"{len(reports)} reports -> {args.out}", file=sys.stderr)
    if old is None:
        return 0
    # compare in the written form, so a float or a key reads as it would from the file
    lines, failed = compare(old, json.loads(json.dumps(reports)))
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
