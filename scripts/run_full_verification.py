#!/usr/bin/env python3
"""Sweep every verification suite over the desk-scale (n, m) grid.

Writes one JSON file with all reports and prints a summary table.
Sample counts are scaled down for the nested finite-difference checks so
the whole sweep stays within a few minutes.

Usage:
    python scripts/run_full_verification.py [--out reports.json] [--seed 42]
"""

import argparse
import json
import sys
import time

from sjgeo import verify
from sjgeo.metrics import MetricParams

GRID = [(1, 1), (2, 1), (2, 2), (3, 2)]
GRID_STENCIL = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)]
SAMPLES = 100
# the checks that build second-order stencils run 25 samples, but for these
STENCIL_SAMPLES = {"laplacian-invariance": 8, "remark41-invariance": 8}


def _plan(name: str) -> tuple:
    """The cells a check runs at and its sample count: a check defined at
    one cell only runs there, and the checks that build second-order
    stencils run fewer samples over a wider grid."""
    check = verify._CHECKS[name]
    grid = GRID_STENCIL if check.fields is not None else GRID
    samples = STENCIL_SAMPLES.get(name, 25) if check.fields is not None else SAMPLES
    return ([check.cell] if check.cell else grid), samples


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="verification_reports.json")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--A", type=float, default=1.0)
    ap.add_argument("--B", type=float, default=1.0)
    args = ap.parse_args()
    params = MetricParams(args.A, args.B)

    reports = []
    all_pass = True
    t0 = time.time()
    for name in verify.CHECK_NAMES:
        grid, samples = _plan(name)
        for (n, m) in grid:
            rep = verify.run_check(name, n, m, params, samples, args.seed)
            reports.append(rep.to_json())
            all_pass &= rep.passed
            extra = ""
            if rep.constant is not None:
                extra = f" constant={rep.constant:.6f}"
            gap = rep.worst.get("printed_rel_gap_max")
            if gap is not None:
                extra += f" printed_gap={gap:.2e}"
            print(f"{name:<26s} n={n} m={m} N={samples:<3d} "
                  f"{'pass' if rep.passed else 'FAIL'} "
                  f"max_rel={rep.max_rel:.3e}{extra}")
    with open(args.out, "w") as fh:
        json.dump(reports, fh, sort_keys=True, indent=2)
    print(f"\n{len(reports)} reports in {time.time() - t0:.1f}s "
          f"-> {args.out}; all pass: {all_pass}")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
