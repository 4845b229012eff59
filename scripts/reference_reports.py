#!/usr/bin/env python3
"""Write the 136 reference reports, for comparing two commits byte by byte.

Every check runs at (n, m) = (1, 1), (2, 1), (2, 2) and (3, 2), with seeds
42 and 7, 50 samples (8 for the checks that build second-order stencils)
and unit weights.  The reports go to one JSON file with sorted keys and
without the timing field ``ms``, so two commits that compute the same
reports write the same bytes:

    PYTHONPATH=src python scripts/reference_reports.py --out new.json
    cmp old.json new.json
"""

import argparse
import json
import sys

from sjgeo import verify
from sjgeo.metrics import MetricParams

CELLS = [(1, 1), (2, 1), (2, 2), (3, 2)]
SEEDS = [42, 7]
SAMPLES = 50
STENCIL_SAMPLES = 8


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="write the reports here")
    args = ap.parse_args()
    params = MetricParams(1.0, 1.0)
    reports = []
    for name in verify.CHECK_NAMES:
        samples = STENCIL_SAMPLES if verify._CHECKS[name].stencil else SAMPLES
        for n, m in CELLS:
            for seed in SEEDS:
                rep = verify.run_check(name, n, m, params, samples, seed).to_json()
                del rep["ms"]
                reports.append(rep)
    with open(args.out, "w") as fh:
        json.dump(reports, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"{len(reports)} reports -> {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
