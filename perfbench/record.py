"""Regenerate ``perfbench/expected.json``, the recorded output bounds.

    python3 perfbench/record.py          # from the repository root, about 2 min

For every solve case and q-scan of the full and tiny sizes, the error
measure is evaluated at five betas spread over the seed window and the
bound is twice the largest.  The ``glt5_region`` sign map is evaluated at
eleven betas per row; a cell whose sign changes inside the window is
recorded as null and not checked.  Rerun only when a change to the
package is meant to move these outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402

MARGIN = 2.0


def shifted(offset):
    return lambda centre: centre + offset


def record(sizes: dict) -> dict:
    bounds: dict[str, float] = {}
    for offset in np.linspace(-workloads.BETA_WINDOW, workloads.BETA_WINDOW, 5):
        for workload in ("pgmres_large", "qscan_direct"):
            for op in workloads.make_ops(workload, shifted(offset), sizes):
                out = workloads.call(op)
                err = out.e_inf if op.kind == "case" else max(out.e_opt, out.e_beta)
                bounds[op.label] = max(bounds.get(op.label, 0.0), MARGIN * err)
    maps = []
    for offset in np.linspace(-workloads.BETA_WINDOW, workloads.BETA_WINDOW, 11):
        (op,) = [o for o in workloads.make_ops("spectral_diag", shifted(offset), sizes)
                 if o.kind == "region"]
        maps.append(np.asarray(workloads.call(op)))
    stack = np.stack(maps)
    signs = [
        [int(stack[0, i, j]) if np.all(stack[:, i, j] == stack[0, i, j]) else None
         for j in range(stack.shape[2])]
        for i in range(stack.shape[1])
    ]
    return {"e_inf_bounds": bounds, "region_signs": signs}


def main() -> None:
    warnings.simplefilter("ignore")
    out = {
        "how": __doc__.split("\n\n")[2].replace("\n", " "),
        "full": record(workloads.FULL),
        "tiny": record(workloads.TINY),
    }
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
