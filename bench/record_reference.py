"""Record the values the correctness checks compare against.

    python3 bench/record_reference.py

Runs one pass of `table2` and of `emulate` (held-out inputs from seed 0)
and writes `bench/reference.json`.  Re-record only in a change that is
meant to move these values, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import run  # noqa: E402,F401  (a benchmark run's BLAS and allocator settings)

import numpy as np  # noqa: E402

import figp  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SEED = 0


def main() -> int:
    work_root = os.path.join(os.path.dirname(BENCH_DIR), ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="record-", dir=work_root)
    try:
        log = workloads.PassLog()
        t2 = workloads.Table2()
        report = t2.run_pass(
            t2.setup(work_dir, np.random.default_rng(REFERENCE_SEED)), log)
        table2 = {
            fname: {
                "selected": entry["selected"],
                **{fam: {"loocv": entry[fam]["loocv"],
                         "mape": entry[fam]["mape"]}
                   for fam in ("linear", "nonlinear")},
            }
            for fname, entry in report.items()
        }
        emu = workloads.Emulate()
        out = emu.run_pass(
            emu.setup(work_dir, np.random.default_rng(REFERENCE_SEED)), log)
        mape = float(np.mean([figp.emulator.field_mape(p, t)
                              for p, t in zip(out["preds"], out["truth"])]))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    reference = {
        "table2": table2,
        "emulate": {"k": out["k"], "families": out["families"],
                    "mape": mape, "seed": REFERENCE_SEED},
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
