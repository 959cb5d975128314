#!/usr/bin/env python3
"""Regenerate ``reference_tables.npz``, the tables the benchmark gates against.

Run from the repository root, at a commit whose tables are trusted:

    python3 bench/make_reference.py

The closed-form tables are stored at the full workload horizons.  ILP-global
is stored from a 1e6-draw sample, together with the cellwise standard
deviation of the 1e5-draw table across independent samples: each workload
seed draws its own 1e5-draw sample, so its table may differ from the
reference by Monte Carlo error only.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import multistop as ms  # noqa: E402

import workloads as wl  # noqa: E402
from spans import NullTracer  # noqa: E402


def main() -> int:
    T, k = wl.TABLE_HORIZON[False]
    null = NullTracer()
    tables = {}
    for key, (_, build) in wl.TABLE_MODELS.items():
        if key != "policies.ilp_global":
            tables[key.split(".")[1]] = ms.compute_value_table(build(ms, 0, null), ms.Horizon(T, k))
    refit = ms.constrained_refit(ms.MomentSet.from_loss_moments(*wl.REFIT_MOMENTS))
    tables["refit_model"] = ms.compute_value_table(ms.expansion_local_gain_model(refit.fit), ms.Horizon(T, k))
    pap = ms.pap_global_model(wl.loss_model(ms, wl.PAP_LOSS), wl.PAP_ATTACHMENT)
    tables["pap_global"] = ms.compute_value_table(pap, ms.Horizon(*wl.PAP_GLOBAL_HORIZON[False]))
    sample = ms.ilp_global_sample(
        wl.loss_model(ms, wl.ALP_LOSS), wl.ILP_TCL, wl.ILP_GLOBAL_REFERENCE_DRAWS, wl.ILP_GLOBAL_REFERENCE_SEED
    )
    ilp = ms.ilp_global_model(sample)
    tables["ilp_global"] = ms.compute_value_table(ilp, ms.Horizon(T, k))
    arrays = {name: table.values for name, table in tables.items()}
    replicates = [
        ms.compute_value_table(wl.build_ilp_global(ms, seed, null), ms.Horizon(T, k)).values
        for seed in wl.ILP_GLOBAL_REPLICATE_SEEDS
    ]
    arrays["ilp_global_sd"] = np.std(replicates, axis=0, ddof=1)
    np.savez_compressed(wl.REFERENCE_FILE, **arrays)
    print(f"wrote {sorted(arrays)} to {wl.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
