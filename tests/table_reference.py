"""Frozen per-cell version of the value recursion.

This is ``compute_value_table`` as it stood before it filled the table one
row per gain-model call, kept verbatim as the bit-identity reference for the
row-batched recursion: one scalar ``expected_max`` call per cell, column by
column.  Do not optimise it.
"""

import numpy as np

from multistop.distributions import NumericalError
from multistop.stopping import ValueTable


def reference_value_table(model, horizon):
    T, k = horizon.T, horizon.k
    v = np.full((T + 1, k + 1), np.nan)
    v[0, 0] = 0.0
    mean_gain = model.mean_gain
    for l in range(1, k + 1):
        for L in range(l, T + 1):
            try:
                if L == l:
                    prev = v[l - 1, l - 1]
                    v[L, l] = prev + mean_gain
                elif l == 1:
                    v[L, 1] = model.expected_max(0.0, v[L - 1, 1])
                else:
                    v[L, l] = model.expected_max(v[L - 1, l - 1], v[L - 1, l])
            except Exception as exc:  # annotate with the failing cell
                raise NumericalError(f"gain model failed at cell (L={L}, l={l}): {exc}") from exc
    return ValueTable(T=T, k=k, values=v)
