"""Frozen per-cell version of the value recursion, and of ``expected_max``.

``reference_value_table`` is ``compute_value_table`` as it stood before it
filled the table one row per gain-model call, kept verbatim as the
bit-identity reference for the row-batched recursion: one scalar
``expected_max`` call per cell, column by column.  Do not optimise it.
"""

import math

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


# ``StopLossGain.expected_max`` as it stood before its numpy calls were
# trimmed, kept verbatim (``self`` is the model) as the bit-identity
# reference for the live one.  Do not optimise it.
def reference_expected_max(self, c1, c2):
    scalar = np.ndim(c1) == 0 and np.ndim(c2) == 0
    c1, c2 = np.atleast_1d(np.asarray(c1, dtype=float), np.asarray(c2, dtype=float))
    c1, c2 = np.broadcast_arrays(c1, c2)
    mean = self.mean_gain
    forced = c2 == -math.inf
    delta = np.where(forced, 0.0, c2 - c1)
    if self.local:
        regime, bad, side = "c2 <= c1 <= 0", (c1 > 0) | (c2 > c1), delta < 0
        excess = np.zeros(delta.shape)
    else:
        regime, bad, side = "0 <= c1 <= c2", (c1 < 0) | (c2 < c1), delta > 0
        excess = mean - delta
    bad &= ~forced
    if bad.any():
        i = np.flatnonzero(bad)[0]
        objective = "local" if self.local else "global"
        raise ValueError(
            f"{objective}-objective model needs {regime}, got ({c1.flat[i]}, {c2.flat[i]})"
        )
    if side.any():
        excess[side] = self.stop_loss(delta[side])
    out = np.minimum(
        np.maximum(np.maximum(c2 + excess, c1 + mean), c2),
        np.maximum(c1, c2) + max(mean, 0.0),
    )
    out = np.where(forced, c1 + mean, out)
    return float(out[0]) if scalar else out
