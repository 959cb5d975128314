"""Multiple-stopping value recursion, claim thresholds, and online decisions.

The engine is generic over a :class:`GainModel`: any object exposing the
annual gain mean ``E[W]`` and the expectation ``E[max{c1 + W, c2}]``.  The
built-in models derive that expectation from a stop-loss transform through
:class:`StopLossGain`.  The value ``v[L, l]`` of holding ``l`` claim rights
with ``L`` years remaining satisfies

* ``v[1, 1] = E[W]``,
* ``v[L, 1] = E[max{W, v[L-1, 1]}]``,
* ``v[L, l] = E[max{v[L-1, l-1] + W, v[L-1, l]}]`` for ``1 < l < L``,
* ``v[l, l] = v[l-1, l-1] + E[W]`` (claiming is forced every year).

The induced rule claims the ``i``-th right in year ``m`` as soon as the
observed gain reaches ``v[T-m, k-i+1] - v[T-m, k-i]`` (with ``v[., 0] = 0``),
and claims unconditionally once the remaining years equal the remaining
rights.  That boundary is encoded as a ``-inf`` threshold so a single
comparison drives every decision.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np
from scipy.special import ndtr

from .distributions import NumericalError


@runtime_checkable
class GainModel(Protocol):
    """Contract every gain model meets for the value recursion.

    ``mean_gain`` is ``E[W]`` for the model's annual gain ``W``, and
    ``expected_max(c1, c2)`` is ``E[max{c1 + W, c2}]``.  A model whose
    ``expected_max`` takes only scalars is evaluated one cell at a time; a
    model that also has a ``stop_loss`` (every :class:`StopLossGain`) takes
    a whole row of the value table per call, as arrays.
    """

    mean_gain: float
    expected_max: Callable[[float, float], float]


class StopLossGain:
    """Gain model of one sign, evaluated through its stop-loss transform.

    For any thresholds, ``E[max{c1 + W, c2}] = c2 + E[(W - delta)+]`` with
    ``delta = c2 - c1``.  A subclass declares its support through ``local``
    (``W <= 0``; otherwise ``W >= 0``), passes its mean ``E[W]`` to
    ``__init__`` and implements :meth:`stop_loss`, which takes a 1-D array
    of ``delta``, all on the side where the term is not a support fact
    (``delta < 0`` for a local gain, ``delta > 0`` for a global one), and
    returns the array of terms.  :meth:`expected_max` takes scalars, which
    give a Python ``float``, or arrays of one shape, which give an array of
    that shape; it owns the rest of the contract, element by element and
    once for every model:

    * ``c2 = -inf`` (a forced claim) gives ``c1 + E[W]``;
    * the value recursion only asks for ``c2 <= c1 <= 0`` (local) or
      ``0 <= c1 <= c2 < inf`` (global), or for a forced claim with a finite
      ``c1`` on that side of 0; other thresholds, in any element, raise
      ``ValueError``, and so does a NaN in either;
    * on the trivial side the stop-loss term is exact: 0 for a local gain
      with ``delta >= 0``, ``E[W] - delta`` for a global gain with
      ``delta <= 0``;
    * a mean of the wrong sign for the support is roundoff and becomes 0,
      and the result is kept inside ``[max(c1 + E W, c2), max(c1, c2) +
      max(E W, 0)]``, which holds for every gain of that sign.  The
      recursion forms the same sums on its diagonal, so roundoff in a
      model can never push a later cell out of the regime.
    """

    local = True

    def __init__(self, mean: float) -> None:
        self.mean_gain = min(mean, 0.0) if self.local else max(mean, 0.0)

    def stop_loss(self, delta: np.ndarray) -> np.ndarray:
        """``E[(W - delta)+]`` for each ``delta`` on the non-trivial side."""
        raise NotImplementedError

    def expected_max(self, c1, c2):
        scalar = np.ndim(c1) == 0 and np.ndim(c2) == 0
        c1, c2 = np.atleast_1d(np.asarray(c1, dtype=float), np.asarray(c2, dtype=float))
        if c1.shape != c2.shape:
            c1, c2 = np.broadcast_arrays(c1, c2)
        mean = self.mean_gain
        forced = c2 == -math.inf
        cap = np.maximum(c1, c2)  # NaN where either is
        # NaN fails every comparison, and c2 = inf fails the global test; a
        # forced cell passes only with a finite c1 on the regime's side
        if self.local:
            regime, ok = "c2 <= c1 <= 0", (c2 <= c1) & (c1 <= 0) & (c1 > -math.inf)
        else:
            regime, ok = "0 <= c1 <= c2", (0 <= c1) & (cap < math.inf)
            ok &= (c1 <= c2) | forced
        # count_nonzero is one C call, cheaper on a row than .all() and .any()
        if np.count_nonzero(ok) < ok.size:
            i = np.flatnonzero(~ok)[0]
            objective = "local" if self.local else "global"
            raise ValueError(
                f"{objective}-objective model needs {regime}, got ({c1.flat[i]}, {c2.flat[i]})"
            )
        delta = c2 - c1
        delta[forced] = 0.0
        side = delta < 0 if self.local else delta > 0
        excess = np.zeros(delta.shape) if self.local else mean - delta
        if np.count_nonzero(side):
            excess[side] = self.stop_loss(delta[side])
        out = np.add(c2, excess, out=excess)
        floor = c1 + mean
        np.maximum(out, floor, out=out)
        np.maximum(out, c2, out=out)
        cap += max(mean, 0.0)
        np.minimum(out, cap, out=out)
        np.copyto(out, floor, where=forced)
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class Horizon:
    """Contract horizon: ``T`` coverage years, ``k`` claim rights, k < T."""

    T: int
    k: int

    def __post_init__(self) -> None:
        if self.T < 2 or self.k < 1 or self.k >= self.T:
            raise ValueError(f"need 1 <= k < T, got T={self.T}, k={self.k}")


class Decision(enum.Enum):
    CLAIM = "claim"
    WAIT = "wait"


@dataclass(frozen=True)
class ValueTable:
    """Triangular value array ``v[L, l]`` for ``1 <= l <= min(L, k)``."""

    T: int
    k: int
    values: np.ndarray  # shape (T+1, k+1); NaN where undefined; v[0, 0] = 0

    def value(self, L: int, l: int) -> float:
        if not (1 <= l <= min(L, self.k)) or L > self.T:
            raise ValueError(f"v[{L},{l}] undefined for T={self.T}, k={self.k}")
        return float(self.values[L, l])

    def threshold(self, L: int, i: int) -> float:
        """Claim trigger for the ``i``-th right with ``L`` years still ahead.

        The cell ``[L, i - 1]`` of :func:`thresholds`: ``-inf`` on the forced
        boundary (L <= k - i), where the right must be used.
        """
        if not (1 <= i <= self.k):
            raise ValueError(f"right index must be in 1..{self.k}, got {i}")
        if not (0 <= L < self.T):
            raise ValueError(f"years left must be in 0..{self.T - 1}, got {L}")
        return float(thresholds(self)[L, i - 1])

    @property
    def game_value(self) -> float:
        return self.value(self.T, self.k)

    def to_csv(self, path) -> None:
        """Rows L = 1..T, columns l = 1..k, blank above the diagonal."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["L"] + [f"l={l}" for l in range(1, self.k + 1)])
            for L in range(1, self.T + 1):
                row = [L]
                for l in range(1, self.k + 1):
                    row.append(f"{self.values[L, l]:.6f}" if l <= min(L, self.k) else "")
                writer.writerow(row)


def compute_value_table(model: GainModel, horizon: Horizon) -> ValueTable:
    """Fill the value triangle by backward recursion, one row ``L`` at a time.

    Row ``L`` depends only on row ``L - 1``: its cells ``l = 1..n`` with
    ``n = min(L - 1, k)`` are ``E[max{c1 + W, c2}]`` at ``c1 = [0, v[L-1,
    1..n-1]]`` and ``c2 = v[L-1, 1..n]``, and ``v[L, L]`` is the diagonal.
    A model with a ``stop_loss`` (a :class:`StopLossGain`) takes the row in
    one ``expected_max`` call; any other model is called cell by cell.
    """
    T, k = horizon.T, horizon.k
    v = np.full((T + 1, k + 1), np.nan)
    v[0, 0] = 0.0
    mean_gain = model.mean_gain
    by_row = hasattr(model, "stop_loss")  # duck-typed, so forwarding proxies take rows too
    for L in range(1, T + 1):
        n = min(L - 1, k)
        c1 = v[L - 1, :n].copy()
        c1[:1] = 0.0  # v[., 0] = 0
        c2 = v[L - 1, 1 : n + 1]
        try:
            if by_row:
                v[L, 1 : n + 1] = model.expected_max(c1, c2)
            else:
                cells = zip(c1.tolist(), c2.tolist())
                v[L, 1 : n + 1] = [model.expected_max(a, b) for a, b in cells]
            if L <= k:
                v[L, L] = v[L - 1, L - 1] + mean_gain
        except Exception as exc:  # annotate with the failing row
            raise NumericalError(f"gain model failed in row L={L}: {exc}") from exc
    return ValueTable(T=T, k=k, values=v)


def thresholds(table: ValueTable) -> np.ndarray:
    """Trigger matrix ``b[L, i-1]`` for L = 0..T-1 (rows) and i = 1..k (cols).

    ``b[L, i-1] = v[L, k-i+1] - v[L, k-i]`` with ``v[., 0] = 0``.  The upper
    cell is undefined exactly on the forced boundary ``L <= k - i``, and
    there the trigger is ``-inf``.
    """
    T, k = table.T, table.k
    v = table.values[:T].copy()
    v[:, 0] = 0.0
    L, i = np.ogrid[:T, 1 : k + 1]
    return np.where(L <= k - i, -np.inf, np.diff(v, axis=1)[:, ::-1])


def claim_years(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, k) claim years of the trigger rule ``b`` on the (n, T) gain paths ``w``.

    In year ``y`` a path that has used ``u < k`` rights claims iff
    ``w[:, y-1] >= b[T-y, u]`` (ties claim).  ``-inf`` triggers make the
    forced claims, so every path uses all ``k`` rights.  The years are of
    the narrowest unsigned integer type that holds ``T``.
    """
    n, T = w.shape
    k = b.shape[1]
    # a path with no rights left meets a NaN trigger, which no gain reaches
    triggers = np.concatenate([b, np.full((T, 1), np.nan)], axis=1)
    gains = np.ascontiguousarray(w.T)  # year-major: one contiguous row per year
    taus = np.zeros((n, k), dtype=np.min_scalar_type(T))
    used = np.zeros(n, dtype=np.intp)
    for year in range(1, T + 1):
        rows = np.flatnonzero(gains[year - 1] >= triggers[T - year].take(used))
        taus[rows, used[rows]] = year
        used[rows] += 1
    return taus


@dataclass(frozen=True)
class StoppingState:
    """Online position: current year, rights already used, and the table."""

    year: int
    rights_used: int
    horizon: Horizon
    table: ValueTable

    def __post_init__(self) -> None:
        T, k = self.horizon.T, self.horizon.k
        if not (1 <= self.year <= T):
            raise ValueError(f"year {self.year} outside 1..{T}")
        if not (0 <= self.rights_used < k):
            raise ValueError(f"rights_used {self.rights_used} outside 0..{k - 1}")
        years_left = T - self.year + 1
        rights_left = k - self.rights_used
        if rights_left > years_left:
            raise ValueError(
                f"infeasible state: {rights_left} rights left but only {years_left} years"
            )

    @property
    def current_threshold(self) -> float:
        return self.table.threshold(self.horizon.T - self.year, self.rights_used + 1)


def decide(state: StoppingState, observed_gain: float) -> Decision:
    """Claim iff the observed gain meets the active threshold (ties claim)."""
    if math.isnan(observed_gain):  # a NaN compares below every trigger, even a forced one
        raise ValueError("observed gain must not be NaN")
    return Decision.CLAIM if observed_gain >= state.current_threshold else Decision.WAIT


@dataclass(frozen=True)
class StoppingResult:
    taus: tuple[int, ...]
    realized_gain: float


def run_rule(gains: Sequence[float], table: ValueTable) -> StoppingResult:
    """Apply the threshold rule year by year along one gain path."""
    if len(gains) != table.T:
        raise ValueError(f"need {table.T} annual gains, got {len(gains)}")
    path = np.asarray(gains, dtype=float)[None, :]
    if np.isnan(path).any():  # a NaN compares below every trigger, even a forced one
        raise ValueError("annual gains must not be NaN")
    taus = claim_years(path, thresholds(table))[0].tolist()
    realized = float(sum(gains[t - 1] for t in taus))
    return StoppingResult(taus=tuple(taus), realized_gain=realized)


class LogNormalLocalGain(StopLossGain):
    """Reference gain model: insured annual loss is LogNormal, gain W = -loss.

    ``E[W] = -exp(mu + sigma^2/2)``, and the stop-loss transform at
    ``delta = -d`` is ``d P[Z <= d] - E[Z; Z <= d]``: a lognormal CDF and a
    truncated lognormal mean.
    """

    def __init__(self, mu: float = 0.0, sigma: float = 1.0) -> None:
        if not (sigma > 0 and math.isfinite(sigma) and math.isfinite(mu)):
            raise ValueError(f"need finite mu and sigma > 0, got mu={mu}, sigma={sigma}")
        self.mu = mu
        self.sigma = sigma
        self._ez = math.exp(mu + 0.5 * sigma * sigma)
        super().__init__(-self._ez)

    def stop_loss(self, delta: np.ndarray) -> np.ndarray:
        d = -delta
        # math.log per entry: numpy's SIMD log can differ from it by an ulp,
        # and the table would then differ from the one of scalar calls
        z = (np.array([math.log(x) for x in d.tolist()]) - self.mu) / self.sigma
        return d * ndtr(z) - self._ez * ndtr(z - self.sigma)


def lognormal_local_model(mu: float, sigma: float) -> LogNormalLocalGain:
    """Gain model for i.i.d. LogNormal(mu, sigma^2) insured losses."""
    return LogNormalLocalGain(mu=mu, sigma=sigma)
