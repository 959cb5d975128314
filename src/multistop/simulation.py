"""Scenario simulation, rule comparison experiments, and report emission.

Scenarios are generated pathwise from the policy definitions (never from the
closed forms), one independent child RNG stream per scenario so results are
bit-reproducible for a given seed regardless of how the work is scheduled.
Each T-year path carries the raw annual loss ``Z``, the insured loss ``Zt``,
and the objective's gain ``W`` (``-Zt`` local, ``Z - Zt`` global).

Stream contract: scenario ``i`` of a batch with seed ``s`` draws from
``default_rng(SeedSequence(s, spawn_key=(i,)))``, which is the ``i``-th child
of ``SeedSequence(s).spawn(n)``.  It draws ``poisson(rate, T)`` for its yearly
loss counts, then ``standard_normal(total)`` and then ``random(total)`` (equal
bit for bit to ``uniform(size=total)``) for the IG transform of its ``total``
losses, in year order; both draws are skipped when ``total == 0``.
Scenarios are simulated in fixed-size blocks, and the block size changes no
result.  The objectives of a study share one (Z, Zt) panel, because they
share its seed: ``ScenarioBatch.with_objective`` derives the second ``W``.

The experiment harness replays four claim-timing rules on a common batch --
the threshold rule from the value recursion, a fixed-years rule, a uniform
random rule, and a claim-when-above-average rule -- and reports per-rule
realized objectives against the recursion's predicted value.  Objective
values are reported on the loss axis (smaller is better); the recursion's
game value is the negative of the optimal expected loss in local mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
from scipy.special import ndtr

from .distributions import _ig_cdf, _ig_transform, poisson_pmf
from .policies import (
    GLOBAL,
    LOCAL,
    ConfigError,
    ILPAuxModel,
    LDAModel,
    Objective,
    PolicySpec,
)
from .stopping import ValueTable, thresholds

_RULE_STREAM_TAG = 0x52554C45  # separates the random-rule stream from scenario streams
# Scenarios per block of the simulation kernel.  Every scenario keeps its own
# stream, so the block size trades memory for speed and never changes results.
_BLOCK = 1024


@dataclass(frozen=True)
class ScenarioBatch:
    """Pathwise (Z, Zt, W) panels for M scenarios of T years."""

    kind: str
    param: float
    objective: Objective
    seed: int
    z: np.ndarray
    z_tilde: np.ndarray
    w: np.ndarray

    @property
    def n_scenarios(self) -> int:
        return self.z.shape[0]

    @property
    def horizon_years(self) -> int:
        return self.z.shape[1]

    def with_objective(self, objective: Objective) -> ScenarioBatch:
        """The same (Z, Zt) panel under another objective.

        Equal, array for array, to simulating the batch again with the same
        seed for that objective: the draws do not depend on the objective.
        """
        return replace(self, objective=objective, w=_gain(self.z, self.z_tilde, objective))


def _check_sim_args(horizon_years: int, n_scenarios: int, seed: int) -> None:
    if n_scenarios < 1:
        raise ConfigError(f"need at least one scenario, got {n_scenarios}")
    if horizon_years < 1:
        raise ConfigError(f"horizon must be at least one year, got {horizon_years}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


def _gain(z: np.ndarray, zt: np.ndarray, objective: Objective) -> np.ndarray:
    return (z - zt) if objective == GLOBAL else -zt


def _row_sums(rows: np.ndarray) -> np.ndarray:
    return rows.sum(axis=1)


def _segment_reduce(values, starts, lengths, reduce_rows) -> np.ndarray:
    """``reduce_rows`` applied to every segment ``values[s : s + n]``; 0 when empty.

    Segments of equal length are reduced together as the rows of one dense
    matrix.  A row-wise ``sum`` then takes the same pairwise path as the 1-D
    ``values[s : s + n].sum()``, bit for bit; ``np.add.reduceat`` does not.
    """
    out = np.zeros(lengths.size)
    order = np.argsort(lengths, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        n = lengths[group[0]]
        if n:
            out[group] = reduce_rows(values[starts[group, None] + np.arange(n)])
    return out


def _simulate(rate, severity, horizon_years, n_scenarios, seed, year_losses):
    """The simulation kernel: (Z, Zt) panels of compound-Poisson IG years.

    Scenarios are drawn in blocks of ``_BLOCK``, each from its own child
    stream as the module docstring states.  ``year_losses(xs, starts,
    lengths)`` maps the block's flat severities and its scenario-year
    segments (scenario-major) to the flat ``(z, zt)`` of those years.
    """
    _check_sim_args(horizon_years, n_scenarios, seed)
    z = np.empty((n_scenarios, horizon_years))
    zt = np.empty((n_scenarios, horizon_years))
    normal = uniform = np.empty(0)
    for lo in range(0, n_scenarios, _BLOCK):
        rows = range(lo, min(lo + _BLOCK, n_scenarios))
        rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))) for i in rows]
        counts = np.array([rng.poisson(rate, horizon_years) for rng in rngs])
        totals = counts.sum(axis=1)
        ends = np.cumsum(totals)
        n_draws = int(ends[-1])
        if n_draws > normal.size:
            normal, uniform = np.empty(n_draws), np.empty(n_draws)
        for rng, end, total in zip(rngs, ends.tolist(), totals.tolist()):
            if total:
                rng.standard_normal(out=normal[end - total : end])
                rng.random(out=uniform[end - total : end])
        xs = _ig_transform(severity, normal[:n_draws], uniform[:n_draws])
        lengths = counts.ravel()
        z_years, zt_years = year_losses(xs, np.cumsum(lengths) - lengths, lengths)
        z[lo : rows.stop] = z_years.reshape(counts.shape)
        zt[lo : rows.stop] = zt_years.reshape(counts.shape)
    return z, zt


def simulate_batch(
    lda: LDAModel, policy: PolicySpec, horizon_years: int, n_scenarios: int, seed: int
) -> ScenarioBatch:
    """Simulate straight from the policy definition, one stream per scenario."""
    kind, param = policy.kind, policy.param

    def year_losses(xs, starts, lengths):
        z = _segment_reduce(xs, starts, lengths, _row_sums)
        if kind == "ALP":
            return z, np.maximum(z - param, 0.0)
        if kind == "ILP":
            return z, _segment_reduce(np.maximum(xs - param, 0.0), starts, lengths, _row_sums)
        # PAP: the leading losses whose running total stays within the attachment
        within = _segment_reduce(
            xs, starts, lengths, lambda m: (np.cumsum(m, axis=1) <= param).sum(axis=1)
        )
        return z, _segment_reduce(xs, starts, within.astype(lengths.dtype), _row_sums)

    z, zt = _simulate(
        lda.frequency.rate, lda.severity, horizon_years, n_scenarios, seed, year_losses
    )
    return ScenarioBatch(
        kind=kind, param=param, objective=policy.objective, seed=seed,
        z=z, z_tilde=zt, w=_gain(z, zt, policy.objective),
    )


def simulate_aux_local_batch(
    aux: ILPAuxModel, horizon_years: int, n_scenarios: int, seed: int
) -> ScenarioBatch:
    """Simulate the directly-modelled post-insurance process (local objective).

    Only the insured loss exists in this model, so ``Z`` is stored equal to
    ``Zt`` and the gain is ``-Zt``.
    """

    def year_losses(xs, starts, lengths):
        # each year adds its losses one at a time, in draw order
        zt = _segment_reduce(xs, starts, lengths, lambda m: np.cumsum(m, axis=1)[:, -1])
        return zt, zt

    z, zt = _simulate(
        aux.aux_rate, aux.aux_severity, horizon_years, n_scenarios, seed, year_losses
    )
    return ScenarioBatch(
        kind="ILP-aux", param=aux.aux_rate, objective=LOCAL, seed=seed,
        z=z, z_tilde=zt, w=-zt,
    )


@dataclass(frozen=True)
class ComparisonRule:
    """One of the four claim-timing rules of the comparison study."""

    kind: str  # optimal | deterministic | random | average
    years: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("optimal", "deterministic", "random", "average"):
            raise ConfigError(f"unknown rule kind {self.kind!r}")
        if self.kind == "deterministic":
            if not self.years or any(b <= a for a, b in zip(self.years, self.years[1:])):
                raise ConfigError("deterministic rule needs strictly increasing years")


def default_rules(deterministic_years: Sequence[int]) -> list[ComparisonRule]:
    return [
        ComparisonRule("optimal"),
        ComparisonRule("deterministic", tuple(int(y) for y in deterministic_years)),
        ComparisonRule("random"),
        ComparisonRule("average"),
    ]


def _threshold_walk(w: np.ndarray, threshold_of_state, k: int) -> np.ndarray:
    """Year-by-year claim walk, vectorized across paths.

    ``threshold_of_state(year, used)`` maps the per-path rights-used vector to
    claim triggers; claims are forced once remaining years equal remaining
    rights, and paths stop claiming after the k-th right.
    """
    n, T = w.shape
    used = np.zeros(n, dtype=int)
    taus = np.zeros((n, k), dtype=int)
    for year in range(1, T + 1):
        active = used < k
        thr = threshold_of_state(year, used)
        forced = (T - year + 1) <= (k - used)
        claim = active & (forced | (w[:, year - 1] >= thr))
        rows = np.nonzero(claim)[0]
        taus[rows, used[rows]] = year
        used[rows] += 1
    return taus


def rule_claim_years(
    batch: ScenarioBatch, table: ValueTable, rule: ComparisonRule
) -> np.ndarray:
    """(M, k) claim years selected by a rule on every path of the batch."""
    k, T = table.k, table.T
    m = batch.n_scenarios
    if rule.kind == "optimal":
        bmat = thresholds(table)  # bmat[L, i-1], forced states already -inf

        def optimal_thr(year: int, used: np.ndarray) -> np.ndarray:
            left = T - year
            return bmat[left, np.clip(used, 0, k - 1)]

        return _threshold_walk(batch.w, optimal_thr, k)
    if rule.kind == "deterministic":
        years = np.asarray(rule.years, dtype=int)
        if years.size != k or years[-1] > T or years[0] < 1:
            raise ConfigError(f"deterministic years {rule.years} incompatible with T={T}, k={k}")
        return np.tile(years, (m, 1))
    if rule.kind == "random":
        rng = np.random.default_rng(np.random.SeedSequence([batch.seed, _RULE_STREAM_TAG]))
        order = np.argsort(rng.random((m, T)), axis=1)[:, :k]
        return np.sort(order + 1, axis=1)
    mean_gain = table.value(1, 1)  # E[W]

    def average_thr(year: int, used: np.ndarray) -> np.ndarray:
        return np.full(m, mean_gain)

    return _threshold_walk(batch.w, average_thr, k)


def objective_values(batch: ScenarioBatch, taus: np.ndarray) -> np.ndarray:
    """Per-path realized objective (a loss; smaller is better)."""
    rows = np.arange(batch.n_scenarios)[:, None]
    cols = taus - 1
    if batch.objective == GLOBAL:
        return batch.z.sum(axis=1) - batch.w[rows, cols].sum(axis=1)
    return batch.z_tilde[rows, cols].sum(axis=1)


def reference_lines(
    table: ValueTable, lda: LDAModel | None, objective: Objective
) -> float:
    """Predicted mean objective under the threshold rule, on the loss axis.

    Global: ``E[Z] * T - v[T, k]`` with ``E[Z]`` the analytic compound mean.
    Local: the recursion's game value is the expected claimed *gain*
    ``-sum Zt(tau)``, so the expected loss is its negation.
    """
    if objective == GLOBAL:
        if lda is None:
            raise ConfigError("global reference line needs the loss model for E[Z]")
        return lda.mean_annual_loss * table.T - table.game_value
    return -table.game_value


@dataclass(frozen=True)
class RuleOutcome:
    name: str
    mean: float
    stderr: float
    hist_counts: np.ndarray
    taus: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class RuleReport:
    objective: Objective
    outcomes: tuple[RuleOutcome, ...]
    hist_edges: np.ndarray
    reference_solid: float
    n_scenarios: int

    def outcome(self, name: str) -> RuleOutcome:
        for out in self.outcomes:
            if out.name == name:
                return out
        raise KeyError(name)

    def paired_pvalue(self, other: str, optimal: str = "optimal") -> float:
        """One-sided p-value that the threshold rule's mean objective is smaller."""
        diff = self.outcome(other).values - self.outcome(optimal).values
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        if se == 0.0:
            return 0.5 if diff.mean() == 0 else (0.0 if diff.mean() > 0 else 1.0)
        return float(1.0 - ndtr(diff.mean() / se))


def compare_rules(
    batch: ScenarioBatch,
    table: ValueTable,
    rules: Iterable[ComparisonRule],
    k: int,
    lda: LDAModel | None = None,
    n_bins: int = 60,
) -> RuleReport:
    """Replay each rule on the batch and histogram the realized objectives."""
    if k != table.k:
        raise ConfigError(f"rule comparison k={k} does not match table k={table.k}")
    if batch.horizon_years != table.T:
        raise ConfigError("batch and value table horizon mismatch")
    per_rule = []
    for rule in rules:
        taus = rule_claim_years(batch, table, rule)
        per_rule.append((rule.kind, taus, objective_values(batch, taus)))
    all_vals = np.concatenate([v for _, _, v in per_rule])
    edges = np.histogram_bin_edges(all_vals, bins=n_bins)
    outcomes = tuple(
        RuleOutcome(
            name=name,
            mean=float(vals.mean()),
            stderr=float(vals.std(ddof=1) / math.sqrt(vals.size)),
            hist_counts=np.histogram(vals, bins=edges)[0],
            taus=taus,
            values=vals,
        )
        for name, taus, vals in per_rule
    )
    return RuleReport(
        objective=batch.objective,
        outcomes=outcomes,
        hist_edges=edges,
        reference_solid=reference_lines(table, lda, batch.objective),
        n_scenarios=batch.n_scenarios,
    )


def stopping_time_distribution(
    batch: ScenarioBatch, table: ValueTable, k: int
) -> dict[tuple[int, ...], int]:
    """Empirical counts of claim-year k-tuples under the threshold rule."""
    if k != table.k:
        raise ConfigError(f"k={k} does not match table k={table.k}")
    taus = rule_claim_years(batch, table, ComparisonRule("optimal"))
    keys, counts = np.unique(taus, axis=0, return_counts=True)
    return {tuple(key): count for key, count in zip(keys.tolist(), counts.tolist())}


def price_proxy(batch: ScenarioBatch, table: ValueTable, k: int) -> float:
    """Mean claimed gain under the threshold rule: the with-vs-without-cover
    expected saving, a price proxy for the product (global objective only)."""
    if batch.objective != GLOBAL:
        raise ConfigError("price proxy is defined for global-objective batches")
    if k != table.k:
        raise ConfigError(f"k={k} does not match table k={table.k}")
    taus = rule_claim_years(batch, table, ComparisonRule("optimal"))
    rows = np.arange(batch.n_scenarios)[:, None]
    return float(batch.w[rows, taus - 1].sum(axis=1).mean())


def exceedance_probability(lda: LDAModel, cap: float) -> float:
    """P[annual loss exceeds cap] from the count-conditioned IG mixture."""
    m = np.arange(1, lda.m_max + 1)
    pm = poisson_pmf(m, lda.frequency)
    return float(
        np.sum(pm * (1.0 - _ig_cdf(cap, m * lda.severity.mu, m * m * lda.severity.lam)))
    )
