"""Scenario simulation, rule comparison experiments, and report emission.

Scenarios are generated pathwise from the policy definitions (never from the
closed forms), from block streams fixed by the seed alone, so results are
bit-reproducible for a given seed.  Each T-year path carries the raw annual
loss ``Z``, the insured loss ``Zt``, and the objective's gain ``W`` (``-Zt``
local, ``Z - Zt`` global).

Stream contract (``STREAMS``): scenario block ``b`` holds the rows
``[1024 b, 1024 b + 1024)`` of a batch with seed ``s`` and draws from three
generators, ``default_rng(SeedSequence(s, spawn_key=(b, j)))``, the ``j``-th
child of the ``b``-th child of ``SeedSequence(s)``.  Generator ``j = 0`` draws
``poisson(rate, (rows, T))``, row-major, for the yearly loss counts of the
block's ``rows`` kept scenarios.  The block's ``total`` losses, scenario by
scenario and year by year, take their IG transform from
``standard_normal(total)`` (``j = 1``) and ``random(total)`` (``j = 2``).
Each generator is read in order and only as far as the kept rows need, so a
batch of ``n`` is the first ``n`` rows of any larger batch with the same
seed.  A year's loss is the left-to-right sum of its losses in draw order,
and a PAP year keeps the largest such running total within the attachment.
The objectives of a study share one (Z, Zt) panel, because they share its
seed: ``ScenarioBatch.with_objective`` derives the second ``W``.

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

from .distributions import _ig_transform
from .policies import (
    GLOBAL,
    LOCAL,
    ConfigError,
    ILPAuxModel,
    LDAModel,
    Objective,
    PolicySpec,
)
from .stopping import ValueTable, _row_blocks, claim_years, thresholds

_RULE_STREAM_TAG = 0x52554C45  # separates the random-rule stream from scenario streams
# Scenarios per block of the simulation kernel.  Each block owns its streams,
# so the block size is part of the stream contract: changing it changes results.
_BLOCK = 1024
# Names the stream contract of the module docstring in run reports.
STREAMS = f"block{_BLOCK}-poisson-normal-uniform-seqsum"
# Shared histogram bins of a rule comparison, over all rules' outcomes.
_HIST_BINS = 60


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


def _simulate(rate, severity, horizon_years, n_scenarios, seed, year_losses):
    """The simulation kernel: (Z, Zt) panels of compound-Poisson IG years.

    Scenarios are drawn in blocks of ``_BLOCK`` from the block streams of the
    module docstring.  ``year_losses(xs, year, n)`` maps the block's flat
    severities, the scenario-year index of each (scenario-major, in draw
    order) and the block's ``n`` scenario-years to the flat ``(z, zt)`` of
    those years.
    """
    _check_sim_args(horizon_years, n_scenarios, seed)
    z = np.empty((n_scenarios, horizon_years))
    zt = np.empty((n_scenarios, horizon_years))
    for b, lo in enumerate(range(0, n_scenarios, _BLOCK)):
        hi = min(lo + _BLOCK, n_scenarios)
        counts_rng, normal_rng, uniform_rng = (
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b, j)))
            for j in range(3)
        )
        counts = counts_rng.poisson(rate, (hi - lo, horizon_years))
        total = int(counts.sum())
        xs = _ig_transform(severity, normal_rng.standard_normal(total), uniform_rng.random(total))
        year = np.repeat(np.arange(counts.size), counts.ravel())
        z_years, zt_years = year_losses(xs, year, counts.size)
        z[lo:hi] = z_years.reshape(counts.shape)
        zt[lo:hi] = zt_years.reshape(counts.shape)
    return z, zt


def simulate_batch(
    lda: LDAModel, policy: PolicySpec, horizon_years: int, n_scenarios: int, seed: int
) -> ScenarioBatch:
    """Simulate straight from the policy definition on the block streams."""
    kind, param = policy.kind, policy.param

    def year_losses(xs, year, n):
        # bincount adds each year's losses in draw order, starting from 0.0
        z = np.bincount(year, xs, n)
        if kind == "ALP":
            return z, np.maximum(z - param, 0.0)
        if kind == "ILP":
            return z, np.bincount(year, np.maximum(xs - param, 0.0), n)
        # PAP: a year within the attachment keeps Z.  Every other year keeps
        # the largest running total within it; its losses go down one column
        # of a zero-padded panel, where the totals rise.
        over = z > param
        counts = np.bincount(year, minlength=n)
        pos = np.arange(xs.size) - (np.cumsum(counts) - counts)[year]
        keep = over[year]
        panel = np.zeros((counts.max(initial=0), np.count_nonzero(over)))
        panel[pos[keep], (np.cumsum(over) - 1)[year[keep]]] = xs[keep]
        totals = np.cumsum(panel, axis=0)
        zt = z.copy()
        zt[over] = np.where(totals <= param, totals, 0.0).max(axis=0, initial=0.0)
        return z, zt

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

    def year_losses(xs, year, n):
        zt = np.bincount(year, xs, n)
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


def rule_claim_years(
    batch: ScenarioBatch, table: ValueTable, rule: ComparisonRule
) -> np.ndarray:
    """(M, k) claim years selected by a rule on every path of the batch."""
    k, T = table.k, table.T
    m = batch.n_scenarios
    if rule.kind == "optimal":
        return claim_years(batch.w, thresholds(table))
    if rule.kind == "deterministic":
        years = np.asarray(rule.years, dtype=int)
        if years.size != k or years[-1] > T or years[0] < 1:
            raise ConfigError(f"deterministic years {rule.years} incompatible with T={T}, k={k}")
        return np.broadcast_to(years, (m, k))
    if rule.kind == "random":
        # the years of each path's k smallest uniforms; argpartition selects
        # the positions a full argsort puts first.  The one generator is read
        # a row block at a time, which gives the draws of one (m, T) call.
        rng = np.random.default_rng(np.random.SeedSequence([batch.seed, _RULE_STREAM_TAG]))
        taus = np.empty((m, k), dtype=int)
        for block in _row_blocks(m):
            picked = np.argpartition(rng.random((block.stop - block.start, T)), k - 1, axis=1)
            taus[block] = np.sort(picked[:, :k] + 1, axis=1)
        return taus
    # average: claim once the gain reaches E[W], and wherever a claim is forced
    b = thresholds(table)
    return claim_years(batch.w, np.where(np.isneginf(b), -np.inf, table.value(1, 1)))


def _claimed_sums(panel: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """``panel[i, taus[i] - 1].sum()`` for every path ``i``, a row block at a time."""
    m, T = panel.shape
    sums = np.empty(m)
    for block in _row_blocks(m):
        rows = panel[block].ravel()
        offsets = np.arange(0, rows.size, T) - 1
        sums[block] = rows.take(taus[block] + offsets[:, None]).sum(axis=1)
    return sums


def _check_claim_years(batch: ScenarioBatch, taus: np.ndarray, k: int | None = None) -> None:
    """Raise unless ``taus`` holds ``k`` claim years in 1..T for every path of the batch."""
    m, T = batch.z.shape
    if np.ndim(taus) != 2 or taus.shape[0] != m or (k is not None and taus.shape[1] != k):
        raise ConfigError(f"claim years have shape {np.shape(taus)}, need ({m}, {k or 'k'})")
    if taus.size and (taus.min() < 1 or taus.max() > T):
        raise ConfigError(f"claim years must lie in 1..{T}")


def objective_values(
    batch: ScenarioBatch, taus: np.ndarray, z_totals: np.ndarray | None = None
) -> np.ndarray:
    """Per-path realized objective (a loss; smaller is better).

    ``taus`` are the (M, k) claim years of the batch's paths, each in 1..T.
    ``z_totals`` is ``batch.z.sum(axis=1)`` when already formed; the global
    objective reads it.
    """
    _check_claim_years(batch, taus)
    if batch.objective == GLOBAL:
        if z_totals is None:
            z_totals = batch.z.sum(axis=1)
        return z_totals - _claimed_sums(batch.w, taus)
    return _claimed_sums(batch.z_tilde, taus)


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
    taus: np.ndarray | None
    values: np.ndarray | None


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

    def without_paths(self) -> RuleReport:
        """The report without per-path claim years and values (no :meth:`paired_pvalue`)."""
        return replace(
            self, outcomes=tuple(replace(out, taus=None, values=None) for out in self.outcomes)
        )

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
    random_taus: np.ndarray | None = None,
) -> RuleReport:
    """Replay each rule on the batch and histogram the realized objectives.

    ``random_taus`` are the random rule's (M, k) claim years when already
    drawn.  They depend only on the batch's seed, its shape and ``k``, so the
    objectives of one study share them.
    """
    if k != table.k:
        raise ConfigError(f"rule comparison k={k} does not match table k={table.k}")
    if batch.horizon_years != table.T:
        raise ConfigError("batch and value table horizon mismatch")
    if random_taus is not None:
        _check_claim_years(batch, random_taus, k)
    z_totals = batch.z.sum(axis=1) if batch.objective == GLOBAL else None
    per_rule = []
    for rule in rules:
        if rule.kind == "random" and random_taus is not None:
            taus = random_taus
        else:
            taus = rule_claim_years(batch, table, rule)
        per_rule.append((rule.kind, taus, objective_values(batch, taus, z_totals)))
    # the shared edges depend only on the smallest and the largest value
    extremes = np.array([(vals.min(), vals.max()) for _, _, vals in per_rule])
    edges = np.histogram_bin_edges(extremes, bins=_HIST_BINS)
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
    return _claim_year_tally(rule_claim_years(batch, table, ComparisonRule("optimal")))


def _claim_year_tally(taus: np.ndarray) -> dict[tuple[int, ...], int]:
    """Counts of the distinct rows of ``taus``, in lexicographic order.

    Each row is one integer key, its years as digits in base ``max + 1``, so
    keys sort as rows do.  Where the next digit could overflow an int64, the
    keys are first replaced by their dense ranks, which keep their order.
    Equal keys are equal rows, so the sort need not be stable.
    """
    base = int(taus.max()) + 1
    key, bound = np.zeros(len(taus), dtype=np.int64), 1  # every key is below bound
    for column in taus.T:
        if bound * base > 2**63:
            key = np.unique(key, return_inverse=True)[1]
            bound = int(key.max()) + 1
        key = key * base + column
        bound *= base
    order = np.argsort(key)
    s = key[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    counts = np.diff(starts, append=len(s))
    return {tuple(row): count for row, count in zip(taus[order[starts]].tolist(), counts.tolist())}


def price_proxy(batch: ScenarioBatch, table: ValueTable, k: int) -> float:
    """Mean claimed gain under the threshold rule: the with-vs-without-cover
    expected saving, a price proxy for the product (global objective only)."""
    if batch.objective != GLOBAL:
        raise ConfigError("price proxy is defined for global-objective batches")
    if k != table.k:
        raise ConfigError(f"k={k} does not match table k={table.k}")
    return _mean_claimed_gain(batch, rule_claim_years(batch, table, ComparisonRule("optimal")))


def _mean_claimed_gain(batch: ScenarioBatch, taus: np.ndarray) -> float:
    return float(_claimed_sums(batch.w, taus).mean())


def exceedance_probability(lda: LDAModel, cap: float) -> float:
    """P[annual loss exceeds cap] from the count-conditioned IG mixture."""
    mix = lda.mixture()
    return float(np.sum(mix.pm * mix.tails(cap).sf))
