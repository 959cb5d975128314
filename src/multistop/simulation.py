"""Scenario simulation, rule comparison experiments, and report emission.

Scenarios are generated pathwise from the policy definitions (never from the
closed forms), from block streams fixed by the seed alone, so results are
bit-reproducible for a given seed.  Each T-year path carries the raw annual
loss ``Z``, the insured loss ``Zt``, and the objective's gain ``W`` (``-Zt``
local, ``Z - Zt`` global).  Every path comes from one kernel entry,
``_simulate(lda, policy, ...)``: the loss law, and the policy that maps each
year's losses to ``Zt``, or none where the law already is the insured loss.

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
A study simulates its scenarios one chunk of whole blocks at a time and
replays every objective's rules on each chunk before it draws the next, so it
holds no panel: the objectives share each chunk's (Z, Zt), because they share
its seed.

The experiment harness replays four claim-timing rules on a common batch --
the threshold rule from the value recursion, a fixed-years rule, a uniform
random rule, and a claim-when-above-average rule -- and reports per-rule
realized objectives against the recursion's predicted value.  Objective
values are reported on the loss axis (smaller is better); the recursion's
game value is the negative of the optimal expected loss in local mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .stopping import ValueTable, claim_years, thresholds

_RULE_STREAM_TAG = 0x52554C45  # separates the random-rule stream from scenario streams
# Scenarios per block of the simulation kernel.  Each block owns its streams,
# so the block size is part of the stream contract: changing it changes results.
_BLOCK = 1024
# Names the stream contract of the module docstring in run reports.
STREAMS = f"block{_BLOCK}-poisson-normal-uniform-seqsum"
# Scenarios per chunk of a study: whole blocks, simulated and replayed in turn.
# It bounds a study's temporaries; no result depends on it.
_CHUNK = 4 * _BLOCK
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


def _check_sim_args(horizon_years: int, n_scenarios: int, seed: int) -> None:
    if n_scenarios < 1:
        raise ConfigError(f"need at least one scenario, got {n_scenarios}")
    if horizon_years < 1:
        raise ConfigError(f"horizon must be at least one year, got {horizon_years}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


def _gain(z: np.ndarray, zt: np.ndarray, objective: Objective) -> np.ndarray:
    return (z - zt) if objective == GLOBAL else -zt


def _insured(policy: PolicySpec, xs: np.ndarray, year: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The policy's flat ``Zt`` from a block's flat severities ``xs``, the
    scenario-year index of each (scenario-major, in draw order) and the flat
    ``Z`` of its years."""
    kind, param = policy.kind, policy.param
    if kind == "ALP":
        return np.maximum(z - param, 0.0)
    if kind == "ILP":
        return np.bincount(year, np.maximum(xs - param, 0.0), z.size)
    # PAP: a year within the attachment keeps Z.  Every other year keeps
    # the largest running total within it; its losses go down one column
    # of a zero-padded panel, where the totals rise.
    over = z > param
    counts = np.bincount(year, minlength=z.size)
    pos = np.arange(xs.size) - (np.cumsum(counts) - counts)[year]
    keep = over[year]
    panel = np.zeros((counts.max(initial=0), np.count_nonzero(over)))
    panel[pos[keep], (np.cumsum(over) - 1)[year[keep]]] = xs[keep]
    totals = np.cumsum(panel, axis=0)
    zt = z.copy()
    zt[over] = np.where(totals <= param, totals, 0.0).max(axis=0, initial=0.0)
    return zt


def _simulate(lda: LDAModel, policy: PolicySpec | None, horizon_years, n_scenarios, seed, chunk=_CHUNK):
    """The simulation kernel: (Z, Zt) panels of the law ``lda``'s years under ``policy``.

    Scenarios are drawn in blocks of ``_BLOCK`` from the block streams of the
    module docstring and yielded ``chunk`` rows at a time (a multiple of
    ``_BLOCK``, or every row).  ``Zt`` is the policy's insured loss
    (``_insured``); with ``policy=None`` the law already is the insured
    loss, so ``Zt`` is ``Z``, one array.
    """
    _check_sim_args(horizon_years, n_scenarios, seed)
    for start in range(0, n_scenarios, chunk):
        stop = min(start + chunk, n_scenarios)
        z = np.empty((stop - start, horizon_years))
        zt = z if policy is None else np.empty_like(z)
        for lo in range(start, stop, _BLOCK):
            hi = min(lo + _BLOCK, stop)
            counts_rng, normal_rng, uniform_rng = (
                np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(lo // _BLOCK, j)))
                for j in range(3)
            )
            counts = counts_rng.poisson(lda.frequency.rate, (hi - lo, horizon_years))
            total = int(counts.sum())
            xs = _ig_transform(lda.severity, normal_rng.standard_normal(total), uniform_rng.random(total))
            year = np.repeat(np.arange(counts.size), counts.ravel())
            # bincount adds each year's losses in draw order, starting from 0.0
            z_years = np.bincount(year, xs, counts.size)
            z[lo - start : hi - start] = z_years.reshape(counts.shape)
            if policy is not None:
                zt[lo - start : hi - start] = _insured(policy, xs, year, z_years).reshape(counts.shape)
        yield z, zt


def _year_one(lda: LDAModel, policy: PolicySpec, n_scenarios: int, seed: int) -> np.ndarray:
    """``simulate_batch(lda, policy, 1, n_scenarios, seed).w[:, 0]``, holding only the gains."""
    _check_sim_args(1, n_scenarios, seed)
    w = np.empty(n_scenarios)
    chunks = _simulate(lda, policy, 1, n_scenarios, seed)
    for start, (z, zt) in zip(range(0, n_scenarios, _CHUNK), chunks):
        w[start : start + len(z)] = _gain(z[:, 0], zt[:, 0], policy.objective)
    return w


def simulate_batch(
    lda: LDAModel, policy: PolicySpec, horizon_years: int, n_scenarios: int, seed: int
) -> ScenarioBatch:
    """Simulate straight from the policy definition on the block streams."""
    ((z, zt),) = _simulate(lda, policy, horizon_years, n_scenarios, seed, n_scenarios)
    return ScenarioBatch(
        kind=policy.kind, param=policy.param, objective=policy.objective, seed=seed,
        z=z, z_tilde=zt, w=_gain(z, zt, policy.objective),
    )


def simulate_aux_local_batch(
    aux: ILPAuxModel, horizon_years: int, n_scenarios: int, seed: int
) -> ScenarioBatch:
    """Simulate the directly-modelled post-insurance process (local objective).

    Only the insured loss exists in this model, so ``Z`` is ``Zt`` (one
    array) and the gain is ``-Zt``.
    """
    ((z, zt),) = _simulate(aux.lda, None, horizon_years, n_scenarios, seed, n_scenarios)
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


def _rule_walk(table: ValueTable, rule: ComparisonRule):
    """The rule as ``walk(w, random_taus)``: its (n, k) claim years on the gain paths ``w``.

    The trigger matrix or the fixed years are formed here, once.  The random
    rule returns ``random_taus``, the draws every objective of a study shares.
    """
    k, T = table.k, table.T
    if rule.kind == "random":
        return lambda w, random_taus: random_taus
    if rule.kind == "deterministic":
        years = np.asarray(rule.years, dtype=int)
        if years.size != k or years[-1] > T or years[0] < 1:
            raise ConfigError(f"deterministic years {rule.years} incompatible with T={T}, k={k}")
        return lambda w, random_taus: np.broadcast_to(years, (len(w), k))
    b = thresholds(table)
    if rule.kind == "average":  # claim once the gain reaches E[W], and wherever a claim is forced
        b = np.where(np.isneginf(b), -np.inf, table.value(1, 1))
    return lambda w, random_taus: claim_years(w, b)


def _random_claim_years(rng: np.random.Generator, n: int, T: int, k: int) -> np.ndarray:
    """The years of each of ``n`` paths' ``k`` smallest of ``T`` uniforms.

    argpartition selects the positions a full argsort puts first.  Reading
    the generator on, chunk after chunk, gives the draws of one (n, T) call.
    """
    picked = np.argpartition(rng.random((n, T)), k - 1, axis=1)
    return np.sort(picked[:, :k] + 1, axis=1).astype(np.min_scalar_type(T))


def _claimed_sums(panel: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """``panel[i, taus[i] - 1].sum()`` for every path ``i``."""
    offsets = np.arange(0, panel.size, panel.shape[1]) - 1
    return panel.ravel().take(taus + offsets[:, None]).sum(axis=1)


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

    def paired_pvalue(self, other: str) -> float:
        """One-sided p-value that the threshold rule's mean objective is smaller."""
        diff = self.outcome(other).values - self.outcome("optimal").values
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        if se == 0.0:
            return 0.5 if diff.mean() == 0 else (0.0 if diff.mean() > 0 else 1.0)
        return float(1.0 - ndtr(diff.mean() / se))


class _Replay:
    """The comparison rules replayed under every objective of ``tables``, a chunk at a time.

    The random rule's one generator is read on from chunk to chunk, and the
    objectives share its years.  Kept per objective: each rule's realized
    objective on every path, the threshold rule's claim years and, under the
    global objective, its claimed sums (the price proxy's).
    """

    def __init__(self, tables: dict, rules: Iterable[ComparisonRule], n: int, seed: int):
        self.rules = list(rules)
        self.k = k = next(iter(tables.values())).k  # the tables share one horizon
        self.n = 0
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, _RULE_STREAM_TAG]))
        self._walks = {obj: [_rule_walk(t, rule) for rule in self.rules] for obj, t in tables.items()}
        self.values = {obj: [np.empty(n) for _ in self.rules] for obj in tables}
        self.taus = {obj: np.empty((n, k), np.min_scalar_type(t.T)) for obj, t in tables.items()}
        self.claimed = np.empty(n if GLOBAL in tables else 0)

    def add(self, z: np.ndarray, zt: np.ndarray) -> None:
        """Replay every objective's rules on the next chunk's (Z, Zt) panel."""
        rows = slice(self.n, self.n + len(z))
        self.n = rows.stop
        random_taus = _random_claim_years(self._rng, len(z), z.shape[1], self.k)
        for objective, walks in self._walks.items():
            w = _gain(z, zt, objective)
            z_totals = z.sum(axis=1) if objective == GLOBAL else None
            for rule, walk, values in zip(self.rules, walks, self.values[objective]):
                taus = walk(w, random_taus)
                claimed = _claimed_sums(w if objective == GLOBAL else zt, taus)
                values[rows] = claimed if z_totals is None else z_totals - claimed
                if rule.kind == "optimal":
                    self.taus[objective][rows] = taus
                    if objective == GLOBAL:
                        self.claimed[rows] = claimed

    def report(self, objective: Objective, reference_solid: float) -> RuleReport:
        """Each rule's mean, standard error and histogram on bins all rules share."""
        values = self.values[objective]
        # the shared edges depend only on the smallest and the largest value
        extremes = np.array([(vals.min(), vals.max()) for vals in values])
        edges = np.histogram_bin_edges(extremes, bins=_HIST_BINS)
        outcomes = tuple(
            RuleOutcome(
                name=rule.kind,
                mean=float(vals.mean()),
                stderr=float(vals.std(ddof=1) / math.sqrt(vals.size)),
                hist_counts=np.histogram(vals, bins=edges)[0],
                values=vals,
            )
            for rule, vals in zip(self.rules, values)
        )
        return RuleReport(objective, outcomes, edges, reference_solid, self.n)


def _check_reading(batch: ScenarioBatch, table: ValueTable, k: int) -> None:
    """A batch is read against a table of its own horizon and ``k`` rights."""
    if (k, batch.horizon_years) != (table.k, table.T):
        raise ConfigError(
            f"batch T={batch.horizon_years} and k={k} do not match table T={table.T}, k={table.k}"
        )


def compare_rules(
    batch: ScenarioBatch,
    table: ValueTable,
    rules: Iterable[ComparisonRule],
    k: int,
    lda: LDAModel | None = None,
) -> RuleReport:
    """Replay each rule on the batch and histogram the realized objectives.

    The batch is the one chunk of a study's replay, so a study's report
    equals this one on the study's whole batch.
    """
    _check_reading(batch, table, k)
    replay = _Replay({batch.objective: table}, rules, batch.n_scenarios, batch.seed)
    replay.add(batch.z, batch.z_tilde)
    return replay.report(batch.objective, reference_lines(table, lda, batch.objective))


def stopping_time_distribution(
    batch: ScenarioBatch, table: ValueTable, k: int
) -> dict[tuple[int, ...], int]:
    """Empirical counts of claim-year k-tuples under the threshold rule."""
    _check_reading(batch, table, k)
    return _claim_year_tally(claim_years(batch.w, thresholds(table)))


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
    _check_reading(batch, table, k)
    return float(_claimed_sums(batch.w, claim_years(batch.w, thresholds(table))).mean())


def exceedance_probability(lda: LDAModel, cap: float) -> float:
    """P[annual loss exceeds cap] from the count-conditioned IG mixture."""
    mix = lda.mixture()
    return float(np.sum(mix.pm * mix.tails(cap).sf))
