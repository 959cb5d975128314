"""Frozen loop versions of the two simulators and of the rule replay's claim years.

The simulators spell out the stream contract of ``multistop.simulation`` one
scenario and one year at a time, with their own copy of the IG transform, as
the bit-identity reference for ``simulate_batch`` and
``simulate_aux_local_batch``.  ``reference_claim_years`` is the path-major
walk of ``multistop.stopping.claim_years`` and ``reference_random_claim_years``
the full-``argsort`` draw of the random comparison rule.  Do not optimise them.
"""

import operator
from functools import reduce

import numpy as np

from multistop.policies import GLOBAL, LOCAL, ConfigError
from multistop.simulation import ScenarioBatch

BLOCK = 1024
RULE_STREAM_TAG = 0x52554C45


def _ig_from(params, normal, u):
    y = normal**2
    mu, lam = params.mu, params.lam
    x = mu + mu**2 * y / (2.0 * lam) - (mu / (2.0 * lam)) * np.sqrt(
        4.0 * mu * lam * y + mu**2 * y**2
    )
    x = np.maximum(x, np.finfo(float).tiny)
    return np.where(u <= mu / (mu + x), x, mu**2 / x)


def _seq_sum(values):
    # left to right from 0.0; Python 3.12's builtin sum compensates instead
    return reduce(operator.add, values.tolist(), 0.0)


def _scenario_years(rate, severity, horizon_years, n_scenarios, seed):
    """Yield (row, list of that row's per-year loss arrays) for every scenario."""
    for b, lo in enumerate(range(0, n_scenarios, BLOCK)):
        rows = min(BLOCK, n_scenarios - lo)
        gens = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b, j))) for j in range(3)]
        counts = gens[0].poisson(rate, (rows, horizon_years))
        for r in range(rows):
            total = int(counts[r].sum())
            xs = _ig_from(severity, gens[1].standard_normal(total), gens[2].random(total))
            years, start = [], 0
            for t in range(horizon_years):
                years.append(xs[start : start + counts[r, t]])
                start += counts[r, t]
            yield lo + r, years


def _insured_year_loss(kind, param, xs):
    if kind == "ALP":
        return max(_seq_sum(xs) - param, 0.0)
    if kind == "ILP":
        return _seq_sum(np.maximum(xs - param, 0.0))
    if kind == "PAP":
        return _seq_sum(xs[np.cumsum(xs) <= param])
    raise ConfigError(f"unknown policy kind {kind!r}")


def reference_simulate_batch(lda, policy, horizon_years, n_scenarios, seed):
    z = np.zeros((n_scenarios, horizon_years))
    zt = np.zeros((n_scenarios, horizon_years))
    for i, years in _scenario_years(lda.frequency.rate, lda.severity, horizon_years, n_scenarios, seed):
        for t, year in enumerate(years):
            z[i, t] = _seq_sum(year)
            zt[i, t] = _insured_year_loss(policy.kind, policy.param, year)
    w = (z - zt) if policy.objective == GLOBAL else -zt
    return ScenarioBatch(
        kind=policy.kind, param=policy.param, objective=policy.objective, seed=seed,
        z=z, z_tilde=zt, w=w,
    )


def reference_simulate_aux_local_batch(aux, horizon_years, n_scenarios, seed):
    zt = np.zeros((n_scenarios, horizon_years))
    for i, years in _scenario_years(aux.aux_rate, aux.aux_severity, horizon_years, n_scenarios, seed):
        for t, year in enumerate(years):
            zt[i, t] = _seq_sum(year)
    return ScenarioBatch(
        kind="ILP-aux", param=aux.aux_rate, objective=LOCAL, seed=seed,
        z=zt.copy(), z_tilde=zt, w=-zt,
    )


def reference_claim_years(w, b):
    n, T = w.shape
    k = b.shape[1]
    used = np.zeros(n, dtype=int)
    taus = np.zeros((n, k), dtype=int)
    for year in range(1, T + 1):
        claim = (used < k) & (w[:, year - 1] >= b[T - year, np.minimum(used, k - 1)])
        rows = np.nonzero(claim)[0]
        taus[rows, used[rows]] = year
        used[rows] += 1
    return taus


def reference_random_claim_years(seed, n_scenarios, horizon_years, k):
    rng = np.random.default_rng(np.random.SeedSequence([seed, RULE_STREAM_TAG]))
    order = np.argsort(rng.random((n_scenarios, horizon_years)), axis=1)[:, :k]
    return np.sort(order + 1, axis=1)
