"""Frozen per-scenario, per-year loop versions of the two scenario simulators.

These are the simulators as they stood before the block kernel replaced
them, kept verbatim (with their own copy of the IG sampler) as the
bit-identity reference for ``simulate_batch`` and ``simulate_aux_local_batch``.
Do not optimise them.
"""

import numpy as np

from multistop.policies import GLOBAL, LOCAL, ConfigError
from multistop.simulation import ScenarioBatch


def _sample_ig(params, rng, size):
    y = rng.standard_normal(size) ** 2
    mu, lam = params.mu, params.lam
    x = mu + mu**2 * y / (2.0 * lam) - (mu / (2.0 * lam)) * np.sqrt(
        4.0 * mu * lam * y + mu**2 * y**2
    )
    x = np.maximum(x, np.finfo(float).tiny)
    u = rng.uniform(size=size)
    return np.where(u <= mu / (mu + x), x, mu**2 / x)


def _insured_year_loss(kind, param, xs):
    if kind == "ALP":
        return max(float(xs.sum()) - param, 0.0)
    if kind == "ILP":
        return float(np.maximum(xs - param, 0.0).sum())
    if kind == "PAP":
        return float(xs[np.cumsum(xs) <= param].sum())
    raise ConfigError(f"unknown policy kind {kind!r}")


def reference_simulate_batch(lda, policy, horizon_years, n_scenarios, seed):
    children = np.random.SeedSequence(seed).spawn(n_scenarios)
    z = np.zeros((n_scenarios, horizon_years))
    zt = np.zeros((n_scenarios, horizon_years))
    for i in range(n_scenarios):
        rng = np.random.default_rng(children[i])
        counts = rng.poisson(lda.frequency.rate, horizon_years)
        total = int(counts.sum())
        xs = _sample_ig(lda.severity, rng, size=total) if total else np.empty(0)
        start = 0
        for t in range(horizon_years):
            year = xs[start : start + counts[t]]
            start += counts[t]
            z[i, t] = year.sum()
            zt[i, t] = _insured_year_loss(policy.kind, policy.param, year)
    w = (z - zt) if policy.objective == GLOBAL else -zt
    return ScenarioBatch(
        kind=policy.kind, param=policy.param, objective=policy.objective, seed=seed,
        z=z, z_tilde=zt, w=w,
    )


def reference_simulate_aux_local_batch(aux, horizon_years, n_scenarios, seed):
    children = np.random.SeedSequence(seed).spawn(n_scenarios)
    zt = np.zeros((n_scenarios, horizon_years))
    for i in range(n_scenarios):
        rng = np.random.default_rng(children[i])
        counts = rng.poisson(aux.aux_rate, horizon_years)
        total = int(counts.sum())
        if total:
            xs = _sample_ig(aux.aux_severity, rng, size=total)
            np.add.at(zt[i], np.repeat(np.arange(horizon_years), counts), xs)
    return ScenarioBatch(
        kind="ILP-aux", param=aux.aux_rate, objective=LOCAL, seed=seed,
        z=zt.copy(), z_tilde=zt, w=-zt,
    )
