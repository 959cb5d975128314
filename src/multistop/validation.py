"""Quick self-contained consistency checks behind ``multistop validate``.

Each check pits a closed form against an independent numerical route
(quadrature, identity, or a frozen hand value) and reports one line.  The
full statistical oracle suite lives in the test tree; this is the fast
subset suitable for an install smoke test.
"""

from __future__ import annotations

import numpy as np

from .distributions import (
    FrequencyModel,
    IGParams,
    ig_cdf,
    ig_partial_expectation,
    ig_pdf,
    ig_sf,
    ig_sum_params,
    _ig_pdf,
)
from .policies import (
    _PAP_LOCAL_NODES,
    CrossingLaw,
    LDAModel,
    alp_global_model,
    alp_local_model,
    ilp_local_model,
    ILPAuxModel,
    mstar_pmf,
    pap_global_model,
    pap_local_model,
)
from .stopping import Horizon, compute_value_table, lognormal_local_model

Check = tuple[str, bool, str]


def _check(name: str, err: float, tol: float) -> Check:
    return name, err <= tol, f"max deviation {err:.3e} (tol {tol:.1e})"


def run_validation_suite() -> list[Check]:
    from scipy import integrate

    checks: list[Check] = []

    # IG CDF closed form vs quadrature of the density
    params = IGParams(mu=1.3, lam=2.1)
    quad_val, _ = integrate.quad(lambda u: ig_pdf(u, params), 0.0, 1.7, limit=200)
    checks.append(_check("IG cdf vs density quadrature", abs(ig_cdf(1.7, params) - quad_val), 1e-9))

    # IG sum closed form vs quadrature of its own density on a grid
    base = IGParams(mu=1.0, lam=1.0)
    summed = ig_sum_params(2, base)

    def summed_pdf(u: float) -> float:
        return float(_ig_pdf(u, summed.mu, summed.lam))

    err = max(
        abs(ig_cdf(x, summed) - integrate.quad(summed_pdf, 0.0, x, limit=200)[0])
        for x in (0.5, 1.0, 1.7, 2.5, 4.0)
    )
    checks.append(_check("IG-sum cdf vs density quadrature", err, 1e-9))

    # far survival, where the CDF rounds to 1, vs quadrature of the tail
    tail, _ = integrate.quad(
        lambda u: float(_ig_pdf(u, params.mu, params.lam)), 60.0, np.inf, epsabs=0.0, epsrel=1e-12
    )
    checks.append(_check("IG survival vs tail quadrature", abs(ig_sf(60.0, params) - tail) / tail, 1e-9))

    # partial expectation vs direct quadrature
    direct, _ = integrate.quad(lambda u: u * ig_pdf(u, summed), 0.0, 3.0, limit=200)
    checks.append(
        _check(
            "IG partial expectation vs quadrature",
            abs(ig_partial_expectation(3.0, 2, base) - direct),
            1e-9,
        )
    )

    # mixed-density normalization for the four closed-form policy models
    lda = LDAModel(FrequencyModel(rate=2.0), IGParams(mu=1.5, lam=1.0))
    err = _normalization_error(lda, cap=4.0, attachment=3.0)
    checks.append(_check("policy mixtures normalize", err, 1e-6))

    # crossing pmf: PAP-local's quadrature of P[M* = j] = sum_q w sf f_{S_{j-1}}
    # against the closed form F_{S_{j-1}}(att) - F_{S_j}(att)
    att = 3.0
    law = CrossingLaw(lda, att, _PAP_LOCAL_NODES)
    err = max(
        abs(float(np.sum(law.w * law.sf[:-1] * law.dens[j - 2])) - mstar_pmf(j, lda, att))
        for j in range(2, lda.m_max + 1)
    )
    checks.append(_check("crossing law vs closed-form crossing pmf", err, 1e-8))

    # value recursion spot values for the lognormal reference model
    table = compute_value_table(lognormal_local_model(0.0, 1.0), Horizon(T=10, k=9))
    spots = {
        (1, 1): -1.65,
        (2, 1): -1.02,
        (7, 4): -3.32,
        (10, 9): -11.78,
    }
    err = max(abs(table.value(L, l) - v) for (L, l), v in spots.items())
    checks.append(_check("lognormal value recursion spot cells", err, 0.01))

    # local/global means are complementary for ALP and PAP
    alp_gap = abs(
        -alp_local_model(lda, 4.0).mean_gain
        + alp_global_model(lda, 4.0).mean_gain
        - lda.mean_annual_loss
    )
    pap_gap = abs(
        -pap_local_model(lda, att).mean_gain
        + pap_global_model(lda, att).mean_gain
        - lda.mean_annual_loss
    )
    checks.append(_check("local + global mean identity", max(alp_gap, pap_gap), 1e-6))

    # ILP local first cell
    aux = ILPAuxModel(aux_rate=4.0, aux_severity=IGParams(mu=1.0, lam=3.0))
    checks.append(
        _check("ILP local mean", abs(ilp_local_model(aux).mean_gain + 4.0), 1e-12)
    )
    return checks


def _normalization_error(lda: LDAModel, cap: float, attachment: float) -> float:
    from scipy import integrate

    errs = []
    mix = lda.mixture()
    branches = list(zip(mix.pm, mix.m_mu, mix.beta))  # (P[N = m], m mu, m^2 lam)

    # ALP local: atom at zero + conditional excess branches
    alp = alp_local_model(lda, cap)
    cont = 0.0
    for p, m_mu, beta in branches:
        val, _ = integrate.quad(
            lambda z: float(_ig_pdf(z + cap, m_mu, beta)), 0.0, np.inf, limit=200
        )
        cont += p * val
    errs.append(abs(alp.weights.c0 + cont - 1.0))
    errs.append(abs(alp.weights.c0 + float(np.sum(alp.weights.cm)) - 1.0))

    # ALP global: atoms at 0 and at the cap + continuous body below the cap
    body = 0.0
    for p, m_mu, beta in branches:
        val, _ = integrate.quad(lambda w_: float(_ig_pdf(w_, m_mu, beta)), 0.0, cap, limit=200)
        body += p * val
    atom_cap = float(np.sum(mix.pm * mix.tails(cap).sf))
    errs.append(abs(mix.p0 + atom_cap + body - 1.0))

    # PAP: the models' quadrature grids must reproduce the complementary masses
    errs.append(abs(pap_local_model(lda, attachment).total_mass() - 1.0))
    pap_g = pap_global_model(lda, attachment)
    errs.append(abs(pap_g.prob_zero_gain + pap_g.continuous_mass() - 1.0))
    return float(max(errs))
