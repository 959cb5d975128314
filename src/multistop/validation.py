"""Quick self-contained consistency checks behind ``multistop validate``.

Each check pits a closed form against an independent numerical route
(quadrature, identity, or a frozen hand value) and reports one line.  The
full statistical oracle suite lives in the test tree; this is the fast
subset suitable for an install smoke test.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import (
    FrequencyModel,
    GIGParams,
    IGParams,
    bessel_k,
    gig_cdf,
    gig_pdf,
    ig_cdf,
    ig_partial_expectation,
    ig_pdf,
    ig_sum_params,
    _ig_pdf,
)
from .policies import (
    LDAModel,
    alp_global_model,
    alp_local_model,
    ilp_local_model,
    ILPAuxModel,
    mstar_pmf,
    pap_global_model,
    pap_local_model,
    pap_weights,
)
from .stopping import Horizon, compute_value_table, lognormal_local_model

Check = tuple[str, bool, str]


def _check(name: str, err: float, tol: float) -> Check:
    return name, err <= tol, f"max deviation {err:.3e} (tol {tol:.1e})"


def run_validation_suite() -> list[Check]:
    from scipy import integrate

    checks: list[Check] = []

    # half-integer Bessel closed form, symmetry, and hand value at p=1/2, z=1
    sym = abs(bessel_k(1.5, 2.7) - bessel_k(-1.5, 2.7))
    hand = abs(bessel_k(0.5, 1.0) - math.sqrt(math.pi / 2.0) * math.exp(-1.0))
    checks.append(_check("bessel symmetry and half-order value", max(sym, hand), 1e-12))

    # IG CDF closed form vs quadrature of the density
    params = IGParams(mu=1.3, lam=2.1)
    quad_val, _ = integrate.quad(lambda u: ig_pdf(u, params), 0.0, 1.7, limit=200)
    checks.append(_check("IG cdf vs density quadrature", abs(ig_cdf(1.7, params) - quad_val), 1e-9))

    # IG sum vs GIG(-1/2) representation on a grid
    base = IGParams(mu=1.0, lam=1.0)
    summed = ig_sum_params(2, base)
    gig = GIGParams(alpha=base.lam / base.mu**2, beta=4.0 * base.lam, p=-0.5)
    err = max(
        abs(ig_cdf(x, summed) - gig_cdf(x, gig)) for x in (0.5, 1.0, 1.7, 2.5, 4.0)
    )
    checks.append(_check("IG sum cdf vs GIG(-1/2) quadrature", err, 1e-9))

    # order shift: x * f_GIG(x; ., -1/2) == n mu * f_GIG(x; ., +1/2)
    n = 3
    gneg = GIGParams(alpha=base.lam / base.mu**2, beta=n * n * base.lam, p=-0.5)
    gpos = GIGParams(alpha=base.lam / base.mu**2, beta=n * n * base.lam, p=0.5)
    xs = np.linspace(0.2, 8.0, 25)
    err = float(
        np.max(np.abs(xs * gig_pdf(xs, gneg) - n * base.mu * gig_pdf(xs, gpos)))
    )
    checks.append(_check("density order-shift identity", err, 1e-10))

    # partial expectation vs direct quadrature
    s2 = ig_sum_params(2, base)
    direct, _ = integrate.quad(lambda u: u * ig_pdf(u, s2), 0.0, 3.0, limit=200)
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

    # crossing-index pmf partition: sum_{m* <= m} P[M* = m*] + F_{S_m}(att) = 1
    att = 3.0
    m = 5
    mass = sum(mstar_pmf(j, lda, att) for j in range(1, m + 1))
    mass += ig_cdf(att, ig_sum_params(m, lda.severity))
    checks.append(_check("crossing pmf partition identity", abs(mass - 1.0), 1e-8))

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

    # PAP: the conditioning weights partition each count's probability, and
    # the models' quadrature grids must reproduce the complementary masses.
    weights = pap_weights(lda, attachment)
    per_m = weights.dmm.sum(axis=0) + weights.dm
    errs.append(float(np.max(np.abs(per_m - mix.pm))))
    errs.append(abs(pap_local_model(lda, attachment).total_mass() - 1.0))
    pap_g = pap_global_model(lda, attachment)
    errs.append(abs(pap_g.prob_zero_gain + pap_g.continuous_mass() - 1.0))
    return float(max(errs))
