"""Quadrature oracles for closed forms that the tests check.

``upper_tail_quadrature`` integrates the IG density upward from x, never
through the closed forms under test, so it checks tails that ``1 - F``
rounds to 0.  ``crossing_pmf_quadrature`` integrates one loss's tail
against the density of the sum before it, so it checks the closed-form
crossing pmf ``F_{S_{j-1}} - F_{S_j}``.

``exact_pap_means`` gives the means of PAP's insured loss and of its
global gain from an identity, with no quadrature: partial sums rise, so the
insured loss is ``Zt = sum_{j <= N} X_j 1{S_j <= a}``, and since ``N`` is
independent of the exchangeable losses, ``E[X_j; S_j <= a] = E[S_j; S_j <=
a] / j``.

``bessel_k``, ``gig_pdf`` and ``gig_cdf`` are the general-order Generalized
Inverse Gaussian law ``GIG(alpha, beta, p)``, density proportional to
``x^(p-1) exp(-(alpha x + beta / x) / 2)``, by quadrature.  An IG sum
``IG(n mu, n^2 lam)`` is ``GIG(lam / mu^2, n^2 lam, -1/2)``, so ``gig_cdf``
checks the IG closed forms by a route that shares none of their code.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from multistop.distributions import _ig_pdf, _ig_tails, poisson_sf


def upper_tail_quadrature(x: float, mu: float, lam: float) -> float:
    """``P[X > x]`` for ``X ~ IG(mu, lam)``: the density integrated from x
    upward in growing pieces until they stop adding to the sum."""
    total, lo, step = 0.0, x, max(2.0 * mu * mu / lam, 1e-3 * x)
    for _ in range(400):
        piece, _ = integrate.quad(
            lambda u: float(_ig_pdf(u, mu, lam)), lo, lo + step, epsabs=0.0, epsrel=1e-13, limit=200
        )
        total += piece
        lo, step = lo + step, 1.5 * step
        if piece <= 1e-18 * total:
            return total
    raise AssertionError("upper tail quadrature did not settle")


def crossing_pmf_quadrature(m_star: int, mu: float, lam: float, attachment: float) -> float:
    """``P[M* = m_star]`` for IG(mu, lam) losses: ``int_0^a P[X > a - s]
    f_{S_{m*-1}}(s) ds`` by adaptive quadrature (the tail alone for m* = 1)."""
    if m_star == 1:
        return float(_ig_tails(attachment, mu, lam)[1])
    j = m_star - 1

    def integrand(s: float) -> float:
        return _ig_tails(attachment - s, mu, lam)[1] * _ig_pdf(s, j * mu, j * j * lam)

    val, _ = integrate.quad(integrand, 0.0, attachment, epsabs=1e-10, epsrel=1e-10, limit=200)
    return float(val)


def exact_pap_means(lda, attachment: float) -> tuple[float, float]:
    """``E[Zt]`` of PAP's insured loss and ``E[W]`` of its global gain,
    ``sum_j P[N >= j] E[S_j; S_j <= a] / j`` and ``sum_j P[N >= j] E[S_j; S_j > a] / j``,
    truncated at the model's own ``m_max``."""
    at = lda.mixture().tails(attachment)
    j = np.arange(1, lda.m_max + 1)
    reach = np.array([poisson_sf(i - 1, lda.frequency) for i in j.tolist()])
    return float(np.sum(reach * at.lower_mean / j)), float(np.sum(reach * at.upper_mean / j))


@dataclass(frozen=True)
class GIGParams:
    """Generalized Inverse Gaussian parameters ``(alpha, beta, p)``."""

    alpha: float
    beta: float
    p: float


def bessel_k(p: float, z: float) -> float:
    """``K_p(z)`` as ``int_0^inf exp(-z cosh t) cosh(p t) dt``, at every order."""
    ap = abs(p)

    def integrand(t: float) -> float:
        # cosh(pt) as a sum of exponentials, so huge t underflows to 0
        ch = math.cosh(t)
        e1 = ap * t - z * ch
        e2 = -ap * t - z * ch
        return 0.5 * (math.exp(e1) if e1 > -745 else 0.0) + 0.5 * (math.exp(e2) if e2 > -745 else 0.0)

    # exp(-z cosh t) decays double-exponentially; cut where it has underflowed
    t_max = 1.0
    while z * math.cosh(t_max) - ap * t_max < 750.0 and t_max < 720.0:
        t_max += 1.0
    return integrate.quad(integrand, 0.0, t_max, epsabs=1e-14, epsrel=1e-12, limit=300)[0]


def _gig_log_norm(params: GIGParams) -> float:
    """Log of the normalizer ``(alpha/beta)^(p/2) / (2 K_p(sqrt(alpha beta)))``."""
    z = math.sqrt(params.alpha * params.beta)
    return 0.5 * params.p * math.log(params.alpha / params.beta) - math.log(2.0 * bessel_k(params.p, z))


def gig_pdf(x, params: GIGParams):
    """GIG density at ``x > 0``."""
    arr = np.asarray(x, dtype=float)
    return np.exp(
        _gig_log_norm(params) + (params.p - 1.0) * np.log(arr) - 0.5 * (params.alpha * arr + params.beta / arr)
    )


def gig_cdf(x: float, params: GIGParams) -> float:
    """GIG distribution function at ``x > 0`` by adaptive quadrature in ``t = log u``,
    which removes the essential singularity of the density at the origin."""
    lognorm = _gig_log_norm(params)

    def integrand(t: float) -> float:
        # past exp's overflow range the density has underflowed
        if abs(t) > 700.0:
            return 0.0
        e = lognorm + params.p * t - 0.5 * (params.alpha * math.exp(t) + params.beta * math.exp(-t))
        return math.exp(e) if e > -745.0 else 0.0

    # split at the mode e^t = (p + sqrt(p^2 + alpha beta)) / alpha, in the
    # conjugate form for p < 0, or one quad over the half-line misses a narrow peak
    root = math.sqrt(params.p**2 + params.alpha * params.beta)
    if params.p >= 0:
        t_mode = math.log((params.p + root) / params.alpha)
    else:
        t_mode = math.log(params.beta / (root - params.p))
    t_end = math.log(x)
    val = 0.0
    for lo, hi in ((-np.inf, min(t_mode, t_end)), (t_mode, t_end)):
        if hi > lo:
            val += integrate.quad(integrand, lo, hi, epsabs=1e-10, epsrel=1e-10, limit=200)[0]
    return min(max(val, 0.0), 1.0)
