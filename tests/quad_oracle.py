"""Quadrature oracles for closed forms that the tests check.

``upper_tail_quadrature`` integrates the IG density upward from x, never
through the closed forms under test, so it checks tails that ``1 - F``
rounds to 0.  ``crossing_pmf_quadrature`` integrates one loss's tail
against the density of the sum before it, so it checks the closed-form
crossing pmf ``F_{S_{j-1}} - F_{S_j}``.
"""

from scipy import integrate

from multistop.distributions import _ig_pdf, _ig_tails


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
