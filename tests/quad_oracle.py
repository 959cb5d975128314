"""Quadrature oracle for IG survival values far below 1e-16.

The density is integrated upward from x, never through the closed forms
under test, so it checks tails that ``1 - F`` rounds to 0.
"""

from scipy import integrate

from multistop.distributions import _ig_pdf


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
