"""Inverse-Gaussian / GIG distribution kernels and special functions.

Everything downstream (policy gain models, value recursions, simulators)
is built on the primitives here:

* the Inverse Gaussian family ``IG(mu, lam)`` with density
  ``sqrt(lam / (2 pi x^3)) exp(-lam (x - mu)^2 / (2 mu^2 x))``,
  closed under convolution: a sum of ``n`` i.i.d. draws is
  ``IG(n mu, n^2 lam)``;
* the Generalized Inverse Gaussian family ``GIG(alpha, beta, p)`` with
  density proportional to ``x^(p-1) exp(-(alpha x + beta / x) / 2)``,
  normalized by the modified Bessel function of the third kind ``K_p``;
* partial (stop-loss style) expectations of IG sums, which reduce to GIG
  CDFs of order +1/2.

One kernel, ``_ig_tails``, evaluates every closed form.  For S ~ IG(M, lam)
at ``y``, with ``a = sqrt(lam/y) (y/M - 1)`` and
``e = exp(2 lam/M) Phi(-sqrt(lam/y) (y/M + 1))``, the CDF ``F`` and the
GIG(+1/2) CDF ``G`` (the lower partial mean is ``E[S; S <= y] = M G``) are

* ``F = Phi(a) + e`` and ``1 - F = Phi(-a) - e``;
* ``G = Phi(a) - e`` and ``1 - G = Phi(-a) + e``.

The kernel returns all four from one shared evaluation, each in the form
that keeps a small value to full relative precision, so survival values and
upper partial means are never taken as ``1 -`` a rounded CDF.  ``gig_cdf``
integrates the density with an exponential substitution and serves as the
independent quadrature route against which the closed forms are validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erfcx, gammaln


class NumericalError(RuntimeError):
    """Quadrature or special-function evaluation failed to converge."""


@dataclass(frozen=True)
class IGParams:
    """Inverse Gaussian parameters: ``mu`` is the mean, ``lam`` the shape."""

    mu: float
    lam: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"IG mean must be positive and finite, got {self.mu}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"IG shape must be positive and finite, got {self.lam}")

    @property
    def variance(self) -> float:
        return self.mu**3 / self.lam


@dataclass(frozen=True)
class GIGParams:
    """Generalized Inverse Gaussian parameters ``(alpha, beta, p)``."""

    alpha: float
    beta: float
    p: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"GIG alpha must be positive and finite, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"GIG beta must be positive and finite, got {self.beta}")
        if not math.isfinite(self.p):
            raise ValueError(f"GIG order must be finite, got {self.p}")


@dataclass(frozen=True)
class FrequencyModel:
    """Annual loss-count model: Poisson with mean ``rate`` events/year."""

    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"Poisson rate must be positive and finite, got {self.rate}")


# gig_cdf's quadrature: absolute and relative tolerance, subinterval limit
_GIG_ABS_TOL = 1e-10
_GIG_REL_TOL = 1e-10
_GIG_LIMIT = 200

_HALF_ORDER_TOL = 1e-12


def bessel_k(p: float, z: float) -> float:
    """Modified Bessel function of the third kind ``K_p(z)``.

    ``K_p(z) = (1/2) int_0^inf u^(p-1) exp(-z (u + 1/u) / 2) du``, evaluated
    through the equivalent ``int_0^inf exp(-z cosh t) cosh(p t) dt`` form,
    which makes the symmetry ``K_p = K_{-p}`` manifest.  Orders ``p = +-1/2``
    (the only ones the closed-form gain models need) use the elementary form
    ``sqrt(pi / (2 z)) exp(-z)``.
    """
    if not (math.isfinite(p) and math.isfinite(z)):
        raise ValueError(f"bessel_k requires finite arguments, got p={p}, z={z}")
    if z <= 0:
        raise ValueError(f"bessel_k requires z > 0, got z={z}")
    if abs(abs(p) - 0.5) < _HALF_ORDER_TOL:
        return math.sqrt(math.pi / (2.0 * z)) * math.exp(-z)
    # imported on use: scipy.integrate pulls in scipy.optimize and scipy.sparse
    from scipy import integrate

    ap = abs(p)

    def integrand(t: float) -> float:
        # cosh(pt) written as a sum of exponentials so huge t underflows to 0
        # instead of overflowing.
        ch = math.cosh(t)
        e1 = ap * t - z * ch
        e2 = -ap * t - z * ch
        return 0.5 * (math.exp(e1) if e1 > -745 else 0.0) + 0.5 * (
            math.exp(e2) if e2 > -745 else 0.0
        )

    # exp(-z cosh t) decays double-exponentially; find a safe upper cutoff.
    t_max = 1.0
    while z * math.cosh(t_max) - ap * t_max < 750.0 and t_max < 720.0:
        t_max += 1.0
    val, err = integrate.quad(integrand, 0.0, t_max, epsabs=1e-14, epsrel=1e-12, limit=300)
    if not math.isfinite(val):
        raise NumericalError(f"bessel_k({p}, {z}) quadrature returned {val}")
    return val


# -- raw vectorized kernels (validated params, array-friendly) ----------------


def _ig_pdf(x, mu, lam):
    x, mu, lam = np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(mu, dtype=float), np.asarray(lam, dtype=float)
    )
    out = np.zeros(x.shape)
    pos = (x > 0) & np.isfinite(x)
    xp, mp, lp = x[pos], mu[pos], lam[pos]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = lp / (2.0 * np.pi * xp**3)
        expo = -lp * (xp - mp) ** 2 / (2.0 * mp**2 * xp)
        # inf/inf or 0/0 where the square or mu**2 leaves the range; the
        # rearranged exponent stays in range there
        bad = np.isnan(expo)
        if bad.any():
            xb, mb = xp[bad], mp[bad]
            expo[bad] = -(lp[bad] / (2.0 * xb)) * ((xb - mb) / mb) ** 2
    with np.errstate(invalid="ignore"):  # inf * 0 where the scale overflows
        dens = np.sqrt(scale) * np.exp(expo)
    # at tiny x, x**3 underflows and the scale overflows; there the density is
    # taken in log form, which gives 0 where it underflows
    big = np.isinf(scale)
    if big.any():
        dens[big] = np.exp(0.5 * (np.log(lp[big] / (2.0 * np.pi)) - 3.0 * np.log(xp[big])) + expo[big])
    out[pos] = dens
    return out


def _ig_tails(x, mu, lam):
    """``F``, ``1 - F``, ``G`` and ``1 - G`` of IG(mu, lam) at ``x``.

    The identities are in the module docstring, where ``e = exp(2 lam/mu)
    Phi(-b)`` with ``b = sqrt(lam/x) (x/mu + 1)``.  Since ``b^2 - a^2 =
    4 lam/mu``, both ``Phi(-|a|)`` and ``e`` are ``exp(-a^2/2) / 2`` times an
    ``erfcx`` in (0, 1], so one ``exp`` and two ``erfcx`` serve all four
    outputs with no overflow.  No output is formed
    as ``1 -`` another, and the difference ``Phi(-|a|) - e`` (``1 - F`` for
    ``a >= 0``, ``G`` for ``a < 0``) is taken inside the common factor, so a
    tail far below 1e-16 keeps its relative precision.  ``x <= 0`` gives
    ``(0, 1, 0, 1)`` and ``x = inf`` ``(1, 0, 1, 0)``, exactly.
    """
    x, mu, lam = (np.asarray(v, dtype=float) for v in (x, mu, lam))
    inside = (x > 0) & (x < np.inf)
    if inside.all():
        return _ig_tails_inside(x, mu, lam)
    x, mu, lam, inside = np.broadcast_arrays(x, mu, lam, inside)
    cdf = (x == np.inf).astype(float)
    tails = (cdf, 1.0 - cdf, cdf.copy(), 1.0 - cdf)
    if inside.any():
        for out, val in zip(tails, _ig_tails_inside(x[inside], mu[inside], lam[inside])):
            out[inside] = val
    return tails


_SQRT_HALF = math.sqrt(0.5)


def _ig_tails_inside(x, mu, lam):
    s = np.sqrt(lam) / np.sqrt(x)  # split to survive subnormal x
    r = x / mu
    a = s * (r - 1.0)
    with np.errstate(over="ignore"):  # a^2 overflows at subnormal x, where g is 0
        g = 0.5 * np.exp(-0.5 * a * a)
    ca = erfcx(_SQRT_HALF * np.abs(a))
    cb = erfcx(_SQRT_HALF * s * (r + 1.0))
    small = g * ca  # Phi(-|a|)
    e = g * cb
    gap = np.maximum(g * (ca - cb), 0.0)  # Phi(-|a|) - e: erfcx falls and b > |a|
    large = 1.0 - small
    up = a >= 0.0
    cdf = np.minimum(np.where(up, large, small) + e, 1.0)
    sf = np.where(up, gap, large - e)
    gig = np.where(up, large - e, gap)
    gig_sf = np.minimum(np.where(up, small, large) + e, 1.0)
    return cdf, sf, gig, gig_sf


def _ig_cdf(x, mu, lam):
    return _ig_tails(x, mu, lam)[0]


def _gig_half_cdf(x, alpha, beta):
    """CDF of GIG(alpha, beta, +1/2): the ``G`` of IG(sqrt(beta / alpha), beta)."""
    return _ig_tails(x, np.sqrt(np.asarray(beta) / np.asarray(alpha)), beta)[2]


def _scalar_or_array(x, value):
    return value if np.ndim(x) else float(value)


# -- public operations ---------------------------------------------------------


def ig_pdf(x, params: IGParams):
    """IG density; defined on x > 0 (limits at 0+ and infinity are both 0)."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise ValueError(f"ig_pdf requires x > 0, got {x}")
    return _scalar_or_array(x, _ig_pdf(arr, params.mu, params.lam))


def _checked_tails(x, params: IGParams, name: str):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError(f"{name} requires x >= 0")
    if np.any(np.isnan(arr)):
        raise ValueError(f"{name} requires non-NaN x")
    return _ig_tails(arr, params.mu, params.lam)


def ig_cdf(x, params: IGParams):
    """IG distribution function via the normal-CDF closed form."""
    return _scalar_or_array(x, _checked_tails(x, params, "ig_cdf")[0])


def ig_sf(x, params: IGParams):
    """IG survival function ``1 - ig_cdf``, evaluated as ``Phi(-a) - e``."""
    return _scalar_or_array(x, _checked_tails(x, params, "ig_sf")[1])


def _gig_log_norm(params: GIGParams) -> float:
    """Log of the GIG normalizer ``(alpha/beta)^(p/2) / (2 K_p(sqrt(alpha beta)))``.

    Half orders take the log of the elementary form, since ``K_{1/2}(z)``
    itself underflows to 0 past ``z ~ 745``.
    """
    z = math.sqrt(params.alpha * params.beta)
    if abs(abs(params.p) - 0.5) < _HALF_ORDER_TOL:
        log_2k = math.log(2.0) + 0.5 * math.log(math.pi / (2.0 * z)) - z
    else:
        log_2k = math.log(2.0 * bessel_k(params.p, z))
    return 0.5 * params.p * math.log(params.alpha / params.beta) - log_2k


def gig_pdf(x, params: GIGParams):
    """GIG density, normalized by ``bessel_k(p, sqrt(alpha*beta))``."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("gig_pdf requires x > 0")
    lognorm = _gig_log_norm(params)
    out = np.exp(
        lognorm + (params.p - 1.0) * np.log(arr) - 0.5 * (params.alpha * arr + params.beta / arr)
    )
    return _scalar_or_array(x, out)


def gig_cdf(x: float, params: GIGParams) -> float:
    """GIG distribution function by adaptive quadrature of the density.

    The substitution ``u = exp(t)`` maps (0, x] to (-inf, log x] and removes
    the essential singularity of the integrand at the origin.
    """
    if x < 0:
        raise ValueError(f"gig_cdf requires x >= 0, got {x}")
    if x == 0:
        return 0.0
    if math.isinf(x):
        return 1.0
    from scipy import integrate

    lognorm = _gig_log_norm(params)

    def integrand(t: float) -> float:
        # for |t| past exp's overflow range the -(alpha e^t + beta e^-t)/2
        # term dominates everything else and the integrand has underflowed
        if abs(t) > 700.0:
            return 0.0
        e = lognorm + params.p * t - 0.5 * (params.alpha * math.exp(t) + params.beta * math.exp(-t))
        return math.exp(e) if e > -745.0 else 0.0

    # the density peaks at e^t = (p + sqrt(p^2 + alpha beta)) / alpha, the
    # conjugate form avoiding cancellation for p < 0; a narrow peak is missed
    # by one quad over the whole half-line, so split the range there
    root = math.sqrt(params.p**2 + params.alpha * params.beta)
    if params.p >= 0:
        t_mode = math.log((params.p + root) / params.alpha)
    else:
        t_mode = math.log(params.beta / (root - params.p))
    t_end = math.log(x)
    val = err = 0.0
    for lo, hi in ((-np.inf, min(t_mode, t_end)), (t_mode, t_end)):
        if hi > lo:
            piece, piece_err = integrate.quad(
                integrand,
                lo,
                hi,
                epsabs=_GIG_ABS_TOL,
                epsrel=_GIG_REL_TOL,
                limit=_GIG_LIMIT,
                full_output=True,
            )[:2]
            val, err = val + piece, err + piece_err
    if err > max(_GIG_ABS_TOL * 10.0, abs(val) * _GIG_REL_TOL * 10.0) and err > 1e-9:
        raise NumericalError(
            f"gig_cdf quadrature did not converge at x={x}, params={params}: "
            f"value={val}, error estimate={err}"
        )
    return float(min(max(val, 0.0), 1.0))


def ig_sum_params(n: int, params: IGParams) -> IGParams:
    """Distribution of a sum of ``n`` i.i.d. IG draws: ``IG(n mu, n^2 lam)``."""
    if n < 1:
        raise ValueError(f"ig_sum_params requires n >= 1, got {n}")
    return IGParams(mu=n * params.mu, lam=n * n * params.lam)


def ig_partial_expectation(x, n: int, params: IGParams):
    """Lower partial mean of an n-fold IG sum: ``int_0^x u f_{S_n}(u) du``.

    Equals ``n mu F_GIG(x; lam/mu^2, n^2 lam, +1/2)``: multiplying the IG sum
    density by ``u`` shifts the GIG order from -1/2 to +1/2 and contributes
    the factor ``n mu``.
    """
    if n < 1:
        raise ValueError(f"ig_partial_expectation requires n >= 1, got {n}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("ig_partial_expectation requires x >= 0")
    return _scalar_or_array(x, n * params.mu * _ig_tails(arr, n * params.mu, n * n * params.lam)[2])


def poisson_pmf(m, freq: FrequencyModel):
    """Poisson probability mass ``exp(-rate) rate^m / m!``."""
    arr = np.asarray(m)
    if np.any(arr < 0):
        raise ValueError("poisson_pmf requires m >= 0")
    out = np.exp(arr * math.log(freq.rate) - freq.rate - gammaln(arr + 1.0))
    return _scalar_or_array(m, out)


def poisson_sf(m: int, freq: FrequencyModel) -> float:
    """Upper tail ``P[N > m]`` computed from the pmf partial sum."""
    ms = np.arange(0, m + 1)
    return float(max(0.0, 1.0 - np.sum(poisson_pmf(ms, freq))))


# the count probability a truncated Poisson sum may drop
POISSON_TAIL = 1e-10


def poisson_m_max(freq: FrequencyModel) -> int:
    """Smallest count with ``P[N >= m] < POISSON_TAIL``, floored at rate + 10 sqrt(rate).

    Cutting the count at ``m`` then drops less than ``POISSON_TAIL`` of the
    probability and, since ``E[N; N > m] = rate P[N >= m]``, of the mean.
    """
    m = int(math.ceil(freq.rate + 10.0 * math.sqrt(freq.rate)))
    while poisson_sf(m - 1, freq) >= POISSON_TAIL:
        m += 1
    return m


class IGSumTails(NamedTuple):
    """``F_{S_m}(x)``, ``1 - F_{S_m}(x)``, ``E[S_m; S_m <= x]`` and ``E[S_m; S_m > x]``."""

    cdf: np.ndarray
    sf: np.ndarray
    lower_mean: np.ndarray
    upper_mean: np.ndarray


class CompoundIG:
    """Compound-Poisson IG annual aggregate as a mixture over the loss count.

    Given ``N = m`` the aggregate is the IG sum ``S_m ~ IG(m mu, m^2 lam)``.
    The weights ``p_m`` stop at ``m_max`` and are not renormalised: their
    defect is the Poisson tail ``P[N > m_max]``.  ``tails`` returns one
    entry per count ``m = 1..m_max`` along the last axis.
    """

    def __init__(self, frequency: FrequencyModel, severity: IGParams, m_max: int) -> None:
        m = np.arange(1, m_max + 1)
        self.p0 = float(poisson_pmf(0, frequency))
        self.pm = poisson_pmf(m, frequency)
        self.m_mu = m * severity.mu
        self.beta = m * m * severity.lam

    def tails(self, x) -> IGSumTails:
        """The IG-sum CDF, survival and lower and upper partial means at ``x``,
        from one evaluation of the closed form: ``E[S_m; S_m <= x] = m mu G``."""
        cdf, sf, gig, gig_sf = _ig_tails(x, self.m_mu, self.beta)
        return IGSumTails(cdf, sf, self.m_mu * gig, self.m_mu * gig_sf)


def sample_ig(params: IGParams, rng: np.random.Generator, size=None):
    """Draw from IG(mu, lam) by the Michael-Schucany-Haas transform.

    The stream is consumed as ``standard_normal(size)`` then ``uniform(size=size)``.
    """
    normal = np.asarray(rng.standard_normal(size))  # 0-d when size is None
    out = _ig_transform(params, normal, rng.uniform(size=size))
    return out if size is not None else float(out)


def _ig_transform(params: IGParams, normal: np.ndarray, uniform):
    """Michael-Schucany-Haas: IG(mu, lam) draws from standard normals and uniforms.

    ``normal`` is squared in place, so the transform holds no more arrays
    alive than a fresh draw squared on the spot would.
    """
    y = np.square(normal, out=normal)
    mu, lam = params.mu, params.lam
    x = mu + mu**2 * y / (2.0 * lam) - (mu / (2.0 * lam)) * np.sqrt(
        4.0 * mu * lam * y + mu**2 * y**2
    )
    # numerical guard: the smaller root can round to 0 for extreme normals
    x = np.maximum(x, np.finfo(float).tiny)
    return np.where(uniform <= mu / (mu + x), x, mu**2 / x)
