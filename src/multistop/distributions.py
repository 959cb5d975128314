"""Inverse-Gaussian, Poisson and compound-Poisson kernels.

Everything downstream (policy gain models, value recursions, simulators)
is built on the primitives here:

* the Inverse Gaussian family ``IG(mu, lam)`` with density
  ``sqrt(lam / (2 pi x^3)) exp(-lam (x - mu)^2 / (2 mu^2 x))``,
  closed under convolution: a sum of ``n`` i.i.d. draws is
  ``IG(n mu, n^2 lam)``;
* partial (stop-loss style) expectations of IG sums, which reduce to CDFs
  of the Generalized Inverse Gaussian law of order +1/2, where the Bessel
  normalizer is elementary;
* the Poisson loss count and the compound-Poisson IG aggregate.

One kernel, ``_ig_tails``, evaluates every closed form.  For S ~ IG(M, lam)
at ``y``, with ``a = sqrt(lam/y) (y/M - 1)`` and
``e = exp(2 lam/M) Phi(-sqrt(lam/y) (y/M + 1))``, the CDF ``F`` and the
GIG(+1/2) CDF ``G`` (the lower partial mean is ``E[S; S <= y] = M G``) are

* ``F = Phi(a) + e`` and ``1 - F = Phi(-a) - e``;
* ``G = Phi(a) - e`` and ``1 - G = Phi(-a) + e``.

The kernel returns all four from one shared evaluation, each in the form
that keeps a small value to full relative precision, so survival values and
upper partial means are never taken as ``1 -`` a rounded CDF.  A caller that
reads only ``(F, G)`` or ``(1 - F, 1 - G)`` takes ``_ig_lower`` or
``_ig_upper``, which form just that pair, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erfcx, gammaln


class NumericalError(RuntimeError):
    """A numerical evaluation failed: a gain model raised inside the value
    recursion, or a consistency check did not hold."""


class ConfigError(ValueError):
    """Invalid model/policy configuration."""


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
class FrequencyModel:
    """Annual loss-count model: Poisson with mean ``rate`` events/year."""

    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"Poisson rate must be positive and finite, got {self.rate}")


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
    return _tails(x, mu, lam, _all_four)


def _ig_lower(x, mu, lam):
    """``F`` and ``G`` of :func:`_ig_tails`, bit for bit, and only those."""
    return _tails(x, mu, lam, _lower)


def _ig_upper(x, mu, lam):
    """``1 - F`` and ``1 - G`` of :func:`_ig_tails`, bit for bit, and only those."""
    return _tails(x, mu, lam, _upper)


def _tails(x, mu, lam, finish):
    # the outputs ``finish`` forms from the shared terms of _ig_terms; at
    # x <= 0 and x = inf it takes their limits, Phi(-|a|) = e = 0 with the
    # sign of a that of x, which give the ends exactly
    x, mu, lam = (np.asarray(v, dtype=float) for v in (x, mu, lam))
    inside = (x > 0) & (x < np.inf)
    if inside.all():
        return finish(*_ig_terms(x, mu, lam))
    x, mu, lam, inside = np.broadcast_arrays(x, mu, lam, inside)
    zero = np.zeros(x.shape)
    tails = finish(x == np.inf, zero, zero, zero, np.ones(x.shape))
    if inside.any():
        for out, val in zip(tails, finish(*_ig_terms(x[inside], mu[inside], lam[inside]))):
            out[inside] = val
    return tails


_SQRT_HALF = math.sqrt(0.5)


def _ig_terms(x, mu, lam):
    """The shared terms of the four tails inside (0, inf): the sign mask
    ``a >= 0``, ``Phi(-|a|)``, ``e``, ``Phi(-|a|) - e`` and ``1 - Phi(-|a|)``."""
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
    return a >= 0.0, small, e, gap, 1.0 - small


def _lower(up, small, e, gap, large):
    cdf = np.minimum(np.where(up, large, small) + e, 1.0)
    gig = np.where(up, large - e, gap)
    return cdf, gig


def _upper(up, small, e, gap, large):
    sf = np.where(up, gap, large - e)
    gig_sf = np.minimum(np.where(up, small, large) + e, 1.0)
    return sf, gig_sf


def _all_four(*terms):
    (cdf, gig), (sf, gig_sf) = _lower(*terms), _upper(*terms)
    return cdf, sf, gig, gig_sf


def _ig_cdf(x, mu, lam):
    return _ig_tails(x, mu, lam)[0]


def _scalar_or_array(x, value):
    return value if np.ndim(x) else float(value)


# -- public operations ---------------------------------------------------------


def ig_pdf(x, params: IGParams):
    """IG density; defined on x > 0 (limits at 0+ and infinity are both 0)."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise ValueError(f"ig_pdf requires x > 0, got {x}")
    if np.any(np.isnan(arr)):
        raise ValueError("ig_pdf requires non-NaN x")
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
    tails = _checked_tails(x, ig_sum_params(n, params), "ig_partial_expectation")
    return _scalar_or_array(x, n * params.mu * tails[2])


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

    def lower(self, x) -> tuple[np.ndarray, np.ndarray]:
        """``F_{S_m}(x)`` and ``E[S_m; S_m <= x]`` alone: ``cdf`` and
        ``lower_mean`` of :meth:`tails`, bit for bit."""
        cdf, gig = _ig_lower(x, self.m_mu, self.beta)
        return cdf, self.m_mu * gig

    def upper(self, x) -> tuple[np.ndarray, np.ndarray]:
        """``1 - F_{S_m}(x)`` and ``E[S_m; S_m > x]`` alone: ``sf`` and
        ``upper_mean`` of :meth:`tails`, bit for bit."""
        sf, gig_sf = _ig_upper(x, self.m_mu, self.beta)
        return sf, self.m_mu * gig_sf


def sample_ig(params: IGParams, rng: np.random.Generator, size=None):
    """Draw from IG(mu, lam) by the Michael-Schucany-Haas transform.

    The stream is consumed as ``standard_normal(size)`` then ``uniform(size=size)``.
    """
    normal = np.asarray(rng.standard_normal(size))  # 0-d when size is None
    out = _ig_transform(params, normal, rng.uniform(size=size))
    return out if size is not None else float(out)


def _ig_transform(params: IGParams, normal: np.ndarray, uniform):
    """Michael-Schucany-Haas: IG(mu, lam) draws from standard normals and uniforms.

    With ``y = normal**2`` the draw is the smaller root
    ``x = mu + mu**2 y / (2 lam) - (mu / (2 lam)) sqrt(4 mu lam y + mu**2 y**2)``,
    kept where ``uniform <= mu / (mu + x)`` and replaced by ``mu**2 / x``
    elsewhere.  The steps below are those operations in that order, done in
    place: ``normal`` is overwritten, and two arrays and a mask besides the
    result are formed.
    """
    mu, lam = params.mu, params.lam
    y = np.square(normal, out=normal)
    x = np.multiply(y, mu**2, out=np.empty_like(y))
    x /= 2.0 * lam
    x += mu
    root = np.square(y, out=np.empty_like(y))
    root *= mu**2
    y *= 4.0 * mu * lam
    root += y
    np.sqrt(root, out=root)
    root *= mu / (2.0 * lam)
    x -= root
    # numerical guard: the smaller root can round to 0 for extreme normals
    np.maximum(x, np.finfo(float).tiny, out=x)
    np.add(x, mu, out=root)
    keep = np.less_equal(uniform, np.divide(mu, root, out=root))
    return np.where(keep, x, np.divide(mu**2, x, out=root))
