"""Gamma-kernel Laguerre expansion of an unknown insured-loss density.

When a policy/severity combination admits no closed-form law, the insured
loss ``Zt`` is rescaled to ``U = b Zt`` with ``b = E/Var`` and ``a = E^2/Var``
so that ``E[U] = Var[U] = a``, and the density of ``U`` is expanded on the
Gamma(a, 1) kernel ``g(u; a)``:

    f_U(u) = g(u; a) [1 + A3 L3(u) + A4 L4(u)],

with Laguerre polynomials orthogonal under ``g`` and coefficients matched to
the third and fourth central moments.  The truncation can dip negative for
some moment pairs; the admissible region in the ``(mu3, mu4)`` plane is
bounded by the curve along which the bracketed factor has a double root, and
out-of-region moment pairs can be projected back onto that curve.

The expansion also yields closed-form lower partial expectations (sums of
Gamma CDFs), which is exactly what the stopping engine needs, so a fitted
expansion can drive the value recursion directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammainc, gammaincinv, gammaln

from .stopping import StopLossGain

_KERNEL_MASS_TAIL = 1e-12
POSITIVITY_TOL = 1e-12


@dataclass(frozen=True)
class MomentSet:
    """First four moments driving a fit.

    ``mean`` and ``variance`` are moments of the insured loss itself; ``mu3``
    and ``mu4`` are the *central* third and fourth moments of the rescaled
    variable ``U = (mean / variance) * Zt``.
    """

    mean: float
    variance: float
    mu3: float
    mu4: float

    def __post_init__(self) -> None:
        if not (self.mean > 0 and math.isfinite(self.mean)):
            raise ValueError(f"mean must be positive, got {self.mean}")
        if not (self.variance > 0 and math.isfinite(self.variance)):
            raise ValueError(f"variance must be positive, got {self.variance}")
        if not (self.mu4 > 0 and math.isfinite(self.mu4)):
            raise ValueError(f"mu4 must be positive, got {self.mu4}")

    @classmethod
    def from_loss_moments(cls, mean: float, variance: float, mu3: float, mu4: float) -> "MomentSet":
        """Build from central moments of the loss itself (rescales mu3, mu4)."""
        b = mean / variance
        return cls(mean=mean, variance=variance, mu3=b**3 * mu3, mu4=b**4 * mu4)

    @classmethod
    def from_sample(cls, draws: np.ndarray) -> "MomentSet":
        draws = np.asarray(draws, dtype=float)
        mean = float(draws.mean())
        centered = draws - mean
        variance = float(np.mean(centered**2))
        return cls.from_loss_moments(
            mean, variance, float(np.mean(centered**3)), float(np.mean(centered**4))
        )


def compound_poisson_loss_moments(rate: float, raw_moments: Sequence[float]):
    """(mean, variance, mu3, mu4) of a compound Poisson sum from severity raw
    moments; cumulants of the compound are ``rate * raw_moment``."""
    k1, k2, k3, k4 = (rate * raw_moments[j] for j in range(4))
    return k1, k2, k3, k4 + 3.0 * k2**2


def lognormal_raw_moments(mu: float, sigma: float):
    return [math.exp(j * mu + 0.5 * j * j * sigma * sigma) for j in (1, 2, 3, 4)]


def _laguerre_coeffs(n: int, a: float, deriv: bool = False) -> list:
    """Power-basis coefficients of ``L_n``, or of its derivative, highest first:
    ``c_j = (-1)^(n-j) C(n, j) (a+n-1)(a+n-2)...(a+j)``, times ``j`` for the
    derivative."""
    return [
        (-1) ** (n - j)
        * math.prod([math.comb(n, j) * (j if deriv else 1), *(a + i for i in range(n - 1, j - 1, -1))])
        for j in range(n, int(deriv) - 1, -1)
    ]


def _laguerre_sum(n: int, a: float, u, deriv: bool = False):
    # sum(c_j u**j) from the highest power down, in the order of the
    # hand-expanded polynomials, so every value keeps their bits
    u = np.asarray(u, dtype=float)
    c = _laguerre_coeffs(n, a, deriv)
    terms = [cj * u ** (len(c) - 1 - k) for k, cj in enumerate(c)]
    out = sum(terms[1:], terms[0])
    return out if out.ndim else float(out)


def laguerre(n: int, a: float, u):
    """Laguerre polynomial ``L_n`` (orthogonal under the Gamma(a,1) kernel),
    in the monic-leading-term convention ``L_n = n! (-1)^n Ltilde_n^(a-1)``."""
    if not (0 <= n <= 4):
        raise ValueError(f"laguerre supports orders 0..4, got {n}")
    return _laguerre_sum(n, a, u)


def _laguerre_deriv(n: int, a: float, u):
    if n not in (3, 4):
        raise ValueError(f"derivative only needed for orders 3 and 4, got {n}")
    return _laguerre_sum(n, a, u, deriv=True)


def _bracket(a: float, a3: float, a4: float, u):
    """The polynomial factor ``1 + A3 L3 + A4 L4`` multiplying the kernel."""
    return 1.0 + a3 * laguerre(3, a, u) + a4 * laguerre(4, a, u)


def _gamma_pdf(u, shape: float):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp((shape - 1.0) * np.log(u[pos]) - u[pos] - gammaln(shape))
    return out


@dataclass(frozen=True)
class PositivityResult:
    positive: bool
    u_violation: float | None = None
    min_value: float = math.inf

    def __bool__(self) -> bool:
        return self.positive


@dataclass(frozen=True)
class ExpansionFit:
    """Fitted Gamma-Laguerre expansion state."""

    a: float
    b: float
    a3: float
    a4: float
    astar: np.ndarray  # 5 Gamma-mixture coefficients (include the b jacobian)
    positivity: PositivityResult
    moments: MomentSet

    def bracket(self, u):
        """The polynomial factor ``1 + A3 L3 + A4 L4`` multiplying the kernel."""
        return _bracket(self.a, self.a3, self.a4, u)


def _coeffs(a: float) -> tuple[float, float, float, float]:
    g3 = math.exp(gammaln(a + 3) - gammaln(a))
    g4 = math.exp(gammaln(a + 4) - gammaln(a))
    return 1.0 / (6.0 * g3), 1.0 / (24.0 * g4), g3, g4


def default_scan_limit(a: float) -> float:
    """Upper end of the positivity scan: the 1 - 1e-12 kernel quantile + 50%."""
    return 1.5 * float(gammaincinv(a, 1.0 - _KERNEL_MASS_TAIL))


def _fit_coefficients(a: float, mu3: float, mu4: float) -> tuple[float, float]:
    c3, c4, _, _ = _coeffs(a)
    a3 = c3 * (mu3 - 2.0 * a)
    a4 = c4 * (mu4 - 12.0 * mu3 - 3.0 * a * a + 18.0 * a)
    return a3, a4


def fit_expansion(moments: MomentSet) -> ExpansionFit:
    """Match the first four moments and record the positivity verdict."""
    a = moments.mean**2 / moments.variance
    b = moments.mean / moments.variance
    _, _, g3, g4 = _coeffs(a)
    a3, a4 = _fit_coefficients(a, moments.mu3, moments.mu4)
    astar = b * np.array(
        [
            1.0 - g3 * a3 + g4 * a4,
            3.0 * g3 * a3 - 4.0 * g4 * a4,
            -3.0 * g3 * a3 + 6.0 * g4 * a4,
            g3 * a3 - 4.0 * g4 * a4,
            g4 * a4,
        ]
    )
    verdict = _bracket_positivity(a, a3, a4, default_scan_limit(a))
    return ExpansionFit(
        a=a, b=b, a3=a3, a4=a4, astar=astar, positivity=verdict, moments=moments
    )


def approx_pdf(fit: ExpansionFit, z):
    """Expanded density of the insured loss at ``z`` (u = b z internally)."""
    u = fit.b * np.asarray(z, dtype=float)
    out = fit.b * _gamma_pdf(u, fit.a) * fit.bracket(u)
    return out if out.ndim else float(out)


def _bracket_positivity(a: float, a3: float, a4: float, u_max: float) -> PositivityResult:
    # The bracket is a quartic in u; a negative leading coefficient means the
    # density is eventually negative no matter how wide the scan window is.
    cubic = a3 - 4.0 * (a + 3.0) * a4
    if a4 < -POSITIVITY_TOL or (abs(a4) <= POSITIVITY_TOL and cubic < -POSITIVITY_TOL):
        u_far = max(2.0 * u_max, 10.0)
        while (far := _bracket(a, a3, a4, u_far)) >= 0.0:
            u_far *= 2.0
        return PositivityResult(False, u_violation=u_far, min_value=float(far))

    # the minimum on [0, u_max] sits at an end or at a real critical point;
    # the real part of every root inside the window is a point worth trying
    slope = a4 * np.array(_laguerre_coeffs(4, a, deriv=True))
    slope[1:] += a3 * np.array(_laguerre_coeffs(3, a, deriv=True))
    roots = np.polynomial.polynomial.polyroots(slope[::-1]).real
    cand = np.concatenate(([0.0, u_max], roots[(roots > 0.0) & (roots < u_max)]))
    vals = _bracket(a, a3, a4, cand)
    i = int(np.argmin(vals))
    best_val, best_u = float(vals[i]), float(cand[i])
    if best_val < -POSITIVITY_TOL:
        return PositivityResult(False, u_violation=best_u, min_value=best_val)
    return PositivityResult(True, min_value=best_val)


def positivity_check(fit: ExpansionFit, u_max: float) -> PositivityResult:
    """Exact minimum of the quartic bracket factor over [0, u_max].

    It is taken at the window's ends and at the real roots of the bracket's
    derivative; see :func:`default_scan_limit` for the fitter's own window.
    """
    return _bracket_positivity(fit.a, fit.a3, fit.a4, u_max)


@dataclass(frozen=True)
class PositivityCurve:
    """Sampled double-root locus bounding the positivity region."""

    u: np.ndarray
    mu3: np.ndarray
    mu4: np.ndarray
    skipped: tuple[float, ...] = ()


def _beta_system(a: float, u):
    """Coefficients of the linear system ``mu3 B1 + mu4 B2 + B3 = 0`` and its
    u-derivative, with the common Gamma-kernel factor divided out (it cancels
    row-by-row after eliminating the kernel's log-derivative)."""
    c3, c4, _, _ = _coeffs(a)
    l3, l4 = laguerre(3, a, u), laguerre(4, a, u)
    d3, d4 = _laguerre_deriv(3, a, u), _laguerre_deriv(4, a, u)
    b1 = c3 * l3 - 12.0 * c4 * l4
    b2 = c4 * l4
    b3 = 1.0 - 2.0 * a * c3 * l3 + (18.0 * a - 3.0 * a * a) * c4 * l4
    b1p = c3 * d3 - 12.0 * c4 * d4
    b2p = c4 * d4
    b3p = -2.0 * a * c3 * d3 + (18.0 * a - 3.0 * a * a) * c4 * d4
    return b1, b2, b3, b1p, b2p, b3p


def b_system(a: float, u: float):
    """The dressed boundary system coefficients (kernel factor included)."""
    g = float(_gamma_pdf(np.asarray([u]), a)[0])
    kappa = (a - 1.0) / u - 1.0
    b1, b2, b3, b1p, b2p, b3p = _beta_system(a, u)
    return (
        g * b1,
        g * b2,
        g * b3,
        g * (kappa * b1 + b1p),
        g * (kappa * b2 + b2p),
        g * (kappa * b3 + b3p),
    )


def positivity_boundary(a: float, u_grid) -> PositivityCurve:
    """Moment pairs ``(mu3(u), mu4(u))`` whose expansion has a double root at u.

    Grid points where the linear system degenerates are flagged and skipped.
    """
    u = np.asarray(u_grid, dtype=float).ravel()
    if (u <= 0).any():
        raise ValueError(f"boundary grid values must be positive, got {u[u <= 0][0]}")
    b1, b2, b3, b1p, b2p, b3p = _beta_system(a, u)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = b2p - b1p * b2 / b1
        mu4 = (b1p * b3 / b1 - b3p) / denom
        mu3 = -(mu4 * b2 + b3) / b1
    bad = (np.abs(b1) < 1e-14) | (np.abs(denom) < 1e-14)
    return PositivityCurve(
        u=u[~bad], mu3=mu3[~bad], mu4=mu4[~bad], skipped=tuple(u[bad].tolist())
    )


def approx_expected_min(fit: ExpansionFit, c1: float, c2: float) -> float:
    """``E[min{c1 + Zt, c2}]`` under the fitted density, for 0 <= c1 <= c2.

    Splitting at ``Zt = c2 - c1`` reduces every piece to Gamma CDFs: the
    expansion is a signed Gamma mixture and ``u f(u; s) = s f(u; s+1)``
    shifts each shape up by one in the partial-mean term.
    """
    if c1 > c2:
        raise ValueError(f"need c1 <= c2, got ({c1}, {c2})")
    if c1 < 0 or c2 < 0:
        raise ValueError(f"need nonnegative thresholds, got ({c1}, {c2})")
    mean = fit.a / fit.b
    if math.isinf(c2):
        return c1 + mean
    return float(_expected_min(fit, c1, np.array([c2]))[0])


def _expected_min(fit: ExpansionFit, c1: float, c2: np.ndarray) -> np.ndarray:
    """:func:`approx_expected_min` for each finite entry of ``c2``, unchecked."""
    shapes = fit.a + np.arange(5.0)
    x = fit.b * (c2 - c1)[:, None]
    f_here = gammainc(shapes, x)
    f_up = gammainc(shapes + 1.0, x)
    partial = np.sum(fit.astar * shapes * f_up, axis=1) / fit.b**2
    low = c1 * np.sum(fit.astar * f_here, axis=1) / fit.b
    high = c2 * np.sum(fit.astar * (1.0 - f_here), axis=1) / fit.b
    return partial + low + high


class ExpansionLocalGain(StopLossGain):
    """Local-objective gain model driven by a fitted expansion (W = -Zt)."""

    def __init__(self, fit: ExpansionFit) -> None:
        self.fit = fit
        super().__init__(-fit.a / fit.b)

    def stop_loss(self, delta: np.ndarray) -> np.ndarray:
        # E[(d - Zt)+] = d - E[min{Zt, d}] at d = -delta
        return -delta - _expected_min(self.fit, 0.0, -delta)


def expansion_local_gain_model(fit: ExpansionFit) -> ExpansionLocalGain:
    return ExpansionLocalGain(fit)


class GammaLocalGain(StopLossGain):
    """Exact reference model for Gamma(shape, rate) insured losses, W = -Zt."""

    def __init__(self, shape: float, rate: float) -> None:
        if shape <= 0 or rate <= 0:
            raise ValueError(f"need positive shape and rate, got ({shape}, {rate})")
        self.shape = shape
        self.rate = rate
        super().__init__(-shape / rate)

    def stop_loss(self, delta: np.ndarray) -> np.ndarray:
        # E[(d - Zt)+] = d F(d) - E[Zt; Zt <= d] at d = -delta
        d = -delta
        x = self.rate * d
        partial = (self.shape / self.rate) * gammainc(self.shape + 1.0, x)
        return d * gammainc(self.shape, x) - partial


def gamma_local_model(shape: float, rate: float) -> GammaLocalGain:
    return GammaLocalGain(shape, rate)


@dataclass(frozen=True)
class RefitResult:
    moments: MomentSet
    fit: ExpansionFit
    u_at_projection: float
    segment: tuple[float, float]


def _curve_point_admissible(a: float, u: float) -> bool:
    curve = positivity_boundary(a, [u])
    if curve.u.size == 0:
        return False
    a3, a4 = _fit_coefficients(a, float(curve.mu3[0]), float(curve.mu4[0]))
    # boundary densities touch zero at their double root; tolerate that dip
    res = _bracket_positivity(a, a3, a4, default_scan_limit(a))
    return res.positive or res.min_value > -1e-8


def constrained_refit(moments: MomentSet, n_scan: int = 400) -> RefitResult:
    """Project out-of-region moments onto the admissible boundary segment.

    The double-root curve is scanned in ``u``; the admissible segment (where
    the boundary density is nonnegative everywhere) is bracketed by bisection
    on the scan verdict, and the projection minimizes Euclidean distance in
    per-coordinate-scaled ``(mu3, mu4)`` units.
    """
    a = moments.mean**2 / moments.variance
    u_hi = default_scan_limit(a)
    us = np.linspace(u_hi / n_scan, u_hi, n_scan)
    flags = np.array([_curve_point_admissible(a, float(u)) for u in us])
    if not flags.any():
        raise ValueError("no admissible boundary segment found; widen the scan")

    def refine(u_ok: float, u_bad: float) -> float:
        for _ in range(40):
            mid = 0.5 * (u_ok + u_bad)
            if _curve_point_admissible(a, mid):
                u_ok = mid
            else:
                u_bad = mid
        return u_ok

    ok_idx = np.nonzero(flags)[0]
    lo = float(us[ok_idx[0]])
    hi = float(us[ok_idx[-1]])
    if ok_idx[0] > 0:
        lo = refine(lo, float(us[ok_idx[0] - 1]))
    if ok_idx[-1] < len(us) - 1:
        hi = refine(hi, float(us[ok_idx[-1] + 1]))

    seg_u = np.linspace(lo, hi, max(2 * n_scan, 100))
    curve = positivity_boundary(a, seg_u)
    physical = curve.mu4 > 0  # the solved system can leave the moment cone
    if not physical.any():
        raise ValueError("admissible boundary segment has no physical moment pairs")
    mu3s, mu4s, us = curve.mu3[physical], curve.mu4[physical], curve.u[physical]
    s3 = max(float(np.std(mu3s)), 1e-12)
    s4 = max(float(np.std(mu4s)), 1e-12)
    dist = ((mu3s - moments.mu3) / s3) ** 2 + ((mu4s - moments.mu4) / s4) ** 2
    j = int(np.argmin(dist))
    projected = MomentSet(
        mean=moments.mean, variance=moments.variance, mu3=float(mu3s[j]), mu4=float(mu4s[j])
    )
    return RefitResult(
        moments=projected,
        fit=fit_expansion(projected),
        u_at_projection=float(us[j]),
        segment=(lo, hi),
    )
