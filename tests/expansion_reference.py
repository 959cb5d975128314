"""Frozen hand-expanded Laguerre polynomials, positivity checks and refit.

These are ``laguerre``, ``_laguerre_deriv``, ``positivity_boundary`` and
``_bracket_positivity`` of ``multistop.expansion`` as they stood before the
polynomials came from one coefficient rule and the positivity verdict from
the roots of the bracket's derivative: the polynomials written out by hand,
the boundary solved one grid point at a time, and the bracket sampled on a
4001-point grid with a Brent refinement from every sampled local minimum.
They are the bit-identity references for the first three and the accuracy
reference for the fourth.

``reference_exact_positivity`` and ``reference_constrained_refit`` are the
root-based verdict and the boundary refit as they stood before the verdict
was batched over rows: one ``polyroots`` call per verdict, and the scan and
both bisections judged one curve point at a time.  They are the bit-identity
references for ``_bracket_positivity`` and ``constrained_refit``.

Do not optimise any of them.
"""

import numpy as np
from scipy.optimize import minimize_scalar

from multistop.expansion import (
    POSITIVITY_TOL,
    MomentSet,
    PositivityCurve,
    PositivityResult,
    _coeffs,
    default_scan_limit,
)


def reference_laguerre(n, a, u):
    u = np.asarray(u, dtype=float)
    if n == 0:
        out = np.ones_like(u)
    elif n == 1:
        out = u - a
    elif n == 2:
        out = u**2 - 2 * (a + 1) * u + (a + 1) * a
    elif n == 3:
        out = u**3 - 3 * (a + 2) * u**2 + 3 * (a + 2) * (a + 1) * u - (a + 2) * (a + 1) * a
    else:
        out = (
            u**4
            - 4 * (a + 3) * u**3
            + 6 * (a + 3) * (a + 2) * u**2
            - 4 * (a + 3) * (a + 2) * (a + 1) * u
            + (a + 3) * (a + 2) * (a + 1) * a
        )
    return out if out.ndim else float(out)


def reference_laguerre_deriv(n, a, u):
    u = np.asarray(u, dtype=float)
    if n == 3:
        out = 3 * u**2 - 6 * (a + 2) * u + 3 * (a + 2) * (a + 1)
    else:
        out = 4 * u**3 - 12 * (a + 3) * u**2 + 12 * (a + 3) * (a + 2) * u - 4 * (a + 3) * (
            a + 2
        ) * (a + 1)
    return out if out.ndim else float(out)


def _reference_beta_system(a, u):
    c3, c4, _, _ = _coeffs(a)
    l3, l4 = reference_laguerre(3, a, u), reference_laguerre(4, a, u)
    d3, d4 = reference_laguerre_deriv(3, a, u), reference_laguerre_deriv(4, a, u)
    b1 = c3 * l3 - 12.0 * c4 * l4
    b2 = c4 * l4
    b3 = 1.0 - 2.0 * a * c3 * l3 + (18.0 * a - 3.0 * a * a) * c4 * l4
    b1p = c3 * d3 - 12.0 * c4 * d4
    b2p = c4 * d4
    b3p = -2.0 * a * c3 * d3 + (18.0 * a - 3.0 * a * a) * c4 * d4
    return b1, b2, b3, b1p, b2p, b3p


def reference_positivity_boundary(a, u_grid):
    us, m3s, m4s, skipped = [], [], [], []
    for u in np.asarray(u_grid, dtype=float):
        if u <= 0:
            raise ValueError(f"boundary grid values must be positive, got {u}")
        b1, b2, b3, b1p, b2p, b3p = _reference_beta_system(a, u)
        if abs(b1) < 1e-14:
            skipped.append(float(u))
            continue
        denom = b2p - b1p * b2 / b1
        if abs(denom) < 1e-14:
            skipped.append(float(u))
            continue
        mu4 = (b1p * b3 / b1 - b3p) / denom
        mu3 = -(mu4 * b2 + b3) / b1
        us.append(float(u))
        m3s.append(float(mu3))
        m4s.append(float(mu4))
    return PositivityCurve(
        u=np.array(us), mu3=np.array(m3s), mu4=np.array(m4s), skipped=tuple(skipped)
    )


def reference_bracket_positivity(a, a3, a4, u_max):
    def bracket(u):
        return 1.0 + a3 * reference_laguerre(3, a, u) + a4 * reference_laguerre(4, a, u)

    lead = a4
    cubic = a3 - 4.0 * (a + 3.0) * a4
    if lead < -POSITIVITY_TOL or (abs(lead) <= POSITIVITY_TOL and cubic < -POSITIVITY_TOL):
        u_far = max(2.0 * u_max, 10.0)
        while bracket(u_far) >= 0.0:
            u_far *= 2.0
        return PositivityResult(False, u_violation=u_far, min_value=float(bracket(u_far)))

    if a3 == 0.0 and a4 == 0.0:
        return PositivityResult(True, min_value=1.0)
    grid = np.linspace(0.0, u_max, 4001)
    vals = bracket(grid)
    best_val = float(np.min(vals))
    best_u = float(grid[int(np.argmin(vals))])
    strict = np.nonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:]))[0] + 1
    for idx in strict:
        res = minimize_scalar(
            lambda u: float(bracket(u)),
            bracket=(grid[idx - 1], grid[idx], grid[idx + 1]),
            method="brent",
        )
        if res.fun < best_val:
            best_val, best_u = float(res.fun), float(res.x)
    if best_val < -POSITIVITY_TOL:
        return PositivityResult(False, u_violation=best_u, min_value=best_val)
    return PositivityResult(True, min_value=best_val)



def _reference_bracket(a, a3, a4, u):
    return 1.0 + a3 * reference_laguerre(3, a, u) + a4 * reference_laguerre(4, a, u)


def _reference_fit_coefficients(a, mu3, mu4):
    c3, c4, _, _ = _coeffs(a)
    return c3 * (mu3 - 2.0 * a), c4 * (mu4 - 12.0 * mu3 - 3.0 * a * a + 18.0 * a)


def reference_exact_positivity(a, a3, a4, u_max):
    cubic = a3 - 4.0 * (a + 3.0) * a4
    if a4 < -POSITIVITY_TOL or (abs(a4) <= POSITIVITY_TOL and cubic < -POSITIVITY_TOL):
        u_far = max(2.0 * u_max, 10.0)
        while (far := _reference_bracket(a, a3, a4, u_far)) >= 0.0:
            u_far *= 2.0
        return PositivityResult(False, u_violation=u_far, min_value=float(far))

    # highest power first: the derivatives of L4 and L3 written out by hand
    slope = a4 * np.array(
        [4, -12 * (a + 3), 12 * (a + 3) * (a + 2), -4 * (a + 3) * (a + 2) * (a + 1)]
    )
    slope[1:] += a3 * np.array([3, -6 * (a + 2), 3 * (a + 2) * (a + 1)])
    roots = np.polynomial.polynomial.polyroots(slope[::-1]).real
    cand = np.concatenate(([0.0, u_max], roots[(roots > 0.0) & (roots < u_max)]))
    vals = _reference_bracket(a, a3, a4, cand)
    i = int(np.argmin(vals))
    best_val, best_u = float(vals[i]), float(cand[i])
    if best_val < -POSITIVITY_TOL:
        return PositivityResult(False, u_violation=best_u, min_value=best_val)
    return PositivityResult(True, min_value=best_val)


def reference_curve_point_admissible(a, u):
    curve = reference_positivity_boundary(a, [u])
    if curve.u.size == 0:
        return False
    a3, a4 = _reference_fit_coefficients(a, float(curve.mu3[0]), float(curve.mu4[0]))
    res = reference_exact_positivity(a, a3, a4, default_scan_limit(a))
    return res.positive or res.min_value > -1e-8


def reference_constrained_refit(moments):
    """``(segment, u_at_projection, projected moments, their positivity)``."""
    a = moments.mean**2 / moments.variance
    u_hi = default_scan_limit(a)
    us = np.linspace(u_hi / 400, u_hi, 400)
    flags = np.array([reference_curve_point_admissible(a, float(u)) for u in us])
    if not flags.any():
        raise ValueError("no admissible boundary segment found; widen the scan")

    def refine(u_ok, u_bad):
        for _ in range(40):
            mid = 0.5 * (u_ok + u_bad)
            if reference_curve_point_admissible(a, mid):
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

    curve = reference_positivity_boundary(a, np.linspace(lo, hi, 800))
    physical = curve.mu4 > 0
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
    a3, a4 = _reference_fit_coefficients(a, projected.mu3, projected.mu4)
    positivity = reference_exact_positivity(a, a3, a4, u_hi)
    return (lo, hi), float(us[j]), projected, positivity
