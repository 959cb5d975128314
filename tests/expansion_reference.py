"""Frozen hand-expanded Laguerre polynomials and grid-scan positivity check.

These are ``laguerre``, ``_laguerre_deriv``, ``positivity_boundary`` and
``_bracket_positivity`` of ``multistop.expansion`` as they stood before the
polynomials came from one coefficient rule and the positivity verdict from
the roots of the bracket's derivative: the polynomials written out by hand,
the boundary solved one grid point at a time, and the bracket sampled on a
4001-point grid with a Brent refinement from every sampled local minimum.
They are the bit-identity references for the first three and the accuracy
reference for the fourth.  Do not optimise them.
"""

import numpy as np
from scipy.optimize import minimize_scalar

from multistop.expansion import POSITIVITY_TOL, PositivityCurve, PositivityResult, _coeffs


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

