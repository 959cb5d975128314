import math

import numpy as np
import pytest
from expansion_reference import (
    reference_bracket_positivity,
    reference_laguerre,
    reference_laguerre_deriv,
    reference_positivity_boundary,
)
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import gammainc, gammaln

from multistop.expansion import (
    POSITIVITY_TOL,
    ExpansionFit,
    MomentSet,
    approx_expected_min,
    approx_pdf,
    b_system,
    compound_poisson_loss_moments,
    constrained_refit,
    default_scan_limit,
    expansion_local_gain_model,
    fit_expansion,
    gamma_local_model,
    laguerre,
    lognormal_raw_moments,
    positivity_boundary,
    positivity_check,
)
from multistop.expansion import (
    _bracket,
    _bracket_positivity,
    _coeffs,
    _fit_coefficients,
    _laguerre_coeffs,
    _laguerre_deriv,
)
from multistop.stopping import Horizon, compute_value_table


def gamma_moment_set(shape: float, rate: float) -> MomentSet:
    return MomentSet.from_loss_moments(
        mean=shape / rate,
        variance=shape / rate**2,
        mu3=2.0 * shape / rate**3,
        mu4=(3.0 * shape + 6.0) * shape / rate**4,
    )


def lognormal_poisson_moment_set(rate=2.0, ln_mu=1.0, ln_sigma=math.sqrt(0.8)) -> MomentSet:
    raw = lognormal_raw_moments(ln_mu, ln_sigma)
    return MomentSet.from_loss_moments(*compound_poisson_loss_moments(rate, raw))


# ---------------------------------------------------------------- laguerre


def test_laguerre_low_orders():
    assert laguerre(0, 3.7, 12.3) == 1.0
    assert laguerre(1, 2.0, 5.0) == 3.0
    with pytest.raises(ValueError):
        laguerre(5, 2.0, 1.0)


def test_laguerre_cross_orthogonality():
    a = 2.5
    val, _ = integrate.quad(
        lambda u: math.exp((a - 1) * math.log(u) - u - gammaln(a))
        * laguerre(2, a, u)
        * laguerre(3, a, u),
        0.0,
        120.0,
        epsabs=1e-12,
        limit=400,
    )
    assert abs(val) < 1e-8


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("a", [0.9, 2.5, 6.0])
def test_laguerre_orthonormality(a):
    # a < 1 has an integrable kernel singularity at the origin; QUADPACK
    # grumbles but the accuracy assertions below still hold
    for n in range(5):
        for m in range(n, 5):
            val, _ = integrate.quad(
                lambda u: math.exp((a - 1) * math.log(u) - u - gammaln(a))
                * laguerre(n, a, u)
                * laguerre(m, a, u),
                0.0,
                200.0,
                epsabs=1e-12,
                limit=500,
            )
            if n == m:
                norm = math.factorial(n) * math.exp(gammaln(a + n) - gammaln(a))
                assert val == pytest.approx(norm, rel=1e-8)
            else:
                assert abs(val) < 1e-8


# ---------------------------------------------------------------- fitting


def test_gamma_moments_collapse_to_kernel():
    fit = fit_expansion(gamma_moment_set(2.5, 0.8))
    assert fit.a3 == pytest.approx(0.0, abs=1e-13)
    assert fit.a4 == pytest.approx(0.0, abs=1e-13)
    assert fit.positivity.positive
    zs = np.linspace(0.05, 25.0, 60)
    exact = np.exp(
        fit.a * np.log(fit.b) + (fit.a - 1) * np.log(zs) - fit.b * zs - gammaln(fit.a)
    )
    np.testing.assert_allclose(approx_pdf(fit, zs), exact, atol=1e-12)


def test_pdf_normalizes():
    fit = fit_expansion(lognormal_poisson_moment_set())
    val, _ = integrate.quad(lambda z: approx_pdf(fit, z), 0.0, np.inf, limit=400)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_fit_reproduces_first_four_moments():
    mo = lognormal_poisson_moment_set()
    fit = fit_expansion(mo)

    def u_moment(power):
        val, _ = integrate.quad(
            lambda u: u**power * approx_pdf(fit, u / fit.b) / fit.b,
            0.0,
            max(400.0, 4 * default_scan_limit(fit.a)),
            epsabs=1e-13,
            limit=500,
        )
        return val

    m1 = u_moment(1)
    m2 = u_moment(2)
    m3 = u_moment(3)
    m4 = u_moment(4)
    mu3 = m3 - 3 * m1 * m2 + 2 * m1**3
    mu4 = m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4
    assert m1 == pytest.approx(fit.a, rel=1e-6)
    assert m2 - m1**2 == pytest.approx(fit.a, rel=1e-6)
    assert mu3 == pytest.approx(mo.mu3, rel=1e-6)
    assert mu4 == pytest.approx(mo.mu4, rel=1e-6)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_first_two_corrections_vanish():
    # expansion coefficients of orders 1 and 2 are zero because U is scaled to
    # have mean == variance == a; probe via the defining integrals (QUADPACK
    # flags roundoff while chasing the 1e-14 target; the assertions gate it)
    fit = fit_expansion(lognormal_poisson_moment_set())
    for n in (1, 2):
        c = math.exp(gammaln(fit.a) - gammaln(fit.a + n)) / math.factorial(n)
        val, _ = integrate.quad(
            lambda u: approx_pdf(fit, u / fit.b) / fit.b * laguerre(n, fit.a, u),
            0.0,
            max(400.0, 4 * default_scan_limit(fit.a)),
            epsabs=1e-14,
            limit=500,
        )
        assert abs(c * val) < 1e-12


def test_lognormal_poisson_example_is_positive():
    fit = fit_expansion(lognormal_poisson_moment_set())
    assert fit.positivity.positive
    zs = np.linspace(1e-6, 120.0, 4000)
    assert np.min(approx_pdf(fit, zs)) >= -1e-12


def test_sample_based_moments_roundtrip(rng):
    draws = rng.gamma(3.0, 2.0, size=200_000)
    mo = MomentSet.from_sample(draws)
    fit = fit_expansion(mo)
    # a gamma sample should give a near-kernel fit
    assert abs(fit.a3) < 0.01 and abs(fit.a4) < 0.01


# ---------------------------------------------------------------- positivity


def test_positivity_boundary_solves_the_dressed_system():
    a = 1.06
    grid = np.linspace(0.5, 25.0, 80)
    curve = positivity_boundary(a, grid)
    assert curve.u.size > 0
    for u, m3, m4 in zip(curve.u, curve.mu3, curve.mu4):
        b1, b2, b3, b1p, b2p, b3p = b_system(a, float(u))
        assert abs(m3 * b1 + m4 * b2 + b3) < 1e-8
        assert abs(m3 * b1p + m4 * b2p + b3p) < 1e-8


def test_positivity_boundary_points_have_double_roots():
    # restrict to the physical branch (mu4 > 0) so moment sets are valid
    a = 1.06
    curve = positivity_boundary(a, np.linspace(5.5, 10.0, 10))
    assert np.all(curve.mu4 > 0)
    for u, m3, m4 in zip(curve.u, curve.mu3, curve.mu4):
        mo = MomentSet(mean=a, variance=a, mu3=float(m3), mu4=float(m4))
        fit = fit_expansion(mo)
        val = fit.bracket(u)
        h = 1e-6
        slope = (fit.bracket(u + h) - fit.bracket(u - h)) / (2 * h)
        assert abs(val) < 1e-6 and abs(slope) < 1e-6
        dens = approx_pdf(fit, u / fit.b)
        dens_slope = (
            approx_pdf(fit, (u + h) / fit.b) - approx_pdf(fit, (u - h) / fit.b)
        ) / (2 * h)
        assert abs(dens) < 1e-6 and abs(dens_slope) < 1e-6


def test_positivity_rejects_point_far_below_the_curve():
    # a fourth moment far under the boundary is outside the moment cone, so
    # the truncated expansion must dip negative somewhere
    a = 1.06
    curve = positivity_boundary(a, np.array([7.3]))
    bad = MomentSet(mean=a, variance=a, mu3=float(curve.mu3[0]), mu4=0.3 * float(curve.mu4[0]))
    fit = fit_expansion(bad)
    assert not fit.positivity.positive
    assert fit.positivity.u_violation is not None


def test_grid_scan_region_brackets_the_curve():
    # brute-force lattice verdicts flip within one cell around the solved curve
    a = 1.06
    curve = positivity_boundary(a, np.linspace(5.5, 9.1, 7))
    for u, m3, m4 in zip(curve.u, curve.mu3, curve.mu4):
        step = 0.02 * abs(m4) + 1e-6
        lo = MomentSet(mean=a, variance=a, mu3=float(m3), mu4=float(m4) - step)
        hi = MomentSet(mean=a, variance=a, mu3=float(m3), mu4=float(m4) + step)
        ok_lo = fit_expansion(lo).positivity.positive
        ok_hi = fit_expansion(hi).positivity.positive
        assert ok_lo != ok_hi  # the curve separates the lattice cell


def test_positivity_check_is_scan_of_bracket():
    fit = fit_expansion(gamma_moment_set(2.0, 1.0))
    res = positivity_check(fit, default_scan_limit(fit.a))
    assert res.positive and res.min_value >= 0.0


# ----------------------------------------------- frozen hand-expanded forms


@pytest.mark.parametrize("a", np.geomspace(0.05, 50.0, 9))
def test_laguerre_and_boundary_are_bit_identical_to_the_hand_expanded_forms(a):
    rng = np.random.default_rng(5)
    c3, c4, _, _ = _coeffs(a)

    def b1(u):
        return c3 * laguerre(3, a, u) - 12.0 * c4 * laguerre(4, a, u)

    # the roots of B1 are where the boundary system degenerates and is skipped
    coarse = np.linspace(1e-6, 400.0, 40001)
    vals = b1(coarse)
    cross = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
    degenerate = [brentq(b1, coarse[i], coarse[i + 1], xtol=1e-300) for i in cross]
    u = np.concatenate(
        (np.geomspace(1e-6, 400.0, 300), 400.0 - rng.uniform(0.0, 400.0, 300), degenerate)
    )
    for n in range(5):
        assert np.array_equal(laguerre(n, a, u), reference_laguerre(n, a, u))
        assert laguerre(n, a, 7.3) == reference_laguerre(n, a, 7.3)
    for n in (3, 4):
        assert np.array_equal(_laguerre_deriv(n, a, u), reference_laguerre_deriv(n, a, u))
        assert _laguerre_deriv(n, a, 7.3) == reference_laguerre_deriv(n, a, 7.3)
    new, old = positivity_boundary(a, u), reference_positivity_boundary(a, u)
    assert np.array_equal(new.u, old.u)
    assert np.array_equal(new.mu3, old.mu3)
    assert np.array_equal(new.mu4, old.mu4)
    assert new.skipped == old.skipped and len(new.skipped) > 0


def test_positivity_boundary_rejects_nonpositive_points_like_the_reference():
    grid = [2.0, -1.5, 0.0]
    with pytest.raises(ValueError, match="got -1.5"):
        positivity_boundary(1.06, grid)
    with pytest.raises(ValueError, match="got -1.5"):
        reference_positivity_boundary(1.06, grid)


def test_exact_positivity_is_never_above_the_grid_scan():
    # the exact minimum may sit above the sampled one only by roundoff in the
    # bracket: 4 ulps of its absolute term sum at the minimum (the largest
    # seen over 3000 fits was 0.75)
    rng = np.random.default_rng(17)
    checked = 0
    for trial in range(240):
        a = float(np.exp(rng.uniform(math.log(0.05), math.log(50.0))))
        u_max = default_scan_limit(a)
        if trial % 2:
            # moments close to the double-root curve, where the verdict is tight
            curve = positivity_boundary(a, [rng.uniform(0.02, 1.0) * u_max])
            if curve.u.size == 0:
                continue
            mu3 = curve.mu3[0] * (1.0 + 1e-3 * rng.normal())
            mu4 = curve.mu4[0] * (1.0 + 1e-3 * rng.normal())
        else:
            mu3 = 2.0 * a * (1.0 + rng.normal())
            mu4 = (3.0 * a * a + 6.0 * a) * (1.0 + rng.normal())
        a3, a4 = _fit_coefficients(a, float(mu3), float(mu4))
        new = _bracket_positivity(a, a3, a4, u_max)
        old = reference_bracket_positivity(a, a3, a4, u_max)
        grid = np.linspace(0.0, u_max, 4001)
        u_star = grid[int(np.argmin(_bracket(a, a3, a4, grid)))]
        terms = 1.0 + sum(
            abs(coef) * np.polyval(np.abs(_laguerre_coeffs(n, a)), u_star)
            for n, coef in ((3, a3), (4, a4))
        )
        assert new.min_value <= old.min_value + 4.0 * np.finfo(float).eps * terms
        if abs(old.min_value + POSITIVITY_TOL) > 1e-9:
            assert new.positive == old.positive
        checked += 1
    assert checked > 200


@pytest.mark.parametrize("a, u0, m", [(3.0, 8.0, -0.5), (5.0, 12.0, -0.25), (5.0, 12.0, 0.25)])
def test_positivity_finds_a_known_minimum(a, u0, m):
    # A3 and A4 chosen so that the bracket has value m and slope 0 at u0
    lhs = [
        [laguerre(3, a, u0), laguerre(4, a, u0)],
        [_laguerre_deriv(3, a, u0), _laguerre_deriv(4, a, u0)],
    ]
    a3, a4 = np.linalg.solve(lhs, [m - 1.0, 0.0])
    u_max = default_scan_limit(a)
    assert np.min(_bracket(a, a3, a4, np.linspace(0.0, u_max, 100_001))) > m  # global on the window
    res = _bracket_positivity(a, a3, a4, u_max)
    assert res.min_value == pytest.approx(m, abs=1e-13)
    assert res.positive == (m > 0)
    if m < 0:
        assert res.u_violation == pytest.approx(u0, rel=1e-13)


# ---------------------------------------------------------------- E[min]


def test_expected_min_degenerate_cases():
    fit = fit_expansion(lognormal_poisson_moment_set())
    mean = fit.a / fit.b
    assert approx_expected_min(fit, 1.5, math.inf) == pytest.approx(1.5 + mean)
    assert approx_expected_min(fit, 2.0, 2.0) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        approx_expected_min(fit, 3.0, 1.0)
    with pytest.raises(ValueError):
        approx_expected_min(fit, -1.0, 1.0)


def test_expected_min_gamma_case_matches_partial_expectation():
    shape, rate = 2.5, 0.8
    fit = fit_expansion(gamma_moment_set(shape, rate))
    got = approx_expected_min(fit, 0.0, 1.0)
    # direct partial-moment oracle for the gamma law
    x = rate * 1.0
    direct = (shape / rate) * gammainc(shape + 1.0, x) + 1.0 * (1.0 - gammainc(shape, x))
    assert got == pytest.approx(direct, abs=1e-12)


def test_expected_min_consistent_with_pdf_quadrature():
    fit = fit_expansion(lognormal_poisson_moment_set())
    for c1, c2 in [(0.0, 5.0), (1.0, 9.0), (3.0, 4.0)]:
        direct, _ = integrate.quad(
            lambda z: min(c1 + z, c2) * approx_pdf(fit, z),
            0.0,
            np.inf,
            epsabs=1e-12,
            limit=500,
        )
        assert approx_expected_min(fit, c1, c2) == pytest.approx(direct, abs=1e-8)


def test_expansion_gain_model_matches_exact_gamma_table():
    shape, rate = 2.5, 0.8
    fit = fit_expansion(gamma_moment_set(shape, rate))
    approx_table = compute_value_table(expansion_local_gain_model(fit), Horizon(T=8, k=3))
    exact_table = compute_value_table(gamma_local_model(shape, rate), Horizon(T=8, k=3))
    np.testing.assert_allclose(
        approx_table.values[1:, 1:], exact_table.values[1:, 1:], atol=1e-8, equal_nan=True
    )


# ---------------------------------------------------------------- refit


def test_constrained_refit_projects_to_admissible_curve():
    a = 1.06
    curve = positivity_boundary(a, np.linspace(4.0, 10.0, 7))
    bad = MomentSet(
        mean=a, variance=a, mu3=float(curve.mu3[3]), mu4=0.5 * float(curve.mu4[3])
    )
    assert not fit_expansion(bad).positivity.positive
    refit = constrained_refit(bad)
    assert refit.fit.positivity.positive or refit.fit.positivity.min_value > -1e-8
    assert refit.segment[0] <= refit.u_at_projection <= refit.segment[1]
    # the projected point solves the boundary system
    b1, b2, b3, _, _, _ = b_system(a, refit.u_at_projection)
    resid = refit.moments.mu3 * b1 + refit.moments.mu4 * b2 + b3
    assert abs(resid) < 1e-6


@pytest.mark.parametrize(
    "loss_moments, segment, u_proj, mu3_hex, mu4_hex",
    [
        (
            (3.0, 4.0, 30.0, 400.0),
            (6.530627429959825, 47.80814123139746),
            6.530627429959825,
            "0x1.6cf8545ed09dep+3",
            "0x1.ccb0a8ad86162p+6",
        ),
        (
            (1.06, 1.06, 2.4, 5.0),
            (4.809285568345716, 41.796784203131104),
            31.056984849851744,
            "0x1.0e86ed6edcafbp+1",
            "0x1.34fd3aae49ff4p+3",
        ),
    ],
)
def test_constrained_refit_keeps_the_grid_scan_projection(
    loss_moments, segment, u_proj, mu3_hex, mu4_hex
):
    # the projection lands on the double-root curve, where the bracket's
    # minimum is 0 in exact arithmetic, so a few ulps in the solved moments
    # can flip the refit's verdict; these are the values of the grid scan
    # with Brent refinement that the exact minimum replaced
    refit = constrained_refit(MomentSet.from_loss_moments(*loss_moments))
    assert refit.segment == segment
    assert refit.u_at_projection == u_proj
    assert refit.moments.mu3.hex() == mu3_hex
    assert refit.moments.mu4.hex() == mu4_hex


def test_moment_set_validation():
    with pytest.raises(ValueError):
        MomentSet(mean=-1.0, variance=1.0, mu3=0.0, mu4=1.0)
    with pytest.raises(ValueError):
        MomentSet(mean=1.0, variance=0.0, mu3=0.0, mu4=1.0)
    with pytest.raises(ValueError):
        MomentSet(mean=1.0, variance=1.0, mu3=0.0, mu4=-1.0)
