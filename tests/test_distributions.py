import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import kstest

from multistop.distributions import (
    FrequencyModel,
    IGParams,
    _ig_cdf,
    _ig_pdf,
    _ig_tails,
    ig_cdf,
    ig_partial_expectation,
    ig_pdf,
    ig_sf,
    ig_sum_params,
    poisson_m_max,
    poisson_pmf,
    poisson_sf,
    sample_ig,
)
from multistop.policies import _PAP_BAND
from quad_oracle import upper_tail_quadrature


# ---------------------------------------------------------------- IG pdf/cdf


def test_ig_pdf_limits_and_center():
    params = IGParams(mu=1.0, lam=1.0)
    assert ig_pdf(1e-12, params) == 0.0
    assert ig_pdf(1e12, params) == 0.0
    assert ig_pdf(1.0, params) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)
    with pytest.raises(ValueError):
        ig_pdf(0.0, params)


def test_ig_cdf_closed_form_values():
    params = IGParams(mu=1.0, lam=1.0)
    assert ig_cdf(0.0, params) == 0.0
    exact = 0.5 + math.exp(2.0) * ndtr(-2.0)
    assert ig_cdf(1.0, params) == pytest.approx(exact, abs=1e-14)
    assert abs(ig_cdf(1.0, params) - 0.6681) < 1e-4
    assert ig_cdf(1e9, IGParams(mu=2.0, lam=3.0)) == pytest.approx(1.0, abs=1e-12)


def test_ig_cdf_matches_density_quadrature():
    params = IGParams(mu=1.0, lam=1.0)
    val, _ = integrate.quad(lambda u: ig_pdf(u, params), 0, 1.0, epsabs=1e-12, limit=300)
    assert ig_cdf(1.0, params) == pytest.approx(val, abs=1e-10)


def test_ig_cdf_derivative_is_pdf():
    params = IGParams(mu=1.7, lam=2.3)
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.2, 8.0, size=50)
    h = 1e-5
    num = (ig_cdf(xs + h, params) - ig_cdf(xs - h, params)) / (2 * h)
    assert np.max(np.abs(num - ig_pdf(xs, params))) < 1e-6


@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=8))
def test_ig_cdf_monotone(xs):
    params = IGParams(mu=1.2, lam=0.9)
    vals = [ig_cdf(x, params) for x in sorted(xs)]
    assert all(b - a >= -1e-15 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_ig_stable_in_extreme_shape_regime():
    # large shape/mean ratios drive the exp(2 lam / mu) factor far past overflow
    params = IGParams(mu=50.0, lam=5000.0)
    v = ig_cdf(40.0, params)
    assert 0.0 <= v <= 1.0 and math.isfinite(v)


@pytest.mark.parametrize(
    "call",
    [ig_pdf, ig_cdf, ig_sf, lambda x, params: ig_partial_expectation(x, 2, params)],
    ids=["ig_pdf", "ig_cdf", "ig_sf", "ig_partial_expectation"],
)
def test_nan_input_is_an_error(request, call):
    name = request.node.callspec.id
    params = IGParams(mu=1.0, lam=1.0)
    for x in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match=f"{name} requires non-NaN x"):
            call(x, params)


# ---------------------------------------------------------------- IG sums


def test_ig_sum_params_values():
    base = IGParams(mu=2.0, lam=1.0)
    assert ig_sum_params(1, base) == base
    summed = ig_sum_params(3, base)
    assert (summed.mu, summed.lam) == (6.0, 9.0)
    with pytest.raises(ValueError):
        ig_sum_params(0, base)


def test_ig_sum_matches_convolution_by_ks(rng):
    base = IGParams(mu=1.0, lam=3.0)
    n = 5
    draws = sample_ig(base, rng, size=(10**5, n)).sum(axis=1)
    summed = ig_sum_params(n, base)
    stat = kstest(draws, lambda x: ig_cdf(x, summed))
    assert stat.pvalue > 0.01


def test_ig_partial_expectation_values():
    base = IGParams(mu=3.0, lam=1.0)
    assert ig_partial_expectation(0.0, 2, base) == 0.0
    assert ig_partial_expectation(math.inf, 2, base) == pytest.approx(6.0, abs=1e-12)
    unit = IGParams(mu=1.0, lam=1.0)
    direct, _ = integrate.quad(
        lambda u: u * ig_pdf(u, unit), 0.0, 4.0, epsabs=1e-12, limit=300
    )
    assert ig_partial_expectation(4.0, 1, unit) == pytest.approx(direct, abs=1e-9)


def test_gig_half_cdf_is_zero_at_subnormal_x_without_warnings():
    # 1/x overflows for these x; the CDF there is 0 and no warning may leak
    x = np.array([1e-310, 5e-324, 1e-300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_ig_tails(x, np.sqrt(3.0 / 2.0), 3.0)[2], np.zeros(3))
        assert ig_partial_expectation(1e-310, 2, IGParams(mu=1.0, lam=1.0)) == 0.0


# ---------------------------------------------------------------- the IG tail kernel

# x from 0 through subnormal and tiny values to 1e6 and inf, for IG shapes from
# 1e-3 to 1e4 at three means
TAIL_XS = np.concatenate(([0.0, 5e-324], np.geomspace(1e-300, 1e6, 301), [np.inf]))
TAIL_SHAPES = np.geomspace(1e-3, 1e4, 8)
TAIL_MEANS = (1e-2, 1.0, 30.0)


@pytest.mark.parametrize("mu", TAIL_MEANS)
def test_ig_tails_are_complementary_and_exact_at_the_ends(mu):
    eps = np.finfo(float).eps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf, sf, gig, gig_sf = _ig_tails(TAIL_XS[:, None], mu, TAIL_SHAPES)
    for out in (cdf, sf, gig, gig_sf):
        assert out.shape == (TAIL_XS.size, TAIL_SHAPES.size)
        assert np.all((out >= 0.0) & (out <= 1.0))
    assert np.max(np.abs(cdf + sf - 1.0)) <= 2 * eps
    assert np.max(np.abs(gig + gig_sf - 1.0)) <= 2 * eps
    assert np.all(np.diff(cdf, axis=0) >= 0.0) and np.all(np.diff(sf, axis=0) <= 0.0)
    assert np.all(np.diff(gig, axis=0) >= 0.0) and np.all(np.diff(gig_sf, axis=0) <= 0.0)
    assert [out[0].tolist() for out in (cdf, sf, gig, gig_sf)] == [[0.0] * 8, [1.0] * 8] * 2
    assert [out[-1].tolist() for out in (cdf, sf, gig, gig_sf)] == [[1.0] * 8, [0.0] * 8] * 2
    # the thin views read the same kernel
    assert np.array_equal(_ig_cdf(TAIL_XS[:, None], mu, TAIL_SHAPES), cdf)
    # (a GIG(alpha, beta, +1/2) caller recovers mu as sqrt(beta / alpha), which may round)
    view = _ig_tails(TAIL_XS[:, None], np.sqrt(TAIL_SHAPES / (TAIL_SHAPES / mu**2)), TAIL_SHAPES)[2]
    assert np.allclose(view, gig, rtol=1e-13, atol=1e-15)


# (lam, x) inputs beyond the grid: at mu = 0.01, lam = 10 (x = 0.01 is on the
# grid), exp(2 lam / mu) is far past overflow and the density is a peak of
# relative width 3% in log u
BODY_EXTRA = {1e-2: [(10.0, 0.02)]}


@pytest.mark.parametrize("mu", TAIL_MEANS)
def test_ig_tails_match_quadrature_in_the_body(mu):
    grid = [(lam, x) for lam in TAIL_SHAPES[::2] for x in mu * np.geomspace(1e-2, 1e2, 9)]
    for lam, x in grid + BODY_EXTRA.get(mu, []):
        cdf, _, gig, _ = (float(v) for v in _ig_tails(x, mu, lam))
        assert cdf == ig_cdf(x, IGParams(mu=mu, lam=lam))
        # breaks at the mean and 10 sd past it too, or quad misses the
        # narrow peak of a large shape
        peak = (mu, mu + 10.0 * math.sqrt(mu**3 / lam))
        points = [min(mu, x) / 2, *(p for p in peak if p < x)]
        direct, _ = integrate.quad(
            lambda u: float(_ig_pdf(u, mu, lam)), 0.0, x, points=points, limit=400
        )
        assert cdf == pytest.approx(direct, abs=1e-9)
        # G is the lower partial mean over mu
        direct, _ = integrate.quad(
            lambda u: u * float(_ig_pdf(u, mu, lam)) / mu,
            0.0,
            x,
            points=points,
            epsabs=1e-13,
            epsrel=1e-12,
            limit=400,
        )
        assert gig == pytest.approx(direct, abs=1e-9)
        assert ig_partial_expectation(x, 1, IGParams(mu=mu, lam=lam)) == pytest.approx(mu * gig, rel=1e-15)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@given(
    mu=_log_uniform(0.01, 100.0),
    lam=_log_uniform(1e-3, 1e4),
    r=st.integers(1, 200),
    scale=_log_uniform(1e-9, 1.0),
)
def test_ig_sum_tails_are_exactly_one_in_the_band(mu, lam, r, scale):
    # PAP-global's inner integral skips the tails of S_r, IG(r mu, r^2 lam), at
    # y where a = sqrt(lam / y) (y / mu - r) <= -_PAP_BAND = -9: there Phi(a)
    # and e are at most 1.1e-19, far below 2^-54, so 1 - F and 1 - G round to
    # 1.0.  y9 solves a = -9 for this r, and y = scale y9 lies at or beyond it
    c = _PAP_BAND / math.sqrt(lam)
    root = 0.5 * mu * (math.sqrt(c * c + 4.0 * r / mu) - c)
    y = scale * root * root
    _, sf, _, gig_sf = _ig_tails(y, r * mu, r * r * lam)
    assert sf == 1.0 and gig_sf == 1.0
    # every count the skip treats as in the band at this y, by its own test
    rr = np.arange(1, 201)
    band = rr[rr >= y / mu + _PAP_BAND * math.sqrt(y / lam)]
    _, sf, _, gig_sf = _ig_tails(y, band * mu, band * band * lam)
    assert np.all(sf == 1.0) and np.all(gig_sf == 1.0)


@pytest.mark.parametrize("mu", TAIL_MEANS)
def test_ig_survival_keeps_the_far_tail(mu):
    # where the CDF rounds to 1, the survival stays positive and matches the
    # density's tail integral to 1e-9 relative
    checked = 0
    for lam in TAIL_SHAPES:
        xs = mu * np.geomspace(1.0, 1e6, 40)
        cdf, sf, _, _ = _ig_tails(xs, mu, lam)
        for x, c, s in zip(xs, cdf, sf):
            if c < 1.0 or s < 1e-290:
                continue
            assert s > 0.0
            assert s == pytest.approx(upper_tail_quadrature(x, mu, lam), rel=1e-9, abs=0.0)
            assert ig_sf(x, IGParams(mu=mu, lam=lam)) == s
            checked += 1
    assert checked >= 5


# ---------------------------------------------------------------- Poisson


def test_poisson_pmf_values():
    freq = FrequencyModel(rate=3.0)
    assert poisson_pmf(0, freq) == pytest.approx(math.exp(-3.0), abs=1e-15)
    assert poisson_pmf(3, freq) == pytest.approx(math.exp(-3.0) * 27.0 / 6.0, abs=1e-15)
    assert abs(poisson_pmf(3, freq) - 0.2240) < 1e-4


def test_poisson_truncation_rule():
    freq = FrequencyModel(rate=3.0)
    m_max = poisson_m_max(freq)
    assert poisson_sf(m_max, freq) < 1e-10
    total = np.sum(poisson_pmf(np.arange(m_max + 1), freq))
    assert 1.0 - total < 1e-10
    assert m_max >= 3.0 + 10.0 * math.sqrt(3.0)


# ---------------------------------------------------------------- sampling


def test_sample_ig_support_and_moments(rng):
    params = IGParams(mu=2.0, lam=3.0)
    draws = sample_ig(params, rng, size=10**6)
    assert np.all(draws > 0)
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - 2.0) < 3 * se

    unit = IGParams(mu=1.0, lam=1.0)
    d2 = sample_ig(unit, rng, size=10**6)
    # variance of IG(1,1) is mu^3/lam = 1; compare with the variance's own MC error
    var = d2.var()
    centered = (d2 - d2.mean()) ** 2
    se_var = centered.std() / math.sqrt(d2.size)
    assert abs(var - 1.0) < 3 * se_var


def test_sample_ig_distribution_ks(rng):
    params = IGParams(mu=1.3, lam=2.0)
    draws = sample_ig(params, rng, size=10**5)
    stat = kstest(draws, lambda x: ig_cdf(x, params))
    assert stat.pvalue > 0.01


def test_sample_ig_scalar_mode(rng):
    x = sample_ig(IGParams(mu=1.0, lam=1.0), rng)
    assert isinstance(x, float) and x > 0


# ---------------------------------------------------------------- params


def test_parameter_validation():
    with pytest.raises(ValueError):
        IGParams(mu=0.0, lam=1.0)
    with pytest.raises(ValueError):
        IGParams(mu=1.0, lam=-2.0)
    with pytest.raises(ValueError):
        FrequencyModel(rate=0.0)
    assert ig_sf(1.0, IGParams(mu=1.0, lam=1.0)) == pytest.approx(
        1.0 - ig_cdf(1.0, IGParams(mu=1.0, lam=1.0))
    )
