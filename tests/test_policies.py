import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mc_oracles import (
    alp_insured_losses,
    annual_loss,
    aux_insured_losses,
    ilp_insured_losses,
    mc_expected_max,
    pap_paths,
)
from multistop.distributions import (
    POISSON_TAIL,
    CompoundIG,
    FrequencyModel,
    IGParams,
    _ig_pdf,
    ig_cdf,
    ig_sum_params,
    poisson_m_max,
    poisson_sf,
    sample_ig,
)
from multistop.expansion import (
    MomentSet,
    compound_poisson_loss_moments,
    constrained_refit,
    expansion_local_gain_model,
    fit_expansion,
    gamma_local_model,
    lognormal_raw_moments,
)
from multistop.experiments import preset_config
from multistop.policies import (
    GLOBAL,
    ConfigError,
    CrossingLaw,
    EmpiricalGainSample,
    ILPAuxModel,
    LDAModel,
    PolicySpec,
    _crossing_pmf,
    _gauss_legendre,
    alp_global_model,
    alp_local_model,
    aux_from_config,
    gain_model_from_config,
    ilp_global_model,
    ilp_global_sample,
    ilp_local_model,
    lda_from_config,
    mstar_pmf,
    pap_global_model,
    pap_local_model,
    policy_from_config,
)
from multistop.simulation import _BLOCK, simulate_batch
from multistop.stopping import (
    Horizon,
    StopLossGain,
    compute_value_table,
    lognormal_local_model,
    thresholds,
)
from pap_global_reference import ReferencePapGlobal
from pap_inner_reference import ReferencePapInner as FrozenPapInner
from pap_law_reference import ReferencePapGlobal as FrozenPapGlobal
from pap_law_reference import ReferencePapLocal as FrozenPapLocal
from quad_oracle import crossing_pmf_quadrature
from table_reference import reference_value_table

ALP_LDA = LDAModel(FrequencyModel(rate=3.0), IGParams(mu=2.0, lam=3.0))
PAP_LDA = LDAModel(FrequencyModel(rate=3.0), IGParams(mu=1.0, lam=1.0))


# ---------------------------------------------------------------- ALP local


def test_alp_local_full_coverage_limit():
    # exactness is limited by the 1e-10 count-truncation tail
    model = alp_local_model(ALP_LDA, 1e9)
    assert model.mean_gain == pytest.approx(0.0, abs=1e-9)
    assert model.weights.c0 == pytest.approx(1.0, abs=1e-9)


def test_alp_weights_partition_unity():
    model = alp_local_model(ALP_LDA, 10.0)
    assert model.weights.c0 + model.weights.cm.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(model.weights.cm >= 0)


def test_alp_local_mean_matches_pathwise_mc(rng):
    model = alp_local_model(ALP_LDA, 10.0)
    zt = alp_insured_losses(ALP_LDA, 10.0, 4 * 10**5, rng)
    se = zt.std(ddof=1) / math.sqrt(zt.size)
    assert abs(model.mean_gain - (-zt.mean())) <= 3 * se


def test_alp_local_expected_max_matches_mc(rng):
    model = alp_local_model(ALP_LDA, 10.0)
    w = -alp_insured_losses(ALP_LDA, 10.0, 4 * 10**5, rng)
    for c1, c2 in [(0.0, -1.0), (-0.5, -2.0), (-2.0, -6.0)]:
        mc, se = mc_expected_max(w, c1, c2)
        assert abs(model.expected_max(c1, c2) - mc) <= 3 * se, (c1, c2)


def test_alp_local_sign_regime_enforced():
    model = alp_local_model(ALP_LDA, 10.0)
    with pytest.raises(ValueError):
        model.expected_max(0.5, 0.0)
    with pytest.raises(ValueError):
        model.expected_max(-1.0, -0.5)
    assert model.expected_max(0.0, -math.inf) == model.mean_gain


# ---------------------------------------------------------------- ALP global


def test_alp_global_limits():
    wide = alp_global_model(ALP_LDA, 1e9)
    assert wide.mean_gain == pytest.approx(ALP_LDA.mean_annual_loss, abs=1e-9)
    narrow = alp_global_model(ALP_LDA, 1e-9)
    assert narrow.mean_gain == pytest.approx(0.0, abs=1e-9)


def test_alp_global_pathwise_identity(rng):
    z = annual_loss(ALP_LDA, 10**5, rng)
    zt = np.maximum(z - 10.0, 0.0)
    assert np.array_equal(z - zt, np.minimum(10.0, z))


def test_alp_global_matches_mc(rng):
    model = alp_global_model(ALP_LDA, 10.0)
    z = annual_loss(ALP_LDA, 4 * 10**5, rng)
    w = np.minimum(10.0, z)
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert abs(model.mean_gain - w.mean()) <= 3 * se
    for c1, c2 in [(0.0, 0.0), (0.0, 4.0), (1.0, 8.0), (2.0, 15.0)]:
        mc, se = mc_expected_max(w, c1, c2)
        assert abs(model.expected_max(c1, c2) - mc) <= 3 * se, (c1, c2)


def test_alp_local_global_means_are_complementary():
    local = alp_local_model(ALP_LDA, 10.0)
    glob = alp_global_model(ALP_LDA, 10.0)
    assert -local.mean_gain + glob.mean_gain == pytest.approx(
        ALP_LDA.mean_annual_loss, abs=1e-6
    )


def test_alp_global_mean_monotone_in_cap():
    means = [alp_global_model(ALP_LDA, cap).mean_gain for cap in (2.0, 5.0, 10.0, 20.0)]
    assert all(b >= a for a, b in zip(means, means[1:]))


# ---------------------------------------------------------------- M* pmf


def test_mstar_tiny_attachment_concentrates_on_first_loss():
    assert mstar_pmf(1, PAP_LDA, 1e-9) == pytest.approx(1.0, abs=1e-9)


def test_mstar_partition_identity():
    att, m = 4.0, 5
    mass = sum(mstar_pmf(j, PAP_LDA, att) for j in range(1, m + 1))
    mass += ig_cdf(att, ig_sum_params(m, PAP_LDA.severity))
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_mstar_matches_first_passage_mc(rng):
    from multistop.distributions import sample_ig

    att, m_star = 3.0, 2
    n = 10**6
    x1 = sample_ig(PAP_LDA.severity, rng, size=n)
    x2 = sample_ig(PAP_LDA.severity, rng, size=n)
    hits = (x1 <= att) & (x1 + x2 > att)
    p_hat = hits.mean()
    se = math.sqrt(p_hat * (1 - p_hat) / n)
    assert abs(mstar_pmf(m_star, PAP_LDA, att) - p_hat) <= 3 * se


# ---------------------------------------------------------------- PAP local


def test_pap_local_no_coverage_limit():
    model = pap_local_model(PAP_LDA, 1e6)
    assert model.mean_gain == pytest.approx(-PAP_LDA.mean_annual_loss, abs=1e-8)


def test_pap_local_mean_matches_mc(rng):
    model = pap_local_model(PAP_LDA, 4.0)
    _, zt = pap_paths(PAP_LDA, 4.0, 10**6, rng)
    se = zt.std(ddof=1) / math.sqrt(zt.size)
    assert abs(model.mean_gain - (-zt.mean())) <= 3 * se


def test_pap_local_expected_max_matches_mc(rng):
    model = pap_local_model(PAP_LDA, 4.0)
    _, zt = pap_paths(PAP_LDA, 4.0, 10**6, rng)
    w = -zt
    for c2 in (-1.0, -2.0, -5.0):
        mc, se = mc_expected_max(w, 0.0, c2)
        assert abs(model.expected_max(0.0, c2) - mc) <= 3 * se, c2
        # the atom-aware decomposition: E[max{-0 + W, c2}] == -E[min{Zt, |c2|}]
        direct = -np.minimum(zt, -c2).mean()
        assert abs(model.expected_max(0.0, c2) - direct) <= 3 * se, c2


def test_pap_local_total_mass():
    assert pap_local_model(PAP_LDA, 4.0).total_mass() == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------- PAP global


def test_pap_global_limits():
    starts_at_zero = pap_global_model(PAP_LDA, 1e-9)
    assert starts_at_zero.mean_gain == pytest.approx(PAP_LDA.mean_annual_loss, abs=1e-6)
    never_attaches = pap_global_model(PAP_LDA, 1e6)
    assert never_attaches.mean_gain == pytest.approx(0.0, abs=1e-8)


def test_pap_global_pathwise_identity(rng):
    z, zt = pap_paths(PAP_LDA, 4.0, 10**5, rng)
    w = z - zt
    assert np.array_equal(w, z - zt)  # the gain is the covered part, by definition
    np.testing.assert_allclose(zt + w, z, rtol=0, atol=1e-12)
    assert np.all(zt >= 0) and np.all(w >= 0)


def test_pap_global_matches_mc(rng):
    model = pap_global_model(PAP_LDA, 4.0)
    z, zt = pap_paths(PAP_LDA, 4.0, 10**6, rng)
    w = z - zt
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert abs(model.mean_gain - w.mean()) <= 3 * se
    for c1, c2 in [(0.0, 0.0), (0.0, 2.0), (1.0, 3.0), (2.0, 7.0)]:
        mc, se = mc_expected_max(w, c1, c2)
        assert abs(model.expected_max(c1, c2) - mc) <= 3 * se, (c1, c2)


def test_pap_global_atom_mass(rng):
    model = pap_global_model(PAP_LDA, 4.0)
    z, zt = pap_paths(PAP_LDA, 4.0, 10**6, rng)
    w = z - zt
    p_hat = (w == 0.0).mean()
    se = math.sqrt(p_hat * (1 - p_hat) / w.size)
    assert abs(model.prob_zero_gain - p_hat) <= 3 * se
    assert model.prob_zero_gain + model.continuous_mass() == pytest.approx(1.0, abs=1e-8)


def test_pap_means_are_complementary():
    local = pap_local_model(PAP_LDA, 4.0)
    glob = pap_global_model(PAP_LDA, 4.0)
    assert -local.mean_gain + glob.mean_gain == pytest.approx(
        PAP_LDA.mean_annual_loss, abs=1e-6
    )


def test_pap_global_mean_antitone_in_attachment():
    means = [pap_global_model(PAP_LDA, a).mean_gain for a in (1.0, 2.0, 4.0, 8.0)]
    assert all(b <= a for a, b in zip(means, means[1:]))


# (rate, mu, lambda, attachment), an inner rule size of the frozen nested
# kernel at which doubling it moves stop_loss by less than 1e-13, and the
# tolerance of the composite grid against that kernel
PAP_GLOBAL_REFERENCE_CASES = {
    "preset": ((3.0, 1.0, 1.0, 4.0), 128, 1e-12),
    "skewed": ((1.0, 10.0, 1.0, 100.0), 512, 1e-10),
    "rate-2": ((2.0, 1.5, 1.0, 3.0), 128, 1e-12),
}


def _pap_global_edge_deltas(model):
    """Arguments of a PAP-global ``stop_loss`` at the edges of its inner grid."""
    attachment = model.attachment
    gap = np.sort(model._gaps[:-1])[60]
    tail = model._cuts[model._cuts > attachment]
    # on a tail breakpoint and inside a tail segment, where the tail has them
    on_tail = [tail[3], 0.5 * (tail[3] + tail[4])] if tail.size > 4 else []
    return np.array([
        -1.0,
        0.0,
        gap * (1.0 - 1e-9),  # either side of an outer gap
        gap * (1.0 + 1e-9),
        attachment - 1e-3,
        attachment + 1e-3,
        *on_tail,
        4.0 * attachment,  # deep in the tail
        model._s_cap + 1.0,  # delta - s_cap > 0
        1.5 * model._x_hi,  # beyond the crossing loss's support bound
    ])


@pytest.mark.parametrize("name", sorted(PAP_GLOBAL_REFERENCE_CASES))
def test_pap_global_composite_grid_matches_nested_kernel(name):
    (rate, mu, lam, attachment), n_inner, tol = PAP_GLOBAL_REFERENCE_CASES[name]
    lda = LDAModel(FrequencyModel(rate=rate), IGParams(mu=mu, lam=lam))
    model = pap_global_model(lda, attachment)
    delta = _pap_global_edge_deltas(model)
    ref = ReferencePapGlobal(lda, attachment, n_inner=n_inner).stop_loss(delta)
    scale = np.maximum(1.0, np.abs(ref))
    finer = ReferencePapGlobal(lda, attachment, n_inner=2 * n_inner).stop_loss(delta)
    assert np.all(np.abs(finer - ref) < 1e-13 * scale)
    assert np.all(np.abs(model.stop_loss(delta) - ref) <= tol * scale)


def test_pap_global_sign_regime():
    model = pap_global_model(PAP_LDA, 4.0)
    with pytest.raises(ValueError):
        model.expected_max(-1.0, 0.0)
    with pytest.raises(ValueError):
        model.expected_max(2.0, 1.0)


def _decimal_ig_pdf(x, mu, lam):
    # the IG density at 60 significant digits, out of reach of float underflow
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 60
        x, mu, lam = Decimal(x), Decimal(mu), Decimal(lam)
        two_pi = 2 * Decimal("3.14159265358979323846264338327950288419716939937510582097")
        expo = -lam * (x - mu) ** 2 / (2 * mu**2 * x)
        return float((lam / (two_pi * x**3)).sqrt() * expo.exp())


def test_ig_pdf_and_pap_means_at_tiny_arguments_without_warnings():
    # x**3 underflows below about 1e-103; the density there is 0, or finite
    # for a shape small enough to keep it up, and never NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _ig_pdf(1e-120, 1.0, 1.0) == 0.0
        assert np.array_equal(_ig_pdf([1e-105, 1e-110, 1e-320], 1.0, 1.0), np.zeros(3))
        # there the density is exp of a log that sums terms near 700 in size
        for x in (1e-110, 1e-104, 1e-320):
            assert _ig_pdf(x, 1.0, 1e-250) == pytest.approx(_decimal_ig_pdf(x, 1.0, 1e-250), rel=1e-11)
        for attachment in (1e-100, 1e-110):
            g = pap_global_model(PAP_LDA, attachment).mean_gain
            loc = pap_local_model(PAP_LDA, attachment).mean_gain
            assert math.isfinite(g) and math.isfinite(loc)
            assert g - loc == pytest.approx(PAP_LDA.mean_annual_loss, rel=1e-9)


@pytest.mark.parametrize("mu, lam", [(1e5, 1e-5), (1e-300, 1.0), (1e-150, 1e-150)])
def test_ig_pdf_has_no_nan_across_the_float_range(mu, lam):
    # the exponent is inf/inf where (x - mu)**2 overflows at huge x and 0/0
    # where mu**2 underflows; the density is finite and nonnegative there
    x = np.geomspace(1e-310, 1e300, 10**6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dens = _ig_pdf(x, mu, lam)
        if mu == 1e-150:
            # around the mode the density is of order 1e149 and was NaN before
            for xi in (0.5 * mu, mu, 2.0 * mu, 10.0 * mu):
                expected = _decimal_ig_pdf(xi, mu, lam)
                assert _ig_pdf(xi, mu, lam) == pytest.approx(expected, rel=1e-11)
    assert not np.isnan(dens).any()
    assert not (dens < 0.0).any()


# ---------------------------------------------------------------- ILP local


AUX = ILPAuxModel(aux_rate=4.0, aux_severity=IGParams(mu=1.0, lam=3.0))


def test_ilp_local_mean_is_negative_compound_mean():
    model = ilp_local_model(AUX)
    assert model.mean_gain == -4.0
    assert model.expected_max(0.0, -math.inf) == -4.0


class _HandBuiltIlpLocal(StopLossGain):
    """ILP-local with the aux law's count mixture built by hand, as it once was."""

    def __init__(self, aux):
        freq = FrequencyModel(rate=aux.aux_rate)
        self._mix = CompoundIG(freq, aux.aux_severity, poisson_m_max(freq))
        super().__init__(-aux.aux_rate * aux.aux_severity.mu)

    def stop_loss(self, delta):
        d = -delta
        dd = d[:, None]
        mix = self._mix
        at_d = mix.tails(dd)
        return np.sum(mix.pm * (dd * at_d.cdf - at_d.lower_mean), axis=1) + d * mix.p0


@pytest.mark.parametrize("T, k", [(8, 3), (40, 12)])
def test_ilp_local_table_equals_the_hand_built_mixture(T, k):
    # the ilp-study preset's aux law, as an LDAModel, gives the same mixture bit for bit
    aux = aux_from_config(preset_config("ilp-study"))
    horizon = Horizon(T=T, k=k)
    got = compute_value_table(ilp_local_model(aux), horizon).values
    want = compute_value_table(_HandBuiltIlpLocal(aux), horizon).values
    assert np.array_equal(got, want, equal_nan=True)


def test_ilp_local_expected_max_matches_mc(rng):
    model = ilp_local_model(AUX)
    zt = aux_insured_losses(AUX, 10**6, rng)
    w = -zt
    mc, se = mc_expected_max(w, -1.0, -3.0)
    assert abs(model.expected_max(-1.0, -3.0) - mc) <= 3 * se


# ---------------------------------------------------------------- ILP global


def test_ilp_global_sample_respects_caps():
    lda = LDAModel(FrequencyModel(rate=3.0), IGParams(mu=2.0, lam=3.0))
    tcl, seed, n = 1.5, 99, 20_000
    sample = ilp_global_sample(lda, tcl, n, seed)
    # reproduce each block's count stream (generator j = 0) to bound each draw by N * tcl
    counts = np.concatenate([
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(lo // _BLOCK, 0)))
        .poisson(lda.frequency.rate, (min(_BLOCK, n - lo), 1))[:, 0]
        for lo in range(0, n, _BLOCK)
    ])
    assert np.all(sample.draws <= counts * tcl + 1e-12)
    assert np.all(sample.draws >= 0)


@pytest.mark.parametrize("n", [1, 9_000])
def test_ilp_global_sample_is_year_one_of_the_ilp_global_batch(n):
    # 9,000 draws are three chunks, the last one short
    sample = ilp_global_sample(ALP_LDA, 1.5, n, 7)
    batch = simulate_batch(ALP_LDA, PolicySpec("ILP", 1.5, GLOBAL), 1, n, 7)
    assert np.array_equal(sample.draws, batch.w[:, 0])
    assert sample.seed == 7


def test_ilp_global_sample_is_a_prefix_of_a_larger_sample():
    small = ilp_global_sample(ALP_LDA, 1.5, 1_025, 3).draws
    large = ilp_global_sample(ALP_LDA, 1.5, 3_000, 3).draws
    assert np.array_equal(small, large[:1_025])


def test_ilp_global_sample_peak_memory_is_its_draws():
    # 8 bytes per draw and one chunk's temporaries; holding every loss at
    # once, as a direct draw of the whole sample does, costs about 139
    n = 10**6
    ilp_global_sample(ALP_LDA, 1.5, 1_000, 1)  # first-call caches are not the sample's
    tracemalloc.start()
    try:
        ilp_global_sample(ALP_LDA, 1.5, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 12


def test_ilp_global_sample_limits(rng):
    lda = LDAModel(FrequencyModel(rate=3.0), IGParams(mu=2.0, lam=3.0))
    wide = ilp_global_sample(lda, 1e9, 2 * 10**5, 5)
    se = wide.draws.std(ddof=1) / math.sqrt(wide.draws.size)
    assert abs(wide.draws.mean() - lda.mean_annual_loss) <= 3 * se
    narrow = ilp_global_sample(lda, 1e-12, 1000, 5)
    assert np.all(narrow.draws < 1e-8)


def test_ilp_global_empirical_contract():
    lda = LDAModel(FrequencyModel(rate=3.0), IGParams(mu=2.0, lam=3.0))
    sample = ilp_global_sample(lda, 1.5, 50_000, 11)
    model = ilp_global_model(sample)
    assert model.expected_max(0.0, 0.0) == pytest.approx(model.mean_gain, abs=1e-12)
    assert model.expected_max(2.0, 2.0) == pytest.approx(2.0 + model.mean_gain, abs=1e-12)
    assert model.expected_max_stderr(0.0, 1.0) > 0
    with pytest.raises(ValueError):
        model.expected_max(-1.0, 0.0)


def test_ilp_global_small_sample_warns():
    lda = LDAModel(FrequencyModel(rate=3.0), IGParams(mu=2.0, lam=3.0))
    sample = ilp_global_sample(lda, 1.5, 100, 3)
    with pytest.warns(UserWarning):
        ilp_global_model(sample)


def test_ilp_global_mean_monotone_in_tcl():
    lda = LDAModel(FrequencyModel(rate=3.0), IGParams(mu=2.0, lam=3.0))
    means = [
        ilp_global_model(ilp_global_sample(lda, tcl, 50_000, 7)).mean_gain
        for tcl in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(b >= a for a, b in zip(means, means[1:]))


def test_empirical_sample_validation():
    with pytest.raises(ConfigError):
        EmpiricalGainSample(draws=np.array([]), seed=0)
    with pytest.raises(ConfigError):
        EmpiricalGainSample(draws=np.array([-1.0]), seed=0)


def _fsum_stop_loss(draws, delta):
    return math.fsum(np.maximum(draws - delta, 0.0).tolist()) / draws.size


def _quiet_empirical_model(draws):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small samples on purpose
        return ilp_global_model(EmpiricalGainSample(draws=np.asarray(draws, dtype=float), seed=0))


def _ilp_sample_deltas(draws):
    # the sample holds zeros and ties at multiples of the cap 1.5
    ties = np.array([1.5, 3.0, 4.5])
    assert all(np.count_nonzero(draws == t) > 1 for t in ties)
    min_pos = draws[draws > 0].min()
    return np.concatenate([
        np.quantile(draws, [0.3, 0.5, 0.9, 0.999], method="inverted_cdf"),  # draws
        ties,
        np.nextafter(ties, 0.0),
        ties - 1e-9,
        [min_pos, np.nextafter(min_pos, 0.0), 0.5 * min_pos, 5e-324],
        np.sort(draws)[-3:],
    ])


EMPIRICAL_CASES = {
    # draws, deltas (all > 0, the global contract's stop-loss side)
    "ilp-sample": (
        lambda: ilp_global_sample(ALP_LDA, 1.5, 20_000, 3).draws,
        _ilp_sample_deltas,
    ),
    # ties at the top and draws far from 0: the sum of the draws above delta
    # minus their count times delta would cancel just below them
    "tied-top": (
        lambda: np.concatenate([np.full(10, 1.0), np.full(1000, 5.0)]),
        lambda d: np.array([0.5, 1.0, np.nextafter(5.0, 0.0), 5.0 - 1e-9]),
    ),
    "far-from-zero": (
        lambda: 1e3 + np.linspace(0.0, 1.0, 10_001),
        lambda d: 1e3 + np.array([0.5, 0.9, 0.999, 0.9999]),
    ),
    "all-zero": (lambda: np.zeros(7), lambda d: np.array([5e-324, 1e-9, 1.0])),
    "one-draw": (lambda: np.array([3.0]), lambda d: np.array([1e-300, 1.0, np.nextafter(3.0, 0.0)])),
}


@pytest.mark.parametrize("case", sorted(EMPIRICAL_CASES))
def test_empirical_stop_loss_matches_fsum(case):
    make_draws, make_deltas = EMPIRICAL_CASES[case]
    draws = make_draws()
    model = _quiet_empirical_model(draws)
    top = draws.max()
    deltas = np.concatenate([make_deltas(draws), [top, np.nextafter(top, np.inf), top + 1.0]])
    deltas = deltas[deltas > 0]
    got = model.stop_loss(deltas)
    exact = np.array([_fsum_stop_loss(draws, d) for d in deltas.tolist()])
    assert np.all(got[deltas >= top] == 0.0)  # no draw above delta: exactly 0
    assert np.allclose(got, exact, rtol=1e-12, atol=0.0), np.max(np.abs(got - exact) / exact)


def test_empirical_model_keeps_the_sample_and_its_mean():
    draws = ilp_global_sample(ALP_LDA, 1.5, 20_000, 3).draws
    baseline = draws.copy()
    model = _quiet_empirical_model(draws)
    assert np.array_equal(draws, baseline)  # sorting works on a copy
    assert np.shares_memory(model._draws, draws)
    assert model.mean_gain == float(draws.mean())
    assert model.mean_gain_stderr == float(draws.std(ddof=1) / math.sqrt(draws.size))


class _PerDeltaMeanGain(StopLossGain):
    """The sample's stop-loss term as one mean over all draws per delta."""

    local = False

    def __init__(self, draws):
        self._draws = draws
        super().__init__(float(draws.mean()))

    def stop_loss(self, delta):
        return np.array([np.mean(np.maximum(self._draws - d, 0.0)) for d in delta.tolist()])


def test_empirical_table_matches_per_delta_mean():
    draws = ilp_global_sample(ALP_LDA, 5.0, 10_000, 7).draws
    horizon = Horizon(T=40, k=12)
    table = compute_value_table(_quiet_empirical_model(draws), horizon).values
    reference = compute_value_table(_PerDeltaMeanGain(draws), horizon).values
    assert np.array_equal(np.isnan(table), np.isnan(reference))
    assert np.allclose(table, reference, rtol=1e-12, atol=0.0, equal_nan=True)


def test_sectioned_stderr_covers_the_spread_across_seeds():
    # eight independent 1e5-draw samples: the spread of their game values
    # and the mean sectioned standard error agree within a factor of 3
    factor = 3.0
    horizon = Horizon(T=40, k=12)
    values, errors = [], []
    for seed in range(8):
        model = ilp_global_model(ilp_global_sample(ALP_LDA, 1.5, 10**5, 1000 + seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the small sections must stay quiet
            se = model.sectioned_stderr(horizon)
        table = compute_value_table(model, horizon)
        assert se.shape == table.values.shape
        assert np.array_equal(np.isnan(se), np.isnan(table.values))
        values.append(table.game_value)
        errors.append(se[horizon.T, horizon.k])
    spread = float(np.std(values, ddof=1))
    mean_se = float(np.mean(errors))
    assert spread / factor <= mean_se <= factor * spread, (spread, mean_se)


# ------------------------------------------------------------ gain contract


def _expansion_model():
    raw = lognormal_raw_moments(1.0, math.sqrt(0.8))
    moments = MomentSet.from_loss_moments(*compound_poisson_loss_moments(2.0, raw))
    return expansion_local_gain_model(fit_expansion(moments))


def _ilp_global_model():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a small sample keeps the test fast
        return ilp_global_model(ilp_global_sample(ALP_LDA, 1.5, 5_000, 11))


# every built-in gain model
LOCAL_MODELS = {
    "alp": lambda: alp_local_model(ALP_LDA, 10.0),
    "pap": lambda: pap_local_model(PAP_LDA, 4.0),
    "ilp": lambda: ilp_local_model(AUX),
    "lognormal": lambda: lognormal_local_model(0.0, 1.0),
    "gamma": lambda: gamma_local_model(2.0, 0.5),
    "expansion": _expansion_model,
}
GLOBAL_MODELS = {
    "alp": lambda: alp_global_model(ALP_LDA, 10.0),
    "pap": lambda: pap_global_model(PAP_LDA, 4.0),
    "ilp": _ilp_global_model,
}


@pytest.mark.parametrize("name", sorted(LOCAL_MODELS))
def test_local_gain_contract_properties(name):
    model = LOCAL_MODELS[name]()

    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=0.0, max_value=1.5),
    )
    def prop(q1, gap, bump):
        c1, c2 = -q1, -(q1 + gap)
        val = model.expected_max(c1, c2)
        assert val >= max(c1 + model.mean_gain, c2) - 1e-9
        assert model.expected_max(min(c1 + bump, 0.0), c2) >= val - 1e-9
        assert model.expected_max(c1, min(c2 + bump, c1)) >= val - 1e-9

    prop()


@pytest.mark.parametrize("name", sorted(GLOBAL_MODELS))
def test_global_gain_contract_properties(name):
    model = GLOBAL_MODELS[name]()

    @given(
        st.floats(min_value=0.0, max_value=6.0),
        st.floats(min_value=0.0, max_value=8.0),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def prop(c1, gap, bump):
        c2 = c1 + gap
        val = model.expected_max(c1, c2)
        assert val >= max(c1 + model.mean_gain, c2) - 1e-9
        assert model.expected_max(c1 + bump, c2 + bump) >= val - 1e-9
        assert model.expected_max(c1, c2 + bump) >= val - 1e-9

    prop()


# ------------------------------------------------------ row-batched recursion


def _refit_model():
    # out-of-region moments, projected onto the positivity boundary
    moments = MomentSet.from_loss_moments(3.0, 4.0, 30.0, 400.0)
    return expansion_local_gain_model(constrained_refit(moments).fit)


def _ilp_global_1e4_model():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fewer draws than the model asks for
        return ilp_global_model(ilp_global_sample(ALP_LDA, 5.0, 10_000, 7))


# every built-in gain model and a horizon at which its per-cell table is cheap
TABLE_MODELS = {
    "alp-local": (lambda: alp_local_model(ALP_LDA, 10.0), (40, 12)),
    "alp-global": (lambda: alp_global_model(ALP_LDA, 10.0), (40, 12)),
    "pap-local": (lambda: pap_local_model(PAP_LDA, 4.0), (40, 12)),
    "pap-global": (lambda: pap_global_model(PAP_LDA, 4.0), (40, 12)),
    "ilp-local": (lambda: ilp_local_model(AUX), (40, 12)),
    "ilp-global": (_ilp_global_1e4_model, (40, 12)),
    "lognormal": (lambda: lognormal_local_model(0.0, 1.0), (40, 12)),
    "gamma": (lambda: gamma_local_model(2.0, 0.5), (40, 12)),
    "refit-expansion": (_refit_model, (40, 12)),
}


@pytest.mark.parametrize("name", sorted(TABLE_MODELS))
def test_row_batched_table_equals_per_cell_recursion(name):
    make, (T, k) = TABLE_MODELS[name]
    model = make()
    batched = compute_value_table(model, Horizon(T=T, k=k)).values
    per_cell = reference_value_table(model, Horizon(T=T, k=k)).values
    assert np.array_equal(batched, per_cell, equal_nan=True)


@pytest.mark.parametrize("local", [True, False], ids=["alp-local", "alp-global"])
def test_expected_max_array_call_equals_scalar_calls(local):
    model = alp_local_model(ALP_LDA, 10.0) if local else alp_global_model(ALP_LDA, 10.0)
    s = -1.0 if local else 1.0  # the sign of the regime
    # a forced claim, delta = 0 (the support side), the stop-loss side, and
    # for the global model delta beyond the cap, where the gain never reaches
    c1 = s * np.array([0.5, 0.0, 1.5, 0.0, 0.7, 2.0, 0.0, 1.0])
    c2 = np.array([-math.inf, 0.0, s * 1.5, s * 0.3, s * 2.5, s * 6.0, s * 12.0, s * 30.0])
    scalar = [model.expected_max(a, b) for a, b in zip(c1.tolist(), c2.tolist())]
    assert all(type(x) is float for x in scalar)
    assert np.array_equal(model.expected_max(c1, c2), scalar)
    grid = model.expected_max(c1.reshape(2, 4), c2.reshape(2, 4))
    assert grid.shape == (2, 4) and np.array_equal(grid.ravel(), scalar)
    # one element outside the regime spoils the whole call
    with pytest.raises(ValueError):
        model.expected_max(np.append(c1, s * 1.0), np.append(c2, s * 0.5))
    with pytest.raises(ValueError):
        model.expected_max(np.append(c1, -s * 1.0), np.append(c2, -s * 1.0))


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def _at_corners(**ranges):
    """An ``@example`` at every corner of the given ranges.

    The derandomized hypothesis profile seldom draws the ends of a range, so
    the sweeps below name them.
    """

    def add(test):
        for corner in itertools.product(*ranges.values()):
            test = example(**dict(zip(ranges, corner)))(test)
        return test

    return add


SWEEP_HORIZON = Horizon(T=6, k=3)


def _assert_valid_table(model, local: bool) -> None:
    """ROADMAP aim-3 invariants: finite, monotone in L, threshold signs."""
    table = compute_value_table(model, SWEEP_HORIZON)
    T, k = SWEEP_HORIZON.T, SWEEP_HORIZON.k
    for l in range(1, k + 1):
        column = table.values[l : T + 1, l]
        assert np.all(np.isfinite(column))
        assert np.all(np.diff(column) >= 0.0)
    b = thresholds(table)
    b = b[np.isfinite(b)]
    assert np.all(b <= 0.0) if local else np.all(b >= 0.0)


@given(
    rate=_log_uniform(0.1, 100.0),
    mu=_log_uniform(0.01, 100.0),
    lam=_log_uniform(0.01, 100.0),
    scale=_log_uniform(0.01, 100.0),
)
@_at_corners(rate=(0.1, 100.0), mu=(0.01, 100.0), lam=(0.01, 100.0), scale=(0.01, 100.0))
def test_contract_sweep_gives_valid_tables(rate, mu, lam, scale):
    # the policy parameter spans four decades around the mean annual loss
    lda = LDAModel(FrequencyModel(rate=rate), IGParams(mu=mu, lam=lam))
    param = scale * lda.mean_annual_loss
    alp_local, alp_global = alp_local_model(lda, param), alp_global_model(lda, param)
    _assert_valid_table(alp_local, local=True)
    _assert_valid_table(alp_global, local=False)
    _assert_valid_table(pap_local_model(lda, param), local=True)
    _assert_valid_table(ilp_local_model(ILPAuxModel(rate, IGParams(mu=mu, lam=lam))), local=True)
    total = alp_global.mean_gain - alp_local.mean_gain
    assert total == pytest.approx(lda.mean_annual_loss, rel=1e-9)


PAP_SWEEP = dict(
    rate=_log_uniform(0.1, 10.0),
    mu=_log_uniform(0.01, 100.0),
    lam=_log_uniform(0.01, 100.0),
    scale=_log_uniform(0.01, 100.0),
)


@settings(max_examples=30)  # a PAP-global table costs about 0.03 s here
@given(**PAP_SWEEP)
@_at_corners(rate=(0.1, 10.0), mu=(0.01, 100.0), lam=(0.01, 100.0), scale=(0.01, 100.0))
def test_pap_global_sweep_gives_valid_tables(rate, mu, lam, scale):
    lda = LDAModel(FrequencyModel(rate=rate), IGParams(mu=mu, lam=lam))
    _assert_valid_table(pap_global_model(lda, scale * lda.mean_annual_loss), local=False)


@pytest.mark.xfail(
    strict=True,
    reason="PAP-global's 128-node outer grid on (0, attachment) misses mass of a skewed "
    "severity: at rate 1, IG(10, 1), attachment 100 its mass is 1 + 3.1e-7 and the mean "
    "gains sum to E[Z] + 5.9e-5",
)
@example(rate=1.0, mu=10.0, lam=1.0, scale=10.0)
@settings(max_examples=10)
@given(**PAP_SWEEP)
def test_pap_sweep_mean_gains_sum_to_mean_loss(rate, mu, lam, scale):
    lda = LDAModel(FrequencyModel(rate=rate), IGParams(mu=mu, lam=lam))
    attachment = scale * lda.mean_annual_loss
    total = pap_global_model(lda, attachment).mean_gain - pap_local_model(lda, attachment).mean_gain
    assert total == pytest.approx(lda.mean_annual_loss, rel=1e-9)


def _assert_pap_models_equal_frozen(lda, attachment, local_horizon, global_horizon):
    """Both PAP models, built on one CrossingLaw, against the frozen
    construction of each, and PAP-global against the frozen per-delta inner
    integral, bit for bit."""
    local, frozen_local = pap_local_model(lda, attachment), FrozenPapLocal(lda, attachment)
    glob, frozen_glob = pap_global_model(lda, attachment), FrozenPapGlobal(lda, attachment)
    frozen_inner = FrozenPapInner(lda, attachment)
    smallest = float(np.min(glob._gaps))
    delta = np.concatenate((
        _pap_global_edge_deltas(glob),
        [smallest, smallest * (1.0 - 1e-9), 0.5 * smallest],  # at and below the smallest gap
        [1.001 * glob._s_cap, 1.001 * glob._x_hi],  # past s_cap and past x_hi
        np.linspace(-1.0, glob._s_cap + glob._x_hi, 64),
    ))
    assert np.array_equal(glob.stop_loss(delta), frozen_inner.stop_loss(delta))
    for live, frozen, horizon in (
        (local, frozen_local, local_horizon),
        (glob, frozen_glob, global_horizon),
        (glob, frozen_inner, global_horizon),
    ):
        assert live.mean_gain == frozen.mean_gain
        assert np.array_equal(
            compute_value_table(live, horizon).values,
            compute_value_table(frozen, horizon).values,
            equal_nan=True,
        )
    assert local.total_mass() == frozen_local.total_mass()
    assert glob.prob_zero_gain == frozen_glob.prob_zero_gain
    assert glob.continuous_mass() == frozen_glob.continuous_mass()


# (rate, mu, lambda, attachment): the pap-study preset, a skewed severity
# whose crossing law the grids do not resolve, two more contracts, and a
# concentrated severity: losses of sd 1e-5 about 0.01, so the ninth loss takes
# the running total past the attachment with probability one half
PAP_LAW_CASES = {
    "preset": (3.0, 1.0, 1.0, 4.0),
    "skewed": (1.0, 10.0, 1.0, 100.0),
    "rate-2": (2.0, 1.5, 1.0, 3.0),
    "rate-20": (20.0, 0.5, 2.0, 7.0),
    "concentrated": (3.0, 0.01, 1e4, 0.09),
}


@pytest.mark.parametrize("name", sorted(PAP_LAW_CASES))
def test_pap_models_on_one_crossing_law_equal_the_frozen_construction(name):
    rate, mu, lam, attachment = PAP_LAW_CASES[name]
    lda = LDAModel(FrequencyModel(rate=rate), IGParams(mu=mu, lam=lam))
    _assert_pap_models_equal_frozen(lda, attachment, Horizon(T=60, k=15), Horizon(T=16, k=6))


@example(rate=2.0, mu=1.5, lam=1.0, scale=1.0)
@example(rate=0.1, mu=100.0, lam=0.01, scale=0.01)
@example(rate=10.0, mu=0.01, lam=100.0, scale=100.0)
@settings(max_examples=20)
@given(**PAP_SWEEP)
def test_pap_sweep_models_equal_the_frozen_construction(rate, mu, lam, scale):
    lda = LDAModel(FrequencyModel(rate=rate), IGParams(mu=mu, lam=lam))
    attachment = scale * lda.mean_annual_loss
    _assert_pap_models_equal_frozen(lda, attachment, SWEEP_HORIZON, SWEEP_HORIZON)


@pytest.mark.parametrize(
    "name, n",
    [
        ("preset", 128),
        ("preset", 256),
        ("rate-2", 128),
        ("rate-2", 256),
        pytest.param(
            "skewed",
            128,
            marks=pytest.mark.xfail(
                strict=True,
                reason="a plain 128-node grid misses the crossing law of a skewed severity "
                "by 1.2e-6; a grid split at the IG-sum modes should close it",
            ),
        ),
        *(
            pytest.param(
                "concentrated",
                n,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="a plain grid misses the crossing law of a concentrated severity: "
                    f"P[M* = j] is off by {miss} at {n} nodes",
                ),
            )
            for n, miss in ((128, 4.09), (256, 0.50))
        ),
    ],
)
def test_crossing_law_matches_the_quad_crossing_pmf(name, n):
    # sum_q w cross f_{S_{j-1}} is P[M* = j]; mstar_pmf gives it in closed form
    rate, mu, lam, attachment = PAP_LAW_CASES[name]
    lda = LDAModel(FrequencyModel(rate=rate), IGParams(mu=mu, lam=lam))
    law = CrossingLaw(lda, attachment, n)
    assert law.sf[-1] == mstar_pmf(1, lda, attachment)
    for j in range(2, lda.m_max + 1):
        grid = np.sum(law.w * law.sf[:-1] * law.dens[j - 2])
        assert abs(grid - mstar_pmf(j, lda, attachment)) <= 1e-12


def test_gauss_legendre_rule_is_built_once_and_read_only():
    t, w = _gauss_legendre(128)
    assert _gauss_legendre(128)[0] is t
    fresh_t, fresh_w = np.polynomial.legendre.leggauss(128)
    assert np.array_equal(t, fresh_t) and np.array_equal(w, fresh_w)
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 0.0


@pytest.mark.parametrize("name", ["preset", "rate-2", "skewed"])
def test_mstar_pmf_matches_the_quad_oracle(name):
    # also past the count truncation, and bit for bit the pmf of the whole sweep
    rate, mu, lam, attachment = PAP_LAW_CASES[name]
    lda = LDAModel(FrequencyModel(rate=rate), IGParams(mu=mu, lam=lam))
    sweep = _crossing_pmf(lda, attachment, 1, lda.m_max)
    for j in range(1, lda.m_max + 4):
        p = mstar_pmf(j, lda, attachment)
        assert abs(p - crossing_pmf_quadrature(j, mu, lam, attachment)) <= 1e-12
        assert j > lda.m_max or p == sweep[j - 1]


def test_mstar_pmf_matches_mc_at_a_concentrated_contract(rng):
    rate, mu, lam, attachment = PAP_LAW_CASES["concentrated"]
    lda = LDAModel(FrequencyModel(rate=rate), IGParams(mu=mu, lam=lam))
    n, depth = 200_000, 12  # S_12 is 800 sd above the attachment
    running = np.cumsum(sample_ig(lda.severity, rng, size=(n, depth)), axis=1)
    crossing = 1 + np.sum(running <= attachment, axis=1)
    assert np.all(crossing <= depth)
    for j in range(1, depth + 1):
        p = mstar_pmf(j, lda, attachment)
        p_hat = float(np.mean(crossing == j))
        assert abs(p - p_hat) <= 4.0 * math.sqrt(p * (1.0 - p) / n)
    assert mstar_pmf(9, lda, attachment) == pytest.approx(0.5, abs=1e-3)


@given(
    rate=_log_uniform(0.1, 100.0),
    mu=_log_uniform(0.01, 100.0),
    lam=_log_uniform(1e-3, 1e4),
    scale=_log_uniform(1e-6, 1e3),
)
def test_mstar_pmf_sweep_is_a_partition(rate, mu, lam, scale):
    # sum_{j <= m} P[M* = j] + F_{S_m}(a) = 1 for every m, with no warning
    lda = LDAModel(FrequencyModel(rate=rate), IGParams(mu=mu, lam=lam))
    attachment = scale * lda.mean_annual_loss
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pmf = _crossing_pmf(lda, attachment, 1, lda.m_max)
        never = lda.mixture().tails(attachment).cdf
    assert np.all((pmf >= 0.0) & (pmf <= 1.0))
    assert np.max(np.abs(np.cumsum(pmf) + never - 1.0)) <= 1e-12


# ---------------------------------------------------------------- consistency


def test_ilp_local_global_split_recovers_total_mean(rng):
    # insured mean from one pathwise stream + gain mean from an independent
    # offline sample must rebuild the raw compound mean
    lda = LDAModel(FrequencyModel(rate=3.0), IGParams(mu=2.0, lam=3.0))
    tcl, n = 1.5, 4 * 10**5
    zt = ilp_insured_losses(lda, tcl, n, rng)
    w = ilp_global_sample(lda, tcl, n, seed=123).draws
    se = math.sqrt(zt.var() / n + w.var() / n)
    assert abs(zt.mean() + w.mean() - lda.mean_annual_loss) <= 3 * se


@pytest.mark.parametrize(
    "kind,objective,rate,severity,param",
    [
        ("ALP", "local", 3.0, IGParams(mu=0.5, lam=0.3), 75.0),
        ("ALP", "local", 3.0, IGParams(mu=2.0, lam=300.0), 30.0),
        ("PAP", "global", 30.0, IGParams(mu=2.0, lam=0.3), 3000.0),
    ],
    ids=["alp-local-tiny-excess", "alp-local-huge-shape", "pap-global-huge-attachment"],
)
def test_extreme_contracts_give_valid_tables(kind, objective, rate, severity, param):
    # well-posed contracts whose mean gain is roundoff around 0: once the
    # sign of that roundoff tripped the regime check mid-table
    lda = LDAModel(FrequencyModel(rate=rate), severity)
    builders = {
        "ALP": (alp_local_model, alp_global_model),
        "PAP": (pap_local_model, pap_global_model),
    }
    local, glob = (build(lda, param) for build in builders[kind])
    table = compute_value_table(local if objective == "local" else glob, Horizon(T=8, k=3))
    for l in range(1, 4):
        column = np.array([table.value(L, l) for L in range(l, 9)])
        assert np.all(np.isfinite(column))
        assert np.all(np.diff(column) >= 0.0)  # monotone in L
    b = thresholds(table)
    b = b[np.isfinite(b)]
    assert np.all(b <= 0.0) if objective == "local" else np.all(b >= 0.0)
    assert glob.mean_gain - local.mean_gain == pytest.approx(lda.mean_annual_loss, rel=1e-9)


# ---------------------------------------------------------------- config


def make_config():
    return {
        "frequency": {"rate": 3.0},
        "severity": {"mu": 2.0, "lambda": 3.0},
        "policy": {"kind": "ALP", "param": 10.0},
        "objective": "global",
        "mc": {"samples": 5000, "seed": 4},
    }


def test_config_roundtrip_builds_models():
    cfg = make_config()
    lda = lda_from_config(cfg)
    assert lda.frequency.rate == 3.0 and lda.severity.mu == 2.0
    spec = policy_from_config(cfg)
    assert spec.kind == "ALP" and spec.objective == "global"
    model = gain_model_from_config(cfg)
    assert model.mean_gain == pytest.approx(alp_global_model(lda, 10.0).mean_gain)

    cfg["objective"] = "local"
    assert gain_model_from_config(cfg).mean_gain == pytest.approx(
        alp_local_model(lda, 10.0).mean_gain
    )

    pap_cfg = make_config()
    pap_cfg["policy"] = {"kind": "PAP", "param": 4.0}
    assert gain_model_from_config(pap_cfg).mean_gain == pytest.approx(
        pap_global_model(lda, 4.0).mean_gain
    )

    ilp_cfg = {
        "policy": {"kind": "ILP", "param": 1.0},
        "objective": "local",
        "aux": {"rate": 4.0, "mu": 1.0, "lambda": 3.0},
    }
    assert gain_model_from_config(ilp_cfg).mean_gain == -4.0
    assert aux_from_config(ilp_cfg).aux_rate == 4.0

    ilp_global_cfg = make_config()
    ilp_global_cfg["policy"] = {"kind": "ILP", "param": 1.5}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ilp_global_cfg["mc"]["samples"] = 2000
        model = gain_model_from_config(ilp_global_cfg)
    assert model.mean_gain > 0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.pop("frequency"),
        lambda c: c["severity"].pop("mu"),
        lambda c: c["policy"].update(kind="XXX"),
        lambda c: c["policy"].update(param=-1.0),
        lambda c: c.update(objective="sideways"),
    ],
)
def test_config_errors(mutate):
    cfg = make_config()
    mutate(cfg)
    with pytest.raises(ConfigError):
        gain_model_from_config(cfg)


def test_lda_truncation_validation():
    # the truncation is derived, not given: the smallest count from the floor
    # rate + 10 sqrt(rate) on whose tail P[N >= m_max] falls below POISSON_TAIL;
    # the tail binds at the two small rates, the floor at the others
    for rate in (1e-3, 0.5, 3.0, 40.0, 400.0):
        freq = FrequencyModel(rate=rate)
        lda = LDAModel(freq, IGParams(mu=2.0, lam=3.0))
        floor = math.ceil(rate + 10 * math.sqrt(rate))
        assert lda.m_max == poisson_m_max(freq) >= floor
        assert poisson_sf(lda.m_max - 1, freq) < POISSON_TAIL
        assert lda.m_max == floor or poisson_sf(lda.m_max - 2, freq) >= POISSON_TAIL
        assert lda.mixture().pm.size == lda.m_max
        # a config's m_max is not read
        cfg = {"frequency": {"rate": rate}, "severity": {"mu": 2.0, "lambda": 3.0}, "m_max": 5}
        assert lda_from_config(cfg) == lda
    with pytest.raises(TypeError):
        LDAModel(FrequencyModel(rate=3.0), IGParams(mu=2.0, lam=3.0), m_max=5)
