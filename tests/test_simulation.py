import math

import numpy as np
import pytest
from scipy.stats import chisquare

from multistop.distributions import FrequencyModel, IGParams
from multistop.experiments import preset_config, run_experiment
from multistop.policies import GLOBAL, LOCAL, ConfigError, ILPAuxModel, LDAModel, PolicySpec
from multistop.policies import alp_global_model, alp_local_model, lda_from_config
from multistop.simulation import (
    _BLOCK,
    ComparisonRule,
    compare_rules,
    default_rules,
    exceedance_probability,
    objective_values,
    price_proxy,
    reference_lines,
    rule_claim_years,
    simulate_aux_local_batch,
    simulate_batch,
    stopping_time_distribution,
)
from multistop.stopping import Horizon, compute_value_table
from sim_reference import reference_simulate_aux_local_batch, reference_simulate_batch

LDA = LDAModel(FrequencyModel(rate=3.0), IGParams(mu=2.0, lam=3.0))
ALP_GLOBAL = PolicySpec(kind="ALP", param=10.0, objective=GLOBAL)
ALP_LOCAL = PolicySpec(kind="ALP", param=10.0, objective=LOCAL)


@pytest.fixture(scope="module")
def small_batch():
    return simulate_batch(LDA, ALP_GLOBAL, horizon_years=8, n_scenarios=2000, seed=77)


@pytest.fixture(scope="module")
def global_table():
    return compute_value_table(alp_global_model(LDA, 10.0), Horizon(T=8, k=3))


def test_seed_determinism():
    a = simulate_batch(LDA, ALP_GLOBAL, 8, 500, seed=3)
    b = simulate_batch(LDA, ALP_GLOBAL, 8, 500, seed=3)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.z_tilde, b.z_tilde)
    assert np.array_equal(a.w, b.w)
    c = simulate_batch(LDA, ALP_GLOBAL, 8, 500, seed=4)
    assert not np.array_equal(a.z, c.z)


def test_pathwise_gain_definitions(small_batch):
    assert np.array_equal(small_batch.w, small_batch.z - small_batch.z_tilde)
    assert np.all(small_batch.z_tilde >= 0)
    assert np.all(small_batch.z + 1e-12 >= small_batch.z_tilde)
    local = simulate_batch(LDA, ALP_LOCAL, 8, 500, seed=3)
    assert np.array_equal(local.w, -local.z_tilde)


def test_alp_infinite_cap_insures_everything():
    wide = PolicySpec(kind="ALP", param=1e12, objective=LOCAL)
    batch = simulate_batch(LDA, wide, 5, 400, seed=9)
    assert np.all(batch.z_tilde == 0.0)


def test_pap_year_accounting():
    policy = PolicySpec(kind="PAP", param=4.0, objective=GLOBAL)
    lda = LDAModel(FrequencyModel(rate=3.0), IGParams(mu=1.0, lam=1.0))
    batch = simulate_batch(lda, policy, 6, 800, seed=10)
    np.testing.assert_allclose(batch.z_tilde + batch.w, batch.z, rtol=0, atol=1e-12)


def test_aux_batch_shape_and_signs():
    aux = ILPAuxModel(aux_rate=4.0, aux_severity=IGParams(mu=1.0, lam=3.0))
    batch = simulate_aux_local_batch(aux, 8, 600, seed=21)
    assert batch.objective == LOCAL
    assert np.array_equal(batch.w, -batch.z_tilde)
    assert np.array_equal(batch.z, batch.z_tilde)


@pytest.mark.parametrize("horizon_years, n_scenarios, seed", [(8, 0, 1), (8, -5, 1), (0, 10, 1), (8, 10, -1)])
def test_simulators_reject_bad_sizes_and_seeds(horizon_years, n_scenarios, seed):
    aux = ILPAuxModel(aux_rate=4.0, aux_severity=IGParams(mu=1.0, lam=3.0))
    with pytest.raises(ConfigError):
        simulate_batch(LDA, ALP_GLOBAL, horizon_years, n_scenarios, seed)
    with pytest.raises(ConfigError):
        simulate_aux_local_batch(aux, horizon_years, n_scenarios, seed)


# ---------------------------------------------------------------- bit identity

# Rate 0.05 leaves most years empty, 40 gives years of 9+ losses (numpy's
# unrolled pairwise sum) and 150 years of 128+ (its recursive split).
REFERENCE_CASES = [
    (rate, n) for rate in (0.05, 40.0) for n in (1, _BLOCK, _BLOCK + 1)
] + [(150.0, 40)]


def _assert_same_panels(got, want):
    assert got.objective == want.objective
    for field in ("z", "z_tilde", "w"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("kind, param", [("ALP", 10.0), ("PAP", 4.0), ("ILP", 1.0)])
@pytest.mark.parametrize("rate, n", REFERENCE_CASES)
def test_simulate_batch_matches_frozen_loops(kind, param, rate, n):
    lda = LDAModel(FrequencyModel(rate=rate), IGParams(mu=1.0, lam=1.5))
    for objective in (GLOBAL, LOCAL):
        policy = PolicySpec(kind=kind, param=param, objective=objective)
        _assert_same_panels(
            simulate_batch(lda, policy, 3, n, seed=11),
            reference_simulate_batch(lda, policy, 3, n, seed=11),
        )


@pytest.mark.parametrize("rate, n", REFERENCE_CASES)
def test_aux_batch_matches_frozen_loop(rate, n):
    aux = ILPAuxModel(aux_rate=rate, aux_severity=IGParams(mu=1.0, lam=3.0))
    _assert_same_panels(
        simulate_aux_local_batch(aux, 3, n, seed=12),
        reference_simulate_aux_local_batch(aux, 3, n, seed=12),
    )


@pytest.mark.parametrize("kind, param", [("ALP", 10.0), ("PAP", 4.0), ("ILP", 1.0)])
def test_shared_panel_equals_fresh_simulation(kind, param):
    for first, second in ((GLOBAL, LOCAL), (LOCAL, GLOBAL)):
        batch = simulate_batch(LDA, PolicySpec(kind, param, first), 8, 300, seed=4)
        fresh = simulate_batch(LDA, PolicySpec(kind, param, second), 8, 300, seed=4)
        _assert_same_panels(batch.with_objective(second), fresh)


def test_run_experiment_second_objective_matches_its_own_simulation():
    cfg = preset_config("alp-study")
    first, second = cfg["objectives"]
    lda = lda_from_config(cfg)
    report = run_experiment("alp-study", seed=3, n_scenarios=500)
    batch = simulate_batch(lda, PolicySpec("ALP", 10.0, second), 8, 500, seed=3)
    model = {GLOBAL: alp_global_model, LOCAL: alp_local_model}[second](lda, 10.0)
    table = compute_value_table(model, Horizon(T=8, k=3))
    rr = compare_rules(batch, table, default_rules(cfg["deterministic_years"]), 3, lda=lda)
    got = report["objectives"][second]["rules"]
    assert {out.name: out.mean for out in rr.outcomes} == {name: v["mean"] for name, v in got.items()}


# ---------------------------------------------------------------- rules


def test_every_rule_claims_exactly_k(small_batch, global_table):
    for rule in default_rules([1, 5, 8]):
        taus = rule_claim_years(small_batch, global_table, rule)
        assert taus.shape == (small_batch.n_scenarios, 3)
        assert np.all(taus[:, 0] >= 1) and np.all(taus[:, 2] <= 8)
        assert np.all(np.diff(taus, axis=1) >= 1)
        for i in range(3):
            assert np.all(taus[:, i] <= 8 - 3 + i + 1)


def test_deterministic_rule_uses_fixed_years(small_batch, global_table):
    taus = rule_claim_years(
        small_batch, global_table, ComparisonRule("deterministic", (1, 5, 8))
    )
    assert np.all(taus == np.array([1, 5, 8]))


def test_random_rule_is_uniform_over_triples(global_table):
    batch = simulate_batch(LDA, ALP_GLOBAL, 8, 56 * 250, seed=5)
    taus = rule_claim_years(batch, global_table, ComparisonRule("random"))
    keys = [tuple(row) for row in taus]
    from itertools import combinations

    combos = [tuple(y + 1 for y in c) for c in combinations(range(8), 3)]
    counts = np.array([keys.count(c) for c in combos])
    assert counts.sum() == len(keys)
    stat = chisquare(counts)
    assert stat.pvalue > 0.01


def test_average_rule_matches_manual_walk(small_batch, global_table):
    taus = rule_claim_years(small_batch, global_table, ComparisonRule("average"))
    ew = global_table.value(1, 1)
    w = small_batch.w
    for row in range(50):
        used = 0
        expected = []
        for year in range(1, 9):
            if used == 3:
                break
            forced = (8 - year + 1) <= (3 - used)
            if forced or w[row, year - 1] >= ew:
                expected.append(year)
                used += 1
        assert list(taus[row]) == expected


def test_rules_validation(small_batch, global_table):
    with pytest.raises(ConfigError):
        ComparisonRule("deterministic", (5, 1, 8))
    with pytest.raises(ConfigError):
        ComparisonRule("bogus")
    with pytest.raises(ConfigError):
        rule_claim_years(small_batch, global_table, ComparisonRule("deterministic", (1, 2)))


# ---------------------------------------------------------------- reports


def test_objective_accounting_identity(small_batch, global_table):
    for rule in default_rules([1, 5, 8]):
        taus = rule_claim_years(small_batch, global_table, rule)
        vals = objective_values(small_batch, taus)
        rows = np.arange(small_batch.n_scenarios)[:, None]
        claimed = small_batch.w[rows, taus - 1].sum(axis=1)
        np.testing.assert_allclose(
            vals + claimed, small_batch.z.sum(axis=1), rtol=0, atol=1e-9
        )


def test_reference_lines_values(global_table):
    local_table = compute_value_table(alp_local_model(LDA, 10.0), Horizon(T=8, k=3))
    assert reference_lines(local_table, LDA, LOCAL) == -local_table.value(8, 3)
    expected = LDA.mean_annual_loss * 8 - global_table.value(8, 3)
    assert reference_lines(global_table, LDA, GLOBAL) == pytest.approx(expected)
    with pytest.raises(ConfigError):
        reference_lines(global_table, None, GLOBAL)


def test_compare_rules_report_structure(small_batch, global_table):
    report = compare_rules(
        small_batch, global_table, default_rules([1, 5, 8]), 3, lda=LDA
    )
    names = [o.name for o in report.outcomes]
    assert names == ["optimal", "deterministic", "random", "average"]
    for out in report.outcomes:
        assert out.hist_counts.sum() == small_batch.n_scenarios
        assert out.stderr > 0
    assert 0.0 <= report.paired_pvalue("random") <= 1.0


def test_optimal_rule_tracks_reference(global_table):
    batch = simulate_batch(LDA, ALP_GLOBAL, 8, 10_000, seed=31)
    report = compare_rules(batch, global_table, default_rules([1, 5, 8]), 3, lda=LDA)
    opt = report.outcome("optimal")
    assert abs(opt.mean - report.reference_solid) <= 3 * opt.stderr


def test_stopping_time_distribution_support(small_batch, global_table):
    dist = stopping_time_distribution(small_batch, global_table, 3)
    assert sum(dist.values()) == small_batch.n_scenarios
    for taus in dist:
        assert 1 <= taus[0] < taus[1] < taus[2] <= 8


def test_stopping_time_distribution_matches_row_loop(small_batch, global_table):
    taus = rule_claim_years(small_batch, global_table, ComparisonRule("optimal"))
    expected: dict = {}
    for row in taus:
        key = tuple(int(t) for t in row)
        expected[key] = expected.get(key, 0) + 1
    dist = stopping_time_distribution(small_batch, global_table, 3)
    assert list(dist.items()) == sorted(expected.items())
    assert all(type(t) is int for key in dist for t in key)
    assert all(type(c) is int for c in dist.values())


def test_price_proxy_nonnegative_and_consistent(global_table):
    batch = simulate_batch(LDA, ALP_GLOBAL, 8, 10_000, seed=13)
    proxy = price_proxy(batch, global_table, 3)
    assert proxy >= 0.0
    # claimed-gain mean equals the game value within MC noise
    taus = rule_claim_years(batch, global_table, ComparisonRule("optimal"))
    rows = np.arange(batch.n_scenarios)[:, None]
    claimed = batch.w[rows, taus - 1].sum(axis=1)
    se = claimed.std(ddof=1) / math.sqrt(claimed.size)
    assert abs(proxy - global_table.value(8, 3)) <= 3 * se
    local = simulate_batch(LDA, ALP_LOCAL, 8, 100, seed=13)
    with pytest.raises(ConfigError):
        price_proxy(local, global_table, 3)


def test_exceedance_probability_matches_mc(small_batch):
    p = exceedance_probability(LDA, 10.0)
    hat = float(np.mean(small_batch.z > 10.0))
    se = math.sqrt(hat * (1 - hat) / small_batch.z.size)
    assert abs(p - hat) <= 3 * se


def test_compare_rules_dimension_checks(small_batch, global_table):
    with pytest.raises(ConfigError):
        compare_rules(small_batch, global_table, default_rules([1, 5, 8]), 2, lda=LDA)
    short = simulate_batch(LDA, ALP_GLOBAL, 7, 50, seed=1)
    with pytest.raises(ConfigError):
        compare_rules(short, global_table, default_rules([1, 5, 8]), 3, lda=LDA)
