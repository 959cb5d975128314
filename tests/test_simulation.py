import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import multistop
from multistop.distributions import FrequencyModel, IGParams, _ig_transform
import multistop.experiments
from multistop.experiments import EXPERIMENT_PRESETS, preset_config, run_experiment
from multistop.policies import GLOBAL, LOCAL, ConfigError, ILPAuxModel, LDAModel, PolicySpec
from multistop.policies import (
    alp_global_model,
    alp_local_model,
    gain_model_from_config,
    horizon_from_config,
    lda_from_config,
    policy_choice,
    policy_from_config,
)
from multistop.simulation import (
    _BLOCK,
    _CHUNK,
    STREAMS,
    _Replay,
    _random_claim_years,
    _rule_walk,
    _simulate,
    ComparisonRule,
    compare_rules,
    default_rules,
    exceedance_probability,
    price_proxy,
    reference_lines,
    simulate_aux_local_batch,
    simulate_batch,
    stopping_time_distribution,
)
from multistop.stopping import (
    Decision,
    Horizon,
    StoppingState,
    claim_years,
    compute_value_table,
    decide,
    thresholds,
)
from quad_oracle import upper_tail_quadrature
from sim_reference import (
    reference_claim_years,
    reference_random_claim_years,
    reference_simulate_aux_local_batch,
    reference_simulate_batch,
)

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
    assert batch.z is batch.z_tilde  # one panel, not a copy


@pytest.mark.parametrize("horizon_years, n_scenarios, seed", [(8, 0, 1), (8, -5, 1), (0, 10, 1), (8, 10, -1)])
def test_simulators_reject_bad_sizes_and_seeds(horizon_years, n_scenarios, seed):
    aux = ILPAuxModel(aux_rate=4.0, aux_severity=IGParams(mu=1.0, lam=3.0))
    with pytest.raises(ConfigError):
        simulate_batch(LDA, ALP_GLOBAL, horizon_years, n_scenarios, seed)
    with pytest.raises(ConfigError):
        simulate_aux_local_batch(aux, horizon_years, n_scenarios, seed)


# ---------------------------------------------------------------- bit identity

# Rate 0.05 leaves most years empty, and at seeds 11 and 12 the one-row
# second block of 1025 scenarios draws no loss at all; 40, 150 and 256 give
# years of 9+, 128+ and 255+ losses, where numpy's pairwise sum would part
# from a left-to-right one.
REFERENCE_CASES = [
    (rate, n) for rate in (0.05, 40.0) for n in (1, _BLOCK, _BLOCK + 1)
] + [(150.0, 40), (256.0, 2)]


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


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@settings(max_examples=20)
@given(
    rate=_log_uniform(1e-3, 100.0),
    mu=_log_uniform(0.1, 10.0),
    lam=_log_uniform(0.1, 10.0),
    param=_log_uniform(0.1, 50.0),
    n=st.integers(1, 1100),
    T=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(rate=20.0, mu=0.5, lam=2.0, param=3.0, n=1100, T=2, seed=7)  # two blocks, long years
def test_simulators_match_frozen_loops_across_contracts(rate, mu, lam, param, n, T, seed):
    severity = IGParams(mu=mu, lam=lam)
    lda = LDAModel(FrequencyModel(rate=rate), severity)
    for kind in ("ALP", "ILP", "PAP"):
        policy = PolicySpec(kind=kind, param=param, objective=GLOBAL)
        _assert_same_panels(
            simulate_batch(lda, policy, T, n, seed),
            reference_simulate_batch(lda, policy, T, n, seed),
        )
    aux = ILPAuxModel(aux_rate=rate, aux_severity=severity)
    _assert_same_panels(
        simulate_aux_local_batch(aux, T, n, seed),
        reference_simulate_aux_local_batch(aux, T, n, seed),
    )


def test_pap_years_of_every_shape_match_frozen_loops():
    lda = LDAModel(FrequencyModel(rate=1.0), IGParams(mu=1.0, lam=1.0))
    policy = PolicySpec(kind="PAP", param=1.0, objective=GLOBAL)
    batch = simulate_batch(lda, policy, 3, 1000, seed=5)
    _assert_same_panels(batch, reference_simulate_batch(lda, policy, 3, 1000, seed=5))
    z, zt = batch.z, batch.z_tilde
    assert np.any(z == 0.0)  # no losses
    assert np.any((z > 0.0) & (zt == 0.0))  # the first loss exceeds the attachment
    assert np.any((z > 0.0) & (zt == z))  # the total is within the attachment
    assert np.any((zt > 0.0) & (zt < z))  # a later loss crosses it


def _assert_prefixes_of_a_larger_batch(simulate):
    full = simulate(5000)
    for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3000):
        head = replace(full, z=full.z[:n], z_tilde=full.z_tilde[:n], w=full.w[:n])
        _assert_same_panels(simulate(n), head)


@pytest.mark.parametrize("kind, param", [("ALP", 10.0), ("PAP", 4.0), ("ILP", 1.0)])
def test_simulate_batch_is_a_prefix_of_larger_batches(kind, param):
    policy = PolicySpec(kind=kind, param=param, objective=GLOBAL)
    _assert_prefixes_of_a_larger_batch(lambda n: simulate_batch(LDA, policy, 8, n, seed=6))


def test_aux_batch_is_a_prefix_of_larger_batches():
    aux = ILPAuxModel(aux_rate=4.0, aux_severity=IGParams(mu=1.0, lam=3.0))
    _assert_prefixes_of_a_larger_batch(lambda n: simulate_aux_local_batch(aux, 8, n, seed=6))


def test_kernel_draws_only_the_losses_of_kept_rows(monkeypatch):
    sizes = []

    def spy(severity, normal, uniform):
        sizes.append((normal.size, uniform.size))
        return _ig_transform(severity, normal, uniform)

    monkeypatch.setattr("multistop.simulation._ig_transform", spy)
    lda = LDAModel(FrequencyModel(rate=150.0), IGParams(mu=1.0, lam=1.5))
    simulate_batch(lda, ALP_GLOBAL, 40, 1, seed=11)
    counts_rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(0, 0)))
    total = int(counts_rng.poisson(150.0, (1, 40)).sum())
    assert sizes == [(total, total)]


def test_report_records_seed_streams_and_version(tmp_path):
    returned = run_experiment("ilp-study", out_dir=tmp_path, seed=5, n_scenarios=200)
    written = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    for report in (returned, written):
        assert report["seed"] == 5
        assert report["streams"] == STREAMS
        assert report["version"] == multistop.__version__


@pytest.mark.parametrize("kind, param", [("ALP", 10.0), ("PAP", 4.0), ("ILP", 1.0)])
def test_shared_panel_equals_fresh_simulation(kind, param):
    # the draws do not depend on the objective, so a study's objectives share each chunk
    glob = simulate_batch(LDA, PolicySpec(kind, param, GLOBAL), 8, 300, seed=4)
    local = simulate_batch(LDA, PolicySpec(kind, param, LOCAL), 8, 300, seed=4)
    assert np.array_equal(glob.z, local.z) and np.array_equal(glob.z_tilde, local.z_tilde)
    assert np.array_equal(glob.w, local.z - local.z_tilde)
    assert np.array_equal(local.w, -glob.z_tilde)


@pytest.mark.parametrize("kind, param", [("ALP", 10.0), ("PAP", 4.0), ("ILP", 1.0), ("ILP-aux", None)])
def test_study_chunks_are_the_rows_of_one_batch(kind, param):
    # whole stream blocks per chunk, the last chunk short
    n = 2 * _CHUNK + _BLOCK + 5
    if kind == "ILP-aux":
        aux = ILPAuxModel(aux_rate=4.0, aux_severity=IGParams(mu=1.0, lam=3.0))
        batch = simulate_aux_local_batch(aux, 8, n, seed=6)
        chunks = list(_simulate(aux.lda, None, 8, n, seed=6))
        assert all(z is zt for z, zt in chunks)
    else:
        policy = PolicySpec(kind, param, GLOBAL)
        batch = simulate_batch(LDA, policy, 8, n, seed=6)
        chunks = list(_simulate(LDA, policy, 8, n, seed=6))
    assert [len(z) for z, _ in chunks] == [_CHUNK, _CHUNK, _BLOCK + 5]
    assert np.array_equal(np.concatenate([z for z, _ in chunks]), batch.z)
    assert np.array_equal(np.concatenate([zt for _, zt in chunks]), batch.z_tilde)


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


@pytest.mark.parametrize("T, k, years", [
    (8, 1, [1]), (8, 2, [1, 8]), (8, 3, [1, 5, 8]), (8, 4, [1, 4, 6, 8]), (2, 1, [1]),
])
def test_run_experiment_spreads_default_deterministic_years(T, k, years):
    cfg = preset_config("alp-study")
    del cfg["deterministic_years"]
    cfg["horizon"] = {"T": T, "k": k}
    report = run_experiment(cfg, seed=3, n_scenarios=200)
    for entry in report["objectives"].values():
        assert entry["deterministic_years"] == years
    # the default at k = 3 is the presets' own choice at T = 8
    if k == 3:
        assert years == [1, T // 2 + 1, T] == preset_config("alp-study")["deterministic_years"]


def test_run_experiment_draws_the_random_rule_once_per_study(monkeypatch):
    # once per chunk, from one generator read on, and shared by the objectives
    draws = []
    real = multistop.simulation._random_claim_years

    def keeping(*args):
        draws.append(real(*args))
        return draws[-1]

    monkeypatch.setattr(multistop.simulation, "_random_claim_years", keeping)
    run_experiment("alp-study", seed=3, n_scenarios=5000)
    assert [len(taus) for taus in draws] == [_CHUNK, 5000 - _CHUNK]
    assert np.array_equal(np.concatenate(draws), reference_random_claim_years(3, 5000, 8, 3))


def test_run_experiment_walks_the_threshold_rule_once_per_objective(monkeypatch):
    # once per objective and chunk: the tally and the price proxy reuse its walk
    walks = []
    real = multistop.simulation.claim_years

    def counting(w, b):
        walks.append((len(w), b))
        return real(w, b)

    monkeypatch.setattr(multistop.simulation, "claim_years", counting)
    report = run_experiment("alp-study", seed=3, n_scenarios=5000)
    for model in (alp_global_model(LDA, 10.0), alp_local_model(LDA, 10.0)):
        b = thresholds(compute_value_table(model, Horizon(T=8, k=3)))
        assert [n for n, seen in walks if np.array_equal(seen, b)] == [_CHUNK, 5000 - _CHUNK]
    assert len(walks) == 2 * 2 * 2  # the threshold and average rules, per objective and chunk
    assert "price_proxy" in report["objectives"][GLOBAL]


@pytest.mark.parametrize("preset", ["pap-study", "ilp-study"])
def test_run_experiment_accepts_a_lowercase_policy_kind(preset):
    # and upper-case objectives: both strings are read in any case
    upper = preset_config(preset)
    recased = preset_config(preset)
    recased["policy"]["kind"] = upper["policy"]["kind"].lower()
    recased["objectives"] = [objective.upper() for objective in upper["objectives"]]
    expected = run_experiment(upper, seed=5, n_scenarios=200)
    assert json.dumps(run_experiment(recased, seed=5, n_scenarios=200)) == json.dumps(expected)


@pytest.mark.parametrize("objectives", [[], ["global", "GLOBAL"], ["local", "global", "local"]])
def test_run_experiment_needs_distinct_objectives(objectives):
    cfg = {**preset_config("alp-study"), "objectives": objectives}
    with pytest.raises(ConfigError, match="objectives"):
        run_experiment(cfg, seed=5, n_scenarios=200)


@pytest.mark.parametrize("preset", sorted(EXPERIMENT_PRESETS))
def test_run_experiment_simulates_once_per_study(monkeypatch, preset):
    calls = []
    real = multistop.experiments._simulate

    def counting(lda, policy, *args):
        calls.append((lda, policy))
        return real(lda, policy, *args)

    monkeypatch.setattr(multistop.experiments, "_simulate", counting)
    run_experiment(preset, seed=5, n_scenarios=200)
    ((lda, policy),) = calls
    cfg = preset_config(preset)
    if preset == "ilp-study":
        assert policy is None and lda == multistop.policies.aux_from_config(cfg).lda
    else:
        assert lda == lda_from_config(cfg) and (policy.kind, policy.param) == (
            cfg["policy"]["kind"], cfg["policy"]["param"],
        )


def test_run_experiment_without_a_horizon_is_a_config_error():
    cfg = preset_config("ilp-study")
    del cfg["horizon"]
    with pytest.raises(ConfigError, match="horizon"):
        run_experiment(cfg, seed=5, n_scenarios=200)


@pytest.mark.parametrize(
    "drop, given",
    [("mc", {}), ("mc", {"seed": 5}), ("mc", {"n_scenarios": 200}),
     ("samples", {"seed": 5}), ("seed", {"n_scenarios": 200})],
)
def test_run_experiment_without_mc_settings_is_a_config_error(drop, given):
    cfg = preset_config("ilp-study")
    if drop == "mc":
        del cfg["mc"]
    else:
        del cfg["mc"][drop]
    with pytest.raises(ConfigError, match=repr(drop)):
        run_experiment(cfg, **given)
    # passing both settings makes the block unnecessary
    assert run_experiment(cfg, seed=5, n_scenarios=200)["n_scenarios"] == 200


# ---------------------------------------------------------------- rules


def _replay_random_years(batch, table):
    """The random rule's years on the batch: the first draws of a study replay's generator."""
    replay = _Replay({batch.objective: table}, [], batch.n_scenarios, batch.seed)
    return _random_claim_years(replay._rng, batch.n_scenarios, table.T, table.k)


def test_every_rule_claims_exactly_k(small_batch, global_table):
    random_taus = _replay_random_years(small_batch, global_table)
    for rule in default_rules([1, 5, 8]):
        taus = _rule_walk(global_table, rule)(small_batch.w, random_taus)
        assert taus.shape == (small_batch.n_scenarios, 3)
        assert np.all(taus[:, 0] >= 1) and np.all(taus[:, 2] <= 8)
        assert np.all(np.diff(taus, axis=1) >= 1)
        for i in range(3):
            assert np.all(taus[:, i] <= 8 - 3 + i + 1)


def test_deterministic_rule_uses_fixed_years(small_batch, global_table):
    taus = _rule_walk(global_table, ComparisonRule("deterministic", (1, 5, 8)))(small_batch.w, None)
    assert np.all(taus == np.array([1, 5, 8]))


def test_random_rule_is_uniform_over_triples(global_table):
    batch = simulate_batch(LDA, ALP_GLOBAL, 8, 56 * 250, seed=5)
    taus = _replay_random_years(batch, global_table)
    keys = [tuple(row) for row in taus]
    from itertools import combinations

    combos = [tuple(y + 1 for y in c) for c in combinations(range(8), 3)]
    counts = np.array([keys.count(c) for c in combos])
    assert counts.sum() == len(keys)
    stat = chisquare(counts)
    assert stat.pvalue > 0.01


@pytest.mark.parametrize("T, k", [(8, 1), (8, 3), (8, 7), (40, 12)])
def test_random_rule_keeps_its_years(T, k):
    table = compute_value_table(alp_global_model(LDA, 10.0), Horizon(T=T, k=k))
    for seed in (0, 1, 5, 77, 2**40 + 3):
        batch = simulate_batch(LDA, ALP_GLOBAL, T, 300, seed=seed)
        taus = _replay_random_years(batch, table)
        assert np.array_equal(taus, reference_random_claim_years(seed, 300, T, k))


def test_average_rule_matches_manual_walk(small_batch, global_table):
    taus = _rule_walk(global_table, ComparisonRule("average"))(small_batch.w, None)
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


def _scalar_optimal_walk(gains, table):
    """Claim years of one path, one ``StoppingState`` and ``decide`` per year."""
    horizon = Horizon(T=table.T, k=table.k)
    taus = []
    for year in range(1, table.T + 1):
        if len(taus) == table.k:
            break
        state = StoppingState(year=year, rights_used=len(taus), horizon=horizon, table=table)
        if decide(state, float(gains[year - 1])) is Decision.CLAIM:
            taus.append(year)
    return taus


@pytest.mark.parametrize("objective", [GLOBAL, LOCAL])
@pytest.mark.parametrize("T, k, n", [(8, 3, 2000), (40, 12, 300)])
def test_optimal_rule_matches_online_decisions(objective, T, k, n):
    model = {GLOBAL: alp_global_model, LOCAL: alp_local_model}[objective](LDA, 10.0)
    table = compute_value_table(model, Horizon(T=T, k=k))
    policy = PolicySpec(kind="ALP", param=10.0, objective=objective)
    batch = simulate_batch(LDA, policy, T, n, seed=41)
    taus = _rule_walk(table, ComparisonRule("optimal"))(batch.w, None)
    for row in range(n):
        assert list(taus[row]) == _scalar_optimal_walk(batch.w[row], table)


def test_rules_validation(small_batch, global_table):
    with pytest.raises(ConfigError):
        ComparisonRule("deterministic", (5, 1, 8))
    with pytest.raises(ConfigError):
        ComparisonRule("bogus")
    with pytest.raises(ConfigError):
        _rule_walk(global_table, ComparisonRule("deterministic", (1, 2)))


# ---------------------------------------------------------------- reports


def test_objective_accounting_identity(small_batch, global_table):
    # each rule's realized objective plus its claimed gains is the total loss
    # (global) or nothing (local), under both objectives of one replay
    local_table = compute_value_table(alp_local_model(LDA, 10.0), Horizon(T=8, k=3))
    tables = {GLOBAL: global_table, LOCAL: local_table}
    rules = default_rules([1, 5, 8])
    replay = _Replay(tables, rules, small_batch.n_scenarios, small_batch.seed)
    replay.add(small_batch.z, small_batch.z_tilde)
    random_taus = _replay_random_years(small_batch, global_table)
    rows = np.arange(small_batch.n_scenarios)[:, None]
    for objective, table in tables.items():
        w = small_batch.w if objective == GLOBAL else -small_batch.z_tilde
        total = small_batch.z.sum(axis=1) if objective == GLOBAL else 0.0
        for rule, vals in zip(rules, replay.values[objective]):
            taus = _rule_walk(table, rule)(w, random_taus)
            claimed = w[rows, taus - 1].sum(axis=1)
            np.testing.assert_allclose(vals + claimed, total, rtol=0, atol=1e-9)


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
    taus = claim_years(small_batch.w, thresholds(global_table))
    expected: dict = {}
    for row in taus:
        key = tuple(int(t) for t in row)
        expected[key] = expected.get(key, 0) + 1
    dist = stopping_time_distribution(small_batch, global_table, 3)
    assert list(dist.items()) == sorted(expected.items())
    assert all(type(t) is int for key in dist for t in key)
    assert all(type(c) is int for c in dist.values())


def _repeated_long_rows():
    """2,000 claim-year rows at T=40, k=12, about ten of each of 200 rows,
    with the first and the last row in lexicographic order among them."""
    rows = reference_random_claim_years(9, 200, 40, 12)
    rows[:2] = [np.arange(1, 13), np.arange(29, 41)]
    return rows[np.random.default_rng(1).integers(0, 200, 2000)]


@pytest.mark.parametrize(
    "T, taus",
    [
        (8, np.array([[2, 5, 7], [1, 2, 3], [2, 5, 7], [1, 2, 8], [1, 2, 3], [2, 5, 7], [1, 3, 4]])),
        (8, np.array([[4], [1], [4], [8], [1], [4]])),
        (8, np.array([[3, 6, 8]])),
        # 41**12 > 2**63: the row keys must be re-ranked before they overflow
        (40, _repeated_long_rows()),
    ],
    ids=["repeated", "k1", "one-scenario", "T40-k12"],
)
def test_stopping_time_distribution_matches_unique_tally(monkeypatch, T, taus):
    # the claim years are fixed, so only the tally is under test
    monkeypatch.setattr(multistop.simulation, "claim_years", lambda *args: taus)
    table = compute_value_table(alp_global_model(LDA, 10.0), Horizon(T=T, k=taus.shape[1]))
    batch = simulate_batch(LDA, ALP_GLOBAL, T, len(taus), seed=77)
    keys, counts = np.unique(taus, axis=0, return_counts=True)
    expected = {tuple(key): count for key, count in zip(keys.tolist(), counts.tolist())}
    dist = stopping_time_distribution(batch, table, taus.shape[1])
    assert list(dist.items()) == list(expected.items())
    assert all(type(t) is int for key in dist for t in key)
    assert all(type(c) is int for c in dist.values())


def test_price_proxy_nonnegative_and_consistent(global_table):
    batch = simulate_batch(LDA, ALP_GLOBAL, 8, 10_000, seed=13)
    proxy = price_proxy(batch, global_table, 3)
    assert proxy >= 0.0
    # claimed-gain mean equals the game value within MC noise
    taus = claim_years(batch.w, thresholds(global_table))
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


@pytest.mark.parametrize("cap", [40.0, 80.0, 120.0, 160.0, 200.0])
def test_exceedance_probability_keeps_the_far_tail(cap):
    # the same truncated count mixture, each branch's tail by quadrature; at
    # cap 200 the probability is about 2e-31, far below 1 - F's resolution
    mix = LDA.mixture()
    exact = sum(
        p * upper_tail_quadrature(cap, m_mu, beta) for p, m_mu, beta in zip(mix.pm, mix.m_mu, mix.beta)
    )
    assert exact > 0.0
    assert exceedance_probability(LDA, cap) == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_compare_rules_dimension_checks(small_batch, global_table):
    # the three readings of a batch share one check of k and of the horizon
    readings = [
        lambda batch, k: compare_rules(batch, global_table, default_rules([1, 5, 8]), k, lda=LDA),
        lambda batch, k: stopping_time_distribution(batch, global_table, k),
        lambda batch, k: price_proxy(batch, global_table, k),
    ]
    short, long = (simulate_batch(LDA, ALP_GLOBAL, T, 50, seed=1) for T in (7, 9))
    for read in readings:
        for batch, k in [(small_batch, 2), (short, 3), (long, 3)]:
            with pytest.raises(ConfigError, match="do not match table T=8, k=3"):
                read(batch, k)


@pytest.mark.parametrize("objective", [GLOBAL, LOCAL])
def test_replay_in_small_row_blocks_matches_the_frozen_replay(objective):
    # 2,500 paths replayed in slices of 7 rows, the last one short
    model = {GLOBAL: alp_global_model, LOCAL: alp_local_model}[objective](LDA, 10.0)
    table = compute_value_table(model, Horizon(T=8, k=3))
    batch = simulate_batch(LDA, PolicySpec("ALP", 10.0, objective), 8, 2500, seed=19)
    rules = default_rules([1, 5, 8])
    replay = _Replay({objective: table}, rules, batch.n_scenarios, batch.seed)
    for lo in range(0, batch.n_scenarios, 7):
        replay.add(batch.z[lo : lo + 7], batch.z_tilde[lo : lo + 7])
    b = thresholds(table)
    frozen_taus = {
        "optimal": reference_claim_years(batch.w, b),
        "deterministic": np.tile([1, 5, 8], (batch.n_scenarios, 1)),
        "random": reference_random_claim_years(19, 2500, 8, 3),
        "average": reference_claim_years(batch.w, np.where(np.isneginf(b), -np.inf, table.value(1, 1))),
    }
    assert np.array_equal(replay.taus[objective], frozen_taus["optimal"])
    rows = np.arange(batch.n_scenarios)[:, None]
    for rule, values in zip(rules, replay.values[objective]):
        taus = frozen_taus[rule.kind]
        if objective == GLOBAL:
            frozen = batch.z.sum(axis=1) - batch.w[rows, taus - 1].sum(axis=1)
        else:
            frozen = batch.z_tilde[rows, taus - 1].sum(axis=1)
        assert np.array_equal(values, frozen), rule.kind
    if objective == GLOBAL:
        claimed = batch.w[rows, frozen_taus["optimal"] - 1].sum(axis=1)
        assert np.array_equal(replay.claimed, claimed)
    sliced = replay.report(objective, reference_lines(table, LDA, objective))
    whole = compare_rules(batch, table, rules, 3, lda=LDA)
    frozen_edges = np.histogram_bin_edges(
        np.concatenate([out.values for out in whole.outcomes]), bins=len(whole.hist_edges) - 1
    )
    assert np.array_equal(sliced.hist_edges, frozen_edges)
    assert np.array_equal(whole.hist_edges, frozen_edges)
    for got, want in zip(sliced.outcomes, whole.outcomes):
        assert (got.name, got.mean, got.stderr) == (want.name, want.mean, want.stderr)
        for field in ("hist_counts", "values"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("T, dtype", [(8, np.uint8), (300, np.uint16)])
def test_claim_years_are_of_the_narrowest_type_that_holds_the_horizon(T, dtype):
    table = compute_value_table(alp_global_model(LDA, 10.0), Horizon(T=T, k=3))
    batch = simulate_batch(LDA, ALP_GLOBAL, T, 60, seed=2)
    random_taus = _replay_random_years(batch, table)
    for kind in ("optimal", "random", "average"):
        assert _rule_walk(table, ComparisonRule(kind))(batch.w, random_taus).dtype == dtype, kind
    replay = _Replay({GLOBAL: table}, default_rules([1, 2, T]), batch.n_scenarios, batch.seed)
    replay.add(batch.z, batch.z_tilde)
    kept = replay.taus[GLOBAL]
    assert kept.dtype == dtype
    assert np.array_equal(kept, reference_claim_years(batch.w, thresholds(table)))
    assert np.array_equal(random_taus, reference_random_claim_years(2, 60, T, 3))


def _study_config(preset, **changes):
    cfg = preset_config(preset)
    if "horizon" in changes:
        del cfg["deterministic_years"]
    return {**cfg, **changes}


STUDIES = [
    *sorted(EXPERIMENT_PRESETS),
    _study_config("pap-study", name="pap-T12-k5", horizon={"T": 12, "k": 5}),
]


@pytest.mark.parametrize("study", STUDIES, ids=lambda s: s if isinstance(s, str) else s["name"])
def test_study_in_chunks_equals_the_replay_of_its_whole_batch(monkeypatch, tmp_path, study):
    # 5,000 scenarios make two chunks, the last one short
    n, seed = 5000, 3
    written = {}
    monkeypatch.setattr(
        multistop.experiments, "write_outputs", lambda report, reports, out: written.update(reports)
    )
    report = run_experiment(study, out_dir=tmp_path, seed=seed, n_scenarios=n)
    cfg = preset_config(study) if isinstance(study, str) else study
    horizon = horizon_from_config(cfg)
    assert list(written) == list(report["objectives"])
    for objective, (rr, triples) in written.items():
        run_cfg = {**cfg, "objective": objective}
        kind, _ = policy_choice(run_cfg)
        model = gain_model_from_config(run_cfg)
        table = compute_value_table(model, horizon)
        if kind == "ILP":
            lda, batch = None, simulate_aux_local_batch(model.aux, horizon.T, n, seed)
        else:
            lda = model.lda
            batch = simulate_batch(lda, policy_from_config(run_cfg), horizon.T, n, seed)
        entry = report["objectives"][objective]
        whole = compare_rules(batch, table, default_rules(entry["deterministic_years"]), horizon.k, lda=lda)
        assert rr.n_scenarios == whole.n_scenarios == n
        assert rr.reference_solid == whole.reference_solid
        assert np.array_equal(rr.hist_edges, whole.hist_edges)
        for got, want in zip(rr.outcomes, whole.outcomes, strict=True):
            assert (got.name, got.mean, got.stderr) == (want.name, want.mean, want.stderr)
            assert entry["rules"][got.name] == {"mean": want.mean, "stderr": want.stderr}
            assert np.array_equal(got.hist_counts, want.hist_counts)
        for other in ("deterministic", "random", "average"):
            assert entry["optimal_beats"][other]["p_value"] == whole.paired_pvalue(other)
        tally = stopping_time_distribution(batch, table, horizon.k)
        assert list(triples.items()) == list(tally.items())
        if objective == GLOBAL:
            assert entry["price_proxy"] == price_proxy(batch, table, horizon.k)
        else:
            assert "price_proxy" not in entry
    if kind == "ALP":
        assert report["p_exceed_cap"]["empirical"] == float(np.mean(batch.z > batch.param))
    else:
        assert "p_exceed_cap" not in report


def _study_peak_per_scenario_year(study, n):
    """The ``tracemalloc`` peak of ``run_experiment`` in bytes per scenario-year."""
    run_experiment(study, n_scenarios=200)  # first-call caches are not the study's
    tracemalloc.start()
    try:
        run_experiment(study, n_scenarios=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cfg = preset_config(study) if isinstance(study, str) else study
    return peak / (n * cfg["horizon"]["T"])


@pytest.mark.parametrize("preset", sorted(EXPERIMENT_PRESETS))
def test_study_peak_memory_holds_no_panel(preset):
    # one value vector per rule and objective, the threshold rule's claim
    # years and the price proxy's sums, beside one chunk's temporaries and
    # the models; the (Z, Zt, W) panel alone would be 24
    assert _study_peak_per_scenario_year(preset, 20_000) <= 34


@pytest.mark.parametrize("preset", sorted(EXPERIMENT_PRESETS))
def test_study_peak_memory_per_scenario_year_falls_with_its_size(preset):
    # the chunk's temporaries and the models are a fixed cost
    assert _study_peak_per_scenario_year(preset, 100_000) <= 16


def test_study_peak_memory_holds_no_panel_at_forty_years():
    study = _study_config("alp-study", horizon={"T": 40, "k": 12})
    assert _study_peak_per_scenario_year(study, 20_000) <= 26
