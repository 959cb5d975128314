"""End-to-end acceptance suite.

One test per numbered criterion; each prints a PASS line with the measured
quantity (run ``pytest -s tests/test_acceptance.py`` to watch them stream)
and enforces the stated tolerance.  Criterion 5a is expected to fail: the
reference exceedance probability of the aggregate-cap study is ~0.169 under
its stated parameters, not the quoted 0.20; see notes in the repo root.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln
from scipy.stats import kstest

from mc_oracles import (
    alp_insured_losses,
    annual_loss,
    aux_insured_losses,
    mc_expected_max,
    pap_paths,
)
from quad_oracle import GIGParams, bessel_k, gig_cdf, gig_pdf
from tree_oracle import enumerate_expected_realized_gain, tree_game_value
from multistop.distributions import (
    FrequencyModel,
    IGParams,
    ig_cdf,
    ig_sum_params,
    sample_ig,
)
from multistop.expansion import (
    MomentSet,
    approx_expected_min,
    approx_pdf,
    b_system,
    compound_poisson_loss_moments,
    default_scan_limit,
    expansion_local_gain_model,
    fit_expansion,
    gamma_local_model,
    laguerre,
    lognormal_raw_moments,
    positivity_boundary,
)
from multistop.experiments import preset_config, run_experiment
from multistop.policies import (
    ILPAuxModel,
    LDAModel,
    alp_global_model,
    alp_local_model,
    ilp_global_model,
    ilp_global_sample,
    ilp_local_model,
    lda_from_config,
    mstar_pmf,
    pap_global_model,
    pap_local_model,
)
from multistop.stopping import (
    Horizon,
    compute_value_table,
    lognormal_local_model,
    run_rule,
    thresholds,
)
from multistop.validation import _normalization_error
from test_stopping import LOGNORMAL_TABLE, WORKED_GAINS, DiscreteGain


def report(criterion: str, detail: str) -> None:
    print(f"[acceptance {criterion}] PASS - {detail}")


# -----------------------------------------------------------------------------
# 1. reference value-table reproduction
# -----------------------------------------------------------------------------


def test_criterion_1_reference_table():
    t0 = time.perf_counter()
    table = compute_value_table(lognormal_local_model(0.0, 1.0), Horizon(T=10, k=9))
    deviations = [abs(table.value(L, l) - v) for (L, l), v in LOGNORMAL_TABLE.items()]
    elapsed = time.perf_counter() - t0
    assert max(deviations) <= 0.01
    assert table.value(1, 1) == pytest.approx(-1.65, abs=0.01)
    assert table.value(2, 1) == pytest.approx(-1.02, abs=0.01)
    assert table.value(7, 4) == pytest.approx(-3.32, abs=0.01)
    assert table.value(10, 9) == pytest.approx(-11.78, abs=0.01)
    assert elapsed < 1.0
    report("1", f"all 54 cells within 0.01 (max dev {max(deviations):.4f}, {elapsed:.3f}s)")


# -----------------------------------------------------------------------------
# 2. worked-example replay
# -----------------------------------------------------------------------------


def test_criterion_2_worked_example():
    table = compute_value_table(lognormal_local_model(0.0, 1.0), Horizon(T=7, k=4))
    res = run_rule(WORKED_GAINS, table)
    assert res.taus == (1, 2, 4, 7)
    assert res.realized_gain == pytest.approx(-4.02, abs=1e-12)
    trigger_seq = [table.threshold(6, 1), table.threshold(5, 2), table.threshold(3, 3)]
    for got, want in zip(trigger_seq, (-1.53, -1.33, -1.42)):
        assert abs(got - want) <= 0.01
    report(
        "2",
        f"claims at {res.taus}, realized {res.realized_gain:.2f}, "
        f"thresholds {[round(b, 3) for b in trigger_seq]}",
    )


# -----------------------------------------------------------------------------
# 3. closed forms vs pathwise Monte Carlo
# -----------------------------------------------------------------------------

MC_YEARS = 10**6


def _param_sets(n=5, seed=20240601):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        out.append(
            {
                "mu": float(rng.uniform(0.6, 2.5)),
                "lam": float(rng.uniform(0.6, 3.0)),
                "rate": float(rng.uniform(0.8, 3.5)),
                "mult": float(rng.uniform(0.6, 1.8)),
                "aux_rate": float(rng.uniform(0.8, 4.0)),
            }
        )
    return out


def _local_grid(scale):
    return [
        (-a * scale, -(a + d) * scale)
        for a in (0.0, 0.4, 0.8, 1.2, 1.6)
        for d in (0.2, 0.6, 1.0, 1.4, 1.8)
    ]


def _global_grid(scale):
    return [
        (a * scale, (a + d) * scale)
        for a in (0.0, 0.4, 0.8, 1.2, 1.6)
        for d in (0.2, 0.6, 1.0, 1.4, 1.8)
    ]


# absolute slack under any statistical comparison: float roundoff of the
# closed-form sums can exceed 3 stderr when the MC values are near-constant
_ROUNDOFF = 1e-10


def _check_against_mc(model, w, grid, label):
    worst = 0.0
    se_mean = w.std(ddof=1) / math.sqrt(w.size)
    gap = abs(model.mean_gain - w.mean())
    assert gap <= 3 * se_mean + _ROUNDOFF, (
        f"{label}: mean gap {gap:.3e} > 3se {3 * se_mean:.3e}"
    )
    worst = max(worst, gap / se_mean if se_mean > _ROUNDOFF else 0.0)
    for c1, c2 in grid:
        mc, se = mc_expected_max(w, c1, c2)
        gap = abs(model.expected_max(c1, c2) - mc)
        assert gap <= 3 * se + _ROUNDOFF, (
            f"{label} ({c1:.3f},{c2:.3f}): gap {gap:.3e} > 3se {3 * se:.3e}"
        )
        if se > _ROUNDOFF:
            worst = max(worst, gap / se)
    return worst


def test_criterion_3_closed_forms_match_pathwise_mc():
    t0 = time.perf_counter()
    worst = 0.0
    for i, ps in enumerate(_param_sets()):
        lda = LDAModel(FrequencyModel(ps["rate"]), IGParams(mu=ps["mu"], lam=ps["lam"]))
        level = ps["mult"] * lda.mean_annual_loss
        rng = np.random.default_rng(np.random.SeedSequence([71, i]))

        zt = alp_insured_losses(lda, level, MC_YEARS, rng)
        model = alp_local_model(lda, level)
        worst = max(
            worst,
            _check_against_mc(
                model, -zt, _local_grid(-model.mean_gain + 0.5), f"ALP/local #{i}"
            ),
        )

        z = annual_loss(lda, MC_YEARS, rng)
        w = z - np.maximum(z - level, 0.0)
        g_model = alp_global_model(lda, level)
        worst = max(
            worst,
            _check_against_mc(
                g_model, w, _global_grid(g_model.mean_gain * 0.5 + 0.5), f"ALP/global #{i}"
            ),
        )

        z, zt = pap_paths(lda, level, MC_YEARS, rng)
        p_model = pap_local_model(lda, level)
        worst = max(
            worst,
            _check_against_mc(
                p_model, -zt, _local_grid(-p_model.mean_gain + 0.5), f"PAP/local #{i}"
            ),
        )
        pg_model = pap_global_model(lda, level)
        worst = max(
            worst,
            _check_against_mc(
                pg_model, z - zt, _global_grid(pg_model.mean_gain * 0.5 + 0.5),
                f"PAP/global #{i}",
            ),
        )

        aux = ILPAuxModel(aux_rate=ps["aux_rate"], aux_severity=IGParams(ps["mu"], ps["lam"]))
        zt = aux_insured_losses(aux, MC_YEARS, rng)
        i_model = ilp_local_model(aux)
        worst = max(
            worst,
            _check_against_mc(
                i_model, -zt, _local_grid(-i_model.mean_gain * 0.5 + 0.5), f"ILP/local #{i}"
            ),
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        "3",
        f"5 models x 5 parameter sets x (mean + 25 thresholds) within 3 stderr "
        f"(worst {worst:.2f} sigma, {elapsed:.1f}s)",
    )


# -----------------------------------------------------------------------------
# 4. exhaustive scenario-tree oracle
# -----------------------------------------------------------------------------


def test_criterion_4_exhaustive_tree_oracle():
    values = [-2.0, -0.5, 1.5]
    probs = [0.25, 0.45, 0.3]
    worst = 0.0
    for T in (4, 5, 6):
        for k in (1, 2, 3):
            model = DiscreteGain(values, probs)
            table = compute_value_table(model, Horizon(T=T, k=k))
            oracle = tree_game_value(values, probs, T, k)
            worst = max(worst, abs(table.value(T, k) - oracle))
            realized = enumerate_expected_realized_gain(values, probs, T, table)
            worst = max(worst, abs(realized - oracle))
            assert abs(table.value(T, k) - oracle) <= 1e-12
            assert abs(realized - oracle) <= 1e-12
    report("4", f"engine == scenario-tree induction for T<=6, k<=3 (max gap {worst:.2e})")


# -----------------------------------------------------------------------------
# 5. rule-comparison studies at desk scale
# -----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def study_reports():
    t0 = time.perf_counter()
    reports = {
        name: run_experiment(name, n_scenarios=10_000)
        for name in ("alp-study", "pap-study", "ilp-study")
    }
    return reports, time.perf_counter() - t0


def _triple_freq(entry, taus):
    for row in entry["triples"]:
        if tuple(row["taus"]) == taus:
            return row["frequency"]
    return 0.0


@pytest.mark.xfail(
    strict=True,
    reason="the stated parameters give P[Z > cap] ~= 0.169, inconsistent with "
    "the quoted 20% exceedance; asserting the quoted value as specified",
)
def test_criterion_5a_cap_exceedance(study_reports):
    reports, _ = study_reports
    p_hat = reports["alp-study"]["p_exceed_cap"]["empirical"]
    print(f"[acceptance 5a] measured P[Z > cap] = {p_hat:.4f}, target 0.20 +- 0.01")
    assert abs(p_hat - 0.20) <= 0.01


def test_criterion_5b_local_early_exercise(study_reports):
    reports, _ = study_reports
    freq = _triple_freq(reports["alp-study"]["objectives"]["local"], (1, 2, 3))
    assert freq > 0.5
    report("5b", f"local-objective claim years (1,2,3) frequency {freq:.3f} > 0.5")


EARLY_TRIPLES = ((1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6))


def _alp_global_triple_probabilities() -> dict[tuple[int, ...], float]:
    """Exact claim-year triple law of the alp-study's global threshold rule.

    The gain is ``W = min(cap, Z)`` with i.i.d. years, so a triple's
    probability is a product over the years up to its last claim of
    ``P[W >= b[T-y, used]]`` or its complement.
    """
    cfg = preset_config("alp-study")
    lda, cap = lda_from_config(cfg), float(cfg["policy"]["param"])
    T, k = int(cfg["horizon"]["T"]), int(cfg["horizon"]["k"])
    b = thresholds(compute_value_table(alp_global_model(lda, cap), Horizon(T=T, k=k)))
    mix = lda.mixture()

    def p_claim(x: float) -> float:
        if x <= 0.0:
            return 1.0
        return 0.0 if x > cap else float(np.sum(mix.pm * mix.tails(x).sf))

    probs = {}
    for taus in combinations(range(1, T + 1), k):
        p, used = 1.0, 0
        for year in range(1, taus[-1] + 1):
            q = p_claim(b[T - year, used])
            p *= q if year in taus else 1.0 - q
            used += year in taus
        probs[taus] = p
    return probs


def test_global_triple_probabilities_decay_exactly():
    probs = _alp_global_triple_probabilities()
    seq = [probs[t] for t in EARLY_TRIPLES]
    assert abs(sum(probs.values()) - 1.0) <= 1e-12
    assert all(b < a for a, b in zip(seq, seq[1:])), seq
    report("5c exact", f"global consecutive-triple probabilities decay: {[round(p, 5) for p in seq]}")


def test_criterion_5c_global_early_exercise_decays():
    # the gaps between neighbouring triples are 1.5-2 standard errors at
    # 10,000 scenarios, so this runs at the preset's own 50,000
    entry = run_experiment("alp-study")["objectives"]["global"]
    seq = [_triple_freq(entry, t) for t in EARLY_TRIPLES]
    assert all(b < a for a, b in zip(seq, seq[1:])), seq
    report("5c", f"global consecutive-triple frequencies decay: {[round(f, 4) for f in seq]}")


def test_criterion_5d_threshold_rule_beats_all_others(study_reports):
    reports, _ = study_reports
    worst_p = 0.0
    for name, rep in reports.items():
        for objective, entry in rep["objectives"].items():
            for other, stats in entry["optimal_beats"].items():
                assert stats["significant_1pct"], (name, objective, other, stats)
                worst_p = max(worst_p, stats["p_value"])
    report("5d", f"threshold rule beats the other three everywhere (max p {worst_p:.1e})")


def test_criterion_5e_empirical_mean_tracks_recursion(study_reports):
    reports, elapsed = study_reports
    worst = 0.0
    for name, rep in reports.items():
        for objective, entry in rep["objectives"].items():
            opt = entry["rules"]["optimal"]
            z = abs(opt["mean"] - entry["reference_solid"]) / opt["stderr"]
            worst = max(worst, z)
            assert z <= 3.0, (name, objective, z)
    assert elapsed < 600.0
    report("5e", f"threshold-rule means within 3 stderr of predictions (worst {worst:.2f} sigma, studies took {elapsed:.1f}s)")


# -----------------------------------------------------------------------------
# 6. distribution identities
# -----------------------------------------------------------------------------


def test_criterion_6_distribution_identities(rng):
    # order symmetry of the Bessel normalizer
    for p, z in ((0.5, 1.0), (1.5, 0.7), (2.0, 1.5), (3.2, 4.0)):
        assert abs(bessel_k(p, z) - bessel_k(-p, z)) <= 1e-12

    # IG sums and their GIG representation agree through quadrature
    mu, lam = 1.0, 1.0
    for n in (1, 2, 4):
        summed = ig_sum_params(n, IGParams(mu=mu, lam=lam))
        gig = GIGParams(alpha=lam / mu**2, beta=n * n * lam, p=-0.5)
        for x in np.linspace(0.25, 10.0, 8):
            assert abs(gig_cdf(float(x), gig) - ig_cdf(float(x), summed)) <= 1e-9

    # pointwise order-shift identity
    n = 3
    neg = GIGParams(alpha=lam / mu**2, beta=n * n * lam, p=-0.5)
    pos = GIGParams(alpha=lam / mu**2, beta=n * n * lam, p=0.5)
    xs = np.linspace(0.1, 12.0, 50)
    assert np.max(np.abs(xs * gig_pdf(xs, neg) - n * mu * gig_pdf(xs, pos))) <= 1e-10

    # convolution closure via KS on sampled sums
    base = IGParams(mu=1.0, lam=3.0)
    draws = sample_ig(base, rng, size=(10**5, 5)).sum(axis=1)
    assert kstest(draws, lambda x: ig_cdf(x, ig_sum_params(5, base))).pvalue > 0.01

    # mixture normalization across all four closed-form policy models
    lda = LDAModel(FrequencyModel(rate=2.0), IGParams(mu=1.5, lam=1.0))
    norm_err = _normalization_error(lda, cap=4.0, attachment=3.0)
    assert norm_err <= 1e-6

    # crossing-index pmf partitions each conditional space
    att, m = 3.0, 5
    mass = sum(mstar_pmf(j, lda, att) for j in range(1, m + 1))
    mass += ig_cdf(att, ig_sum_params(m, lda.severity))
    assert abs(mass - 1.0) <= 1e-8
    report(
        "6",
        f"identity suite holds (normalization err {norm_err:.1e}, partition gap "
        f"{abs(mass - 1.0):.1e})",
    )


# -----------------------------------------------------------------------------
# 7. series expansion
# -----------------------------------------------------------------------------


def _gamma_moment_set(shape, rate):
    return MomentSet.from_loss_moments(
        shape / rate, shape / rate**2, 2 * shape / rate**3, (3 * shape + 6) * shape / rate**4
    )


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_criterion_7_series_expansion():
    # orthonormality under the kernel
    a = 2.5
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
            target = (
                math.factorial(n) * math.exp(gammaln(a + n) - gammaln(a)) if n == m else 0.0
            )
            assert abs(val - target) <= 1e-8 * max(1.0, target)

    # gamma moments collapse to the kernel, pointwise
    fit = fit_expansion(_gamma_moment_set(2.5, 0.8))
    assert fit.a3 == pytest.approx(0.0, abs=1e-13) and fit.a4 == pytest.approx(0.0, abs=1e-13)
    zs = np.linspace(0.05, 30.0, 80)
    exact = np.exp(
        fit.a * np.log(fit.b) + (fit.a - 1) * np.log(zs) - fit.b * zs - gammaln(fit.a)
    )
    assert np.max(np.abs(approx_pdf(fit, zs) - exact)) <= 1e-12

    # four-moment reproduction for the compound lognormal example
    mo = MomentSet.from_loss_moments(
        *compound_poisson_loss_moments(2.0, lognormal_raw_moments(1.0, math.sqrt(0.8)))
    )
    ln_fit = fit_expansion(mo)
    u_hi = max(400.0, 4 * default_scan_limit(ln_fit.a))

    def u_moment(p):
        val, _ = integrate.quad(
            lambda u: u**p * approx_pdf(ln_fit, u / ln_fit.b) / ln_fit.b,
            0.0,
            u_hi,
            epsabs=1e-13,
            limit=500,
        )
        return val

    m1, m2, m3, m4 = (u_moment(p) for p in (1, 2, 3, 4))
    mu3 = m3 - 3 * m1 * m2 + 2 * m1**3
    mu4 = m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4
    assert m1 == pytest.approx(ln_fit.a, rel=1e-6)
    assert m2 - m1**2 == pytest.approx(ln_fit.a, rel=1e-6)
    assert mu3 == pytest.approx(mo.mu3, rel=1e-6)
    assert mu4 == pytest.approx(mo.mu4, rel=1e-6)

    # the example fit is positive and its lattice cell sits inside the
    # brute-scan region (which does resolve a boundary nearby)
    assert ln_fit.positivity.positive
    for d3 in (-0.02, 0.0, 0.02):
        for d4 in (-0.1, 0.0, 0.1):
            probe = MomentSet(
                mean=mo.mean, variance=mo.variance, mu3=mo.mu3 + d3, mu4=mo.mu4 + d4
            )
            assert fit_expansion(probe).positivity.positive
    off_region = MomentSet(mean=mo.mean, variance=mo.variance, mu3=mo.mu3 - 0.3, mu4=mo.mu4)
    assert not fit_expansion(off_region).positivity.positive

    # boundary curve: solves the dressed system and carries double roots
    curve = positivity_boundary(ln_fit.a, np.linspace(5.5, 10.0, 8))
    for u, m3c, m4c in zip(curve.u, curve.mu3, curve.mu4):
        b1, b2, b3, b1p, b2p, b3p = b_system(ln_fit.a, float(u))
        assert abs(m3c * b1 + m4c * b2 + b3) <= 1e-8
        assert abs(m3c * b1p + m4c * b2p + b3p) <= 1e-8
        bfit = fit_expansion(
            MomentSet(mean=ln_fit.a, variance=ln_fit.a, mu3=float(m3c), mu4=float(m4c))
        )
        h = 1e-6
        dens = approx_pdf(bfit, u / bfit.b)
        slope = (approx_pdf(bfit, (u + h) / bfit.b) - approx_pdf(bfit, (u - h) / bfit.b)) / (
            2 * h
        )
        assert abs(dens) <= 1e-6 and abs(slope) <= 1e-6

    # the fitted expansion drives the engine exactly like the closed gamma law
    shape, rate = 2.5, 0.8
    gfit = fit_expansion(_gamma_moment_set(shape, rate))
    approx_table = compute_value_table(expansion_local_gain_model(gfit), Horizon(T=8, k=3))
    exact_table = compute_value_table(gamma_local_model(shape, rate), Horizon(T=8, k=3))
    table_gap = np.nanmax(np.abs(approx_table.values - exact_table.values))
    assert table_gap <= 1e-8

    # E[min] closed form agrees with quadrature against the fitted density
    for c1, c2 in ((0.0, 5.0), (1.0, 9.0)):
        direct, _ = integrate.quad(
            lambda z: min(c1 + z, c2) * approx_pdf(ln_fit, z), 0.0, np.inf, epsabs=1e-12,
            limit=500,
        )
        assert abs(approx_expected_min(ln_fit, c1, c2) - direct) <= 1e-8
    report("7", f"expansion suite holds (gamma-table gap {table_gap:.1e})")


# -----------------------------------------------------------------------------
# 8. offline-sample gain engine
# -----------------------------------------------------------------------------


def _bootstrap_cell_stderrs(draws, horizon, seed, n_boot=60):
    """Cell-level uncertainty of a sample-driven value table.

    The whole table is one deterministic function of the stored sample, and
    per-call standard errors understate how sampling noise accumulates
    through the recursion, so resample the table as a unit.
    """
    from multistop.policies import EmpiricalGainSample

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB007]))
    stack = []
    for _ in range(n_boot):
        idx = rng.integers(0, draws.size, draws.size)
        model = ilp_global_model(EmpiricalGainSample(draws=draws[idx], seed=0))
        stack.append(compute_value_table(model, horizon).values)
    return np.std(np.stack(stack), axis=0, ddof=1)


def test_criterion_8_offline_sample_engine():
    lda = LDAModel(FrequencyModel(rate=3.0), IGParams(mu=2.0, lam=3.0))
    tcl = 1.5
    horizon = Horizon(T=8, k=3)
    tables, errors, models = [], [], []
    for seed in (2024, 2025):
        sample = ilp_global_sample(lda, tcl, 10**5, seed)
        model = ilp_global_model(sample)
        table = compute_value_table(model, horizon)
        tables.append(table)
        errors.append(_bootstrap_cell_stderrs(sample.draws, horizon, seed))
        models.append(model)

    worst = 0.0
    for l in range(1, 4):
        for L in range(l, 9):
            pooled = math.hypot(errors[0][L, l], errors[1][L, l])
            gap = abs(tables[0].value(L, l) - tables[1].value(L, l))
            assert gap <= 3 * pooled, (L, l, gap, pooled)
            worst = max(worst, gap / pooled if pooled else 0.0)

    # one stored sample serves every evaluation, unchanged
    model = models[0]
    baseline = model.sample.draws.copy()
    first = model.expected_max(1.0, 5.0)
    for _ in range(3):
        assert model.expected_max(1.0, 5.0) == first
    assert np.array_equal(model.sample.draws, baseline)
    assert np.shares_memory(model._draws, model.sample.draws)  # no hidden copies
    report("8", f"two-seed value tables agree within 3 pooled stderr (worst {worst:.2f} sigma)")
