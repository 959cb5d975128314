"""The benchmark's workloads: their fixed ops and the gates that check them.

Each workload builds its inputs from the workload seed in ``setup`` (timed
as set-up) and returns its fixed ops from ``ops``.  An op is timed around
``run``; ``check`` then inspects the result outside the timed region and
returns the work done (scenarios or value-table cells) and any problems.

``multistop`` is passed in as a module object rather than imported here,
because the runner re-imports it for every set-up repetition.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_tables.npz"

# Tables must match their stored reference to |a - b| <= REL_TOL * max(1, |b|);
# the same tolerance absorbs roundoff in the structural invariants.
REL_TOL = 1e-9
# (optimal mean - reference_solid) / stderr, on the loss axis: the threshold
# rule may not realize a worse objective than the recursion predicts.  The
# test is one-sided because ALP-local losses come from rare heavy years above
# the cap.  When few are drawn, the mean and its stderr shrink together and z
# falls far below 0 (-8.8 at 5,000 scenarios, seed 5), while its upper side
# stays light: at most 1.9 over 15 seeds of the full studies and 27 more of
# alp-study's local objective.
STUDY_Z_BOUND = 5.0
# ILP-global against a 1e6-draw reference: |a - b| <= bound * sd * sqrt(1 + n/n_ref),
# with sd the cellwise spread of 1e5-draw tables over the replicate seeds.
# Seeds 1-10 and two large seeds gave at most 2.8: the cells move together.
ILP_GLOBAL_Z_BOUND = 6.0

LOCAL, GLOBAL = "local", "global"
ALP_LOSS = (3.0, 2.0, 3.0)  # Poisson rate, IG mu, IG lambda
PAP_LOSS = (3.0, 1.0, 1.0)
ALP_CAP = 10.0
PAP_ATTACHMENT = 4.0
ILP_AUX = (4.0, 1.0, 3.0)
ILP_TCL = 5.0
ILP_GLOBAL_DRAWS = 100_000
ILP_GLOBAL_REFERENCE_DRAWS = 1_000_000
ILP_GLOBAL_REFERENCE_SEED = 20131202
ILP_GLOBAL_REPLICATE_SEEDS = range(1000, 1020)
REFIT_MOMENTS = (3.0, 4.0, 30.0, 400.0)  # mean, variance, mu3, mu4: outside the region

STUDY_PRESETS = ("alp-study", "pap-study", "ilp-study")
STUDY_TINY_SCENARIOS = 5_000  # every 1% gate held here on 32 seeds; at 2,000 PAP-global did not
TABLE_HORIZON = {False: (200, 50), True: (12, 4)}
PAP_GLOBAL_HORIZON = {False: (40, 12), True: (8, 3)}


class OpFailed(Exception):
    """An op ended without a result, such as a CLI exit code other than 0."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, list[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what check() counts: "scenarios" or "cells"
    kernel_ig: tuple[float, float]  # IG(mu, lambda) of the distribution probes
    setup: Callable  # (ms, seed, tiny, tracer, workdir) -> context
    ops: Callable  # (ms, context, tracer) -> list[Op]


def cell_count(T: int, k: int) -> int:
    return k * (T + 1) - k * (k + 1) // 2


def loss_model(ms, loss: tuple[float, float, float]):
    rate, mu, lam = loss
    return ms.LDAModel(ms.FrequencyModel(rate=rate), ms.IGParams(mu=mu, lam=lam))


def compute_table(ms, tracer, key: str, model, T: int, k: int):
    with tracer.span("stopping.compute_value_table", model=key, cells=cell_count(T, k)):
        return ms.compute_value_table(model, ms.Horizon(T=T, k=k))


def load_references() -> dict[str, np.ndarray]:
    with np.load(REFERENCE_FILE) as data:
        return {name: data[name] for name in data.files}


# -- table gates ---------------------------------------------------------------


def _defined(T: int, k: int) -> np.ndarray:
    L = np.arange(T + 1)[:, None]
    l = np.arange(k + 1)[None, :]
    return (l >= 1) & (l <= np.minimum(L, k))


def invariant_problems(table, b: np.ndarray, objective: str) -> list[str]:
    """ROADMAP aim-3 invariants: finite, monotone in L, threshold signs.

    ``b`` is the threshold matrix of ``thresholds(table)``.
    """
    v, T, k = table.values, table.T, table.k
    cells = v[_defined(T, k)]
    if not np.all(np.isfinite(cells)):
        return [f"{int(np.sum(~np.isfinite(cells)))} non-finite cells"]
    problems = []
    tol = REL_TOL * max(1.0, float(np.max(np.abs(cells))))
    for l in range(1, k + 1):
        drops = np.diff(v[l : T + 1, l])
        if np.any(drops < -tol):
            problems.append(f"v[L, {l}] decreases in L by {-float(drops.min()):.3e}")
    b = b[np.isfinite(b)]
    if objective == LOCAL and np.any(b > tol):
        problems.append(f"local threshold {float(b.max()):.3e} > 0")
    if objective == GLOBAL and np.any(b < -tol):
        problems.append(f"global threshold {float(b.min()):.3e} < 0")
    return problems


def reference_problems(table, ref: np.ndarray, atol=None) -> list[str]:
    """Cellwise |a - b| <= REL_TOL * max(1, |b|), or <= atol when given."""
    T, k = table.T, table.k
    if ref.shape[0] <= T or ref.shape[1] <= k:
        return [f"reference {ref.shape} does not cover (T={T}, k={k})"]
    # v[L, l] does not depend on T or k, so a smaller table is a corner of the reference
    mask = _defined(T, k)
    a, b = table.values[mask], ref[: T + 1, : k + 1][mask]
    if atol is None:
        limit = REL_TOL * np.maximum(1.0, np.abs(b))
    else:
        limit = atol[: T + 1, : k + 1][mask]
    bad = np.abs(a - b) > limit
    if np.any(bad):
        worst = int(np.argmax(np.abs(a - b) - limit))
        return [f"{int(bad.sum())} cells differ from the reference; worst |a-b|="
                f"{abs(a[worst] - b[worst]):.3e} vs limit {limit[worst]:.3e}"]
    return []


def mean_sum_problems(local_model, global_model, lda) -> list[str]:
    """Local and global mean gains add up to the mean annual loss."""
    total = global_model.mean_gain - local_model.mean_gain
    expected = lda.mean_annual_loss
    if not abs(total - expected) <= REL_TOL * max(1.0, abs(expected)):
        return [f"mean gains sum to {total!r}, mean annual loss is {expected!r}"]
    return []


# -- studies ---------------------------------------------------------------------


@dataclass(frozen=True)
class StudiesContext:
    seed: int
    n_scenarios: int | None  # None: each preset's own count
    out_dir: Path


def studies_setup(ms, seed, tiny, tracer, workdir) -> StudiesContext:
    return StudiesContext(seed, STUDY_TINY_SCENARIOS if tiny else None, Path(workdir) / "studies")


def study_problems(out_dir: Path) -> tuple[int, list[str], dict | None]:
    """Gate a study's output files; returns scenarios simulated, problems, report."""
    missing = [f for f in ("report.json", "hist.csv", "triples.csv") if not (out_dir / f).is_file()]
    if missing:
        return 0, [f"missing outputs {missing} in {out_dir}"], None
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    problems = []
    for objective, entry in report["objectives"].items():
        lost = [o for o, v in entry["optimal_beats"].items() if not v["significant_1pct"]]
        if lost:
            problems.append(f"{objective}: optimal rule does not beat {lost} at 1%")
        opt = entry["rules"]["optimal"]
        z = (opt["mean"] - entry["reference_solid"]) / opt["stderr"]
        if not z <= STUDY_Z_BOUND:
            problems.append(f"{objective}: optimal mean is {z:.2f} stderr above reference_solid")
    return report["n_scenarios"] * len(report["objectives"]), problems, report


def replay_mismatches(replay: dict, expected: dict) -> list[str]:
    """The traced replay must reproduce run_experiment's game values and rule means."""
    if replay["objectives"].keys() != expected["objectives"].keys():
        return [f"objectives {list(replay['objectives'])} != {list(expected['objectives'])}"]
    problems = []
    for objective, entry in expected["objectives"].items():
        got = replay["objectives"][objective]
        if got["game_value"] != entry["game_value"]:
            problems.append(f"{objective}: replay game value {got['game_value']!r} != {entry['game_value']!r}")
        for rule, stats in entry["rules"].items():
            if got["rules"][rule]["mean"] != stats["mean"]:
                problems.append(f"{objective}/{rule}: replay mean differs from run_experiment")
    return problems


def replay_study(ms, tracer, preset: str, seed: int, n_scenarios, out_dir: Path) -> dict:
    """``run_experiment`` re-done through the exported functions, one span per layer.

    The steps and their order are those of ``run_experiment``: model
    factory, value table, scenario batch, the four rule reductions, outputs.
    """
    cfg = ms.preset_config(preset)
    horizon = ms.Horizon(T=int(cfg["horizon"]["T"]), k=int(cfg["horizon"]["k"]))
    n_sim = int(n_scenarios or cfg["mc"]["samples"])
    det_years = cfg["deterministic_years"]
    kind = cfg["policy"]["kind"]
    param = float(cfg["policy"]["param"])
    lda = ms.lda_from_config(cfg) if kind != "ILP" else None
    report: dict = {
        "preset": preset,
        "seed": seed,
        "n_scenarios": n_sim,
        "horizon": {"T": horizon.T, "k": horizon.k},
        "objectives": {},
    }
    reports = {}
    for objective in cfg["objectives"]:
        key = f"policies.{kind.lower()}_{objective}"
        with tracer.span(key + ".build"):
            if kind == "ILP":
                model = ms.ilp_local_model(ms.policies.aux_from_config(cfg))
            else:
                model = getattr(ms, f"{kind.lower()}_{objective}_model")(lda, param)
        table = compute_table(ms, tracer, key, tracer.wrap(model, key), horizon.T, horizon.k)
        with tracer.span("simulation.simulate", scenarios=n_sim):
            if kind == "ILP":
                aux = ms.policies.aux_from_config(cfg)
                batch = ms.simulate_aux_local_batch(aux, horizon.T, n_sim, seed)
            else:
                policy = ms.PolicySpec(kind=kind, param=param, objective=objective)
                batch = ms.simulate_batch(lda, policy, horizon.T, n_sim, seed)
        rules = ms.simulation.default_rules(det_years)
        with tracer.span("simulation.compare_rules"):
            rr = ms.compare_rules(batch, table, rules, horizon.k, lda=lda)
        with tracer.span("simulation.stopping_time_distribution"):
            triples = ms.stopping_time_distribution(batch, table, horizon.k)
        entry = {
            "game_value": table.game_value,
            "reference_solid": rr.reference_solid,
            "rules": {out.name: {"mean": out.mean, "stderr": out.stderr} for out in rr.outcomes},
            "optimal_beats": {
                other: {
                    "p_value": rr.paired_pvalue(other),
                    "significant_1pct": rr.paired_pvalue(other) < 0.01,
                }
                for other in ("deterministic", "random", "average")
            },
            "deterministic_years": list(det_years),
            "triples": [
                {"taus": list(taus), "count": count, "frequency": count / n_sim}
                for taus, count in sorted(triples.items(), key=lambda kv: -kv[1])
            ],
        }
        if objective == GLOBAL:
            with tracer.span("simulation.price_proxy"):
                entry["price_proxy"] = ms.price_proxy(batch, table, horizon.k)
        report["objectives"][objective] = entry
        reports[objective] = (rr, triples, batch)
    if kind == "ALP":
        first_batch = reports[cfg["objectives"][0]][2]
        with tracer.span("simulation.exceedance_probability"):
            analytic = ms.exceedance_probability(lda, param)
        report["p_exceed_cap"] = {"empirical": float(np.mean(first_batch.z > param)), "analytic": analytic}
    with tracer.span("experiments.write_outputs") as counts:
        ms.experiments.write_outputs(report, reports, out_dir)
    counts["bytes"] = sum(f.stat().st_size for f in out_dir.iterdir() if f.is_file())
    return report


def studies_ops(ms, ctx: StudiesContext, tracer) -> list[Op]:
    """Untraced: ``multistop experiment`` in-process.  Traced: the replay."""
    ops = []
    for preset in STUDY_PRESETS:
        cli_out = ctx.out_dir / "cli" / preset
        if not tracer.enabled:
            argv = ["experiment", "--preset", preset, "--out", str(cli_out), "--seed", str(ctx.seed)]
            if ctx.n_scenarios:
                argv += ["--samples", str(ctx.n_scenarios)]

            def run(argv=argv, preset=preset):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = ms.cli.main(argv)
                if code != 0:
                    raise OpFailed(f"multistop experiment --preset {preset} exited with {code}")

            def check(_, cli_out=cli_out):
                scenarios, problems, _ = study_problems(cli_out)
                return scenarios, problems

        else:
            replay_out = ctx.out_dir / "replay" / preset

            def run(preset=preset, replay_out=replay_out):
                with tracer.patch(ms.simulation, "thresholds", "stopping.thresholds"):
                    return replay_study(ms, tracer, preset, ctx.seed, ctx.n_scenarios, replay_out)

            def check(replay, cli_out=cli_out, replay_out=replay_out):
                scenarios, problems, _ = study_problems(replay_out)
                _, _, expected = study_problems(cli_out)
                if expected is None:
                    return scenarios, problems + ["no run_experiment report to compare the replay with"]
                return scenarios, problems + replay_mismatches(replay, expected)

        ops.append(Op(preset, run, check))
    return ops


# -- value tables ------------------------------------------------------------------


def build_ilp_global(ms, seed, tracer):
    with tracer.span("policies.ilp_global_sample"):
        sample = ms.ilp_global_sample(loss_model(ms, ALP_LOSS), ILP_TCL, ILP_GLOBAL_DRAWS, seed)
    return ms.ilp_global_model(sample)


# model key -> (objective, builder(ms, seed, tracer)); the key names its layer
TABLE_MODELS = {
    "policies.alp_local": (LOCAL, lambda ms, seed, tr: ms.alp_local_model(loss_model(ms, ALP_LOSS), ALP_CAP)),
    "policies.alp_global": (GLOBAL, lambda ms, seed, tr: ms.alp_global_model(loss_model(ms, ALP_LOSS), ALP_CAP)),
    "policies.pap_local": (LOCAL, lambda ms, seed, tr: ms.pap_local_model(loss_model(ms, PAP_LOSS), PAP_ATTACHMENT)),
    "policies.ilp_local": (
        LOCAL,
        lambda ms, seed, tr: ms.ilp_local_model(
            ms.ILPAuxModel(aux_rate=ILP_AUX[0], aux_severity=ms.IGParams(mu=ILP_AUX[1], lam=ILP_AUX[2]))
        ),
    ),
    "policies.ilp_global": (GLOBAL, build_ilp_global),
    "stopping.lognormal": (LOCAL, lambda ms, seed, tr: ms.lognormal_local_model(0.0, 1.0)),
    "expansion.gamma": (LOCAL, lambda ms, seed, tr: ms.gamma_local_model(2.0, 0.5)),
}
REFIT_KEY = "expansion.refit_model"
PAP_GLOBAL_KEY = "policies.pap_global"


@dataclass(frozen=True)
class TablesContext:
    horizon: tuple[int, int]
    models: dict


def tables_setup(ms, seed, tiny, tracer, workdir) -> TablesContext:
    models = {}
    for key, (_, build) in TABLE_MODELS.items():
        with tracer.span(key + ".build"):
            models[key] = tracer.wrap(build(ms, seed, tracer), key)
    return TablesContext(TABLE_HORIZON[tiny], models)


def _table_op(ms, tracer, key, objective, horizon, make_model, gate) -> Op:
    def run():
        table = compute_table(ms, tracer, key, make_model(), *horizon)
        with tracer.span("stopping.thresholds"):
            return table, ms.thresholds(table)

    def check(result):
        table, b = result
        return cell_count(*horizon), invariant_problems(table, b, objective) + gate(table)

    return Op(key, run, check)


def tables_ops(ms, ctx: TablesContext, tracer) -> list[Op]:
    refs = load_references()
    models = ctx.models
    scale = math.sqrt(1.0 + ILP_GLOBAL_DRAWS / ILP_GLOBAL_REFERENCE_DRAWS)
    ilp_global_atol = ILP_GLOBAL_Z_BOUND * scale * refs["ilp_global_sd"]

    def gate(key):
        def problems(table):
            atol = ilp_global_atol if key == "policies.ilp_global" else None
            found = reference_problems(table, refs[key.split(".")[1]], atol)
            # the local and global mean gains of ALP and PAP add up to E[Z]
            if key == "policies.alp_global":
                found += mean_sum_problems(models["policies.alp_local"], models[key], loss_model(ms, ALP_LOSS))
            if key == "policies.pap_local":
                pap_global = ms.pap_global_model(loss_model(ms, PAP_LOSS), PAP_ATTACHMENT)
                found += mean_sum_problems(models[key], pap_global, loss_model(ms, PAP_LOSS))
            return found

        return problems

    ops = [
        _table_op(ms, tracer, key, objective, ctx.horizon, lambda m=models[key]: m, gate(key))
        for key, (objective, _) in TABLE_MODELS.items()
    ]

    def refit_model():
        moments = ms.MomentSet.from_loss_moments(*REFIT_MOMENTS)
        with tracer.span("expansion.constrained_refit"):
            refit = ms.constrained_refit(moments)
        with tracer.span(REFIT_KEY + ".build"):
            model = ms.expansion_local_gain_model(refit.fit)
        return tracer.wrap(model, REFIT_KEY)

    ops.append(_table_op(ms, tracer, REFIT_KEY, LOCAL, ctx.horizon, refit_model, gate(REFIT_KEY)))
    return ops


# -- one heavy PAP-global table ------------------------------------------------------


def pap_global_setup(ms, seed, tiny, tracer, workdir) -> TablesContext:
    with tracer.span(PAP_GLOBAL_KEY + ".build"):
        model = ms.pap_global_model(loss_model(ms, PAP_LOSS), PAP_ATTACHMENT)
    return TablesContext(PAP_GLOBAL_HORIZON[tiny], {PAP_GLOBAL_KEY: tracer.wrap(model, PAP_GLOBAL_KEY)})


def pap_global_ops(ms, ctx: TablesContext, tracer) -> list[Op]:
    ref = load_references()["pap_global"]
    model = ctx.models[PAP_GLOBAL_KEY]
    return [
        _table_op(ms, tracer, PAP_GLOBAL_KEY, GLOBAL, ctx.horizon, lambda: model,
                  lambda t: reference_problems(t, ref))
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("studies", "scenarios", ALP_LOSS[1:], studies_setup, studies_ops),
        Workload("tables", "cells", ALP_LOSS[1:], tables_setup, tables_ops),
        Workload("table-pap-global", "cells", PAP_LOSS[1:], pap_global_setup, pap_global_ops),
    )
}
