"""Preconfigured rule-comparison studies and their file outputs.

Three named presets drive the comparison harness end to end: build the gain
model and value table, simulate a pathwise batch, replay the four rules, and
write ``report.json`` (means, standard errors, reference lines, pairwise
significance), ``hist.csv`` (shared-bin histograms per rule), and
``triples.csv`` (claim-year tuples under the threshold rule).
"""

from __future__ import annotations

import csv
import json
import os
from copy import deepcopy

import numpy as np

from .policies import (
    GLOBAL,
    LOCAL,
    ConfigError,
    PolicySpec,
    alp_global_model,
    alp_local_model,
    aux_from_config,
    ilp_local_model,
    lda_from_config,
    pap_global_model,
    pap_local_model,
)
from .simulation import (
    ScenarioBatch,
    compare_rules,
    default_rules,
    exceedance_probability,
    price_proxy,
    simulate_aux_local_batch,
    simulate_batch,
    stopping_time_distribution,
)
from .stopping import Horizon, compute_value_table

# The aggregate-cap study uses the larger scenario count; the attachment and
# per-loss-cap studies run at the smaller one.  The attachment level of the
# PAP study is set to 4/3 of the mean annual loss.
EXPERIMENT_PRESETS: dict[str, dict] = {
    "alp-study": {
        "frequency": {"rate": 3.0},
        "severity": {"mu": 2.0, "lambda": 3.0},
        "policy": {"kind": "ALP", "param": 10.0},
        "objectives": [GLOBAL, LOCAL],
        "horizon": {"T": 8, "k": 3},
        "mc": {"samples": 50_000, "seed": 20170904},
        "deterministic_years": [1, 5, 8],
    },
    "pap-study": {
        "frequency": {"rate": 3.0},
        "severity": {"mu": 1.0, "lambda": 1.0},
        "policy": {"kind": "PAP", "param": 4.0},
        "objectives": [GLOBAL, LOCAL],
        "horizon": {"T": 8, "k": 3},
        "mc": {"samples": 10_000, "seed": 20170905},
        "deterministic_years": [1, 5, 8],
    },
    "ilp-study": {
        "policy": {"kind": "ILP", "param": float("nan")},
        "aux": {"rate": 4.0, "mu": 1.0, "lambda": 3.0},
        "objectives": [LOCAL],
        "horizon": {"T": 8, "k": 3},
        "mc": {"samples": 10_000, "seed": 20170906},
        "deterministic_years": [1, 5, 8],
    },
}


def preset_config(name: str) -> dict:
    if name not in EXPERIMENT_PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; choose one of {sorted(EXPERIMENT_PRESETS)}"
        )
    return deepcopy(EXPERIMENT_PRESETS[name])


def _gain_model_for(cfg: dict, objective: str):
    kind = cfg["policy"]["kind"]
    if kind == "ILP":
        if objective != LOCAL:
            raise ConfigError("the ILP study runs under the local objective only")
        return ilp_local_model(aux_from_config(cfg))
    lda = lda_from_config(cfg)
    param = float(cfg["policy"]["param"])
    builders = {
        ("ALP", LOCAL): alp_local_model,
        ("ALP", GLOBAL): alp_global_model,
        ("PAP", LOCAL): pap_local_model,
        ("PAP", GLOBAL): pap_global_model,
    }
    return builders[(kind, objective)](lda, param)


def _batch_for(cfg: dict, objective: str, n_scenarios: int, seed: int) -> ScenarioBatch:
    kind = cfg["policy"]["kind"]
    T = int(cfg["horizon"]["T"])
    if kind == "ILP":
        return simulate_aux_local_batch(aux_from_config(cfg), T, n_scenarios, seed)
    policy = PolicySpec(kind=kind, param=float(cfg["policy"]["param"]), objective=objective)
    return simulate_batch(lda_from_config(cfg), policy, T, n_scenarios, seed)


def run_experiment(
    preset: str | dict,
    out_dir: str | os.PathLike | None = None,
    seed: int | None = None,
    n_scenarios: int | None = None,
) -> dict:
    """Run one study and (optionally) write report.json / hist.csv / triples.csv."""
    cfg = preset_config(preset) if isinstance(preset, str) else deepcopy(preset)
    name = preset if isinstance(preset, str) else cfg.get("name", "custom")
    horizon = Horizon(T=int(cfg["horizon"]["T"]), k=int(cfg["horizon"]["k"]))
    n_sim = int(cfg["mc"]["samples"] if n_scenarios is None else n_scenarios)
    if n_sim < 2:
        raise ConfigError(f"a study needs at least 2 scenarios for its standard errors, got {n_sim}")
    run_seed = int(seed if seed is not None else cfg["mc"]["seed"])
    det_years = cfg.get("deterministic_years", [1, horizon.T // 2 + 1, horizon.T])
    kind = cfg["policy"]["kind"]
    lda = lda_from_config(cfg) if kind != "ILP" else None

    report: dict = {
        "preset": name,
        "seed": run_seed,
        "n_scenarios": n_sim,
        "horizon": {"T": horizon.T, "k": horizon.k},
        "objectives": {},
    }
    reports = {}
    batch = None
    for objective in cfg["objectives"]:
        model = _gain_model_for(cfg, objective)
        table = compute_value_table(model, horizon)
        # one (Z, Zt) panel per study: the objectives share its seed
        if batch is None:
            batch = _batch_for(cfg, objective, n_sim, run_seed)
        elif kind != "ILP":  # the ILP aux batch is local whatever the objective
            batch = batch.with_objective(objective)
        rules = default_rules(det_years)
        rr = compare_rules(batch, table, rules, horizon.k, lda=lda)
        triples = stopping_time_distribution(batch, table, horizon.k)
        entry = {
            "game_value": table.game_value,
            "reference_solid": rr.reference_solid,
            "rules": {
                out.name: {"mean": out.mean, "stderr": out.stderr} for out in rr.outcomes
            },
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
            entry["price_proxy"] = price_proxy(batch, table, horizon.k)
        report["objectives"][objective] = entry
        reports[objective] = (rr, triples, batch)
    if kind == "ALP" and lda is not None:
        cap = float(cfg["policy"]["param"])
        first_batch = reports[cfg["objectives"][0]][2]
        report["p_exceed_cap"] = {
            "empirical": float(np.mean(first_batch.z > cap)),
            "analytic": exceedance_probability(lda, cap),
        }
    if out_dir is not None:
        write_outputs(report, reports, out_dir)
    return report


def write_outputs(report: dict, rule_reports: dict, out_dir: str | os.PathLike) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    with open(os.path.join(out_dir, "hist.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["objective", "rule", "bin_left", "bin_right", "count"])
        for objective, (rr, _, _) in rule_reports.items():
            for out in rr.outcomes:
                for left, right, count in zip(
                    rr.hist_edges[:-1], rr.hist_edges[1:], out.hist_counts
                ):
                    writer.writerow([objective, out.name, f"{left:.6f}", f"{right:.6f}", count])
    with open(os.path.join(out_dir, "triples.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["objective", "taus", "count", "frequency"])
        for objective, (rr, triples, _) in rule_reports.items():
            total = rr.n_scenarios
            for taus, count in triples.items():
                writer.writerow(
                    [objective, "-".join(str(t) for t in taus), count, count / total]
                )
