"""Preconfigured rule-comparison studies and their file outputs.

Three named presets drive the comparison harness end to end: build the gain
model and value table, simulate a pathwise batch, replay the four rules, and
write ``report.json`` (seed, stream contract and package version, means,
standard errors, reference lines, pairwise significance), ``hist.csv``
(shared-bin histograms per rule), and ``triples.csv`` (claim-year tuples
under the threshold rule).
"""

from __future__ import annotations

import csv
import json
import os
from copy import deepcopy

import numpy as np

from . import __version__
from .distributions import ConfigError
from .policies import (
    _require,
    gain_model_from_config,
    horizon_from_config,
    objectives_from_config,
    policy_choice,
    policy_from_config,
)
from .simulation import (
    STREAMS,
    _claim_year_tally,
    _Replay,
    _simulate,
    default_rules,
    exceedance_probability,
    reference_lines,
)
from .stopping import GLOBAL, LOCAL, compute_value_table

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


def _default_deterministic_years(T: int, k: int) -> list[int]:
    """``k`` years spread evenly from year 1 to year ``T``: ``1 + ceil(i (T-1) / (k-1))``.

    Strictly increasing for ``k <= T``; year 1 alone when ``k = 1``.
    """
    if k == 1:
        return [1]
    return [1 + -(-i * (T - 1) // (k - 1)) for i in range(k)]


def run_experiment(
    preset: str | dict,
    out_dir: str | os.PathLike | None = None,
    seed: int | None = None,
    n_scenarios: int | None = None,
) -> dict:
    """Run one study and (optionally) write report.json / hist.csv / triples.csv."""
    cfg = preset_config(preset) if isinstance(preset, str) else deepcopy(preset)
    name = preset if isinstance(preset, str) else cfg.get("name", "custom")
    horizon = horizon_from_config(cfg)
    n_sim = int(_require(_require(cfg, "mc"), "samples") if n_scenarios is None else n_scenarios)
    if n_sim < 2:
        raise ConfigError(f"a study needs at least 2 scenarios for its standard errors, got {n_sim}")
    run_seed = int(_require(_require(cfg, "mc"), "seed") if seed is None else seed)
    det_years = cfg.get("deterministic_years", _default_deterministic_years(horizon.T, horizon.k))

    report: dict = {
        "preset": name,
        "seed": run_seed,
        "streams": STREAMS,
        "version": __version__,
        "n_scenarios": n_sim,
        "horizon": {"T": horizon.T, "k": horizon.k},
        "objectives": {},
    }
    tables = {}
    for given in objectives_from_config(cfg):
        run_cfg = {**cfg, "objective": given}
        kind, objective = policy_choice(run_cfg)
        if kind == "ILP" and objective != LOCAL:
            raise ConfigError("the ILP study runs under the local objective only")
        model = gain_model_from_config(run_cfg)
        tables[objective] = compute_value_table(model, horizon)
        # the ILP study simulates its insured process, a law of its own
        lda, policy = (model.aux.lda, None) if kind == "ILP" else (model.lda, policy_from_config(run_cfg))
    cap = policy.param if kind == "ALP" else None
    replay = _Replay(tables, default_rules(det_years), n_sim, run_seed)
    exceeding = 0
    # one (Z, Zt) panel per study: the objectives share its seed
    for z, zt in _simulate(lda, policy, horizon.T, n_sim, run_seed):
        replay.add(z, zt)
        if cap is not None:
            exceeding += int(np.count_nonzero(z > cap))
    reports = {}
    for objective, table in tables.items():
        rr = replay.report(objective, reference_lines(table, lda, objective))
        triples = _claim_year_tally(replay.taus[objective])
        p_values = {other: rr.paired_pvalue(other) for other in ("deterministic", "random", "average")}
        entry = {
            "game_value": table.game_value,
            "reference_solid": rr.reference_solid,
            "rules": {
                out.name: {"mean": out.mean, "stderr": out.stderr} for out in rr.outcomes
            },
            "optimal_beats": {
                other: {"p_value": p, "significant_1pct": p < 0.01}
                for other, p in p_values.items()
            },
            "deterministic_years": list(det_years),
            "triples": [
                {"taus": list(taus), "count": count, "frequency": count / n_sim}
                for taus, count in sorted(triples.items(), key=lambda kv: -kv[1])
            ],
        }
        if objective == GLOBAL:
            entry["price_proxy"] = float(replay.claimed.mean())
        report["objectives"][objective] = entry
        reports[objective] = (rr, triples)
    if cap is not None:
        report["p_exceed_cap"] = {
            "empirical": exceeding / (n_sim * horizon.T),
            "analytic": exceedance_probability(lda, cap),
        }
    if out_dir is not None:
        write_outputs(report, reports, out_dir)
    return report


def write_outputs(report: dict, rule_reports: dict, out_dir: str | os.PathLike) -> None:
    """Write report.json, hist.csv and triples.csv.

    ``rule_reports`` maps each objective to a tuple that starts with its rule
    report and its claim-year tally; any further items are not read.
    """
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    with open(os.path.join(out_dir, "hist.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["objective", "rule", "bin_left", "bin_right", "count"])
        for objective, (rr, *_) in rule_reports.items():
            for out in rr.outcomes:
                for left, right, count in zip(
                    rr.hist_edges[:-1], rr.hist_edges[1:], out.hist_counts
                ):
                    writer.writerow([objective, out.name, f"{left:.6f}", f"{right:.6f}", count])
    with open(os.path.join(out_dir, "triples.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["objective", "taus", "count", "frequency"])
        for objective, (rr, triples, *_) in rule_reports.items():
            total = rr.n_scenarios
            for taus, count in triples.items():
                writer.writerow(
                    [objective, "-".join(str(t) for t in taus), count, count / total]
                )
