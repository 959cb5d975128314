"""Command-line front end.

Subcommands::

    value-table   write the value recursion and claim thresholds as CSV
    advise        interactive year-by-year claim/wait advisor
    experiment    run a named rule-comparison study, write report + CSVs
    approx        fit the Gamma-Laguerre expansion, write fit.json + boundary.csv
    validate      run the quick internal consistency suite

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  Errors
are emitted as one JSON object on stderr so callers can parse them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import expansion
from .distributions import NumericalError
from .experiments import preset_config, run_experiment
from .policies import (
    GLOBAL,
    LOCAL,
    ConfigError,
    aux_from_config,
    gain_model_from_config,
    ilp_local_model,
    load_config,
)
from .simulation import simulate_batch
from .stopping import (
    Decision,
    Horizon,
    StoppingState,
    ValueTable,
    compute_value_table,
    decide,
    lognormal_local_model,
)

VALUE_TABLE_PRESETS = {
    "lognormal": {
        "lognormal": {"mu": 0.0, "sigma": 1.0},
        "objective": LOCAL,
        "horizon": {"T": 10, "k": 9},
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: model config plus horizon, output, and seed."""

    model: dict
    horizon: Horizon
    out_dir: str | None
    seed: int | None
    preset: str | None


def _emit_error(code: int, kind: str, message: str) -> None:
    print(json.dumps({"error": {"code": code, "type": kind, "message": message}}), file=sys.stderr)


def _resolve_model_config(args) -> dict:
    if args.config:
        cfg = load_config(args.config)
    elif args.preset:
        if args.preset in VALUE_TABLE_PRESETS:
            cfg = json.loads(json.dumps(VALUE_TABLE_PRESETS[args.preset]))
        else:
            cfg = preset_config(args.preset)
    else:
        raise ConfigError("provide --config PATH or --preset NAME")
    if args.horizon_T:
        cfg.setdefault("horizon", {})["T"] = args.horizon_T
    if args.horizon_k:
        cfg.setdefault("horizon", {})["k"] = args.horizon_k
    if args.objective:
        cfg["objective"] = args.objective
    if "objective" not in cfg:
        objectives = cfg.get("objectives")
        if not objectives:
            raise ConfigError("config must set an objective")
        cfg["objective"] = objectives[0]
    if args.seed is not None:
        cfg.setdefault("mc", {})["seed"] = args.seed
    return cfg


def resolve_run_config(args) -> RunConfig:
    cfg = _resolve_model_config(args)
    return RunConfig(
        model=cfg,
        horizon=_horizon(cfg),
        out_dir=args.out,
        seed=args.seed,
        preset=args.preset,
    )


def _build_model(cfg: dict):
    if "lognormal" in cfg:
        ln = cfg["lognormal"]
        return lognormal_local_model(float(ln.get("mu", 0.0)), float(ln.get("sigma", 1.0)))
    if "gamma" in cfg:
        gm = cfg["gamma"]
        return expansion.gamma_local_model(float(gm["shape"]), float(gm["rate"]))
    if cfg["policy"]["kind"] == "ILP" and cfg["objective"] == LOCAL:
        # study presets leave the per-loss cap unset for the aux-modelled case
        return ilp_local_model(aux_from_config(cfg))
    return gain_model_from_config(cfg)


def _horizon(cfg: dict) -> Horizon:
    hz = cfg.get("horizon")
    if not hz:
        raise ConfigError("config must carry a horizon: {\"T\": ..., \"k\": ...}")
    return Horizon(T=int(hz["T"]), k=int(hz["k"]))


def _write_thresholds_csv(table: ValueTable, path: str) -> None:
    import csv as _csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["year"] + [f"right_{i}" for i in range(1, table.k + 1)])
        for year in range(1, table.T + 1):
            row: list[object] = [year]
            for i in range(1, table.k + 1):
                b = table.threshold(table.T - year, i)
                row.append("-inf" if math.isinf(b) else f"{b:.6f}")
            writer.writerow(row)


def cmd_value_table(args) -> int:
    run = resolve_run_config(args)
    model = _build_model(run.model)
    horizon = run.horizon
    table = compute_value_table(model, horizon)
    out = run.out_dir or "."
    os.makedirs(out, exist_ok=True)
    table_path = os.path.join(out, "table.csv")
    thr_path = os.path.join(out, "thresholds.csv")
    table.to_csv(table_path)
    _write_thresholds_csv(table, thr_path)
    print(f"value table (T={horizon.T}, k={horizon.k}): v = {table.game_value:.4f}")
    print(f"wrote {table_path} and {thr_path}")
    return 0


def cmd_advise(args) -> int:
    run = resolve_run_config(args)
    model = _build_model(run.model)
    horizon = run.horizon
    table = compute_value_table(model, horizon)
    local_losses = args.raw_loss and run.model["objective"] == LOCAL
    to_gain = (lambda x: -x) if local_losses else (lambda x: x)
    claims: list[int] = []
    print(f"advisor ready: T={horizon.T} years, k={horizon.k} rights. ctrl-d to stop.")
    for year in range(1, horizon.T + 1):
        if len(claims) == horizon.k:
            break
        state = StoppingState(
            year=year, rights_used=len(claims), horizon=horizon, table=table
        )
        b = state.current_threshold
        label = "-inf (forced)" if math.isinf(b) else f"{b:.4f}"
        while True:
            prompt = (
                f"year {year} | rights used {len(claims)}/{horizon.k} | threshold {label}\n"
                f"observed {'annual loss' if args.raw_loss else 'gain'}: "
            )
            line = _read_line(prompt)
            if line is None:
                print("input closed; stopping advisor")
                return 0
            try:
                w = to_gain(float(line.strip()))
                break
            except ValueError:
                print("not a number, try again")
        if decide(state, w) is Decision.CLAIM:
            claims.append(year)
            print(f"-> CLAIM (right {len(claims)} of {horizon.k})")
        else:
            print("-> WAIT")
    print(f"claims made in years: {claims}")
    return 0


def _read_line(prompt: str) -> str | None:
    try:
        return input(prompt)
    except EOFError:
        return None


def cmd_experiment(args) -> int:
    if not args.preset:
        raise ConfigError("experiment requires --preset NAME")
    out = args.out or f"./{args.preset}-out"
    report = run_experiment(
        args.preset, out_dir=out, seed=args.seed, n_scenarios=args.samples
    )
    for objective, entry in report["objectives"].items():
        beats = all(v["significant_1pct"] for v in entry["optimal_beats"].values())
        print(
            f"{args.preset} [{objective}]: optimal mean {entry['rules']['optimal']['mean']:.4f} "
            f"vs reference {entry['reference_solid']:.4f}; beats others at 1%: {beats}"
        )
    print(f"wrote report.json, hist.csv, triples.csv under {out}")
    return 0


def _moments_from_config(cfg: dict) -> expansion.MomentSet:
    if "moments" in cfg:
        mo = cfg["moments"]
        return expansion.MomentSet.from_loss_moments(
            float(mo["mean"]), float(mo["variance"]), float(mo["mu3"]), float(mo["mu4"])
        )
    src = cfg.get("source")
    if not src:
        raise ConfigError("approx needs either \"moments\" or \"source\" in the config")
    kind = src.get("kind")
    if kind == "lognormal-poisson":
        raw = expansion.lognormal_raw_moments(float(src["mu"]), float(src["sigma"]))
        mean, var, mu3, mu4 = expansion.compound_poisson_loss_moments(float(src["rate"]), raw)
        return expansion.MomentSet.from_loss_moments(mean, var, mu3, mu4)
    if kind == "gamma":
        shape, rate = float(src["shape"]), float(src["rate"])
        return expansion.MomentSet.from_loss_moments(
            shape / rate, shape / rate**2, 2 * shape / rate**3, (3 * shape + 6) * shape / rate**4
        )
    if kind == "policy":
        n = int(src.get("samples", 200_000))
        seed = int(src.get("seed", 0))
        from .policies import PolicySpec, lda_from_config

        policy = PolicySpec(
            kind=str(src["policy"]["kind"]).upper(),
            param=float(src["policy"]["param"]),
            objective=LOCAL,
        )
        batch = simulate_batch(lda_from_config(src), policy, 1, n, seed)
        draws = batch.z_tilde[:, 0]
        if float(np.var(draws)) <= 0:
            raise ConfigError("simulated insured losses are degenerate; cannot fit")
        return expansion.MomentSet.from_sample(draws)
    raise ConfigError(f"unknown moment source kind {kind!r}")


def cmd_approx(args) -> int:
    if not args.config:
        raise ConfigError("approx requires --config PATH")
    cfg = load_config(args.config)
    moments = _moments_from_config(cfg)
    fit = expansion.fit_expansion(moments)
    result: dict = {
        "moments": {
            "mean": moments.mean,
            "variance": moments.variance,
            "mu3_scaled": moments.mu3,
            "mu4_scaled": moments.mu4,
        },
        "fit": _fit_dict(fit),
        "refit": None,
    }
    if not fit.positivity.positive:
        refit = expansion.constrained_refit(moments)
        result["refit"] = {
            "fit": _fit_dict(refit.fit),
            "projected_mu3": refit.moments.mu3,
            "projected_mu4": refit.moments.mu4,
            "u_at_projection": refit.u_at_projection,
            "segment": list(refit.segment),
        }
        fit_for_curve = refit.fit
    else:
        fit_for_curve = fit
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "fit.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    u_hi = expansion.default_scan_limit(fit_for_curve.a)
    grid = np.linspace(u_hi / 400.0, u_hi, 400)
    curve = expansion.positivity_boundary(fit_for_curve.a, grid)
    with open(os.path.join(out, "boundary.csv"), "w", newline="", encoding="utf-8") as fh:
        import csv as _csv

        writer = _csv.writer(fh)
        writer.writerow(["u", "mu3", "mu4"])
        for u, m3, m4 in zip(curve.u, curve.mu3, curve.mu4):
            writer.writerow([f"{u:.8f}", f"{m3:.8f}", f"{m4:.8f}"])
    verdict = "positive" if fit.positivity.positive else "violated"
    print(f"fit: a={fit.a:.4f} b={fit.b:.4f} A3={fit.a3:.3e} A4={fit.a4:.3e} [{verdict}]")
    print(f"wrote fit.json and boundary.csv under {out}")
    return 0


def _fit_dict(fit: expansion.ExpansionFit) -> dict:
    return {
        "a": fit.a,
        "b": fit.b,
        "A3": fit.a3,
        "A4": fit.a4,
        "astar": [float(v) for v in fit.astar],
        "positivity": {
            "positive": fit.positivity.positive,
            "u_violation": fit.positivity.u_violation,
            "min_value": None
            if math.isinf(fit.positivity.min_value)
            else fit.positivity.min_value,
        },
    }


def cmd_validate(args) -> int:
    from .validation import run_validation_suite

    results = run_validation_suite()
    failed = 0
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failed += 0 if ok else 1
    if failed:
        raise NumericalError(f"{failed} validation check(s) failed")
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multistop",
        description="Optimal timing of k insurance claims over a T-year horizon.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="path to a JSON model config")
        p.add_argument("--preset", help="named preset", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output directory", default=None)
        p.add_argument("--objective", choices=[LOCAL, GLOBAL], default=None)
        p.add_argument("--horizon-T", type=int, dest="horizon_T", default=None)
        p.add_argument("--horizon-k", type=int, dest="horizon_k", default=None)

    p_table = sub.add_parser("value-table", help="write value table and thresholds CSVs")
    common(p_table)
    p_table.set_defaults(func=cmd_value_table)

    p_advise = sub.add_parser("advise", help="interactive claim/wait advisor")
    common(p_advise)
    p_advise.add_argument(
        "--raw-loss",
        action="store_true",
        help="enter raw annual losses; they are negated into gains in local mode",
    )
    p_advise.set_defaults(func=cmd_advise)

    p_exp = sub.add_parser("experiment", help="run a rule-comparison study")
    common(p_exp)
    p_exp.add_argument("--samples", type=int, default=None, help="override scenario count (at least 2)")
    p_exp.set_defaults(func=cmd_experiment)

    p_approx = sub.add_parser("approx", help="Gamma-Laguerre density fit utilities")
    common(p_approx)
    p_approx.set_defaults(func=cmd_approx)

    p_val = sub.add_parser("validate", help="run the quick consistency suite")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _emit_error(2, "config", str(exc))
        return 2
    except (ValueError, KeyError, OSError) as exc:
        _emit_error(2, "config", f"{type(exc).__name__}: {exc}")
        return 2
    except NumericalError as exc:
        _emit_error(3, "numerical", str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
