"""Command-line front end.

Subcommands, each taking only the flags it reads::

    value-table   write the value recursion and claim thresholds as CSV
    advise        interactive year-by-year claim/wait advisor
    experiment    run a named rule-comparison study, write report + CSVs
    approx        fit the Gamma-Laguerre expansion, write fit.json + boundary.csv
    validate      run the quick internal consistency suite

``value-table`` and ``advise`` share one path: the config of ``--config`` or
``--preset``, the flags over it, then its model and value table.

Exit codes: 0 success, 2 configuration error (a usage error included), 3
numerical failure.  Errors are emitted as one JSON object on stderr so
callers can parse them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from copy import deepcopy

import numpy as np

from . import expansion
from .distributions import NumericalError
from .experiments import preset_config, run_experiment
from .policies import (
    GLOBAL,
    LOCAL,
    ConfigError,
    _require,
    gain_model_from_config,
    horizon_from_config,
    lda_from_config,
    load_config,
    policy_from_config,
)
from .simulation import simulate_batch
from .stopping import (
    Decision,
    StoppingState,
    ValueTable,
    compute_value_table,
    decide,
    thresholds,
)

VALUE_TABLE_PRESETS = {
    "lognormal": {
        "lognormal": {"mu": 0.0, "sigma": 1.0},
        "objective": LOCAL,
        "horizon": {"T": 10, "k": 9},
    },
}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError, which main() reports as JSON."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _emit_error(code: int, kind: str, message: str) -> None:
    print(json.dumps({"error": {"code": code, "type": kind, "message": message}}), file=sys.stderr)


def _model_and_table(args):
    """The model named by --config or --preset with the flags applied, its horizon and table."""
    if args.config:
        cfg = load_config(args.config)
    elif args.preset in VALUE_TABLE_PRESETS:
        cfg = deepcopy(VALUE_TABLE_PRESETS[args.preset])
    else:
        cfg = preset_config(args.preset)
    if args.horizon_T is not None:
        cfg.setdefault("horizon", {})["T"] = args.horizon_T
    if args.horizon_k is not None:
        cfg.setdefault("horizon", {})["k"] = args.horizon_k
    if args.objective:
        cfg["objective"] = args.objective
    elif "objective" not in cfg and cfg.get("objectives"):
        cfg["objective"] = cfg["objectives"][0]
    if args.seed is not None:
        cfg.setdefault("mc", {})["seed"] = args.seed
    horizon = horizon_from_config(cfg)
    model = gain_model_from_config(cfg)
    return model, horizon, compute_value_table(model, horizon)


def _write_thresholds_csv(table: ValueTable, path: str) -> None:
    import csv as _csv

    b = thresholds(table)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["year"] + [f"right_{i}" for i in range(1, table.k + 1)])
        for year in range(1, table.T + 1):
            row = b[table.T - year].tolist()
            writer.writerow([year] + ["-inf" if math.isinf(x) else f"{x:.6f}" for x in row])


def cmd_value_table(args) -> int:
    _, _, table = _model_and_table(args)
    os.makedirs(args.out, exist_ok=True)
    table_path = os.path.join(args.out, "table.csv")
    thr_path = os.path.join(args.out, "thresholds.csv")
    table.to_csv(table_path)
    _write_thresholds_csv(table, thr_path)
    print(f"value table (T={table.T}, k={table.k}): v = {table.game_value:.4f}")
    print(f"wrote {table_path} and {thr_path}")
    return 0


def cmd_advise(args) -> int:
    model, horizon, table = _model_and_table(args)
    # a local gain is a negated loss
    to_gain = (lambda x: -x) if args.raw_loss and model.local else (lambda x: x)
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
            *(float(_require(mo, key)) for key in ("mean", "variance", "mu3", "mu4"))
        )
    src = cfg.get("source")
    if not src:
        raise ConfigError("approx needs either \"moments\" or \"source\" in the config")
    kind = _require(src, "kind")
    if kind == "lognormal-poisson":
        mu, sigma, rate = (float(_require(src, key)) for key in ("mu", "sigma", "rate"))
        raw = expansion.lognormal_raw_moments(mu, sigma)
        mean, var, mu3, mu4 = expansion.compound_poisson_loss_moments(rate, raw)
        return expansion.MomentSet.from_loss_moments(mean, var, mu3, mu4)
    if kind == "gamma":
        shape, rate = float(_require(src, "shape")), float(_require(src, "rate"))
        return expansion.MomentSet.from_loss_moments(
            shape / rate, shape / rate**2, 2 * shape / rate**3, (3 * shape + 6) * shape / rate**4
        )
    if kind == "policy":
        n = int(src.get("samples", 200_000))
        seed = int(src.get("seed", 0))
        policy = policy_from_config({**src, "objective": LOCAL})
        batch = simulate_batch(lda_from_config(src), policy, 1, n, seed)
        draws = batch.z_tilde[:, 0]
        if float(np.var(draws)) <= 0:
            raise ConfigError("simulated insured losses are degenerate; cannot fit")
        return expansion.MomentSet.from_sample(draws)
    raise ConfigError(f"unknown moment source kind {kind!r}")


def cmd_approx(args) -> int:
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
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "fit.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    u_hi = expansion.default_scan_limit(fit_for_curve.a)
    grid = np.linspace(u_hi / 400.0, u_hi, 400)
    curve = expansion.positivity_boundary(fit_for_curve.a, grid)
    with open(os.path.join(args.out, "boundary.csv"), "w", newline="", encoding="utf-8") as fh:
        import csv as _csv

        writer = _csv.writer(fh)
        writer.writerow(["u", "mu3", "mu4"])
        for u, m3, m4 in zip(curve.u, curve.mu3, curve.mu4):
            writer.writerow([f"{u:.8f}", f"{m3:.8f}", f"{m4:.8f}"])
    verdict = "positive" if fit.positivity.positive else "violated"
    print(f"fit: a={fit.a:.4f} b={fit.b:.4f} A3={fit.a3:.3e} A4={fit.a4:.3e} [{verdict}]")
    print(f"wrote fit.json and boundary.csv under {args.out}")
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
    parser = _Parser(
        prog="multistop",
        description="Optimal timing of k insurance claims over a T-year horizon.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags of the two subcommands that build a model and its value table
    model = argparse.ArgumentParser(add_help=False)
    source = model.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a JSON model config")
    source.add_argument("--preset", help="named preset")
    model.add_argument("--seed", type=int, help="seed of the ILP-global offline sample")
    model.add_argument("--objective", choices=[LOCAL, GLOBAL])
    model.add_argument("--horizon-T", type=int, dest="horizon_T")
    model.add_argument("--horizon-k", type=int, dest="horizon_k")

    p_table = sub.add_parser(
        "value-table", parents=[model], help="write value table and thresholds CSVs"
    )
    p_table.add_argument("--out", default=".", help="output directory")
    p_table.set_defaults(func=cmd_value_table)

    p_advise = sub.add_parser("advise", parents=[model], help="interactive claim/wait advisor")
    p_advise.add_argument(
        "--raw-loss",
        action="store_true",
        help="enter raw annual losses; they are negated into gains in local mode",
    )
    p_advise.set_defaults(func=cmd_advise)

    p_exp = sub.add_parser("experiment", help="run a rule-comparison study")
    p_exp.add_argument("--preset", required=True, help="study preset")
    p_exp.add_argument("--seed", type=int, help="override the preset's seed")
    p_exp.add_argument("--samples", type=int, help="override scenario count (at least 2)")
    p_exp.add_argument("--out", help="output directory (default ./PRESET-out)")
    p_exp.set_defaults(func=cmd_experiment)

    p_approx = sub.add_parser("approx", help="Gamma-Laguerre density fit utilities")
    p_approx.add_argument("--config", required=True, help="path to a JSON approx config")
    p_approx.add_argument("--out", default=".", help="output directory")
    p_approx.set_defaults(func=cmd_approx)

    p_val = sub.add_parser("validate", help="run the quick consistency suite")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
