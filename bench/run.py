#!/usr/bin/env python3
"""multistop benchmark: end-to-end metrics, or with ``--trace 1`` the per-layer split.

Run from a checkout of the repository (``BENCHMARK.json`` lists the metrics):

    python3 bench/run.py --workload studies --seed 1 --seconds 40 --trace 0

The library is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.  All load comes from this one
process and thread: the BLAS/OpenMP pools are pinned to one thread before
numpy is imported, and no thread or process is started.

``--trace 0`` sets up ``SETUP_REPS`` times (re-importing ``multistop`` each
time), runs passes over the workload's fixed ops in a closed loop of one
caller for ``--seconds`` and reports each op's median time over the passes,
then sets up ``SETUP_REPS`` times more; ``setup_s`` is the median of all
set-ups, so it spans the start and the end of the run.  ``--trace 1`` runs one untraced pass and one
traced pass, derives the layer metrics from the traced spans, and reports
the difference between the two passes as the tracing overhead.  The last
line of standard output is the result object; the line before it records
the run facts and the raw per-pass figures.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

from spans import NullTracer, SpanStats, Tracer

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 8
KERNEL_PROBE_SIZE = 1_000_000
KERNEL_PROBE_REPS = 3
MODEL_KEYS = (
    "policies.alp_local",
    "policies.alp_global",
    "policies.pap_local",
    "policies.pap_global",
    "policies.ilp_local",
    "policies.ilp_global",
    "expansion.refit_model",
    "expansion.gamma",
    "stopping.lognormal",
)
BUSY_LAYERS = (
    "policies.ilp_global_sample",
    "expansion.constrained_refit",
    "simulation.compare_rules",
    "simulation.stopping_time_distribution",
    "simulation.price_proxy",
    "simulation.exceedance_probability",
)
NULL = NullTracer()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for checking the benchmark itself")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative: it seeds numpy's SeedSequence")
    return args


def run_pass(ops, tally: Tally) -> tuple[float, int, dict]:
    """Run every op once; returns op time, work units done and per-op seconds."""
    wall, units, op_s = 0.0, 0, {}
    for op in ops:
        tally.attempted += 1
        start = perf_counter()
        try:
            result = op.run()
        except Exception:  # an op that raises counts as failed; the run goes on
            op_s[op.name] = perf_counter() - start
            wall += op_s[op.name]
            tally.failed += 1
            print(f"op {op.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        op_s[op.name] = perf_counter() - start
        wall += op_s[op.name]
        n, problems = op.check(result)
        units += n
        if problems:
            tally.failed += 1
            print(f"op {op.name} failed its gates: {problems}", file=sys.stderr)
    return wall, units, op_s


def timed_setup(workload, seed, tiny, workdir):
    """Import ``multistop.cli`` afresh and set the workload up, SETUP_REPS times."""
    import_s, setup_s = [], []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m == "multistop" or m.startswith("multistop.")]:
            del sys.modules[name]
        start = perf_counter()
        importlib.import_module("multistop.cli")
        imported = perf_counter()
        ms = sys.modules["multistop"]
        ctx = workload.setup(ms, seed, tiny, NULL, workdir)
        import_s.append(imported - start)
        setup_s.append(perf_counter() - start)
    return ms, ctx, import_s, setup_s


def kernel_probes(ms, mu, lam, seed) -> dict[str, float]:
    """Evaluations per second of the public IG kernels on a fixed vector."""
    import numpy as np

    x = np.linspace(1e-3, 20.0, KERNEL_PROBE_SIZE)
    params = ms.IGParams(mu=mu, lam=lam)
    rng = np.random.default_rng(seed)
    probes = {
        "distributions.ig_cdf.evals_per_s": lambda: ms.ig_cdf(x, params),
        "distributions.ig_partial_expectation.evals_per_s": lambda: ms.ig_partial_expectation(x, 3, params),
        "distributions.sample_ig.draws_per_s": lambda: ms.sample_ig(params, rng, size=x.size),
    }
    rates = {}
    for name, probe in probes.items():
        times = []
        for _ in range(KERNEL_PROBE_REPS):
            start = perf_counter()
            probe()
            times.append(perf_counter() - start)
        rates[name] = x.size / median(times)
    return rates


def layer_metrics(main, probe, kernels, import_s, overhead) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced spans.

    A layer the workload never calls is measured on the probe spans, taken
    from the other workloads' ops at tiny size, so every metric is measured
    on every workload.
    """

    def pick(layer):
        return main if main.has_layer(layer) else probe

    m = {name: (rate, "1/s") for name, rate in kernels.items()}
    m["stopping.compute_value_table.busy_s"] = (main.busy("stopping.compute_value_table"), "s")
    m["stopping.compute_value_table.cells"] = (main.attr_sum("stopping.compute_value_table", "cells"), "count")
    m["stopping.self_s"] = (main.self_time("stopping.compute_value_table"), "s")
    m["stopping.thresholds.busy_s"] = (main.busy("stopping.thresholds"), "s")
    for key in MODEL_KEYS:
        stats = pick(key)
        calls, call_s = stats.model_calls(key)
        cells = stats.attr_sum("stopping.compute_value_table", "cells", model=key)
        m[f"{key}.build_s"] = (stats.self_time(f"{key}.build"), "s")
        m[f"{key}.calls"] = (calls, "count")
        m[f"{key}.us_per_cell"] = (1e6 * call_s / cells if cells else 0.0, "us")
    for layer in BUSY_LAYERS:
        m[f"{layer}.busy_s"] = (pick(layer).busy(layer), "s")
    sim = pick("simulation.simulate")
    sim_s = sim.busy("simulation.simulate")
    m["simulation.simulate.calls"] = (sim.count("simulation.simulate"), "count")
    m["simulation.simulate.busy_s"] = (sim_s, "s")
    m["simulation.simulate.scenarios_per_s"] = (
        sim.attr_sum("simulation.simulate", "scenarios") / sim_s if sim_s else 0.0,
        "1/s",
    )
    out = pick("experiments.write_outputs")
    m["experiments.write_outputs.busy_s"] = (out.busy("experiments.write_outputs"), "s")
    m["experiments.write_outputs.bytes"] = (out.attr_sum("experiments.write_outputs", "bytes"), "bytes")
    m["cli.import_s"] = (import_s, "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def measure(workload, ms, ctx, seconds, tally) -> tuple[dict, dict]:
    """End-to-end metrics: a closed loop of one caller over the fixed ops.

    Passes repeat until another pass as long as the last would overrun
    ``seconds``.  ``wall_s`` sums each op's median time over the passes.
    """
    ops = workload.ops(ms, ctx, NULL)
    deadline = perf_counter() + seconds
    passes = []
    while True:
        start = perf_counter()
        passes.append(run_pass(ops, tally))
        now = perf_counter()
        if now + (now - start) > deadline:
            break
    op_s = {op.name: median([p[2][op.name] for p in passes]) for op in ops}
    wall_s = sum(op_s.values())
    units = passes[0][1]
    metrics = {
        "wall_s": (wall_s, "s"),
        "throughput_per_s": (units / wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record = {
        "pass_wall_s": [p[0] for p in passes],
        "op_median_s": op_s,
        "units_per_pass": units,
        f"{workload.unit}_per_s": units / wall_s,
    }
    return metrics, record


def trace_layers(workload, ms, ctx, seed, tiny, workdir, tally, import_s) -> tuple[dict, dict]:
    """Per-layer metrics: one untraced pass, then a traced set-up and pass.

    Probe spans come from every other workload at tiny size, run untraced
    and then traced like the main one.
    """
    from workloads import WORKLOADS

    untraced, _, _ = run_pass(workload.ops(ms, ctx, NULL), tally)
    tracer = Tracer()
    traced, _, _ = run_pass(workload.ops(ms, workload.setup(ms, seed, tiny, tracer, workdir), tracer), tally)
    probe = Tracer()
    for other in WORKLOADS.values():
        if other is not workload:
            run_pass(other.ops(ms, other.setup(ms, seed, True, NULL, workdir), NULL), tally)
            run_pass(other.ops(ms, other.setup(ms, seed, True, probe, workdir), probe), tally)
    kernels = kernel_probes(ms, *workload.kernel_ig, seed)
    overhead = traced / untraced - 1.0
    metrics = layer_metrics(SpanStats(tracer.spans), SpanStats(probe.spans), kernels, import_s, overhead)
    spans_file = OUT / f"spans-{workload.name}.json"
    spans_file.write_text(json.dumps({"main": tracer.spans, "probe": probe.spans}), encoding="utf-8")
    record = {
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, record


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def proc_field(path: str, field: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(field):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_facts(ms, args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "multistop").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "multistop": ms.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "threads": proc_field("/proc/self/status", "Threads"),
    }


def expected_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "multistop" / "__init__.py").is_file():
        print(f"error: no multistop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        ms, ctx, import_s, setup_s = timed_setup(workload, args.seed, tiny, workdir)
        if not Path(ms.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported multistop from {ms.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.trace == 0:
            metrics, record = measure(workload, ms, ctx, args.seconds, tally)
            setup_s += timed_setup(workload, args.seed, tiny, workdir)[3]
            metrics["setup_s"] = (median(setup_s), "s")
        else:
            metrics, record = trace_layers(workload, ms, ctx, args.seed, tiny, workdir, tally, median(import_s))
        record.update(setup_s=setup_s, import_s=import_s, fail_ratio=tally.failed / tally.attempted)
        record["facts"] = run_facts(ms, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expected = expected_metrics(args.trace)
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != expected:
        raise RuntimeError(f"metrics {emitted} do not match BENCHMARK.json {expected}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
