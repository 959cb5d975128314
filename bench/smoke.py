#!/usr/bin/env python3
"""Smoke check of the benchmark itself at tiny sizes (about a minute).

    python3 bench/smoke.py

It runs every workload with ``--size tiny`` untraced and traced, and asserts
that each run is correct and emits every metric of ``BENCHMARK.json`` with
its unit; that the studies replay reproduces ``run_experiment``; and that in
a directory holding only ``BENCHMARK.json`` and ``bench/`` the benchmark
exits with an error and prints no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 7


def bench(workload: str, trace: int) -> dict:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    assert code == 0, f"{workload} trace {trace}: exit code {code}"
    return json.loads(out.getvalue().splitlines()[-1])


def check_result(result: dict, expected: dict[str, str], positive: bool, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{label}: {result}"
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == expected, f"{label}: emitted {units}, BENCHMARK.json has {expected}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), f"{label}: {name}"
        assert metric["value"] > 0 or not positive, f"{label}: end-to-end metric {name} is not positive"


def check_replay() -> None:
    """The traced replay equals run_experiment, and simulates five batches."""
    import multistop as ms

    import workloads as wl
    from spans import SpanStats, Tracer

    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for preset in wl.STUDY_PRESETS:
            expected = ms.run_experiment(preset, seed=SEED, n_scenarios=wl.STUDY_TINY_SCENARIOS)
            replay = wl.replay_study(ms, tracer, preset, SEED, wl.STUDY_TINY_SCENARIOS, Path(tmp) / preset)
            assert wl.replay_mismatches(replay, expected) == [], preset
    assert SpanStats(tracer.spans).count("simulation.simulate") == 5


def check_bare_directory() -> None:
    """Without the library sources the benchmark fails and prints no result."""
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, f"{HERE.name}/run.py", "--workload", "studies", "--seed", "1", "--seconds", "1"]
        proc = subprocess.run(argv, cwd=tmp, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0, proc
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[group]}
            label = f"{workload['name']} trace {trace}"
            check_result(bench(workload["name"], trace), expected, trace == 0, label)
            print(f"ok  {label}")
    check_replay()
    print("ok  studies replay equals run_experiment")
    check_bare_directory()
    print("ok  no result without the library sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
