import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multistop
from multistop.cli import main


def run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        monkeypatch.setattr("builtins.input", _input_from(io.StringIO(stdin_text)))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _input_from(stream):
    def fake_input(prompt=""):
        print(prompt, end="")  # the real input() echoes its prompt to stdout
        line = stream.readline()
        if line == "":
            raise EOFError
        return line.rstrip("\n")

    return fake_input


def read_table_csv(path):
    cells = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            L = int(row["L"])
            for l in range(1, len(row)):
                key = f"l={l}"
                if key in row and row[key]:
                    cells[(L, l)] = float(row[key])
    return cells


# ---------------------------------------------------------------- value-table


def test_value_table_lognormal_preset(tmp_path, capsys):
    code = main(["value-table", "--preset", "lognormal", "--out", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "v = -11.7796" in out
    cells = read_table_csv(tmp_path / "table.csv")
    assert abs(cells[(1, 1)] - (-1.65)) < 0.01
    assert abs(cells[(7, 4)] - (-3.32)) < 0.01
    assert abs(cells[(10, 9)] - (-11.78)) < 0.01
    assert (2, 3) not in cells  # blank above the diagonal
    with open(tmp_path / "thresholds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[-1]["right_1"] == "-inf"  # year T for an unused first right


def test_value_table_single_right_is_one_column(tmp_path, capsys):
    code = main(
        [
            "value-table",
            "--preset",
            "lognormal",
            "--horizon-T",
            "6",
            "--horizon-k",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    cells = read_table_csv(tmp_path / "table.csv")
    assert set(l for (_, l) in cells) == {1}


def test_value_table_ilp_local_config(tmp_path, capsys):
    cfg = {
        "policy": {"kind": "ILP", "param": 1.0},
        "objective": "local",
        "aux": {"rate": 4.0, "mu": 1.0, "lambda": 3.0},
        "horizon": {"T": 8, "k": 3},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["value-table", "--config", str(cfg_path), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    cells = read_table_csv(tmp_path / "table.csv")
    assert cells[(1, 1)] == pytest.approx(-4.0, abs=1e-9)


@pytest.mark.parametrize("flag", ["--horizon-T", "--horizon-k"])
def test_value_table_zero_horizon_is_a_config_error(tmp_path, capsys, flag):
    # 0 is a given value, not "use the preset's horizon"
    code = main(["value-table", "--preset", "lognormal", flag, "0", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(err.strip())["error"]["type"] == "config"
    assert "value table" not in out
    assert not (tmp_path / "table.csv").exists()


# ---------------------------------------------------------------- advise


def test_advise_replays_reference_walkthrough(tmp_path, monkeypatch, capsys):
    feed = "\n".join(["-0.57", "-0.79", "-4.75", "-1.07", "-1.14", "-5.56", "-1.59"]) + "\n"
    code, out, _ = run_cli(
        [
            "advise",
            "--preset",
            "lognormal",
            "--horizon-T",
            "7",
            "--horizon-k",
            "4",
        ],
        stdin_text=feed,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert "claims made in years: [1, 2, 4, 7]" in out
    assert "threshold -1.53" in out  # year-1 trigger to two decimals
    assert "forced" in out


def test_advise_reprompts_on_garbage(monkeypatch, capsys):
    feed = "\n".join(["spam", "-0.57", "-0.79", "-4.75", "-1.07", "-1.14", "-5.56", "-1.59"]) + "\n"
    code, out, _ = run_cli(
        ["advise", "--preset", "lognormal", "--horizon-T", "7", "--horizon-k", "4"],
        stdin_text=feed,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert "not a number" in out
    assert "claims made in years: [1, 2, 4, 7]" in out


def test_advise_raw_loss_mode(monkeypatch, capsys):
    # entering losses with --raw-loss negates them into gains in local mode
    feed = "\n".join(["0.57", "0.79", "4.75", "1.07", "1.14", "5.56", "1.59"]) + "\n"
    code, out, _ = run_cli(
        [
            "advise",
            "--preset",
            "lognormal",
            "--horizon-T",
            "7",
            "--horizon-k",
            "4",
            "--raw-loss",
        ],
        stdin_text=feed,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert "claims made in years: [1, 2, 4, 7]" in out


@pytest.mark.parametrize("objective", ["local", "LOCAL"])
def test_advise_raw_loss_sign_follows_the_built_model(tmp_path, monkeypatch, capsys, objective):
    # the config's objective is read once, by the model; its case is not the sign
    cfg = {
        "lognormal": {"mu": 0.0, "sigma": 1.0},
        "objective": objective,
        "horizon": {"T": 7, "k": 4},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    feed = "\n".join(["0.57", "0.79", "4.75", "1.07", "1.14", "5.56", "1.59"]) + "\n"
    code, out, _ = run_cli(
        ["advise", "--config", str(cfg_path), "--raw-loss"],
        stdin_text=feed,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert "claims made in years: [1, 2, 4, 7]" in out


# ---------------------------------------------------------------- experiment


def test_experiment_writes_outputs(tmp_path, capsys):
    code = main(
        [
            "experiment",
            "--preset",
            "ilp-study",
            "--samples",
            "400",
            "--out",
            str(tmp_path),
        ]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["preset"] == "ilp-study"
    assert "local" in report["objectives"]
    rules = report["objectives"]["local"]["rules"]
    assert set(rules) == {"optimal", "deterministic", "random", "average"}
    hist_rows = (tmp_path / "hist.csv").read_text().strip().splitlines()
    assert hist_rows[0] == "objective,rule,bin_left,bin_right,count"
    triples_rows = (tmp_path / "triples.csv").read_text().strip().splitlines()
    assert triples_rows[0] == "objective,taus,count,frequency"


def test_experiment_is_seed_deterministic(tmp_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert main(["experiment", "--preset", "ilp-study", "--samples", "300", "--out", str(a_dir), "--seed", "5"]) == 0
    assert main(["experiment", "--preset", "ilp-study", "--samples", "300", "--out", str(b_dir), "--seed", "5"]) == 0
    capsys.readouterr()
    assert (a_dir / "report.json").read_text() == (b_dir / "report.json").read_text()


@pytest.mark.parametrize("samples", ["0", "1", "-5"])
def test_experiment_rejects_too_few_samples(tmp_path, capsys, samples):
    code = main(["experiment", "--preset", "ilp-study", "--samples", samples, "--out", str(tmp_path)])
    _, err = capsys.readouterr()
    assert code == 2
    payload = json.loads(err.strip())
    assert payload["error"]["type"] == "config"
    assert samples in payload["error"]["message"]
    assert not (tmp_path / "report.json").exists()


def test_experiment_unknown_preset_errors(capsys):
    code = main(["experiment", "--preset", "nope"])
    out, err = capsys.readouterr()
    assert code == 2
    payload = json.loads(err.strip())
    assert payload["error"]["code"] == 2
    assert "nope" in payload["error"]["message"]


# ---------------------------------------------------------------- approx


def test_approx_gamma_source_collapses(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"source": {"kind": "gamma", "shape": 2.5, "rate": 0.8}}))
    code = main(["approx", "--config", str(cfg), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert abs(fit["fit"]["A3"]) < 1e-12
    assert abs(fit["fit"]["A4"]) < 1e-12
    assert fit["fit"]["positivity"]["positive"] is True
    assert fit["refit"] is None
    boundary = (tmp_path / "boundary.csv").read_text().strip().splitlines()
    assert boundary[0] == "u,mu3,mu4"
    assert len(boundary) > 100


def test_approx_compound_lognormal_is_positive(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "source": {
                    "kind": "lognormal-poisson",
                    "rate": 2.0,
                    "mu": 1.0,
                    "sigma": math.sqrt(0.8),
                }
            }
        )
    )
    code = main(["approx", "--config", str(cfg), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["fit"]["positivity"]["positive"] is True


def test_approx_out_of_region_moments_trigger_refit(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # kurtosis far below the admissible floor for this skewness
    cfg.write_text(
        json.dumps(
            {"moments": {"mean": 1.06, "variance": 1.06, "mu3": 2.4, "mu4": 5.0}}
        )
    )
    code = main(["approx", "--config", str(cfg), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["fit"]["positivity"]["positive"] is False
    assert fit["refit"] is not None
    assert fit["refit"]["fit"]["positivity"]["positive"] is True


def test_approx_requires_source_or_moments(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({}))
    code = main(["approx", "--config", str(cfg), "--out", str(tmp_path)])
    _, err = capsys.readouterr()
    assert code == 2
    assert json.loads(err.strip())["error"]["type"] == "config"


# ---------------------------------------------------------------- validate


def test_validate_passes(capsys):
    code = main(["validate"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_validate_failure_maps_to_numerical_exit(monkeypatch, capsys):
    monkeypatch.setattr(
        "multistop.validation.run_validation_suite",
        lambda: [("forced failure", False, "synthetic")],
    )
    code = main(["validate"])
    out, err = capsys.readouterr()
    assert code == 3
    assert "[FAIL] forced failure" in out
    assert json.loads(err.strip())["error"]["type"] == "numerical"


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "--preset", "ilp-study", "--horizon-T", "20"],
        ["experiment", "--preset", "ilp-study", "--samples", "abc"],
        ["value-table", "--preset", "lognormal", "--objective", "sideways"],
        ["advise", "--preset", "lognormal", "--out", "."],
        ["value-table", "--config", "model.json", "--preset", "lognormal"],
        ["value-table"],
        ["approx", "--config", "approx.json", "--seed", "1"],
        ["validate", "--seed", "1"],
    ],
)
def test_usage_errors_are_json_config_errors(tmp_path, monkeypatch, capsys, argv):
    # a flag the subcommand does not read, a bad value, or not exactly one model source
    monkeypatch.chdir(tmp_path)
    approx = {"source": {"kind": "gamma", "shape": 2.5, "rate": 0.8}}
    model = {
        "lognormal": {"mu": 0.0, "sigma": 1.0},
        "objective": "local",
        "horizon": {"T": 3, "k": 2},
    }
    (tmp_path / "approx.json").write_text(json.dumps(approx))
    (tmp_path / "model.json").write_text(json.dumps(model))
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["code"] == 2 and error["type"] == "config"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["approx.json", "model.json"]


def test_bad_json_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code = main(["value-table", "--config", str(cfg)])
    _, err = capsys.readouterr()
    assert code == 2
    assert json.loads(err.strip())["error"]["code"] == 2


@pytest.mark.parametrize("command", ["value-table", "approx"])
def test_non_object_json_config_is_a_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    code = main([command, "--config", str(cfg), "--out", str(tmp_path)])
    _, err = capsys.readouterr()
    assert code == 2
    assert json.loads(err.strip())["error"]["type"] == "config"


_MODEL_BASE = {
    "frequency": {"rate": 3.0},
    "severity": {"mu": 1.0, "lambda": 1.0},
    "policy": {"kind": "ALP", "param": 4.0},
    "objective": "local",
    "horizon": {"T": 3, "k": 2},
}


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("value-table", {**_MODEL_BASE, "frequency": 3}),
        ("value-table", {"lognormal": 5, "objective": "local", "horizon": {"T": 3, "k": 2}}),
        ("approx", {"source": "gamma"}),
        ("approx", {"moments": [1, 2]}),
        ("approx", {"source": {**_MODEL_BASE, "kind": "policy", "frequency": 3}}),
    ],
    ids=["frequency", "lognormal", "source", "moments", "policy-source"],
)
def test_non_object_config_entry_is_a_config_error(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    _, err = capsys.readouterr()
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["code"] == 2 and error["type"] == "config"


def _scipy_integrate_modules_after(statements: str) -> str:
    src = str(Path(multistop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"import sys\n{statements}\nprint(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate pulls in scipy.optimize and scipy.sparse.linalg; the
    # package imports it only inside the functions that integrate
    assert _scipy_integrate_modules_after("import multistop.cli") == "[]"


def test_pap_weights_leave_scipy_integrate_unloaded():
    # the crossing pmf is a difference of IG-sum CDFs, not a quadrature
    statements = (
        "from multistop import FrequencyModel, IGParams, LDAModel, pap_weights\n"
        "pap_weights(LDAModel(FrequencyModel(3.0), IGParams(1.0, 1.0)), 4.0)"
    )
    assert _scipy_integrate_modules_after(statements) == "[]"
