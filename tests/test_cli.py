import csv
import functools
import json
import os

import numpy as np
import pytest

from bwfrechet import cli
from bwfrechet.cli import main
from bwfrechet.dataio import dataset_checksum, load_result
from bwfrechet.frechet import SolverOptions


def run_cli(*argv):
    return main(list(argv))


def simulate(tmp_path, name="data.json", n=16, fmt="json", seed=5, extra=()):
    out = tmp_path / name
    rc = run_cli(
        "simulate",
        "--example", "1",
        "--n", str(n),
        "--p-y", "2",
        "--p-z", "1",
        "--d", "3",
        "--seed", str(seed),
        "--format", fmt,
        "--out", str(out),
        *extra,
    )
    assert rc == 0
    return out


def write_config(tmp_path, name="config.json", **kw):
    base = dict(
        example=1,
        n=16,
        p_y=2,
        p_z=1,
        d=3,
        trials=3,
        mc_draws=2000,
        seed=4,
        max_nonconverged=1.0,
    )
    base.update(kw)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


# ---------------------------------------------------------------------------
# simulate / fit / test round trips
# ---------------------------------------------------------------------------


def test_simulate_then_test_roundtrip(tmp_path, capsys):
    data_path = simulate(tmp_path)
    payload = json.loads(data_path.read_text())
    assert payload["format"] == "bwfrechet-dataset"
    assert payload["metadata"]["example"] == 1

    out = tmp_path / "result.json"
    rc = run_cli(
        "test",
        "--data", str(data_path),
        "--mc-draws", "2000",
        "--max-nonconverged", "1",
        "--seed", "3",
        "--out", str(out),
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "statistic=" in text and "reject=" in text

    body = load_result(out)
    assert body["kind"] == "partial-test"
    assert body["seed"] == 3
    assert body["input_sha256"] == dataset_checksum(data_path)
    assert body["statistic"] >= 0.0
    assert 0.0 < body["p_value"] <= 1.0

    # file outputs are deterministic given the same inputs
    out2 = tmp_path / "result2.json"
    rc = run_cli(
        "test",
        "--data", str(data_path),
        "--mc-draws", "2000",
        "--max-nonconverged", "1",
        "--seed", "3",
        "--out", str(out2),
    )
    assert rc == 0
    assert json.loads(out.read_text()) == json.loads(out2.read_text())


def test_fit_on_tabular_dataset(tmp_path, capsys):
    data_dir = simulate(tmp_path, name="tab", fmt="tabular")
    out = tmp_path / "fit.json"
    rc = run_cli("fit", "--data", str(data_dir), "--at", "0.1,-0.2,0.3", "--out", str(out))
    assert rc == 0
    assert "converged=True" in capsys.readouterr().out
    body = load_result(out)
    assert body["kind"] == "fit"
    mean = np.asarray(body["mean"])
    assert mean.shape == (3, 3)
    assert np.linalg.eigvalsh(mean)[0] > 0
    assert body["input_sha256"] == dataset_checksum(data_dir)

    rc = run_cli("fit", "--data", str(data_dir), "--at", "0.1,0.2")
    assert rc == 2  # wrong arity


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_code_invalid_input(tmp_path, capsys):
    rc = run_cli("test", "--data", str(tmp_path / "absent.json"))
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    data_path = simulate(tmp_path)
    rc = run_cli("test", "--data", str(data_path), "--p1", "9")
    assert rc == 2
    rc = run_cli("test", "--data", str(data_path), "--alpha", "1.5", "--mc-draws", "2000")
    assert rc == 2
    rc = run_cli("test", "--data", str(data_path), "--permute-seed", "-1")
    assert rc == 2
    assert "permute_seed" in capsys.readouterr().err
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    rc = run_cli("test", "--data", str(listed))
    assert rc == 2
    assert "expected a JSON object" in capsys.readouterr().err


def test_exit_code_numerical_failure(tmp_path, capsys):
    # two samples cannot identify a 2x2 covariate covariance: singular moments
    payload = {
        "format": "bwfrechet-dataset",
        "version": 1,
        "n": 2,
        "p": 2,
        "p1": 1,
        "d": 2,
        "covariates": [[0.25, -0.5], [-1.0, 0.75]],
        "responses": [
            [[2.0, 0.5], [0.5, 1.5]],
            [[3.0, -0.25], [-0.25, 1.0]],
        ],
        "metadata": {},
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(payload))
    rc = run_cli("fit", "--data", str(path), "--at", "0.0,0.0")
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_unreliable(tmp_path, capsys):
    # n=4 leaves two fitting samples: singular moments in every such trial;
    # n=3 is too few to split at all. So each test study, and the consistency
    # study at n=3, completes zero trials and reports an unreliable result
    cfg = write_config(tmp_path, n=4, trials=2, n_grid=[3, 16], consistency_trials=2)
    for command in ("qq", "size", "power", "consistency"):
        out = tmp_path / command
        rc = run_cli(command, "--config", str(cfg), "--out", str(out))
        assert rc == 4, command
        assert "unreliable result" in capsys.readouterr().err
        # the records that say why are written before the exit
        with open(out / "records.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if command == "consistency":
            assert {row["n"] for row in rows} == {"3", "16"}
            rows = [row for row in rows if row["n"] == "3"]
            too_few = "InvalidInputError: need at least 4 samples"
            assert rows and all(too_few in row["error"] for row in rows)
        else:
            assert rows and all("SingularError" in row["error"] for row in rows)
        assert not (out / "summary.json").exists()


def test_exit_code_unreliable_fits(tmp_path, monkeypatch, capsys):
    # one solver step at an unreachable tolerance leaves every fit
    # unconverged; the test must honour --max-nonconverged
    data_path = tmp_path / "ex2.json"
    rc = run_cli(
        "simulate", "--example", "2", "--n", "16", "--p-y", "2", "--p-z", "1",
        "--d", "4", "--seed", "5", "--out", str(data_path),
    )
    assert rc == 0
    starved = SolverOptions(max_iters=1, grad_tol=1e-14)
    monkeypatch.setattr(cli, "TestOptions", functools.partial(cli.TestOptions, solver=starved))
    rc = run_cli("test", "--data", str(data_path), "--max-nonconverged", "0")
    assert rc == 4
    assert "unreliable result" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        run_cli("--version")
    assert info.value.code == 0


# ---------------------------------------------------------------------------
# environment defaults
# ---------------------------------------------------------------------------


def test_env_seed_default(tmp_path, monkeypatch):
    data_path = simulate(tmp_path)
    out = tmp_path / "env.json"
    monkeypatch.setenv("BWFRECHET_SEED", "123")
    monkeypatch.setenv("BWFRECHET_THREADS", "2")
    rc = run_cli(
        "test",
        "--data", str(data_path),
        "--mc-draws", "2000",
        "--max-nonconverged", "1",
        "--out", str(out),
    )
    assert rc == 0
    assert load_result(out)["seed"] == 123
    # explicit flag wins over the environment
    out2 = tmp_path / "env2.json"
    rc = run_cli(
        "test",
        "--data", str(data_path),
        "--mc-draws", "2000",
        "--max-nonconverged", "1",
        "--seed", "7",
        "--out", str(out2),
    )
    assert rc == 0
    assert load_result(out2)["seed"] == 7


def test_env_seed_must_be_integer(tmp_path, monkeypatch):
    data_path = simulate(tmp_path)
    monkeypatch.setenv("BWFRECHET_SEED", "not-a-number")
    rc = run_cli("test", "--data", str(data_path), "--mc-draws", "2000",
                 "--max-nonconverged", "1")
    assert rc == 2


# ---------------------------------------------------------------------------
# experiment commands
# ---------------------------------------------------------------------------


def test_size_command_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "size"
    rc = run_cli("size", "--config", str(cfg), "--out", str(out))
    assert rc == 0
    with open(out / "records.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 3
    assert rows[0][0] == "index"
    summary = load_result(out / "summary.json")
    assert summary["kind"] == "size-study"
    assert summary["completed"] == 3
    assert 0.0 <= summary["ci_low"] <= summary["ci_high"] <= 1.0
    first = (out / "records.csv").read_bytes()
    rc = run_cli("size", "--config", str(cfg), "--out", str(out))
    assert rc == 0
    assert (out / "records.csv").read_bytes() == first


def test_power_command_outputs(tmp_path):
    cfg = write_config(tmp_path, trials=2, delta_grid=[0.0, 0.3])
    out = tmp_path / "power"
    rc = run_cli("power", "--config", str(cfg), "--out", str(out))
    assert rc == 0
    summary = load_result(out / "summary.json")
    assert summary["kind"] == "power-curve"
    assert [pt["delta"] for pt in summary["points"]] == [0.0, 0.3]
    with open(out / "records.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * 2
    assert rows[0][0] == "delta"


def test_qq_command_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "qq"
    rc = run_cli("qq", "--config", str(cfg), "--out", str(out))
    assert rc == 0
    summary = load_result(out / "summary.json")
    assert summary["kind"] == "qq-study"
    assert np.isfinite(summary["ks_distance"])
    assert len(summary["pooled_eigenvalues"]) == (16 + 1) // 2
    with open(out / "qq.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + summary["completed"]


def test_consistency_command_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        consistency_trials=2,
        n_grid=[24, 48],
        lattice=[-0.5, 0.0, 0.5],
    )
    out = tmp_path / "cons"
    rc = run_cli("consistency", "--config", str(cfg), "--out", str(out))
    assert rc == 0
    summary = load_result(out / "summary.json")
    assert summary["kind"] == "consistency-study"
    assert [row["n"] for row in summary["rows"]] == [24, 48]
    assert all(np.isfinite(row["median_sup_error"]) for row in summary["rows"])
    with open(out / "records.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * 2


def test_config_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 16, "bogus_key": 1}))
    rc = run_cli("size", "--config", str(bad), "--out", str(tmp_path / "o"))
    assert rc == 2
    assert "bogus_key" in capsys.readouterr().err

    bad.write_text("[1, 2]")
    rc = run_cli("size", "--config", str(bad), "--out", str(tmp_path / "o"))
    assert rc == 2

    bad.write_text("{not json")
    rc = run_cli("size", "--config", str(bad), "--out", str(tmp_path / "o"))
    assert rc == 2

    # generator settings are validated before any trial runs
    bad.write_text(json.dumps({"example": 2, "d": 3}))
    rc = run_cli("size", "--config", str(bad), "--out", str(tmp_path / "o"))
    assert rc == 2
    assert "even" in capsys.readouterr().err

    # so are the test settings and the seed
    for key, value in (("alpha", 1.5), ("max_nonconverged", 2.0), ("seed", -1)):
        cfg = write_config(tmp_path, trials=2, **{key: value})
        rc = run_cli("size", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # and every grid value the study runs: 0.9 is beyond 2/(p_y+p_z) and
    # n=0 is no sample size
    for command, key, grid, message in (
        ("power", "delta_grid", [0.0, 0.9], "delta_z"),
        ("consistency", "n_grid", [0, 24], "n must be positive"),
    ):
        cfg = write_config(tmp_path, trials=2, consistency_trials=1, **{key: grid})
        rc = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == 2, command
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
    # a study ignores the grids it does not run
    cfg = write_config(tmp_path, trials=1, delta_grid=[0.9], n_grid=[0])
    assert run_cli("size", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0

    # values of the wrong type, in a study config or a dataset header
    out = tmp_path / "typed"
    for command, key, value in (("size", "trials", "2"), ("power", "delta_grid", ["a"])):
        cfg = write_config(tmp_path, **{key: value})
        rc = run_cli(command, "--config", str(cfg), "--out", str(out))
        assert rc == 2, command
        assert key in capsys.readouterr().err
        assert not out.exists()
    data = simulate(tmp_path)
    for key, value in (("n", "twelve"), ("p1", None)):
        payload = json.loads(data.read_text())
        payload[key] = value
        bad.write_text(json.dumps(payload))
        rc = run_cli("test", "--data", str(bad), "--out", str(out))
        assert rc == 2, key
        assert f"{key} must be an integer" in capsys.readouterr().err
        assert not out.exists()


def test_non_utf8_inputs_are_invalid(tmp_path, capsys):
    # a JSON dataset that opens with a UTF-16 byte order mark
    data = tmp_path / "utf16.json"
    data.write_bytes(b"\xff\xfe" + json.dumps({"n": 2}).encode("utf-16-le"))
    assert run_cli("test", "--data", str(data)) == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and str(data) in err

    # a tabular directory with one stray byte in its covariates
    tab = simulate(tmp_path, name="tab", fmt="tabular")
    cov = tab / "covariates.csv"
    cov.write_bytes(cov.read_bytes().replace(b"x_1", b"x_\xff1", 1))
    assert run_cli("test", "--data", str(tab)) == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and str(cov) in err

    # and a study configuration
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b'{"n": 16, "note": "\xff"}')
    assert run_cli("size", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and str(cfg) in err
    assert not (tmp_path / "o").exists()


def test_bad_response_named_by_path_and_row(tmp_path, capsys):
    data = simulate(tmp_path, n=6)
    payload = json.loads(data.read_text())
    payload["responses"][4][0][0] = -1.0
    data.write_text(json.dumps(payload))
    assert run_cli("test", "--data", str(data)) == 2
    err = capsys.readouterr().err
    assert f"{data}: responses[4]: not positive definite" in err


def test_empty_grid_exits_2(tmp_path, capsys):
    for command, key in (("power", "delta_grid"), ("consistency", "n_grid")):
        cfg = write_config(tmp_path, trials=1, consistency_trials=1, **{key: []})
        rc = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == 2, command
        assert f"{key} must be a non-empty list" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
