"""Exit codes, overrides, and error reporting for the console entry point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vargrad_lab
from vargrad_lab.harness import cli
from vargrad_lab.optim import NonFiniteGradientError


CFG = """
experiment = unbiasedness
seed = 7
toy.dims = 1
toy.posterior = [0.2, 0.8]
toy.s = 2
toy.replicates = 200
"""


def write_cfg(tmp_path, text=CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_success_prints_output_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CFG + f"out = {tmp_path / 'u.csv'}\n")
    code = cli.main(["unbiasedness", "--config", str(cfg)])
    assert code == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "u.csv")
    assert (tmp_path / "u.csv").exists()


def test_subcommand_must_match_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CFG + f"out = {tmp_path / 'u.csv'}\n")
    code = cli.main(["variance-sweep", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "unbiasedness" in err and "variance-sweep" in err
    assert not (tmp_path / "u.csv").exists()


def test_unknown_key_suggestion_reaches_stderr(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CFG + "toy.replicats = 10\n")
    code = cli.main(["unbiasedness", "--config", str(cfg), "--out", str(tmp_path / "u.csv")])
    assert code == 2
    assert "did you mean 'toy.replicates'" in capsys.readouterr().err


def test_missing_output_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = cli.main(["unbiasedness", "--config", str(cfg)])
    assert code == 2
    assert "no output path" in capsys.readouterr().err


def test_unreadable_config(tmp_path, capsys):
    code = cli.main(["unbiasedness", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("lr", ["0", "-1"])
def test_non_positive_learning_rate_is_config_error(tmp_path, capsys, lr):
    cfg = write_cfg(
        tmp_path,
        f"experiment = train-logreg\nseed = 1\nlogreg.dims = 2\noptimizer.learning_rate = {lr}\n",
    )
    out = tmp_path / "t.csv"
    code = cli.main(["train-logreg", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "optimizer.learning_rate" in err
    assert not out.exists()


def test_unwritable_output_directory(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "no" / "such" / "dir" / "u.csv"
    code = cli.main(["unbiasedness", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "cannot write output" in capsys.readouterr().err


def test_numerical_abort_exit_code(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, CFG + f"out = {tmp_path / 'u.csv'}\n")

    def blow_up(_cfg):
        raise NonFiniteGradientError("non-finite gradient at step 3")

    monkeypatch.setitem(cli.RUNNERS, "unbiasedness", blow_up)
    code = cli.main(["unbiasedness", "--config", str(cfg)])
    assert code == 3
    assert "numerical abort" in capsys.readouterr().err


def test_seed_and_out_overrides(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CFG + f"out = {tmp_path / 'base.csv'}\n")
    assert cli.main(["unbiasedness", "--config", str(cfg)]) == 0
    assert (
        cli.main(
            ["unbiasedness", "--config", str(cfg), "--out", str(tmp_path / "o2.csv")]
        )
        == 0
    )
    assert (
        cli.main(
            [
                "unbiasedness",
                "--config",
                str(cfg),
                "--seed",
                "8",
                "--out",
                str(tmp_path / "o3.csv"),
            ]
        )
        == 0
    )
    capsys.readouterr()
    base = (tmp_path / "base.csv").read_bytes()
    assert (tmp_path / "o2.csv").read_bytes() == base  # same seed, same bytes
    assert (tmp_path / "o3.csv").read_bytes() != base


def test_subcommand_is_required():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def run_module(args):
    """Run the module entry point in a fresh interpreter, with the package's
    own source root first on its path, so no installed script is needed."""
    src_root = str(Path(vargrad_lab.__file__).resolve().parents[1])
    path = [src_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    module = [sys.executable, "-m", "vargrad_lab.harness.cli"]
    return subprocess.run(module + args, capture_output=True, text=True, env=env)


def test_console_script(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "script.csv"
    proc = run_module(["unbiasedness", "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(out)
    assert out.exists()


@pytest.mark.parametrize(
    "experiment, key, value",
    [
        ("delta-ratio", "delta.dims", "[0]"),
        ("cv-comparison", "cv.dims", "[0]"),
        ("cv-comparison", "cv.s_grid", "[1]"),
    ],
)
def test_list_entries_below_minimum_are_config_errors(tmp_path, experiment, key, value):
    cfg = write_cfg(tmp_path, f"experiment = {experiment}\nseed = 1\n{key} = {value}\n")
    out = tmp_path / "x.csv"
    proc = run_module([experiment, "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:") and f"'{key}'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_overflow_during_a_run_is_a_numerical_abort(tmp_path):
    # sigma2 = 1e-300 passes validation, then squaring the closed form's
    # 1/sigma2 coefficient overflows Python float arithmetic
    cfg = write_cfg(
        tmp_path,
        "experiment = variance-sweep\nseed = 1\n"
        "sweep.grid_points = [[1, 2, 1e-300, 1, 2]]\nsweep.replicates = 50\n",
    )
    out = tmp_path / "x.csv"
    proc = run_module(["variance-sweep", "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numerical abort:")
    assert "Traceback" not in proc.stderr
