"""Exit codes, overrides, and error reporting for the console entry point."""

import ctypes
import math
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import vargrad_lab
from vargrad_lab import analysis
from vargrad_lab.harness import cli
from vargrad_lab.harness.csvio import read_csv
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


def run_python(args, **env):
    """Run a fresh interpreter with the package's own source root first on
    its path, so no installed script is needed, and env added to its
    environment."""
    src_root = str(Path(vargrad_lab.__file__).resolve().parents[1])
    path = [src_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable] + args, capture_output=True, text=True, env=env)


def run_module(args, **env):
    """Run the module entry point in a fresh interpreter."""
    return run_python(["-m", "vargrad_lab.harness.cli"] + args, **env)


def test_cli_runs_load_numpy_only(tmp_path):
    unbiasedness = write_cfg(tmp_path, CFG, "u.cfg")
    logreg = write_cfg(
        tmp_path,
        "experiment = train-logreg\nseed = 1\nlogreg.dims = 2\nlogreg.n_data = 10\n"
        "logreg.steps = 2\nlogging.every = 1\ndiagnostics.n_delta = 20\n"
        "diagnostics.n_is = 40\ndiagnostics.n_elbo = 20\n"
        "diagnostics.variance_replicates = 10\ndiagnostics.cv_oracle_samples = 20\n",
        "t.cfg",
    )
    runs = [
        ["unbiasedness", "--config", str(unbiasedness), "--out", str(tmp_path / "u.csv")],
        ["train-logreg", "--config", str(logreg), "--out", str(tmp_path / "t.csv")],
    ]
    script = (
        "import sys\n"
        "from vargrad_lab.harness import cli\n"
        f"assert [cli.main(argv) for argv in {runs!r}] == [0, 0]\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith(('scipy.', 'numpy.f2py'))])\n"
    )
    proc = run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    block = text.split("\ndependencies = [", 1)[1].split("]", 1)[0]
    assert [line.strip() for line in block.splitlines() if line.strip()] == ['"numpy>=1.24",']


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
    assert_config_error(tmp_path, experiment, f"{key} = {value}", key)


@pytest.mark.parametrize(
    "experiment, body, key",
    [
        ("delta-ratio", "delta.n_samples = 2", "delta.n_samples"),
        ("train-logreg", "logreg.dims = 2\ndiagnostics.n_delta = 2", "diagnostics.n_delta"),
        ("gaussian-oracles", "oracles.mc_draws = 2", "oracles.mc_draws"),
    ],
    ids=["delta-ratio", "train-logreg", "gaussian-oracles"],
)
def test_jackknife_sample_counts_below_three_are_config_errors(tmp_path, experiment, body, key):
    # the delete-one jackknife divides by n - 2, so n = 2 would write NaN
    # standard errors on rows that are flagged valid
    assert_config_error(tmp_path, experiment, body, key)


@pytest.mark.parametrize(
    "experiment, body, key",
    [
        ("delta-ratio", "delta.mu = NaN", "delta.mu"),
        ("delta-ratio", "delta.sigma2 = Infinity", "delta.sigma2"),
        ("delta-ratio", "delta.mu_tilde = -Infinity", "delta.mu_tilde"),
        ("delta-ratio", "delta.mu = 1e999", "delta.mu"),  # json reads it as inf
        ("unbiasedness", "toy.logits = [NaN]", "toy.logits"),
        (
            "train-logreg",
            "logreg.dims = 2\noptimizer.learning_rate = Infinity",
            "optimizer.learning_rate",
        ),
        ("variance-sweep", "sweep.grid_points = [[1, 1, 1, 1, Infinity]]", "sweep.grid_points"),
        ("cv-comparison", "cv.a_grid = [NaN]", "cv.a_grid"),
        ("unbiasedness", 'toy.estimators = ["vargrad", "vargrad"]', "toy.estimators"),
        ("cv-comparison", 'cv.estimators = ["reinforce", "reinforce"]', "cv.estimators"),
    ],
    ids=[
        "nan",
        "infinity",
        "minus-infinity",
        "overflowing-literal",
        "nan-in-list",
        "infinite-learning-rate",
        "infinite-grid-s",
        "nan-in-a-grid",
        "duplicate-toy-estimator",
        "duplicate-cv-estimator",
    ],
)
def test_non_finite_numbers_and_duplicate_estimators_are_config_errors(
    tmp_path, experiment, body, key
):
    assert_config_error(tmp_path, experiment, body, key)


@pytest.mark.parametrize(
    "experiment, body, key",
    [
        # float() of the integer overflows
        ("delta-ratio", "delta.mu = 1" + "0" * 400, "delta.mu"),
        # json's int() refuses more than 4300 digits
        ("delta-ratio", "delta.n_samples = 1" + "0" * 5000, "delta.n_samples"),
    ],
    ids=["int-past-float-range", "int-past-digit-limit"],
)
def test_oversized_integers_are_config_errors(tmp_path, experiment, body, key):
    assert_config_error(tmp_path, experiment, body, key)


def _recording_libc(calls):
    """Stands in for ctypes.CDLL(None): its mallopt records each call."""

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    return types.SimpleNamespace(mallopt=mallopt)


def test_allocator_policy_fixes_both_glibc_thresholds(monkeypatch, capfd):
    calls = []
    monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _recording_libc(calls))
    cli._set_allocator_policy()
    assert [param for param, _ in calls] == [-3, -1]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    assert capfd.readouterr() == ("", "")


def test_allocator_policy_leaves_other_libcs_alone(monkeypatch):
    calls = []
    monkeypatch.setattr(platform, "libc_ver", lambda: ("", ""))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _recording_libc(calls))
    cli._set_allocator_policy()
    assert calls == []


def test_allocator_policy_is_silent_on_this_libc(capfd):
    cli._set_allocator_policy()
    assert capfd.readouterr() == ("", "")


def test_one_blas_thread_limits_a_loaded_openblas():
    # in a fresh interpreter: every OpenBLAS in the memory map reports one
    # thread after the call; with no OpenBLAS loaded the call is a no-op
    script = (
        "import ctypes\n"
        "import os\n"
        "import numpy\n"
        "from vargrad_lab.harness import cli\n"
        "cli._one_blas_thread()\n"
        "maps = open('/proc/self/maps').readlines() if os.path.exists('/proc/self/maps') else []\n"
        "paths = {l.split(None, 5)[5].strip() for l in maps if 'openblas' in l}\n"
        "names = [n.replace('set_num', 'get_num') for n in cli._OPENBLAS_SET_THREADS]\n"
        "for path in paths:\n"
        "    lib = ctypes.CDLL(path)\n"
        "    print([getattr(lib, n)() for n in names if hasattr(lib, n)][0])\n"
    )
    proc = run_python(["-c", script], OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) <= {"1"}


def test_csv_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # delta_cv_mc's (n, P) matrix products at 20000 draws and 60 parameters
    # are large enough for a threaded OpenBLAS to split their sums, which
    # moves the last bits of delta_mc; every run uses one BLAS thread
    cfg = write_cfg(
        tmp_path,
        "experiment = delta-ratio\nseed = 1\ndelta.dims = [30]\ndelta.n_samples = 20000\n",
    )
    outs = []
    for threads in ("2", "1"):
        out = tmp_path / f"blas{threads}.csv"
        proc = run_module(
            ["delta-ratio", "--config", str(cfg), "--out", str(out)], OPENBLAS_NUM_THREADS=threads
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def assert_config_error(tmp_path, experiment, body, key):
    cfg = write_cfg(tmp_path, f"experiment = {experiment}\nseed = 1\n{body}\n")
    out = tmp_path / "x.csv"
    proc = run_module([experiment, "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:") and f"'{key}'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def assert_exit_3(tmp_path, experiment, body, prefix="numerical abort:"):
    cfg = write_cfg(tmp_path, f"experiment = {experiment}\nseed = 1\n{body}\n")
    out = tmp_path / "x.csv"
    proc = run_module([experiment, "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, body",
    [
        # sigma2 = 1e-300 passes validation, then squaring the closed form's
        # 1/sigma2 coefficient overflows Python float arithmetic
        ("variance-sweep", "sweep.grid_points = [[1, 2, 1e-300, 1, 2]]\nsweep.replicates = 50"),
        # at sigma2 = 1e300 the jackknife's squared estimates overflow numpy
        ("variance-sweep", "sweep.grid_points = [[1, 2, 1e300, 1, 2]]\nsweep.replicates = 50"),
        ("delta-ratio", "delta.sigma2 = 1e300\ndelta.dims = [1]"),
    ],
    ids=["sweep-sigma2-1e-300", "sweep-sigma2-1e300", "delta-ratio-sigma2-1e300"],
)
def test_overflow_during_a_run_is_a_numerical_abort(tmp_path, experiment, body):
    assert_exit_3(tmp_path, experiment, body)


@pytest.mark.parametrize(
    "experiment, body, reason",
    [
        # squaring the closed form's 1/sigma2 coefficient overflows a Python
        # float, whose message is only an errno pair
        (
            "variance-sweep",
            "sweep.grid_points = [[1, 2, 1e-300, 1, 2]]\nsweep.replicates = 50",
            "float overflow: (34, 'Numerical result out of range')",
        ),
        # sigma2 / sigma2_tilde = 1e300 / 1e-300 overflows numpy in the KL
        (
            "gaussian-oracles",
            "oracles.grid_points = [[7, -1, 1e300, 1e-300, 2]]\noracles.mc_draws = 50",
            "overflow encountered in divide",
        ),
    ],
    ids=["sweep", "oracles"],
)
def test_overflow_message_names_the_overflow(tmp_path, experiment, body, reason):
    assert_exit_3(tmp_path, experiment, body, prefix=f"numerical abort: {reason}\n")


def test_sweep_condition_is_finite_next_to_the_posterior(tmp_path, capsys):
    # sigma2 = 1 + 1e-8 against sigma2_tilde = 1: delta = 1e-8 and the
    # closed-form KL is about 2.5e-17, not 0, so delta / ELBO has a value
    cfg = write_cfg(
        tmp_path,
        "experiment = variance-sweep\nseed = 1\n"
        "sweep.grid_points = [[0, 0, 1.00000001, 1, 4]]\nsweep.replicates = 50\n",
    )
    out = tmp_path / "x.csv"
    assert cli.main(["variance-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, _, rows = read_csv(out)
    assert math.isfinite(rows[0]["condition_value"])
    assert rows[0]["condition_value"] < 0.0  # delta > 0 over a negative ELBO


@pytest.mark.parametrize(
    "experiment, body",
    [
        ("delta-ratio", f"delta.n_samples = {10**20}"),
        ("train-logreg", f"logreg.dims = {10**20}"),
        # every dimension fits, but the array's byte size does not
        ("delta-ratio", f"delta.n_samples = {2**62}"),
        ("variance-sweep", f"sweep.grid_points = [[1, 2, 1, 1, {10**20}]]"),
        ("cv-comparison", f"cv.s_grid = [{10**20}]"),
    ],
    ids=["delta-samples", "logreg-dims", "array-too-big", "sweep-grid-s", "cv-s-grid"],
)
def test_shapes_numpy_refuses_are_run_errors(tmp_path, experiment, body):
    # numpy rejects each shape before it allocates; a count small enough to
    # pass that check but too large for memory would allocate, so it is not
    # tested here
    assert_exit_3(tmp_path, experiment, body, prefix="run error:")


# train-logreg with three logged steps (0, 10 and 20), small enough for a
# few pool runs per test
LOGREG_3_STEPS = """
experiment = train-logreg
seed = 3
logreg.dims = 2
logreg.n_data = 10
logreg.steps = 20
logging.every = 10
diagnostics.n_delta = 50
diagnostics.n_is = 100
diagnostics.n_elbo = 50
diagnostics.variance_replicates = 20
diagnostics.cv_oracle_samples = 20
"""


def _fail_at_step_0(monkeypatch, fail):
    """Make delta_cv_mc call fail() at logged step 0, the one step whose
    parameters have an all-zero mean, and run normally at the others."""
    real = analysis.delta_cv_mc

    def delta_cv_mc(q, *args, **kwargs):
        if not q.mean.any():
            fail()
        return real(q, *args, **kwargs)

    monkeypatch.setattr(analysis, "delta_cv_mc", delta_cv_mc)


def _overflow():
    np.float64(1e308) * 10.0  # raises under the CLI's errstate


def _kill_this_worker(parent=os.getpid()):
    # only a forked worker may die; in the test process itself this fails
    assert os.getpid() != parent, "step ran in the test process"
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize(
    "fail, prefix",
    [(_overflow, "numerical abort:"), (_kill_this_worker, "run error:")],
    ids=["overflow", "killed"],
)
def test_worker_failure_is_exit_3_with_no_csv(tmp_path, capfd, monkeypatch, fail, prefix):
    _fail_at_step_0(monkeypatch, fail)
    cfg = write_cfg(tmp_path, LOGREG_3_STEPS)
    out = tmp_path / "x.csv"
    code = cli.main(["train-logreg", "--config", str(cfg), "--out", str(out)], workers=2)
    err = capfd.readouterr().err
    assert code == 3, err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_program_run_matches_the_serial_run(tmp_path):
    # the program pools over the usable CPUs; in-process main is serial
    cfg = write_cfg(tmp_path, LOGREG_3_STEPS)
    pooled, serial = tmp_path / "pooled.csv", tmp_path / "serial.csv"
    proc = run_module(["train-logreg", "--config", str(cfg), "--out", str(pooled)])
    assert proc.returncode == 0, proc.stderr
    assert cli.main(["train-logreg", "--config", str(cfg), "--out", str(serial)]) == 0
    assert pooled.read_bytes() == serial.read_bytes()


def test_pool_modules_load_only_for_a_pool(tmp_path):
    cfg = write_cfg(tmp_path, LOGREG_3_STEPS)
    out = str(tmp_path / "x.csv")
    argv = ["train-logreg", "--config", str(cfg), "--out", out]
    script = (
        "import sys\n"
        "from vargrad_lab.harness import cli\n"
        "pool = ('concurrent.futures.process', 'multiprocessing')\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(sorted(set(pool) & set(sys.modules)))\n"
        f"assert cli.main({argv!r}, workers=2) == 0\n"
        "print(sorted(set(pool) & set(sys.modules)))\n"
    )
    proc = run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-4:] == [
        out, "[]", out, "['concurrent.futures.process', 'multiprocessing']"
    ]
