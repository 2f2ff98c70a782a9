"""Config fuzz: every config that parses either runs or fails cleanly.

Each example takes one reduced test_c10 config, replaces one of its keys
with a value from a fixed pool and runs cli.main in-process on one worker.
The exit code is 0, 2 or 3 and stderr holds no traceback; a failed run
writes exactly one line to stderr and no CSV. Pool integers are at most 7,
so no replaced size allocates much or loops long.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vargrad_lab.harness import cli
from vargrad_lab.harness.config import _SCHEMAS

from test_acceptance import C10_REDUCED

KEYS = [(name, key) for name in C10_REDUCED for key in ("seed", *_SCHEMAS[name])]

POOL = [
    # numbers; integers are at most 7
    0, 1, 2, 7, -1, 0.5, -0.5, 1e300, -1e300, 1e-300,
    # wrong types, null and empty values
    True, "abc", None, [], {},
    # lists and grid rows
    [1, 2], [7], [0.5, -0.5], ["vargrad"], ["vargrad", "vargrad"],
    [[0, 0, 1e-300, 1e-300, 2]], [[1, 2, 1, 1, 4]], [[7, -1, 1e300, 1e-300, 2]], [[1, 2, 3]],
]


def run(name, key, value):
    """Exit code, stderr as the program would print it, and whether a CSV
    was written, for the reduced config of name with key set to value."""
    lines = [f"experiment = {name}", "seed = 42"] + C10_REDUCED[name]
    lines = [line for line in lines if line.split(" = ")[0] != key]
    text = "\n".join(lines + [f"{key} = {json.dumps(value)}"]) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "fuzz.csv"
        cfg.write_text(text, encoding="utf-8")
        err = io.StringIO()
        # warnings are recorded here rather than printed, so add each to
        # stderr in the form the program prints it
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([name, "--config", str(cfg), "--out", str(out)])
        stderr = err.getvalue() + "".join(
            warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught
        )
        return code, stderr, out.exists()


@settings(max_examples=300)
@given(case=st.sampled_from(KEYS), value=st.sampled_from(POOL))
# sigma2 = 1e-300 once underflowed sigma^4 in the log-std kurtosis: a
# RuntimeWarning on stderr before the exit
@example(case=("gaussian-oracles", "oracles.grid_points"), value=[[0, 0, 1e-300, 1e-300, 2]])
# sigma2 / sigma2_tilde = 1e300 / 1e-300 overflows in the closed-form KL;
# an underflowed ratio once took log(0), which printed RuntimeWarnings
@example(case=("gaussian-oracles", "oracles.grid_points"), value=[[7, -1, 1e300, 1e-300, 2]])
# a learning rate of 0.5 diverges and once underflowed the variance to 0,
# which printed RuntimeWarnings from the log density before the abort
@example(case=("train-logreg", "optimizer.learning_rate"), value=0.5)
def test_a_parsed_config_runs_or_fails_with_one_line(case, value):
    code, stderr, wrote_csv = run(*case, value)
    assert code in (0, 2, 3), stderr
    assert "Traceback" not in stderr
    if code != 0:
        assert stderr.count("\n") == 1 and stderr.endswith("\n"), stderr
        assert not wrote_csv
