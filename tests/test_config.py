"""Config parsing: strictness, defaults, and error reporting."""

import re

import pytest

from vargrad_lab.harness.config import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    parse_config,
)


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_minimal_config_and_defaults(tmp_path):
    cfg = parse_config(
        write_config(
            tmp_path,
            """
            # comment and blank lines are fine

            experiment = variance-sweep
            seed = 7
            out = results.csv
            """,
        )
    )
    assert cfg.experiment == "variance-sweep"
    assert cfg.seed == 7
    assert cfg.out == "results.csv"
    assert cfg["sweep.replicates"] == 100000
    assert len(cfg["sweep.grid_points"]) == 12
    assert [1.0, 2.0, 1.0, 1.0, 9] in cfg["sweep.grid_points"]


def test_json_values_parse(tmp_path):
    cfg = parse_config(
        write_config(
            tmp_path,
            """
            experiment = unbiasedness
            seed = 0
            toy.dims = 2
            toy.posterior = [0.1, 0.2, 0.3, 0.4]
            toy.estimators = ["vargrad"]
            """,
        )
    )
    assert cfg["toy.posterior"] == [0.1, 0.2, 0.3, 0.4]
    assert cfg["toy.estimators"] == ["vargrad"]
    assert cfg.out is None


def test_null_unsets_only_optional_lists(tmp_path):
    base = "experiment = unbiasedness\nseed = 0\n"
    cfg = parse_config(write_config(tmp_path, base + "toy.posterior = null\n"))
    assert cfg["toy.posterior"] is None
    with pytest.raises(ConfigError, match="key 'toy.s': expected an integer"):
        parse_config(write_config(tmp_path, base + "toy.s = null\n"))


def test_required_key_enforced(tmp_path):
    with pytest.raises(ConfigError, match="missing required key 'logreg.dims'"):
        parse_config(
            write_config(tmp_path, "experiment = train-logreg\nseed = 1\n")
        )


def test_missing_experiment_and_seed(tmp_path):
    with pytest.raises(ConfigError, match="missing required key 'experiment'"):
        parse_config(write_config(tmp_path, "seed = 1\n"))
    with pytest.raises(ConfigError, match="missing required key 'seed'"):
        parse_config(write_config(tmp_path, "experiment = variance-sweep\n"))


def test_unknown_experiment_lists_choices(tmp_path):
    with pytest.raises(ConfigError, match="choose from"):
        parse_config(write_config(tmp_path, "experiment = bogus\nseed = 1\n"))


def test_unknown_key_suggests_near_miss(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(
            write_config(
                tmp_path,
                "experiment = train-logreg\nseed = 1\nlogreg.dims = 3\nlearnig_rate = 0.1\n",
            )
        )
    assert "unknown key 'learnig_rate'" in str(err.value)
    assert "did you mean 'optimizer.learning_rate'?" in str(err.value)


def test_duplicate_key_reports_line(tmp_path):
    path = write_config(
        tmp_path, "experiment = variance-sweep\nseed = 1\nseed = 2\n"
    )
    with pytest.raises(ConfigError, match=r"run\.cfg:3: duplicate key 'seed'"):
        parse_config(path)


def test_malformed_line_reports_line(tmp_path):
    path = write_config(tmp_path, "experiment = variance-sweep\nseed: 1\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: expected 'key = value'"):
        parse_config(path)


def test_bad_key_characters_rejected(tmp_path):
    path = write_config(tmp_path, "Experiment = variance-sweep\nseed = 1\n")
    with pytest.raises(ConfigError, match="bad key 'Experiment'"):
        parse_config(path)


def test_unreadable_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(tmp_path / "missing.cfg")


def test_type_errors(tmp_path):
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config(
            write_config(
                tmp_path,
                "experiment = unbiasedness\nseed = 1\ntoy.s = true\n",
            )
        )
    with pytest.raises(ConfigError, match="must be >= 2"):
        parse_config(
            write_config(
                tmp_path,
                "experiment = unbiasedness\nseed = 1\ntoy.s = 1\n",
            )
        )
    with pytest.raises(ConfigError, match="non-negative integer"):
        parse_config(
            write_config(tmp_path, "experiment = unbiasedness\nseed = -3\n")
        )
    with pytest.raises(ConfigError, match="a non-empty list of integers"):
        parse_config(
            write_config(
                tmp_path,
                'experiment = cv-comparison\nseed = 1\ncv.dims = [1.5]\n',
            )
        )


def test_grid_validation(tmp_path):
    base = "experiment = variance-sweep\nseed = 1\n"
    with pytest.raises(ConfigError, match="rows of the form"):
        parse_config(
            write_config(tmp_path, base + "sweep.grid_points = [[1, 2, 1, 1]]\n")
        )
    with pytest.raises(ConfigError, match="variances must be positive"):
        parse_config(
            write_config(
                tmp_path, base + "sweep.grid_points = [[1, 2, 0, 1, 4]]\n"
            )
        )
    with pytest.raises(ConfigError, match="S must be an integer >= 2"):
        parse_config(
            write_config(
                tmp_path, base + "sweep.grid_points = [[1, 2, 1, 1, 1]]\n"
            )
        )



@pytest.mark.parametrize(
    "experiment, body",
    [
        ("delta-ratio", "delta.dims = [1, 1]"),
        ("cv-comparison", "cv.dims = [3, 30, 3]"),
        ("cv-comparison", "cv.s_grid = [4, 4]"),
    ],
)
def test_repeated_list_int_entries_are_config_errors(tmp_path, experiment, body):
    # each entry keys its block's stream, so a repeat would copy its rows
    key = body.split(" = ")[0]
    with pytest.raises(ConfigError, match=f"key '{key}': entries must be unique"):
        parse_config(write_config(tmp_path, f"experiment = {experiment}\nseed = 1\n{body}\n"))


@pytest.mark.parametrize(
    "experiment, body, expected",
    [
        ("cv-comparison", "cv.dims = [true]", "a non-empty list of integers"),
        ("cv-comparison", "cv.a_grid = [true]", "a non-empty list of numbers"),
        ("unbiasedness", "toy.dims = 1\ntoy.posterior = [true, 0]", "a list of probabilities"),
        ("variance-sweep", "sweep.grid_points = [[true, 2, 1, 1, 4]]", "rows of the form"),
    ],
    ids=["list_int", "list_float", "probs", "grid"],
)
def test_bools_inside_lists_are_refused(tmp_path, experiment, body, expected):
    # true is a Python int, so list entries need the same number check as scalars
    key = body.splitlines()[-1].split(" = ")[0]
    with pytest.raises(ConfigError, match=re.escape(f"key '{key}': expected {expected}")):
        parse_config(write_config(tmp_path, f"experiment = {experiment}\nseed = 1\n{body}\n"))


def test_probs_validation(tmp_path):
    base = "experiment = unbiasedness\nseed = 1\n"
    with pytest.raises(ConfigError, match="sum to 1"):
        parse_config(write_config(tmp_path, base + "toy.posterior = [0.5, 0.6]\n"))
    with pytest.raises(ConfigError, match="positive"):
        parse_config(
            write_config(tmp_path, base + "toy.posterior = [1.0, 0.0]\n")
        )


def test_overrides():
    cfg = ExperimentConfig(experiment="variance-sweep", seed=3, out="a.csv")
    cfg2 = cfg.with_overrides(seed=9, out="b.csv")
    assert (cfg2.seed, cfg2.out) == (9, "b.csv")
    assert (cfg.seed, cfg.out) == (3, "a.csv")  # original untouched
    assert cfg.with_overrides().seed == 3
    with pytest.raises(ConfigError):
        cfg.with_overrides(seed=-1)


def test_experiment_registry_is_stable():
    assert EXPERIMENTS == (
        "train-logreg",
        "variance-sweep",
        "delta-ratio",
        "gaussian-oracles",
        "unbiasedness",
        "cv-comparison",
    )
