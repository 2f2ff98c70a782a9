"""Acceptance gate: ten product-level checks, one test per criterion, and
for c10 further tests that the CSV metadata reruns to the same bytes and
that train-logreg's bytes do not depend on its worker count.

Each test states its tolerance inline and is deterministic (fixed streams),
so a pass here is reproducible. The heavyweight criteria also enforce their
runtime budgets.
"""

import concurrent.futures
import math
import multiprocessing
import time

import numpy as np
import pytest

from vargrad_lab import families
from vargrad_lab.analysis import (
    CV_TAG,
    REINFORCE_TAG,
    VARGRAD_TAG,
    EstimatorSpec,
    delta_cv_mc,
    delta_ratio_bound,
    exact_kl_and_gradient,
    paired_difference_from_estimates,
    replicate_estimates,
)
from vargrad_lab.estimators import build_batch, combine, sampled_cv_coefficient, vargrad
from vargrad_lab.families import DiagGaussianParams, MeanFieldBernoulliParams
from vargrad_lab.gaussian_oracles import (
    convention_coordinate,
    delta_cv_analytic,
    optimal_a_analytic,
    score_variance_analytic,
)
from vargrad_lab.harness import cli
from vargrad_lab.harness.config import parse_config
from vargrad_lab.harness.csvio import read_csv
from vargrad_lab.harness.rng import split_stream
from vargrad_lab.losses import kl_gaussian_closed_form
from vargrad_lab.targets import DiscreteToyModel, GaussianTarget

from oracles import batch_sums, score_ref, support_probs_ref, vargrad_via_loss


def gaussian_pair(mu, s2, mut, s2t, log_ev=0.0, d=1):
    q = DiagGaussianParams(
        mean=np.full(d, float(mu)), log_std=np.full(d, 0.5 * math.log(s2))
    )
    t = GaussianTarget(
        post_mean=np.full(d, float(mut)),
        post_var=np.full(d, float(s2t)),
        log_evidence=log_ev,
    )
    return q, t


def run_subcommand(tmp_path, name, lines, out, seed=None, workers=1):
    cfg = tmp_path / f"{name}-{out.stem}.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [name, "--config", str(cfg), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert cli.main(argv, workers=workers) == 0
    return out


def test_c01_replicate_means_match_enumerated_gradient():
    """Reinforce, constant-coefficient CV, and the leave-one-out estimator
    are unbiased on exhaustively enumerable discrete models: over 1e5
    replicates at S=4, every replicate mean lands within 4 SE of the exact
    gradient, for D in {1, 2, 4}. Budget: one minute."""
    t0 = time.perf_counter()
    for dims in (1, 2, 4):
        table_rng = split_stream(100 + dims, "acc-c1-table")
        target = DiscreteToyModel(log_joint_table=table_rng.normal(0.0, 1.0, 2**dims))
        q = MeanFieldBernoulliParams(logits=table_rng.normal(0.0, 0.5, dims))
        kl, grad = exact_kl_and_gradient(target, q)
        a_const = np.full(dims, kl - target.log_evidence)
        specs = [
            EstimatorSpec(name="reinforce", tag=REINFORCE_TAG),
            EstimatorSpec(name="cv", tag=CV_TAG, a=a_const),
            EstimatorSpec(name="vargrad", tag=VARGRAD_TAG),
        ]
        ests = replicate_estimates(
            q, target, split_stream(100 + dims, "acc-c1"), 4, 100000, specs
        )
        for name, x in ests.items():
            mean = x.mean(axis=0)
            se = x.std(axis=0, ddof=1) / np.sqrt(x.shape[0])
            assert np.all(np.abs(mean - grad) <= 4.0 * se), (dims, name)
    assert time.perf_counter() - t0 < 60.0


def test_c02_loss_gradient_identity_and_exact_pair_expectation():
    """The gradient assembled from the log-variance loss equals the
    leave-one-out estimate train-logreg steps with (the replicate kernel on
    the same draws) to 1e-12 relative on 1000 random batches across both
    families; and at S=2, D=1 its exact expectation (enumerating all
    sample pairs) equals the exact KL gradient to 1e-9."""
    rng = split_stream(200, "acc-c2")
    for i in range(1000):
        d = int(rng.integers(1, 5))
        s = int(rng.integers(2, 7))
        if i % 2 == 0:
            q = DiagGaussianParams(
                mean=rng.normal(0.0, 2.0, d), log_std=rng.normal(0.0, 0.5, d)
            )
            target = GaussianTarget(
                post_mean=rng.normal(0.0, 2.0, d),
                post_var=np.exp(rng.normal(0.0, 0.7, d)),
                log_evidence=float(rng.normal(0.0, 3.0)),
            )
        else:
            q = MeanFieldBernoulliParams(logits=rng.normal(0.0, 2.0, d))
            target = DiscreteToyModel(log_joint_table=rng.normal(0.0, 1.0, 2**d))
        z = families.draw(q, rng, s)
        via_loss = vargrad_via_loss(*build_batch(q, target, z))
        np.testing.assert_allclose(via_loss, vargrad(q, target, z), rtol=1e-12, atol=1e-12)

    target = DiscreteToyModel(log_joint_table=np.array([0.2, -0.9]))
    q = MeanFieldBernoulliParams(logits=np.array([0.6]))
    _, grad = exact_kl_and_gradient(target, q)
    states = families.support_states(1)
    probs = support_probs_ref(q, states)
    expectation = np.zeros(1)
    for i in range(2):
        for j in range(2):
            z = np.stack([states[i], states[j]])
            f = np.asarray(
                families.log_density(q, z) - target.log_joint_table[[i, j]], float
            )
            sums = batch_sums(f, score_ref(q, z))
            expectation += probs[i] * probs[j] * combine(sums, VARGRAD_TAG)
    np.testing.assert_allclose(expectation, grad, rtol=1e-9, atol=1e-12)


def test_c03_variance_gap_matches_closed_form_across_sweep(tmp_path):
    """The measured Var(Reinforce) - Var(VarGrad) gap for the mean coordinate
    matches the closed-form difference within 4 SE on all 12 default grid
    points at 1e5 replicates, including the S=9 zero crossing and a
    large-S point where Reinforce wins. Budget: ten minutes."""
    t0 = time.perf_counter()
    out = run_subcommand(
        tmp_path,
        "variance-sweep",
        ["experiment = variance-sweep", "seed = 301"],
        tmp_path / "sweep.csv",
    )
    _, _, rows = read_csv(out)
    assert len(rows) == 12
    for r in rows:
        assert abs(r["diff"] - r["analytic"]) <= 4.0 * r["diff_se"], r
    zero = next(r for r in rows if r["S"] == 9)
    assert zero["analytic"] == 0
    inside = next(
        r for r in rows if (r["mu"], r["sigma2"], r["S"]) == (1.0, 0.5, 1000)
    )
    assert inside["analytic"] < 0.0 and inside["diff"] < 0.0
    assert time.perf_counter() - t0 < 600.0


def test_c04_f_score_squared_covariance_all_conventions():
    """Monte Carlo Cov(f, score^2) from one batch of 1e6 draws per setting
    matches the closed form delta Var(score), rescaled to the convention,
    within 3 SE for the mean, variance, and log-variance conventions on six
    settings, including the sigma2=3 vs 1 anchor whose mean-coordinate value
    is 2/3."""
    settings = [
        (3.0, 3.0, 1.0, 1.0),
        (1.0, 1.0, 2.0, 1.0),
        (0.0, 2.0, 0.0, 1.0),
        (-1.0, 0.5, 0.5, 2.0),
        (2.0, 4.0, 2.0, 4.0),
        (0.0, 1.0, 1.0, 3.0),
    ]
    anchor_q, anchor_t = gaussian_pair(*settings[0])
    anchor = delta_cv_analytic(anchor_q, anchor_t) * score_variance_analytic(anchor_q)
    assert anchor[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    for i, setting in enumerate(settings):
        q, t = gaussian_pair(*setting)
        rep = delta_cv_mc(q, t, split_stream(400, "acc-c4-mean", i), 10**6)
        cov = delta_cv_analytic(q, t) * score_variance_analytic(q)
        for conv in ("mean", "variance", "log_variance"):
            k, factor = convention_coordinate(q, 0, conv)
            est, se = factor * rep.cov[k], factor * rep.cov_se[k]
            exact = factor * cov[k]
            assert abs(est - exact) <= 3.0 * se, (setting, conv)


def test_c05_analytic_coefficient_is_the_variance_minimiser():
    """The analytic optimal coefficient for the mean coordinate at the
    reference setting is 4.45069; a 1e6-sample MC of the same coefficient
    lands within 5%; and over an 11-point grid of constant coefficients the
    analytic optimum attains the smallest measured variance within 4 SE."""
    q, t = gaussian_pair(3.0, 3.0, 1.0, 1.0)
    a_star = optimal_a_analytic(q, t)
    assert a_star[0] == pytest.approx(4.45069, abs=1e-5)

    a_mc = sampled_cv_coefficient(q, t, split_stream(500, "acc-c5-coef"), 10**6)
    assert abs(a_mc[0] - a_star[0]) <= 0.05 * abs(a_star[0])

    offsets = np.linspace(-2.5, 2.5, 11)
    assert offsets[5] == 0.0
    specs = [
        EstimatorSpec(
            name=f"cv_{i}", tag=CV_TAG, a=np.array([a_star[0] + off, a_star[1]])
        )
        for i, off in enumerate(offsets)
    ]
    ests = replicate_estimates(q, t, split_stream(500, "acc-c5-grid"), 4, 40000, specs)
    for i in range(11):
        pair = paired_difference_from_estimates(ests["cv_5"], ests[f"cv_{i}"])
        assert pair.diff[0] <= 4.0 * pair.diff_se[0] + 1e-12, offsets[i]


def test_c06_correction_ratio_bound_and_dimension_scaling():
    """On light-tailed settings the per-coordinate bound dominates the
    measured |delta / E[coefficient]| within 4 SE; and replicating a setting
    across dimensions at fixed density-ratio constant scales the bound by
    exactly 1/sqrt(dim ratio) (zero log-evidence)."""
    for i, setting in enumerate(
        [(2.0, 0.5, 0.0, 1.0), (1.0, 0.4, 0.0, 1.5), (0.5, 0.3, -0.5, 2.0)]
    ):
        q, t = gaussian_pair(*setting)
        rep = delta_cv_mc(q, t, split_stream(600, "acc-c6", i), 200000)
        bound = delta_ratio_bound(q, t)
        assert not bound.undefined
        for k in range(2):
            assert abs(rep.ratio[k]) <= bound.bound_rhs[k] + 4.0 * rep.ratio_se[k]

    q1, t1 = gaussian_pair(2.0, 0.5, 0.0, 1.0, d=1)
    q2, t2 = gaussian_pair(2.0, 0.5, 0.0, 1.0, d=2)
    b1 = delta_ratio_bound(q1, t1, C=5.0)
    b2 = delta_ratio_bound(q2, t2, C=5.0)
    assert b2.bound_rhs[0] / b1.bound_rhs[0] == pytest.approx(
        1.0 / math.sqrt(2.0), rel=1e-9
    )


def test_c07_score_kurtosis_reference_values():
    """MC kurtosis E[s^4] / E[s^2]^2 of the score coordinates at 1e6 draws
    reproduces 3 for Gaussian mean coordinates, 15 for log-std coordinates
    at any mean, and 1 for the logit coordinate of a fair Bernoulli, all
    within 5%."""
    zero_mean = DiagGaussianParams(mean=np.zeros(2), log_std=np.array([0.0, 0.3]))
    # the log-std score is affine in the centred square (z - mu)^2, so its
    # kurtosis stays 15 where the natural-statistic formula moves
    mean_two = DiagGaussianParams(mean=np.array([2.0]), log_std=np.zeros(1))
    fair = MeanFieldBernoulliParams(logits=np.zeros(2))
    cases = [
        (zero_mean, "acc-c7", [3, 3, 15, 15]),
        (mean_two, "acc-c7-mean", [3, 15]),
        (fair, "acc-c7-bern", [1, 1]),
    ]
    for params, label, want in cases:
        s = score_ref(params, families.draw(params, split_stream(700, label), 10**6))
        kurt = np.mean(s**4, axis=0) / np.mean(s**2, axis=0) ** 2
        np.testing.assert_allclose(kurt, want, rtol=0.05, err_msg=label)


def test_c08_kl_strictly_increases_when_appending_dimensions():
    """The closed-form diagonal-Gaussian KL strictly increases whenever a
    non-identical coordinate is appended, and is unchanged by appending a
    matched one: 100 random block compositions, exact arithmetic."""
    rng = split_stream(800, "acc-c8")
    for i in range(100):
        d = 1 + i % 5
        q = DiagGaussianParams(
            mean=rng.normal(0.0, 2.0, d), log_std=rng.normal(0.0, 0.5, d)
        )
        t = GaussianTarget(
            post_mean=rng.normal(0.0, 2.0, d),
            post_var=np.exp(rng.normal(0.0, 0.7, d)),
            log_evidence=float(rng.normal(0.0, 2.0)),
        )
        kl_base = kl_gaussian_closed_form(q, t)

        extra_mean, extra_log_std = rng.normal(0.0, 2.0), rng.normal(0.0, 0.5)
        extra_post_mean = rng.normal(0.0, 2.0)
        extra_post_var = float(np.exp(rng.normal(0.0, 0.7)))
        q_ext = DiagGaussianParams(
            mean=np.append(q.mean, extra_mean),
            log_std=np.append(q.log_std, extra_log_std),
        )
        t_ext = GaussianTarget(
            post_mean=np.append(t.post_mean, extra_post_mean),
            post_var=np.append(t.post_var, extra_post_var),
            log_evidence=t.log_evidence,
        )
        kl_extra = kl_gaussian_closed_form(
            DiagGaussianParams(
                mean=np.array([extra_mean]), log_std=np.array([extra_log_std])
            ),
            GaussianTarget(
                post_mean=np.array([extra_post_mean]),
                post_var=np.array([extra_post_var]),
            ),
        )
        assert kl_extra > 0.0  # random coordinates never match exactly
        assert kl_gaussian_closed_form(q_ext, t_ext) > kl_base

        q_same = DiagGaussianParams(
            mean=np.append(q.mean, t.post_mean[0]),
            log_std=np.append(q.log_std, 0.5 * np.log(t.post_var[0])),
        )
        t_same = GaussianTarget(
            post_mean=np.append(t.post_mean, t.post_mean[0]),
            post_var=np.append(t.post_var, t.post_var[0]),
            log_evidence=t.log_evidence,
        )
        assert kl_gaussian_closed_form(q_same, t_same) == pytest.approx(
            kl_base, rel=1e-12
        )


def test_c09_logreg_training_diagnostics(tmp_path):
    """Full-scale variational logistic regression (1000 steps, 100 data
    points) for D in {20, 50}: every logged |delta / E[coefficient]| stays
    below 0.5, the leave-one-out estimator never has higher variance than
    Reinforce beyond 4 SE, and after the first 100 steps its variance stays
    within 2x of the oracle-coefficient estimator. The logged steps run on
    two worker processes, as the CLI program runs them on a 2-CPU machine.
    Budget: 15 minutes."""
    t0 = time.perf_counter()
    for dims, seed in ((20, 901), (50, 902)):
        out = run_subcommand(
            tmp_path,
            "train-logreg",
            ["experiment = train-logreg", f"seed = {seed}", f"logreg.dims = {dims}"],
            tmp_path / f"train{dims}.csv",
            workers=2,
        )
        _, _, rows = read_csv(out)
        assert len(rows) == 101 * 2 * (dims + 1)
        for r in rows:
            assert r["delta_valid"] == 1
            assert r["delta_abs_ratio"] < 0.5
            assert r["diff_reinforce_vargrad"] >= -4.0 * r["diff_se_reinforce_vargrad"]
            if r["step"] > 100:
                assert r["var_vargrad"] <= 2.0 * r["var_cv_oracle"]
    assert time.perf_counter() - t0 < 900.0


# Reduced configs for every subcommand, without experiment and seed lines.
C10_REDUCED = {
    "unbiasedness": ["toy.dims = 2", "toy.s = 3", "toy.replicates = 500"],
    "variance-sweep": [
        "sweep.grid_points = [[1, 2, 1, 1, 4], [3, 1, 3, 1, 2]]",
        "sweep.replicates = 400",
    ],
    "delta-ratio": ["delta.dims = [1, 2]", "delta.n_samples = 2000"],
    "gaussian-oracles": [
        "oracles.grid_points = [[3, 1, 3, 1, 4]]",
        "oracles.mc_draws = 5000",
    ],
    "cv-comparison": [
        "cv.dims = [2]",
        "cv.s_grid = [2, 4]",
        "cv.replicates = 60",
    ],
    "train-logreg": [
        "logreg.dims = 3",
        "logreg.n_data = 20",
        "logreg.steps = 20",
        "logging.every = 10",
        "diagnostics.n_delta = 200",
        "diagnostics.n_is = 2500",  # two row blocks of the logreg log joint
        "diagnostics.n_elbo = 200",
        "diagnostics.variance_replicates = 50",
        "diagnostics.cv_oracle_samples = 100",
    ],
}


def test_c10_every_subcommand_is_byte_deterministic(tmp_path):
    """Each experiment, run twice with the same config and seed, writes
    byte-identical CSV output."""
    for name, lines in C10_REDUCED.items():
        lines = [f"experiment = {name}", "seed = 42"] + lines
        first = run_subcommand(tmp_path, name, lines, tmp_path / f"{name}-1.csv")
        second = run_subcommand(tmp_path, name, lines, tmp_path / f"{name}-2.csv")
        assert first.read_bytes() == second.read_bytes(), name


def test_c10_train_logreg_bytes_do_not_depend_on_workers(tmp_path):
    """The reduced train-logreg config (3 logged steps, two row blocks of the
    logreg log joint) writes the same bytes serially and on 2 or 3 worker
    processes. The worker count is passed explicitly, so this runs the pool
    on a 1-CPU machine too."""
    lines = ["experiment = train-logreg", "seed = 42"] + C10_REDUCED["train-logreg"]
    outs = [
        run_subcommand(tmp_path, "train-logreg", lines, tmp_path / f"w{w}.csv", workers=w)
        for w in (1, 2, 3)
    ]
    assert outs[1].read_bytes() == outs[0].read_bytes()
    assert outs[2].read_bytes() == outs[0].read_bytes()
    assert multiprocessing.active_children() == []


def test_c10_variance_sweep_bytes_do_not_depend_on_workers(tmp_path):
    """Two sweep rows of 20000 replicates, three replicate spans each, write
    the same bytes serially and on 2 or 3 worker processes."""
    lines = [
        "experiment = variance-sweep",
        "seed = 42",
        "sweep.grid_points = [[1, 2, 1, 1, 4], [3, 1, 3, 1, 2]]",
        "sweep.replicates = 20000",
    ]
    outs = [
        run_subcommand(tmp_path, "variance-sweep", lines, tmp_path / f"w{w}.csv", workers=w)
        for w in (1, 2, 3)
    ]
    assert outs[1].read_bytes() == outs[0].read_bytes()
    assert outs[2].read_bytes() == outs[0].read_bytes()
    assert multiprocessing.active_children() == []


def test_c10_single_logged_step_starts_no_pool(tmp_path, monkeypatch):
    """With logreg.steps < logging.every only step 0 is logged, and it runs
    in this process whatever the worker count."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for one logged step")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    reduced = [line for line in C10_REDUCED["train-logreg"] if not line.startswith("logreg.steps")]
    lines = ["experiment = train-logreg", "seed = 42", "logreg.steps = 5"] + reduced
    out = run_subcommand(tmp_path, "train-logreg", lines, tmp_path / "one.csv", workers=2)
    _, _, rows = read_csv(out)
    assert {r["step"] for r in rows} == {0}


def test_c10_metadata_block_is_a_config_that_reproduces_the_csv(tmp_path):
    """A CSV's '#' lines, up to the values the run computed, are its resolved
    config: parsed back they give the same options, and rerun they give the
    same bytes. The order of the config's lines does not reach the CSV."""
    for name, lines in C10_REDUCED.items():
        lines = [f"experiment = {name}", "seed = 42"] + lines
        csv = run_subcommand(tmp_path, name, lines, tmp_path / f"{name}.csv")
        resolved = parse_config(tmp_path / f"{name}-{name}.cfg")  # written by run_subcommand
        text = csv.read_text(encoding="utf-8")
        block = [line[2:] for line in text.splitlines() if line.startswith("# ")]
        config_lines = block[: 2 + len(resolved.options)]
        rerun = run_subcommand(tmp_path, name, config_lines, tmp_path / f"{name}-block.csv")
        assert parse_config(tmp_path / f"{name}-{name}-block.cfg") == resolved, name
        assert rerun.read_bytes() == csv.read_bytes(), name
        shuffled = run_subcommand(tmp_path, name, lines[::-1], tmp_path / f"{name}-shuffled.csv")
        assert shuffled.read_bytes() == csv.read_bytes(), name
