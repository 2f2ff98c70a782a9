"""End-to-end experiment runners on reduced configurations."""

import math
import warnings

import numpy as np
import pytest

from vargrad_lab import analysis, families
from vargrad_lab.analysis import (
    EstimatorSpec,
    paired_difference_from_estimates,
    replicate_estimates,
)
from vargrad_lab.estimators import REINFORCE_TAG, VARGRAD_TAG, build_batch
from vargrad_lab.families import DiagGaussianParams
from vargrad_lab.gaussian_oracles import (
    delta_cv_analytic,
    delta_var_analytic,
    optimal_a_analytic,
)
from vargrad_lab.harness.config import EXPERIMENTS, ConfigError, ExperimentConfig, parse_config
from vargrad_lab.harness.csvio import read_csv
from vargrad_lab.harness.experiments import (
    _SPAN_REPLICATES,
    RUNNERS,
    _gaussian_pair,
    _sweep_span,
    _sweep_spans,
    _write_run,
)
from vargrad_lab.harness.rng import split_stream
from vargrad_lab.losses import kl_gaussian_closed_form, kl_gaussian_gradient
from vargrad_lab.targets import GaussianTarget, synth_logreg_dataset

from oracles import cov_f_score2_ref
from test_acceptance import C10_REDUCED


def run(tmp_path, text, name="run.cfg"):
    cfg_path = tmp_path / name
    cfg_path.write_text(text, encoding="utf-8")
    cfg = parse_config(cfg_path)
    out = RUNNERS[cfg.experiment](cfg)
    assert out == cfg.out
    return read_csv(out)


def test_runner_table_lists_the_experiments_in_order():
    assert tuple(RUNNERS) == EXPERIMENTS


# ------------------------------------------------------------- unbiasedness


def test_unbiasedness_small_exact_case(tmp_path):
    metadata, header, rows = run(
        tmp_path,
        f"""
        experiment = unbiasedness
        seed = 11
        out = {tmp_path / 'unbiased.csv'}
        toy.dims = 1
        toy.posterior = [0.2, 0.8]
        toy.s = 4
        toy.replicates = 4000
        """,
    )
    assert metadata["toy.posterior"] == "[0.2, 0.8]"
    assert float(metadata["exact_kl"]) == pytest.approx(
        0.5 * math.log(0.5 / 0.2) + 0.5 * math.log(0.5 / 0.8), rel=1e-12
    )
    assert {r["estimator"] for r in rows} == {"reinforce", "cv", "vargrad"}
    for r in rows:
        assert r["exact_grad"] == pytest.approx(-0.34657359027997264, abs=1e-12)
        assert r["within_4se"] == 1
        assert r["label"] == "logit_0"


def test_unbiasedness_zero_variance_at_posterior(tmp_path):
    logit = math.log(0.8 / 0.2)
    _, _, rows = run(
        tmp_path,
        f"""
        experiment = unbiasedness
        seed = 12
        out = {tmp_path / 'matched.csv'}
        toy.dims = 1
        toy.posterior = [0.2, 0.8]
        toy.logits = [{logit}]
        toy.s = 4
        toy.replicates = 500
        toy.estimators = ["vargrad", "cv"]
        """,
    )
    for r in rows:
        # agreement at double precision is reported as z = 0 rather than
        # fp dust divided by fp dust
        assert r["exact_grad"] == pytest.approx(0.0, abs=1e-12)
        assert r["z_score"] == 0
        assert r["within_4se"] == 1


def test_unbiasedness_seeded_table_and_min_s(tmp_path):
    metadata, _, rows = run(
        tmp_path,
        f"""
        experiment = unbiasedness
        seed = 13
        out = {tmp_path / 'seeded.csv'}
        toy.dims = 2
        toy.s = 2
        toy.replicates = 20000
        """,
    )
    assert metadata["toy.posterior"] == "null"  # the table comes from the seed
    assert len(rows) == 3 * 2  # three estimators, two logits
    assert all(r["within_4se"] == 1 for r in rows)


def test_unbiasedness_config_errors(tmp_path):
    base = f"experiment = unbiasedness\nseed = 1\nout = {tmp_path / 'x.csv'}\n"

    def expect_error(extra, match):
        path = tmp_path / "bad.cfg"
        path.write_text(base + extra, encoding="utf-8")
        cfg = parse_config(path)
        with pytest.raises(ConfigError, match=match):
            RUNNERS[cfg.experiment](cfg)

    expect_error("toy.dims = 21\n", "must be <= 20")
    expect_error("toy.posterior = [0.5, 0.5]\ntoy.dims = 2\n", "2\\^dims")
    expect_error("toy.logits = [0.0, 0.0]\n", "needs dims")
    # estimator names are checked by the config, before the runner starts
    path = tmp_path / "bad.cfg"
    path.write_text(base + 'toy.estimators = ["bogus"]\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown estimator 'bogus'; choose from reinforce, cv"):
        parse_config(path)


# ----------------------------------------------------------- variance sweep


def test_variance_sweep_reduced_grid(tmp_path):
    metadata, header, rows = run(
        tmp_path,
        f"""
        experiment = variance-sweep
        seed = 21
        out = {tmp_path / 'sweep.csv'}
        sweep.grid_points = [[1, 2, 1, 1, 9], [1, 0, 0.5, 1, 1000], [3, 1, 3, 1, 4], [0, 0, 1, 1, 16]]
        sweep.replicates = 20000
        """,
    )
    assert metadata["coordinate"] == "mean_0"
    assert header[-2:] == ["condition_value", "condition_met"]
    assert len(rows) == 4
    by_s = {r["S"]: r for r in rows}

    # every analytic cell reproduces the closed forms bit-for-bit
    for r in rows:
        q, t = _gaussian_pair(r["mu"], r["mu_tilde"], r["sigma2"], r["sigma2_tilde"])
        assert r["analytic"] == delta_var_analytic(q, t, r["S"])
        delta = delta_cv_analytic(q, t)[0]
        want = delta / -kl_gaussian_closed_form(q, t) if delta != 0.0 else 0.0
        assert r["condition_value"] == want
        assert r["condition_met"] == (want < 0.5)

    assert by_s[9]["analytic"] == 0
    for S in (9, 1000, 4):
        assert abs(by_s[S]["diff"] - by_s[S]["analytic"]) < 4.0 * by_s[S]["diff_se"]
    # the large-S condition delta / ELBO < 1/2 fails where Reinforce wins ...
    assert by_s[1000]["analytic"] < 0 and by_s[1000]["diff"] < 0
    assert by_s[1000]["condition_met"] == 0
    # ... holds where the leave-one-out estimator wins ...
    assert by_s[4]["diff"] > 0 and by_s[4]["condition_met"] == 1
    # ... and holds trivially at q = posterior, where delta = 0 and the
    # leave-one-out estimator has no variance at all
    assert by_s[16]["condition_value"] == 0 and by_s[16]["condition_met"] == 1
    assert by_s[16]["var_vargrad"] < 1e-15


def test_variance_sweep_condition_is_the_sign_of_the_large_s_term(tmp_path):
    # delta_var_analytic is D(S) = A / S - B / (S (S - 1)), so
    # S D(S) = A - B / (S - 1) and A = 2 (3 D(3)) - 2 D(2). For E f != 0,
    # condition_met is exactly A > 0: VarGrad then beats Reinforce for every
    # S past S* = 1 + B / A
    _, _, rows = run(
        tmp_path,
        f"""
        experiment = variance-sweep
        seed = 22
        out = {tmp_path / 'sweep.csv'}
        sweep.replicates = 3
        """,
    )
    met = []
    for r in rows:
        q, t = _gaussian_pair(r["mu"], r["mu_tilde"], r["sigma2"], r["sigma2_tilde"])
        if kl_gaussian_closed_form(q, t) - t.log_evidence == 0.0:
            continue
        a = 6.0 * delta_var_analytic(q, t, 3) - 2.0 * delta_var_analytic(q, t, 2)
        assert r["condition_met"] == (a > 0.0), r
        met.append(r["condition_met"])
    assert len(met) == 12 and set(met) == {0, 1}


def _sweep_cfg(tmp_path, replicates, grid="[[1, 2, 1, 1, 4], [3, 1, 3, 1, 2]]"):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        f"experiment = variance-sweep\nseed = 23\nout = {tmp_path / 'sweep.csv'}\n"
        f"sweep.grid_points = {grid}\nsweep.replicates = {replicates}\n",
        encoding="utf-8",
    )
    return parse_config(path)


def test_variance_sweep_spans_are_fixed():
    n = _SPAN_REPLICATES
    assert _sweep_spans(1) == [(0, 1)]
    assert _sweep_spans(3) == [(0, 3)]
    assert _sweep_spans(n) == [(0, n)]
    # however short, the rest is a span of its own: only the jackknife over
    # the whole row needs 3 replicates
    assert _sweep_spans(n + 1) == [(0, n), (n, n + 1)]
    assert _sweep_spans(n + 2) == [(0, n), (n, n + 2)]
    spans = _sweep_spans(100000)  # the default: 13 spans per row
    assert len(spans) == 13 and spans[-1] == (12 * n, 100000)
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


@pytest.mark.parametrize("i", [0, 1])
def test_variance_sweep_span_k_draws_from_the_kth_jump_of_its_row_stream(tmp_path, i):
    cfg = _sweep_cfg(tmp_path, 100)
    mu, mu_tilde, sigma2, sigma2_tilde, S = cfg["sweep.grid_points"][i]
    q, t = _gaussian_pair(mu, mu_tilde, sigma2, sigma2_tilde)
    specs = [
        EstimatorSpec(name="reinforce", tag=REINFORCE_TAG),
        EstimatorSpec(name="vargrad", tag=VARGRAD_TAG),
    ]
    for k in (0, 2):
        stream = split_stream(23, "variance-sweep", i)
        # span 0 draws from the row's stream itself, as a one-span row always did
        rng = stream if k == 0 else np.random.Generator(stream.bit_generator.jumped(k))
        want = replicate_estimates(q, t, rng, S, 50, specs)
        got = _sweep_span(cfg, (i, k, 50))
        np.testing.assert_array_equal(got[0], want["reinforce"][:, 0])
        np.testing.assert_array_equal(got[1], want["vargrad"][:, 0])


def test_variance_sweep_row_is_its_spans_in_order(tmp_path):
    R = _SPAN_REPLICATES + 100
    cfg = _sweep_cfg(tmp_path, R)
    _, _, rows = read_csv(RUNNERS[cfg.experiment](cfg))
    for i, r in enumerate(rows):
        spans = enumerate(_sweep_spans(R))
        parts = [_sweep_span(cfg, (i, k, stop - start)) for k, (start, stop) in spans]
        xa, xb = (np.concatenate([p[j] for p in parts])[:, None] for j in (0, 1))
        pair = paired_difference_from_estimates(xa, xb)
        assert r["var_reinforce"] == float(pair.report_a.per_coordinate_variance[0])
        assert r["var_vargrad"] == float(pair.report_b.per_coordinate_variance[0])
        assert (r["diff"], r["diff_se"]) == (float(pair.diff[0]), float(pair.diff_se[0]))


# -------------------------------------------------------------- delta ratio


def test_delta_ratio_shrinks_with_dimension(tmp_path):
    metadata, _, rows = run(
        tmp_path,
        f"""
        experiment = delta-ratio
        seed = 31
        out = {tmp_path / 'delta.csv'}
        delta.dims = [1, 3]
        delta.n_samples = 40000
        """,
    )
    assert len(rows) == 2 + 6
    kl1 = 2.450693855665945
    for r in rows:
        assert r["valid"] == 1
        assert abs(r["delta_mc"] - r["delta_analytic"]) < 4.0 * r["delta_se"]
        assert r["a_expectation_analytic"] == pytest.approx(
            r["dims"] * kl1, rel=1e-12
        )
    mean_rows = {r["dims"]: r for r in rows if r["label"] == "mean_0"}
    assert mean_rows[1]["ratio_abs_analytic"] == pytest.approx(2.0 / kl1, rel=1e-12)
    assert mean_rows[3]["ratio_abs_analytic"] == pytest.approx(
        2.0 / (3 * kl1), rel=1e-12
    )
    assert mean_rows[3]["ratio_abs_analytic"] < mean_rows[1]["ratio_abs_analytic"]


def test_delta_ratio_at_posterior_flags_undefined_ratio(tmp_path):
    # q equals the posterior, so both coefficient expectations are exactly 0
    # and neither ratio exists; the rows say so instead of passing NaN as valid
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, _, rows = run(
            tmp_path,
            f"""
            experiment = delta-ratio
            seed = 1
            out = {tmp_path / 'delta.csv'}
            delta.mu = 1
            delta.mu_tilde = 1
            delta.sigma2 = 1
            delta.sigma2_tilde = 1
            delta.dims = [1]
            """,
        )
    assert len(rows) == 2
    for r in rows:
        assert r["a_expectation_analytic"] == 0.0
        assert math.isnan(r["ratio_abs_analytic"])
        assert r["valid"] == 0


# ---------------------------------------------------------- gaussian oracles


def test_gaussian_oracles_table(tmp_path):
    metadata, header, rows = run(
        tmp_path,
        f"""
        experiment = gaussian-oracles
        seed = 41
        out = {tmp_path / 'oracles.csv'}
        oracles.grid_points = [[3, 1, 3, 1, 4], [1, 2, 1, 1, 9]]
        oracles.mc_draws = 50000
        """,
    )
    assert len(rows) == 2
    for conv in ("mean", "variance", "log_variance"):
        assert f"cov_{conv}" in header

    for r in rows:
        q, t = _gaussian_pair(r["mu"], r["mu_tilde"], r["sigma2"], r["sigma2_tilde"])
        assert r["kl"] == kl_gaussian_closed_form(q, t)
        assert r["a_opt_mean"] == optimal_a_analytic(q, t)[0]
        for conv in ("mean", "variance", "log_variance"):
            want = cov_f_score2_ref(
                r["mu"], r["mu_tilde"], r["sigma2"], r["sigma2_tilde"], conv
            )
            assert r[f"cov_{conv}"] == pytest.approx(want, rel=1e-9)
            assert (
                abs(r[f"cov_{conv}_mc"] - r[f"cov_{conv}"])
                < 4.0 * r[f"cov_{conv}_mc_se"]
            )

    s9 = next(r for r in rows if r["S"] == 9)
    assert s9["delta_var"] == 0
    c2 = next(r for r in rows if r["S"] == 4)
    assert c2["delta_mean"] == pytest.approx(2.0, rel=1e-12)
    assert c2["delta_log_std"] == pytest.approx(4.0, rel=1e-12)
    assert c2["kurt_mean"] == pytest.approx(3.0, rel=1e-12)


def test_gaussian_oracles_kurtosis_columns(tmp_path):
    # the second kurtosis column is the natural statistic z^2's,
    # 3 (4 r^2 + 20 r + 5) / (2 r + 1)^2 with r = mu^2 / sigma2 = 3 here;
    # the log-std score's own kurtosis is 15 at every setting
    _, header, rows = run(
        tmp_path,
        f"""
        experiment = gaussian-oracles
        seed = 41
        out = {tmp_path / 'kurt.csv'}
        oracles.mc_draws = 100
        """,
    )
    k = header.index("kurt_mean")
    assert header[k + 1] == "kurt_z2"
    assert "kurt_log_std" not in header
    row = rows[0]  # the default grid's (3, 1, 3, 1, 4)
    assert [row[c] for c in ("mu", "mu_tilde", "sigma2", "sigma2_tilde")] == [3, 1, 3, 1]
    assert row["kurt_mean"] == 3.0
    assert row["kurt_z2"] == pytest.approx(3.0 * 101.0 / 49.0, rel=1e-12)


def test_gaussian_oracles_conventions_share_one_batch(tmp_path, monkeypatch):
    # one delta_cv_mc batch per grid row serves all three conventions, so
    # the variance and log-variance columns differ by exactly sigma^-4
    drawn = []
    real_draw = families.draw

    def draw(params, rng, n):
        drawn.append(n)
        return real_draw(params, rng, n)

    monkeypatch.setattr(families, "draw", draw)
    _, _, rows = run(
        tmp_path,
        f"""
        experiment = gaussian-oracles
        seed = 42
        out = {tmp_path / 'oracles.csv'}
        oracles.grid_points = [[3, 1, 3, 1, 4], [1, 2, 0.5, 1, 9], [0, 1, 1.7, 0.6, 2]]
        oracles.mc_draws = 5000
        """,
    )
    assert drawn == [5000] * 3
    for r in rows:
        assert r["cov_variance_mc"] * r["sigma2"] ** 2 == pytest.approx(
            r["cov_log_variance_mc"], rel=1e-15
        )
        assert r["cov_variance_mc_se"] * r["sigma2"] ** 2 == pytest.approx(
            r["cov_log_variance_mc_se"], rel=1e-15
        )


# ----------------------------------------------------------- cv comparison


def test_cv_comparison_oracle_vs_leave_one_out(tmp_path):
    a_mean = 4.4506938556659446
    _, _, rows = run(
        tmp_path,
        f"""
        experiment = cv-comparison
        seed = 51
        out = {tmp_path / 'cv.csv'}
        cv.dims = [3]
        cv.s_grid = [2, 8]
        cv.replicates = 3000
        cv.a_grid = [{a_mean}, 0.0]
        """,
    )
    names = {r["estimator"] for r in rows}
    assert names == {
        "reinforce",
        "vargrad",
        "cv_oracle",
        "cv_sampled",
        "cv_const_0",
        "cv_const_1",
    }
    # recorded coefficient values ride along for the constant-a specs
    assert {r["a_value"] for r in rows if r["estimator"] == "cv_const_0"} == {a_mean}
    assert all(
        r["a_value"] == "nan" or (isinstance(r["a_value"], float) and math.isnan(r["a_value"]))
        for r in rows
        if r["estimator"] == "vargrad"
    )

    import vargrad_lab.losses as losses

    q = DiagGaussianParams(
        mean=np.full(3, 3.0), log_std=np.full(3, 0.5 * math.log(3.0))
    )
    t = GaussianTarget(post_mean=np.full(3, 1.0), post_var=np.full(3, 1.0))
    exact = losses.kl_gaussian_gradient(q, t)

    for r in rows:
        if r["estimator"] == "cv_sampled" and r["S"] == 2:
            continue  # tiny coefficient batches are wild; checked separately
        assert abs(r["mean"] - exact[r["coord"]]) < 5.0 * r["mean_se"], r

    # with the oracle coefficient available, the leave-one-out estimator
    # still lands within a factor two at moderate S
    at8 = [r for r in rows if r["S"] == 8]
    var = {(r["estimator"], r["coord"]): r["variance"] for r in at8}
    for k in range(6):
        assert var[("vargrad", k)] <= 2.0 * var[("cv_oracle", k)]


def test_cv_comparison_sampled_coefficient_is_bounded_at_small_s(tmp_path):
    # a coefficient from 2 extra draws is a weighted mean of their f, so its
    # variance is finite and cv_sampled stays near VarGrad at S = 2; a
    # centred Cov/Var coefficient of 2 draws has a Cauchy tail
    _, _, rows = run(
        tmp_path,
        f"""
        experiment = cv-comparison
        seed = 52
        out = {tmp_path / 'cv30.csv'}
        cv.dims = [30]
        cv.s_grid = [2]
        cv.replicates = 1500
        cv.estimators = ["vargrad", "cv_sampled"]
        """,
    )
    var = {(r["estimator"], r["coord"]): r["variance"] for r in rows}
    assert all(
        var[("cv_sampled", k)] <= 2.0 * var[("vargrad", k)] for k in range(60)
    )


def test_cv_comparison_rejects_unknown_estimator(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(
        f"experiment = cv-comparison\nseed = 1\nout = {tmp_path / 'x.csv'}\n"
        'cv.estimators = ["mystery"]\n',
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="unknown estimator 'mystery'"):
        parse_config(path)


def test_keyed_runners_read_each_pair_key_into_its_own_place(tmp_path):
    # four distinct values, so a runner that swapped mu and sigma2, or
    # mu_tilde and sigma2_tilde, would build another pair and fail here
    mu, sigma2, mu_tilde, sigma2_tilde = 0.5, 2.0, 1.5, 0.7

    def keys(p):
        return (
            f"{p}.mu = {mu}\n{p}.sigma2 = {sigma2}\n"
            f"{p}.mu_tilde = {mu_tilde}\n{p}.sigma2_tilde = {sigma2_tilde}\n"
        )

    def own_pair(d):
        q = DiagGaussianParams(mean=np.full(d, mu), log_std=np.full(d, 0.5 * math.log(sigma2)))
        return q, GaussianTarget(post_mean=np.full(d, mu_tilde), post_var=np.full(d, sigma2_tilde))

    _, _, rows = run(
        tmp_path,
        f"experiment = delta-ratio\nseed = 3\nout = {tmp_path / 'delta.csv'}\n"
        "delta.dims = [1, 2]\ndelta.n_samples = 200\n" + keys("delta"),
    )
    assert len(rows) == 2 + 4
    for r in rows:
        q, t = own_pair(r["dims"])
        assert r["delta_analytic"] == delta_cv_analytic(q, t)[r["coord"]]
        assert r["a_expectation_analytic"] == kl_gaussian_closed_form(q, t)

    _, _, rows = run(
        tmp_path,
        f"experiment = cv-comparison\nseed = 3\nout = {tmp_path / 'cv.csv'}\n"
        "cv.dims = [2]\ncv.s_grid = [4]\ncv.replicates = 2000\n" + keys("cv"),
    )
    exact = kl_gaussian_gradient(*own_pair(2))
    checked = [r for r in rows if r["estimator"] in ("reinforce", "vargrad", "cv_oracle")]
    assert len(checked) == 3 * 4
    for r in checked:
        assert abs(r["mean"] - exact[r["coord"]]) < 5.0 * r["mean_se"], r


# ------------------------------------------------------------- train logreg


TRAIN_CFG = """
experiment = train-logreg
seed = {seed}
out = {out}
logreg.dims = 3
logreg.n_data = 40
logreg.steps = 30
logreg.train_s = 4
optimizer.learning_rate = 0.01
logging.every = 10
diagnostics.n_delta = 500
diagnostics.n_is = 2000
diagnostics.n_elbo = 500
diagnostics.variance_replicates = 200
diagnostics.variance_s = 4
diagnostics.cv_oracle_samples = 500
"""


def test_train_logreg_log_schedule_and_diagnostics(tmp_path):
    metadata, header, rows = run(
        tmp_path, TRAIN_CFG.format(seed=61, out=tmp_path / "train.csv")
    )
    assert metadata["logging.every"] == "10"
    assert metadata["logreg.dims"] == "3"
    # latent = weights + bias = 4, so 8 parameter coordinates per log point
    assert [r["step"] for r in rows[::8]] == [0, 10, 20, 30]
    assert len(rows) == 4 * 8
    assert header[:3] == ["step", "coord", "label"]
    for r in rows:
        assert r["kl_is"] == pytest.approx(
            r["log_evidence_is"] - r["elbo"], rel=1e-12, abs=1e-12
        )
        assert r["delta_valid"] == 1
        for name in ("reinforce", "vargrad", "cv_sampled", "cv_oracle"):
            assert r[f"var_{name}"] >= 0.0
    labels = {r["label"] for r in rows}
    assert labels == {f"mean_{k}" for k in range(4)} | {f"log_std_{k}" for k in range(4)}


def test_train_logreg_writes_the_log_variance_loss_of_the_elbo_batch(tmp_path):
    # the last column is half the unbiased variance of the ELBO batch's f
    # values: at step 0, the n_elbo draws after the n_is importance draws of
    # the step's diag-evidence stream, at q = N(0, I)
    _, header, rows = run(tmp_path, TRAIN_CFG.format(seed=64, out=tmp_path / "lv.csv"))
    assert header[-2:] == ["log_variance_loss", "bound_valid"]
    model = synth_logreg_dataset(split_stream(64, "logreg-data"), N=40, D=3)
    q = DiagGaussianParams(mean=np.zeros(4), log_std=np.zeros(4))
    rng = split_stream(64, "diag-evidence", 0)
    families.draw(q, rng, 2000)
    f = build_batch(q, model, families.draw(q, rng, 500))[0]
    step0 = [r for r in rows if r["step"] == 0]
    assert {r["log_variance_loss"] for r in step0} == {0.5 * float(np.var(f, ddof=1))}
    assert all(r["log_variance_loss"] > 0.0 for r in rows)


def test_train_logreg_flags_the_undefined_bound_denominator(tmp_path):
    # with two importance draws the KL estimate at steps 10 and 20 is not
    # positive, so the bound's denominator has no value there
    lines = [line for line in C10_REDUCED["train-logreg"] if "n_is" not in line]
    text = "\n".join(
        ["experiment = train-logreg", "seed = 42", f"out = {tmp_path / 'b.csv'}"]
        + lines
        + ["diagnostics.n_is = 2"]
    )
    _, header, rows = run(tmp_path, text)
    assert header[-1] == "bound_valid"
    for r in rows:
        assert r["bound_valid"] == (r["kl_is"] > 0.0)
        assert math.isnan(r["bound_denominator"]) == (not r["bound_valid"])
        if r["bound_valid"]:  # from the row's own cells, which round-trip exactly
            kl, log_ev = r["kl_is"], r["log_evidence_is"]
            assert r["bound_denominator"] == abs(math.sqrt(kl) - log_ev / math.sqrt(kl))
    assert {r["step"] for r in rows if not r["bound_valid"]} == {10, 20}


def test_train_logreg_is_deterministic_per_seed(tmp_path):
    run(tmp_path, TRAIN_CFG.format(seed=62, out=tmp_path / "a.csv"), name="a.cfg")
    run(tmp_path, TRAIN_CFG.format(seed=62, out=tmp_path / "b.csv"), name="b.cfg")
    run(tmp_path, TRAIN_CFG.format(seed=63, out=tmp_path / "c.csv"), name="c.cfg")
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    c = (tmp_path / "c.csv").read_bytes()
    assert a == b
    assert a != c


# ---------------------------------------------------------- replicate draws


@pytest.mark.parametrize(
    "experiment, lines",
    [
        ("cv-comparison", ["cv.dims = [3]", "cv.s_grid = [4, 8]", "cv.replicates = 10000"]),
        (
            "train-logreg",
            [
                line
                for line in C10_REDUCED["train-logreg"]
                if not line.startswith("diagnostics.variance_replicates")
            ]
            + ["diagnostics.variance_replicates = 3000"],
        ),
    ],
    ids=["cv-comparison", "train-logreg"],
)
def test_replicate_draws_do_not_depend_on_the_chunk_cap(tmp_path, monkeypatch, experiment, lines):
    # both runs hold a cv_sampled spec, and their replicate runs (10000 x 8
    # and 3000 x 4 shared draws) span several chunks at the smaller caps
    outs = []
    for cap in (1 << 12, 1 << 15, 1 << 17):
        monkeypatch.setattr(analysis, "_CHUNK_SAMPLE_CAP", cap)
        body = [f"experiment = {experiment}", "seed = 3", f"out = {tmp_path / f'{cap}.csv'}"]
        _, _, rows = run(tmp_path, "\n".join(body + lines) + "\n")
        outs.append((tmp_path / f"{cap}.csv").read_bytes())
    assert rows
    assert outs[1] == outs[0]
    assert outs[2] == outs[0]


# --------------------------------------------------------------- _write_run


def write_blocks(tmp_path, blocks):
    cfg = ExperimentConfig(experiment="demo", seed=1, out=str(tmp_path / "blocks.csv"))
    return read_csv(_write_run(cfg, blocks, note="x"))


def test_write_run_block_of_scalars_is_one_row(tmp_path):
    metadata, header, rows = write_blocks(
        tmp_path,
        [
            {"a": 1.5, "b": "x", "c": True},
            {"a": np.float64(2.5), "b": "y", "c": False},
        ],
    )
    assert metadata == {"experiment": "demo", "seed": "1", "note": "x"}
    assert header == ["a", "b", "c"]
    assert rows == [{"a": 1.5, "b": "x", "c": 1}, {"a": 2.5, "b": "y", "c": 0}]


def test_write_run_refuses_columns_of_unequal_length(tmp_path):
    for block in ({"k": range(3), "v": np.zeros(2)}, {"a": [1.0], "b": [1.0, 2.0], "c": 0}):
        with pytest.raises(ValueError):
            write_blocks(tmp_path, [block])


def test_write_run_refuses_blocks_whose_columns_differ_from_the_first(tmp_path):
    first = {"a": [1, 2], "b": 0.5}
    for other in (
        {"b": 0.5, "a": [3]},  # same names, other order
        {"a": [3]},
        {"a": [3], "c": 0.5},
        {"a": [3], "b": 0.5, "c": 1},
    ):
        with pytest.raises(ValueError, match="differ"):
            write_blocks(tmp_path, [first, other])
