"""Replicated-estimator statistics, correction-term MC, and tail bounds."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import vargrad_lab.analysis as analysis
import vargrad_lab.families as families
from vargrad_lab.analysis import (
    EstimatorSpec,
    delta_cv_mc,
    delta_ratio_bound,
    gaussian_sup_ratio,
    paired_difference_from_estimates,
    replicate_estimates,
    report_from_estimates,
)
from vargrad_lab.estimators import (
    CV_TAG,
    REINFORCE_TAG,
    VARGRAD_TAG,
    batch_sums_from_draws,
    combine,
    cv_coefficient,
)
from vargrad_lab.families import (
    DiagGaussianParams,
    MeanFieldBernoulliParams,
    draw,
    log_density,
    support_states,
)
from vargrad_lab.gaussian_oracles import (
    convention_coordinate,
    cov_f_score2_analytic,
    delta_cv_analytic,
    expected_f_analytic,
    optimal_a_analytic,
)
from vargrad_lab.harness.config import parse_config
from vargrad_lab.harness.csvio import read_csv
from vargrad_lab.harness.experiments import RUNNERS
from vargrad_lab.losses import kl_gaussian_closed_form, kl_gaussian_gradient
from vargrad_lab.targets import DiscreteToyModel, GaussianTarget, log_joint

from oracles import cov_f_score2_ref, score_ref, support_probs_ref, vargrad_via_loss


def gauss(mean, log_std):
    return DiagGaussianParams(
        mean=np.asarray(mean, dtype=float), log_std=np.asarray(log_std, dtype=float)
    )


def pair(mu, sigma2, mu_tilde, sigma2_tilde, d=1):
    q = gauss(np.full(d, mu), np.full(d, 0.5 * math.log(sigma2)))
    t = GaussianTarget(
        post_mean=np.full(d, mu_tilde), post_var=np.full(d, sigma2_tilde)
    )
    return q, t


SPEC_RV = [
    EstimatorSpec(name="reinforce", tag=REINFORCE_TAG),
    EstimatorSpec(name="vargrad", tag=VARGRAD_TAG),
]


# -------------------------------------------------------- replicate machinery


def test_replicate_estimates_shapes_and_determinism():
    q, t = pair(1.0, 2.0, 0.0, 1.0)
    specs = SPEC_RV + [
        EstimatorSpec(name="cv", tag=CV_TAG, a=np.array([0.5, 0.5])),
        EstimatorSpec(name="cv_sampled", tag="cv_sampled", s_extra=3),
    ]
    out1 = replicate_estimates(q, t, np.random.default_rng(101), 4, 50, specs)
    out2 = replicate_estimates(q, t, np.random.default_rng(101), 4, 50, specs)
    assert set(out1) == {"reinforce", "vargrad", "cv", "cv_sampled"}
    for name in out1:
        assert out1[name].shape == (50, 2)
        np.testing.assert_array_equal(out1[name], out2[name])


def test_replicate_estimates_chunking_is_transparent():
    # shared-draw estimators consume the stream sequentially, so slicing the
    # replicate axis into chunks must not change the numbers
    q, t = pair(1.0, 2.0, 0.0, 1.0)
    big = replicate_estimates(q, t, np.random.default_rng(102), 8, 300, SPEC_RV)
    old = analysis._CHUNK_SAMPLE_CAP
    try:
        analysis._CHUNK_SAMPLE_CAP = 128
        small = replicate_estimates(q, t, np.random.default_rng(102), 8, 300, SPEC_RV)
    finally:
        analysis._CHUNK_SAMPLE_CAP = old
    for name in big:
        np.testing.assert_array_equal(big[name], small[name])


@pytest.mark.parametrize("cap", [None, 12])
def test_replicate_estimates_stream_layout(monkeypatch, cap):
    # First the R * S shared draws, replicate after replicate, then R *
    # s_extra draws for each cv_sampled spec in spec order, whatever the chunk
    # cap. Rebuild each replicate from one explicit families.draw block per
    # pass, its shared sums from the kernel on that replicate alone.
    if cap is not None:
        monkeypatch.setattr(analysis, "_CHUNK_SAMPLE_CAP", cap)  # 3 rows per chunk
    q, t = pair(1.0, 2.0, 0.0, 1.0, d=2)
    S, R, a = 4, 10, np.array([0.5, -1.0, 2.0, 0.25])
    specs = [
        EstimatorSpec(name="cs3", tag="cv_sampled", s_extra=3),
        EstimatorSpec(name="reinforce", tag=REINFORCE_TAG),
        EstimatorSpec(name="cv", tag=CV_TAG, a=a),
        EstimatorSpec(name="vargrad", tag=VARGRAD_TAG),
        EstimatorSpec(name="cs2", tag="cv_sampled", s_extra=2),
    ]
    got = replicate_estimates(q, t, np.random.default_rng(109), S, R, specs)

    def blocks(rng, n):
        z = draw(q, rng, R * n)
        f = log_density(q, z) - log_joint(t, z)
        return z.reshape(R, n, -1), f.reshape(R, n), score_ref(q, z).reshape(R, n, -1)

    rng = np.random.default_rng(109)
    z, f, sc = blocks(rng, S)
    extra = {s.name: blocks(rng, s.s_extra)[1:] for s in specs if s.s_extra}
    for r in range(R):
        sums = batch_sums_from_draws(q, t, z[r : r + 1])  # replicate r on its own
        np.testing.assert_array_equal(got["reinforce"][r], combine(sums, REINFORCE_TAG)[0])
        np.testing.assert_array_equal(got["cv"][r], combine(sums, CV_TAG, a)[0])
        np.testing.assert_array_equal(got["vargrad"][r], combine(sums, VARGRAD_TAG)[0])
        np.testing.assert_allclose(got["vargrad"][r], vargrad_via_loss(f[r], sc[r]), rtol=1e-12)
        for name, (fe, se) in extra.items():
            a_r = cv_coefficient(fe[r], se[r])
            np.testing.assert_array_equal(got[name][r], combine(sums, CV_TAG, a_r)[0])


def test_replicate_estimates_draws_once_per_chunk_and_pass(monkeypatch):
    # perfbench/tracer.py counts a call's chunks as its families.draw calls
    # divided by 1 + the number of cv_sampled specs: every pass, the shared
    # one and one per cv_sampled spec, draws once per chunk
    monkeypatch.setattr(analysis, "_CHUNK_SAMPLE_CAP", 12)  # 3 rows per chunk
    real, sizes = families.draw, []

    def draw_counted(params, rng, n):
        sizes.append(n)
        return real(params, rng, n)

    monkeypatch.setattr(families, "draw", draw_counted)
    q, t = pair(1.0, 2.0, 0.0, 1.0)
    specs = SPEC_RV + [
        EstimatorSpec(name="cs3", tag="cv_sampled", s_extra=3),
        EstimatorSpec(name="cs2", tag="cv_sampled", s_extra=2),
    ]
    replicate_estimates(q, t, np.random.default_rng(110), 4, 10, specs)
    chunks = 4  # 10 replicates in chunks of 3
    assert len(sizes) == 3 * chunks
    assert sizes == [12, 12, 12, 4] + [9, 9, 9, 3] + [6, 6, 6, 2]


def test_replicate_means_track_exact_gradient():
    q, t = pair(1.0, 2.0, 0.0, 1.0)
    out = replicate_estimates(q, t, np.random.default_rng(103), 4, 40_000, SPEC_RV)
    exact = kl_gaussian_gradient(q, t)
    for name in out:
        mean = out[name].mean(axis=0)
        se = out[name].std(axis=0, ddof=1) / math.sqrt(out[name].shape[0])
        assert np.all(np.abs(mean - exact) < 4.0 * se), name


def test_replicate_estimates_validation():
    q, t = pair(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        replicate_estimates(q, t, np.random.default_rng(0), 4, 0, SPEC_RV)
    with pytest.raises(ValueError, match="S >= 2"):  # the leave-one-out spec at S = 1
        replicate_estimates(q, t, np.random.default_rng(0), 1, 10, SPEC_RV)
    for r in (1, 2):  # no jackknife here: its floor is report_from_estimates'
        out = replicate_estimates(q, t, np.random.default_rng(0), 4, r, SPEC_RV)
        assert [x.shape for x in out.values()] == [(r, 2), (r, 2)]
    with pytest.raises(ValueError):
        EstimatorSpec(name="x", tag="nonsense")
    with pytest.raises(ValueError):
        EstimatorSpec(name="x", tag=CV_TAG)  # cv needs a coefficient
    with pytest.raises(ValueError):
        EstimatorSpec(name="x", tag="cv_sampled")  # needs s_extra
    with pytest.raises(ValueError):
        replicate_estimates(
            q, t, np.random.default_rng(0), 4, 10, [SPEC_RV[0], SPEC_RV[0]]
        )  # duplicate names


def test_report_from_estimates_matches_numpy():
    x = np.random.default_rng(104).normal(size=(500, 3))
    rep = report_from_estimates(x)
    # the centred squares behind the SEs are np.var's own, so the bits agree
    np.testing.assert_array_equal(rep.per_coordinate_variance, x.var(axis=0, ddof=1))
    np.testing.assert_array_equal(rep.per_coordinate_mean, x.mean(axis=0))
    np.testing.assert_allclose(
        rep.mean_standard_errors, x.std(axis=0, ddof=1) / math.sqrt(500)
    )


def jackknife_variance_se_ref(xa, xb=None):
    """Delete-one jackknife SE of the ddof=1 column variances of xa, or of
    Var(xa) - Var(xb) on shared replicates, deleting each row in turn."""

    def stat(i):
        v = np.var(np.delete(xa, i, axis=0), axis=0, ddof=1)
        return v if xb is None else v - np.var(np.delete(xb, i, axis=0), axis=0, ddof=1)

    r = xa.shape[0]
    loo = np.array([stat(i) for i in range(r)])
    return np.sqrt((r - 1) / r * np.sum((loo - loo.mean(axis=0)) ** 2, axis=0))


@pytest.mark.parametrize("r", [3, 4, 50, 500])
def test_variance_ses_equal_the_delete_one_loop(r):
    # columns: N(0, 1), N(-5, 9), a constant (SE 0) and NaN (SE NaN, silently)
    rng = np.random.default_rng(r)
    xa = rng.normal(size=(r, 4))
    xa[:, 1] = 3.0 * xa[:, 1] - 5.0
    xa[:, 2] = 2.5
    xa[:, 3] = np.nan
    xb = 0.5 * xa + rng.standard_t(3, size=(r, 4))
    xb[:, 2] = -1.25
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = report_from_estimates(xa)
        pair = paired_difference_from_estimates(xa, xb)
    np.testing.assert_allclose(rep.standard_errors, jackknife_variance_se_ref(xa), rtol=1e-12)
    np.testing.assert_allclose(pair.diff_se, jackknife_variance_se_ref(xa, xb), rtol=1e-12)
    for se in (rep.standard_errors, pair.diff_se):
        assert se[2] == 0.0 and np.isnan(se[3])


def test_variance_ses_keep_their_digits_far_from_zero():
    # at |mean| / sd = 1e8, running sums of x and x^2 cancel every digit of
    # the delete-one variances; the centred squares keep them
    rng = np.random.default_rng(121)
    xa = 1e8 + rng.normal(size=(50, 1))
    xb = 1e8 + rng.normal(size=(50, 1))
    rep = report_from_estimates(xa)
    pair = paired_difference_from_estimates(xa, xb)
    np.testing.assert_allclose(rep.standard_errors, jackknife_variance_se_ref(xa), rtol=1e-6)
    np.testing.assert_allclose(pair.diff_se, jackknife_variance_se_ref(xa, xb), rtol=1e-6)


def test_jackknife_variance_se_matches_normal_theory():
    # for iid normals the variance of the sample variance is 2 sigma^4/(R-1)
    rng = np.random.default_rng(105)
    x = rng.normal(0.0, 2.0, size=(6000, 1))
    rep = report_from_estimates(x)
    theory = math.sqrt(2.0 / (6000 - 1)) * 4.0
    assert rep.standard_errors[0] == pytest.approx(theory, rel=0.2)


def test_report_smallest_replicate_counts():
    # the delete-one jackknife divides by R - 2, so R = 3 is the smallest count
    assert analysis.MIN_JACKKNIFE_N == 3
    rep = report_from_estimates(np.array([[0.0], [1.0], [3.0]]))
    assert np.all(np.isfinite(rep.standard_errors))
    for r in (1, 2):
        with pytest.raises(ValueError):
            report_from_estimates(np.zeros((r, 1)))
    with pytest.raises(ValueError):
        paired_difference_from_estimates(np.zeros((2, 1)), np.ones((2, 1)))


def test_estimator_variance_zero_at_posterior():
    q, t = pair(0.4, 1.3, 0.4, 1.3)
    x = replicate_estimates(q, t, np.random.default_rng(106), 4, 200, [SPEC_RV[1]])
    rep = report_from_estimates(x["vargrad"])
    assert np.all(rep.per_coordinate_variance < 1e-15)


def test_estimator_variance_cv_needs_coefficient():
    q, t = pair(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        replicate_estimates(
            q, t, np.random.default_rng(0), 4, 10, [EstimatorSpec(name="cv", tag=CV_TAG)]
        )


# -------------------------------------------------------- paired differences


def paired_difference(q, t, rng, S, R, spec_a, spec_b):
    """Var(a) - Var(b) on shared replicate draws, as the CLI runners take it."""
    ests = replicate_estimates(q, t, rng, S, R, [spec_a, spec_b])
    return paired_difference_from_estimates(ests[spec_a.name], ests[spec_b.name])


def test_paired_difference_of_identical_specs_is_zero():
    q, t = pair(1.0, 2.0, 0.0, 1.0)
    same = paired_difference(
        q,
        t,
        np.random.default_rng(107),
        4,
        500,
        EstimatorSpec(name="a", tag=VARGRAD_TAG),
        EstimatorSpec(name="b", tag=VARGRAD_TAG),
    )
    np.testing.assert_array_equal(same.diff, 0.0)
    np.testing.assert_array_equal(same.diff_se, 0.0)


def test_paired_difference_matches_closed_form_gap():
    # S = 100 at (mu 1, post 2, variances 1): the gap is 91/39600
    q, t = pair(1.0, 1.0, 2.0, 1.0)
    got = paired_difference(q, t, np.random.default_rng(108), 100, 100_000, *SPEC_RV)
    want = 91.0 / 39600.0
    assert abs(got.diff[0] - want) < 4.0 * got.diff_se[0]
    assert got.diff[0] > 0.0


def test_paired_difference_from_estimates_validates():
    with pytest.raises(ValueError):
        paired_difference_from_estimates(np.zeros((5, 1)), np.zeros((6, 1)))


# -------------------------------------------------------------- delta MC


def test_delta_cv_mc_constant_loss_is_zero():
    q, t = pair(0.8, 1.1, 0.8, 1.1)
    rep = delta_cv_mc(q, t, np.random.default_rng(109), 5000)
    assert np.all(rep.valid)
    np.testing.assert_allclose(rep.delta_cv, 0.0, atol=1e-9)


def test_delta_cv_mc_matches_analytic():
    q, t = pair(3.0, 3.0, 1.0, 1.0)
    n = 1_000_000
    rep = delta_cv_mc(q, t, np.random.default_rng(110), n)
    want = delta_cv_analytic(q, t)
    assert np.all(np.abs(rep.delta_cv - want) < 4.0 * rep.delta_se)
    # and the a-star identity: E[f] + delta lands on the analytic optimum
    a_star = optimal_a_analytic(q, t)
    se_f = math.sqrt(14.0 / n)  # Var(f) = 14 from quadrature
    slack = 4.0 * (rep.delta_se + se_f)
    assert np.all(np.abs(rep.a_vargrad_expectation + rep.delta_cv - a_star) < slack)


def test_delta_cv_mc_matches_enumeration_on_discrete_target():
    model = DiscreteToyModel.from_posterior(np.array([0.1, 0.3, 0.15, 0.45]))
    q = MeanFieldBernoulliParams(logits=np.array([0.4, -0.7]))
    states = support_states(2)
    probs = support_probs_ref(q, states)
    f = np.array(
        [float(log_density(q, s)) for s in states]
    ) - model.log_joint_table
    sc = states - q.probs
    e_f = probs @ f
    e_s2 = probs @ sc**2
    want = ((probs * f) @ sc**2 - e_f * e_s2) / e_s2
    rep = delta_cv_mc(q, model, np.random.default_rng(111), 400_000)
    assert np.all(np.abs(rep.delta_cv - want) < 4.0 * rep.delta_se)


def test_delta_cv_mc_ratio_shrinks_with_dimension():
    d = 30
    q, t = pair(3.0, 3.0, 1.0, 1.0, d=d)
    rep = delta_cv_mc(q, t, np.random.default_rng(112), 200_000)
    kl = kl_gaussian_closed_form(q, t)
    want_ratio = 2.0 / kl  # per mean coordinate: delta / (d KL / d) summed...
    # a_vargrad_expectation is the full KL of the product, so the per-
    # coordinate ratio is delta_i / (d * kl_1d)
    want = 2.0 / (30 * 2.450693855665945)
    mean_coords = np.arange(d)
    assert np.all(
        np.abs(rep.ratio[mean_coords] - want) < 4.0 * rep.ratio_se[mean_coords]
    )
    assert want < 0.03  # the correction is negligible at D = 30


def test_delta_cv_mc_flags_degenerate_scores():
    qb = MeanFieldBernoulliParams(logits=np.array([50.0]))
    model = DiscreteToyModel.from_posterior(np.array([0.5, 0.5]))
    rep = delta_cv_mc(qb, model, np.random.default_rng(113), 500)
    assert not rep.valid[0]
    assert np.isnan(rep.delta_cv[0])


def jackknife_se(values):
    n = len(values)
    values = np.asarray(values)
    return np.sqrt((n - 1) / n * np.sum((values - values.mean(axis=0)) ** 2, axis=0))


@pytest.mark.parametrize(
    "q, target",
    [
        pair(1.0, 0.5, 0.0, 1.0),
        (
            MeanFieldBernoulliParams(logits=np.array([0.2, -0.3])),
            DiscreteToyModel.from_posterior(np.array([0.1, 0.3, 0.15, 0.45])),
        ),
    ],
    ids=["gaussian", "bernoulli"],
)
def test_delta_cv_mc_jackknife_matches_brute_force(q, target):
    # the delete-one moments (n m - x_i) / (n - 1) against a recomputation
    # of Cov(f, s^2), Var(s) and E f on every np.delete subset
    n, seed = 7, 121
    rep = delta_cv_mc(q, target, np.random.default_rng(seed), n)
    z = draw(q, np.random.default_rng(seed), n)
    f = log_density(q, z) - log_joint(target, z)
    sc = score_ref(q, z)
    cov_t, delta_t, ratio_t = [], [], []
    for i in range(n):
        fi, si = np.delete(f, i), np.delete(sc, i, axis=0)
        assert np.all(si.var(axis=0) > 0)  # every subset has a delta
        cov = np.array([np.cov(fi, si[:, k] ** 2)[0, 1] for k in range(q.num_params)])
        delta = cov / si.var(axis=0, ddof=1)
        cov_t.append(cov)
        delta_t.append(delta)
        ratio_t.append(delta / fi.mean())
    assert np.all(rep.valid)
    np.testing.assert_allclose(rep.cov_se, jackknife_se(cov_t), rtol=1e-10)
    np.testing.assert_allclose(rep.delta_se, jackknife_se(delta_t), rtol=1e-10)
    np.testing.assert_allclose(rep.ratio_se, jackknife_se(ratio_t), rtol=1e-10)


def test_delta_cv_mc_needs_three_samples():
    # at n = 2 the delete-one covariance divides by zero
    q, t = pair(0.0, 1.0, 0.0, 1.0)
    for n in (1, 2):
        with pytest.raises(ValueError):
            delta_cv_mc(q, t, np.random.default_rng(0), n)


# ------------------------------------------------------------- ratio bound


def test_sup_ratio_matches_numeric_optimum():
    q, t = pair(0.7, 0.6, -0.2, 1.4)

    def neg_log_ratio(z):
        logq = -0.5 * ((z - 0.7) ** 2 / 0.6 + math.log(2 * math.pi * 0.6))
        logp = -0.5 * ((z + 0.2) ** 2 / 1.4 + math.log(2 * math.pi * 1.4))
        return -(logq - logp)

    res = minimize_scalar(neg_log_ratio, bounds=(-20, 20), method="bounded")
    want = math.exp(-res.fun)
    assert gaussian_sup_ratio(q, t) == pytest.approx(want, rel=1e-9)


def test_sup_ratio_factorises_over_coordinates():
    q1, t1 = pair(0.7, 0.6, -0.2, 1.4)
    q2, t2 = pair(0.7, 0.6, -0.2, 1.4, d=2)
    assert gaussian_sup_ratio(q2, t2) == pytest.approx(
        gaussian_sup_ratio(q1, t1) ** 2, rel=1e-12
    )


def test_sup_ratio_requires_lighter_tails():
    q, t = pair(0.0, 1.0, 0.0, 1.0)  # equal variances: sup is infinite
    with pytest.raises(ValueError):
        gaussian_sup_ratio(q, t)


def test_bound_formula_and_dimension_replication():
    q1, t1 = pair(0.0, 0.5, 1.0, 1.0)
    rep1 = delta_ratio_bound(q1, t1)
    kl = kl_gaussian_closed_form(q1, t1)
    want = 2.0 * np.sqrt(rep1.C * rep1.kurtosis) / math.sqrt(kl)
    np.testing.assert_allclose(rep1.bound_rhs, want, rtol=1e-12)
    assert not rep1.undefined

    # doubling the dimensions at fixed C doubles KL and shrinks the bound by
    # exactly 1/sqrt(2) coordinate-wise
    q2, t2 = pair(0.0, 0.5, 1.0, 1.0, d=2)
    rep2 = delta_ratio_bound(q2, t2, C=rep1.C)
    np.testing.assert_allclose(
        rep2.bound_rhs[0], rep1.bound_rhs[0] / math.sqrt(2.0), rtol=1e-9
    )


def test_bound_handles_degenerate_kl():
    q, t = pair(0.3, 0.9, 0.3, 0.9)
    rep = delta_ratio_bound(q, t, C=1.0)
    assert rep.undefined  # KL = log p(x) = 0: the ratio is 0/0
    assert np.all(np.isnan(rep.bound_rhs))

    t_ev = GaussianTarget(
        post_mean=np.array([0.3]),
        post_var=np.array([0.9]),
        log_evidence=5.0,
    )
    rep2 = delta_ratio_bound(q, t_ev, C=1.0)
    assert not rep2.undefined
    assert np.all(np.isinf(rep2.bound_rhs))


def test_bound_validates_c():
    q, t = pair(0.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        delta_ratio_bound(q, t, C=0.0)
    q_heavy, t_heavy = pair(0.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        delta_ratio_bound(q_heavy, t_heavy)  # default C needs light tails


def test_bound_dominates_measured_ratio():
    # light-tail settings: |delta / (KL - log p)| stays under the bound
    for mu, s2, mut, s2t in [
        (0.0, 0.5, 1.0, 1.0),
        (0.5, 0.7, 0.0, 2.0),
        (1.0, 0.4, 0.0, 1.0),
    ]:
        q, t = pair(mu, s2, mut, s2t)
        rep = delta_ratio_bound(q, t)
        delta = delta_cv_analytic(q, t)
        kl = kl_gaussian_closed_form(q, t)
        ratio = np.abs(delta / kl)
        assert np.all(ratio <= rep.bound_rhs), (mu, s2, mut, s2t)


def test_bound_uses_each_coordinates_own_score_kurtosis():
    # near-posterior light-tailed setting (KL = 2.4e-6, C = 1.0015) where the
    # log-std coordinate's exact |delta / E f| is 2561.97: the natural
    # statistic's z^2 kurtosis (3.237 here) would give a bound of 2335.30,
    # the log-std score's own kurtosis, 15, gives 5026.7
    q, t = pair(
        -3.5920849950235207, 0.2592230902013654, -3.5919185898964963, 0.2600152211479029
    )
    rep = delta_ratio_bound(q, t)
    ratio = np.abs(delta_cv_analytic(q, t) / expected_f_analytic(q, t))
    assert ratio[1] == pytest.approx(2561.97, rel=1e-5)
    assert np.all(ratio <= rep.bound_rhs)
    assert rep.bound_rhs[1] == pytest.approx(5026.7, rel=1e-4)
    np.testing.assert_array_equal(rep.kurtosis, [3.0, 15.0])


# -------------------------------------------------------- variance ordering
#
# The large-S condition delta / ELBO < 1/2 (exact for E f != 0) and the measured
# ordering at the same S are the condition_value, condition_met and diff
# columns of a variance-sweep row.


def sweep_row(tmp_path, mu, sigma2, mu_tilde, sigma2_tilde, S, R, seed):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(
        f"""
        experiment = variance-sweep
        seed = {seed}
        out = {tmp_path / 'sweep.csv'}
        sweep.grid_points = [[{mu}, {mu_tilde}, {sigma2}, {sigma2_tilde}, {S}]]
        sweep.replicates = {R}
        """,
        encoding="utf-8",
    )
    cfg = parse_config(cfg_path)
    _, _, rows = read_csv(RUNNERS[cfg.experiment](cfg))
    (row,) = rows
    return row


def test_ordering_outside_interval_prefers_leave_one_out(tmp_path):
    row = sweep_row(tmp_path, 2.0, 2.0, 0.0, 1.0, S=1000, R=4000, seed=114)
    assert row["condition_met"] == 1
    assert row["diff"] > 4.0 * row["diff_se"]  # reinforce strictly worse


def test_ordering_inside_interval_prefers_reinforce(tmp_path):
    row = sweep_row(tmp_path, 1.0, 0.5, 0.0, 1.0, S=1000, R=20_000, seed=115)
    assert row["condition_met"] == 0
    assert row["diff"] < -4.0 * row["diff_se"]


def test_ordering_trivial_at_posterior(tmp_path):
    row = sweep_row(tmp_path, 0.6, 1.2, 0.6, 1.2, S=16, R=100, seed=116)
    assert row["condition_met"] == 1
    assert row["condition_value"] == 0.0
    assert row["var_vargrad"] < 1e-15


# ------------------------------------------------- covariance and kurtosis MC


@pytest.mark.parametrize("convention", ["mean", "variance", "log_variance"])
def test_delta_cv_mc_covariance_matches_quadrature(convention):
    # delta_cv_mc's Cov(f, score^2) on the library coordinate of the
    # convention, times its squared chain factor, is that convention's covariance
    q, t = pair(1.0, 0.5, 0.0, 1.0)
    rep = delta_cv_mc(q, t, np.random.default_rng(119), 200_000)
    k, factor = convention_coordinate(q, 0, convention)
    got, se = factor * rep.cov[k], factor * rep.cov_se[k]
    want = cov_f_score2_ref(1.0, 0.0, 0.5, 1.0, convention)
    assert abs(got - want) < 4.0 * se
    assert cov_f_score2_analytic(q, t, 0, convention) == pytest.approx(want, rel=1e-9)


def test_delta_cv_mc_covariance_is_the_delta_numerator():
    q, t = pair(3.0, 3.0, 1.0, 1.0, d=2)
    rep = delta_cv_mc(q, t, np.random.default_rng(120), 1000)
    z = draw(q, np.random.default_rng(120), 1000)
    f = log_density(q, z) - log_joint(t, z)
    sc = score_ref(q, z)
    want = np.array([np.cov(f, sc[:, i] ** 2)[0, 1] for i in range(4)])
    np.testing.assert_allclose(rep.cov, want, rtol=1e-10)
    np.testing.assert_allclose(rep.delta_cv, rep.cov / sc.var(axis=0, ddof=1), rtol=1e-10)
    # the jackknife SE of a covariance is the delta-method SE up to O(1/n)
    prod = (f - f.mean())[:, None] * (sc**2 - (sc**2).mean(axis=0))
    delta_method_se = prod.std(axis=0, ddof=1) / math.sqrt(1000)
    np.testing.assert_allclose(rep.cov_se, delta_method_se, rtol=0.01)
