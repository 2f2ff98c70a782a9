"""Single-batch gradient estimators and their exact algebraic identities."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vargrad_lab import estimators
from vargrad_lab.analysis import exact_kl_and_gradient
from vargrad_lab.estimators import (
    CV_TAG,
    REINFORCE_TAG,
    VARGRAD_TAG,
    build_batch,
    combine,
    sampled_cv_coefficient,
    vargrad,
)
from vargrad_lab.families import (
    DiagGaussianParams,
    MeanFieldBernoulliParams,
    draw,
    log_density,
)
from vargrad_lab.targets import DiscreteToyModel, GaussianTarget, log_joint, synth_logreg_dataset

from oracles import batch_sums, enumerate_batches, score_ref, vargrad_via_loss


def gauss(mean, log_std):
    return DiagGaussianParams(
        mean=np.asarray(mean, dtype=float), log_std=np.asarray(log_std, dtype=float)
    )


def manual_batch(f_values, scores):
    return np.asarray(f_values, dtype=float), np.asarray(scores, dtype=float)


# The single-batch estimates of given f values and scores: combine of the
# reference sums over formed scores, with no leading axis.
def reinforce(f, scores):
    return combine(batch_sums(f, scores), REINFORCE_TAG)


def cv_estimator(f, scores, a):
    return combine(batch_sums(f, scores), CV_TAG, a)


def leave_one_out(f, scores):
    return combine(batch_sums(f, scores), VARGRAD_TAG)


SINGLE_BATCH = {
    "reinforce": reinforce,
    "cv_estimator": lambda f, scores: cv_estimator(f, scores, np.zeros(2)),
    "vargrad": leave_one_out,
    "vargrad_via_loss": vargrad_via_loss,
}


def random_batch(rng, S=None, P=None):
    S = S or int(rng.integers(2, 9))
    P = P or int(rng.integers(1, 5))
    return rng.normal(size=S), rng.normal(size=(S, P))


# -------------------------------------------------------------- batch plumbing


def test_build_batch_fields_and_reproducibility():
    q = gauss([0.0, 1.0], [0.0, 0.2])
    t = GaussianTarget(post_mean=np.array([1.0, 0.0]), post_var=np.array([1.0, 2.0]))
    f1, sc1 = build_batch(q, t, draw(q, np.random.default_rng(8), 16))
    f2, sc2 = build_batch(q, t, draw(q, np.random.default_rng(8), 16))
    assert f1.shape == (16,) and sc1.shape == (16, 4)
    np.testing.assert_array_equal(f1, f2)
    np.testing.assert_array_equal(sc1, sc2)


def test_build_batch_f_is_log_ratio():
    q = gauss([0.5], [0.1])
    t = GaussianTarget(post_mean=np.array([0.0]), post_var=np.array([1.0]), log_evidence=2.0)
    z = draw(q, np.random.default_rng(9), 5)
    f, sc = build_batch(q, t, z)
    want = np.array([float(log_density(q, zi)) - float(log_joint(t, zi)) for zi in z])
    np.testing.assert_allclose(f, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(sc, score_ref(q, z), rtol=1e-14, atol=1e-14)


def test_elbo_estimate_is_negated_mean():
    # the Monte Carlo ELBO of a batch is -mean(f)
    f, _ = manual_batch([1.0, 2.0, 4.0], np.zeros((3, 1)))
    assert -f.mean() == pytest.approx(-7.0 / 3.0, abs=1e-15)


def test_elbo_matched_posterior_is_zero():
    q = gauss([1.0], [0.0])
    t = GaussianTarget(post_mean=np.array([1.0]), post_var=np.array([1.0]))
    f, _ = build_batch(q, t, draw(q, np.random.default_rng(10), 64))
    assert -f.mean() == pytest.approx(0.0, abs=1e-12)


def test_elbo_is_evidence_lower_bound_in_expectation():
    # KL = 2.45 here, so the mean estimate sits well below log p(x) = 0
    q = gauss([3.0], [0.5 * math.log(3.0)])
    t = GaussianTarget(post_mean=np.array([1.0]), post_var=np.array([1.0]))
    f, _ = build_batch(q, t, draw(q, np.random.default_rng(12), 100_000))
    se = f.std(ddof=1) / math.sqrt(f.size)
    assert -f.mean() < 0.0
    assert abs(-f.mean() + 2.450693855665945) < 4.0 * se


# ------------------------------------------------------------ frozen examples


def test_hand_batch_values():
    b = manual_batch([1.0, 2.0, 4.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    np.testing.assert_allclose(reinforce(*b), [5.0 / 3.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(leave_one_out(*b), [1.0 / 6.0, 2.0 / 3.0], atol=1e-15)
    np.testing.assert_allclose(
        cv_estimator(*b, np.array([1.0, 1.0])), [1.0, 4.0 / 3.0], atol=1e-15
    )


def test_single_sample_reinforce_is_f_times_score():
    b = manual_batch([3.0], [[0.5, -2.0]])
    np.testing.assert_array_equal(reinforce(*b), [1.5, -6.0])


def test_two_sample_vargrad_hand_expansion():
    b = manual_batch([1.0, 3.0], [[2.0], [5.0]])
    # (f1 - f2) (s1 - s2) / 2 = (-2)(-3)/2 = 3
    assert leave_one_out(*b)[0] == pytest.approx(3.0, abs=1e-15)


@pytest.mark.parametrize("estimator", list(SINGLE_BATCH))
@pytest.mark.parametrize("S_f, S_scores", [(3, 4), (1, 4), (4, 1)])
def test_estimators_reject_mismatched_sample_counts(estimator, S_f, S_scores):
    with pytest.raises(ValueError):
        SINGLE_BATCH[estimator](np.ones(S_f), np.ones((S_scores, 2)))


@pytest.mark.parametrize("S", [2, 9, 1000])
def test_batch_sums_add_samples_left_to_right(S):
    # The CSV bytes depend on the order of the kernel's sums over s. Below
    # _PAIRWISE_MIN_S at D = 1, and at every S for D > 1, it adds a
    # sample-major (S, R, D) array slab by slab. Pin that to a plain
    # left-to-right accumulation, for slabs of one element (cumsum) and of
    # several (sum), so a numpy that reorders the additions fails here
    # instead of moving the CSVs.
    rng = np.random.default_rng(S)
    for shape in ((S, 1, 1), (S, 5, 2)):
        x = rng.normal(size=shape) * np.exp(rng.normal(scale=3.0, size=shape))
        forward = np.zeros(shape[1:])
        for s in range(S):
            forward = forward + x[s]
        np.testing.assert_array_equal(estimators._sum_left_to_right(x), forward)
        if S > 2:  # the data are order-sensitive, so the check has teeth
            backward = np.zeros(shape[1:])
            for s in reversed(range(S)):
                backward = backward + x[s]
            assert not np.array_equal(backward, forward)


def kernel_case(family, d, seed):
    """A (q, target) pair of family ("gaussian" or "bernoulli") at dimension d."""
    rng = np.random.default_rng(seed)
    if family == "gaussian":
        q = gauss(rng.normal(size=d), rng.normal(scale=0.5, size=d))
        return q, GaussianTarget(post_mean=rng.normal(size=d), post_var=np.exp(rng.normal(size=d)))
    q = MeanFieldBernoulliParams(logits=rng.normal(size=d))
    return q, DiscreteToyModel(log_joint_table=rng.normal(size=2**d))


@pytest.mark.parametrize("S", [1, 2, 1000])
@pytest.mark.parametrize(
    "family, d", [("gaussian", 1), ("gaussian", 3), ("gaussian", 51), ("bernoulli", 4)]
)
def test_batch_sums_from_draws_match_batch_sums_of_scores(family, d, S):
    # The kernel sums the score statistics and maps the sums to scores, so
    # it adds in another order than the reference sums over formed scores.
    # Its error is rounding, bounded relative to the sums of the terms'
    # magnitudes rather than to the sums themselves, which cancel: 1e-12 of
    # f and the score taken absolute, with 1 for the map's constant term.
    q, t = kernel_case(family, d, seed=10 * d + S)
    R = 6
    z = draw(q, np.random.default_rng(S), R * S)
    f = log_density(q, z) - log_joint(t, z)
    sc = score_ref(q, z)
    got = estimators.batch_sums_from_draws(q, t, z.reshape(R, S, -1))
    want = batch_sums(f.reshape(R, S), sc.reshape(R, S, -1))
    scale = batch_sums(np.abs(f).reshape(R, S), np.abs(sc).reshape(R, S, -1) + 1.0)
    assert got.S == S
    for g, w, m in zip(got[:3], want[:3], scale[:3]):
        assert g.shape == w.shape
        assert np.all(np.abs(g - w) <= 1e-12 * m)


@pytest.mark.parametrize(
    "family, d, S",
    [
        ("gaussian", 1, 2),
        ("gaussian", 1, 20),  # a lone axis of 20 would be summed pairwise
        ("gaussian", 1, estimators._PAIRWISE_MIN_S - 1),
        ("gaussian", 1, estimators._PAIRWISE_MIN_S),
        ("gaussian", 1, 1000),
        ("gaussian", 3, 20),
        ("bernoulli", 1, 20),
    ],
)
def test_batch_sums_from_draws_reduce_each_batch_on_its_own(family, d, S):
    # a replicate's sums must not depend on how many replicates share its
    # chunk, down to a chunk of one
    q, t = kernel_case(family, d, seed=S)
    R = 5
    z = draw(q, np.random.default_rng(S), R * S).reshape(R, S, -1)
    whole = estimators.batch_sums_from_draws(q, t, z)
    for r in range(R):
        alone = estimators.batch_sums_from_draws(q, t, z[r : r + 1])
        for w, a in zip(whole[:3], alone[:3]):
            np.testing.assert_array_equal(w[r], a[0])


@pytest.mark.parametrize("S", [2, 1000])
def test_batch_sums_from_draws_raise_on_an_overflowing_product(S):
    # u = z - mean = 1e150 and f ~ 1e160 are finite, u^2 / sigma^2 = 1 too,
    # but f u overflows; einsum would return inf here, the CLI's errstate
    # must turn it into an error
    q = gauss([0.0], [0.5 * math.log(1e300)])
    t = GaussianTarget(post_mean=[0.0], post_var=[5e139])
    z = np.full((1, S, 1), 1e150)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        estimators.batch_sums_from_draws(q, t, z)


def leave_one_out_case(family, d, seed):
    """A (q, target) pair: kernel_case's, or q against a synthetic logistic
    regression whose latent (w, b) has d = D + 1 coordinates."""
    if family != "logreg":
        return kernel_case(family, d, seed)
    rng = np.random.default_rng(seed)
    model = synth_logreg_dataset(rng, N=100, D=d - 1)
    return gauss(rng.normal(scale=0.3, size=d), rng.normal(scale=0.3, size=d)), model


@pytest.mark.parametrize("S", [2, 4, 200])
@pytest.mark.parametrize("family, d", [("gaussian", 1), ("logreg", 51), ("bernoulli", 4)])
def test_vargrad_of_draws_matches_the_score_array_routes(family, d, S):
    # train-logreg's step: one batch of draws through the replicate kernel.
    # It must give the leave-one-out estimate of the formed f and scores of
    # the same draws, both as combine of the reference sums and by the loss
    # gradient, to rounding: 1e-12 of the formula with every term absolute.
    q, t = leave_one_out_case(family, d, seed=100 * d + S)
    z = draw(q, np.random.default_rng(S), S)
    f, sc = build_batch(q, t, z)
    got = vargrad(q, t, z)
    m = batch_sums(np.abs(f), np.abs(sc) + 1.0)
    tol = 1e-12 * (m.f_dot_score + m.f_sum / S * m.score_sum) / (S - 1)
    assert got.shape == (q.num_params,)
    for want in (leave_one_out(f, sc), vargrad_via_loss(f, sc)):
        assert np.all(np.abs(got - want) <= tol)


def test_vargrad_of_one_draw_raises():
    q, t = kernel_case("gaussian", 2, seed=0)
    with pytest.raises(ValueError, match="S >= 2"):
        vargrad(q, t, draw(q, np.random.default_rng(0), 1))


def test_vargrad_raises_on_an_overflowing_product():
    # as in the kernel test: f ~ 1e160 times u = 1e150 overflows, and the
    # CLI's errstate turns that into an error rather than an inf step
    q = gauss([0.0], [0.5 * math.log(1e300)])
    t = GaussianTarget(post_mean=[0.0], post_var=[5e139])
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        vargrad(q, t, np.full((4, 1), 1e150))


# ------------------------------------------------------------------ identities


def test_cv_with_zero_coefficient_is_reinforce():
    rng = np.random.default_rng(51)
    for _ in range(50):
        f, sc = random_batch(rng)
        np.testing.assert_array_equal(cv_estimator(f, sc, np.zeros(sc.shape[1])), reinforce(f, sc))


def test_cv_at_mean_loss_recovers_scaled_vargrad():
    rng = np.random.default_rng(52)
    for _ in range(200):
        f, sc = random_batch(rng)
        S, P = sc.shape
        got = cv_estimator(f, sc, np.full(P, f.mean()))
        want = (S - 1) / S * leave_one_out(f, sc)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_vargrad_via_loss_identity_random_batches():
    rng = np.random.default_rng(53)
    for _ in range(200):
        b = random_batch(rng)
        np.testing.assert_allclose(vargrad_via_loss(*b), leave_one_out(*b), rtol=1e-12, atol=1e-12)


@given(
    f=st.lists(st.floats(-50, 50), min_size=2, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_vargrad_via_loss_identity_property(f, seed):
    scores = np.random.default_rng(seed).normal(size=(len(f), 3))
    b = manual_batch(f, scores)
    np.testing.assert_allclose(vargrad_via_loss(*b), leave_one_out(*b), rtol=1e-9, atol=1e-9)


def test_vargrad_translation_invariance():
    rng = np.random.default_rng(54)
    for c in (1.0, -17.5, 1e4):
        f, sc = random_batch(rng, S=8, P=3)
        np.testing.assert_allclose(
            leave_one_out(f + c, sc), leave_one_out(f, sc), rtol=1e-9, atol=1e-9
        )


def test_reinforce_translation_shifts_by_score_mean():
    rng = np.random.default_rng(55)
    f, sc = random_batch(rng, S=8, P=3)
    c = 2.5
    want = reinforce(f, sc) + c * sc.mean(axis=0)
    np.testing.assert_allclose(reinforce(f + c, sc), want, rtol=1e-12, atol=1e-12)


def test_constant_loss_gives_zero_vargrad_and_scaled_score_mean_reinforce():
    scores = np.random.default_rng(56).normal(size=(6, 2))
    f = np.full(6, 3.25)
    np.testing.assert_allclose(leave_one_out(f, scores), 0.0, atol=1e-12)
    np.testing.assert_allclose(reinforce(f, scores), 3.25 * scores.mean(axis=0), rtol=1e-12)


def test_matched_posterior_gradients_vanish():
    q = gauss([1.0, -0.5], [0.0, 0.3])
    t = GaussianTarget(post_mean=q.mean.copy(), post_var=q.var.copy())
    z = draw(q, np.random.default_rng(57), 32)
    np.testing.assert_allclose(vargrad(q, t, z), 0.0, atol=1e-10)


def test_vargrad_requires_two_samples():
    b = manual_batch([1.0], [[1.0]])
    with pytest.raises(ValueError):
        leave_one_out(*b)
    with pytest.raises(ValueError):
        vargrad_via_loss(*b)


# ----------------------------------------------------------- exact expectation


def test_vargrad_expectation_equals_exact_gradient_by_enumeration():
    # S = 2, D = 1: average the estimator over all ordered sample pairs
    model = DiscreteToyModel.from_posterior(np.array([0.2, 0.8]))
    q = MeanFieldBernoulliParams(logits=np.array([0.0]))
    states = [np.array([0.0]), np.array([1.0])]
    probs = q.probs[0]
    weights = np.array([1.0 - probs, probs])

    expectation = np.zeros(1)
    for idx, w in enumerate_batches(weights, 2):
        z = np.stack([states[i] for i in idx])
        f = np.array(
            [float(log_density(q, zi)) - float(log_joint(model, zi)) for zi in z]
        )
        expectation += w * leave_one_out(f, score_ref(q, z))
    _, exact = exact_kl_and_gradient(model, q)
    np.testing.assert_allclose(expectation, exact, rtol=1e-9, atol=1e-12)


def test_reinforce_and_cv_expectations_match_by_enumeration():
    model = DiscreteToyModel.from_posterior(np.array([0.1, 0.3, 0.15, 0.45]))
    q = MeanFieldBernoulliParams(logits=np.array([0.4, -0.7]))
    weights = np.prod(
        q.probs * np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
        + (1 - q.probs) * np.array([[1, 1], [0, 1], [1, 0], [0, 0]], dtype=float),
        axis=1,
    )
    states = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)

    e_reinforce = np.zeros(2)
    e_cv = np.zeros(2)
    a = np.array([0.8, -1.2])
    for idx, w in enumerate_batches(weights, 3):
        z = states[list(idx)]
        f = np.array(
            [float(log_density(q, zi)) - float(log_joint(model, zi)) for zi in z]
        )
        sc = score_ref(q, z)
        e_reinforce += w * reinforce(f, sc)
        e_cv += w * cv_estimator(f, sc, a)
    _, exact = exact_kl_and_gradient(model, q)
    # the fixed control variate leaves the expectation untouched
    np.testing.assert_allclose(e_reinforce, exact, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(e_cv, exact, rtol=1e-9, atol=1e-12)


# --------------------------------------------------- sampled CV coefficient


def test_sampled_cv_coefficient_constant_loss():
    q = gauss([0.7], [0.2])
    t = GaussianTarget(
        post_mean=np.array([0.7]),
        post_var=np.array([math.exp(0.4)]),
        log_evidence=-3.0,
    )
    got = sampled_cv_coefficient(q, t, np.random.default_rng(61), 500)
    np.testing.assert_allclose(got, 3.0, rtol=1e-6)


def test_sampled_cv_coefficient_tracks_optimal_value():
    from vargrad_lab.gaussian_oracles import optimal_a_analytic

    q = gauss([3.0], [0.5 * math.log(3.0)])
    t = GaussianTarget(post_mean=np.array([1.0]), post_var=np.array([1.0]))
    want = optimal_a_analytic(q, t)

    R = 800
    rng = np.random.default_rng(62)
    draws = np.stack([sampled_cv_coefficient(q, t, rng, 1000) for _ in range(R)])
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(R)
    # a single 1000-sample draw scatters around the target with sizable
    # spread; the replicate mean pins it down to the 5% level
    assert np.all(np.abs(mean - want) <= 0.05 * np.abs(want) + 4.0 * se)


def test_sampled_cv_coefficient_degenerate_scores_are_nan():
    b = MeanFieldBernoulliParams(logits=np.array([50.0]))
    model = DiscreteToyModel.from_posterior(np.array([0.5, 0.5]))
    got = sampled_cv_coefficient(b, model, np.random.default_rng(63), 100)
    assert np.isnan(got[0])


def test_sampled_cv_coefficient_needs_two_samples():
    q = gauss([0.0], [0.0])
    t = GaussianTarget(post_mean=np.array([0.0]), post_var=np.array([1.0]))
    with pytest.raises(ValueError):
        sampled_cv_coefficient(q, t, np.random.default_rng(0), 1)
