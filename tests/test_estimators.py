"""Single-batch gradient estimators and their exact algebraic identities."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vargrad_lab import estimators
from vargrad_lab.estimators import (
    build_batch,
    cv_estimator,
    reinforce,
    sampled_cv_coefficient,
    vargrad,
    vargrad_via_loss,
)
from vargrad_lab.families import (
    DiagGaussianParams,
    MeanFieldBernoulliParams,
    draw,
    log_density,
    score,
)
from vargrad_lab.targets import (
    DiscreteToyModel,
    GaussianTarget,
    exact_kl_and_gradient,
    log_joint,
)

from oracles import enumerate_batches


def gauss(mean, log_std):
    return DiagGaussianParams(
        mean=np.asarray(mean, dtype=float), log_std=np.asarray(log_std, dtype=float)
    )


def manual_batch(f_values, scores):
    return np.asarray(f_values, dtype=float), np.asarray(scores, dtype=float)


def random_batch(rng, S=None, P=None):
    S = S or int(rng.integers(2, 9))
    P = P or int(rng.integers(1, 5))
    return rng.normal(size=S), rng.normal(size=(S, P))


# -------------------------------------------------------------- batch plumbing


def test_build_batch_fields_and_reproducibility():
    q = gauss([0.0, 1.0], [0.0, 0.2])
    t = GaussianTarget(post_mean=np.array([1.0, 0.0]), post_var=np.array([1.0, 2.0]))
    f1, sc1 = build_batch(q, t, np.random.default_rng(8), 16)
    f2, sc2 = build_batch(q, t, np.random.default_rng(8), 16)
    assert f1.shape == (16,) and sc1.shape == (16, 4)
    np.testing.assert_array_equal(f1, f2)
    np.testing.assert_array_equal(sc1, sc2)


def test_build_batch_f_is_log_ratio():
    q = gauss([0.5], [0.1])
    t = GaussianTarget(post_mean=np.array([0.0]), post_var=np.array([1.0]), log_evidence=2.0)
    f, sc = build_batch(q, t, np.random.default_rng(9), 5)
    z = draw(q, np.random.default_rng(9), 5)  # the draws build_batch made
    want = np.array([float(log_density(q, zi)) - float(log_joint(t, zi)) for zi in z])
    np.testing.assert_allclose(f, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(sc, score(q, z))


def test_build_batch_rejects_empty():
    q = gauss([0.0], [0.0])
    t = GaussianTarget(post_mean=np.array([0.0]), post_var=np.array([1.0]))
    with pytest.raises(ValueError):
        build_batch(q, t, np.random.default_rng(0), 0)


def test_elbo_estimate_is_negated_mean():
    # the Monte Carlo ELBO of a batch is -mean(f)
    f, _ = manual_batch([1.0, 2.0, 4.0], np.zeros((3, 1)))
    assert -f.mean() == pytest.approx(-7.0 / 3.0, abs=1e-15)


def test_elbo_matched_posterior_is_zero():
    q = gauss([1.0], [0.0])
    t = GaussianTarget(post_mean=np.array([1.0]), post_var=np.array([1.0]))
    f, _ = build_batch(q, t, np.random.default_rng(10), 64)
    assert -f.mean() == pytest.approx(0.0, abs=1e-12)


def test_elbo_is_evidence_lower_bound_in_expectation():
    # KL = 2.45 here, so the mean estimate sits well below log p(x) = 0
    q = gauss([3.0], [0.5 * math.log(3.0)])
    t = GaussianTarget(post_mean=np.array([1.0]), post_var=np.array([1.0]))
    f, _ = build_batch(q, t, np.random.default_rng(12), 100_000)
    se = f.std(ddof=1) / math.sqrt(f.size)
    assert -f.mean() < 0.0
    assert abs(-f.mean() + 2.450693855665945) < 4.0 * se


# ------------------------------------------------------------ frozen examples


def test_hand_batch_values():
    b = manual_batch([1.0, 2.0, 4.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    np.testing.assert_allclose(reinforce(*b), [5.0 / 3.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(vargrad(*b), [1.0 / 6.0, 2.0 / 3.0], atol=1e-15)
    np.testing.assert_allclose(
        cv_estimator(*b, np.array([1.0, 1.0])), [1.0, 4.0 / 3.0], atol=1e-15
    )


def test_single_sample_reinforce_is_f_times_score():
    b = manual_batch([3.0], [[0.5, -2.0]])
    np.testing.assert_array_equal(reinforce(*b), [1.5, -6.0])


def test_two_sample_vargrad_hand_expansion():
    b = manual_batch([1.0, 3.0], [[2.0], [5.0]])
    # (f1 - f2) (s1 - s2) / 2 = (-2)(-3)/2 = 3
    assert vargrad(*b)[0] == pytest.approx(3.0, abs=1e-15)


@pytest.mark.parametrize("estimator", ["reinforce", "cv_estimator", "vargrad", "vargrad_via_loss"])
@pytest.mark.parametrize("S_f, S_scores", [(3, 4), (1, 4), (4, 1)])
def test_estimators_reject_mismatched_sample_counts(estimator, S_f, S_scores):
    f, scores = np.ones(S_f), np.ones((S_scores, 2))
    args = (f, scores, np.zeros(2)) if estimator == "cv_estimator" else (f, scores)
    with pytest.raises(ValueError):
        getattr(estimators, estimator)(*args)


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
        want = (S - 1) / S * vargrad(f, sc)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_vargrad_via_loss_identity_random_batches():
    rng = np.random.default_rng(53)
    for _ in range(200):
        b = random_batch(rng)
        np.testing.assert_allclose(vargrad_via_loss(*b), vargrad(*b), rtol=1e-12, atol=1e-12)


@given(
    f=st.lists(st.floats(-50, 50), min_size=2, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_vargrad_via_loss_identity_property(f, seed):
    scores = np.random.default_rng(seed).normal(size=(len(f), 3))
    b = manual_batch(f, scores)
    np.testing.assert_allclose(vargrad_via_loss(*b), vargrad(*b), rtol=1e-9, atol=1e-9)


def test_vargrad_translation_invariance():
    rng = np.random.default_rng(54)
    for c in (1.0, -17.5, 1e4):
        f, sc = random_batch(rng, S=8, P=3)
        np.testing.assert_allclose(vargrad(f + c, sc), vargrad(f, sc), rtol=1e-9, atol=1e-9)


def test_reinforce_translation_shifts_by_score_mean():
    rng = np.random.default_rng(55)
    f, sc = random_batch(rng, S=8, P=3)
    c = 2.5
    want = reinforce(f, sc) + c * sc.mean(axis=0)
    np.testing.assert_allclose(reinforce(f + c, sc), want, rtol=1e-12, atol=1e-12)


def test_constant_loss_gives_zero_vargrad_and_scaled_score_mean_reinforce():
    scores = np.random.default_rng(56).normal(size=(6, 2))
    f = np.full(6, 3.25)
    np.testing.assert_allclose(vargrad(f, scores), 0.0, atol=1e-12)
    np.testing.assert_allclose(reinforce(f, scores), 3.25 * scores.mean(axis=0), rtol=1e-12)


def test_matched_posterior_gradients_vanish():
    q = gauss([1.0, -0.5], [0.0, 0.3])
    t = GaussianTarget(post_mean=q.mean.copy(), post_var=q.var.copy())
    f, sc = build_batch(q, t, np.random.default_rng(57), 32)
    np.testing.assert_allclose(vargrad(f, sc), 0.0, atol=1e-10)


def test_vargrad_requires_two_samples():
    b = manual_batch([1.0], [[1.0]])
    with pytest.raises(ValueError):
        vargrad(*b)
    with pytest.raises(ValueError):
        vargrad_via_loss(*b)


def test_cv_estimator_validates_coefficient():
    b = manual_batch([1.0, 2.0], [[1.0], [0.0]])
    with pytest.raises(ValueError):
        cv_estimator(*b, np.zeros(3))
    with pytest.raises(ValueError):
        cv_estimator(*b, np.array([np.nan]))


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
        expectation += w * vargrad(f, score(q, z))
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
        sc = score(q, z)
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
