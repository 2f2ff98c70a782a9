"""Divergence losses, closed-form KL, and importance-sampled diagnostics."""

import math

import numpy as np
import pytest

from vargrad_lab.estimators import build_batch
from vargrad_lab.families import DiagGaussianParams
from vargrad_lab.losses import (
    chi2_variance_loss,
    evidence_and_elbo,
    kl_gaussian_closed_form,
    kl_gaussian_gradient,
    log_variance_loss,
    moment_loss,
)
from vargrad_lab.targets import DiscreteToyModel, GaussianTarget, synth_logreg_dataset
from vargrad_lab.harness.rng import split_stream

from oracles import (
    chi2_half_variance_ref,
    fd_gradient,
    gaussian_pair_moments,
    kl_gaussian_ref,
)


def gauss(mean, log_std):
    return DiagGaussianParams(
        mean=np.asarray(mean, dtype=float), log_std=np.asarray(log_std, dtype=float)
    )


def c2_setting(d=1):
    q = gauss(np.full(d, 3.0), np.full(d, 0.5 * math.log(3.0)))
    t = GaussianTarget(post_mean=np.full(d, 1.0), post_var=np.full(d, 1.0))
    return q, t


def draw_f_values(q, t, seed, S):
    return build_batch(q, t, np.random.default_rng(seed), S)[0]


# ------------------------------------------------------------- log variance


def test_log_variance_loss_hand_value():
    # unbiased variance of (1, 2, 4) is 7/3
    assert log_variance_loss(np.array([1.0, 2.0, 4.0])) == pytest.approx(7.0 / 6.0, rel=1e-15)


def test_log_variance_loss_nonnegative_and_needs_two():
    assert log_variance_loss(np.array([-5.0, -5.0])) == 0.0
    with pytest.raises(ValueError):
        log_variance_loss(np.array([1.0]))


def test_log_variance_loss_zero_at_posterior():
    q, _ = c2_setting()
    t = GaussianTarget(post_mean=np.array([3.0]), post_var=np.array([3.0]))
    f = draw_f_values(q, t, 81, 256)
    assert log_variance_loss(f) == pytest.approx(0.0, abs=1e-12)


def test_log_variance_loss_ignores_evidence_constant():
    q, _ = c2_setting()
    t0 = GaussianTarget(post_mean=np.array([1.0]), post_var=np.array([1.0]))
    t1 = GaussianTarget(
        post_mean=np.array([1.0]), post_var=np.array([1.0]), log_evidence=7.3
    )
    assert log_variance_loss(draw_f_values(q, t0, 82, 64)) == pytest.approx(
        log_variance_loss(draw_f_values(q, t1, 82, 64)), rel=1e-10, abs=1e-10
    )


def test_log_variance_loss_population_value():
    # q = N(0,1) against posterior N(1,1): Var(f) = 1, so the loss targets 1/2
    q = gauss([0.0], [0.0])
    t = GaussianTarget(post_mean=np.array([1.0]), post_var=np.array([1.0]))
    assert gaussian_pair_moments(0.0, 1.0, 1.0, 1.0)["var_f"] == pytest.approx(
        1.0, abs=1e-10
    )
    f = draw_f_values(q, t, 83, 1_000_000)
    x = f - f.mean()
    var_hat = float(np.sum(x**2) / (f.size - 1))
    # CLT for the variance estimate: SE^2 = (m4 - m2^2) / n
    se_half_var = 0.5 * math.sqrt((np.mean(x**4) - var_hat**2) / f.size)
    assert abs(log_variance_loss(f) - 0.5) < 3.0 * se_half_var


# ------------------------------------------------------------------- moment


def test_moment_loss_hand_value_and_shift_identity():
    f = np.array([1.0, 2.0, 4.0])
    assert moment_loss(f) == pytest.approx(21.0 / 6.0, rel=1e-15)
    c = 1.0
    got = moment_loss(f, log_evidence=c) - moment_loss(f)
    assert got == pytest.approx(f.mean() * c + 0.5 * c**2, abs=1e-10)


def test_moment_loss_dominates_scaled_log_variance():
    rng = np.random.default_rng(84)
    for _ in range(100):
        f = rng.normal(size=rng.integers(2, 9)) * 3.0 + rng.normal()
        lhs = moment_loss(f, log_evidence=float(rng.normal()))
        rhs = (f.size - 1) / f.size * log_variance_loss(f)
        assert lhs >= rhs - 1e-12


def test_moment_loss_zero_at_normalised_posterior():
    q = gauss([2.0], [0.1])
    t = GaussianTarget(post_mean=np.array([2.0]), post_var=np.array([math.exp(0.2)]))
    assert moment_loss(draw_f_values(q, t, 85, 128)) == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------- chi^2 variance


def test_chi2_loss_zero_at_posterior():
    q = gauss([0.4], [0.0])
    t = GaussianTarget(post_mean=np.array([0.4]), post_var=np.array([1.0]))
    est = chi2_variance_loss(q, t, np.random.default_rng(86), 512)
    assert est.value == pytest.approx(0.0, abs=1e-12)
    assert est.second_moment_finite
    assert est.max_ratio == pytest.approx(1.0, rel=1e-10)


def test_chi2_loss_matches_population_value():
    # q = N(0,1), posterior N(0, 0.8): population loss 0.5 (sqrt(s_c)/s~ - 1)
    q = gauss([0.0], [0.0])
    t = GaussianTarget(post_mean=np.array([0.0]), post_var=np.array([0.8]))
    pop = chi2_half_variance_ref(0.0, 0.0, 1.0, 0.8)
    assert pop == pytest.approx(0.010310363079828688, abs=1e-15)

    reps = np.array(
        [
            chi2_variance_loss(q, t, split_stream(90, "chi2-rep", r), 5000).value
            for r in range(40)
        ]
    )
    se = reps.std(ddof=1) / math.sqrt(reps.size)
    assert abs(reps.mean() - pop) < 4.0 * se


def test_chi2_loss_flags_infinite_second_moment():
    # proposal much narrower than the posterior: 2/post_var - 1/q_var <= 0
    q = gauss([0.0], [0.0])
    t = GaussianTarget(post_mean=np.array([0.0]), post_var=np.array([2.0]))
    est = chi2_variance_loss(q, t, np.random.default_rng(87), 1000)
    assert not est.second_moment_finite
    assert np.isfinite(est.value)
    assert est.max_ratio > 1.0


def test_chi2_loss_discrete_target():
    model = DiscreteToyModel.from_posterior(np.array([0.1, 0.3, 0.15, 0.45]))
    from vargrad_lab.families import MeanFieldBernoulliParams

    q = MeanFieldBernoulliParams(logits=np.array([0.4, -0.7]))
    pop = 0.22530626475567184  # 0.5 (sum post^2 / q - 1), enumerated offline
    reps = np.array(
        [
            chi2_variance_loss(q, model, split_stream(91, "chi2-disc", r), 5000).value
            for r in range(40)
        ]
    )
    se = reps.std(ddof=1) / math.sqrt(reps.size)
    est = chi2_variance_loss(q, model, np.random.default_rng(88), 100)
    assert est.second_moment_finite
    assert abs(reps.mean() - pop) < 4.0 * se


def test_chi2_loss_rejects_logreg():
    model = synth_logreg_dataset(np.random.default_rng(89), N=10, D=2)
    q = gauss(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        chi2_variance_loss(q, model, np.random.default_rng(0), 100)


def test_chi2_loss_needs_two_samples():
    q = gauss([0.0], [0.0])
    t = GaussianTarget(post_mean=np.array([0.0]), post_var=np.array([1.0]))
    with pytest.raises(ValueError):
        chi2_variance_loss(q, t, np.random.default_rng(0), 1)


# ------------------------------------------------------------ closed-form KL


def test_kl_closed_form_values():
    q, t = c2_setting()
    assert kl_gaussian_closed_form(q, t) == pytest.approx(
        2.450693855665945, abs=1e-14
    )
    same = GaussianTarget(post_mean=np.array([3.0]), post_var=np.array([3.0]))
    assert kl_gaussian_closed_form(q, same) == pytest.approx(0.0, abs=1e-14)


def test_kl_closed_form_matches_quadrature():
    got = kl_gaussian_closed_form(
        gauss([0.7], [0.3]),
        GaussianTarget(post_mean=np.array([-0.4]), post_var=np.array([1.9])),
    )
    want = kl_gaussian_ref(0.7, -0.4, math.exp(0.6), 1.9)
    assert got == pytest.approx(want, rel=1e-9)


def test_kl_adds_over_dimensions():
    q1, t1 = c2_setting(1)
    q30, t30 = c2_setting(30)
    assert kl_gaussian_closed_form(q30, t30) == pytest.approx(
        30.0 * kl_gaussian_closed_form(q1, t1), rel=1e-12
    )


def test_kl_nonnegative_on_random_settings():
    rng = np.random.default_rng(92)
    for _ in range(50):
        q = gauss(rng.normal(size=2), rng.normal(scale=0.5, size=2))
        t = GaussianTarget(
            post_mean=rng.normal(size=2), post_var=rng.uniform(0.2, 3.0, size=2)
        )
        assert kl_gaussian_closed_form(q, t) >= -1e-12


def test_kl_gradient_matches_finite_differences():
    t = GaussianTarget(post_mean=np.array([1.0, -2.0]), post_var=np.array([1.5, 0.7]))
    q = gauss([0.3, 0.4], [0.2, -0.1])

    def kl_of(phi):
        return kl_gaussian_closed_form(DiagGaussianParams.from_vector(phi), t)

    want = fd_gradient(kl_of, q.to_vector(), h=1e-6)
    np.testing.assert_allclose(kl_gaussian_gradient(q, t), want, rtol=1e-6, atol=1e-9)


# ------------------------------------------------------- importance sampling


def test_evidence_and_elbo_exact_at_posterior():
    q = gauss([1.0], [0.0])
    t = GaussianTarget(
        post_mean=np.array([1.0]), post_var=np.array([1.0]), log_evidence=-4.2
    )
    log_ev, elbo = evidence_and_elbo(q, t, np.random.default_rng(93), n_is=100, n_elbo=100)
    assert log_ev == pytest.approx(-4.2, abs=1e-12)
    assert elbo == pytest.approx(-4.2, abs=1e-12)
    log_ev, elbo = evidence_and_elbo(q, t, np.random.default_rng(94), n_is=100, n_elbo=100)
    assert log_ev - elbo == pytest.approx(0.0, abs=1e-12)  # KL = log p(x) - ELBO


def test_kl_via_importance_sampling_matches_closed_form():
    q, t = c2_setting()
    # population SEs from quadrature: Var(w) = 1.9859, Var(f) = 14
    n = 100_000
    combined_se = math.sqrt(2.0 * chi2_half_variance_ref(3, 1, 3, 1) / n + 14.0 / n)
    log_ev, elbo = evidence_and_elbo(q, t, split_stream(95, "kl-is"), n_is=n, n_elbo=n)
    assert abs(log_ev - elbo - 2.450693855665945) < 3.0 * combined_se


def test_evidence_error_shrinks_with_more_samples():
    q, t = c2_setting()
    wins = 0
    for s in range(10):
        lo, _ = evidence_and_elbo(q, t, split_stream(s, "is-lo"), n_is=1000, n_elbo=2)
        hi, _ = evidence_and_elbo(q, t, split_stream(s, "is-hi"), n_is=100_000, n_elbo=2)
        wins += abs(hi) < abs(lo)
    assert wins >= 9


def test_evidence_and_elbo_validation():
    q, t = c2_setting()
    with pytest.raises(ValueError):
        evidence_and_elbo(q, t, np.random.default_rng(0), n_is=1, n_elbo=10)
    with pytest.raises(ValueError):
        evidence_and_elbo(q, t, np.random.default_rng(0), n_is=10, n_elbo=1)
