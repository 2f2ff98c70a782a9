"""Closed-form scalar-Gaussian results checked against quadrature references.

The reference route never touches the closed forms: single-draw moments come
from adaptive quadrature and the multi-sample variances from a direct
expansion over i.i.d. draws, so the two sides are independent derivations.
"""

import math

import numpy as np
import pytest

from vargrad_lab.families import DiagGaussianParams
from vargrad_lab.gaussian_oracles import (
    CONVENTIONS,
    convention_coordinate,
    cov_f_score2_analytic,
    delta_cv_analytic,
    delta_var_analytic,
    delta_var_large_s,
    optimal_a_analytic,
    score_variance_analytic,
)
from vargrad_lab.losses import kl_gaussian_closed_form
from vargrad_lab.targets import GaussianTarget

from oracles import (
    cov_f_score2_ref,
    delta_var_ref,
    gauss_expect,
    gaussian_log_ratio,
    gaussian_pair_moments,
    reinforce_variance_ref,
    vargrad_variance_ref,
)


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


# ------------------------------------------------------------ variance gap


def test_delta_var_frozen_values():
    assert delta_var_analytic(*pair(1, 1, 2, 1), 2) == pytest.approx(
        -0.875, abs=1e-15
    )
    assert delta_var_analytic(*pair(1, 1, 2, 1), 4) == pytest.approx(
        -5.0 / 48.0, rel=1e-14
    )
    assert delta_var_analytic(*pair(1, 1, 2, 1), 9) == pytest.approx(
        0.0, abs=1e-15
    )
    assert delta_var_analytic(*pair(1, 1, 2, 1), 100) == pytest.approx(
        91.0 / 39600.0, rel=1e-14
    )
    assert delta_var_analytic(*pair(3, 3, 1, 1), 4) == pytest.approx(
        0.5951674275163273, rel=1e-13
    )


@pytest.mark.parametrize("S", [2, 3, 4, 9, 25, 1000])
def test_delta_var_zero_when_distributions_match(S):
    assert delta_var_analytic(*pair(0.7, 1.3, 0.7, 1.3), S) == 0.0


@pytest.mark.parametrize(
    "mu, mu_tilde, sigma2, sigma2_tilde, S",
    [
        (1.0, 2.0, 1.0, 1.0, 2),
        (1.0, 2.0, 1.0, 1.0, 9),
        (1.0, 2.0, 1.0, 1.0, 100),
        (3.0, 1.0, 3.0, 1.0, 4),
        (0.0, 0.0, 2.0, 1.0, 5),
        (0.0, 0.0, 1.0, 2.0, 10),
        (1.0, 0.0, 0.5, 1.0, 10),
        (2.0, 1.0, 1.0, 1.0, 20),
        (0.5, 0.0, 1.0, 1.5, 50),
        (1.0, 1.0, 1.5, 0.5, 4),
    ],
)
def test_delta_var_matches_quadrature_reference(mu, mu_tilde, sigma2, sigma2_tilde, S):
    got = delta_var_analytic(*pair(mu, sigma2, mu_tilde, sigma2_tilde), S)
    want = delta_var_ref(mu, mu_tilde, sigma2, sigma2_tilde, S)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_delta_var_large_s_scaling_limit():
    # 4 S Delta -> (Delta mu^4 + ...) / (sigma^4 sigma~^2)-style constant; at
    # (1, 2, 1, 1) the normalised product 4 S Delta tends to 1
    val = delta_var_analytic(*pair(1, 1, 2, 1), 10_000_000)
    assert 4.0 * 10_000_000 * val == pytest.approx(1.0, abs=1e-5)


def test_delta_var_validates_inputs():
    q, t = pair(0, 1.0, 0, 1.0)
    with pytest.raises(ValueError):
        delta_var_analytic(q, t, 1)
    with pytest.raises(ValueError):
        delta_var_analytic(*pair(0, 1.0, 0, 1.0, d=2), 4)  # the closed form is 1-D
    with pytest.raises(ValueError):
        delta_var_analytic(q, pair(0, 1.0, 0, 1.0, d=2)[1], 4)


def test_delta_var_with_evidence_matches_quadrature_reference():
    # f = log q - log p(x, z) carries -log p(x): only the plain estimator's
    # variance sees it, so the reference shifts f in the Reinforce moment alone
    mu, sigma2, mu_tilde, sigma2_tilde, S, log_ev = 3.0, 3.0, 1.0, 1.0, 4, 1.5
    q, t = pair(mu, sigma2, mu_tilde, sigma2_tilde)
    t = GaussianTarget(post_mean=t.post_mean, post_var=t.post_var, log_evidence=log_ev)
    f = gaussian_log_ratio(mu, mu_tilde, sigma2, sigma2_tilde)
    mom = gaussian_pair_moments(mu, mu_tilde, sigma2, sigma2_tilde)
    mom["raw_f2s2"] = gauss_expect(
        lambda z: (f(z) - log_ev) ** 2 * ((z - mu) / sigma2) ** 2, mu, sigma2
    )
    want = reinforce_variance_ref(mom, S) - vargrad_variance_ref(mom, S)
    assert delta_var_analytic(q, t, S) == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------- large-S sign surrogate


def test_large_s_polynomial_frozen_values():
    assert delta_var_large_s(1.0, -0.5) == pytest.approx(-0.75, abs=1e-15)
    assert delta_var_large_s(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert delta_var_large_s(0.0, 1.0) == pytest.approx(5.0, abs=1e-15)
    # in units of dmu^2 the quartic vanishes at dsigma2 = -dmu^2 and -dmu^2/5
    for dmu in (1.0, 1.7):
        assert delta_var_large_s(dmu, -dmu**2) == pytest.approx(0.0, abs=1e-12)
        assert delta_var_large_s(dmu, -dmu**2 / 5.0) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "dmu, dsigma2",
    [
        (1.0, -0.95),
        (1.0, -0.5),
        (1.0, -0.3),
        (1.0, -0.12),
        (1.0, 0.0),
        (1.0, 1.0),
        (2.0, -0.5),
        (2.0, 0.0),
        (2.0, 2.0),
        (0.0, 1.0),
        (0.5, 0.0),
    ],
)
def test_large_s_polynomial_sign_matches_exact_gap_near_diagonal(dmu, dsigma2):
    # the quartic is a sign surrogate for the exact gap at large S when the
    # variances stay close; each grid point was checked against the exact
    # form, and the polynomial magnitude is kept away from its root set
    poly = delta_var_large_s(dmu, dsigma2)
    assert abs(poly) > 0.05
    exact = delta_var_analytic(
        *pair(dmu, 1.0 + dsigma2, 0.0, 1.0), 10_000
    )
    assert math.copysign(1.0, poly) == math.copysign(1.0, exact)


# ------------------------------------------------------ covariance with s^2


def test_cov_f_score2_frozen_and_zero_cases():
    q, t = pair(3.0, 3.0, 1.0, 1.0)
    assert cov_f_score2_analytic(q, t, 0, "mean") == pytest.approx(2.0 / 3.0, rel=1e-14)
    matched_q, matched_t = pair(0.3, 1.7, 0.9, 1.7)
    for conv in CONVENTIONS:
        assert cov_f_score2_analytic(matched_q, matched_t, 0, conv) == pytest.approx(
            0.0, abs=1e-14
        )


@pytest.mark.parametrize("conv", list(CONVENTIONS))
@pytest.mark.parametrize(
    "mu, sigma2, mu_tilde, sigma2_tilde",
    [(3.0, 3.0, 1.0, 1.0), (0.5, 0.8, -0.2, 1.6)],
)
def test_cov_f_score2_matches_quadrature(conv, mu, sigma2, mu_tilde, sigma2_tilde):
    q, t = pair(mu, sigma2, mu_tilde, sigma2_tilde)
    got = cov_f_score2_analytic(q, t, 0, conv)
    want = cov_f_score2_ref(mu, mu_tilde, sigma2, sigma2_tilde, conv)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_cov_f_score2_chain_rule_between_conventions():
    # the variance score is sigma^-2 times the log-variance score, so the
    # squared-score covariance picks up sigma^-4
    for mu, sigma2 in [(1.0, 0.5), (2.0, 3.0), (-0.3, 1.7)]:
        q, t = pair(mu, sigma2, 0.0, 1.0)
        log_var = cov_f_score2_analytic(q, t, 0, "log_variance")
        var = cov_f_score2_analytic(q, t, 0, "variance")
        assert var == pytest.approx(log_var / sigma2**2, rel=1e-13)


def test_convention_coordinate_places_each_convention():
    q, _ = pair(0.3, 1.7, 0.0, 1.0, d=2)
    var = float(q.var[1])
    assert convention_coordinate(q, 1, "mean") == (1, 1.0)
    assert convention_coordinate(q, 1, "log_variance") == (3, 0.25)
    index, factor = convention_coordinate(q, 1, "variance")
    assert index == 3 and factor == pytest.approx(0.25 / var**2, rel=1e-15)


def test_cov_f_score2_validates_inputs():
    q, t = pair(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        cov_f_score2_analytic(q, t, 0, "nonsense")
    with pytest.raises(ValueError):
        cov_f_score2_analytic(q, t, 5, "mean")


# ------------------------------------------------------------ score variance


def test_score_variance_analytic_values_and_quadrature():
    q = gauss([1.0, -2.0], [0.5 * math.log(3.0), 0.0])
    got = score_variance_analytic(q)
    np.testing.assert_allclose(got, [1.0 / 3.0, 1.0, 2.0, 2.0], rtol=1e-14)
    # quadrature on the first coordinate pair
    mean_var = gauss_expect(lambda z: ((z - 1.0) / 3.0) ** 2, 1.0, 3.0)
    log_std_var = gauss_expect(lambda z: ((z - 1.0) ** 2 / 3.0 - 1.0) ** 2, 1.0, 3.0)
    assert got[0] == pytest.approx(mean_var, rel=1e-9)
    assert got[2] == pytest.approx(log_std_var, rel=1e-9)


def test_score_variance_matches_simulation():
    from vargrad_lab.families import draw, score

    q = gauss([0.5], [0.3])
    z = draw(q, np.random.default_rng(96), 200_000)
    s = score(q, z)
    want = score_variance_analytic(q)
    got = s.var(axis=0, ddof=1)
    se = np.sqrt(2.0 / (z.shape[0] - 1)) * want  # normal-theory variance SE scale
    assert np.all(np.abs(got - want) < 6.0 * se)


# --------------------------------------------------------- delta and a-star


def test_delta_cv_anchor_values():
    q, t = pair(3.0, 3.0, 1.0, 1.0)
    np.testing.assert_allclose(delta_cv_analytic(q, t), [2.0, 4.0], rtol=1e-14)
    matched = pair(1.0, 2.0, 1.0, 2.0)
    np.testing.assert_allclose(delta_cv_analytic(*matched), 0.0, atol=1e-14)


def test_delta_cv_is_convention_invariant():
    # delta_i = Cov(f, s_i^2) / Var(s_i) is unchanged by rescaling the score,
    # so the variance and log-variance routes give the same number
    for mu, sigma2, mut, s2t in [(1.0, 0.5, 0.0, 1.0), (2.0, 3.0, 1.0, 0.7)]:
        q, t = pair(mu, sigma2, mut, s2t)
        base = sigma2 / s2t - 1.0
        ratio_log_var = cov_f_score2_analytic(q, t, 0, "log_variance") / 0.5
        ratio_var = cov_f_score2_analytic(q, t, 0, "variance") / (
            0.5 / sigma2**2
        )
        assert ratio_log_var == pytest.approx(base * 2.0, rel=1e-12)
        assert ratio_var == pytest.approx(ratio_log_var, rel=1e-12)
        assert delta_cv_analytic(q, t)[1] == pytest.approx(ratio_log_var, rel=1e-12)


def test_delta_cv_scale_invariance_in_dimension():
    q, t = pair(3.0, 3.0, 1.0, 1.0, d=7)
    got = delta_cv_analytic(q, t)
    np.testing.assert_allclose(got[:7], 2.0, rtol=1e-14)
    np.testing.assert_allclose(got[7:], 4.0, rtol=1e-14)


def test_optimal_a_anchor_values():
    q, t = pair(3.0, 3.0, 1.0, 1.0)
    kl = kl_gaussian_closed_form(q, t)
    got = optimal_a_analytic(q, t)
    np.testing.assert_allclose(got, [kl + 2.0, kl + 4.0], rtol=1e-13)
    np.testing.assert_allclose(
        got,
        [4.4506938556659446, 6.4506938556659446],
        rtol=1e-12,
    )


def test_optimal_a_zero_at_matched_posterior():
    q, t = pair(1.3, 0.6, 1.3, 0.6)
    np.testing.assert_allclose(optimal_a_analytic(q, t), 0.0, atol=1e-13)


def test_optimal_a_shifts_with_evidence():
    q, t0 = pair(3.0, 3.0, 1.0, 1.0)
    t1 = GaussianTarget(
        post_mean=t0.post_mean, post_var=t0.post_var, log_evidence=2.5
    )
    np.testing.assert_allclose(
        optimal_a_analytic(q, t1), optimal_a_analytic(q, t0) - 2.5, rtol=1e-13
    )
