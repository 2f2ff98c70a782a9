"""Closed-form ground truth for diagonal-Gaussian settings.

Pen-and-paper algebra for q and the posterior both diagonal Gaussians, to
be compared against the Monte Carlo machinery, not to replace it: the exact
1-D variance difference between the plain score-function estimator and the
leave-one-out estimator, and the optimal control-variate coefficient
E f + delta. They read the exact KL gradient g of
losses.kl_gaussian_gradient, whose blocks are (mean - post_mean)/post_var
and sigma^2/sigma_tilde^2 - 1. By the analysis module's identities,
delta_mean_k = g_logstd_k and delta_logstd_k = 2 g_logstd_k for a Gaussian
target, so delta = 0 at q = posterior, the one stationary point.

Coordinate conventions. The library parameterises Gaussians by (mean,
log-std); the variance analysis states a coordinate as the mean, the
variance sigma^2 or log sigma^2. Their scores are rescaled library scores
(d/d sigma^2 = sigma^-2 d/d log sigma^2, and the log-std score is twice the
log-variance score), so a squared score is a library coordinate's squared
score times a squared chain factor: 1 for the mean, 1/4 for log sigma^2 and
1/(4 sigma^4) for sigma^2. convention_coordinate is that one mapping:
gaussian-oracles writes the closed-form Cov(f, score^2) as its factor times
delta_cv_analytic times score_variance_analytic (Cov = delta Var), and
rescales the Monte Carlo one the same way.

From E[u^2] = sigma^2, E[u^4] = 3 sigma^4 of u = z - mean:
Var(d log q / d mean) = 1/sigma^2 and Var(d log q / d log sigma^2) = 1/2
(hence 2 for the log-std coordinate), both Monte Carlo checked in tests.
"""

from __future__ import annotations

import math

import numpy as np

from .families import DiagGaussianParams
from .losses import kl_gaussian_closed_form, kl_gaussian_gradient
from .targets import GaussianTarget

MEAN_CONVENTION = "mean"
VARIANCE_CONVENTION = "variance"
LOG_VARIANCE_CONVENTION = "log_variance"
CONVENTIONS = (MEAN_CONVENTION, VARIANCE_CONVENTION, LOG_VARIANCE_CONVENTION)


def expected_f_analytic(q_params: DiagGaussianParams, target: GaussianTarget) -> float:
    """E_q f = E_q[log q - log p(x, z)] = KL(q || posterior) - log p(x), the
    negative ELBO and the expectation of the batch-mean coefficient."""
    return kl_gaussian_closed_form(q_params, target) - target.log_evidence


def delta_var_analytic(q_params: DiagGaussianParams, target: GaussianTarget, S: int) -> float:
    """Var(Reinforce_mu) - Var(VarGrad_mu) for a 1-D pair, q = N(mu, sigma2)
    against the posterior N(mu_tilde, sigma2_tilde), with S samples per
    estimate.

    For u = z - mu the integrand decomposes as f = c0 + c1 u + c2 u^2 with
    c1 = dmu / sigma2_tilde = g_mean and c2 = (1/sigma2_tilde - 1/sigma2)/2
    = g_logstd / (2 sigma2), from kl_gaussian_gradient g; the latter keeps
    the digits a difference of reciprocals loses next to sigma2 =
    sigma2_tilde. E[f] = KL - log p(x). Expanding both estimators' second
    moments over S iid draws gives

        E[f] (E[f] + 4 c2 sigma^2) / (S sigma^2)
            - 2 (c1^2 + c2^2 sigma^2) / (S (S - 1)).

    Positive values mean the leave-one-out estimator wins. It is exact for
    every S >= 2. The first term carries E[f]^2, so the plain estimator is
    sensitive to additive normalisation of f, including the log evidence
    and the KL's log sigma2_tilde/sigma2 constant. At mu=1, mu_tilde=2,
    sigma2 = sigma2_tilde = 1 and log p(x) = 0 it reduces to
    (1 - 8/(S-1)) / (4S), which crosses zero exactly at S = 9.
    """
    if q_params.dim != 1 or target.dim != 1:
        raise ValueError("delta_var_analytic needs a 1-D q and target")
    if S < 2:
        raise ValueError("S must be >= 2")
    s = float(S)
    g, s2 = kl_gaussian_gradient(q_params, target), float(q_params.var[0])
    c1, c2 = float(g[0]), 0.5 * float(g[1]) / s2
    ef = expected_f_analytic(q_params, target)
    out = ef * (ef + 4.0 * c2 * s2) / (s * s2) - 2.0 * (c1**2 + c2**2 * s2) / (s * (s - 1.0))
    # Python float products give inf silently where a power would raise
    if not math.isfinite(out):
        raise OverflowError(f"delta_var_analytic is {out} at S = {S}")
    return out


def delta_var_large_s(dmu: float, dsigma2: float) -> float:
    """Polynomial surrogate for the large-S variance-difference numerator:
    dmu^4 + 6 dmu^2 dsigma2 + 5 dsigma2^2. As a function of dsigma2 it is
    negative exactly on (-dmu^2, -dmu^2/5), marking a region where the
    plain estimator wins. It agrees with the sign of delta_var_analytic
    exactly when sigma2 == sigma2_tilde (where it reduces to dmu^4) and
    approximately near that diagonal; far from it the exact expression's
    log and KL^2 terms shift the region boundaries.
    """
    return dmu**4 + 6.0 * dmu**2 * dsigma2 + 5.0 * dsigma2**2


def convention_coordinate(
    q_params: DiagGaussianParams, k: int, convention: str
) -> tuple[int, float]:
    """Where the score of latent coordinate k in a convention sits among the
    library scores, and the squared chain factor that takes a squared
    library score to it: (k, 1) for the mean, and the log-std coordinate
    D + k with 1/4 for log sigma^2 (half the log-std score) or
    1/(4 sigma_k^4) for sigma^2 (sigma_k^-2 times that)."""
    if not 0 <= k < q_params.dim:
        raise ValueError(f"coordinate {k} out of range for D={q_params.dim}")
    if convention == MEAN_CONVENTION:
        return k, 1.0
    if convention == LOG_VARIANCE_CONVENTION:
        return q_params.dim + k, 0.25
    if convention == VARIANCE_CONVENTION:
        # a power, unlike a quotient, raises OverflowError instead of giving inf
        return q_params.dim + k, 0.25 * float(q_params.var[k]) ** -2.0
    raise ValueError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")


def score_variance_analytic(q_params: DiagGaussianParams) -> np.ndarray:
    """Var of each library score coordinate, length 2D: 1/sigma_k^2 for the
    means, 2 for the log-stds (twice the log-variance score, which has
    variance 1/2)."""
    return np.concatenate([1.0 / q_params.var, np.full(q_params.dim, 2.0)])


def delta_cv_analytic(q_params: DiagGaussianParams, target: GaussianTarget) -> np.ndarray:
    """Population correction term Cov(f, score_i^2)/Var(score_i) per library
    coordinate (mean block then log-std block), length 2D: g_logstd and
    2 g_logstd, g_logstd = sigma^2/sigma_tilde^2 - 1 from kl_gaussian_gradient.

    These are the analysis module's identities delta_mean_k = g_logstd_k and
    delta_logstd_k = 2 g_logstd_k + E[f He_4(w_k)]/2 with E[f He_4] = 0, as
    f is quadratic in z; both are 0 at q = posterior. The ratio is invariant
    under rescaling a coordinate, so the log-std entries coincide with the
    log-variance convention.
    """
    g_logstd = kl_gaussian_gradient(q_params, target)[q_params.dim :]
    return np.concatenate([g_logstd, 2.0 * g_logstd])


def optimal_a_analytic(q_params: DiagGaussianParams, target: GaussianTarget) -> np.ndarray:
    """Analytic optimal control-variate coefficient per library coordinate,
    length 2D (means, log-stds): a*_i = E f + delta_i, expected_f_analytic
    (the batch-mean coefficient's expectation) plus delta_cv_analytic."""
    return expected_f_analytic(q_params, target) + delta_cv_analytic(q_params, target)
