"""Divergence and loss estimators.

The log-variance loss is half the empirical variance of
f = log q - log p(x, z) over the batch; it is invariant to the evidence
constant because constants have no variance. The moment loss is half the
mean square of f measured against the normalised posterior, so it is
evidence-sensitive. The variance loss on density ratios equals the
chi-squared divergence when the reference equals q, and unlike the other
two it can fail to converge when q has tails lighter than a threshold, so
its estimator carries diagnostics.

KL has two routes: the closed form for diagonal Gaussians and
the identity KL = log p(x) - ELBO, whose two terms evidence_and_elbo
estimates by importance sampling (proposal q) and by plain Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .estimators import draw_f
from .families import DiagGaussianParams, Params
from .targets import DiscreteToyModel, GaussianTarget, Target


@dataclass(frozen=True)
class Chi2VarianceEstimate:
    """Chi-squared variance loss plus heavy-tail diagnostics.

    max_ratio is the running maximum of the posterior/q density ratio over
    the sample stream; a drifting maximum is the usual signature of an
    infinite second moment. second_moment_finite reports the analytic
    integrability condition when the target allows checking it.
    """

    value: float
    max_ratio: float
    second_moment_finite: bool


def log_variance_loss(f: np.ndarray) -> float:
    """Half the unbiased empirical variance of the f values. Always >= 0 and
    unchanged by constant shifts of log p(x, z)."""
    if f.shape[0] < 2:
        raise ValueError("log-variance loss needs S >= 2")
    return 0.5 * float(np.var(f, ddof=1))


def moment_loss(f: np.ndarray, log_evidence: float = 0.0) -> float:
    """Half the mean square of f measured against the normalised posterior.

    f + log p(x) equals log q - log p(z|x), so a target with declared
    evidence passes it here; the default 0 evaluates against log p(x, z)
    as-is. Unlike the log-variance loss this value moves when the evidence
    constant moves.
    """
    return 0.5 * float(np.mean((f + log_evidence) ** 2))


def chi2_variance_loss(
    params: Params,
    target: GaussianTarget | DiscreteToyModel,
    rng: np.random.Generator,
    S: int,
) -> Chi2VarianceEstimate:
    """Half the empirical variance of the ratio p(z|x)/q(z) under q.

    Needs a normalisable posterior, so only the Gaussian and discrete targets
    qualify. For diagonal Gaussians the population value is finite iff
    2/post_var - 1/q_var > 0 in every coordinate; the report carries that
    check plus the running maximum of the observed ratios.
    """
    if S < 2:
        raise ValueError("chi-squared variance loss needs S >= 2")
    if isinstance(target, GaussianTarget):
        log_ev = target.log_evidence
        finite = bool(np.all(2.0 / target.post_var - 1.0 / _q_var(params) > 0.0))
    elif isinstance(target, DiscreteToyModel):
        log_ev = target.log_evidence
        finite = True  # bounded support, every moment exists
    else:
        raise ValueError(
            f"{type(target).__name__} has no normalised posterior in closed form"
        )
    _, f = draw_f(params, target, rng, S)
    ratios = np.exp(-f - log_ev)
    value = 0.5 * float(np.var(ratios, ddof=1))
    return Chi2VarianceEstimate(
        value=value,
        max_ratio=float(np.max(ratios)),
        second_moment_finite=finite,
    )


def _q_var(params: Params) -> np.ndarray:
    if not isinstance(params, DiagGaussianParams):
        raise ValueError("the tail condition is defined for Gaussian q only")
    return params.var


def kl_gaussian_closed_form(q_params: DiagGaussianParams, target: GaussianTarget) -> float:
    """KL(q || posterior) for diagonal Gaussians:
    sum_k [ log(post_std_k / q_std_k) + (q_var_k + (q_mean_k - post_mean_k)^2)
    / (2 post_var_k) - 1/2 ]. Additive across coordinates."""
    if q_params.dim != target.dim:
        raise ValueError("q and target dimensions differ")
    dmu2 = (q_params.mean - target.post_mean) ** 2
    terms = (
        0.5 * np.log(target.post_var)
        - q_params.log_std
        + (q_params.var + dmu2) / (2.0 * target.post_var)
        - 0.5
    )
    return float(np.sum(terms))


def kl_gaussian_gradient(q_params: DiagGaussianParams, target: GaussianTarget) -> np.ndarray:
    """Exact gradient of kl_gaussian_closed_form in the (mean, log_std)
    coordinates: d/d mean_k = (mean_k - post_mean_k)/post_var_k and
    d/d log_std_k = q_var_k/post_var_k - 1."""
    if q_params.dim != target.dim:
        raise ValueError("q and target dimensions differ")
    d_mean = (q_params.mean - target.post_mean) / target.post_var
    d_log_std = q_params.var / target.post_var - 1.0
    return np.concatenate([d_mean, d_log_std])


def evidence_and_elbo(
    q_params: Params,
    model: Target,
    rng: np.random.Generator,
    n_is: int = 10000,
    n_elbo: int = 2000,
) -> tuple[float, float]:
    """Importance-sampled log p(x) and a Monte Carlo ELBO, as a pair.

    The proposal is q itself (the only distribution available in the loop).
    log p(x) is estimated as logsumexp of the log weights minus log n_is;
    the IS batch is drawn first, then the ELBO batch.
    """
    if n_is < 2 or n_elbo < 2:
        raise ValueError("n_is and n_elbo must both be >= 2")
    log_w = -draw_f(q_params, model, rng, n_is)[1]
    if np.all(np.isneginf(log_w)):
        raise ValueError("all importance weights are zero; estimate undefined")
    log_evidence = float(logsumexp(log_w) - np.log(n_is))
    elbo = -float(np.mean(draw_f(q_params, model, rng, n_elbo)[1]))
    return log_evidence, elbo
