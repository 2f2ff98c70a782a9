"""The log-variance loss and the KL divergence.

The log-variance loss is half the empirical variance of
f = log q - log p(x, z) over the batch; it is invariant to the evidence
constant because constants have no variance. Its gradient with the
samples held fixed is the leave-one-out estimator (estimators.vargrad).
train-logreg writes it at every logged step, from the ELBO batch of
evidence_and_elbo.

KL has two routes: the closed form for diagonal Gaussians and
the identity KL = log p(x) - ELBO, whose two terms evidence_and_elbo
estimates by importance sampling (proposal q) and by plain Monte Carlo.
"""

from __future__ import annotations

import numpy as np

from . import families
from .families import DiagGaussianParams, Params
from .targets import GaussianTarget, Target, log_joint, logsumexp


def log_variance_loss(f: np.ndarray) -> float:
    """Half the unbiased empirical variance of the f values. Always >= 0 and
    unchanged by constant shifts of log p(x, z)."""
    if f.shape[0] < 2:
        raise ValueError("log-variance loss needs S >= 2")
    return 0.5 * float(np.var(f, ddof=1))


def require_same_dim(q_params: DiagGaussianParams, target: GaussianTarget) -> None:
    """Raise ValueError unless q and the Gaussian target have the same dimension."""
    if q_params.dim != target.dim:
        raise ValueError("q and target dimensions differ")


def kl_gaussian_closed_form(q_params: DiagGaussianParams, target: GaussianTarget) -> float:
    """KL(q || posterior) for diagonal Gaussians:
    sum_k [ (x_k - log(1 + x_k)) / 2 + (q_mean_k - post_mean_k)^2 / (2 post_var_k) ]
    with x_k = q_var_k / post_var_k - 1. Additive across coordinates; every
    term is >= 0, and the first is 0 exactly where x_k is, as in
    delta_cv_analytic.

    Near q = posterior, x - log(1 + x) cancels to x^2/2 - x^3/3 + ...
    For |x| <= 1/2, x is exact and log1p keeps the difference to ~1e-16 / |x|
    relative; below |x| = 1e-4 the series to x^5 is exact to double
    precision (a variance gap of 1e-8 gives 2.5e-17, not 0). Elsewhere
    log(1 + x) is 2 log_std - log post_var, finite even where x + 1
    underflows."""
    require_same_dim(q_params, target)
    x = q_params.var / target.post_var - 1.0
    log_r = 2.0 * q_params.log_std - np.log(target.post_var)
    near = np.abs(x) <= 0.5
    log_r[near] = np.log1p(x[near])
    var_terms = 0.5 * (x - log_r)
    tiny = np.abs(x) < 1e-4
    xt = x[tiny]
    var_terms[tiny] = xt * xt * (0.25 - xt * (1.0 / 6.0 - xt * (0.125 - xt / 10.0)))
    dmu2 = (q_params.mean - target.post_mean) ** 2
    return float(np.sum(var_terms + dmu2 / (2.0 * target.post_var)))


def kl_gaussian_gradient(q_params: DiagGaussianParams, target: GaussianTarget) -> np.ndarray:
    """Exact gradient of kl_gaussian_closed_form in the (mean, log_std)
    coordinates: d/d mean_k = (mean_k - post_mean_k)/post_var_k and
    d/d log_std_k = q_var_k/post_var_k - 1."""
    require_same_dim(q_params, target)
    d_mean = (q_params.mean - target.post_mean) / target.post_var
    d_log_std = q_params.var / target.post_var - 1.0
    return np.concatenate([d_mean, d_log_std])


def evidence_and_elbo(
    q_params: Params,
    model: Target,
    rng: np.random.Generator,
    n_is: int,
    n_elbo: int,
) -> tuple[float, float, float]:
    """Importance-sampled log p(x), a Monte Carlo ELBO and the log-variance
    loss, as a triple.

    The proposal is q itself, by choice: it needs no distribution beyond the
    one being fitted. It is a poor proposal late in training; on the
    train-logreg D = 50 config the estimate read 34-40 nats below an
    annealed importance sampling reference (ROADMAP.md), so the KL that
    train-logreg derives from it (kl_is) and its bound_denominator carry
    that bias.
    log p(x) is estimated as logsumexp of the log weights minus log n_is;
    the IS batch is drawn first, then the ELBO batch. The ELBO is minus the
    mean of that batch's f values and the log-variance loss is half their
    unbiased variance, so the loss costs no further draws.
    """
    if n_is < 2 or n_elbo < 2:
        raise ValueError("n_is and n_elbo must both be >= 2")
    z = families.draw(q_params, rng, n_is)
    log_w = log_joint(model, z) - families.log_density(q_params, z)
    if np.all(np.isneginf(log_w)):
        raise ValueError("all importance weights are zero; estimate undefined")
    log_evidence = float(logsumexp(log_w) - np.log(n_is))
    z = families.draw(q_params, rng, n_elbo)
    f = families.log_density(q_params, z) - log_joint(model, z)
    return log_evidence, -float(np.mean(f)), log_variance_loss(f)
