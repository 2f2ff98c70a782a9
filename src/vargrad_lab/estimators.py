"""Score-function gradient estimators.

Every estimator here is a function of two arrays: the S values
f_s = log q(z_s) - log p(x, z_s), shape (S,), and the analytic scores
d log q(z_s) / d phi, shape (S, P). build_batch draws both. Everything here
targets the gradient of KL(q || p(.|x)), equivalently the negative-ELBO
gradient, since the evidence does not depend on the variational parameters.

The leave-one-out estimator centres f by its batch mean before weighting the
scores and rescales by S/(S-1); it is exactly the gradient of half the
unbiased empirical variance of the f values with the samples held fixed,
which vargrad_via_loss evaluates through that second route as a consistency
check. It is Reinforce with the batch mean of f as its control-variate
coefficient, the baseline of Kool, van Hoof and Welling (2019).

The estimator math has one home, the helpers below. draw_f draws z and f;
batch_sums reduces f and the scores to the three sums every estimator is a
function of; combine applies the Reinforce, CV or leave-one-out formula to
those sums; cv_coefficient is the sampled optimal CV coefficient. They work
over any leading axes: analysis.replicate_estimates passes (R, S) blocks,
and a single batch is the case with no leading axis.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import families
from .families import Params
from .targets import Target, log_joint

REINFORCE_TAG = "reinforce"
CV_TAG = "cv"
VARGRAD_TAG = "vargrad"


def draw_f(
    params: Params, target: Target, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n latent draws z, shape (n, D), and f = log q(z) - log p(x, z), shape (n,)."""
    z = families.draw(params, rng, n)
    f = np.asarray(families.log_density(params, z) - log_joint(target, z), dtype=float)
    return z, f


class BatchSums(NamedTuple):
    """The sums over the sample axis that every estimator is a function of:
    sum_s f_s score_s (..., P), sum_s f_s (..., 1) and sum_s score_s (..., P).
    Means are these sums divided by S."""

    f_dot_score: np.ndarray
    f_sum: np.ndarray
    score_sum: np.ndarray
    S: int


def batch_sums(f: np.ndarray, scores: np.ndarray) -> BatchSums:
    """Reduce f (..., S) and scores (..., S, P) over the sample axis."""
    if f.shape[-1] != scores.shape[-2]:  # einsum would broadcast an S of 1
        raise ValueError(f"f and scores disagree on S: {f.shape} vs {scores.shape}")
    return BatchSums(
        f_dot_score=np.einsum("...s,...sp->...p", f, scores),
        f_sum=f.sum(axis=-1, keepdims=True),
        score_sum=scores.sum(axis=-2),
        S=f.shape[-1],
    )


def combine(sums: BatchSums, tag: str, a=None) -> np.ndarray:
    """The estimate named by tag from batch sums, shape (..., P).

    reinforce: (1/S) sum_s f_s score_s. cv: that minus a (*) mean(score),
    with a of shape (P,) or (..., P). vargrad (leave-one-out):
    (1/(S-1)) [sum_s f_s score_s - f_bar sum_s score_s].
    """
    S = sums.S
    if tag == REINFORCE_TAG:
        return sums.f_dot_score / S
    if tag == CV_TAG:
        return sums.f_dot_score / S - a * (sums.score_sum / S)
    if tag == VARGRAD_TAG:
        return (sums.f_dot_score - sums.f_sum / S * sums.score_sum) / (S - 1)
    raise ValueError(f"unknown estimator tag {tag!r}")


def cv_coefficient(f: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Per-coordinate optimal control-variate coefficient from f (..., S) and
    scores (..., S, P): the sample covariance Cov(f * score_i, score_i) over
    the sample axis -2 divided by the sample variance Var(score_i), shape
    (..., P). The 1/(S - 1) factors cancel in the ratio. Coordinates whose
    score sample variance is exactly zero are NaN (missing), never zero.
    """
    fs = f[..., None] * scores
    sc_c = scores - scores.mean(axis=-2, keepdims=True)
    num = np.sum((fs - fs.mean(axis=-2, keepdims=True)) * sc_c, axis=-2)
    den = np.sum(sc_c**2, axis=-2)
    ok = den > 0.0
    return np.where(ok, num / np.where(ok, den, 1.0), np.nan)


def build_batch(
    params: Params, target: Target, rng: np.random.Generator, S: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw S latents and return f, shape (S,), and the scores, shape (S, P).

    Draws are detached by construction: scores come from the closed-form
    score function, so no parameter dependence flows through the samples.
    """
    if S < 1:
        raise ValueError(f"S must be >= 1, got {S}")
    z, f = draw_f(params, target, rng, S)
    return f, families.score(params, z)


def _check_loo(f: np.ndarray) -> None:
    if f.shape[-1] < 2:
        raise ValueError("the leave-one-out estimator needs S >= 2 (empirical variance)")


def reinforce(f: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Plain score-function estimator: (1/S) sum_s f_s * score_s."""
    return combine(batch_sums(f, scores), REINFORCE_TAG)


def cv_estimator(f: np.ndarray, scores: np.ndarray, a) -> np.ndarray:
    """Reinforce minus a constant-coefficient score control variate.

    The correction a (*) mean(score) is elementwise per coordinate and has
    zero expectation, so any finite constant a leaves the mean unchanged.
    """
    a = np.asarray(a, dtype=float)
    p = scores.shape[-1]
    if a.shape != (p,):
        raise ValueError(f"a must have shape ({p},), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("control-variate coefficients must be finite")
    return combine(batch_sums(f, scores), CV_TAG, a)


def vargrad(f: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Leave-one-out estimator: (1/(S-1)) [sum_s f_s score_s - f_bar sum_s score_s]."""
    _check_loo(f)
    return combine(batch_sums(f, scores), VARGRAD_TAG)


def vargrad_via_loss(f: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """The same estimator derived by differentiating the loss.

    Half the unbiased empirical variance of f is (1/(2(S-1))) sum (f_s - f_bar)^2;
    its parameter derivative with samples detached is
    (1/(S-1)) sum_s (f_s - f_bar) score_s, since the f_bar derivative pairs
    with a term that sums to zero. Agrees with vargrad() to 1e-12 relative.
    """
    _check_loo(f)
    return (f - f.mean()) @ scores / (f.shape[0] - 1)


def sampled_cv_coefficient(
    params: Params,
    target: Target,
    rng: np.random.Generator,
    S_extra: int,
) -> np.ndarray:
    """Per-coordinate estimate of the optimal control-variate coefficient
    (cv_coefficient) from an independent batch of S_extra draws. This is a
    ratio of estimates and therefore biased; the bias shrinks as S_extra
    grows. Zero-variance coordinates are NaN.
    """
    if S_extra < 2:
        raise ValueError(f"S_extra must be >= 2, got {S_extra}")
    return cv_coefficient(*build_batch(params, target, rng, S_extra))
