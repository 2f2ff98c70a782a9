"""Score-function gradient estimators.

Every estimator here is a function of a batch of S latent draws z_s through
two quantities: f_s = log q(z_s) - log p(x, z_s) and the analytic scores
d log q(z_s) / d phi, P per draw. Everything here targets the gradient of
KL(q || p(.|x)), equivalently the negative-ELBO gradient, since the
evidence does not depend on the variational parameters.

The leave-one-out estimator centres f by its batch mean before weighting the
scores and rescales by S/(S-1); it is exactly the gradient of half the
unbiased empirical variance of the f values with the samples held fixed. It
is Reinforce with the batch mean of f as its control-variate coefficient,
the baseline of Kool, van Hoof and Welling (2019).

The estimator math has three pieces; the first two map score statistics
to scores with families.score. Draws to f and scores: build_batch gives f
and the scores of given draws. Draws to batch sums:
batch_sums_from_draws, the replicate kernel, reduces (R, S) batches of
draws to the three sums every estimator is a function of, from the
family's score statistics and without a score array. Sums to estimates:
combine applies the Reinforce, CV or leave-one-out formula to those sums,
and cv_coefficient is the sampled optimal CV coefficient of f and scores.
vargrad is the one single-batch estimator with its own name, because
train-logreg steps with it; it is one batch through the kernel and combine.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import families
from .families import Params
from .targets import Target, log_joint

REINFORCE_TAG = "reinforce"
CV_TAG = "cv"
VARGRAD_TAG = "vargrad"


class BatchSums(NamedTuple):
    """The sums over the sample axis that every estimator is a function of:
    sum_s f_s score_s (..., P), sum_s f_s (..., 1) and sum_s score_s (..., P).
    Means are these sums divided by S."""

    f_dot_score: np.ndarray
    f_sum: np.ndarray
    score_sum: np.ndarray
    S: int


# At D = 1 a batch of at least this many samples is summed pairwise along
# its own contiguous samples, one numpy inner loop of S per batch; smaller
# batches are summed sample by sample over rows-long slabs, since numpy's
# per-batch inner loop costs more than a short batch's arithmetic. Measured
# on a 2-vCPU x86 VM, CPU ns per draw of this kernel at D = 1, pairwise vs
# sample-major, over 12-16 interleaved trials: sample-major wins up to
# S = 50 (S = 2: 74 vs 21, S = 20: 19.0 vs 16.8), the two are within 1.5 ns
# from S = 64 to 160 with the winner changing between runs, and pairwise
# wins above that (S = 200: 13.0 vs 15.5, S = 1000: 13.7 vs 17.7). Fixed
# rather than derived from the chunk size, so no sum depends on the chunking.
_PAIRWISE_MIN_S = 128


def _sum_left_to_right(x: np.ndarray) -> np.ndarray:
    """x[0] + x[1] + ... over axis 0 of a C-contiguous x. numpy sums an
    axis pairwise instead when it is the only axis longer than 1, as here
    when each x[s] holds one element; cumsum keeps the order there."""
    return np.cumsum(x, axis=0)[-1] if x[0].size == 1 else x.sum(axis=0)


def batch_sums_from_draws(params: Params, target: Target, z: np.ndarray) -> BatchSums:
    """The BatchSums of R batches of draws z, shape (R, S, D), with no score array.

    log q and the family's score statistics come from one pass over z
    (families.log_density with with_stats). The score is affine in the
    statistics, so the sums of f x, x and f over each batch's samples give
    the (R, P) score sums through families.score. Each batch is
    reduced on its own, so its sums do not depend on R: at D = 1 and
    S >= _PAIRWISE_MIN_S pairwise along its contiguous samples, otherwise
    left to right over a sample-major (S, R, D) copy, each step adding a
    contiguous (R, D) slab. Multiplies and sums, unlike einsum, raise under
    np.errstate(over="raise").
    """
    R, S, d = z.shape
    lj = log_joint(target, z)  # (R, S)
    if d == 1 and S >= _PAIRWISE_MIN_S:
        lq, stats = families.log_density(params, z, with_stats=True)
        f, sum_s = lq - lj, functools.partial(np.sum, axis=1)
    else:
        z_by_sample = np.ascontiguousarray(z.transpose(1, 0, 2))  # (S, R, D)
        lq, stats = families.log_density(params, z_by_sample, with_stats=True)
        f, sum_s = np.ascontiguousarray(lq - lj.T), _sum_left_to_right
    w = f[..., None]
    f_sum = sum_s(w)
    return BatchSums(
        f_dot_score=families.score(params, [sum_s(w * x) for x in stats], f_sum),
        f_sum=f_sum,
        score_sum=families.score(params, [sum_s(x) for x in stats], S),
        S=S,
    )


def combine(sums: BatchSums, tag: str, a=None) -> np.ndarray:
    """The estimate named by tag from batch sums, shape (..., P).

    reinforce: (1/S) sum_s f_s score_s. cv: that minus a (*) mean(score),
    with a of shape (P,) or (..., P). vargrad (leave-one-out):
    (1/(S-1)) [sum_s f_s score_s - f_bar sum_s score_s].
    """
    S = sums.S
    if tag == VARGRAD_TAG and S < 2:
        raise ValueError("the leave-one-out estimator needs S >= 2 (empirical variance)")
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


def build_batch(params: Params, target: Target, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f, shape (n,), and the scores, shape (n, P), of n draws z (n, D).

    log q and each draw's score statistics come from one log_density pass.
    Draws are detached by construction: scores come from the closed-form
    score function, so no parameter dependence flows through the samples.
    """
    lq, stats = families.log_density(params, z, with_stats=True)
    return lq - log_joint(target, z), families.score(params, stats, 1.0)


def vargrad(params: Params, target: Target, z: np.ndarray) -> np.ndarray:
    """Leave-one-out estimate, shape (P,), from one batch of S >= 2 draws z
    (S, D): (1/(S-1)) [sum_s f_s score_s - f_bar sum_s score_s], the
    replicate kernel's sums of the batch combined."""
    return combine(batch_sums_from_draws(params, target, z[None]), VARGRAD_TAG)[0]


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
    return cv_coefficient(*build_batch(params, target, families.draw(params, rng, S_extra)))
