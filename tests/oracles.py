"""Independent reference computations for the test suite.

Nothing here reuses the closed forms under test. Gaussian moments come from
adaptive quadrature, discrete expectations from exhaustive enumeration,
multi-sample variances from a direct expansion over i.i.d. draws, per-draw
scores from the score formulas written out, and estimator sums from formed
per-draw scores, so agreement with the library is evidence rather than
tautology.
"""

from __future__ import annotations

import decimal
import itertools
import math
from typing import Callable

import numpy as np
from scipy.integrate import quad

from vargrad_lab.estimators import BatchSums
from vargrad_lab.families import DiagGaussianParams, MeanFieldBernoulliParams, Params
from vargrad_lab.targets import DiscreteToyModel

# Integration window in posterior standard deviations. The integrands decay
# like a Gaussian times a polynomial, so 14 sd puts the tail mass far below
# the 1e-12 quadrature tolerance.
_WINDOW_SD = 14.0
_QUAD_LIMIT = 400


def gauss_expect(fn: Callable[[float], float], mu: float, sigma2: float) -> float:
    """E[fn(z)] under z ~ N(mu, sigma2) by adaptive quadrature."""
    sd = math.sqrt(sigma2)

    def integrand(z: float) -> float:
        w = math.exp(-((z - mu) ** 2) / (2.0 * sigma2)) / math.sqrt(2.0 * math.pi * sigma2)
        return fn(z) * w

    val, _ = quad(integrand, mu - _WINDOW_SD * sd, mu + _WINDOW_SD * sd, limit=_QUAD_LIMIT)
    return val


def gaussian_log_ratio(mu: float, mu_tilde: float, sigma2: float, sigma2_tilde: float):
    """log q(z) - log p(z) for 1-d Gaussians, as a plain callable."""

    def f(z: float) -> float:
        return (
            -0.5 * ((z - mu) ** 2 / sigma2 + math.log(2.0 * math.pi * sigma2))
            + 0.5 * ((z - mu_tilde) ** 2 / sigma2_tilde + math.log(2.0 * math.pi * sigma2_tilde))
        )

    return f


def gaussian_pair_moments(
    mu: float, mu_tilde: float, sigma2: float, sigma2_tilde: float
) -> dict[str, float]:
    """Single-draw moments of f = log q - log p and the mean score s.

    Keys: ef = E[f], cov_fs = E[f s] (= Cov since E[s] = 0),
    raw_f2s2 = E[f^2 s^2], cen_f2s2 = E[(f - Ef)^2 s^2],
    var_f = Var(f), var_s = E[s^2].
    """
    f = gaussian_log_ratio(mu, mu_tilde, sigma2, sigma2_tilde)

    def s(z: float) -> float:
        return (z - mu) / sigma2

    ef = gauss_expect(f, mu, sigma2)
    return {
        "ef": ef,
        "cov_fs": gauss_expect(lambda z: f(z) * s(z), mu, sigma2),
        "raw_f2s2": gauss_expect(lambda z: f(z) ** 2 * s(z) ** 2, mu, sigma2),
        "cen_f2s2": gauss_expect(lambda z: (f(z) - ef) ** 2 * s(z) ** 2, mu, sigma2),
        "var_f": gauss_expect(lambda z: (f(z) - ef) ** 2, mu, sigma2),
        "var_s": gauss_expect(lambda z: s(z) ** 2, mu, sigma2),
    }


def reinforce_variance_ref(mom: dict[str, float], S: int) -> float:
    """Var of (1/S) sum_i f_i s_i over S i.i.d. draws.

    The summands are i.i.d. with mean E[f s], so the variance is
    (E[f^2 s^2] - E[f s]^2) / S. Note the raw (uncentred) f^2: this route is
    deliberately sensitive to additive constants in f.
    """
    return (mom["raw_f2s2"] - mom["cov_fs"] ** 2) / S


def vargrad_variance_ref(mom: dict[str, float], S: int) -> float:
    """Var of (1/(S-1)) sum_i (f_i - f_bar) s_i over S i.i.d. draws.

    The estimator is invariant to shifting f, so write x = f - E[f] and
    expand the square. With independent draws and E[s] = 0 the cross terms
    collapse to three moments: E4 = E[x^2 s^2], m = E[x s], Vx = Var(f),
    Vs = E[s^2], giving

        E4/S - m^2 (S-2) / (S (S-1)) + Vx Vs / (S (S-1)).
    """
    m = mom["cov_fs"]
    e4 = mom["cen_f2s2"]
    vx = mom["var_f"]
    vs = mom["var_s"]
    return e4 / S - m * m * (S - 2) / (S * (S - 1)) + vx * vs / (S * (S - 1))


def delta_var_ref(
    mu: float, mu_tilde: float, sigma2: float, sigma2_tilde: float, S: int
) -> float:
    """Var(reinforce) - Var(vargrad) on the mean coordinate, by quadrature.

    Uses the zero-log-evidence convention for f, matching the closed form.
    """
    mom = gaussian_pair_moments(mu, mu_tilde, sigma2, sigma2_tilde)
    return reinforce_variance_ref(mom, S) - vargrad_variance_ref(mom, S)


def kl_gaussian_ref(mu: float, mu_tilde: float, sigma2: float, sigma2_tilde: float) -> float:
    """KL(q || p) for 1-d Gaussians via quadrature of q log(q/p)."""
    return gauss_expect(gaussian_log_ratio(mu, mu_tilde, sigma2, sigma2_tilde), mu, sigma2)


def chi2_half_variance_ref(mu: float, mu_tilde: float, sigma2: float, sigma2_tilde: float) -> float:
    """0.5 Var_q(p/q) for 1-d Gaussians, integrating in log space.

    Computes E_q[(p/q)^2] = int exp(2 (log p - log q) + log q) dz on a wide
    window; the log-space form avoids underflow of the density ratio.
    """
    log_ratio = gaussian_log_ratio(mu, mu_tilde, sigma2, sigma2_tilde)

    def log_q(z: float) -> float:
        return -0.5 * ((z - mu) ** 2 / sigma2 + math.log(2.0 * math.pi * sigma2))

    def integrand(z: float) -> float:
        return math.exp(-2.0 * log_ratio(z) + log_q(z))

    lo = min(mu, mu_tilde) - 40.0
    hi = max(mu, mu_tilde) + 40.0
    second_moment, _ = quad(integrand, lo, hi, limit=200)
    return 0.5 * (second_moment - 1.0)


def cov_f_score2_ref(
    mu: float, mu_tilde: float, sigma2: float, sigma2_tilde: float, convention: str
) -> float:
    """Cov(f, s_k^2) by quadrature for the scalar-Gaussian score conventions."""
    f = gaussian_log_ratio(mu, mu_tilde, sigma2, sigma2_tilde)
    if convention == "mean":
        def s(z: float) -> float:
            return (z - mu) / sigma2
    elif convention == "variance":
        def s(z: float) -> float:
            return ((z - mu) ** 2 / sigma2 - 1.0) / (2.0 * sigma2)
    elif convention == "log_variance":
        def s(z: float) -> float:
            return ((z - mu) ** 2 / sigma2 - 1.0) / 2.0
    else:
        raise ValueError(f"unknown convention {convention!r}")
    ef = gauss_expect(f, mu, sigma2)
    es2 = gauss_expect(lambda z: s(z) ** 2, mu, sigma2)
    return gauss_expect(lambda z: (f(z) - ef) * (s(z) ** 2 - es2), mu, sigma2)


def sigmoid_ref(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) per element in 40-digit decimal arithmetic from the
    exact binary value of x, rounded once to a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        one = decimal.Decimal(1)
        out = [float(one / (one + (-decimal.Decimal(v)).exp())) for v in x.ravel().tolist()]
    return np.array(out).reshape(x.shape)


def logsumexp_ref(a: np.ndarray) -> float:
    """log(sum(exp(a))) in 40-digit decimal arithmetic, rounded once to a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return float(sum(decimal.Decimal(v).exp() for v in a.tolist()).ln())


def ulps_off(got, want) -> np.ndarray:
    """|got - want| in units of the float spacing at want."""
    return np.abs(np.asarray(got) - want) / np.spacing(np.abs(want))


def fd_gradient(fn: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = h
        out.flat[i] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return out


def enumerate_batches(probs: np.ndarray, S: int):
    """All ordered S-tuples of support indices with their joint probabilities.

    Yields (indices, weight) pairs; the weights sum to 1, so averaging any
    per-batch statistic against them is an exact expectation over batches.
    """
    probs = np.asarray(probs, dtype=float)
    for combo in itertools.product(range(probs.size), repeat=S):
        weight = float(np.prod(probs[list(combo)]))
        yield np.array(combo, dtype=int), weight


def support_probs_ref(params: MeanFieldBernoulliParams, states: np.ndarray) -> np.ndarray:
    """Probabilities of the rows of states (n, D) under the clamped
    parameters, as the product of theta_k over the ones and 1 - theta_k over
    the zeros. 1 - theta_k loses digits where theta_k is near 1."""
    theta = params.probs
    return np.prod(np.where(states == 1.0, theta, 1.0 - theta), axis=1)


def exact_kl_and_gradient_ref(
    model: DiscreteToyModel, params: MeanFieldBernoulliParams
) -> tuple[float, np.ndarray]:
    """KL(q || posterior) and its logit gradient, summed state by state in
    log space: log q(z) = sum_k z_k L_k - softplus(L_k) over the clipped
    logits L, the score z - theta with theta = params.probs, and every sum a
    math.fsum, so no weight is formed from 1 - theta."""
    logits = params.clipped_logits.tolist()
    theta = params.probs.tolist()
    softplus = [max(v, 0.0) + math.log1p(math.exp(-abs(v))) for v in logits]
    d = len(logits)
    kl_terms, grad_terms = [], [[] for _ in range(d)]
    for i in range(2**d):
        z = [(i >> k) & 1 for k in range(d)]  # coordinate k reads bit k of i
        log_q = math.fsum(zk * lk - sk for zk, lk, sk in zip(z, logits, softplus))
        r = log_q - (float(model.log_joint_table[i]) - model.log_evidence)
        q = math.exp(log_q)
        kl_terms.append(q * r)
        for k in range(d):
            grad_terms[k].append(q * (z[k] - theta[k]) * r)
    return math.fsum(kl_terms), np.array([math.fsum(t) for t in grad_terms])


def sample_variance_ref(x: np.ndarray) -> float:
    """Unbiased sample variance, written out longhand."""
    x = np.asarray(x, dtype=float)
    m = x.mean()
    return float(((x - m) ** 2).sum() / (x.size - 1))


def score_ref(params: Params, z) -> np.ndarray:
    """d log q(z) / d phi, shape (..., P), for draws z (..., D): for a
    diagonal Gaussian, with u = z - mean, u / sigma^2 for the means and
    u^2 / sigma^2 - 1 for the log-stds; for a mean-field Bernoulli, z - theta
    for the logits."""
    z = np.asarray(z, dtype=float)
    if isinstance(params, DiagGaussianParams):
        u = z - params.mean
        return np.concatenate([u / params.var, u**2 / params.var - 1.0], axis=-1)
    return z - params.probs


def batch_sums(f: np.ndarray, scores: np.ndarray) -> BatchSums:
    """The BatchSums of f (..., S) and formed scores (..., S, P), summed over
    the sample axis: the reference for the replicate kernel, which sums the
    family's score statistics instead. combine(batch_sums(f, sc), tag) is a
    single batch's Reinforce, CV or leave-one-out estimate."""
    if f.shape[-1] != scores.shape[-2]:  # broadcasting would stretch an S of 1
        raise ValueError(f"f and scores disagree on S: {f.shape} vs {scores.shape}")
    return BatchSums(
        f_dot_score=(f[..., None] * scores).sum(axis=-2),
        f_sum=f.sum(axis=-1, keepdims=True),
        score_sum=scores.sum(axis=-2),
        S=f.shape[-1],
    )


def vargrad_via_loss(f: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """The leave-one-out estimate derived by differentiating the loss.

    Half the unbiased empirical variance of f is (1/(2(S-1))) sum (f_s - f_bar)^2;
    its parameter derivative with samples detached is
    (1/(S-1)) sum_s (f_s - f_bar) score_s, since the f_bar derivative pairs
    with a term that sums to zero.
    """
    if f.shape[0] < 2:
        raise ValueError("the leave-one-out estimator needs S >= 2 (empirical variance)")
    return (f - f.mean()) @ scores / (f.shape[0] - 1)
