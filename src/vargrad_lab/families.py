"""Closed-form variational families.

Two mean-field families are provided: a diagonal Gaussian parameterised by
free mean and log standard deviation vectors, and a mean-field Bernoulli
parameterised by logits. Both expose sampling and exact log-densities.
log_density also returns the per-coordinate statistics log q is a function
of, and score maps those statistics, or weighted sums of them, to the
analytic score (the gradient of log q with respect to the parameters).
Scores are closed-form on purpose: samples never carry parameter
dependence, so the stop-gradient semantics of the estimators downstream
holds by construction rather than by autodiff bookkeeping.

Parameter-vector ordering is fixed and documented here because gradient
coordinates must stay addressable for per-coordinate diagnostics:

* diagonal Gaussian: phi = (mean_1..mean_D, log_std_1..log_std_D), length 2D
* mean-field Bernoulli: phi = (logit_1..logit_D), length D
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Bernoulli probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] so scores and
# log-densities stay finite at saturated logits. The clamp is applied in logit
# space so that probs, log_density and score all describe the same distribution.
PROB_EPS = 1e-7
_LOGIT_CLIP = float(np.log1p(-PROB_EPS) - np.log(PROB_EPS))  # logit(1 - eps)

# The one limit on exhaustive enumeration over {0,1}^D: support_states builds
# a (2^D, D) float array (168 MB at D = 20) and refuses past it, and the
# discrete toy model and the unbiasedness experiment share the limit.
MAX_ENUM_DIM = 20


def _expit_scalar(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:  # exp(-v) is past the float range, where C's exp gives inf
        return 0.0


def expit(x) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-x)), element by element.

    Each element goes through math.exp, which is the C library's exp, the
    call scipy.special.expit makes, so the two agree bit for bit. numpy's
    vectorised exp rounds differently on about 2% of inputs, which would
    move the Bernoulli probabilities and with them the unbiasedness CSV.
    """
    x = np.asarray(x, dtype=float)
    return np.array([_expit_scalar(v) for v in x.ravel().tolist()]).reshape(x.shape)


def gaussian_log_density(z: np.ndarray, mean: np.ndarray, var: np.ndarray, *, with_stats: bool):
    """log N(z; mean, diag(var)) over the last axis of z, the density of both
    q and the Gaussian posterior. With with_stats it returns (log density,
    (u, t)), u = z - mean and t = u^2 / var; without, t overwrites u."""
    u = z - mean
    t = np.square(u) if with_stats else np.square(u, out=u)  # the same bits as u**2
    t /= var  # in place: the same bits as u**2 / var
    out = -0.5 * np.sum(t + np.log(2.0 * np.pi * var), axis=-1)
    return (out, (u, t)) if with_stats else out


def _validated_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite everywhere")
    return v


@dataclass(frozen=True)
class DiagGaussianParams:
    """Diagonal Gaussian with free mean and log standard deviation."""

    mean: np.ndarray
    log_std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _validated_vector(self.mean, "mean"))
        object.__setattr__(self, "log_std", _validated_vector(self.log_std, "log_std"))
        if self.mean.shape != self.log_std.shape:
            raise ValueError(
                f"mean and log_std must match: {self.mean.shape} vs {self.log_std.shape}"
            )
        # a log_std below about -372 gives variance 0, where the density is
        # 0/0: a diverged optimiser step raises here instead of making NaNs
        if not np.all(np.exp(2.0 * self.log_std) > 0.0):
            raise ValueError("log_std too small: the variance underflows to 0")

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def num_params(self) -> int:
        return 2 * self.dim

    @property
    def std(self) -> np.ndarray:
        return np.exp(self.log_std)

    @property
    def var(self) -> np.ndarray:
        return np.exp(2.0 * self.log_std)

    def to_vector(self) -> np.ndarray:
        """phi = (means, then log-stds)."""
        return np.concatenate([self.mean, self.log_std])

    @classmethod
    def from_vector(cls, phi) -> "DiagGaussianParams":
        phi = _validated_vector(phi, "phi")
        if phi.size % 2 != 0:
            raise ValueError(f"phi length must be even, got {phi.size}")
        d = phi.size // 2
        return cls(mean=phi[:d], log_std=phi[d:])


@dataclass(frozen=True)
class MeanFieldBernoulliParams:
    """Factorised Bernoulli over {0,1}^D with logit parameters."""

    logits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "logits", _validated_vector(self.logits, "logits"))

    @property
    def dim(self) -> int:
        return self.logits.size

    @property
    def num_params(self) -> int:
        return self.dim

    @property
    def clipped_logits(self) -> np.ndarray:
        return np.clip(self.logits, -_LOGIT_CLIP, _LOGIT_CLIP)

    @property
    def probs(self) -> np.ndarray:
        """Success probabilities, clamped into [PROB_EPS, 1 - PROB_EPS]."""
        return expit(self.clipped_logits)


Params = DiagGaussianParams | MeanFieldBernoulliParams


def param_labels(params: Params) -> list[str]:
    """Coordinate names aligned with the phi ordering (for reports and CSV)."""
    if isinstance(params, DiagGaussianParams):
        d = params.dim
        return [f"mean_{k}" for k in range(d)] + [f"log_std_{k}" for k in range(d)]
    if isinstance(params, MeanFieldBernoulliParams):
        return [f"logit_{k}" for k in range(params.dim)]
    raise TypeError(f"unknown family: {type(params).__name__}")


def draw(params: Params, rng: np.random.Generator, S: int) -> np.ndarray:
    """S i.i.d. latent draws as an (S, D) array, deterministic given the generator state."""
    if S < 1:
        raise ValueError(f"S must be >= 1, got {S}")
    if isinstance(params, DiagGaussianParams):
        z = rng.standard_normal((S, params.dim))
        z *= params.std  # in place: the same bits as mean + std * z
        z += params.mean
        return z
    if isinstance(params, MeanFieldBernoulliParams):
        return (rng.random((S, params.dim)) < params.probs).astype(float)
    raise TypeError(f"unknown family: {type(params).__name__}")


def require_binary(z: np.ndarray) -> None:
    """Refuse binary latents that are not exactly 0 or 1."""
    if not np.all((z == 0.0) | (z == 1.0)):
        raise ValueError("binary latents must be exactly 0 or 1")


def log_density(params: Params, z, *, with_stats: bool = False):
    """log q(z) for z of shape (..., D); returns an array of shape (...,),
    of shape () for one latent of shape (D,).

    With with_stats it returns (log q(z), stats) instead, both from one pass
    over z: stats are the per-coordinate arrays, each shaped like z, that
    log q and the score are functions of, u = z - mean and u^2 / sigma^2 for
    the Gaussian, z itself for the Bernoulli. score maps them, or weighted
    sums of them, to scores.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 0 or z.shape[-1] != params.dim:
        raise ValueError(f"latent dimension mismatch: expected {params.dim}, got shape {z.shape}")
    if isinstance(params, DiagGaussianParams):
        return gaussian_log_density(z, params.mean, params.var, with_stats=with_stats)
    if isinstance(params, MeanFieldBernoulliParams):
        require_binary(z)
        # z*log(theta) + (1-z)*log(1-theta) == z*logit - softplus(logit)
        logit = params.clipped_logits
        terms = z * logit
        terms -= np.logaddexp(0.0, logit)  # in place: one (..., D) temporary
        out = np.sum(terms, axis=-1)
        return (out, (z,)) if with_stats else out
    raise TypeError(f"unknown family: {type(params).__name__}")


def score(params: Params, stat_sums, weight_sum) -> np.ndarray:
    """sum_s w_s score(z_s), shape (..., P), from sum_s w_s x_s for each
    score statistic x (see log_density), each (..., D), and
    sum_s w_s, a scalar or (..., 1). The score is affine in the statistics:

    Gaussian coordinates: d/d mean_k = u_k / sigma_k^2 and
    d/d log_std_k = u_k^2 / sigma_k^2 - 1. Bernoulli:
    d/d logit_k = z_k - theta_k.

    One draw's statistics with weight 1 give its score d log q(z) / d phi;
    weights f over a batch give sum_s f_s score_s, unit weights the sum.
    """
    if isinstance(params, DiagGaussianParams):
        u_sum, t_sum = stat_sums
        d = params.dim
        out = np.empty(u_sum.shape[:-1] + (2 * d,))
        np.divide(u_sum, params.var, out=out[..., :d])
        np.subtract(t_sum, weight_sum, out=out[..., d:])
        return out
    if isinstance(params, MeanFieldBernoulliParams):
        (z_sum,) = stat_sums
        return z_sum - weight_sum * params.probs
    raise TypeError(f"unknown family: {type(params).__name__}")


def support_states(d: int) -> np.ndarray:
    """(2^D, D) array of all binary states; row i holds the bits of i, with
    coordinate k reading bit k (z_0 is the least significant bit)."""
    if d > MAX_ENUM_DIM:
        raise ValueError(f"refusing to enumerate 2^{d} states (limit D <= {MAX_ENUM_DIM})")
    # int32 holds every index up to 2^MAX_ENUM_DIM; the mask is applied in place
    bits = np.arange(2**d, dtype=np.int32)[:, None] >> np.arange(d, dtype=np.int32)
    bits &= 1
    return bits.astype(float)


def gaussian_score_kurtosis_analytic(params: DiagGaussianParams) -> np.ndarray:
    """Analytic kurtosis E[s^4]/E[s^2]^2 per parameter coordinate, length 2D.

    Mean coordinates have kurtosis 3 (the score is a scaled centred Gaussian).
    The second block is the kurtosis of the centred natural statistic
    z^2 - E[z^2]:

        3 (4 mu^4 + 20 mu^2 sigma^2 + 5 sigma^4) / (2 mu^2 + sigma^2)^2

    maximised at mu = 0 where it equals 15. The log-std score itself,
    -1 + (z-mu)^2/sigma^2, is affine in the centred square (z-mu)^2, so its
    kurtosis is exactly 15 for every (mu, sigma); the two conventions agree
    at mu = 0 and differ elsewhere. gaussian-oracles reports this z^2
    convention; analysis.delta_ratio_bound uses each score's own kurtosis.
    """
    if not isinstance(params, DiagGaussianParams):
        raise TypeError("kurtosis formula is defined for the Gaussian family only")
    # in r = mu^2 / sigma^2 the formula is 3 (4 r^2 + 20 r + 5) / (2 r + 1)^2,
    # which stays finite where sigma^4 underflows (sigma^2 = 1e-300 at mu = 0)
    r = params.mean**2 / params.var
    t2_kurt = 3.0 * (4.0 * r**2 + 20.0 * r + 5.0) / (2.0 * r + 1.0) ** 2
    return np.concatenate([np.full(params.dim, 3.0), t2_kurt])
