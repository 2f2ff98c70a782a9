"""Closed-form variational families.

Two mean-field families are provided: a diagonal Gaussian parameterised by
free mean and log standard deviation vectors, and a mean-field Bernoulli
parameterised by logits. Both expose exact log-densities, analytic score
functions (the gradient of log q with respect to the parameters), and
sampling. Scores are closed-form on purpose: samples never carry parameter
dependence, so the stop-gradient semantics of the estimators downstream
holds by construction rather than by autodiff bookkeeping.

Parameter-vector ordering is fixed and documented here because gradient
coordinates must stay addressable for per-coordinate diagnostics:

* diagonal Gaussian: phi = (mean_1..mean_D, log_std_1..log_std_D), length 2D
* mean-field Bernoulli: phi = (logit_1..logit_D), length D
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

# Bernoulli probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] so scores and
# log-densities stay finite at saturated logits. The clamp is applied in logit
# space so that probs, log_density and score all describe the same distribution.
PROB_EPS = 1e-7
_LOGIT_CLIP = float(np.log1p(-PROB_EPS) - np.log(PROB_EPS))  # logit(1 - eps)

# support_states materialises all 2^D states; past this it refuses.
MAX_ENUM_DIM = 20


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

    def to_vector(self) -> np.ndarray:
        return self.logits.copy()

    @classmethod
    def from_vector(cls, phi) -> "MeanFieldBernoulliParams":
        return cls(logits=phi)


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
        return params.mean + params.std * rng.standard_normal((S, params.dim))
    if isinstance(params, MeanFieldBernoulliParams):
        return (rng.random((S, params.dim)) < params.probs).astype(float)
    raise TypeError(f"unknown family: {type(params).__name__}")


def _check_last_axis(z: np.ndarray, d: int) -> None:
    if z.ndim == 0 or z.shape[-1] != d:
        raise ValueError(f"latent dimension mismatch: expected {d}, got shape {z.shape}")


def log_density(params: Params, z) -> np.ndarray | float:
    """log q(z) for z of shape (..., D); returns shape (...,) (scalar for 1-D z)."""
    z = np.asarray(z, dtype=float)
    _check_last_axis(z, params.dim)
    if isinstance(params, DiagGaussianParams):
        var = params.var
        out = -0.5 * np.sum((z - params.mean) ** 2 / var + np.log(2.0 * np.pi * var), axis=-1)
        return out if out.ndim else float(out)
    if isinstance(params, MeanFieldBernoulliParams):
        if not np.all((z == 0.0) | (z == 1.0)):
            raise ValueError("Bernoulli latents must be exactly 0 or 1")
        logit = params.clipped_logits
        # z*log(theta) + (1-z)*log(1-theta) == z*logit - softplus(logit)
        out = np.sum(z * logit - np.logaddexp(0.0, logit), axis=-1)
        return out if out.ndim else float(out)
    raise TypeError(f"unknown family: {type(params).__name__}")


def score(params: Params, z) -> np.ndarray:
    """d log q(z) / d phi for z of shape (..., D); returns shape (..., P).

    Gaussian coordinates: d/d mean_k = (z_k - mu_k) / sigma_k^2 and
    d/d log_std_k = -1 + (z_k - mu_k)^2 / sigma_k^2. Bernoulli:
    d/d logit_k = z_k - theta_k.
    """
    z = np.asarray(z, dtype=float)
    _check_last_axis(z, params.dim)
    if isinstance(params, DiagGaussianParams):
        u = z - params.mean
        d_mean = u / params.var
        d_log_std = -1.0 + u**2 / params.var
        return np.concatenate([d_mean, d_log_std], axis=-1)
    if isinstance(params, MeanFieldBernoulliParams):
        if not np.all((z == 0.0) | (z == 1.0)):
            raise ValueError("Bernoulli latents must be exactly 0 or 1")
        return z - params.probs
    raise TypeError(f"unknown family: {type(params).__name__}")


def support_states(d: int) -> np.ndarray:
    """(2^D, D) array of all binary states; row i holds the bits of i, with
    coordinate k reading bit k (z_0 is the least significant bit)."""
    if d > MAX_ENUM_DIM:
        raise ValueError(f"refusing to enumerate 2^{d} states (limit D <= {MAX_ENUM_DIM})")
    idx = np.arange(2**d, dtype=np.int64)
    return ((idx[:, None] >> np.arange(d)) & 1).astype(float)


def support_probs(params: MeanFieldBernoulliParams) -> np.ndarray:
    """(2^D,) exact state probabilities under the clamped parameters."""
    states = support_states(params.dim)
    theta = params.probs
    return np.prod(np.where(states == 1.0, theta, 1.0 - theta), axis=1)


def gaussian_score_kurtosis_analytic(params: DiagGaussianParams) -> np.ndarray:
    """Analytic kurtosis E[s^4]/E[s^2]^2 per parameter coordinate, length 2D.

    Mean coordinates have kurtosis 3 (the score is a scaled centred Gaussian).
    The second block is the kurtosis of the centred natural statistic
    z^2 - E[z^2]:

        3 (4 mu^4 + 20 mu^2 sigma^2 + 5 sigma^4) / (2 mu^2 + sigma^2)^2

    maximised at mu = 0 where it equals 15. The log-std score itself,
    -1 + (z-mu)^2/sigma^2, is affine in the centred square (z-mu)^2, so its
    kurtosis is exactly 15 for every (mu, sigma); the two conventions agree
    at mu = 0 and differ elsewhere. The z^2 convention is what the tail-bound
    diagnostics consume, so it is the one reported here.
    """
    if not isinstance(params, DiagGaussianParams):
        raise TypeError("kurtosis formula is defined for the Gaussian family only")
    mu2 = params.mean**2
    s2 = params.var
    t2_kurt = 3.0 * (4.0 * mu2**2 + 20.0 * mu2 * s2 + 5.0 * s2**2) / (2.0 * mu2 + s2) ** 2
    return np.concatenate([np.full(params.dim, 3.0), t2_kurt])
