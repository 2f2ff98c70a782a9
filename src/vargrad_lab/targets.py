"""Target models exposing log p(x, z).

Three targets cover the experiments. GaussianTarget has a known diagonal
Gaussian posterior and a declared log-evidence, so every divergence in the
library is available in closed form against it. LogRegModel is full-batch
Bayesian logistic regression on a synthetic dataset. DiscreteToyModel stores
log p(x, z) for every binary state explicitly, which makes brute-force
enumeration of posteriors, KL values and exact gradients trivial
(analysis.exact_kl_and_gradient); it is the oracle substrate for the
unbiasedness checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import MAX_ENUM_DIM, expit, gaussian_log_density, require_binary

# The logistic-regression log joint runs over blocks of this many rows of z,
# so its two (rows, N) buffers stay in a core's L2 cache and a worker's peak
# RSS stays low. On a 2-vCPU x86 VM (2 MiB L2) under the CLI's allocator
# policy, 10000 rows at N = 100 took 1.38-1.48 us per row in blocks of 256
# to 1024 rows and 1.90 unblocked, whose two 8 MB buffers also raised peak
# RSS by 19.5 MB. It is a multiple of 64, so block edges sit on the BLAS
# kernels' row tiles, and the remainder joins the last block: a block of a
# few rows (1030 as 1024 + 6) takes OpenBLAS's small-matrix kernel, which
# moves that block's last bits.
_LOGREG_BLOCK_ROWS = 1024

# Prior variances of the logistic-regression weights and bias, the
# distributions synth_logreg_dataset draws them from.
PRIOR_W_VAR = 25.0
PRIOR_B_VAR = 1.0


def logsumexp(a) -> float:
    """log(sum(exp(a))) over all entries of a.

    With m = a[i] a largest entry, the result is m + log1p(s), where s sums
    exp(a - m) over the entries with entry i set to 0, so no exp overflows
    and s keeps the digits a sum of 1 + s would round off. The result is
    within 2 ulp of the exact value unless m and log1p(s) nearly cancel (a
    result near 0, whose error is then a few ulp of m). A non-finite
    maximum (+inf, nan, or -inf when every entry is -inf) is the result.
    """
    a = np.asarray(a, dtype=float)
    i = np.argmax(a)  # the first nan, where there is one
    m = a.flat[i]
    if not np.isfinite(m):
        return float(m)
    e = np.exp(a - m)
    e.flat[i] = 0.0
    return float(m + np.log1p(np.sum(e)))


@dataclass(frozen=True)
class GaussianTarget:
    """Diagonal Gaussian posterior with a declared evidence constant.

    log p(x, z) = log N(z; post_mean, diag(post_var)) + log_evidence. The
    default log_evidence = 0 makes E_q[log q - log p(x,z)] equal the KL
    divergence exactly; nonzero values exercise the evidence-dependent paths.
    """

    post_mean: np.ndarray
    post_var: np.ndarray
    log_evidence: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "post_mean", np.atleast_1d(np.asarray(self.post_mean, float)))
        object.__setattr__(self, "post_var", np.atleast_1d(np.asarray(self.post_var, float)))
        object.__setattr__(self, "log_evidence", float(self.log_evidence))
        if self.post_mean.ndim != 1 or self.post_mean.shape != self.post_var.shape:
            raise ValueError("post_mean and post_var must be matching 1-D vectors")
        if not (np.all(np.isfinite(self.post_mean)) and np.all(np.isfinite(self.post_var))):
            raise ValueError("posterior parameters must be finite")
        if np.any(self.post_var <= 0.0):
            raise ValueError("post_var must be positive elementwise")

    @property
    def dim(self) -> int:
        return self.post_mean.size


@dataclass(frozen=True)
class LogRegModel:
    """Bayesian logistic regression, full batch.

    The latent is z = (w_1..w_D, b), dimension D + 1. Priors are zero-mean
    isotropic Gaussians with variances PRIOR_W_VAR (weights) and PRIOR_B_VAR
    (bias).
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", np.asarray(self.X, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.X.ndim != 2:
            raise ValueError(f"X must be N x D, got shape {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("y must have one label per row of X")
        if np.any(np.abs(self.X) > 1.0):
            raise ValueError("X entries must lie in [-1, 1]")
        if not np.all((self.y == 0.0) | (self.y == 1.0)):
            raise ValueError("labels must be 0/1")

    @property
    def n_data(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def dim(self) -> int:
        """Latent dimension: D weights plus one bias."""
        return self.X.shape[1] + 1


@dataclass(frozen=True)
class DiscreteToyModel:
    """Tabulated log p(x, z) over all z in {0,1}^D.

    State i of the table corresponds to the binary expansion of i with z_0 as
    the least significant bit, matching families.support_states.
    """

    log_joint_table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.log_joint_table, dtype=float)
        object.__setattr__(self, "log_joint_table", table)
        if table.ndim != 1 or table.size == 0 or table.size & (table.size - 1):
            raise ValueError("log_joint_table length must be a power of two")
        d = int(table.size).bit_length() - 1
        if d > MAX_ENUM_DIM:
            raise ValueError(f"table covers 2^{d} states, limit is D <= {MAX_ENUM_DIM}")
        if not np.all(np.isfinite(table)):
            raise ValueError("log_joint_table must be finite everywhere")

    @property
    def dim(self) -> int:
        return int(self.log_joint_table.size).bit_length() - 1

    @property
    def log_evidence(self) -> float:
        return logsumexp(self.log_joint_table)

    @classmethod
    def from_posterior(cls, posterior_probs) -> "DiscreteToyModel":
        """Build a table whose normalised posterior is the given vector, with
        log evidence 0."""
        p = np.asarray(posterior_probs, dtype=float)
        if np.any(p <= 0.0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("posterior_probs must be positive and sum to 1")
        return cls(log_joint_table=np.log(p))


Target = GaussianTarget | LogRegModel | DiscreteToyModel


def log_joint(target: Target, z) -> np.ndarray:
    """log p(x, z) for z of shape (..., dim); returns an array of shape
    (...,), of shape () for one latent of shape (dim,). DiscreteToyModel
    latents must be exactly 0 or 1."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 0 or z.shape[-1] != target.dim:
        raise ValueError(f"latent dimension mismatch: expected {target.dim}, got {z.shape}")

    if isinstance(target, GaussianTarget):
        log_p = gaussian_log_density(z, target.post_mean, target.post_var, with_stats=False)
        return log_p + target.log_evidence

    if isinstance(target, LogRegModel):
        return _logreg_log_joint(target, z.reshape(-1, z.shape[-1])).reshape(z.shape[:-1])

    if isinstance(target, DiscreteToyModel):
        require_binary(z)
        return target.log_joint_table[z.astype(np.int64) @ (1 << np.arange(target.dim))]

    raise TypeError(f"unknown target: {type(target).__name__}")


def _logreg_log_joint(target: LogRegModel, z: np.ndarray) -> np.ndarray:
    """log p(x, z) for rows z of shape (n, D + 1), block by block.

    y*log(sigmoid) + (1-y)*log(1-sigmoid) == y*eta - softplus(eta). The label
    term folds into the latent: sum_n y_n eta_n = z . (X^T y, sum y), so it
    costs one (n, D+1) dot product and no pass over eta. The softplus is
    max(eta, 0) + log1p(exp(-|eta|)), finite at any eta and evaluated in
    place, about a third of the cost of np.logaddexp(0, eta). numpy's
    vectorised exp and log1p round differently from the scalar libm calls
    inside logaddexp, so the two softplus values differ by a few ULP on some
    elements and the log joint by about 1e-15 relative. Every row is reduced
    on its own, so the blocking leaves each row's bits as a single pass over
    all rows would give them.
    """
    d = target.n_features
    n = z.shape[0]
    label = z @ np.append(target.y @ target.X, target.y.sum())
    const_w = 0.5 * d * np.log(2.0 * np.pi * PRIOR_W_VAR)
    const_b = 0.5 * np.log(2.0 * np.pi * PRIOR_B_VAR)
    starts = range(0, max(n - _LOGREG_BLOCK_ROWS, 0) + 1, _LOGREG_BLOCK_ROWS)
    ends = [*starts[1:], n]  # the last block is the longest
    eta = np.empty((n - starts[-1], target.n_data))
    sp = np.empty_like(eta)
    out = np.empty(n)
    for lo, hi in zip(starts, ends):
        w, b = z[lo:hi, :d], z[lo:hi, d:]
        e, s = eta[: hi - lo], sp[: hi - lo]
        np.matmul(w, target.X.T, out=e)
        e += b
        np.abs(e, out=s)
        np.negative(s, out=s)
        np.exp(s, out=s)
        np.log1p(s, out=s)
        s += np.maximum(e, 0.0, out=e)
        loglik = label[lo:hi] - np.sum(s, axis=-1)
        # not via gaussian_log_density: 12-17% slower per call (n = 1e4, N = 100, one x86 vCPU)
        log_prior_w = -0.5 * np.sum(w**2, axis=-1) / PRIOR_W_VAR - const_w
        log_prior_b = -0.5 * b[:, 0] ** 2 / PRIOR_B_VAR - const_b
        out[lo:hi] = loglik + log_prior_w + log_prior_b
    return out


def synth_logreg_dataset(rng: np.random.Generator, N: int, D: int) -> LogRegModel:
    """Synthetic logistic-regression data.

    Draw order (fixed for reproducibility): design matrix X uniform on
    [-1, 1]^{N x D}, weights from N(0, PRIOR_W_VAR Id), bias from
    N(0, PRIOR_B_VAR), then labels Y ~ Bernoulli(sigmoid(X w + b)). The
    inference prior mirrors the generating distributions.
    """
    if N < 1 or D < 1:
        raise ValueError("N and D must be >= 1")
    X = rng.uniform(-1.0, 1.0, size=(N, D))
    w = rng.normal(0.0, math.sqrt(PRIOR_W_VAR), size=D)
    b = float(rng.normal(0.0, math.sqrt(PRIOR_B_VAR)))
    p = expit(X @ w + b)
    y = (rng.random(N) < p).astype(float)
    return LogRegModel(X=X, y=y)

