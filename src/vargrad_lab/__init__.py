"""Score-function gradient estimators with a leave-one-out baseline.

The library implements the estimator family around the log-variance loss:
the plain score-function (Reinforce) estimator, control-variate variants,
and the leave-one-out estimator obtained by differentiating the empirical
variance of the log ratio log q(z) - log p(x, z). Closed-form Gaussian
oracles, enumeration oracles for small discrete models, and a replicate
harness quantify when the leave-one-out baseline is close to the optimal
control variate.
"""

from . import analysis, estimators, families, gaussian_oracles, losses, optim, targets
from .estimators import build_batch, vargrad, vargrad_via_loss
from .families import DiagGaussianParams, MeanFieldBernoulliParams
from .targets import DiscreteToyModel, GaussianTarget, LogRegModel

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "estimators",
    "families",
    "gaussian_oracles",
    "losses",
    "optim",
    "targets",
    "build_batch",
    "vargrad",
    "vargrad_via_loss",
    "DiagGaussianParams",
    "MeanFieldBernoulliParams",
    "DiscreteToyModel",
    "GaussianTarget",
    "LogRegModel",
    "__version__",
]
