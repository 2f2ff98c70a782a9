"""Score-function gradient estimators with a leave-one-out baseline.

The library implements the estimator family around the log-variance loss:
the plain score-function (Reinforce) estimator, control-variate variants,
and the leave-one-out estimator obtained by differentiating the empirical
variance of the log ratio log q(z) - log p(x, z). Closed-form Gaussian
oracles, enumeration oracles for small discrete models, and a replicate
harness quantify when the leave-one-out baseline is close to the optimal
control variate.
"""

__version__ = "0.1.0"
