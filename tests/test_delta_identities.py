"""The correction term delta is a scaled coordinate of the exact KL gradient.

delta_i = Cov(f, s_i^2) / E[s_i^2], with g = E[f s] the exact gradient of
E f, takes these values for every target (the analysis module docstring):

    Bernoulli logit:  delta_i = (1 - 2 theta_i) g_i / (theta_i (1 - theta_i))
    Gaussian mean:    delta_mean_k = g_logstd_k
    Gaussian log-std: delta_logstd_k = 2 g_logstd_k + E[f He_4(w_k)] / 2

Each is checked on the library's own log_density and score: by enumeration
on random discrete tables, by Hermite quadrature on a non-Gaussian target,
and on logistic regression against independent Monte Carlo estimates.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from vargrad_lab import analysis, families
from vargrad_lab.analysis import EstimatorSpec, delta_cv_mc, replicate_estimates
from vargrad_lab.estimators import VARGRAD_TAG
from vargrad_lab.families import DiagGaussianParams, MeanFieldBernoulliParams
from vargrad_lab.targets import DiscreteToyModel, synth_logreg_dataset


def _enumerated(model, q):
    """Weights q(z), f = log q - log p(x, z) and squared scores over all
    states, from families.log_density and families.score."""
    states = families.support_states(model.dim)
    log_q = families.log_density(q, states)
    s = families.score(q, (states,), 1.0)
    return np.exp(log_q), log_q - model.log_joint_table, s * s


def _table_and_logits(d, seed):
    rng = np.random.default_rng(seed)
    model = DiscreteToyModel(log_joint_table=rng.normal(0.0, 2.0, size=2**d))
    return model, rng.normal(0.0, 2.0, size=d)


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("zero_logits", [False, True], ids=["random", "zero-every-other"])
def test_bernoulli_delta_is_the_scaled_gradient(d, zero_logits):
    model, logits = _table_and_logits(d, 500 + d)
    if zero_logits:
        logits[::2] = 0.0
    q = MeanFieldBernoulliParams(logits=logits)
    w, f, s2 = _enumerated(model, q)
    ef = w @ f
    delta = ((w * (f - ef)) @ s2) / (w @ s2)
    _, g = analysis.exact_kl_and_gradient(model, q)
    theta = q.probs
    want = (1.0 - 2.0 * theta) * g / (theta * (1.0 - theta))
    assert np.all(np.abs(delta - want) <= 1e-12 * (np.abs(delta) + abs(ef)))
    # theta = 1/2 at logit 0: delta = 0, so a* = E f and unbiasedness's cv
    # at its a = E f is the optimal control variate
    zero = logits == 0.0
    assert np.all(np.abs(delta[zero]) <= 1e-12 * abs(ef))


@pytest.mark.parametrize("d", range(1, 9))
def test_bernoulli_identity_holds_at_clamped_logits(d):
    # logits 40 and -25 are clamped to theta = 1 - 1e-7 and 1e-7, where
    # dividing by theta (1 - theta) magnifies rounding; the division-free
    # form Cov(f, s^2) = (1 - 2 theta) g is checked instead
    model, logits = _table_and_logits(d, 600 + d)
    logits[0] = 40.0
    if d > 1:
        logits[-1] = -25.0
    q = MeanFieldBernoulliParams(logits=logits)
    w, f, s2 = _enumerated(model, q)
    ef = w @ f
    cov = (w * (f - ef)) @ s2
    _, g = analysis.exact_kl_and_gradient(model, q)
    scale = math.sqrt(w @ (f - ef) ** 2) * np.sqrt(w @ (s2 - w @ s2) ** 2)
    assert np.all(np.abs(cov - (1.0 - 2.0 * q.probs) * g) <= 1e-9 * scale)


def _log_target(z):
    # log sigmoid(3 z) - z^2/8 + 0.3 z^3 / (1 + z^2): normalisable, not Gaussian
    return -np.logaddexp(0.0, -3.0 * z) - z * z / 8.0 + 0.3 * z**3 / (1.0 + z * z)


@pytest.mark.parametrize("mu, sigma2", [(0.3, 0.7), (-1.0, 1.3), (2.0, 0.4)])
def test_gaussian_deltas_are_the_log_std_gradient(mu, sigma2):
    # 200-node Gauss-Hermite quadrature of E_q over w = (z - mu) / sigma
    w, weights = hermegauss(200)
    weights = weights / weights.sum()
    q = DiagGaussianParams(mean=np.array([mu]), log_std=np.array([0.5 * math.log(sigma2)]))
    z = (mu + math.sqrt(sigma2) * w)[:, None]
    log_q, stats = families.log_density(q, z, with_stats=True)
    s = families.score(q, stats, 1.0)
    f = log_q - _log_target(z[:, 0])
    ef = weights @ f
    g = (weights * f) @ s
    s2 = s * s
    delta = ((weights * (f - ef)) @ s2) / (weights @ s2)
    he4 = w**4 - 6.0 * w**2 + 3.0
    assert abs(delta[0] - g[1]) <= 1e-12
    assert abs(delta[1] - (2.0 * g[1] + 0.5 * (weights * f) @ he4)) <= 1e-12


def test_logreg_mean_delta_matches_vargrad_log_std_gradient():
    # no oracle: delta_cv_mc's mean block estimates delta_mean = g_logstd,
    # and the leave-one-out replicate means of the log-std block estimate
    # g_logstd, each on its own stream
    model = synth_logreg_dataset(np.random.default_rng(5), 100, 10)
    p = model.dim
    q = DiagGaussianParams(mean=np.zeros(p), log_std=np.full(p, -1.0))
    report = delta_cv_mc(q, model, np.random.default_rng(6), 20_000)
    spec = EstimatorSpec(name="vargrad", tag=VARGRAD_TAG)
    x = replicate_estimates(q, model, np.random.default_rng(7), 4, 20_000, [spec])["vargrad"]
    vargrad = analysis.report_from_estimates(x)
    diff = report.delta_cv[:p] - vargrad.per_coordinate_mean[p:]
    se = np.hypot(report.delta_se[:p], vargrad.mean_standard_errors[p:])
    assert np.all(np.abs(diff) < 4.0 * se)
