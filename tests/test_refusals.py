"""Library refusals that no CLI run reaches: each input below is invalid, and
the library raises a named error instead of broadcasting, underflowing or
indexing its way to a wrong answer."""

import numpy as np
import pytest

from vargrad_lab.analysis import exact_kl_and_gradient, replicate_estimates, report_from_estimates
from vargrad_lab.estimators import BatchSums, combine
from vargrad_lab.families import (
    DiagGaussianParams,
    MeanFieldBernoulliParams,
    gaussian_score_kurtosis_analytic,
    log_density,
)
from vargrad_lab.targets import (
    DiscreteToyModel,
    GaussianTarget,
    LogRegModel,
    log_joint,
    synth_logreg_dataset,
)

Q3 = DiagGaussianParams(mean=np.zeros(3), log_std=np.zeros(3))
T3 = GaussianTarget(post_mean=np.zeros(3), post_var=np.ones(3))
# one column where the params have three: numpy would broadcast it to (5, 3)
Z51 = np.zeros((5, 1))
SUMS = BatchSums(np.zeros((1, 2)), np.zeros((1, 1)), np.zeros((1, 2)), 2)

CASES = {
    "log_density-dim": (
        lambda: log_density(Q3, Z51),
        ValueError,
        r"latent dimension mismatch: expected 3, got shape \(5, 1\)",
    ),
    "log_joint-dim": (
        lambda: log_joint(T3, Z51),
        ValueError,
        r"latent dimension mismatch: expected 3, got \(5, 1\)",
    ),
    "gaussian-2d-mean": (
        lambda: DiagGaussianParams(mean=np.zeros((2, 2)), log_std=np.zeros((2, 2))),
        ValueError,
        r"mean must be a 1-D vector, got shape \(2, 2\)",
    ),
    "gaussian-empty": (
        lambda: DiagGaussianParams(mean=np.zeros(0), log_std=np.zeros(0)),
        ValueError,
        "mean must be non-empty",
    ),
    "gaussian-variance-underflow": (
        lambda: DiagGaussianParams(mean=np.zeros(1), log_std=np.array([-373.0])),
        ValueError,
        "log_std too small: the variance underflows to 0",
    ),
    "gaussian-odd-vector": (
        lambda: DiagGaussianParams.from_vector(np.zeros(3)),
        ValueError,
        "phi length must be even, got 3",
    ),
    "gaussian-target-nan": (
        lambda: GaussianTarget(post_mean=np.array([np.nan]), post_var=np.ones(1)),
        ValueError,
        "posterior parameters must be finite",
    ),
    "logreg-1d-x": (
        lambda: LogRegModel(X=np.zeros(4), y=np.zeros(4)),
        ValueError,
        r"X must be N x D, got shape \(4,\)",
    ),
    "toy-inf-entry": (
        lambda: DiscreteToyModel(np.array([0.0, np.inf])),
        ValueError,
        "log_joint_table must be finite everywhere",
    ),
    "synth-logreg-no-data": (
        lambda: synth_logreg_dataset(np.random.default_rng(0), 0, 3),
        ValueError,
        "N and D must be >= 1",
    ),
    "exact-kl-dim": (
        lambda: exact_kl_and_gradient(
            DiscreteToyModel(np.zeros(4)), MeanFieldBernoulliParams(np.zeros(3))
        ),
        ValueError,
        "dimension mismatch: model D=2, params D=3",
    ),
    "replicates-no-samples": (
        lambda: replicate_estimates(Q3, T3, np.random.default_rng(0), 0, 10, []),
        ValueError,
        "S must be >= 1",
    ),
    "report-1d": (
        lambda: report_from_estimates(np.zeros(10)),
        ValueError,
        r"expected an \(R, P\) estimate array",
    ),
    "combine-unknown-tag": (
        lambda: combine(SUMS, "nonsense"),
        ValueError,
        "unknown estimator tag 'nonsense'",
    ),
    "kurtosis-bernoulli": (
        lambda: gaussian_score_kurtosis_analytic(MeanFieldBernoulliParams(np.zeros(2))),
        TypeError,
        "kurtosis formula is defined for the Gaussian family only",
    ),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_library_refuses_invalid_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
