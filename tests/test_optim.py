"""SGD on parameter vectors: the step formula, validation and convergence."""

import math

import numpy as np
import pytest

from vargrad_lab.families import DiagGaussianParams
from vargrad_lab.losses import kl_gaussian_closed_form, kl_gaussian_gradient
from vargrad_lab.optim import NonFiniteGradientError, sgd_step
from vargrad_lab.targets import GaussianTarget


TARGET = GaussianTarget(post_mean=np.array([1.0]), post_var=np.array([1.0]))
X0 = DiagGaussianParams(
    mean=np.array([3.0]), log_std=np.array([0.5 * math.log(3.0)])
).to_vector()


def kl_of(x):
    return kl_gaussian_closed_form(DiagGaussianParams.from_vector(x), TARGET)


def grad_of(x):
    return kl_gaussian_gradient(DiagGaussianParams.from_vector(x), TARGET)


# ------------------------------------------------------------------ sgd


def test_sgd_step_formula():
    got = sgd_step(np.array([1.0, -2.0]), np.array([1.0, 1.0]), 0.001)
    np.testing.assert_allclose(got, [0.999, -2.001], atol=1e-15)


def test_sgd_zero_gradient_is_fixed_point():
    x = np.array([3.0, 4.0])
    np.testing.assert_array_equal(sgd_step(x, np.zeros(2), 0.5), x)


def test_sgd_descends_quadratic_monotonically():
    lr = 0.05
    x = X0.copy()
    kls = [kl_of(x)]
    for _ in range(500):
        x = sgd_step(x, grad_of(x), lr)
        kls.append(kl_of(x))
    kls = np.array(kls)
    assert np.all(np.diff(kls) < 1e-15)
    assert kls[-1] < 0.01 * kls[0]


def test_sgd_reaches_optimum_on_quadratic():
    lr = 0.05
    x = X0.copy()
    for _ in range(2000):
        x = sgd_step(x, grad_of(x), lr)
    assert kl_of(x) < 1e-3


# ----------------------------------------------------------- validation


def test_non_finite_gradients_abort():
    with pytest.raises(NonFiniteGradientError) as err:
        sgd_step(np.zeros(2), np.array([np.nan, 1.0]), 0.1)
    assert "non-finite" in str(err.value)
    with pytest.raises(NonFiniteGradientError):
        sgd_step(np.zeros(2), np.array([np.inf, 1.0]), 0.1)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        sgd_step(np.zeros(2), np.zeros(3), 0.1)


def test_non_finite_error_is_runtime_error():
    assert issubclass(NonFiniteGradientError, RuntimeError)
