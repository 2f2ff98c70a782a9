"""Variational families: densities, scores, sampling, support enumeration."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from vargrad_lab.families import (
    MAX_ENUM_DIM,
    PROB_EPS,
    DiagGaussianParams,
    MeanFieldBernoulliParams,
    draw,
    gaussian_score_kurtosis_analytic,
    log_density,
    param_labels,
    score,
    support_probs,
    support_states,
)

from oracles import fd_gradient, gauss_expect


def gauss(mean, log_std):
    return DiagGaussianParams(
        mean=np.asarray(mean, dtype=float), log_std=np.asarray(log_std, dtype=float)
    )


def bern(logits):
    return MeanFieldBernoulliParams(logits=np.asarray(logits, dtype=float))


# ---------------------------------------------------------------- parameters


def test_param_containers_expose_shapes_and_labels():
    q = gauss([0.0, 1.0], [0.0, math.log(2.0)])
    assert q.dim == 2 and q.num_params == 4
    np.testing.assert_allclose(q.std, [1.0, 2.0])
    np.testing.assert_allclose(q.var, [1.0, 4.0])
    assert param_labels(q) == ["mean_0", "mean_1", "log_std_0", "log_std_1"]

    b = bern([0.0, 2.0, -1.0])
    assert b.dim == 3 and b.num_params == 3
    assert param_labels(b) == ["logit_0", "logit_1", "logit_2"]


def test_vector_round_trip():
    q = gauss([0.5, -1.0], [0.1, 0.2])
    q2 = DiagGaussianParams.from_vector(q.to_vector())
    np.testing.assert_array_equal(q2.mean, q.mean)
    np.testing.assert_array_equal(q2.log_std, q.log_std)

    b = bern([1.0, -2.0])
    b2 = MeanFieldBernoulliParams.from_vector(b.to_vector())
    np.testing.assert_array_equal(b2.logits, b.logits)


def test_parameter_validation():
    with pytest.raises(ValueError):
        gauss([0.0, 1.0], [0.0])  # mismatched lengths
    with pytest.raises(ValueError):
        gauss([np.nan], [0.0])
    with pytest.raises(ValueError):
        bern([np.inf])


def test_logit_clipping_bounds_probs():
    b = bern([1e4, -1e4])
    assert b.probs[0] == pytest.approx(1.0 - PROB_EPS, rel=1e-9)
    assert b.probs[1] == pytest.approx(PROB_EPS, rel=1e-9)
    assert np.all(np.isfinite(b.clipped_logits))


# -------------------------------------------------------------- log density


def test_gaussian_log_density_matches_hand_values():
    q = gauss([0.0], [0.0])
    assert log_density(q, np.array([0.0])) == pytest.approx(
        -0.5 * math.log(2.0 * math.pi), abs=1e-14
    )
    # independent coordinates add
    q2 = gauss([1.0, 2.0], [0.0, math.log(2.0)])
    want = -0.5 * math.log(2.0 * math.pi) - 0.5 * math.log(2.0 * math.pi * 4.0)
    assert log_density(q2, np.array([1.0, 2.0])) == pytest.approx(want, abs=1e-14)


@given(
    mean=st.floats(-5, 5),
    log_std=st.floats(-2, 2),
    z=st.floats(-8, 8),
)
def test_gaussian_log_density_matches_scipy(mean, log_std, z):
    q = gauss([mean], [log_std])
    want = scipy.stats.norm.logpdf(z, loc=mean, scale=math.exp(log_std))
    assert log_density(q, np.array([z])) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_bernoulli_log_density_values_and_stability():
    b = bern([0.0])
    assert log_density(b, np.array([1.0])) == pytest.approx(math.log(0.5), abs=1e-14)
    assert log_density(b, np.array([0.0])) == pytest.approx(math.log(0.5), abs=1e-14)
    # huge logits stay finite thanks to the probability clamp
    extreme = bern([1e4, -1e4])
    val = log_density(extreme, np.array([0.0, 1.0]))
    assert np.isfinite(val)
    assert val == pytest.approx(2.0 * math.log(PROB_EPS), rel=1e-6)


def test_bernoulli_rejects_non_binary_z():
    with pytest.raises(ValueError):
        log_density(bern([0.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        score(bern([0.0]), np.array([2.0]))


def test_log_density_batches_along_leading_axes():
    q = gauss([0.0, 0.0], [0.0, 0.0])
    z = np.zeros((5, 3, 2))
    out = log_density(q, z)
    assert out.shape == (5, 3)
    np.testing.assert_allclose(out, -math.log(2.0 * math.pi))


def test_gaussian_density_normalises():
    q = gauss([1.0], [math.log(1.5)])
    total = gauss_expect(lambda z: 1.0, 1.0, 1.5**2)
    # direct quadrature of exp(log_density) against the oracle weight
    import scipy.integrate

    val, _ = scipy.integrate.quad(
        lambda z: math.exp(float(log_density(q, np.array([z])))), -14, 16, limit=200
    )
    assert total == pytest.approx(1.0, abs=1e-9)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_bernoulli_probs_normalise_exactly():
    b = bern([0.3, -1.2, 0.7])
    assert support_probs(b).sum() == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------------------- score


def test_score_closed_form_points():
    q = gauss([1.0, -2.0], [0.0, math.log(2.0)])
    s = score(q, q.mean.copy())
    # at z = mean: mean block zero, log-std block -1
    np.testing.assert_allclose(s[:2], 0.0, atol=1e-14)
    np.testing.assert_allclose(s[2:], -1.0, atol=1e-14)

    b = bern([0.0])
    assert score(b, np.array([1.0]))[0] == pytest.approx(0.5, abs=1e-14)
    assert score(b, np.array([0.0]))[0] == pytest.approx(-0.5, abs=1e-14)


@pytest.mark.parametrize(
    "params, z",
    [
        (gauss([0.3, -1.0], [0.2, -0.4]), np.array([1.1, 0.5])),
        (gauss([2.0], [1.0]), np.array([-0.7])),
        (bern([0.4, -1.3]), np.array([1.0, 0.0])),
    ],
    ids=["gauss2", "gauss1", "bern2"],
)
def test_score_matches_finite_differences(params, z):
    cls = type(params)

    def logq_of_phi(phi):
        return float(log_density(cls.from_vector(phi), z))

    want = fd_gradient(logq_of_phi, params.to_vector(), h=1e-5)
    got = score(params, z)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)


def test_score_mean_is_zero_in_expectation():
    rng = np.random.default_rng(11)
    q = gauss([0.5, -0.3], [0.1, 0.6])
    z = draw(q, rng, 200_000)
    s = score(q, z)
    se = s.std(axis=0, ddof=1) / math.sqrt(z.shape[0])
    assert np.all(np.abs(s.mean(axis=0)) < 4.0 * se)

    b = bern([0.7])
    zb = draw(b, rng, 200_000)
    sb = score(b, zb)
    se_b = sb.std(ddof=1) / math.sqrt(zb.shape[0])
    assert abs(sb.mean()) < 4.0 * se_b


def test_score_shape_batches():
    q = gauss([0.0, 0.0], [0.0, 0.0])
    z = np.zeros((7, 2))
    assert score(q, z).shape == (7, 4)


# ----------------------------------------------------------------- sampling


def test_draw_shapes_and_statistics():
    rng = np.random.default_rng(3)
    q = gauss([1.0], [0.0])
    z = draw(q, rng, 100_000)
    assert z.shape == (100_000, 1)
    assert abs(z.mean() - 1.0) < 4.0 / math.sqrt(100_000)
    assert abs(z.std(ddof=1) - 1.0) < 0.02


def test_tiny_scale_collapses_to_mean():
    rng = np.random.default_rng(4)
    q = gauss([2.0, -1.0], [-20.0, -20.0])
    z = draw(q, rng, 1000)
    assert np.max(np.abs(z - q.mean)) < 1e-6


def test_saturated_bernoulli_sampling():
    rng = np.random.default_rng(5)
    b = bern([1e4])
    z = draw(b, rng, 10_000)
    assert set(np.unique(z)) <= {0.0, 1.0}
    assert z.mean() >= 1.0 - 10.0 * PROB_EPS


def test_draw_validates_sample_count():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        draw(gauss([0.0], [0.0]), rng, 0)


# -------------------------------------------------------------- enumeration


def test_enumerate_support_small_cases():
    b = bern([math.log(0.3 / 0.7)])  # theta = 0.3
    np.testing.assert_array_equal(support_states(1), [[0.0], [1.0]])
    np.testing.assert_allclose(support_probs(b), [0.7, 0.3], atol=1e-12)

    b2 = bern([0.0, 0.0])
    probs = support_probs(b2)
    np.testing.assert_allclose(probs, 0.25, atol=1e-12)


def test_support_states_bit_order():
    states = support_states(3)
    assert states.shape == (8, 3)
    # index bit k (least significant first) is coordinate k
    np.testing.assert_array_equal(states[5], [1.0, 0.0, 1.0])


def test_support_probs_match_density():
    b = bern([0.4, -0.9, 1.3])
    probs = support_probs(b)
    for state, p in zip(support_states(3), probs):
        assert math.log(p) == pytest.approx(float(log_density(b, state)), abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_enumeration_dimension_cap():
    with pytest.raises(ValueError):
        support_states(MAX_ENUM_DIM + 1)
    with pytest.raises(ValueError):
        support_probs(bern(np.zeros(MAX_ENUM_DIM + 1)))


# ----------------------------------------------------------------- kurtosis


def test_kurtosis_analytic_values():
    q0 = gauss([0.0, 0.0], [0.3, -0.5])
    np.testing.assert_allclose(
        gaussian_score_kurtosis_analytic(q0), [3.0, 3.0, 15.0, 15.0], atol=1e-12
    )
    q1 = gauss([1.0], [0.0])
    k = gaussian_score_kurtosis_analytic(q1)
    assert k[0] == pytest.approx(3.0, abs=1e-12)
    assert k[1] == pytest.approx(87.0 / 9.0, rel=1e-12)
    # mu = 3, sigma^2 = 3
    q3 = gauss([3.0], [0.5 * math.log(3.0)])
    want = 3.0 * (4 * 81 + 20 * 9 * 3 + 5 * 9) / (2 * 9 + 3) ** 2
    assert gaussian_score_kurtosis_analytic(q3)[1] == pytest.approx(want, rel=1e-12)


def test_kurtosis_second_block_matches_centred_square_statistic():
    # The second block is the kurtosis of z^2 - E[z^2]; verify by simulation
    # at mu = 1, sigma = 1 where it differs from the score's own kurtosis.
    rng = np.random.default_rng(21)
    z = rng.normal(1.0, 1.0, size=1_000_000)
    t = z**2 - (1.0 + 1.0)
    mc = np.mean(t**4) / np.mean(t**2) ** 2
    assert mc == pytest.approx(87.0 / 9.0, rel=0.05)


def test_kurtosis_is_maximised_at_zero_mean():
    for mu in [0.5, 1.0, 3.0]:
        k = gaussian_score_kurtosis_analytic(gauss([mu], [0.2]))
        assert k[1] < 15.0
