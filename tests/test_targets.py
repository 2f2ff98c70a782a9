"""Target models: log joints, dataset synthesis, exact discrete KL."""

import math

import numpy as np
import pytest
import scipy.special
from scipy.special import expit

from vargrad_lab.analysis import exact_kl_and_gradient
from vargrad_lab.families import (
    DiagGaussianParams,
    MeanFieldBernoulliParams,
    draw,
    log_density,
    support_states,
)
from vargrad_lab.targets import (
    PRIOR_B_VAR,
    PRIOR_W_VAR,
    DiscreteToyModel,
    GaussianTarget,
    LogRegModel,
    log_joint,
    logsumexp,
    synth_logreg_dataset,
)

from oracles import (
    exact_kl_and_gradient_ref,
    fd_gradient,
    gauss_expect,
    logsumexp_ref,
    support_probs_ref,
    ulps_off,
)


# ------------------------------------------------------------- gaussian


def test_gaussian_log_joint_hand_value():
    t = GaussianTarget(post_mean=np.array([0.0]), post_var=np.array([1.0]))
    assert log_joint(t, np.array([0.0])) == pytest.approx(
        -0.5 * math.log(2.0 * math.pi), abs=1e-14
    )


def test_gaussian_log_evidence_shifts_exactly():
    base = GaussianTarget(post_mean=np.array([1.0]), post_var=np.array([2.0]))
    shifted = GaussianTarget(
        post_mean=np.array([1.0]), post_var=np.array([2.0]), log_evidence=7.25
    )
    z = np.array([0.3])
    assert log_joint(shifted, z) - log_joint(base, z) == pytest.approx(7.25, abs=1e-12)


@pytest.mark.parametrize("d", [1, 3])
def test_gaussian_log_joint_at_q_is_log_q_bit_for_bit(d):
    # the posterior and q go through the same Gaussian density, so a target
    # equal to q with log p(x) = 0 reproduces log q exactly on (R, S, D)
    # draws, whether or not the score statistics are kept
    rng = np.random.default_rng(d)
    q = DiagGaussianParams(mean=rng.normal(size=d), log_std=rng.normal(0.0, 0.7, size=d))
    t = GaussianTarget(post_mean=q.mean, post_var=q.var)
    z = draw(q, rng, 5 * 4).reshape(5, 4, d)
    z_before = z.copy()
    lp = log_joint(t, z)
    np.testing.assert_array_equal(lp, log_density(q, z))
    np.testing.assert_array_equal(lp, log_density(q, z, with_stats=True)[0])
    np.testing.assert_array_equal(z, z_before)


def test_gaussian_posterior_normalises_after_evidence_removal():
    t = GaussianTarget(
        post_mean=np.array([0.5]), post_var=np.array([1.7]), log_evidence=-3.0
    )
    total = gauss_expect(
        lambda z: math.exp(float(log_joint(t, np.array([z]))) - t.log_evidence)
        / (
            math.exp(-((z - 0.5) ** 2) / (2 * 1.7))
            / math.sqrt(2 * math.pi * 1.7)
        ),
        0.5,
        1.7,
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_gaussian_target_validation():
    with pytest.raises(ValueError):
        GaussianTarget(post_mean=np.array([0.0]), post_var=np.array([-1.0]))
    with pytest.raises(ValueError):
        GaussianTarget(post_mean=np.array([0.0, 1.0]), post_var=np.array([1.0]))


# ---------------------------------------------------- logistic regression


def _tiny_logreg():
    X = np.array([[0.5], [-0.25], [1.0]])
    y = np.array([1.0, 0.0, 1.0])
    return LogRegModel(X=X, y=y)


def test_logreg_log_joint_at_origin():
    m = _tiny_logreg()
    # every likelihood term is log 1/2 at w = 0, b = 0; priors at their modes
    want = (
        m.n_data * math.log(0.5)
        - 0.5 * m.n_features * math.log(2.0 * math.pi * 25.0)
        - 0.5 * math.log(2.0 * math.pi * 1.0)
    )
    z0 = np.zeros(m.dim)
    assert log_joint(m, z0) == pytest.approx(want, rel=1e-12)


def test_logreg_log_joint_hand_value():
    m = _tiny_logreg()
    w, b = 2.0, -1.0
    eta = m.X[:, 0] * w + b
    loglik = float(np.sum(m.y * np.log(expit(eta)) + (1 - m.y) * np.log(expit(-eta))))
    want = (
        loglik
        - 0.5 * (w**2 / 25.0 + math.log(2.0 * math.pi * 25.0))
        - 0.5 * (b**2 / 1.0 + math.log(2.0 * math.pi * 1.0))
    )
    assert log_joint(m, np.array([w, b])) == pytest.approx(want, rel=1e-12)


def _log_priors(m, w, b):
    d = m.n_features
    log_prior_w = -0.5 * (np.sum(w**2) / PRIOR_W_VAR + d * math.log(2.0 * math.pi * PRIOR_W_VAR))
    log_prior_b = -0.5 * (b**2 / PRIOR_B_VAR + math.log(2.0 * math.pi * PRIOR_B_VAR))
    return log_prior_w + log_prior_b


def test_logreg_log_joint_stable_at_extreme_weights():
    m = _tiny_logreg()
    for w in (1e3, -1e3):
        val = log_joint(m, np.array([w, 0.0]))
        # every |eta| >= 250 here, so log(1 + exp(-|eta|)) vanishes below
        # rounding and the likelihood is exactly y*eta - max(eta, 0)
        eta = m.X[:, 0] * w
        loglik = float(np.sum(m.y * eta - np.maximum(eta, 0.0)))
        assert np.isfinite(val)
        assert val == pytest.approx(loglik + _log_priors(m, np.array([w]), 0.0), rel=1e-12)


def test_logreg_batched_z():
    m = _tiny_logreg()
    z = np.zeros((4, m.dim))
    out = log_joint(m, z)
    assert out.shape == (4,)
    np.testing.assert_allclose(out, log_joint(m, np.zeros(m.dim)))


def test_logreg_batched_z_matches_per_row_reference():
    # a non-zero batch catches a misplaced bias or label term, which the
    # all-zeros batch above cannot
    m = synth_logreg_dataset(np.random.default_rng(23), N=40, D=4)
    z = np.random.default_rng(24).normal(0.0, 1.5, size=(3, 5, m.dim))
    out = log_joint(m, z)
    assert out.shape == (3, 5)
    for idx in np.ndindex(3, 5):
        w, b = z[idx][:-1], z[idx][-1]
        eta = m.X @ w + b
        loglik = float(np.sum(m.y * np.log(expit(eta)) + (1 - m.y) * np.log(expit(-eta))))
        assert out[idx] == pytest.approx(loglik + _log_priors(m, w, b), rel=1e-12)


def _single_pass_log_joint(m, z):
    """The logreg log joint as one pass over every row of z at once, the
    form the row-blocked evaluation must reproduce bit for bit."""
    d = m.n_features
    w, b = z[..., :d], z[..., d:]
    eta = w @ m.X.T
    eta += b
    label = z @ np.append(m.y @ m.X, m.y.sum())
    sp = np.abs(eta)
    np.negative(sp, out=sp)
    np.exp(sp, out=sp)
    np.log1p(sp, out=sp)
    sp += np.maximum(eta, 0.0, out=eta)
    loglik = label - np.sum(sp, axis=-1)
    log_prior_w = -0.5 * np.sum(w**2, axis=-1) / PRIOR_W_VAR - 0.5 * d * np.log(
        2.0 * np.pi * PRIOR_W_VAR
    )
    log_prior_b = -0.5 * b[..., 0] ** 2 / PRIOR_B_VAR - 0.5 * np.log(2.0 * np.pi * PRIOR_B_VAR)
    return loglik + log_prior_w + log_prior_b


@pytest.mark.parametrize("n", [1, 4, 1023, 1024, 1025, 1030, 2049, 2500, 10000, 10007])
def test_logreg_row_blocks_keep_the_single_pass_bits(n):
    # 1030 rows as 1024 + 6 would send the 6-row tail through another BLAS
    # kernel; the remainder joins the last block, so no row's bits move
    m = synth_logreg_dataset(np.random.default_rng(31), N=100, D=50)
    z = np.random.default_rng(n).normal(0.0, 2.0, size=(n, m.dim))
    assert np.array_equal(log_joint(m, z), _single_pass_log_joint(m, z))


def test_logreg_row_blocks_over_several_leading_axes():
    # one BLAS call per row block instead of numpy's stacked matmul, so
    # close rather than equal
    m = synth_logreg_dataset(np.random.default_rng(32), N=100, D=50)
    z = np.random.default_rng(33).normal(0.0, 2.0, size=(3, 700, m.dim))
    out = log_joint(m, z)
    assert out.shape == (3, 700)
    np.testing.assert_allclose(out, _single_pass_log_joint(m, z), rtol=1e-12, atol=0.0)


def test_logreg_validation():
    with pytest.raises(ValueError):
        LogRegModel(X=np.array([[2.0]]), y=np.array([1.0]))  # |x| > 1
    with pytest.raises(ValueError):
        LogRegModel(X=np.array([[0.5]]), y=np.array([0.5]))  # non-binary label
    with pytest.raises(ValueError):
        LogRegModel(X=np.array([[0.5]]), y=np.array([1.0, 0.0]))  # length mismatch


def test_synth_dataset_shapes_and_determinism():
    rng = np.random.default_rng(17)
    m = synth_logreg_dataset(rng, N=50, D=3)
    assert m.X.shape == (50, 3) and m.y.shape == (50,)
    assert np.all(np.abs(m.X) <= 1.0)
    assert set(np.unique(m.y)) <= {0.0, 1.0}

    again = synth_logreg_dataset(np.random.default_rng(17), N=50, D=3)
    np.testing.assert_array_equal(m.X, again.X)
    np.testing.assert_array_equal(m.y, again.y)


def redraw_generator(seed, N, D):
    """X, w and b of synth_logreg_dataset(default_rng(seed), N, D), redrawn in
    its documented order (X, then w ~ N(0, 25 Id), then b ~ N(0, 1)), and the
    generator positioned to draw the labels."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(N, D))
    w = rng.normal(0.0, 5.0, size=D)
    return X, w, float(rng.normal(0.0, 1.0)), rng


def test_synth_dataset_follows_documented_draw_order():
    m = synth_logreg_dataset(np.random.default_rng(19), N=30, D=2)
    X, w, b, rng = redraw_generator(19, 30, 2)
    np.testing.assert_array_equal(m.X, X)
    np.testing.assert_array_equal(m.y, (rng.random(30) < expit(X @ w + b)).astype(float))


def test_synth_dataset_draws_at_the_prior_scales():
    """Replayed with scales sqrt(PRIOR_W_VAR) and sqrt(PRIOR_B_VAR), the
    generator's stream gives the same X, w, b and y bits as synth_logreg_dataset
    and as the documented scales 5 and 1."""
    m = synth_logreg_dataset(np.random.default_rng(37), N=1000, D=3)
    rng = np.random.default_rng(37)
    X = rng.uniform(-1.0, 1.0, size=(1000, 3))
    w = rng.normal(0.0, math.sqrt(PRIOR_W_VAR), size=3)
    b = float(rng.normal(0.0, math.sqrt(PRIOR_B_VAR)))
    y = (rng.random(1000) < expit(X @ w + b)).astype(float)
    X5, w5, b5, _ = redraw_generator(37, 1000, 3)
    assert X.tobytes() == m.X.tobytes() == X5.tobytes()
    assert w.tobytes() == w5.tobytes() and b == b5
    assert y.tobytes() == m.y.tobytes()


def test_synth_dataset_labels_follow_generator():
    m = synth_logreg_dataset(np.random.default_rng(23), N=2000, D=4)
    _, w, b, _ = redraw_generator(23, 2000, 4)
    eta = m.X @ w + b
    rate_pos = m.y[eta > 0].mean()
    rate_neg = m.y[eta < 0].mean()
    assert rate_pos > rate_neg


def test_strong_one_dim_generator_separates_labels():
    # D = 1 with a forced steep generator: labels track the sign of x
    rng = np.random.default_rng(29)
    x = rng.uniform(-1.0, 1.0, size=(1500, 1))
    y = (rng.random(1500) < expit(10.0 * x[:, 0])).astype(float)
    m = LogRegModel(X=x, y=y)
    agree = (m.y == (m.X[:, 0] > 0)).mean()
    assert agree > 0.85


# ------------------------------------------------------------- discrete


def test_from_posterior_recovers_probs_and_evidence():
    table = DiscreteToyModel.from_posterior(np.array([0.2, 0.8])).log_joint_table
    model = DiscreteToyModel(log_joint_table=table + 1.5)
    posterior = np.exp(model.log_joint_table - model.log_evidence)
    np.testing.assert_allclose(posterior, [0.2, 0.8], atol=1e-12)
    assert model.log_evidence == pytest.approx(1.5, abs=1e-12)
    assert model.dim == 1


def test_discrete_log_joint_ratio():
    model = DiscreteToyModel.from_posterior(np.array([0.2, 0.8]))
    diff = log_joint(model, np.array([1.0])) - log_joint(model, np.array([0.0]))
    assert diff == pytest.approx(math.log(4.0), abs=1e-12)


def test_binary_latents_must_be_exactly_zero_or_one():
    # the discrete log joint and the Bernoulli log density share one rule:
    # no rounding, even 1e-10 off {0, 1} is refused
    model = DiscreteToyModel.from_posterior(np.array([0.1, 0.2, 0.3, 0.4]))
    q = MeanFieldBernoulliParams(logits=np.array([0.5, -0.2]))
    for evaluate in (lambda z: log_joint(model, z), lambda z: log_density(q, z)):
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            evaluate(np.array([0.0, 1.0 + 1e-10]))
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            evaluate(np.array([[0.0, 1.0], [1e-10, 0.0]]))
    np.testing.assert_array_equal(log_joint(model, support_states(2)), model.log_joint_table)
    theta = q.probs
    np.testing.assert_allclose(
        log_density(q, np.array([[0.0, 1.0], [1.0, 0.0]])),
        [np.log((1 - theta[0]) * theta[1]), np.log(theta[0] * (1 - theta[1]))],
        rtol=1e-12,
    )


def test_one_latent_gives_the_batched_row_as_a_0d_value():
    # a latent of shape (D,) gives a numpy value of shape (), not a Python
    # float, equal to row 0 of the same latents evaluated as a batch. The
    # logreg row differs in the last bit: a one-row matrix product takes
    # another BLAS kernel (about 2e-16 relative here).
    rng = np.random.default_rng(5)
    z_real = rng.normal(size=(3, 4))
    z_bits = support_states(2)[[3, 1, 2]]
    cases = [
        (log_density, DiagGaussianParams(rng.normal(size=4), rng.normal(size=4)), z_real, 0.0),
        (log_density, MeanFieldBernoulliParams(logits=np.array([0.3, -1.2])), z_bits, 0.0),
        (log_joint, GaussianTarget(np.ones(4), np.full(4, 2.0), 0.5), z_real, 0.0),
        (log_joint, synth_logreg_dataset(np.random.default_rng(3), N=20, D=3), z_real, 1e-15),
        (log_joint, DiscreteToyModel.from_posterior(np.array([0.1, 0.2, 0.3, 0.4])), z_bits, 0.0),
    ]
    for evaluate, model, z, rtol in cases:
        one, batch = evaluate(model, z[0]), evaluate(model, z)
        assert np.shape(one) == () and one.dtype == np.float64
        assert batch.shape == (3,)
        np.testing.assert_allclose(one, batch[0], rtol=rtol, atol=0.0)


def test_discrete_state_indexing_uses_low_bit_first():
    # joint table entry for state (1, 0) sits at index 1, (0, 1) at index 2
    table = np.log(np.array([0.1, 0.2, 0.3, 0.4]))
    model = DiscreteToyModel(log_joint_table=table)
    assert log_joint(model, np.array([1.0, 0.0])) == pytest.approx(math.log(0.2))
    assert log_joint(model, np.array([0.0, 1.0])) == pytest.approx(math.log(0.3))


def test_discrete_model_validation():
    with pytest.raises(ValueError):
        DiscreteToyModel(log_joint_table=np.zeros(3))  # not a power of two
    with pytest.raises(ValueError):
        DiscreteToyModel(log_joint_table=np.zeros(2**21))  # past MAX_ENUM_DIM = 20
    with pytest.raises(ValueError):
        DiscreteToyModel.from_posterior(np.array([0.5, 0.6]))  # not normalised


# ------------------------------------------------- exact KL and gradient


def test_exact_kl_zero_at_posterior():
    model = DiscreteToyModel.from_posterior(np.array([0.2, 0.8]))
    q = MeanFieldBernoulliParams(logits=np.array([math.log(0.8 / 0.2)]))
    kl, grad = exact_kl_and_gradient(model, q)
    assert kl == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)


def test_exact_gradient_hand_value():
    model = DiscreteToyModel.from_posterior(np.array([0.2, 0.8]))
    q = MeanFieldBernoulliParams(logits=np.array([0.0]))
    kl, grad = exact_kl_and_gradient(model, q)
    # direct evaluation: KL = sum_z q log(q / post), d/dlogit via theta (1 - theta)
    want_kl = 0.5 * math.log(0.5 / 0.2) + 0.5 * math.log(0.5 / 0.8)
    want_grad = 0.25 * (math.log(0.5 / 0.8) - math.log(0.5 / 0.2))
    assert kl == pytest.approx(want_kl, rel=1e-12)
    assert grad[0] == pytest.approx(want_grad, rel=1e-12)
    assert grad[0] == pytest.approx(-0.34657359027997264, abs=1e-15)


def test_exact_kl_nonnegative_on_random_settings():
    rng = np.random.default_rng(37)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        probs = rng.dirichlet(np.ones(2**d))
        model = DiscreteToyModel.from_posterior(probs)
        q = MeanFieldBernoulliParams(logits=rng.normal(0.0, 1.5, size=d))
        kl, _ = exact_kl_and_gradient(model, q)
        assert kl >= -1e-12


def test_exact_gradient_matches_finite_differences():
    rng = np.random.default_rng(41)
    model = DiscreteToyModel.from_posterior(rng.dirichlet(np.ones(8)))
    logits = np.array([0.3, -0.8, 1.1])

    def kl_of(logit_vec):
        return exact_kl_and_gradient(
            model, MeanFieldBernoulliParams(logits=logit_vec)
        )[0]

    want = fd_gradient(kl_of, logits, h=1e-6)
    _, got = exact_kl_and_gradient(model, MeanFieldBernoulliParams(logits=logits))
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


def test_exact_kl_uses_enumerated_support_consistently():
    # recompute KL by brute force over states and compare
    table = DiscreteToyModel.from_posterior(np.array([0.1, 0.2, 0.3, 0.4])).log_joint_table
    model = DiscreteToyModel(log_joint_table=table + 0.7)
    q = MeanFieldBernoulliParams(logits=np.array([0.5, -0.2]))
    qz = support_probs_ref(q, support_states(2))
    post = np.exp(model.log_joint_table - model.log_evidence)
    want = float(np.sum(qz * (np.log(qz) - np.log(post))))
    kl, _ = exact_kl_and_gradient(model, q)
    assert kl == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("logits", [[20.0, -30.0, 0.5, 17.0], [40.0, 0.3, -25.0]])
def test_exact_gradient_at_clamped_logits_matches_log_space_enumeration(logits):
    """Where the clamp saturates a logit, 1 - theta is good to about 7
    digits of its 1e-7, so a product of theta and 1 - theta would put the
    weights about 5e-10 off; the weights exp(log q) keep the KL and its
    gradient at the log-space reference's precision."""
    d = len(logits)
    model = DiscreteToyModel(log_joint_table=np.random.default_rng(43 + d).normal(0.0, 1.0, 2**d))
    q = MeanFieldBernoulliParams(logits=np.array(logits))
    kl, grad = exact_kl_and_gradient(model, q)
    want_kl, want_grad = exact_kl_and_gradient_ref(model, q)
    assert kl == pytest.approx(want_kl, rel=1e-12)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=0.0)


# ------------------------------------------------------------- logsumexp


def _normal(rng):
    return rng.normal(0.0, 10.0 ** rng.uniform(-2.0, 4.0), rng.integers(1, 300))


def _max_at_zero(rng):
    # log1p(s) + log(1) + 0 shows every bit of s, so a change in the sum's grouping shows
    a = rng.normal(-8.0, 1.0, rng.integers(2, 300))
    a[rng.integers(a.size)] = 0.0
    return a


def _some_neg_inf(rng):
    a = _normal(rng)
    a[1:][rng.random(a.size - 1) < 0.3] = -np.inf
    return a


def _ten_thousand(rng):
    a = rng.normal(-10.0, 3.0, 10000)
    a[rng.integers(a.size)] = 0.0
    return a


LOGSUMEXP_KINDS = {
    "normal": _normal,
    "max-at-zero": _max_at_zero,
    "some-neg-inf": _some_neg_inf,
    "single": lambda rng: rng.normal(0.0, 100.0, 1),
    "10000": _ten_thousand,
}


@pytest.mark.parametrize("kind", list(LOGSUMEXP_KINDS))
def test_logsumexp_matches_scipy_bit_for_bit(kind):
    # each kind has one largest entry, where scipy's formula is this one
    rng = np.random.default_rng(12)
    for _ in range(100):
        a = LOGSUMEXP_KINDS[kind](rng)
        assert np.array_equal(logsumexp(a), scipy.special.logsumexp(a)), a


def test_logsumexp_with_tied_maxima_is_within_2_ulp_of_exact_arithmetic():
    rng = np.random.default_rng(12)
    for _ in range(100):
        a = rng.normal(-2.0, 1.0, rng.integers(4, 300))
        a[rng.choice(a.size, size=rng.integers(2, 4), replace=False)] = a.max() + rng.uniform(
            0.1, 3.0
        )
        assert ulps_off(logsumexp(a), logsumexp_ref(a)) <= 2.0, a


def test_logsumexp_non_finite_maximum_matches_scipy():
    for a in ([np.inf, 1.0], [-np.inf, -np.inf], [np.nan, 1.0], [np.inf, np.nan]):
        assert np.array_equal(logsumexp(a), scipy.special.logsumexp(a), equal_nan=True), a
