import numpy as np
import pytest

from cswa import (FactorPair, Hyperparams, NumericError,
                  ParameterError, ShapeError, generate_lowrank_field,
                  gradients, init_factors, masked_loss, sgd_step,
                  solve_centralized, substream)
from cswa.evaluation import absolute_error
from cswa.factorization import _pack, _Stack, _unpack, gather_table

from conftest import (dense_observations, finite_difference_grads,
                      random_factors, random_observations,
                      warnings_as_errors)


def hop_each(p, q, observations, reg_p, reg_q, step):
    """One hop of pair i = (p[i], q[i]) on ``observations[i]``, with the
    packed factors and gradients split into (new p, new q, g_p, g_q,
    finite, delta)."""
    s, w = p.shape[1], q.shape[2]
    stack = _Stack(_pack(p, q), gather_table(observations), reg_p, reg_q)
    with np.errstate(over="ignore", invalid="ignore"):
        delta = stack.hop(*stack.gather(np.arange(len(p))), step)
        finite = stack.finite()
    return (*_unpack(stack.x, s, w), *_unpack(stack.g, s, w), finite, delta)


# --- masked_loss ---

def test_loss_zero_on_perfect_fit():
    factors = random_factors(0, num_subareas=5, window=4, latent=2)
    product = factors.product()
    mask = np.ones_like(product)
    obs = dense_observations(1, product, mask)
    assert masked_loss(obs, factors, 0.0, 0.0) == pytest.approx(0.0, abs=1e-24)


def test_loss_reduces_to_regularization_when_unobserved():
    factors = random_factors(1, num_subareas=5, window=4, latent=2)
    obs = dense_observations(1, np.zeros((5, 4)), np.zeros((5, 4)))
    expected = (factors.p ** 2).sum() + (factors.q ** 2).sum()
    assert masked_loss(obs, factors, 1.0, 1.0) == pytest.approx(expected)


def test_loss_hand_case_masked_out_cells_ignored():
    # R=[1 0;0 0], F=[1 0;0 0], P=[1;0], Q=[1 1]: PQ=[1 1;0 0], so the only
    # scored cell fits exactly and the loss is 0
    obs = dense_observations(1, np.array([[1.0, 0.0], [0.0, 0.0]]),
                             np.array([[1.0, 0.0], [0.0, 0.0]]))
    factors = FactorPair(np.array([[1.0], [0.0]]), np.array([[1.0, 1.0]]))
    assert masked_loss(obs, factors, 0.0, 0.0) == pytest.approx(0.0)


def test_loss_shape_mismatch():
    obs = random_observations(0, num_subareas=5, window=4)
    factors = random_factors(0, num_subareas=6, window=4)
    with pytest.raises(ShapeError):
        masked_loss(obs, factors, 0.0, 0.0)


def test_loss_invariant_under_compensating_diagonal_rescale():
    # with no regularization, (P D, D^-1 Q) leaves PQ and hence the loss alone
    obs = random_observations(3, num_subareas=6, window=5)
    factors = random_factors(4, num_subareas=6, window=5, latent=3)
    rng = np.random.default_rng(8)
    for _ in range(10):
        d = rng.uniform(0.2, 5.0, size=3)
        rescaled = FactorPair(factors.p * d, factors.q / d[:, np.newaxis])
        assert masked_loss(obs, rescaled, 0.0, 0.0) == pytest.approx(
            masked_loss(obs, factors, 0.0, 0.0))


# --- gradients ---

def test_gradients_zero_without_data_or_regularization():
    obs = dense_observations(1, np.zeros((5, 4)), np.zeros((5, 4)))
    factors = random_factors(2, num_subareas=5, window=4)
    grads = gradients(obs, factors, 0.0, 0.0)
    assert np.array_equal(grads.g_p, np.zeros((5, 2)))
    assert np.array_equal(grads.g_q, np.zeros((2, 4)))


def test_gradients_regularization_term_alone():
    obs = dense_observations(1, np.zeros((5, 4)), np.zeros((5, 4)))
    factors = random_factors(5, num_subareas=5, window=4)
    grads = gradients(obs, factors, 1.0, 0.0)
    assert np.allclose(grads.g_p, -factors.p)
    assert np.array_equal(grads.g_q, np.zeros((2, 4)))


def test_gradients_match_finite_differences():
    # -2 * g equals the finite-difference gradient of the loss
    obs = random_observations(10, num_subareas=6, window=4)
    factors = random_factors(11, num_subareas=6, window=4, latent=2)
    grads = gradients(obs, factors, 0.05, 0.03)
    fd_p, fd_q = finite_difference_grads(obs, factors, 0.05, 0.03)
    scale = max(np.abs(fd_p).max(), np.abs(fd_q).max())
    assert np.abs(fd_p - (-2.0 * grads.g_p)).max() / scale < 1e-5
    assert np.abs(fd_q - (-2.0 * grads.g_q)).max() / scale < 1e-5


def test_gradients_ignore_masked_out_cells():
    obs = random_observations(12, num_subareas=6, window=4, fill=0.4)
    factors = random_factors(13, num_subareas=6, window=4)
    tampered_values = obs.r_local.copy()
    tampered_values[obs.f_mask == 0.0] = 0.0  # stays zero; build a twin
    twin = dense_observations(1, tampered_values, obs.f_mask)
    g_a = gradients(obs, factors, 0.1, 0.1)
    g_b = gradients(twin, factors, 0.1, 0.1)
    assert np.array_equal(g_a.g_p, g_b.g_p)
    assert np.array_equal(g_a.g_q, g_b.g_q)
    assert masked_loss(obs, factors, 0.1, 0.1) == masked_loss(twin, factors, 0.1, 0.1)


# --- truncation, the last step of every hop ---

def truncate(pair: FactorPair) -> FactorPair:
    """One hop on a participant that covered nothing, without
    regularization: both gradients are 0, so the update is exactly the
    hop's Truncate step."""
    shape = (pair.p.shape[0], pair.q.shape[1])
    nothing = dense_observations(1, np.zeros(shape), np.zeros(shape))
    p, q, *_ = hop_each(pair.p[None], pair.q[None], (nothing,), 0.0, 0.0, 0.5)
    return FactorPair(p[0], q[0])


def test_truncate_definition():
    pair = FactorPair(np.array([[-1.0, 2.0], [0.0, -3.0]]),
                      np.array([[0.5, -0.5], [-2.0, 1.0]]))
    out = truncate(pair)
    assert np.array_equal(out.p, [[0.0, 2.0], [0.0, 0.0]])
    assert np.array_equal(out.q, [[0.5, 0.0], [0.0, 1.0]])


def test_truncate_identity_on_non_negative():
    pair = random_factors(6)
    out = truncate(pair)
    assert np.array_equal(out.p, pair.p)
    assert np.array_equal(out.q, pair.q)


def test_truncate_idempotent_on_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(25):
        pair = FactorPair(rng.normal(size=(4, 2)), rng.normal(size=(2, 5)))
        once = truncate(pair)
        twice = truncate(once)
        assert np.array_equal(once.p, twice.p)
        assert np.array_equal(once.q, twice.q)


# --- sgd_step ---

def test_step_is_fixed_point_at_zero_gradient():
    obs = dense_observations(1, np.zeros((5, 4)), np.zeros((5, 4)))
    factors = random_factors(7, num_subareas=5, window=4)
    stepped, grads = sgd_step(obs, factors, 0.1, 0.0, 0.0)
    assert grads.max_abs() == 0.0
    assert np.array_equal(stepped.p, factors.p)
    assert np.array_equal(stepped.q, factors.q)


def test_step_output_non_negative():
    obs = random_observations(8, num_subareas=6, window=5)
    factors = random_factors(9, num_subareas=6, window=5)
    for _ in range(50):
        factors, _ = sgd_step(obs, factors, 5e-3, 1e-4, 1e-4)
        assert (factors.p >= 0).all() and (factors.q >= 0).all()


def test_step_decreases_loss_at_small_step_size():
    rng = np.random.default_rng(21)
    truth = rng.random((10, 8)) * 2.0
    mask = (rng.random((10, 8)) < 0.7).astype(float)
    obs = dense_observations(1, truth * mask, mask)
    factors = random_factors(22, num_subareas=10, window=8, latent=3)
    loss = masked_loss(obs, factors, 1e-4, 1e-4)
    for _ in range(100):
        factors, _ = sgd_step(obs, factors, 1e-4, 1e-4, 1e-4)
        new_loss = masked_loss(obs, factors, 1e-4, 1e-4)
        assert new_loss <= loss + 1e-12
        loss = new_loss


def test_literal_update_moves_against_the_fit():
    obs = random_observations(30, num_subareas=6, window=5, fill=0.9)
    factors = random_factors(31, num_subareas=6, window=5)
    loss = masked_loss(obs, factors, 0.0, 0.0)
    worse, _ = sgd_step(obs, factors, 1e-3, 0.0, 0.0, literal_update=True)
    assert masked_loss(obs, worse, 0.0, 0.0) > loss


def test_step_divergence_raises_numeric_error():
    # the anti-fit direction grows the factors without bound; the step must
    # fail loudly once entries overflow instead of propagating inf/nan, and
    # without a numpy warning
    obs = random_observations(14, num_subareas=6, window=5, scale=10.0)
    factors = random_factors(15, num_subareas=6, window=5, scale=10.0)
    with warnings_as_errors(), pytest.raises(NumericError):
        for _ in range(10_000):
            factors, _ = sgd_step(obs, factors, 1.0, 0.0, 0.0,
                                  literal_update=True)


# --- _hop: covered-cell evaluation against the dense definition ---

def _dense_hop(p, q, observations, reg_p, reg_q, step):
    """The hop written straight from the module docstring, with the
    residual F o (R - PQ) formed over every cell."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.stack([obs.f_mask * (obs.r_local - pq)
                             for obs, pq in zip(observations, p @ q)])
        g_p = residual @ q.swapaxes(1, 2) - reg_p * p
        g_q = p.swapaxes(1, 2) @ residual - reg_q * q
        # a hop is finite when its update is, before the truncation
        new_p, new_q = p + step * g_p, q + step * g_q
        finite = (np.isfinite(new_p).all(axis=(1, 2))
                  & np.isfinite(new_q).all(axis=(1, 2)))
        new_p, new_q = np.maximum(new_p, 0.0), np.maximum(new_q, 0.0)
        delta = np.maximum(np.abs(g_p).max(axis=(1, 2)),
                           np.abs(g_q).max(axis=(1, 2)))
    return new_p, new_q, g_p, g_q, finite, delta


def _assert_identical(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("seed", range(40))
def test_hop_matches_dense_reference(seed):
    rng = np.random.default_rng(seed)
    n, s, w, l = (int(v) for v in rng.integers(1, [6, 25, 25, 5]))
    observations = []
    for j in range(n):
        # a mix of empty, full and partial coverage within one stack
        fill = (0.0, 1.0, rng.random())[int(rng.integers(0, 3))]
        mask = (rng.random((s, w)) < fill).astype(float)
        observations.append(
            dense_observations(j + 1, mask * rng.random((s, w)) * 3.0, mask))
    p = rng.random((n, s, l)) * (rng.random((n, s, l)) < 0.8)
    q = rng.random((n, l, w)) * (rng.random((n, l, w)) < 0.8)
    for step in (1e-2, -1e-2):
        _assert_identical(hop_each(p, q, observations, 1e-3, 2e-3, step),
                          _dense_hop(p, q, observations, 1e-3, 2e-3, step))


def test_hop_overflow_at_uncovered_cell_is_not_finite():
    # PQ overflows only at cell (0, 0), which pair 0 did not collect: the
    # residual there is 0 * inf = NaN, so the update must not be finite
    mask = np.ones((3, 4))
    mask[0, 0] = 0.0
    observations = [dense_observations(1, mask, mask),
                    dense_observations(2, np.zeros((3, 4)), np.zeros((3, 4)))]
    p = np.ones((2, 3, 2))
    q = np.ones((2, 2, 4))
    p[0, 0, 0] = q[0, 0, 0] = 1e300
    got = hop_each(p, q, observations, 1e-4, 1e-4, 1e-3)
    _assert_identical(got, _dense_hop(p, q, observations, 1e-4, 1e-4, 1e-3))
    assert got[4].tolist() == [False, True]


def test_hop_overflow_truncated_to_zero_is_not_finite():
    # pair 0 covers every cell and its PQ overflows: R - inf is -inf in
    # every cell, and the truncation maps the -inf update to finite zeros,
    # which must still not count as finite
    mask = np.ones((3, 4))
    observations = [dense_observations(1, mask, mask)] * 2
    p = np.ones((2, 3, 2))
    q = np.ones((2, 2, 4))
    p[0] = q[0] = 1e200
    got = hop_each(p, q, observations, 1e-4, 1e-4, 1e-3)
    _assert_identical(got, _dense_hop(p, q, observations, 1e-4, 1e-4, 1e-3))
    assert not got[0][0].any() and not got[1][0].any()
    assert got[4].tolist() == [False, True]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("ids", [[0, 1, 2], [2, 1, 0], [1, 2, 0], [2, 0, 2],
                                 [1]])
def test_hop_reads_padded_table_rows(ids, order):
    # the table pads an empty and a one-cell participant to a full one's
    # width; a stack may read its rows in any order, more than once, or
    # not all of them, and reuses its buffers from hop to hop, whatever
    # the memory order of the rows it is given
    rng = np.random.default_rng(len(ids) * 10 + ids[0])
    s, w, l = 4, 7, 2
    one_cell = np.zeros((s, w))
    one_cell[s - 1, w // 2] = 1.0
    pool = [dense_observations(j + 1, mask * rng.random((s, w)) * 3.0, mask)
            for j, mask in enumerate((np.zeros((s, w)), one_cell,
                                      np.ones((s, w))))]
    p = rng.random((len(ids), s, l))
    q = rng.random((len(ids), l, w))
    stack = _Stack(np.asarray(_pack(p, q), order=order), gather_table(pool),
                   1e-3, 2e-3)
    for step in (1e-2, -1e-2, 1e-2):
        want = _dense_hop(p, q, [pool[i] for i in ids], 1e-3, 2e-3, step)
        delta = stack.hop(*stack.gather(np.array(ids)), step)
        finite = stack.finite()
        _assert_identical((*_unpack(stack.x, s, w), *_unpack(stack.g, s, w),
                           finite, delta), want)
        p, q = want[0], want[1]


def test_finite_tests_agree_on_entries_whose_sum_overflows():
    # every entry is finite but their sum is not: no pair may be reported
    # diverged; an inf or a NaN in one pair marks that pair alone, so the
    # block-wide test, finite().all(), fails
    table = gather_table([dense_observations(1, np.zeros((2, 2)),
                                             np.zeros((2, 2)))])
    stack = _Stack(np.full((3, 8), 1e308), table, 0.0, 0.0)   # 3 pairs, l=2
    with np.errstate(over="ignore"):
        assert not np.isfinite(stack.x.sum())
    assert stack.finite().tolist() == [True] * 3
    for bad in (np.inf, np.nan):
        stack.x[1, 4] = bad
        assert stack.finite().tolist() == [True, False, True]


# --- init_factors ---

def test_init_factors_non_negative_and_shaped():
    pair = init_factors(8, 6, 4, scale=4.0, rng=substream(0, "init"))
    assert pair.p.shape == (8, 4) and pair.q.shape == (4, 6)
    assert (pair.p >= 0).all() and (pair.q >= 0).all()


def test_init_factors_rank_bounds():
    with pytest.raises(ParameterError):
        init_factors(3, 6, 4, scale=1.0, rng=substream(0, "init"))


@pytest.mark.parametrize("name, bad", [
    ("num_subareas", 8.0), ("window", "6"), ("latent", 2.0), ("latent", True),
    ("scale", float("nan")), ("scale", 0.0), ("scale", -1.0)])
def test_init_factors_rejects_bad_arguments(name, bad):
    args = dict(num_subareas=8, window=6, latent=2, scale=1.0)
    args[name] = bad
    with pytest.raises(ParameterError, match=name):
        init_factors(**args, rng=substream(0, "init"))


def test_init_factors_product_magnitude_tracks_scale():
    # E[(PQ)_ij] = scale * (E|N(0,1)|)^2 = scale * 2/pi
    rng = substream(123, "init")
    entries = np.concatenate([
        init_factors(8, 6, 4, scale=4.0, rng=rng).product().ravel()
        for _ in range(250)])
    assert entries.size >= 10_000
    expected = 4.0 * (2.0 / np.pi)
    assert abs(entries.mean() - expected) / expected < 0.10


# --- solve_centralized ---

def _full_observations(field):
    return dense_observations(0, field.values, np.ones_like(field.values))


def test_centralized_recovers_lowrank_field():
    # fixed instance: the sup-norm tail after a 5000-step budget varies by
    # instance (3e-4 .. 3e-2 over seeds); the acceptance suite checks the
    # mean-error rate over 5 seeds, this checks tight fit on one instance
    field = generate_lowrank_field(20, 30, rank=2, seed=4)
    params = Hyperparams(num_participants=2, batch_size=1, max_subareas=1,
                         window=30, latent=2, step_size=1e-3, reg_p=1e-4,
                         reg_q=1e-4, max_iters=5000, seed=4)
    factors, iters = solve_centralized(_full_observations(field), params,
                                       substream(4, "centralized"))
    assert np.abs(field.values - factors.product()).max() < 1e-2
    assert iters <= 5000


def test_centralized_huge_tolerance_stops_after_one_iteration():
    field = generate_lowrank_field(10, 12, rank=2, seed=2)
    params = Hyperparams(num_participants=2, batch_size=1, max_subareas=1,
                         window=12, latent=2, grad_tol=1e9, seed=2)
    _, iters = solve_centralized(_full_observations(field), params,
                                 substream(2, "centralized"))
    assert iters == 1


def test_centralized_divergence_raises_without_warning():
    # a step so large that the first update reaches 1e300 and the second's
    # product overflows; the uncovered cells turn that into NaN, which is
    # reported with its iteration rather than as a numpy warning (with no
    # cell uncovered no NaN appears; see the next test)
    field = generate_lowrank_field(10, 12, rank=2, seed=2)
    mask = np.ones_like(field.values)
    mask[::2, ::3] = 0.0
    params = Hyperparams(num_participants=2, batch_size=1, max_subareas=1,
                         window=12, latent=2, step_size=1e300, grad_tol=0.0,
                         max_iters=20, seed=2)
    with warnings_as_errors(), pytest.raises(NumericError) as excinfo:
        solve_centralized(dense_observations(0, mask * field.values, mask),
                          params, substream(2, "centralized"))
    assert excinfo.value.iteration == 2


def test_centralized_divergence_raises_when_every_cell_is_covered():
    # the same step on the fully covered field: R - inf is -inf in every
    # cell and np.maximum(-inf, 0) is 0, so the factors are finite zeros
    # and only the update shows the overflow
    field = generate_lowrank_field(10, 12, rank=2, seed=2)
    mask = np.ones_like(field.values)
    params = Hyperparams(num_participants=2, batch_size=1, max_subareas=1,
                         window=12, latent=2, step_size=1e300, grad_tol=0.0,
                         max_iters=20, seed=2)
    with warnings_as_errors(), pytest.raises(NumericError):
        solve_centralized(dense_observations(0, field.values, mask), params,
                          substream(2, "centralized"))


def test_centralized_deterministic():
    field = generate_lowrank_field(10, 12, rank=2, seed=3)
    params = Hyperparams(num_participants=2, batch_size=1, max_subareas=1,
                         window=12, latent=2, max_iters=300, seed=3)
    a, _ = solve_centralized(_full_observations(field), params,
                             substream(3, "centralized"))
    b, _ = solve_centralized(_full_observations(field), params,
                             substream(3, "centralized"))
    assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)


def test_centralized_error_metric_on_recovery():
    field = generate_lowrank_field(20, 30, rank=2, seed=4)
    params = Hyperparams(num_participants=2, batch_size=1, max_subareas=1,
                         window=30, latent=2, max_iters=5000, seed=4)
    factors, _ = solve_centralized(_full_observations(field), params,
                                   substream(4, "centralized"))
    assert absolute_error(factors.product(), field.values) < 1e-2
