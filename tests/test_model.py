import numpy as np
import pytest

from cswa import (FactorPair, Field, Hyperparams, ImputeResult,
                  LocalObservations, ParameterError, ShapeError, build_window)
from cswa import protocol

from conftest import dense_observations, dense_schedule


def test_field_rejects_negative_entries():
    with pytest.raises(ParameterError, match="negative"):
        Field(np.array([[1.0, -0.5], [2.0, 3.0]]))


def test_field_rejects_non_finite():
    with pytest.raises(ParameterError):
        Field(np.array([[1.0, np.nan]]))


def test_field_values_are_read_only():
    field = Field(np.ones((2, 3)))
    with pytest.raises(ValueError):
        field.values[0, 0] = 5.0


def test_build_window_identity():
    # end_cycle == |T| and w == |T| returns the full matrix
    field = Field(np.arange(20.0).reshape(2, 10))
    window = build_window(field, end_cycle=10, window=10)
    assert np.array_equal(window, field.values)


def test_build_window_slice():
    # columns c3, c4 of a 5-cycle field
    values = np.array([[1.0, 2.0, 3.0, 4.0, 5.0],
                       [6.0, 7.0, 8.0, 9.0, 10.0]])
    window = build_window(Field(values), end_cycle=4, window=2)
    assert np.array_equal(window, values[:, 2:4])


def test_build_window_57_subareas():
    field = Field(np.ones((57, 30)))
    assert build_window(field, end_cycle=30, window=20).shape == (57, 20)


def test_build_window_out_of_range():
    field = Field(np.ones((3, 5)))
    with pytest.raises(ParameterError):
        build_window(field, end_cycle=6, window=2)
    with pytest.raises(ParameterError):
        build_window(field, end_cycle=2, window=3)


def test_adjacent_windows_concatenate_to_field_slice():
    rng = np.random.default_rng(5)
    field = Field(rng.random((4, 12)))
    left = build_window(field, end_cycle=8, window=3)
    right = build_window(field, end_cycle=12, window=4)
    assert np.array_equal(np.hstack([left, right]), field.values[:, 5:12])


def test_hyperparams_validation():
    good = Hyperparams(num_participants=5, batch_size=3, max_subareas=2,
                       window=6, latent=2)
    assert good.step_size == 1e-3 and good.max_iters == 5000
    with pytest.raises(ParameterError):  # N > m
        Hyperparams(num_participants=3, batch_size=4, max_subareas=2,
                    window=6, latent=2)
    with pytest.raises(ParameterError):  # l > w
        Hyperparams(num_participants=3, batch_size=2, max_subareas=2,
                    window=2, latent=3)
    with pytest.raises(ParameterError):
        Hyperparams(num_participants=0, batch_size=1, max_subareas=1,
                    window=4, latent=1)
    with pytest.raises(ParameterError, match="num_participants"):  # m = 1
        Hyperparams(num_participants=1, batch_size=1, max_subareas=1,
                    window=4, latent=1)
    with pytest.raises(ParameterError):
        Hyperparams(num_participants=3, batch_size=2, max_subareas=2,
                    window=6, latent=2, step_size=0.0)
    base = dict(num_participants=3, batch_size=2, max_subareas=2,
                window=6, latent=2)
    malformed = [("num_participants", True), ("max_iters", 2.7),
                 ("seed", 1.0), ("window", "30")]
    for name in ("step_size", "reg_p", "reg_q", "grad_tol", "noise_sigma"):
        malformed += [(name, float("nan")), (name, float("inf")),
                      (name, "0.1"), (name, True)]
    for name in ("exclude_self", "literal_update", "require_convergence"):
        malformed += [(name, "false"), (name, 0), (name, None)]
    for name, value in malformed:
        with pytest.raises(ParameterError, match=name):
            Hyperparams(**dict(base, **{name: value}))


def test_hyperparams_grad_tol_zero_allowed():
    # 0 means "never converge early"; the worst-case accounting relies on it
    params = Hyperparams(num_participants=3, batch_size=2, max_subareas=2,
                         window=6, latent=2, grad_tol=0.0)
    assert params.grad_tol == 0.0


def test_hyperparams_check_against_subareas():
    params = Hyperparams(num_participants=3, batch_size=2, max_subareas=2,
                         window=6, latent=4)
    with pytest.raises(ParameterError):
        params.check_against(3)  # latent 4 > 3 subareas


@pytest.mark.parametrize("args, error, name", [
    ((-1, 2, 3, [0], [1.0]), ParameterError, "participant_id"),
    ((True, 2, 3, [0], [1.0]), ParameterError, "participant_id"),
    ((1, 0, 3, [], []), ParameterError, "num_subareas"),
    ((1, 2, 2.0, [0], [1.0]), ParameterError, "window"),
    ((1, 2, 3, [3, 1], [1.0, 2.0]), ParameterError, "cells"),
    ((1, 2, 3, [1, 1], [1.0, 2.0]), ParameterError, "cells"),
    ((1, 2, 3, [-1, 2], [1.0, 2.0]), ParameterError, "cells"),
    ((1, 2, 3, [2, 6], [1.0, 2.0]), ParameterError, "cells"),
    ((1, 2, 3, [0.0, 2.0], [1.0, 2.0]), ParameterError, "cells"),
    ((1, 2, 3, [[0, 2]], [[1.0, 2.0]]), ShapeError, "cells"),
    ((1, 2, 3, [0, 2], [1.0]), ShapeError, "readings"),
    ((1, 2, 3, [0, 2], [1.0, np.nan]), ParameterError, "readings"),
    ((1, 2, 3, [0, 2], [np.inf, 1.0]), ParameterError, "readings"),
    ((1, 2, 3, [0, 2], [1.0, -0.5]), ParameterError, "readings"),
], ids=["negative-id", "bool-id", "no-subareas", "float-window", "unsorted",
        "duplicate", "below-range", "above-range", "float-cells", "2-D",
        "length-mismatch", "nan", "inf", "negative-reading"])
def test_local_observations_rejects_bad_input(args, error, name):
    with pytest.raises(error, match=name):
        LocalObservations(*args)


@pytest.mark.parametrize("readings", [["a", "b"], [1.0, None],
                                      [1.0 + 0j, 2.0]],
                         ids=["strings", "none", "complex"])
def test_local_observations_reject_non_numeric_readings(readings):
    with pytest.raises(ParameterError, match="readings"):
        LocalObservations(1, 2, 3, [0, 2], readings)


def test_local_observations_keep_unreachable_readings():
    # read-only float64 readings that own their data, or view an array that
    # does, are stored as given; readings of another dtype, or that a
    # writable array can still reach, are stored as a read-only copy
    locked = np.array([1.0, 2.0, 3.0])
    locked.setflags(write=False)
    for given in (locked, locked[:]):
        assert LocalObservations(1, 2, 3, [0, 2, 4], given).readings is given
    writable = np.array([1.0, 2.0, 3.0])
    for given in (writable, writable[:], locked.astype(np.float32)):
        stored = LocalObservations(1, 2, 3, [0, 2, 4], given).readings
        assert stored.dtype == np.float64 and not stored.flags.writeable
        assert stored.tolist() == [1.0, 2.0, 3.0]
        assert not np.shares_memory(stored, given)


def test_local_observations_store_no_dense_matrix():
    # a participant keeps its covered cells and readings only; the dense
    # views are made on each access, read-only, and match the dense form
    values = np.array([[0.0, 2.0, 0.0, 0.0], [5.0, 0.0, 0.0, 3.0]])
    mask = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0]])
    obs = LocalObservations(1, 2, 4, [1, 4, 7], [2.0, 5.0, 3.0])
    stored = [v for v in vars(obs).values() if isinstance(v, np.ndarray)]
    assert len(stored) == 2
    assert all(arr.ndim == 1 and arr.size == 3 for arr in stored)
    for name, dense in (("r_local", values), ("f_mask", mask)):
        first, second = getattr(obs, name), getattr(obs, name)
        assert first is not second and not np.shares_memory(first, second)
        assert not first.flags.writeable
        assert first.dtype == np.float64 and np.array_equal(first, dense)
        with pytest.raises(AttributeError):
            setattr(obs, name, dense)


def test_local_observations_masking_idempotent():
    mask = np.array([[1.0, 0.0], [0.0, 1.0]])
    values = np.array([[3.0, 0.0], [0.0, 7.0]])
    obs = dense_observations(2, values, mask)
    assert np.array_equal(obs.f_mask * obs.r_local, obs.r_local)


def test_observed_mean():
    obs = dense_observations(1, np.array([[2.0, 0.0], [0.0, 4.0]]),
                             np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert obs.observed_mean() == 3.0
    empty = LocalObservations(1, 2, 2, [], [])
    assert empty.observed_mean() == 0.0


def test_observed_mean_is_bitwise_the_masked_mean():
    rng = np.random.default_rng(0)
    for fill in (0.0, 0.03, 0.3, 0.9, 1.0):
        mask = (rng.random((200, 100)) < fill).astype(float)
        values = mask * rng.random((200, 100)) * 7.0
        obs = dense_observations(1, values, mask)
        expected = float(values[mask == 1].mean()) if fill else 0.0
        assert obs.observed_mean() == expected


def test_local_observations_cache_covered_cells():
    mask = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    values = np.array([[0.0, 2.0, 0.0], [5.0, 0.0, 3.0]])
    obs = dense_observations(1, values, mask)
    assert obs.cells.tolist() == [1, 3, 5]
    assert obs.readings.tolist() == [2.0, 5.0, 3.0]
    assert not obs.cells.flags.writeable and not obs.readings.flags.writeable
    empty = dense_observations(2, np.zeros((2, 3)), np.zeros((2, 3)))
    assert empty.cells.size == 0 and empty.readings.size == 0


def test_factor_pair_shapes_must_agree():
    with pytest.raises(ShapeError):
        FactorPair(np.ones((4, 2)), np.ones((3, 5)))


def test_factor_pair_product_and_scalar_count():
    pair = FactorPair(np.ones((4, 2)), np.ones((2, 5)))
    assert pair.product().shape == (4, 5)
    # a message carrying the pair transfers all its entries
    result = protocol.RunResult(pair.product(), pair.p, pair.q, routes=((1,),),
                                converged_chains=1, config={})
    assert result.scalars_transferred(include_init=False) == pair.p.size + pair.q.size


@pytest.mark.parametrize("make", [
    lambda: Field(np.ones((2, 3))),
    lambda: LocalObservations(1, 2, 3, np.arange(6), np.ones(6)),
    lambda: FactorPair(np.ones((2, 1)), np.ones((1, 3))),
    lambda: dense_schedule(np.ones((2, 2, 3), dtype=bool)),
    lambda: protocol.RunResult(np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 3)),
                               routes=((1,),), converged_chains=1, config={}),
    lambda: ImputeResult(np.ones((2, 3)), iterations=1),
], ids=["Field", "LocalObservations", "FactorPair", "CoverageSchedule",
        "RunResult", "ImputeResult"])
def test_array_holders_compare_by_identity(make):
    # field-wise == on arrays would raise; these compare and hash by identity
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2
