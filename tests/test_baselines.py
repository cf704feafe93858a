import numpy as np
import pytest

from cswa import ParameterError, generate_lowrank_field, mean_fill, tsvd_impute

from conftest import dense_observations


def _masked_obs(values, mask):
    return dense_observations(0, np.asarray(values) * np.asarray(mask),
                              np.asarray(mask, dtype=float))


# --- tsvd_impute ---

def test_tsvd_identity_on_full_observation():
    rng = np.random.default_rng(0)
    values = rng.random((6, 5)) + 0.5
    obs = _masked_obs(values, np.ones((6, 5)))
    result = tsvd_impute(obs, k=2)
    assert np.array_equal(result.completed, values)
    assert result.iterations == 1


def test_tsvd_recovers_rank_one_missing_cell():
    left = np.array([1.0, 2.0, 3.0, 4.0])
    right = np.array([2.0, 1.0, 0.5, 3.0, 1.5])
    values = np.outer(left, right)
    mask = np.ones_like(values)
    mask[2, 3] = 0.0
    result = tsvd_impute(_masked_obs(values, mask), k=1, max_rounds=500,
                         tol=1e-12)
    truth = values[2, 3]
    assert abs(result.completed[2, 3] - truth) / truth < 1e-6


def test_tsvd_full_rank_reproduces_initial_imputation():
    # with k = min(|S|, w) the SVD rebuild is exact, so round 1 converges
    # and missing cells keep their column-mean initialization
    rng = np.random.default_rng(1)
    values = rng.random((5, 4)) + 1.0
    mask = np.ones((5, 4))
    mask[1, 2] = 0.0
    mask[3, 0] = 0.0
    obs = _masked_obs(values, mask)
    result = tsvd_impute(obs, k=4)
    assert result.iterations == 1
    # independent column-mean oracle
    col_mean_2 = values[:, 2][mask[:, 2] == 1].mean()
    col_mean_0 = values[:, 0][mask[:, 0] == 1].mean()
    assert result.completed[1, 2] == pytest.approx(col_mean_2)
    assert result.completed[3, 0] == pytest.approx(col_mean_0)


def test_tsvd_preserves_observed_cells():
    field = generate_lowrank_field(10, 8, rank=3, seed=2)
    rng = np.random.default_rng(3)
    mask = (rng.random((10, 8)) < 0.6).astype(float)
    obs = _masked_obs(field.values, mask)
    result = tsvd_impute(obs, k=3)
    observed = mask == 1.0
    assert np.array_equal(result.completed[observed], field.values[observed])


def test_tsvd_exact_on_lowrank_full_coverage():
    field = generate_lowrank_field(9, 7, rank=2, seed=6)
    obs = _masked_obs(field.values, np.ones((9, 7)))
    result = tsvd_impute(obs, k=2)
    assert np.allclose(result.completed, field.values, atol=1e-12)


def test_tsvd_missing_cells_clamped_non_negative():
    # arrange a matrix whose rank-1 extrapolation would go negative
    values = np.array([[1.0, 0.1], [0.1, 1.0]])
    mask = np.array([[1.0, 1.0], [1.0, 0.0]])
    result = tsvd_impute(_masked_obs(values, mask), k=1, max_rounds=50)
    assert (result.completed >= 0.0).all()


def test_tsvd_parameter_validation():
    obs = _masked_obs(np.ones((4, 3)), np.ones((4, 3)))
    with pytest.raises(ParameterError):
        tsvd_impute(obs, k=0)
    with pytest.raises(ParameterError):
        tsvd_impute(obs, k=4)
    empty = dense_observations(0, np.zeros((4, 3)), np.zeros((4, 3)))
    with pytest.raises(ParameterError):
        tsvd_impute(empty, k=1)


@pytest.mark.parametrize("name, bad", [
    ("k", True), ("k", 1.5), ("k", "2"), ("max_rounds", 2.5),
    ("max_rounds", 0), ("tol", float("nan")), ("tol", float("inf")),
    ("tol", -1.0), ("tol", None)])
def test_tsvd_rejects_bad_argument_naming_it(name, bad):
    # a bool is no rank, a fraction no count, and a NaN or negative
    # tolerance would never stop the loop before its round cap
    obs = _masked_obs(np.ones((4, 3)), np.ones((4, 3)))
    with pytest.raises(ParameterError, match=rf"^{name} must"):
        tsvd_impute(obs, **dict({"k": 1}, **{name: bad}))


# --- mean_fill ---

def test_mean_fill_identity_on_full_observation():
    rng = np.random.default_rng(7)
    values = rng.random((5, 6))
    obs = _masked_obs(values, np.ones((5, 6)))
    assert np.array_equal(mean_fill(obs), values)


def test_mean_fill_row_mean():
    values = np.array([[2.0, 0.0, 4.0]])
    mask = np.array([[1.0, 0.0, 1.0]])
    filled = mean_fill(_masked_obs(values, mask))
    assert filled[0, 1] == 3.0
    assert filled[0, 0] == 2.0 and filled[0, 2] == 4.0


def test_mean_fill_empty_row_uses_global_mean():
    values = np.array([[7.0, 7.0], [0.0, 0.0]])
    mask = np.array([[1.0, 1.0], [0.0, 0.0]])
    filled = mean_fill(_masked_obs(values, mask))
    assert np.array_equal(filled[1], [7.0, 7.0])


def test_mean_fill_requires_observed_cells():
    empty = dense_observations(0, np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(ParameterError):
        mean_fill(empty)


def test_mean_fill_preserves_observed_cells():
    field = generate_lowrank_field(8, 6, rank=2, seed=8)
    rng = np.random.default_rng(9)
    mask = (rng.random((8, 6)) < 0.5).astype(float)
    mask[0, 0] = 1.0
    obs = _masked_obs(field.values, mask)
    filled = mean_fill(obs)
    observed = mask == 1.0
    assert np.array_equal(filled[observed], field.values[observed])
