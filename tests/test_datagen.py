import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cswa import (CoverageSchedule, Field, Hyperparams, ParameterError,
                  ParseError, assign_coverage, generate_lowrank_field, load_field_csv,
                  observe, substream, write_field_csv)
from cswa.datagen import _WORDS_PER_RAW, _lemire, _Words


def _params(**overrides):
    base = dict(num_participants=10, batch_size=5, max_subareas=3,
                window=8, latent=2)
    base.update(overrides)
    return Hyperparams(**base)


# --- generate_lowrank_field ---

def test_rank_one_field_is_outer_product():
    field = generate_lowrank_field(2, 2, rank=1, seed=3)
    v = field.values
    # every 2x2 minor of a rank-1 matrix vanishes
    assert v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0] == pytest.approx(0.0, abs=1e-12)


def test_field_generation_deterministic():
    a = generate_lowrank_field(20, 30, rank=2, seed=7)
    b = generate_lowrank_field(20, 30, rank=2, seed=7)
    assert np.array_equal(a.values, b.values)
    c = generate_lowrank_field(20, 30, rank=2, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_generated_field_has_exact_rank():
    field = generate_lowrank_field(20, 30, rank=2, seed=7)
    singular = np.linalg.svd(field.values, compute_uv=False)
    assert (singular > 1e-10).sum() == 2


def test_generated_field_non_negative():
    field = generate_lowrank_field(15, 25, rank=4, seed=1)
    assert (field.values >= 0).all()


def test_rank_too_large_rejected():
    with pytest.raises(ParameterError):
        generate_lowrank_field(5, 8, rank=6, seed=0)


@pytest.mark.parametrize("name, bad", [
    ("num_subareas", 20.0), ("num_subareas", True), ("num_cycles", "30"),
    ("rank", 2.0), ("seed", 1.5), ("seed", True), ("seed", None)])
def test_field_rejects_non_integer_arguments(name, bad):
    args = dict(num_subareas=20, num_cycles=30, rank=2, seed=1)
    args[name] = bad
    with pytest.raises(ParameterError, match=name):
        generate_lowrank_field(**args)


def test_field_accepts_numpy_integers():
    a = generate_lowrank_field(np.int64(20), np.int64(30), rank=np.int64(2),
                               seed=np.int64(7))
    b = generate_lowrank_field(20, 30, rank=2, seed=7)
    assert np.array_equal(a.values, b.values)


# --- assign_coverage ---

def test_coverage_degenerate_single_subarea():
    params = _params(max_subareas=1)
    schedule = assign_coverage(params, 20, substream(0, "coverage"))
    assert (schedule.covered.sum(axis=1) == 1).all()


def test_coverage_count_distribution_uniform():
    # empirical frequency of each k in {1,2,3} within 3 sigma of 1/3
    params = _params(num_participants=100, batch_size=50, window=100,
                     max_subareas=3)
    schedule = assign_coverage(params, 20, substream(42, "coverage"))
    counts = np.bincount(schedule.covered.sum(axis=1).ravel(), minlength=4)[1:]
    n = counts.sum()
    assert n == 100 * 100
    sigma = np.sqrt((1 / 3) * (2 / 3) / n)
    for k in range(3):
        assert abs(counts[k] / n - 1 / 3) <= 3 * sigma


def test_coverage_union_bounded_by_participants():
    # 10 singleton coverers bound each cycle's union at 10 subareas
    params = _params(num_participants=10, max_subareas=1)
    schedule = assign_coverage(params, 57, substream(5, "coverage"))
    assert (schedule.covered.any(axis=0).sum(axis=0) <= 10).all()


def test_coverage_sets_within_cap_and_distinct():
    params = _params(max_subareas=3)
    schedule = assign_coverage(params, 12, substream(9, "coverage"))
    assert schedule.covered.shape == (10, 12, 8)
    counts = schedule.covered.sum(axis=1)
    assert ((1 <= counts) & (counts <= 3)).all()
    # a set per cycle, distinct and within 1..12, as JSON lists too
    for rows in schedule.to_jsonable()["covered"]:
        for cells in rows:
            assert cells == sorted(set(cells))
            assert all(1 <= a <= 12 for a in cells)


def test_coverage_cap_exceeding_subareas_rejected():
    with pytest.raises(ParameterError):
        assign_coverage(_params(max_subareas=30), 20, substream(0, "coverage"))


def test_coverage_deterministic_for_stream():
    params = _params()
    a = assign_coverage(params, 20, substream(3, "coverage"))
    b = assign_coverage(params, 20, substream(3, "coverage"))
    assert np.array_equal(a.covered, b.covered)


def _scalar_coverage(params, num_subareas, rng):
    """The reference schedule: per participant and cycle, one scalar
    ``integers`` for the count and one ``choice`` for the subareas."""
    streams = rng.spawn(params.num_participants)
    covered = np.zeros((params.num_participants, num_subareas, params.window),
                       dtype=bool)
    for j, stream in enumerate(streams):
        for t in range(params.window):
            k = int(stream.integers(1, params.max_subareas + 1))
            covered[j, stream.choice(num_subareas, size=k, replace=False), t] = True
    return covered


_BIT_GENERATORS = [getattr(np.random, name) for name in _WORDS_PER_RAW]


@pytest.mark.parametrize("m, subareas, window, s", [
    (10, 20, 30, 3),            # readme-budget
    (200, 200, 100, 10),        # wide-network
    (4, 40, 10, 3),             # sweep-m, m = 4, 8 and 16
    (8, 40, 10, 3),
    (16, 40, 10, 3),
    (5, 12, 6, 1),              # s = 1: the count takes no word
    (5, 9, 6, 9),               # s = S: the first Floyd range can be 0
    (3, 60, 4, 60),             # s = S, rows of words refilled every cycle
    (2, 7, 1, 3),               # m = 2 and W = 1
    (3, 10001, 3, 250),         # numpy's tail shuffle for k > S // 50
])
def test_coverage_equals_scalar_draws(m, subareas, window, s):
    # the benchmark shapes, the edges of s, and the tail shuffle; every
    # cycle draws its own ranges from the raw words of all participants
    params = _params(num_participants=m, batch_size=1, max_subareas=s,
                     window=window, latent=1)
    for seed in (0, 1):
        schedule = assign_coverage(params, subareas, substream(seed, "coverage"))
        assert np.array_equal(schedule.covered, _scalar_coverage(
            params, subareas, substream(seed, "coverage")))


@pytest.mark.parametrize("subareas, s, seed", [(10001, 201, 2), (10000, 250, 0)])
def test_coverage_equals_scalar_draws_at_the_tail_shuffle_bounds(subareas, s, seed):
    # choice shuffles a tail only when S > 10000 and k > S // 50: seed 2
    # draws a count of exactly 10001 // 50 = 200, and S = 10000 never does
    params = _params(num_participants=3, batch_size=1, max_subareas=s,
                     window=8, latent=1)
    schedule = assign_coverage(params, subareas, substream(seed, "coverage"))
    assert np.array_equal(schedule.covered, _scalar_coverage(
        params, subareas, substream(seed, "coverage")))
    counts = schedule.covered.sum(axis=1)
    assert (counts == 200).any() if subareas == 10001 else (counts > 200).any()


@pytest.mark.parametrize("kind", _BIT_GENERATORS)
@pytest.mark.parametrize("m, subareas, window, s",
                         [(6, 30, 8, 5), (2, 4, 3, 4), (2, 10001, 2, 250)])
def test_coverage_equals_scalar_draws_for_every_bit_generator(kind, m, subareas,
                                                              window, s):
    params = _params(num_participants=m, batch_size=1, max_subareas=s,
                     window=window, latent=1)
    schedule = assign_coverage(params, subareas, np.random.Generator(kind(11)))
    assert np.array_equal(schedule.covered, _scalar_coverage(
        params, subareas, np.random.Generator(kind(11))))


@pytest.mark.parametrize("kind", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("r", [0, 1, 9, 2**31, 3_000_000_000, 2**32 - 2])
def test_bounded_draws_equal_scalar_integers(kind, r):
    # four streams, eight draws each, from rows only two words wide: at
    # r = 2**31 about half the words are rejected, which the coverage
    # shapes never reach, and the rows are refilled and widened mid-draw
    streams = np.random.Generator(kind(5)).spawn(4)
    words = _Words([g.bit_generator for g in streams],
                   _WORDS_PER_RAW[kind.__name__], 2)
    ranges = np.full((4, 8), r, np.uint64)
    values = words.draw(ranges)
    replay = np.random.Generator(kind(5)).spawn(4)
    expected = [[int(g.integers(0, r + 1)) for _ in range(8)] for g in replay]
    assert values.tolist() == expected
    # the words a row read are exactly the words the scalar draws read
    follow = words.draw(ranges[:, :1])[:, 0]
    assert follow.tolist() == [int(g.integers(0, r + 1)) for g in replay]


@pytest.mark.parametrize("kind", [np.random.PCG64, np.random.MT19937])
def test_bounded_draws_mixing_zero_ranges_equal_scalar_integers(kind):
    # zero ranges, which read no word, before, between and after ranges
    # that reject about half their words, in rows two words wide; a row of
    # zero ranges reads nothing, and the second draw goes on from the first
    row = [0, 2**31, 0, 0, 3_000_000_000, 2**31, 0, 3_000_000_000, 0]
    ranges = np.array([row, row[::-1], np.roll(row, 3), [0] * len(row)],
                      np.uint64)
    streams = np.random.Generator(kind(7)).spawn(4)
    words = _Words([g.bit_generator for g in streams],
                   _WORDS_PER_RAW[kind.__name__], 2)
    replay = np.random.Generator(kind(7)).spawn(4)
    for _ in range(2):
        expected = [[int(g.integers(0, int(r) + 1)) for r in slots]
                    for g, slots in zip(replay, ranges)]
        assert words.draw(ranges).tolist() == expected


def test_lemire_rejects_only_below_the_threshold():
    # r = 2**31: the threshold is (2**32 - 1 - r) % (r + 1) = 2**31 - 1, and
    # the low half of u * (2**31 + 1) is u + 2**31 * (u odd) mod 2**32
    words = np.array([2**31 - 2, 2**32 - 1, 2**31 - 1, 0], np.uint32)
    values, rejected = _lemire(words, np.full(4, 2**31, np.uint64))
    assert rejected.tolist() == [True, False, False, True]
    assert values.tolist() == [(int(u) * (2**31 + 1)) >> 32 for u in words]


@pytest.mark.parametrize("bad", [20.0, True, "20", 0, -3])
def test_coverage_rejects_bad_num_subareas(bad):
    with pytest.raises(ParameterError, match="num_subareas"):
        assign_coverage(_params(max_subareas=1), bad, substream(0, "coverage"))


def test_coverage_accepts_numpy_integer_subareas():
    a = assign_coverage(_params(), np.int64(20), substream(4, "coverage"))
    b = assign_coverage(_params(), 20, substream(4, "coverage"))
    assert np.array_equal(a.covered, b.covered)


def test_coverage_rejects_unknown_bit_generator():
    class Homemade(np.random.BitGenerator):
        pass

    with pytest.raises(ParameterError, match="Homemade"):
        assign_coverage(_params(), 20, np.random.Generator(Homemade(0)))


def test_schedule_json_round_trip():
    schedule = assign_coverage(_params(), 20, substream(1, "coverage"))
    doc = json.loads(json.dumps(schedule.to_jsonable()))
    assert doc["num_subareas"] == 20
    rebuilt = np.zeros_like(schedule.covered)
    for j, rows in enumerate(doc["covered"]):
        for t, cells in enumerate(rows):
            rebuilt[j, np.array(cells) - 1, t] = True
    assert np.array_equal(rebuilt, schedule.covered)


def test_schedule_rejects_empty_cycle():
    covered = np.ones((2, 4, 3), dtype=bool)
    covered[1, :, 2] = False
    with pytest.raises(ParameterError, match="at least one subarea"):
        CoverageSchedule(covered)


def test_schedule_is_read_only_copy():
    covered = np.ones((2, 4, 3), dtype=bool)
    schedule = CoverageSchedule(covered)
    covered[0, 0, 0] = False
    assert schedule.covered[0, 0, 0]
    with pytest.raises(ValueError):
        schedule.covered[0, 0, 0] = False


# --- observe ---

def _window_schedule_obs(seed, noise):
    field = generate_lowrank_field(20, 8, rank=2, seed=seed)
    params = _params(noise_sigma=noise)
    schedule = assign_coverage(params, 20, substream(seed, "coverage"))
    obs = observe(field.values, schedule, noise, substream(seed, "observe"))
    return field, schedule, obs


def test_observe_zero_noise_matches_truth():
    field, schedule, obs = _window_schedule_obs(2, 0.0)
    for o in obs:
        covered = o.f_mask == 1.0
        assert np.array_equal(o.r_local[covered], field.values[covered])
        assert (o.r_local[~covered] == 0.0).all()


def test_observe_same_cell_independent_noise():
    field = generate_lowrank_field(4, 3, rank=1, seed=0)
    covered = np.zeros((2, 4, 3), dtype=bool)
    covered[:, 0, :] = True  # both participants cover subarea 1 every cycle
    schedule = CoverageSchedule(covered)
    obs = observe(field.values, schedule, 0.5, substream(7, "observe"))
    assert obs[0].r_local[0, 0] != obs[1].r_local[0, 0]


def test_observe_noise_std_matches_sigma():
    # sample std of (observed - true) within 5% of 0.1 over >= 1e4 cells
    rng = np.random.default_rng(0)
    truth = rng.random((30, 30)) + 5.0  # keep far from the clamp at 0
    schedule = CoverageSchedule(np.ones((12, 30, 30), dtype=bool))
    obs = observe(truth, schedule, 0.1, substream(11, "observe"))
    residuals = np.concatenate([(o.r_local - truth).ravel() for o in obs])
    assert residuals.size >= 10_000
    assert abs(residuals.std() - 0.1) <= 0.005


def test_observe_union_of_masks_matches_schedule():
    _, schedule, obs = _window_schedule_obs(4, 0.05)
    union = np.zeros((20, schedule.num_cycles))
    for o in obs:
        union = np.maximum(union, o.f_mask)
    assert np.array_equal(union, schedule.union_mask())
    assert np.array_equal(union == 1.0, schedule.covered.any(axis=0))


def test_observe_emits_non_negative_readings():
    truth = np.full((6, 5), 0.01)  # heavy noise would push below zero
    schedule = CoverageSchedule(np.ones((3, 6, 5), dtype=bool))
    obs = observe(truth, schedule, 1.0, substream(3, "observe"))
    for o in obs:
        assert (o.r_local >= 0).all()


def test_observe_deterministic():
    _, _, a = _window_schedule_obs(6, 0.1)
    _, _, b = _window_schedule_obs(6, 0.1)
    for x, y in zip(a, b):
        assert np.array_equal(x.r_local, y.r_local)
        assert np.array_equal(x.f_mask, y.f_mask)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "0.1"])
def test_observe_rejects_bad_noise_sigma(bad):
    schedule = CoverageSchedule(np.ones((2, 3, 4), dtype=bool))
    with pytest.raises(ParameterError, match="noise_sigma"):
        observe(np.ones((3, 4)), schedule, bad, substream(0, "observe"))


# --- CSV I/O ---

def test_load_field_csv(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("subarea,1,2,3\nA,1,2,3\nB,4,5,6\n")
    field = load_field_csv(path)
    assert np.array_equal(field.values, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_load_field_csv_negative_cell_named(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("subarea,1,2\nA,1,2\nB,3,-4\n")
    with pytest.raises(ParseError, match=r"row 3, cycle column 2"):
        load_field_csv(path)


def test_load_field_csv_57_rows(tmp_path):
    path = tmp_path / "field.csv"
    rows = ["subarea,1,2"] + [f"{i},1.5,2.5" for i in range(1, 58)]
    path.write_text("\n".join(rows) + "\n")
    assert load_field_csv(path).num_subareas == 57


def test_load_field_csv_malformed(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("cell,1,2\nA,1,2\n")
    with pytest.raises(ParseError, match="header"):
        load_field_csv(bad_header)
    ragged = tmp_path / "b.csv"
    ragged.write_text("subarea,1,2\nA,1\n")
    with pytest.raises(ParseError, match="row 2"):
        load_field_csv(ragged)
    non_numeric = tmp_path / "c.csv"
    non_numeric.write_text("subarea,1\nA,oops\n")
    with pytest.raises(ParseError, match="non-numeric"):
        load_field_csv(non_numeric)


# finite, non-negative cells, with zero, subnormals and values near 1e300
# drawn often enough to appear in every run
_CELLS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1.5e-310, 1e300, 9.999999999999999e299]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=8),
              elements=_CELLS))
def test_field_csv_round_trip(values):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.csv"), Path(tmp, "b.csv")
        write_field_csv(Field(values), first)
        again = load_field_csv(first)
        write_field_csv(again, second)
        assert first.read_bytes() == second.read_bytes()
    assert np.array_equal(values, again.values)
