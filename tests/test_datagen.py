import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cswa import (CoverageSchedule, Field, Hyperparams, LocalObservations,
                  ParameterError, ParseError, ShapeError, assign_coverage,
                  datagen, generate_lowrank_field, load_field_csv, observe,
                  substream, write_field_csv)
from cswa.datagen import _WORDS_PER_RAW, _lemire, _Words

from conftest import dense_coverage, dense_schedule


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
    assert (dense_coverage(schedule).sum(axis=1) == 1).all()


def test_coverage_count_distribution_uniform():
    # empirical frequency of each k in {1,2,3} within 3 sigma of 1/3
    params = _params(num_participants=100, batch_size=50, window=100,
                     max_subareas=3)
    schedule = assign_coverage(params, 20, substream(42, "coverage"))
    counts = np.bincount(dense_coverage(schedule).sum(axis=1).ravel(), minlength=4)[1:]
    n = counts.sum()
    assert n == 100 * 100
    sigma = np.sqrt((1 / 3) * (2 / 3) / n)
    for k in range(3):
        assert abs(counts[k] / n - 1 / 3) <= 3 * sigma


def test_coverage_union_bounded_by_participants():
    # 10 singleton coverers bound each cycle's union at 10 subareas
    params = _params(num_participants=10, max_subareas=1)
    schedule = assign_coverage(params, 57, substream(5, "coverage"))
    assert (dense_coverage(schedule).any(axis=0).sum(axis=0) <= 10).all()


def test_coverage_sets_within_cap_and_distinct():
    params = _params(max_subareas=3)
    schedule = assign_coverage(params, 12, substream(9, "coverage"))
    assert dense_coverage(schedule).shape == (10, 12, 8)
    counts = dense_coverage(schedule).sum(axis=1)
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
    assert np.array_equal(dense_coverage(a), dense_coverage(b))


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
        assert np.array_equal(dense_coverage(schedule), _scalar_coverage(
            params, subareas, substream(seed, "coverage")))


@pytest.mark.parametrize("m, subareas, window, s",
                         test_coverage_equals_scalar_draws.pytestmark[0].args[1])
def test_coverage_cells_equal_scalar_draws(m, subareas, window, s):
    # the stored form: each participant's cells are the flat indices of
    # its slice of the scalar reference, as read-only strictly increasing
    # integer arrays
    params = _params(num_participants=m, batch_size=1, max_subareas=s,
                     window=window, latent=1)
    schedule = assign_coverage(params, subareas, substream(0, "coverage"))
    reference = _scalar_coverage(params, subareas, substream(0, "coverage"))
    assert (schedule.num_participants, schedule.num_subareas,
            schedule.num_cycles) == reference.shape
    assert len(schedule.cells) == m
    for cells, covered in zip(schedule.cells, reference):
        assert cells.dtype == np.intp and not cells.flags.writeable
        assert np.array_equal(cells, np.flatnonzero(covered))


@pytest.mark.parametrize("subareas, s, seed", [(10001, 201, 2), (10000, 250, 0)])
def test_coverage_equals_scalar_draws_at_the_tail_shuffle_bounds(subareas, s, seed):
    # choice shuffles a tail only when S > 10000 and k > S // 50: seed 2
    # draws a count of exactly 10001 // 50 = 200, and S = 10000 never does
    params = _params(num_participants=3, batch_size=1, max_subareas=s,
                     window=8, latent=1)
    schedule = assign_coverage(params, subareas, substream(seed, "coverage"))
    assert np.array_equal(dense_coverage(schedule), _scalar_coverage(
        params, subareas, substream(seed, "coverage")))
    counts = dense_coverage(schedule).sum(axis=1)
    assert (counts == 200).any() if subareas == 10001 else (counts > 200).any()


@pytest.mark.parametrize("kind", _BIT_GENERATORS)
@pytest.mark.parametrize("m, subareas, window, s",
                         [(6, 30, 8, 5), (2, 4, 3, 4), (2, 10001, 2, 250)])
def test_coverage_equals_scalar_draws_for_every_bit_generator(kind, m, subareas,
                                                              window, s):
    params = _params(num_participants=m, batch_size=1, max_subareas=s,
                     window=window, latent=1)
    schedule = assign_coverage(params, subareas, np.random.Generator(kind(11)))
    assert np.array_equal(dense_coverage(schedule), _scalar_coverage(
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
    assert np.array_equal(dense_coverage(a), dense_coverage(b))


def test_coverage_rejects_unknown_bit_generator():
    class Homemade(np.random.BitGenerator):
        pass

    with pytest.raises(ParameterError, match="Homemade"):
        assign_coverage(_params(), 20, np.random.Generator(Homemade(0)))


def test_schedule_json_round_trip():
    schedule = assign_coverage(_params(), 20, substream(1, "coverage"))
    doc = json.loads(json.dumps(schedule.to_jsonable()))
    assert doc["num_subareas"] == 20
    rebuilt = np.zeros_like(dense_coverage(schedule))
    for j, rows in enumerate(doc["covered"]):
        for t, cells in enumerate(rows):
            rebuilt[j, np.array(cells) - 1, t] = True
    assert np.array_equal(rebuilt, dense_coverage(schedule))


def test_schedule_rejects_empty_cycle():
    covered = np.ones((2, 4, 3), dtype=bool)
    covered[1, :, 2] = False
    with pytest.raises(ParameterError, match="at least one subarea"):
        dense_schedule(covered)


@pytest.mark.parametrize("shape, name", [
    ((0, 3, 4), "cells"), ((2, 0, 4), "num_subareas"), ((2, 3, 0), "num_cycles")],
    ids=["no-participants", "no-subareas", "no-cycles"])
def test_schedule_rejects_empty_dimension(shape, name):
    with pytest.raises(ParameterError, match=name):
        dense_schedule(np.zeros(shape, dtype=bool))


@pytest.mark.parametrize("args, error, name", [
    ((4.0, 3, [[0, 1, 2]]), ParameterError, "num_subareas"),
    ((True, 3, [[0, 1, 2]]), ParameterError, "num_subareas"),
    ((4, -1, [[0, 1, 2]]), ParameterError, "num_cycles"),
    ((4, 3, []), ParameterError, "cells"),
    ((4, 3, [[[0, 1, 2]]]), ShapeError, "cells of participant 1"),
    ((4, 3, [[0, 1, 2], 5]), ShapeError, "cells of participant 2"),
    ((4, 3, [[0.0, 1.0, 2.0]]), ParameterError,
     "cells of participant 1 must be integers"),
    ((4, 3, [[0, 1, 2], [0, 2, 1]]), ParameterError, "cells of participant 2"),
    ((4, 3, [[0, 1, 2], [0, 1, 1, 2]]), ParameterError, "cells of participant 2"),
    ((4, 3, [[-1, 0, 1, 2]]), ParameterError,
     r"cells of participant 1 must lie in \[0, 12\)"),
    ((4, 3, [[0, 1, 12]]), ParameterError,
     r"cells of participant 1 must lie in \[0, 12\)"),
    ((4, 3, [[0, 1, 2], []]), ParameterError, "cells: participant 2"),
    ((4, 3, [[0, 1, 2], [0, 1, 3]]), ParameterError,
     "cells: participant 2 covers no subarea in cycle 3"),
], ids=["float-subareas", "bool-subareas", "negative-cycles", "no-participants",
        "2-D", "0-D", "float-cells", "unsorted", "repeated", "below-range",
        "above-range", "empty-participant", "empty-cycle"])
def test_schedule_rejects_bad_cells(args, error, name):
    with pytest.raises(error, match=name):
        CoverageSchedule(*args)


def test_schedule_is_read_only_copy():
    cells = [np.array([0, 1, 2, 9]), np.array([3, 4, 5])]
    schedule = CoverageSchedule(4, 3, cells)
    cells[0][0] = 6
    assert schedule.cells[0].tolist() == [0, 1, 2, 9]
    for stored in schedule.cells:
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0] = 6


@pytest.mark.parametrize("subareas", [200, 2000])
def test_coverage_memory_follows_the_covered_cells(subareas):
    # wide-network (m=200, W=100, s=10) at S=200, and at 10x the subareas.
    # The cells take about 0.85 MiB: m x W x (s+1)/2 covered cells of 8
    # bytes. The peak is the largest of three phases, none of which grows
    # with S: the draws (the raw-word buffer, m streams x 2s(W+1) words x 4
    # bytes = 1.5 MiB, and the picks, m x W x s x 4 bytes = 0.8 MiB), the
    # marking (the picks, the 1 MiB scratch mask of one chunk of
    # participants and the cells read off it) and the constructor's checks
    # (the cells, their concatenated copy and two temporaries of that size,
    # 3.4 MiB). 6 MiB is that largest phase with room to spare; a dense
    # (m, S, W) mask alone takes m x S x W bytes, 38 MiB at S=2000. What
    # stays is the cells and the schedule's small objects.
    params = _params(num_participants=200, batch_size=1, max_subareas=10,
                     window=100, latent=1)
    rng = substream(5, "coverage")
    tracemalloc.start()
    try:
        schedule = assign_coverage(params, subareas, rng)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cells = sum(c.nbytes for c in schedule.cells)
    assert kept <= 1.25 * cells
    assert peak < 6 * 2**20


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
    schedule = dense_schedule(covered)
    obs = observe(field.values, schedule, 0.5, substream(7, "observe"))
    assert obs[0].r_local[0, 0] != obs[1].r_local[0, 0]


def test_observe_noise_std_matches_sigma():
    # sample std of (observed - true) within 5% of 0.1 over >= 1e4 cells
    rng = np.random.default_rng(0)
    truth = rng.random((30, 30)) + 5.0  # keep far from the clamp at 0
    schedule = dense_schedule(np.ones((12, 30, 30), dtype=bool))
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
    assert np.array_equal(union == 1.0, dense_coverage(schedule).any(axis=0))


def test_observe_emits_non_negative_readings():
    truth = np.full((6, 5), 0.01)  # heavy noise would push below zero
    schedule = dense_schedule(np.ones((3, 6, 5), dtype=bool))
    obs = observe(truth, schedule, 1.0, substream(3, "observe"))
    for o in obs:
        assert (o.r_local >= 0).all()


def test_observe_deterministic():
    _, _, a = _window_schedule_obs(6, 0.1)
    _, _, b = _window_schedule_obs(6, 0.1)
    for x, y in zip(a, b):
        assert np.array_equal(x.r_local, y.r_local)
        assert np.array_equal(x.f_mask, y.f_mask)


@pytest.mark.parametrize("sigma", [0.0, 0.01])
def test_observe_readings_bitwise_match_dense_formula(sigma):
    # the readings are those of mask * max(0, truth + noise) with the noise
    # each participant's stream draws for the whole window; rows of zeros
    # put the clamp at 0 to work
    field = generate_lowrank_field(20, 8, rank=2, seed=5).values.copy()
    field[::3] = 0.0
    schedule = assign_coverage(_params(), 20, substream(5, "coverage"))
    obs = observe(field, schedule, sigma, substream(5, "observe"))
    streams = substream(5, "observe").spawn(schedule.num_participants)
    for o, stream, covered in zip(obs, streams, dense_coverage(schedule)):
        mask = covered.astype(np.float64)
        noise = stream.normal(0.0, sigma, size=field.shape)
        dense = mask * np.maximum(0.0, field + noise)
        assert np.array_equal(o.r_local, dense)
        assert np.array_equal(np.signbit(o.r_local), np.signbit(dense))
        assert np.array_equal(o.f_mask, mask)


def test_observe_stores_no_dense_matrix():
    field = np.arange(40.0).reshape(8, 5)
    covered = np.zeros((3, 8, 5), dtype=bool)
    covered[:, :2] = True
    obs = observe(field, dense_schedule(covered), 0.1, substream(0, "observe"))
    for o in obs:
        stored = [v for v in vars(o).values() if isinstance(v, np.ndarray)]
        assert stored and all(v.size == 10 for v in stored)


def test_observe_allocates_no_dense_array():
    # wide-network shape: an array with an entry per (participant, subarea,
    # cycle) takes at least m x S x W bytes (3.8 MiB); observe holds the
    # readings it returns (0.84 MiB; the cells are the schedule's) and one
    # participant's noise (S x W x 8 bytes) at a time
    m, subareas, window = 200, 200, 100
    params = _params(num_participants=m, batch_size=1, max_subareas=10,
                     window=window, latent=1)
    schedule = assign_coverage(params, subareas, substream(5, "coverage"))
    field = generate_lowrank_field(subareas, window, rank=2, seed=5).values
    tracemalloc.start()
    try:
        observe(field, schedule, 0.01, substream(5, "observe"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * subareas * window


@pytest.mark.parametrize("m, subareas, window, s", [
    (10, 20, 30, 3), (200, 200, 100, 10)], ids=["readme", "wide-network"])
def test_observations_share_the_schedules_cells(m, subareas, window, s):
    params = _params(num_participants=m, batch_size=1, max_subareas=s,
                     window=window, latent=1)
    schedule = assign_coverage(params, subareas, substream(2, "coverage"))
    field = generate_lowrank_field(subareas, window, rank=1, seed=2).values
    obs = observe(field, schedule, 0.01, substream(2, "observe"))
    for o, cells in zip(obs, schedule.cells, strict=True):
        assert np.shares_memory(o.cells, cells)


def test_observe_keeps_the_readings_only():
    # wide-network shape, whose readings take 0.84 MiB at 8 bytes a cell.
    # The cells are intp, 8 bytes a cell too, so a copy of them in every
    # participant's observations would keep 2x the readings' bytes (2.08x
    # measured). Sharing the schedule's cells keeps the readings and, per
    # participant, one LocalObservations and its readings' array header,
    # about 250 bytes each: 1.05-1.06x on seeds 0-2. 1.15x allows 660
    # bytes per participant and stays well below a second copy.
    params = _params(num_participants=200, batch_size=1, max_subareas=10,
                     window=100, latent=1)
    schedule = assign_coverage(params, 200, substream(0, "coverage"))
    field = generate_lowrank_field(200, 100, rank=8, seed=0).values
    tracemalloc.start()
    try:
        obs = observe(field, schedule, 0.01, substream(0, "observe"))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 1.15 * sum(o.readings.nbytes for o in obs)


def test_drawn_cells_and_observed_readings_are_stored_without_a_copy(
        monkeypatch):
    # assign_coverage hands the schedule each participant's cells, and
    # observe hands its observations their readings, as read-only arrays
    # that own their data, so neither constructor copies them
    drawn, observed = [], []
    covered_cells = datagen._covered_cells

    def recording_covered_cells(*args):
        drawn.extend(covered_cells(*args))
        return drawn

    def recording_observations(*args):
        observed.append(args[-1])
        return LocalObservations(*args)

    monkeypatch.setattr(datagen, "_covered_cells", recording_covered_cells)
    monkeypatch.setattr(datagen, "LocalObservations", recording_observations)
    params = _params(num_participants=40, batch_size=1, max_subareas=4,
                     window=30, latent=1)
    schedule = assign_coverage(params, 60, substream(4, "coverage"))
    field = generate_lowrank_field(60, 30, rank=2, seed=4).values
    obs = observe(field, schedule, 0.01, substream(4, "observe"))
    assert len(drawn) == len(observed) == params.num_participants
    for stored, given in zip(schedule.cells, drawn, strict=True):
        assert stored is given and given.base is None
    for o, given in zip(obs, observed, strict=True):
        assert o.readings is given and given.base is None


def _locked(arr):
    arr.setflags(write=False)
    return arr


# each returns the cells to pass and the array that owns their data
_GIVEN = {
    "writable": lambda source: (source, source),
    "int32": lambda source: 2 * (_locked(source.astype(np.int32)),),
    "read-only-view": lambda source: (_locked(source[:]), source),
}


@pytest.mark.parametrize("given", _GIVEN.values(), ids=_GIVEN)
def test_cells_reachable_by_a_writable_array_are_copied(given):
    # cells of another dtype, and cells whose data a writable array can
    # still reach, are copied: a later write to the caller's array leaves
    # the stored cells as they were checked
    cells, owner = given(np.array([0, 1, 2, 9, 10], dtype=np.intp))
    schedule = CoverageSchedule(4, 3, [cells])
    obs = LocalObservations(1, 4, 3, cells, np.ones(5))
    owner.setflags(write=True)
    owner[:] = [11, 10, 9, 8, 7]
    for stored in (schedule.cells[0], obs.cells):
        assert stored.tolist() == [0, 1, 2, 9, 10]
        assert stored.dtype == np.intp and not stored.flags.writeable
        assert not np.shares_memory(stored, owner)


def test_read_only_cells_are_kept():
    # a read-only intp array that owns its data, and a read-only view of
    # one, are stored as given
    cells = np.array([0, 1, 2, 9, 10], dtype=np.intp)
    cells.setflags(write=False)
    for given in (cells, cells[1:]):
        assert CoverageSchedule(4, 3, [cells, given]).cells[1] is given
        assert LocalObservations(1, 4, 3, given, np.ones(given.size)).cells is given


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "0.1"])
def test_observe_rejects_bad_noise_sigma(bad):
    schedule = dense_schedule(np.ones((2, 3, 4), dtype=bool))
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


@pytest.mark.parametrize("text, row", [
    ("subarea,1,2\nA,1,2\n\nB,3,4\n", 3),   # a blank row between two
    ("subarea,1,2\nA,1,2\n\n", 3),           # a trailing blank line
    ("subarea,1,2\n\n", 2)], ids=["between-rows", "trailing", "first-row"])
def test_load_field_csv_names_an_empty_row(tmp_path, text, row):
    path = tmp_path / "field.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=rf"row {row} is empty"):
        load_field_csv(path)


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
