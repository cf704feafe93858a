"""Ground-truth fields (synthetic or from CSV), simulated participant
coverage, and noisy local observations.

Everything here is a pure function over an explicit random stream; streams
are split per participant, so neither generation order nor chain execution
order can change what any participant observes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import ParameterError, ParseError, ShapeError
from .model import (Field, Hyperparams, LocalObservations, check_cells,
                    check_type)
from .rng import substream


@dataclass(frozen=True, eq=False)
class CoverageSchedule:
    """Which subareas each participant covers in each cycle of the window.

    ``cells[j-1]`` lists participant j's covered cells as flat indices
    ``a * num_cycles + t`` (subarea a, cycle t, both 0-based), strictly
    increasing: the format :func:`~cswa.model.check_cells` checks, and the
    arrays that ``observe`` hands on as each participant's
    ``LocalObservations.cells``. Every participant covers at least one
    subarea per cycle: a participant that senses nothing in a cycle is not
    modeled.
    """

    num_subareas: int
    num_cycles: int
    cells: tuple = field(repr=False)

    def __post_init__(self):
        for name in ("num_subareas", "num_cycles"):
            check_type(name, getattr(self, name), "int")
            if getattr(self, name) < 1:
                raise ParameterError(
                    f"{name} must be at least 1, got {getattr(self, name)!r}")
            object.__setattr__(self, name, int(getattr(self, name)))
        S, W = self.num_subareas, self.num_cycles
        rows = tuple(check_cells(f"cells of participant {j}", c, S * W)
                     for j, c in enumerate(self.cells, start=1))
        if not rows:
            raise ParameterError("cells must list at least one participant")
        # each cell's (participant j, cycle t) as j * W + t
        pair = np.concatenate(rows) % W
        pair += np.repeat(np.arange(0, len(rows) * W, W), [c.size for c in rows])
        held = np.zeros(len(rows) * W, dtype=bool)
        held[pair] = True
        if not held.all():
            j, t = divmod(int(np.argmin(held)), W)
            raise ParameterError(
                f"cells: participant {j + 1} covers no subarea in cycle "
                f"{t + 1}; every participant must cover at least one subarea "
                "per cycle")
        object.__setattr__(self, "cells", rows)

    @property
    def num_participants(self) -> int:
        return len(self.cells)

    def union_mask(self) -> np.ndarray:
        """0/1 matrix of cells covered by at least one participant."""
        union = np.zeros(self.num_subareas * self.num_cycles)
        union[np.concatenate(self.cells)] = 1.0
        return union.reshape(self.num_subareas, self.num_cycles)

    def to_jsonable(self) -> dict:
        """``covered[j-1][t-1]`` is the ascending list of the 1-based
        subareas participant j covers in cycle t."""
        W = self.num_cycles
        doc = []
        for cells in self.cells:
            cycles = cells % W
            # a stable sort by cycle keeps each cycle's subareas ascending
            subareas = (cells[np.argsort(cycles, kind="stable")] // W + 1).tolist()
            ends = np.cumsum(np.bincount(cycles, minlength=W)).tolist()
            doc.append([subareas[a:b] for a, b in zip([0] + ends, ends)])
        return {"num_subareas": self.num_subareas, "covered": doc}


def generate_lowrank_field(num_subareas: int, num_cycles: int, rank: int,
                           seed: int) -> Field:
    """Synthesize an exact-rank ground truth as a product of two uniform
    [0,1) factors, so it is non-negative without truncation.
    """
    for name, value in (("num_subareas", num_subareas), ("num_cycles", num_cycles),
                        ("rank", rank), ("seed", seed)):
        check_type(name, value, "int")
    if num_subareas < 1 or num_cycles < 1:
        raise ParameterError("field dimensions must be positive")
    if not 1 <= rank <= min(num_subareas, num_cycles):
        raise ParameterError(
            f"rank {rank} must lie in 1..min({num_subareas}, {num_cycles})")
    rng = substream(seed, "lowrank-field")
    left = rng.random((num_subareas, rank))
    right = rng.random((rank, num_cycles))
    return Field(left @ right)


# numpy's bit generators by name (``numpy.random`` is imported on first
# use), each with the number of 32-bit words its ``next_uint32`` takes from
# one value of ``random_raw``: a 64-bit value gives its low half and then
# its high half
_WORDS_PER_RAW = {"PCG64": 2, "PCG64DXSM": 2, "Philox": 2, "SFC64": 2,
                  "MT19937": 1}
_LOW32 = 0xFFFFFFFF
# bytes of the dense mask that resolves Floyd's repeats, for a chunk of
# participants at a time
_SCRATCH_BYTES = 1 << 20


def _lemire(words: np.ndarray, ranges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's bounded draw, as numpy's ``integers`` and ``choice`` apply it
    to 32-bit words, for uint64 ranges below 2**32: word u gives
    ``(u * (r + 1)) >> 32`` in 0..r, and is rejected when the low half of
    ``u * (r + 1)`` is below ``(2**32 - 1 - r) % (r + 1)``. Returns the
    values and the rejected mask; a range of 0 gives 0 and rejects nothing.
    """
    excl = ranges + 1
    scaled = words * excl
    low = scaled & _LOW32
    rejected = low < excl           # the threshold is below r + 1
    if np.count_nonzero(rejected):
        rejected &= low < (_LOW32 - ranges) % excl
    return scaled >> 32, rejected


class _Words:
    """Several streams' 32-bit words in the order numpy's bounded draws
    consume them, read ahead into a buffer with one row per stream."""

    def __init__(self, bit_generators: list, per_raw: int, width: int):
        self.gens = bit_generators
        self.per_raw = per_raw
        # ``random_raw`` values are kept little-endian, so that a 64-bit
        # value reads as its low word and then its high word
        self.raw = np.empty((len(bit_generators), -(-width // per_raw)),
                            "<u8" if per_raw == 2 else "<u4")
        self.words = self.raw.view("<u4")
        # flat index of each row's next unread word; every row starts read
        rows, width = self.words.shape
        self.at = (np.arange(1, rows + 1) * width)[:, None]
        self.left = 0               # unread words in every row, at least

    def draw(self, ranges: np.ndarray) -> np.ndarray:
        """Bounded draws for a (rows, slots) uint64 array of ranges, each
        row in slot order from its own stream: a range of 0 reads no word,
        and a rejected word is skipped, exactly as numpy skips it."""
        # the word each slot reads, counted from its row's next unread
        # word, and last the number of words the row reads
        offsets = np.zeros((ranges.shape[0], ranges.shape[1] + 1), np.intp)
        np.cumsum(ranges > 0, axis=1, out=offsets[:, 1:])
        while True:
            # a slot of range 0 looks at, and ignores, the next unread word,
            # so the buffer holds one word more than the rows read
            need = int(offsets[:, -1].max())
            if need >= self.left:
                self._refill(need)
            at = self.at + offsets
            values, rejected = _lemire(self.words.take(at[:, :-1]), ranges)
            if not np.count_nonzero(rejected):
                break
            # a row's first rejected slot and every later one read one word on
            moved = np.logical_or.accumulate(rejected, axis=1)
            offsets[:, :-1] += moved
            offsets[:, -1] += moved[:, -1]
        self.at = at[:, -1:]
        self.left -= need
        return values

    def _refill(self, need: int) -> None:
        """Move each row's unread words to its front and fill the rest from
        its stream, widening the rows when ``need`` words would not fit."""
        rows, width = self.raw.shape
        per = self.per_raw
        pos = self.at[:, 0] - np.arange(rows) * (width * per)
        start = pos // per          # the first raw value with an unread word
        wide = max(width, need // per + 2)
        raw = self.raw if wide == width else np.empty((rows, wide), self.raw.dtype)
        for row, gen in enumerate(self.gens):
            kept = width - start[row]
            if kept:
                raw[row, :kept] = self.raw[row, start[row]:]
            raw[row, kept:] = gen.random_raw(wide - kept)
        self.raw, self.words = raw, raw.view("<u4")
        skip = pos - start * per    # read words left at the front of a row
        self.at = (np.arange(rows) * (wide * per) + skip)[:, None]
        self.left = wide * per - int(skip.max())


def _cycle_ranges(num_subareas: int, max_subareas: int,
                  counts: np.ndarray) -> np.ndarray:
    """Row i lists the ranges of the draws a cycle with count k = counts[i]
    makes in ``Generator.choice(num_subareas, size=k, replace=False)``,
    zero ranges as padding, and last the range of the next cycle's count.

    ``choice`` takes Floyd's sampling (ranges S-k .. S-1) and then shuffles
    the k picks (ranges k-1 .. 1). For S > 10000 and k > S // 50 it instead
    shuffles the tail of arange(S) (ranges S-1 .. S-k), with no shuffle after.
    """
    S, s = num_subareas, max_subareas
    i = np.arange(2 * s)
    k = np.asarray(counts, np.intp)[:, None]
    ranges = np.where(i < k, i + (S - k), (2 * k - 1) - i)
    np.maximum(ranges, 0, out=ranges)
    if S > 10000:
        tail = (k > S // 50)[:, 0]
        ranges[tail] = np.where(i < k[tail], S - 1 - i, 0)
    ranges[:, -1] = s - 1
    return ranges.view(np.uint64)   # the same values: none is negative


def _draw_cycles(bit_generators: list, per_raw: int, num_subareas: int,
                 window: int, max_subareas: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw every stream's cycles from the 32-bit words that its
    ``integers(1, s + 1)`` and ``choice(S, size=k, replace=False)`` would
    read: the count k, and the k draws ``choice`` makes before any final
    shuffle (Floyd's picks, or the tail shuffle's swap positions). Returns
    the counts, (streams, cycles), and the draws, (streams, cycles, s), of
    which the first k in each cycle are used."""
    m, S, W, s = len(bit_generators), num_subareas, window, max_subareas
    # room for every cycle's words when none is rejected, but in no more
    # than S * W bytes per stream, and for at least one cycle
    width = max(2 * s + 2, min(2 * s * (W + 1), S * W // 4))
    words = _Words(bit_generators, per_raw, width)
    counts = np.empty((m, W), np.intp)
    picks = np.empty((m, W, s), np.uint32)   # every draw is below 2**32
    k = words.draw(np.full((m, 1), s - 1, np.uint64))[:, 0] + 1   # cycle 1's count
    for t in range(W):
        counts[:, t] = k
        values = words.draw(_cycle_ranges(S, s, k))
        picks[:, t] = values[:, :s]
        k = values[:, -1] + 1
    return counts, picks


def assign_coverage(params: Hyperparams, num_subareas: int,
                    rng: np.random.Generator) -> CoverageSchedule:
    """Draw each participant's per-cycle coverage.

    Per (participant, cycle): the covered count k is discrete-uniform on
    {1..s}, then k distinct subareas are chosen uniformly without
    replacement. One child stream per participant, and the schedule is the
    one that child's ``integers(1, s + 1)`` and ``choice(S, size=k,
    replace=False)`` would draw cycle by cycle. The draws are made from the
    children's raw words for all participants at once, one cycle at a time.
    """
    check_type("num_subareas", num_subareas, "int")
    if num_subareas < 1:
        raise ParameterError(f"num_subareas must be at least 1, got {num_subareas!r}")
    if params.max_subareas > num_subareas:
        raise ParameterError(
            f"max_subareas ({params.max_subareas}) exceeds the number of "
            f"subareas ({num_subareas})")
    per_raw = next((n for name, n in _WORDS_PER_RAW.items()
                    if isinstance(rng.bit_generator, getattr(np.random, name))),
                   None)
    if per_raw is None:
        raise ParameterError(
            "coverage draws need one of numpy's bit generators "
            f"({', '.join(_WORDS_PER_RAW)}), got {type(rng.bit_generator).__name__}")
    m, S, W, s = (params.num_participants, int(num_subareas), params.window,
                  params.max_subareas)
    rows = _covered_cells(S, *_draw_cycles(
        [child.bit_generator for child in rng.spawn(m)], per_raw, S, W, s))
    return CoverageSchedule(S, W, rows)


def _covered_cells(num_subareas: int, counts: np.ndarray,
                   picks: np.ndarray) -> list[np.ndarray]:
    """Each participant's covered cells, from the counts and draws that
    :func:`_draw_cycles` returns. Floyd's "already covered?" test reads a
    dense mask, made for as many participants as fit ``_SCRATCH_BYTES`` (one
    at least) at a time; each chunk's cells are read off it before the next.
    Each participant's cells are a read-only array that owns its data, which
    :class:`CoverageSchedule` stores without a copy."""
    m, W, _ = picks.shape
    chunk = max(1, _SCRATCH_BYTES // (num_subareas * W))
    scratch = np.zeros((min(m, chunk), num_subareas * W), dtype=bool)
    positions = np.arange(num_subareas * W, dtype=np.intp)
    rows = []
    for first in range(0, m, chunk):
        if first:
            scratch.fill(False)
        part = slice(first, first + chunk)
        _cover(scratch.reshape(-1), counts[part], picks[part], num_subareas)
        for row in scratch[:len(counts[part])]:
            # a boolean index returns a new array, where nonzero() would
            # return a view of a writable one
            cells = positions[row]
            cells.setflags(write=False)
            rows.append(cells)
    return rows


def _cover(covered: np.ndarray, counts: np.ndarray, picks: np.ndarray,
           num_subareas: int) -> None:
    """Mark in ``covered``, a flat (participants, subareas, cycles) mask
    that is all False, the subareas each (participant, cycle) pair's draws
    choose: ``counts`` is (participants, cycles) and ``picks`` (participants,
    cycles, s), as :func:`_draw_cycles` returns them."""
    n, W, s = picks.shape
    S = num_subareas
    counts, picks = counts.ravel(), picks.reshape(-1, s)
    # each (participant, cycle) pair's flat index of its cell for subarea 0
    base = (np.arange(n)[:, None] * (S * W) + np.arange(W)).ravel()
    tail = (S > 10000) & (counts > S // 50)
    floyd = np.where(tail, 0, counts)
    # Floyd's sampling, for every pair at once: pick i draws from 0..S-k+i
    # and takes S-k+i itself when its draw is already covered. The pairs go
    # by descending count, so those that make pick i are the first sizes[i]
    # (a stable sort of a key of at most 16 bits is numpy's radix sort)
    order = np.argsort((s - floyd).astype(np.min_scalar_type(s)), kind="stable")
    first, last = base[order], (base + (S - counts) * W)[order]  # cells 0, S-k
    sizes = list(accumulate(np.bincount(floyd)[:0:-1].tolist()))[::-1]
    for i, size in enumerate(sizes):
        drawn = first[:size] + np.multiply(picks[order[:size], i], W, dtype=np.intp)
        covered[np.where(covered[drawn], last[:size] + i * W, drawn)] = True
    if S <= 10000:              # choice shuffles a tail only above 10000
        return
    # the tail shuffle swaps position S-1-i with the drawn position, and the
    # subareas it leaves in the last k positions are the covered ones; one
    # cycle's pairs at a time, so the positions take at most n x S entries
    for t in np.flatnonzero(tail.reshape(n, W).any(axis=0)):
        pairs = np.flatnonzero(tail[t::W]) * W + t
        k = counts[pairs]
        shuffled = np.tile(np.arange(S), (pairs.size, 1))
        for i in range(k.max()):
            live = np.flatnonzero(k > i)
            drawn = picks[pairs[live], i]
            held = shuffled[live, drawn]
            shuffled[live, drawn] = shuffled[live, S - 1 - i]
            shuffled[live, S - 1 - i] = held
        r, c = np.nonzero(np.arange(S) >= S - k[:, None])
        covered[base[pairs[r]] + shuffled[r, c] * W] = True


def observe(field_window: np.ndarray, schedule: CoverageSchedule,
            noise_sigma: float, rng: np.random.Generator) -> list[LocalObservations]:
    """Produce each participant's noisy masked readings of the window.

    Covered cells carry max(0, truth + eps) with eps ~ Normal(0, sigma^2)
    drawn independently per (participant, subarea, cycle); two participants
    covering the same cell get independent noise. Each participant's stream
    draws noise for the whole window, so its draws do not depend on its
    coverage; only the covered cells are kept.
    """
    window = np.asarray(field_window, dtype=np.float64)
    if window.ndim != 2:
        raise ShapeError(f"field window must be 2-D, got shape {window.shape}")
    if (schedule.num_subareas, schedule.num_cycles) != window.shape:
        raise ShapeError(
            f"schedule ({schedule.num_subareas}x{schedule.num_cycles}) does "
            f"not match the field window {window.shape}")
    check_type("noise_sigma", noise_sigma, "float")
    if noise_sigma < 0:
        raise ParameterError(f"noise_sigma must be non-negative, got {noise_sigma!r}")
    out = []
    for j, (stream, cells) in enumerate(
            zip(rng.spawn(schedule.num_participants), schedule.cells), start=1):
        noise = stream.normal(0.0, noise_sigma, size=window.shape)
        readings = np.maximum(0.0, window.take(cells) + noise.take(cells))
        readings.setflags(write=False)   # so the observations keep it
        out.append(LocalObservations(j, *window.shape, cells, readings))
    return out


def load_field_csv(path, unit: str = "") -> Field:
    """Parse a ground-truth field CSV.

    Schema: header ``subarea,<cycle_1>,...,<cycle_T>``; one row per subarea;
    every cell present, numeric, and non-negative (pre-shift signed data and
    record the offset in the unit label). Errors name the offending
    row/column.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if len(header) < 2 or header[0] != "subarea":
            raise ParseError(
                f"{path}: header must be 'subarea,<cycle_1>,...', got {header!r}")
        num_cycles = len(header) - 1
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                raise ParseError(f"{path}: row {lineno} is empty")
            if len(row) != num_cycles + 1:
                raise ParseError(
                    f"{path}: row {lineno} has {len(row) - 1} value cells, "
                    f"expected {num_cycles}")
            values = []
            for col, cell in enumerate(row[1:], start=1):
                try:
                    v = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {lineno}, cycle column {col}: "
                        f"non-numeric cell {cell!r}") from None
                if not np.isfinite(v):
                    raise ParseError(
                        f"{path}: row {lineno}, cycle column {col}: "
                        f"non-finite cell {cell!r}")
                if v < 0:
                    raise ParseError(
                        f"{path}: row {lineno}, cycle column {col}: negative "
                        f"value {cell!r}; pre-shift the data to a "
                        "non-negative scale")
                values.append(v)
            rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no subarea rows")
    return Field(np.array(rows), unit=unit)


def write_field_csv(field: Field, path) -> None:
    """Write a field in the CSV schema read by :func:`load_field_csv`.

    Float cells use shortest round-trip formatting, so rewriting the same
    field is byte-identical.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["subarea"] + [str(t) for t in range(1, field.num_cycles + 1)])
        for a in range(field.num_subareas):
            writer.writerow([str(a + 1)] + [repr(float(v)) for v in field.values[a]])
