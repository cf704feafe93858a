"""Ground-truth fields (synthetic or from CSV), simulated participant
coverage, and noisy local observations.

Everything here is a pure function over an explicit random stream; streams
are split per participant, so neither generation order nor chain execution
order can change what any participant observes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ParseError, ShapeError
from .model import Field, Hyperparams, LocalObservations, check_type
from .rng import substream


@dataclass(frozen=True, eq=False)
class CoverageSchedule:
    """Which subareas each participant covers in each cycle of the window.

    ``covered[j-1, a-1, t-1]`` is True when participant j covers subarea a
    in cycle t: a read-only boolean array of shape (participants, subareas,
    cycles), participant j's slice being its 0/1 filter matrix F. Every
    participant covers at least one subarea per cycle: a participant that
    senses nothing in a cycle is not modeled.
    """

    covered: np.ndarray

    def __post_init__(self):
        covered = np.array(self.covered, dtype=bool)
        if covered.ndim != 3:
            raise ShapeError("covered must be a (participants, subareas, "
                             f"cycles) array, got shape {covered.shape}")
        if not covered.any(axis=1).all():
            raise ParameterError("every participant must cover at least one "
                                 "subarea per cycle")
        covered.setflags(write=False)
        object.__setattr__(self, "covered", covered)

    @property
    def num_participants(self) -> int:
        return self.covered.shape[0]

    @property
    def num_subareas(self) -> int:
        return self.covered.shape[1]

    @property
    def num_cycles(self) -> int:
        return self.covered.shape[2]

    def union_mask(self) -> np.ndarray:
        """0/1 matrix of cells covered by at least one participant."""
        return self.covered.any(axis=0).astype(np.float64)

    def to_jsonable(self) -> dict:
        """``covered[j-1][t-1]`` is the ascending list of the 1-based
        subareas participant j covers in cycle t."""
        subareas = np.arange(1, self.num_subareas + 1)
        return {
            "num_subareas": self.num_subareas,
            "covered": [[subareas[cells].tolist() for cells in rows]
                        for rows in self.covered.transpose(0, 2, 1)],
        }


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
    zero ranges as padding, and last the range of the next cycle's count;
    a count of 0 draws only that next count.

    ``choice`` takes Floyd's sampling (ranges S-k .. S-1) and then shuffles
    the k picks (ranges k-1 .. 1). For S > 10000 and k > S // 50 it instead
    shuffles the tail of arange(S) (ranges S-1 .. S-k), with no shuffle after.
    """
    S, s = num_subareas, max_subareas
    i = np.arange(2 * s)
    k = np.asarray(counts, np.intp)[:, None]
    ranges = np.where(i < k, S - k + i, 2 * k - 1 - i).clip(0)
    if S > 10000:
        tail = (k > S // 50)[:, 0]
        ranges[tail] = np.where(i < k[tail], S - 1 - i, 0)
    ranges[:, -1] = s - 1
    return ranges.astype(np.uint64)


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
    # bytes than covered takes, and for at least one cycle
    width = max(2 * s + 2, min(2 * s * (W + 1), S * W // 4))
    words = _Words(bit_generators, per_raw, width)
    counts = np.empty((m, W), np.intp)
    picks = np.empty((m, W, s), np.intp)
    k = words.draw(_cycle_ranges(S, s, np.zeros(m, np.intp)))[:, -1] + 1
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
    counts, picks = _draw_cycles([child.bit_generator for child in rng.spawn(m)],
                                 per_raw, S, W, s)

    covered = np.zeros((m, S, W), dtype=bool)
    cells = covered.reshape(-1)
    counts, picks = counts.ravel(), picks.reshape(-1, s)
    # each (participant, cycle) pair's flat index of its cell for subarea 0
    base = (np.arange(m)[:, None] * (S * W) + np.arange(W)).ravel()
    tail = (S > 10000) & (counts > S // 50)
    floyd = np.where(tail, 0, counts)
    last = base + (S - counts) * W  # cell S-k of each pair
    # Floyd's sampling, for every pair at once: pick i draws from 0..S-k+i
    # and takes S-k+i itself when its draw is already covered
    for i in range(s):
        live = np.flatnonzero(floyd > i)
        drawn = base[live] + picks[live, i] * W
        cells[np.where(cells[drawn], last[live] + i * W, drawn)] = True
    # the tail shuffle swaps position S-1-i with the drawn position, and the
    # subareas it leaves in the last k positions are the covered ones; one
    # cycle's pairs at a time, so the positions take at most m x S entries
    for t in np.flatnonzero(tail.reshape(m, W).any(axis=0)):
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
        cells[base[pairs[r]] + shuffled[r, c] * W] = True
    return CoverageSchedule(covered)


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
    streams = rng.spawn(schedule.num_participants)
    out = []
    for j, stream in enumerate(streams, start=1):
        noise = stream.normal(0.0, noise_sigma, size=window.shape)
        cells = np.flatnonzero(schedule.covered[j - 1])
        readings = np.maximum(0.0, window.take(cells) + noise.take(cells))
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
