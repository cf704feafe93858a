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
from .model import Field, Hyperparams, LocalObservations
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

    def mask(self, participant_id: int) -> np.ndarray:
        """0/1 filter matrix for one participant (1-based id)."""
        return self.covered[participant_id - 1].astype(np.float64)

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
    if num_subareas < 1 or num_cycles < 1:
        raise ParameterError("field dimensions must be positive")
    if not 1 <= rank <= min(num_subareas, num_cycles):
        raise ParameterError(
            f"rank {rank} must lie in 1..min({num_subareas}, {num_cycles})")
    rng = substream(seed, "lowrank-field")
    left = rng.random((num_subareas, rank))
    right = rng.random((rank, num_cycles))
    return Field(left @ right)


def assign_coverage(params: Hyperparams, num_subareas: int,
                    rng: np.random.Generator) -> CoverageSchedule:
    """Draw each participant's per-cycle coverage.

    Per (participant, cycle): the covered count k is discrete-uniform on
    {1..s}, then k distinct subareas are chosen uniformly without
    replacement. One child stream per participant.
    """
    if params.max_subareas > num_subareas:
        raise ParameterError(
            f"max_subareas ({params.max_subareas}) exceeds the number of "
            f"subareas ({num_subareas})")
    streams = rng.spawn(params.num_participants)
    covered = np.zeros((params.num_participants, num_subareas, params.window),
                       dtype=bool)
    for j, stream in enumerate(streams):
        for t in range(params.window):
            k = int(stream.integers(1, params.max_subareas + 1))
            covered[j, stream.choice(num_subareas, size=k, replace=False), t] = True
    return CoverageSchedule(covered)


def observe(field_window: np.ndarray, schedule: CoverageSchedule,
            noise_sigma: float, rng: np.random.Generator) -> list[LocalObservations]:
    """Produce each participant's noisy masked readings of the window.

    Covered cells carry max(0, truth + eps) with eps ~ Normal(0, sigma^2)
    drawn independently per (participant, subarea, cycle); two participants
    covering the same cell get independent noise. Masked-out cells are 0.
    """
    window = np.asarray(field_window, dtype=np.float64)
    if window.ndim != 2:
        raise ShapeError(f"field window must be 2-D, got shape {window.shape}")
    if (schedule.num_subareas, schedule.num_cycles) != window.shape:
        raise ShapeError(
            f"schedule ({schedule.num_subareas}x{schedule.num_cycles}) does "
            f"not match the field window {window.shape}")
    if noise_sigma < 0:
        raise ParameterError(f"noise_sigma must be non-negative, got {noise_sigma!r}")
    streams = rng.spawn(schedule.num_participants)
    out = []
    for j, stream in enumerate(streams, start=1):
        mask = schedule.mask(j)
        noise = stream.normal(0.0, noise_sigma, size=window.shape)
        readings = mask * np.maximum(0.0, window + noise)
        out.append(LocalObservations(j, readings, mask))
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
