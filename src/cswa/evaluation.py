"""Error metric, communication accounting, and the experiment sweep harness.

A sweep varies one of the four performance factors (participants m,
coverage cap s, window w, latent size l) over a list of values, running
the chosen methods for each (value, seed) pair on coverage and observations
generated once for that pair. Every pair's inputs are built first, the
schedules of pairs that share a window and coverage cap in one stacked
draw. The pairs are then grouped by window shape and latent size, and each
method runs as one stacked call per group (mean fill pair by pair), one
call after another on the calling thread; records come back in a
deterministic order.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import asdict, dataclass, replace
from statistics import median

import numpy as np

from .baselines import mean_fill, tsvd_impute_all
from .datagen import assign_coverage_all, observe
from .errors import CswaError, ParameterError, ShapeError
from .factorization import solve_centralized_all
from .model import Field, Hyperparams, build_window, check_type
from .protocol import aggregate_for_baseline, run_simulation_all
from .rng import substream

# Nothing here calls these one-item forms; the benchmark's tracer
# (bench/run.py) still wraps them by this module's names
from .baselines import tsvd_impute  # noqa: F401
from .datagen import assign_coverage  # noqa: F401
from .factorization import solve_centralized  # noqa: F401
from .protocol import run_simulation  # noqa: F401

METHODS = ("cswa", "centralized", "tsvd", "meanfill")

AXES = {
    "m": "num_participants",
    "s": "max_subareas",
    "w": "window",
    "l": "latent",
}


@dataclass(frozen=True)
class SweepSpec:
    """One axis, its values, the seeds to repeat over, and the methods to
    compare."""

    base: Hyperparams
    axis: str
    values: tuple
    seeds: tuple[int, ...]
    methods: tuple[str, ...]

    def __post_init__(self):
        check_type("sweep.axis", self.axis, "str")
        if self.axis not in AXES:
            raise ParameterError(
                f"sweep.axis must be one of {sorted(AXES)}, got {self.axis!r}")
        for name in ("values", "seeds", "methods"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not value:
                raise ParameterError(
                    f"sweep.{name} must be a non-empty list, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        for seed in self.seeds:
            check_type("sweep.seeds", seed, "int")
        for name in ("values", "seeds", "methods"):
            value = getattr(self, name)
            repeated = [v for i, v in enumerate(value) if v in value[:i]]
            if repeated:
                raise ParameterError(
                    f"sweep.{name} repeats {repeated[0]!r}; each of its "
                    "entries must be distinct")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ParameterError(
                f"sweep.methods has unknown methods {unknown}; choose from {METHODS}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))


@dataclass(frozen=True)
class SweepRecord:
    axis: str
    value: object
    method: str
    seed: int
    abs_error: float
    iterations: int
    scalars: int
    wall_ms: float

    def to_jsonable(self) -> dict:
        return asdict(self)


def absolute_error(recovered: np.ndarray, truth: np.ndarray,
                   where: np.ndarray | None = None) -> float:
    """Mean element-wise absolute difference over all cells (covered and
    uncovered alike). ``where`` restricts the mean to selected cells, which
    is the diagnostic missing-cells-only variant."""
    a = np.asarray(recovered, dtype=np.float64)
    b = np.asarray(truth, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shapes {a.shape} and {b.shape} differ")
    diff = np.abs(a - b)
    if where is None:
        return float(diff.mean())
    sel = np.asarray(where, dtype=bool)
    if sel.shape != a.shape:
        raise ShapeError(f"selection shape {sel.shape} does not match {a.shape}")
    if not sel.any():
        raise ParameterError("selection is empty; no cells to average over")
    return float(diff[sel].mean())


def comm_bound(params: Hyperparams, num_subareas: int) -> int:
    """Worst-case scalar transfers after every chain exhausts its budget,
    excluding the batch_size initialization sends (reported separately)."""
    return ((num_subareas * params.latent + params.latent * params.window)
            * params.max_iters * params.batch_size)


def compose_params(base: Hyperparams, axis: str, value) -> Hyperparams:
    """Set one axis field on the base parameters.

    Sweeping m below the base batch size clamps the batch size to m: a
    batch cannot exceed the population."""
    if axis not in AXES:
        raise ParameterError(f"axis must be one of {sorted(AXES)}, got {axis!r}")
    try:
        fields = {AXES[axis]: value}
        if axis == "m" and base.batch_size > value:
            fields["batch_size"] = value
        return replace(base, **fields)
    except (ParameterError, TypeError) as err:
        raise ParameterError(f"invalid {axis}={value!r} under the base "
                             f"parameters: {err}") from err


def _window(field: Field, params: Hyperparams,
            end_cycle: int | None) -> np.ndarray:
    """The ground-truth window of ``params`` ending at ``end_cycle``
    (default: the last cycle), once ``params`` fits the field."""
    params.check_against(field.num_subareas)
    return build_window(field, field.num_cycles if end_cycle is None
                        else end_cycle, params.window)


def build_inputs(field: Field, params: Hyperparams,
                 end_cycle: int | None = None):
    """The ground-truth window ending at ``end_cycle`` (default: the last
    cycle), the coverage schedule and every participant's observations of
    it, drawn from the ``coverage`` and ``observe`` streams of
    ``params.seed``. Returns (window, schedule, observations).

    The datagen path of ``cswa run``: the one-pair case of
    :func:`build_inputs_all`.
    """
    return build_inputs_all(field, [params], end_cycle)[0]


def build_inputs_all(field: Field, params, end_cycle: int | None = None):
    """:func:`build_inputs` of every parameter set in the sequence
    ``params``, each checked before any is drawn. The schedules of the
    sets that share a window and a coverage cap are drawn in one
    ``assign_coverage_all`` call, each bit for bit what it is alone; the
    observations are drawn set by set, through this module's ``observe``,
    which the benchmark's tracer (``bench/run.py``) wraps.
    """
    windows = [_window(field, p, end_cycle) for p in params]
    groups: dict[tuple, list[int]] = {}
    for index, p in enumerate(params):
        groups.setdefault((p.window, p.max_subareas), []).append(index)
    schedules = [None] * len(params)
    for members in groups.values():
        drawn = assign_coverage_all(
            [params[i] for i in members], field.num_subareas,
            [substream(params[i].seed, "coverage") for i in members])
        for index, schedule in zip(members, drawn):
            schedules[index] = schedule
    return [(window, schedule,
             observe(window, schedule, p.noise_sigma,
                     substream(p.seed, "observe")))
            for p, window, schedule in zip(params, windows, schedules)]


def _run_cell(spec: SweepSpec, value, seed: int, inputs: tuple,
              method: str) -> SweepRecord:
    """A per-pair method, mean fill, on the (params, window, observations,
    aggregated observations) of (value, seed).

    Called once per mean-fill record, with ``method`` the fifth positional
    argument: the benchmark's tracer (``bench/run.py``) names each cell's
    span by it. The stacked methods' records do not pass through here;
    ``run_sweep`` runs them a group of pairs at a time.
    """
    if method != "meanfill":
        raise ParameterError(f"{method!r} is not a per-pair method")
    _, window, _, aggregated = inputs
    start = time.perf_counter()
    recovered = mean_fill(aggregated)
    wall_ms = (time.perf_counter() - start) * 1e3
    return SweepRecord(spec.axis, value, method, seed,
                       absolute_error(recovered, window), 0, 0, wall_ms)


def _run_group(spec: SweepSpec, method: str, group: list) -> list[SweepRecord]:
    """The records of ``method``, one of the stacked methods, for a group
    of (value, seed, inputs) pairs whose windows share one shape and whose
    parameters one latent size, from one stacked call. Each record's
    ``wall_ms`` is the call's time divided by the group's size."""
    params = [inputs[0] for _, _, inputs in group]
    aggregated = [inputs[3] for _, _, inputs in group]
    start = time.perf_counter()
    if method == "cswa":
        outputs = [(result.recovered, sum(result.per_chain_iters),
                    result.scalars_transferred())
                   for result in run_simulation_all(
                       [(inputs[2], inputs[0]) for _, _, inputs in group])]
    elif method == "centralized":
        rngs = [substream(seed, "centralized") for _, seed, _ in group]
        outputs = [(factors.product(), iterations, 0)
                   for factors, iterations
                   in solve_centralized_all(aggregated, params, rngs)]
    else:
        outputs = [(result.completed, result.iterations, 0) for result
                   in tsvd_impute_all(aggregated, k=params[0].latent)]
    wall_ms = (time.perf_counter() - start) * 1e3 / len(group)
    return [SweepRecord(spec.axis, value, method, seed,
                        absolute_error(recovered, inputs[1]), iterations,
                        scalars, wall_ms)
            for (value, seed, inputs), (recovered, iterations, scalars)
            in zip(group, outputs)]


def run_sweep(spec: SweepSpec, field: Field, *, end_cycle: int | None = None,
              max_workers: int = 1) -> list[SweepRecord]:
    """Run every (axis value x seed x method) cell and return records in
    deterministic (value, seed, method) order.

    Every (value, seed) pair's observations, and their aggregation for the
    baselines, are built first, once (``build_inputs_all``), and shared by
    all its methods, keeping comparisons paired. The pairs are then grouped
    by window shape and latent size, and each method, in ``spec.methods``
    order, runs as one stacked call per group (``run_simulation_all``,
    ``solve_centralized_all``, ``tsvd_impute_all``), except mean fill,
    which runs pair by pair. A stacked record's ``wall_ms`` is its group's
    time divided by the group's size. Everything runs on the calling
    thread, one call after another.

    Cell randomness derives only from the cell's composed parameters, and
    each pair's result in a stacked call is bit for bit what it is alone.
    ``max_workers`` is accepted and checked for backward compatibility (at
    least 1) but changes nothing: with every method stacked there is no
    per-pair task left to spread over threads, and a second thread only
    contended for the GIL.
    """
    check_type("max_workers", max_workers, "int")
    if max_workers < 1:
        raise ParameterError(f"max_workers must be at least 1, got {max_workers}")
    cells = []
    for value in spec.values:
        for seed in spec.seeds:
            # each pair is checked here, so that an error names its cell
            try:
                params = replace(compose_params(spec.base, spec.axis, value),
                                 seed=seed)
                _window(field, params, end_cycle)
            except CswaError as err:
                raise ParameterError(f"sweep cell {spec.axis}={value!r} "
                                     f"seed={seed}: {err}") from err
            cells.append((value, seed, params))
    built = build_inputs_all(field, [params for _, _, params in cells],
                             end_cycle)
    pairs = [(value, seed, (params, window, all_obs,
                            aggregate_for_baseline(all_obs)))
             for (value, seed, params), (window, _, all_obs)
             in zip(cells, built)]

    groups: dict[tuple, list[int]] = {}
    for index, (_, _, (params, window, _, _)) in enumerate(pairs):
        groups.setdefault((window.shape, params.latent), []).append(index)
    records: list[dict] = [{} for _ in pairs]
    for method in spec.methods:
        if method == "meanfill":
            for index, pair in enumerate(pairs):
                records[index][method] = _run_cell(spec, *pair, method)
            continue
        for members in groups.values():
            group = _run_group(spec, method, [pairs[i] for i in members])
            for index, record in zip(members, group):
                records[index][method] = record
    return [by_method[method] for by_method in records
            for method in spec.methods]


def median_errors(records: list[SweepRecord]) -> dict[tuple, float]:
    """Median absolute error per (axis value, method), for summary tables."""
    groups: dict[tuple, list[float]] = {}
    for record in records:
        groups.setdefault((record.value, record.method), []).append(record.abs_error)
    return {key: median(errors) for key, errors in groups.items()}


def records_to_csv(records: list[SweepRecord]) -> str:
    """CSV rendering: ``axis,value,method,seed,abs_error,iters,scalars,wall_ms``."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["axis", "value", "method", "seed", "abs_error",
                     "iters", "scalars", "wall_ms"])
    for r in records:
        writer.writerow([r.axis, r.value, r.method, r.seed,
                         repr(float(r.abs_error)), r.iterations, r.scalars,
                         repr(float(r.wall_ms))])
    return out.getvalue()
