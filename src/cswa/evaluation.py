"""Error metric, communication accounting, and the experiment sweep harness.

A sweep varies one of the four performance factors (participants m,
coverage cap s, window w, latent size l) over a list of values, running
the chosen methods for each (value, seed) pair on coverage and observations
generated once for that pair. Pairs are independent and may run
concurrently; records come back in a deterministic order.
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from statistics import median

import numpy as np

from .baselines import mean_fill, tsvd_impute
from .datagen import assign_coverage, observe
from .errors import CswaError, ParameterError, ShapeError
from .factorization import solve_centralized
from .model import Field, Hyperparams, build_window, check_type
from .protocol import aggregate_for_baseline, run_simulation
from .rng import substream

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


def build_inputs(field: Field, params: Hyperparams,
                 end_cycle: int | None = None):
    """The ground-truth window ending at ``end_cycle`` (default: the last
    cycle), the coverage schedule and every participant's observations of
    it, drawn from the ``coverage`` and ``observe`` streams of
    ``params.seed``. Returns (window, schedule, observations).

    The one datagen path of ``cswa run`` and of each sweep (value, seed)
    pair. It calls ``assign_coverage`` and ``observe`` through this module,
    where the benchmark's tracer (``bench/run.py``) wraps them.
    """
    params.check_against(field.num_subareas)
    last = field.num_cycles if end_cycle is None else end_cycle
    window = build_window(field, last, params.window)
    schedule = assign_coverage(params, field.num_subareas,
                               substream(params.seed, "coverage"))
    observations = observe(window, schedule, params.noise_sigma,
                           substream(params.seed, "observe"))
    return window, schedule, observations


def _run_cell(spec: SweepSpec, value, seed: int, inputs: tuple,
              method: str) -> SweepRecord:
    """One method on the (params, window, observations, aggregated
    observations) of (value, seed).

    Called once per record, with ``method`` the fifth positional argument:
    the benchmark's tracer (``bench/run.py``) names each cell's span by it.
    """
    params, window, all_obs, aggregated = inputs
    start = time.perf_counter()
    scalars = 0
    if method == "cswa":
        result = run_simulation(all_obs, params)
        recovered = result.recovered
        iterations = sum(result.per_chain_iters)
        scalars = result.scalars_transferred()
    elif method == "centralized":
        factors, iterations = solve_centralized(
            aggregated, params, substream(seed, "centralized"))
        recovered = factors.product()
    elif method == "tsvd":
        impute = tsvd_impute(aggregated, k=params.latent)
        recovered = impute.completed
        iterations = impute.iterations
    elif method == "meanfill":
        recovered = mean_fill(aggregated)
        iterations = 0
    else:
        raise ParameterError(f"unknown method {method!r}")
    wall_ms = (time.perf_counter() - start) * 1e3

    return SweepRecord(spec.axis, value, method, seed,
                       absolute_error(recovered, window), iterations,
                       scalars, wall_ms)


def run_sweep(spec: SweepSpec, field: Field, *, end_cycle: int | None = None,
              max_workers: int = 1) -> list[SweepRecord]:
    """Run every (axis value x seed x method) cell and return records in
    deterministic (value, seed, method) order.

    Cell randomness derives only from the cell's composed parameters, so
    any worker count (or concurrent execution) returns identical records,
    wall time aside. The observations of a (value, seed) pair, and their
    aggregation for the baselines, are built once and shared by all its
    methods, keeping comparisons paired; the pairs are what run
    concurrently.
    """
    check_type("max_workers", max_workers, "int")
    if max_workers < 1:
        raise ParameterError(f"max_workers must be at least 1, got {max_workers}")
    pairs = [(value, seed) for value in spec.values for seed in spec.seeds]

    def run(pair):
        value, seed = pair
        try:
            params = replace(compose_params(spec.base, spec.axis, value),
                             seed=seed)
            window, _, all_obs = build_inputs(field, params, end_cycle)
        except CswaError as err:
            raise ParameterError(
                f"sweep cell {spec.axis}={value!r} seed={seed}: {err}") from err
        inputs = params, window, all_obs, aggregate_for_baseline(all_obs)
        return [_run_cell(spec, value, seed, inputs, method)
                for method in spec.methods]

    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            groups = list(pool.map(run, pairs))
    else:
        groups = [run(pair) for pair in pairs]
    return [record for group in groups for record in group]


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
