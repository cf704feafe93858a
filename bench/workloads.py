"""The benchmark's workloads: how each builds its inputs from a seed, what one
job runs, and which checks every job's output must pass.

Every call into the package goes through a module attribute
(``protocol.run_simulation``, ``datagen.observe``, ...), so the timing
wrappers in ``tracing.py`` see the benchmark's own calls as well as the
package's internal ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from cswa import datagen, evaluation, factorization, model, protocol, rng


@dataclass(frozen=True)
class Outcome:
    """What one job produced, measured and checked.

    ``sim_s`` is the ``run_simulation`` wall time on the simulation
    workloads and the whole sweep on sweep-m; ``hops / sim_s`` is the
    reported hop rate. ``cswa_errors`` and ``central_errors`` are the
    recovery errors of the decentralized and centralized methods.
    ``problems`` lists every failed check; an empty tuple is a passed job.
    """

    wall_s: float
    sim_s: float
    hops: int
    scalars: int
    digest: str
    cswa_errors: tuple[float, ...]
    central_errors: tuple[float, ...]
    problems: tuple[str, ...]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _finite_non_negative(values) -> bool:
    arr = np.asarray(values, dtype=np.float64)
    return bool(np.isfinite(arr).all() and (arr >= 0).all())


@dataclass(frozen=True)
class SimInstance:
    field: model.Field
    params: model.Hyperparams
    observations: list


@dataclass(frozen=True)
class SimWorkload:
    """A decentralized-run workload. One job is what ``cswa run --audit``
    does in memory: ``run_simulation``, ``audit_transcript``,
    ``absolute_error`` and ``RunResult.to_json()``.

    ``grad_tol`` is 0, so every chain spends its whole budget and every job
    makes exactly ``batch_size * max_iters`` hops.
    """

    name: str
    rows: int
    cols: int
    rank: int
    params: dict
    instances: int      # distinct seeded inputs a run cycles through
    jobs_per_build: int = 1     # jobs run back to back on one built input

    # the inputs are built before the job; a job generates no observations
    obs_sets_per_job = 0

    def instance_seeds(self, seed: int) -> list[int]:
        return [seed * 1000 + i for i in range(self.instances)]

    def build(self, seed: int) -> SimInstance:
        field = datagen.generate_lowrank_field(self.rows, self.cols, self.rank, seed)
        params = model.Hyperparams(seed=seed, **self.params)
        schedule = datagen.assign_coverage(params, field.num_subareas,
                                           rng.substream(seed, "coverage"))
        observations = datagen.observe(field.values, schedule,
                                       params.noise_sigma,
                                       rng.substream(seed, "observe"))
        return SimInstance(field, params, observations)

    def working_set_bytes(self, inst: SimInstance) -> int:
        return sum(o.r_local.nbytes + o.f_mask.nbytes for o in inst.observations)

    def job(self, inst: SimInstance) -> Outcome:
        start = time.perf_counter()
        result = protocol.run_simulation(inst.observations, inst.params)
        sim_end = time.perf_counter()
        audit = protocol.audit_transcript(list(result.transcript))
        error = evaluation.absolute_error(result.recovered, inst.field.values)
        payload = result.to_json()
        end = time.perf_counter()

        p = inst.params
        hops = sum(result.per_chain_iters)
        scalars = result.scalars_transferred()
        per_message = inst.field.num_subareas * p.latent + p.latent * p.window
        problems = []
        if not audit.passed:
            problems.append(f"audit failed: {audit.violations[0].detail}")
        if hops != p.batch_size * p.max_iters:
            problems.append(f"{hops} hops, expected {p.batch_size * p.max_iters}")
        if scalars != (hops + p.batch_size) * per_message:
            problems.append(f"{scalars} scalars, expected "
                            f"{(hops + p.batch_size) * per_message}")
        for name, factor in (("p_bar", result.p_bar), ("q_bar", result.q_bar)):
            if not _finite_non_negative(factor):
                problems.append(f"{name} is not finite and non-negative")
        return Outcome(end - start, sim_end - start, hops, scalars,
                       _sha256(payload), (error,), (), tuple(problems))

    def central_errors(self, inst: SimInstance, outcome: Outcome) -> tuple[float, ...]:
        """Centralized solver on the same observations and budget; run
        outside the timed job, for ``error_ratio``."""
        aggregated = protocol.aggregate_for_baseline(inst.observations)
        factors, _ = factorization.solve_centralized(
            aggregated, inst.params, rng.substream(inst.params.seed, "centralized"))
        return (evaluation.absolute_error(factors.product(), inst.field.values),)


@dataclass(frozen=True)
class SweepInstance:
    field: model.Field
    spec: evaluation.SweepSpec


@dataclass(frozen=True)
class SweepWorkload:
    """The four-method sweep over the participant count m. One job is one
    ``run_sweep``; instance seed ``k`` generates the field from ``k`` and
    runs the cells on seeds ``2k`` and ``2k + 1``."""

    name: str
    rows: int
    cols: int
    rank: int
    base: dict
    values: tuple[int, ...]
    workers: int
    instances: int

    # the input is only the field; building it is cheap
    jobs_per_build = 1

    def instance_seeds(self, seed: int) -> list[int]:
        return [seed * 1000 + i for i in range(self.instances)]

    @property
    def obs_sets_per_job(self) -> int:
        """Distinct observation sets one sweep needs: one per (m, seed)."""
        return len(self.values) * 2

    def build(self, seed: int) -> SweepInstance:
        field = datagen.generate_lowrank_field(self.rows, self.cols, self.rank, seed)
        spec = evaluation.SweepSpec(model.Hyperparams(seed=seed, **self.base),
                                    "m", self.values, (2 * seed, 2 * seed + 1),
                                    evaluation.METHODS)
        return SweepInstance(field, spec)

    def working_set_bytes(self, inst: SweepInstance) -> int:
        """Observations of the largest cell, computed from its shape."""
        return max(self.values) * 2 * self.rows * self.base["window"] * 8

    def job(self, inst: SweepInstance) -> Outcome:
        start = time.perf_counter()
        records = evaluation.run_sweep(inst.spec, inst.field,
                                       max_workers=self.workers)
        end = time.perf_counter()

        spec = inst.spec
        base = spec.base
        per_message = self.rows * base.latent + base.latent * base.window
        cells = [(v, s, m) for v in spec.values for s in spec.seeds
                 for m in spec.methods]
        problems = []
        if [(r.value, r.seed, r.method) for r in records] != cells:
            problems.append("records are missing or out of order")
        hops = scalars = 0
        for r in records:
            where = f"cell m={r.value} seed={r.seed} {r.method}"
            if not (math.isfinite(r.abs_error) and r.abs_error >= 0):
                problems.append(f"{where}: abs_error {r.abs_error!r}")
            if r.method == "cswa":
                chains = min(base.batch_size, r.value)
                if r.iterations != chains * base.max_iters:
                    problems.append(f"{where}: {r.iterations} hops, expected "
                                    f"{chains * base.max_iters}")
                if r.scalars != (r.iterations + chains) * per_message:
                    problems.append(f"{where}: {r.scalars} scalars, expected "
                                    f"{(r.iterations + chains) * per_message}")
                hops += r.iterations
                scalars += r.scalars
            elif r.scalars != 0:
                problems.append(f"{where}: {r.scalars} scalars, expected 0")
        # wall_ms is the only field allowed to differ between identical sweeps
        canonical = json.dumps(
            [{k: v for k, v in r.to_jsonable().items() if k != "wall_ms"}
             for r in records], sort_keys=True, separators=(",", ":"))
        return Outcome(
            end - start, end - start, hops, scalars, _sha256(canonical),
            tuple(r.abs_error for r in records if r.method == "cswa"),
            tuple(r.abs_error for r in records if r.method == "centralized"),
            tuple(problems))

    def central_errors(self, inst: SweepInstance, outcome: Outcome) -> tuple[float, ...]:
        return outcome.central_errors


# Why each workload is here is recorded next to its name in BENCHMARK.json.
# Each job is kept to a fraction of a second: the run reports its fastest
# job, and on a shared machine a short job is far more likely than a long
# one to run without another tenant interfering at some point during it.
WORKLOADS = {w.name: w for w in (
    # The README point's field and network with grad_tol=0 and a 200-update
    # budget: 2 000 hops per job on a ~96 KB working set, so per-hop Python
    # overhead dominates.
    SimWorkload(
        "readme-budget", rows=20, cols=30, rank=2,
        params=dict(num_participants=10, batch_size=10, max_subareas=3,
                    window=30, latent=2, noise_sigma=0.01, max_iters=200,
                    grad_tol=0.0),
        instances=64),
    # A ~64 MB observation working set (against a few MB of L2) and m=200:
    # the masked matmuls and the O(m) next-hop draw dominate each of the
    # 960 hops per job. Building an input takes several jobs' time, so each
    # input runs eight jobs in a row.
    SimWorkload(
        "wide-network", rows=200, cols=100, rank=8,
        params=dict(num_participants=200, batch_size=32, max_subareas=10,
                    window=100, latent=8, step_size=1e-3, noise_sigma=0.01,
                    max_iters=30, grad_tol=0.0),
        instances=8, jobs_per_build=8),
    # The only workload that runs the centralized solver, tsvd, mean fill,
    # per-cell datagen and the sweep's thread pool.
    SweepWorkload(
        "sweep-m", rows=40, cols=20, rank=2,
        base=dict(num_participants=20, batch_size=10, max_subareas=3,
                  window=10, latent=2, noise_sigma=0.01, max_iters=25,
                  grad_tol=0.0),
        values=(4, 8, 16), workers=2, instances=64),
)}
