"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time
from statistics import median

import numpy as np
import pytest

from cswa import (Hyperparams, SweepSpec,
                  absolute_error, aggregate_for_baseline, assign_coverage,
                  audit_transcript, comm_bound, generate_lowrank_field,
                  gradients, mean_fill, median_errors, observe,
                  run_simulation, run_sweep, solve_centralized, substream,
                  tsvd_impute)

from conftest import (dense_observations, finite_difference_grads,
                      random_factors, random_observations)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status}" + (f"  ({detail})" if detail else ""))


def _criterion3_params(seed: int, **overrides) -> Hyperparams:
    fields = dict(num_participants=10, batch_size=10, max_subareas=3,
                  window=30, latent=2, noise_sigma=0.01, max_iters=2000,
                  seed=seed)
    fields.update(overrides)
    return Hyperparams(**fields)


def _criterion3_instance(seed: int, **overrides):
    """Field and observations for one seed of the shared synthetic setup."""
    field = generate_lowrank_field(20, 30, rank=2, seed=seed)
    params = _criterion3_params(seed, **overrides)
    schedule = assign_coverage(params, 20, substream(seed, "coverage"))
    obs = observe(field.values, schedule, params.noise_sigma,
                  substream(seed, "observe"))
    return field, params, obs


@pytest.fixture(scope="module")
def criterion3_errors():
    """Per-seed errors of every method on the shared setup (seeds 0..4)."""
    rows = []
    for seed in range(5):
        field, params, obs = _criterion3_instance(seed)
        run = run_simulation(obs, params)
        aggregated = aggregate_for_baseline(obs)
        centralized, _ = solve_centralized(aggregated, params,
                                           substream(seed, "centralized"))
        rows.append({
            "cswa": absolute_error(run.recovered, field.values),
            "centralized": absolute_error(centralized.product(), field.values),
            "tsvd": absolute_error(tsvd_impute(aggregated, k=2).completed,
                                   field.values),
            "meanfill": absolute_error(mean_fill(aggregated), field.values),
        })
    return rows


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    worst = 0.0
    for case in range(20):
        obs = random_observations(1000 + case, num_subareas=6, window=4,
                                  fill=0.5)
        factors = random_factors(2000 + case, num_subareas=6, window=4,
                                 latent=2)
        grads = gradients(obs, factors, 0.02, 0.03)
        fd_p, fd_q = finite_difference_grads(obs, factors, 0.02, 0.03,
                                             step=1e-6)
        scale = max(np.abs(fd_p).max(), np.abs(fd_q).max())
        diff = max(np.abs(fd_p - (-2.0 * grads.g_p)).max(),
                   np.abs(fd_q - (-2.0 * grads.g_q)).max())
        worst = max(worst, diff / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 5.0
    _report(1, "gradient oracle", ok,
            f"max rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-4
    assert elapsed < 5.0


def test_criterion_2_exact_recovery_centralized():
    start = time.perf_counter()
    passed = 0
    errors = []
    for seed in range(5):
        field = generate_lowrank_field(20, 30, rank=2, seed=seed)
        params = Hyperparams(num_participants=2, batch_size=1, max_subareas=1,
                             window=30, latent=2, step_size=1e-3, reg_p=1e-4,
                             reg_q=1e-4, max_iters=5000, seed=seed)
        full = dense_observations(0, field.values, np.ones_like(field.values))
        factors, _ = solve_centralized(full, params,
                                       substream(seed, "centralized"))
        err = absolute_error(factors.product(), field.values)
        errors.append(err)
        passed += err < 1e-2
    elapsed = time.perf_counter() - start
    ok = passed >= 4 and elapsed < 30.0
    _report(2, "exact recovery (centralized)", ok,
            f"{passed}/5 seeds < 1e-2, errors {['%.1e' % e for e in errors]}, "
            f"{elapsed:.1f}s")
    assert passed >= 4
    assert elapsed < 30.0


def test_criterion_3_decentralized_tracks_centralized(criterion3_errors):
    start = time.perf_counter()
    med_cswa = median(r["cswa"] for r in criterion3_errors)
    med_cent = median(r["centralized"] for r in criterion3_errors)
    elapsed = time.perf_counter() - start
    ok = med_cswa <= 1.5 * med_cent
    _report(3, "decentralized ~ centralized", ok,
            f"median cswa {med_cswa:.4f} vs 1.5 x centralized "
            f"{1.5 * med_cent:.4f}")
    assert med_cswa <= 1.5 * med_cent
    assert elapsed < 300.0


def test_criterion_4_participant_trend():
    field = generate_lowrank_field(20, 30, rank=2, seed=0)
    spec = SweepSpec(base=_criterion3_params(0), axis="m",
                     values=(5, 10, 20), seeds=(0, 1, 2, 3, 4),
                     methods=("cswa",))
    medians = median_errors(run_sweep(spec, field))
    errs = [medians[(m, "cswa")] for m in (5, 10, 20)]
    ok = errs[0] >= errs[1] >= errs[2]
    _report(4, "error non-increasing in participants", ok,
            "medians " + " >= ".join(f"{e:.4f}" for e in errs))
    assert errs[0] >= errs[1] >= errs[2]


def test_criterion_5_communication_accounting():
    params = Hyperparams(num_participants=8, batch_size=5, max_subareas=3,
                         window=10, latent=2, grad_tol=0.0, max_iters=300,
                         seed=7)
    field = generate_lowrank_field(12, 10, rank=2, seed=7)
    schedule = assign_coverage(params, 12, substream(7, "coverage"))
    obs = observe(field.values, schedule, 0.0, substream(7, "observe"))
    result = run_simulation(obs, params)
    counted = result.scalars_transferred(include_init=False)
    closed_form = comm_bound(params, 12)
    ok = counted == closed_form and all(i == 300 for i in result.per_chain_iters)
    _report(5, "worst-case communication accounting", ok,
            f"counted {counted} == bound {closed_form}")
    assert all(i == params.max_iters for i in result.per_chain_iters)
    assert counted == closed_form


def test_criterion_6_privacy_audit():
    params_base = dict(num_participants=4, batch_size=2, max_subareas=2,
                       window=5, latent=2, max_iters=15, noise_sigma=0.05)
    transcript = None
    for seed in range(100):
        params = Hyperparams(seed=seed, **params_base)
        field = generate_lowrank_field(6, 5, rank=2, seed=seed)
        schedule = assign_coverage(params, 6, substream(seed, "coverage"))
        obs = observe(field.values, schedule, params.noise_sigma,
                      substream(seed, "observe"))
        result = run_simulation(obs, params)
        transcript = result.transcript
        report = audit_transcript(transcript)
        assert report.passed, f"audit failed on seed {seed}: {report.violations}"

    # forge an immediate back-transfer and expect the exact index back
    hop_index, hop = next(
        (i, r) for i, r in enumerate(transcript)
        if isinstance(r["from"], int) and isinstance(r["to"], int))
    forged = dict(hop, **{"from": hop["to"], "to": hop["from"]})
    corrupted = transcript[:hop_index + 1] + [forged] + transcript[hop_index + 1:]
    report = audit_transcript(corrupted)
    flagged = [v.index for v in report.violations if v.rule == "back-transfer"]
    ok = not report.passed and flagged[:1] == [hop_index + 1]
    _report(6, "privacy audit", ok,
            f"100 runs clean; corruption flagged at index {flagged[:1]}")
    assert not report.passed
    assert flagged[0] == hop_index + 1


def test_criterion_7_determinism():
    _, params, obs = _criterion3_instance(3, max_iters=60)
    first = run_simulation(obs, params).to_json()
    second = run_simulation(obs, params).to_json()
    bit_identical = first == second

    field = generate_lowrank_field(12, 10, rank=2, seed=9)
    base = Hyperparams(num_participants=8, batch_size=4, max_subareas=3,
                       window=10, latent=2, max_iters=50, noise_sigma=0.02,
                       seed=9)
    spec = SweepSpec(base=base, axis="m", values=(6, 8), seeds=(0, 1),
                     methods=("cswa", "centralized"))
    strip = lambda rs: [(r.axis, r.value, r.method, r.seed, r.abs_error,
                         r.iterations, r.scalars) for r in rs]
    sequential = strip(run_sweep(spec, field, max_workers=1))
    concurrent = strip(run_sweep(spec, field, max_workers=4))
    ok = bit_identical and sequential == concurrent
    _report(7, "bit-identical determinism", ok,
            f"run json equal: {bit_identical}; concurrent sweep equal: "
            f"{sequential == concurrent}")
    assert bit_identical
    assert sequential == concurrent


def test_criterion_8_baseline_ordering(criterion3_errors):
    med = {method: median(r[method] for r in criterion3_errors)
           for method in ("cswa", "meanfill", "tsvd")}
    ok = med["meanfill"] > med["tsvd"] and med["cswa"] < med["meanfill"]
    # tsvd vs cswa ordering is reported, not gated
    _report(8, "baseline sanity", ok,
            f"meanfill {med['meanfill']:.4f} > tsvd {med['tsvd']:.4f}; "
            f"cswa {med['cswa']:.4f} < meanfill; "
            f"(reported: tsvd {'<' if med['tsvd'] < med['cswa'] else '>'} cswa)")
    assert med["meanfill"] > med["tsvd"]
    assert med["cswa"] < med["meanfill"]


def test_criterion_9_budget_trend():
    medians = []
    for t_max in (50, 200, 1000):
        errs = []
        for seed in range(5):
            field, params, obs = _criterion3_instance(seed, max_iters=t_max)
            run = run_simulation(obs, params)
            errs.append(absolute_error(run.recovered, field.values))
        medians.append(median(errs))
    ok = medians[0] >= medians[1] >= medians[2]
    _report(9, "error non-increasing in iteration budget", ok,
            "medians " + " >= ".join(f"{e:.4f}" for e in medians))
    assert medians[0] >= medians[1] >= medians[2]
