"""Benchmark of the cswa package: one closed-loop client per workload.

Run from the repository root:

    python3 bench/run.py --workload readme-budget --seed 1 --seconds 40 --trace 0

Each run is one process. It checks the workload's reference job against
``reference.json`` (this is also the untimed warm-up), then runs jobs back
to back for ``--seconds`` seconds, each job starting when the previous one
ends. Jobs cycle through inputs generated from ``--seed``, each input
built once per pass and then run ``jobs_per_build`` times; every job is
checked, and a repeated input must reproduce its first job's output digest
exactly. Between jobs it times ``SETUP_PROBES`` fresh set-ups in child
processes.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
alternates untraced jobs with jobs run under the span tracer of
``tracing.py`` and reports the per-layer metrics, including the tracing
overhead; the spans of the last traced job are written to
``.bench_out/<workload>.spans.jsonl``. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import time

_START = time.perf_counter()  # set-up probes time everything from here

import os

# One BLAS thread in this process and in its children; must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 11
REFERENCE_SEED = 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: time one set-up of this fresh process")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def probe_setup(workload: str, seed: int) -> float:
    """Seconds a fresh process takes to import numpy and cswa and build the
    workload's first input (field, coverage and observations)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--probe-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


# --- hardware and library facts ---------------------------------------------

def _cache_bytes(level: int) -> int:
    """Size of this CPU's level-``level`` data or unified cache, from sysfs."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (int((index / "level").read_text()) == level
                    and (index / "type").read_text().strip() != "Instruction"):
                size = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
                return int(size.rstrip("KMG")) * scale
        except (OSError, ValueError):
            continue
    return 0


def _blas_runtime() -> tuple[int, str]:
    """(thread count, build config) reported by the loaded OpenBLAS, or
    (-1, "") when no OpenBLAS library answers."""
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps
                        if "blas" in line.lower() and ".so" in line})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                return threads(), config().decode()
    return -1, ""


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, config = _blas_runtime()
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": config,
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
    }


# --- layer map for traced runs ----------------------------------------------

def sgd_step_flops(s: int, w: int, l: int) -> int:
    """Floating-point operations of one ``sgd_step`` on an s x w window at
    rank l: the product, masked residual, both gradients with their
    regularizers, the update and the truncation."""
    return 6 * s * l * w + 2 * s * w + 5 * s * l + 5 * l * w


def sgd_step_bytes(s: int, w: int, l: int) -> int:
    """Bytes one ``sgd_step`` must move at least: read readings, mask and
    both factors, write both gradients and both new factors (float64,
    temporaries not counted)."""
    return 8 * (2 * s * w + 3 * (s * l + l * w))


def trace_targets():
    from cswa import datagen, evaluation, factorization, model, protocol
    from tracing import CountInside, Target

    def sgd_cost(args, result):
        obs, factors = args[0], args[1]
        s, w = obs.r_local.shape
        l = factors.p.shape[1]
        return {"flops": sgd_step_flops(s, w, l), "bytes": sgd_step_bytes(s, w, l)}

    sim = "protocol.run_simulation"
    targets = [
        Target(protocol, "participant_step", "protocol.participant_step"),
        Target(protocol, "sgd_step", "factorization.sgd_step", sgd_cost),
        Target(factorization, "sgd_step", "factorization.sgd_step", sgd_cost),
        Target(protocol, "recover", "protocol.recover"),
        Target(protocol, "audit_transcript", "protocol.audit_transcript",
               lambda args, result: {"entries": len(args[0])}),
        Target(protocol.RunResult, "to_json", "protocol.to_json",
               lambda args, result: {"bytes": len(result)}),
        Target(evaluation, "_run_cell", lambda args: f"evaluation.cell.{args[4]}"),
        Target(evaluation, "tsvd_impute", "baselines.tsvd_impute",
               lambda args, result: {"rounds": result.iterations}),
        Target(evaluation, "mean_fill", "baselines.mean_fill"),
        Target(datagen, "generate_lowrank_field", "datagen.generate_lowrank_field"),
    ]
    # names that both the benchmark (through the defining module) and the
    # sweep (through cswa.evaluation) call
    for module in (protocol, evaluation):
        targets += [
            Target(module, "run_simulation", sim,
                   lambda args, result: {"hops": sum(result.per_chain_iters)}),
            Target(module, "aggregate_for_baseline", "protocol.aggregate_for_baseline"),
        ]
    for module in (factorization, evaluation):
        targets.append(Target(module, "solve_centralized",
                              "factorization.solve_centralized",
                              lambda args, result: {"iters": result[1]}))
    for module in (datagen, evaluation):
        targets += [Target(module, "assign_coverage", "datagen.assign_coverage"),
                    Target(module, "observe", "datagen.observe")]
    counters = [CountInside(model.FactorPair, "__post_init__", sim, "factorpairs")]
    return targets, counters


def layer_metrics(jobs, every, traced_jobs: int, obs_sets_per_job: int,
                  working_set: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics. ``jobs`` holds the spans of traced jobs only,
    ``every`` also those of building their inputs. A layer the workload
    never calls reports 0."""
    sgd, step = "factorization.sgd_step", "protocol.participant_step"
    sim, solve = "protocol.run_simulation", "factorization.solve_centralized"
    flops, nbytes = every.per_call(sgd, "flops"), every.per_call(sgd, "bytes")
    hops = jobs.notes[f"{sim}.hops"]
    observed = jobs.calls["datagen.observe"]
    metrics = {
        f"{sgd}.calls": (jobs.calls[sgd] / traced_jobs, "count"),
        f"{sgd}.self_us": (every.mean_self_s(sgd) * 1e6, "us"),
        f"{sgd}.flops_computed": (flops, "flop"),
        f"{sgd}.bytes_computed": (nbytes, "byte"),
        f"{sgd}.flops_per_byte_computed": (flops / nbytes if nbytes else 0.0, "flop/byte"),
        f"{step}.calls": (jobs.calls[step] / traced_jobs, "count"),
        f"{step}.self_us": (every.mean_self_s(step) * 1e6, "us"),
        "model.factorpair_per_hop": (
            jobs.notes[f"{sim}.factorpairs"] / hops if hops else 0.0, "count"),
        f"{sim}.s": (every.mean_s(sim), "s"),
        "protocol.recover.us": (every.mean_s("protocol.recover") * 1e6, "us"),
        "protocol.audit_transcript.s": (every.mean_s("protocol.audit_transcript"), "s"),
        "protocol.audit_transcript.entries": (
            every.per_call("protocol.audit_transcript", "entries"), "count"),
        "protocol.to_json.s": (every.mean_s("protocol.to_json"), "s"),
        "protocol.to_json.bytes": (every.per_call("protocol.to_json", "bytes"), "byte"),
        "protocol.aggregate_for_baseline.s": (
            every.mean_s("protocol.aggregate_for_baseline"), "s"),
        "datagen.generate_lowrank_field.s": (
            every.mean_s("datagen.generate_lowrank_field"), "s"),
        "datagen.assign_coverage.s": (every.mean_s("datagen.assign_coverage"), "s"),
        "datagen.observe.s": (every.mean_s("datagen.observe"), "s"),
        "datagen.obs_working_set_bytes": (working_set, "byte"),
        "evaluation.obs_reuse_ratio": (
            obs_sets_per_job * traced_jobs / observed if observed else 0.0, "ratio"),
        f"{solve}.s": (every.mean_s(solve), "s"),
        f"{solve}.iters": (every.per_call(solve, "iters"), "count"),
        "baselines.tsvd_impute.s": (every.mean_s("baselines.tsvd_impute"), "s"),
        "baselines.tsvd_impute.rounds": (
            every.per_call("baselines.tsvd_impute", "rounds"), "count"),
        "baselines.mean_fill.s": (every.mean_s("baselines.mean_fill"), "s"),
        "trace.job_s": (traced_s, "s"),
        "trace.untraced_job_s": (untraced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    for method in ("cswa", "centralized", "tsvd", "meanfill"):
        metrics[f"evaluation.cell.{method}.s"] = (
            every.mean_s(f"evaluation.cell.{method}"), "s")
    return metrics


def write_spans(workload: str, spans: list) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}.spans.jsonl"
    origin = min((span[2] for span in spans), default=0.0)
    with open(path, "w") as handle:
        for span_id, name, start, end, parent, notes in spans:
            handle.write(json.dumps({
                "id": span_id, "name": name, "start_s": start - origin,
                "end_s": end - origin, "parent": parent, "counts": dict(notes),
            }) + "\n")
    return path


# --- the run ------------------------------------------------------------------

def build_input(wl, seed: int, tracer):
    """Build one input (untimed), under the tracer when one is given.
    Returns (input, build spans)."""
    if tracer is None:
        return wl.build(seed), []
    tracer.install()
    try:
        inst = wl.build(seed)
        return inst, tracer.collect()
    finally:
        tracer.uninstall()
        tracer.collect()


def run_job(wl, inst, tracer):
    """Run one job, under the tracer when one is given. Returns (outcome,
    job spans)."""
    if tracer is None:
        return wl.job(inst), []
    tracer.install()
    try:
        outcome = wl.job(inst)
        return outcome, tracer.collect()
    finally:
        tracer.uninstall()
        tracer.collect()


def report_failure(label: str, problems) -> None:
    for problem in problems:
        print(f"FAILED {label}: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cswa" / "__init__.py").is_file():
        print(f"error: no cswa package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cswa
    if not Path(cswa.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported cswa from {cswa.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import numpy as np
    import workloads
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seeds = wl.instance_seeds(args.seed)

    if args.probe_setup:
        wl.build(seeds[0])
        print(time.perf_counter() - _START)
        return 0

    env = environment(np)

    # Reference job: the untimed warm-up, and the bit-identity gate against
    # the digest and errors recorded for this workload.
    reference = json.loads((HERE / "reference.json").read_text())[wl.name]
    attempted, failed = 1, 0
    try:
        inst = wl.build(REFERENCE_SEED)
        ref = wl.job(inst)
        problems = list(ref.problems)
        if ref.digest != reference["sha256"]:
            problems.append(f"digest {ref.digest} differs from the recorded "
                            f"{reference['sha256']}")
        if list(ref.cswa_errors) != reference["cswa_errors"]:
            problems.append(f"abs_error {list(ref.cswa_errors)} differs from "
                            f"the recorded {reference['cswa_errors']}")
        working_set = wl.working_set_bytes(inst)
        del inst
    except Exception:
        traceback.print_exc()
        problems, working_set = ["reference job raised"], 0
    if problems:
        failed += 1
        report_failure(f"reference job (seed {REFERENCE_SEED})", problems)

    tracer = None
    if args.trace:
        from tracing import LayerStats, Tracer
        tracer = Tracer(*trace_targets())
        job_stats, every = LayerStats(), LayerStats()
        last_spans: list = []

    first, central = {}, {}
    walls = {False: [], True: []}
    hop_rates, scalars, setup_samples = [], [], []
    start = time.perf_counter()
    j = 0  # jobs run
    k = 0  # inputs built
    while k < len(seeds) or time.perf_counter() - start < args.seconds:
        # The set-up probes are spread over the run, so that they sample the
        # machine as the jobs do, not one moment of it.
        if (len(setup_samples) < SETUP_PROBES and time.perf_counter() - start
                >= len(setup_samples) * args.seconds / SETUP_PROBES):
            setup_samples.append(probe_setup(wl.name, args.seed))
        i = k % len(seeds)
        k += 1
        try:
            inst, build_spans = build_input(wl, seeds[i], tracer)
        except Exception:
            traceback.print_exc()
            attempted += 1
            failed += 1
            report_failure(f"building input seed {seeds[i]}", ["raised"])
            continue
        if tracer is not None:
            every.add(build_spans)
        for _ in range(wl.jobs_per_build):
            # alternate traced and untraced jobs, shifting the pattern each
            # pass so every input is seen both ways
            traced = tracer is not None and (j + j // len(seeds)) % 2 == 1
            j += 1
            attempted += 1
            try:
                outcome, job_spans = run_job(wl, inst, tracer if traced else None)
                problems = list(outcome.problems)
                if i not in first:
                    central[i] = wl.central_errors(inst, outcome)
                    first[i] = outcome
                elif outcome.digest != first[i].digest:
                    problems.append("output differs from the first job on the same input")
            except Exception:
                traceback.print_exc()
                failed += 1
                report_failure(f"job {j} (input seed {seeds[i]})", ["raised"])
                continue
            if problems:
                failed += 1
                report_failure(f"job {j} (input seed {seeds[i]})", problems)
            walls[traced].append(outcome.wall_s)
            scalars.append(outcome.scalars)
            if traced:
                job_stats.add(job_spans)
                every.add(job_spans)
                last_spans = job_spans
            else:
                hop_rates.append(outcome.hops / outcome.sim_s)
        del inst  # hold one input at a time, so peak memory is one input's
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(probe_setup(wl.name, args.seed))
    measured_s = time.perf_counter() - start

    correct = failed == 0 and len(first) == len(seeds)
    cswa_errors = [e for o in first.values() for e in o.cswa_errors]
    # each cswa error over the centralized error on the same observations
    ratios = [c / z for i, o in first.items()
              for c, z in zip(o.cswa_errors, central[i])]

    # Timings report the fastest sample of the run: interference from other
    # tenants of a shared machine only ever adds time, and on a shared 2-vCPU
    # KVM Xeon it slowed stretches of several seconds by up to 60%. Jobs are
    # short and the set-up probes are spread over the run, so some samples
    # fall in quiet stretches. The median and slowest sample are printed
    # alongside.
    def fastest(values):
        return min(values) if values else 0.0

    print("env " + json.dumps(dict(env, obs_working_set_bytes=working_set)))
    print(f"workload {wl.name} seed {args.seed}: {attempted} jobs in "
          f"{measured_s:.1f} s over {len(seeds)} inputs, {failed} failed")
    for label, values in (("setup probes", setup_samples),
                          ("untraced jobs", walls[False]), ("traced jobs", walls[True])):
        if values:
            print(f"{label}: n {len(values)} min {min(values):.4f} median "
                  f"{statistics.median(values):.4f} max {max(values):.4f} s")
    print(f"job walls {[round(w, 4) for w in walls[False]]}")
    if tracer is None:
        metrics = {
            "setup_s": (fastest(setup_samples), "s"),
            "job_s": (fastest(walls[False]), "s"),
            "hops_per_s": (max(hop_rates, default=0.0), "1/s"),
            "abs_error": (statistics.fmean(cswa_errors) if cswa_errors else 0.0,
                          "field_unit"),
            "error_ratio": (statistics.median(ratios) if ratios else 0.0, "ratio"),
            "scalars": (max(scalars, default=0), "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
            "passed_frac": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics = layer_metrics(
            job_stats, every, len(walls[True]), wl.obs_sets_per_job,
            working_set, fastest(walls[True]), fastest(walls[False]))
        if last_spans:
            print(f"spans of the last traced job: {write_spans(wl.name, last_spans)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
