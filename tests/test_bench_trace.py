"""``bench/run.py --trace 1`` wraps package attributes by name. Building its
tracer and installing and uninstalling it fails here when a traced
attribute (``protocol.recover``, ``participant_step``,
``evaluation._run_cell``, ...) no longer resolves, and one traced
readme-budget job must pass its checks and audit every transcript record."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_run(monkeypatch):
    # run.py pins the BLAS thread variables when imported; restore them after
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_trace_targets_resolve(monkeypatch):
    run = _load_run(monkeypatch)
    import tracing

    targets, counters = run.trace_targets()
    wrapped = [(t.owner, t.attr) for t in targets + counters]
    originals = [getattr(owner, attr) for owner, attr in wrapped]
    tracer = tracing.Tracer(targets, counters)
    tracer.install()
    tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in wrapped] == originals


def test_traced_readme_budget_job_audits_every_record(monkeypatch):
    # the benchmark's traced job runs the audit on the run's transcript
    run = _load_run(monkeypatch)
    import tracing
    import workloads
    from cswa import protocol

    wl = workloads.WORKLOADS["readme-budget"]
    inst = wl.build(wl.instance_seeds(run.REFERENCE_SEED)[0])
    tracer = tracing.Tracer(*run.trace_targets())
    outcome, spans = run.run_job(wl, inst, tracer)
    assert outcome.problems == ()
    audits = [notes for _, name, _, _, _, notes in spans
              if name == "protocol.audit_transcript"]
    result = protocol.run_simulation(inst.observations, inst.params)
    assert audits == [{"entries": len(result.transcript)}]
