"""``bench/run.py --trace 1`` wraps package attributes by name. Building its
tracer and installing and uninstalling it fails here when a traced
attribute (``protocol.recover``, ``participant_step``,
``evaluation._run_cell``, ...) no longer resolves."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_trace_targets_resolve(monkeypatch):
    # run.py pins the BLAS thread variables when imported; restore them after
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    import tracing

    targets, counters = run.trace_targets()
    wrapped = [(t.owner, t.attr) for t in targets + counters]
    originals = [getattr(owner, attr) for owner, attr in wrapped]
    tracer = tracing.Tracer(targets, counters)
    tracer.install()
    tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in wrapped] == originals
