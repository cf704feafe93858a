"""The benchmark's bit-identity gate as a test: each workload's reference
job (its seed-0 input, built by ``bench/workloads.py``) must reproduce the
output digest and recovery errors recorded in ``bench/reference.json``,
and pass the job's own checks."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_reference_job_reproduces_recorded_output(name):
    workload = WORKLOADS[name]
    outcome = workload.job(workload.build(0))
    assert outcome.problems == ()
    assert outcome.digest == REFERENCE[name]["sha256"]
    assert list(outcome.cswa_errors) == REFERENCE[name]["cswa_errors"]
