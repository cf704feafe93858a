import numpy as np
import pytest

from cswa import (Hyperparams, ParameterError, ShapeError, SweepSpec,
                  absolute_error, comm_bound,
                  compose_params, generate_lowrank_field, median_errors,
                  records_to_csv, run_sweep)


def _base(**overrides):
    fields = dict(num_participants=8, batch_size=4, max_subareas=3,
                  window=10, latent=2, max_iters=60, noise_sigma=0.02, seed=0)
    fields.update(overrides)
    return Hyperparams(**fields)


# --- absolute_error ---

def test_absolute_error_zero_for_identical():
    m = np.arange(12.0).reshape(3, 4)
    assert absolute_error(m, m.copy()) == 0.0


def test_absolute_error_hand_case():
    recovered = np.array([[1.0, 2.0], [3.0, 4.0]])
    truth = np.array([[2.0, 2.0], [3.0, 2.0]])
    assert absolute_error(recovered, truth) == pytest.approx(0.75)


def test_absolute_error_shape_mismatch():
    with pytest.raises(ShapeError):
        absolute_error(np.ones((2, 2)), np.ones((2, 3)))


def test_absolute_error_selection():
    recovered = np.array([[1.0, 0.0], [0.0, 0.0]])
    truth = np.zeros((2, 2))
    only_corner = np.array([[True, False], [False, False]])
    assert absolute_error(recovered, truth, where=only_corner) == 1.0
    with pytest.raises(ParameterError):
        absolute_error(recovered, truth, where=np.zeros((2, 2), dtype=bool))


# --- comm_bound ---

def test_comm_bound_worked_example():
    params = Hyperparams(num_participants=20, batch_size=10, max_subareas=3,
                         window=20, latent=4, max_iters=100)
    assert comm_bound(params, 57) == (57 * 4 + 4 * 20) * 100 * 10 == 308000


def test_comm_bound_linear_in_batch():
    base = dict(num_participants=14, max_subareas=3, window=15, latent=3,
                max_iters=500)
    one = comm_bound(Hyperparams(batch_size=7, **base), 30)
    two = comm_bound(Hyperparams(batch_size=14, **base), 30)
    assert two == 2 * one


# --- compose_params ---

def test_compose_each_axis():
    base = _base()
    assert compose_params(base, "m", 12).num_participants == 12
    assert compose_params(base, "s", 5).max_subareas == 5
    assert compose_params(base, "w", 8).window == 8
    assert compose_params(base, "l", 3).latent == 3


def test_compose_clamps_batch_to_population():
    base = _base(num_participants=10, batch_size=10)
    shrunk = compose_params(base, "m", 4)
    assert shrunk.num_participants == 4
    assert shrunk.batch_size == 4


def test_compose_invalid_value_names_combination():
    with pytest.raises(ParameterError, match="l=40"):
        compose_params(_base(), "l", 40)


# --- run_sweep ---

def test_sweep_single_cell():
    field = generate_lowrank_field(12, 10, rank=2, seed=1)
    spec = SweepSpec(base=_base(), axis="m", values=(8,), seeds=(3,),
                     methods=("meanfill",))
    records = run_sweep(spec, field)
    assert len(records) == 1
    record = records[0]
    assert record.method == "meanfill"
    assert record.value == 8 and record.seed == 3
    assert record.abs_error >= 0.0
    assert record.scalars == 0


def test_sweep_deterministic_and_order_canonical():
    field = generate_lowrank_field(12, 10, rank=2, seed=2)
    spec = SweepSpec(base=_base(), axis="s", values=(1, 3), seeds=(0, 1),
                     methods=("cswa", "meanfill"))
    first = run_sweep(spec, field)
    second = run_sweep(spec, field)
    strip = lambda rs: [(r.axis, r.value, r.method, r.seed, r.abs_error,
                         r.iterations, r.scalars) for r in rs]
    assert strip(first) == strip(second)
    assert [(r.value, r.seed, r.method) for r in first] == [
        (v, s, m) for v in (1, 3) for s in (0, 1) for m in ("cswa", "meanfill")]


def test_sweep_concurrent_matches_sequential():
    field = generate_lowrank_field(12, 10, rank=2, seed=3)
    spec = SweepSpec(base=_base(), axis="l", values=(1, 2), seeds=(0, 1),
                     methods=("cswa", "tsvd"))
    sequential = run_sweep(spec, field, max_workers=1)
    concurrent = run_sweep(spec, field, max_workers=4)
    strip = lambda rs: [(r.axis, r.value, r.method, r.seed, r.abs_error,
                         r.iterations, r.scalars) for r in rs]
    assert strip(sequential) == strip(concurrent)


@pytest.mark.parametrize("workers", [0, -3, 2.0, True])
def test_sweep_rejects_worker_count_below_one(workers):
    field = generate_lowrank_field(12, 10, rank=2, seed=3)
    spec = SweepSpec(base=_base(), axis="l", values=(1,), seeds=(0,),
                     methods=("meanfill",))
    with pytest.raises(ParameterError, match="max_workers"):
        run_sweep(spec, field, max_workers=workers)


def test_sweep_observations_shared_across_methods():
    # paired comparison: for a given (value, seed), every method sees the
    # same observations, so meanfill's result is method-order independent
    field = generate_lowrank_field(12, 10, rank=2, seed=4)
    spec_a = SweepSpec(base=_base(), axis="m", values=(8,), seeds=(5,),
                       methods=("meanfill",))
    spec_b = SweepSpec(base=_base(), axis="m", values=(8,), seeds=(5,),
                       methods=("cswa", "tsvd", "meanfill"))
    only = run_sweep(spec_a, field)[0]
    with_others = [r for r in run_sweep(spec_b, field) if r.method == "meanfill"][0]
    assert only.abs_error == with_others.abs_error


def test_sweep_builds_observations_once_per_pair(monkeypatch):
    from cswa import evaluation
    calls = []
    original = evaluation.observe
    monkeypatch.setattr(evaluation, "observe",
                        lambda *args: calls.append(1) or original(*args))
    field = generate_lowrank_field(12, 10, rank=2, seed=4)
    spec = SweepSpec(base=_base(), axis="m", values=(6, 8), seeds=(0, 1),
                     methods=("cswa", "centralized", "tsvd", "meanfill"))
    records = run_sweep(spec, field, max_workers=2)
    assert len(records) == 16
    assert len(calls) == 4


def test_sweep_scalar_totals_within_bound():
    field = generate_lowrank_field(12, 10, rank=2, seed=5)
    base = _base(grad_tol=0.0, max_iters=20)
    spec = SweepSpec(base=base, axis="m", values=(8,), seeds=(0,),
                     methods=("cswa",))
    record = run_sweep(spec, field)[0]
    payload = 12 * base.latent + base.latent * base.window
    bound = comm_bound(base, 12)
    assert record.scalars <= bound + base.batch_size * payload
    # grad_tol=0 forces the worst case exactly
    assert record.scalars == bound + base.batch_size * payload


def test_sweep_invalid_value_raises_named_error():
    field = generate_lowrank_field(12, 10, rank=2, seed=6)
    spec = SweepSpec(base=_base(), axis="w", values=(200,), seeds=(0,),
                     methods=("meanfill",))
    with pytest.raises(ParameterError, match="w=200"):
        run_sweep(spec, field)


def test_sweep_spec_validation():
    with pytest.raises(ParameterError):
        SweepSpec(base=_base(), axis="x", values=(1,), seeds=(0,),
                  methods=("cswa",))
    with pytest.raises(ParameterError):
        SweepSpec(base=_base(), axis="m", values=(), seeds=(0,),
                  methods=("cswa",))
    with pytest.raises(ParameterError):
        SweepSpec(base=_base(), axis="m", values=(8,), seeds=(0,),
                  methods=("gradient-boosting",))


@pytest.mark.parametrize("edit, name", [
    ({"axis": ["m"]}, "sweep.axis"),
    ({"values": "48"}, "sweep.values"),
    ({"values": 8}, "sweep.values"),
    ({"seeds": 3}, "sweep.seeds"),
    ({"methods": "cswa"}, "sweep.methods"),
], ids=["axis-list", "values-string", "values-scalar", "seeds-scalar",
        "methods-string"])
def test_sweep_spec_rejects_malformed_fields(edit, name):
    # a string is not a list of one-character values, and a list axis is
    # no axis name: each is refused with the field named
    spec = dict(base=_base(), axis="m", values=(8,), seeds=(0,),
                methods=("cswa",))
    with pytest.raises(ParameterError, match=name):
        SweepSpec(**dict(spec, **edit))


def test_median_errors_and_csv():
    field = generate_lowrank_field(12, 10, rank=2, seed=7)
    spec = SweepSpec(base=_base(), axis="m", values=(6, 8), seeds=(0, 1, 2),
                     methods=("meanfill",))
    records = run_sweep(spec, field)
    med = median_errors(records)
    assert set(med) == {(6, "meanfill"), (8, "meanfill")}
    for key, value in med.items():
        errors = sorted(r.abs_error for r in records if r.value == key[0])
        assert value == errors[1]  # median of three
    text = records_to_csv(records)
    lines = text.strip().splitlines()
    assert lines[0] == "axis,value,method,seed,abs_error,iters,scalars,wall_ms"
    assert len(lines) == 1 + len(records)
