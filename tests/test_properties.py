"""Property tests of the invariants the README claims, over small random
configurations: every run passes the audit, communication is accounted for
exactly, every chain's final factors and the averaged pair are finite and
non-negative, ``recovered`` is exactly ``p_bar @ q_bar``, coverage respects
its cap, and ``to_json()`` is what ``json.dumps`` writes."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cswa import Hyperparams, audit_transcript, generate_lowrank_field, \
    protocol, run_simulation
from cswa.evaluation import build_inputs

from conftest import reference_json


@st.composite
def configs(draw):
    num_subareas = draw(st.integers(2, 8))
    window = draw(st.integers(1, 6))
    num_participants = draw(st.integers(2, 6))
    params = Hyperparams(
        num_participants=num_participants,
        batch_size=draw(st.integers(1, num_participants)),
        max_subareas=draw(st.integers(1, num_subareas)),
        window=window,
        latent=draw(st.integers(1, min(num_subareas, window))),
        step_size=draw(st.sampled_from([1e-3, 0.05])),
        grad_tol=draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5])),
        max_iters=draw(st.integers(1, 40)),
        noise_sigma=draw(st.sampled_from([0.0, 0.05])),
        exclude_self=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )
    cycles = window + draw(st.integers(0, 3))
    rank = draw(st.integers(1, min(2, num_subareas, cycles)))
    field = generate_lowrank_field(num_subareas, cycles, rank, params.seed)
    return field, params


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(configs())
def test_run_invariants(config):
    field, params = config
    _, schedule, observations = build_inputs(field, params)
    per_cycle = schedule.covered.sum(axis=1)
    assert ((1 <= per_cycle) & (per_cycle <= params.max_subareas)).all()

    run_block, blocks = protocol._run_block, []

    def recording_run_block(*args):
        blocks.append(run_block(*args))
        return blocks[-1]

    with mock.patch.object(protocol, "_run_block", recording_run_block):
        result = run_simulation(observations, params)
    for final_p, final_q, _, _ in blocks:
        for factor in (final_p, final_q):
            assert np.isfinite(factor).all() and (factor >= 0).all()
    assert audit_transcript(result.transcript).passed
    payload = params.latent * (field.num_subareas + params.window)
    hops = sum(result.per_chain_iters)
    assert result.scalars_transferred() == (hops + params.batch_size) * payload
    assert result.scalars_transferred(include_init=False) == hops * payload
    for factor in (result.p_bar, result.q_bar):
        assert np.isfinite(factor).all() and (factor >= 0).all()
    assert np.array_equal(result.recovered, result.p_bar @ result.q_bar)
    assert result.to_json() == reference_json(result)
