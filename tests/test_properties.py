"""Property tests of the invariants the README claims, over small random
configurations: every run passes the audit, communication is accounted for
exactly, every chain's factors are non-negative after every hop, its final
factors and the averaged pair are finite, ``recovered`` is exactly
``p_bar @ q_bar``, coverage respects its cap, and ``to_json()`` is what
``json.dumps`` writes."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cswa import Hyperparams, audit_transcript, factorization, \
    generate_lowrank_field, protocol, run_simulation
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


@pytest.fixture
def hop_log(monkeypatch):
    """Wraps ``_Stack.hop`` to assert that every hop leaves every factor
    entry non-negative, and logs each hop's pair count and least entry."""
    hop, log = factorization._Stack.hop, []

    def checked_hop(self, *args):
        delta = hop(self, *args)
        least = self.x.min()
        assert least >= 0
        log.append((len(self.x), least))
        return delta

    monkeypatch.setattr(factorization._Stack, "hop", checked_hop)
    return log


# the wrapper is the same for every example, so one fixture serves them all
@settings(max_examples=100, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=configs())
def test_run_invariants(hop_log, config):
    field, params = config
    hop_log.clear()
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
    assert sum(pairs for pairs, _ in hop_log) == hops
    assert result.scalars_transferred() == (hops + params.batch_size) * payload
    assert result.scalars_transferred(include_init=False) == hops * payload
    for factor in (result.p_bar, result.q_bar):
        assert np.isfinite(factor).all() and (factor >= 0).all()
    assert np.array_equal(result.recovered, result.p_bar @ result.q_bar)
    assert result.to_json() == reference_json(result)


def test_literal_update_non_negative_at_every_hop(hop_log):
    # the anti-fit direction drives entries below zero, so the truncation
    # is what keeps every hop's factors non-negative
    params = Hyperparams(num_participants=6, batch_size=4, max_subareas=2,
                         window=5, latent=2, step_size=0.01, max_iters=60,
                         grad_tol=0.0, literal_update=True, seed=3)
    field = generate_lowrank_field(8, params.window, 2, params.seed)
    _, _, observations = build_inputs(field, params)
    result = run_simulation(observations, params)
    assert sum(pairs for pairs, _ in hop_log) == sum(result.per_chain_iters)
    assert min(least for _, least in hop_log) == 0.0
