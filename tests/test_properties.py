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
from hypothesis.extra.numpy import arrays

from cswa import Hyperparams, audit_transcript, factorization, \
    generate_lowrank_field, protocol, run_simulation
from cswa.evaluation import build_inputs
from cswa.factorization import GatherTable

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


_MAGNITUDES = st.one_of(st.floats(0, 10), st.floats(1e99, 1e101),
                        st.floats(1e150, 1e308),
                        st.just(np.finfo(np.float64).max))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_fast_path_bound_implies_all_finite(data):
    # _run_block skips the exact finiteness test of a round while its bound
    # on the block's largest factor entry (x.max() at the window's start,
    # plus step_size * sum(delta) per round) and the round's growth of it
    # stay below _FINITE_BOUND; whenever they do, the exact test must pass.
    # Factors up to the float maximum, and table rows with one reading of
    # 1e200, 1e308, inf or NaN, overflow the residual, the gradients or the
    # update, or stay just below doing so
    pairs, rows, rounds = (data.draw(st.integers(1, n)) for n in (3, 3, 6))
    s, w, latent = 3, 4, 2
    x = data.draw(arrays(np.float64, (pairs, (s + w) * latent),
                         elements=_MAGNITUDES))
    readings = data.draw(arrays(np.float64, (rows, s * w),
                                elements=st.floats(0, 10)))
    for row in readings:
        bad = data.draw(st.sampled_from([None, 1e200, 1e308, np.inf, np.nan]))
        if bad is not None:
            row[data.draw(st.integers(0, s * w - 1))] = bad
    table = GatherTable(np.tile(np.arange(s * w), (rows, 1)), readings, s, w)
    step_size = data.draw(st.sampled_from([1e-3, 1.0]))
    step = data.draw(st.sampled_from([-1.0, 1.0])) * step_size
    reg = data.draw(st.sampled_from([0.0, 1e-4, 1.0]))
    ids = data.draw(arrays(np.intp, (rounds, pairs),
                           elements=st.integers(0, rows - 1)))
    stack = factorization._Stack(x, table, reg, reg)
    bound = float(stack.x.max())
    with np.errstate(over="ignore", invalid="ignore"):
        for hop_cells, hop_readings in zip(*stack.gather(ids)):
            delta = stack.hop(hop_cells, hop_readings, step).tolist()
            growth = step_size * sum(delta)
            bound += growth
            limit = protocol._FINITE_BOUND
            if bound < limit and growth < limit:
                assert stack.all_finite()
