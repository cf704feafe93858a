import dataclasses
import hashlib
import json

import numpy as np
import pytest

from cswa import (ORGANIZER, ChainMessage, Continue, FactorPair, Finished,
                  Hyperparams, NumericError,
                  ParameterError, aggregate_for_baseline,
                  assign_coverage, audit_transcript, generate_lowrank_field,
                  init_factors, observe, participant_step, recover,
                  run_simulation, substream)
from cswa import protocol
from cswa.factorization import gather_table
from cswa.protocol import _walk

from conftest import (dense_observations, random_factors, reference_json,
                      warnings_as_errors)


def _params(**overrides):
    base = dict(num_participants=6, batch_size=3, max_subareas=2,
                window=5, latent=2, max_iters=40, seed=0)
    base.update(overrides)
    return Hyperparams(**base)


def _make_obs(params, num_subareas=8, field_seed=0):
    field = generate_lowrank_field(num_subareas, params.window, rank=2,
                                   seed=field_seed)
    schedule = assign_coverage(params, num_subareas,
                               substream(params.seed, "coverage"))
    return observe(field.values, schedule, params.noise_sigma,
                   substream(params.seed, "observe")), field


# --- participant_step ---

def test_step_finishes_when_tolerance_is_generous():
    params = _params(grad_tol=1e12)
    obs, _ = _make_obs(params)
    msg = ChainMessage(random_factors(0, num_subareas=8, window=5), 0, None)
    result = participant_step(msg, obs[0], params, substream(0, "chain", 1))
    assert isinstance(result, Finished)
    assert result.iterations == 1
    assert result.converged


def test_step_two_participant_fallback_excludes_previous_only():
    # m=2, exclude_self on, current=1, previous=2: the exclusion set would
    # be empty, so only the previous sender stays excluded and the chain
    # self-sends
    params = _params(num_participants=2, batch_size=1, grad_tol=0.0)
    obs, _ = _make_obs(params)
    msg = ChainMessage(random_factors(1, num_subareas=8, window=5), 0, 2)
    result = participant_step(msg, obs[0], params, substream(0, "chain", 1))
    assert isinstance(result, Continue)
    assert result.next_participant == 1


def test_step_budget_cap_forces_finish():
    params = _params(grad_tol=0.0, max_iters=40)
    obs, _ = _make_obs(params)
    msg = ChainMessage(random_factors(2, num_subareas=8, window=5), 39, 3)
    result = participant_step(msg, obs[0], params, substream(0, "chain", 1))
    assert isinstance(result, Finished)
    assert result.iterations == 40
    assert not result.converged


def test_step_never_returns_to_sender():
    params = _params(num_participants=4, grad_tol=0.0)
    obs, _ = _make_obs(params)
    rng = substream(5, "chain", 1)
    msg = ChainMessage(random_factors(3, num_subareas=8, window=5), 0, None)
    current = 2
    for _ in range(30):
        result = participant_step(msg, obs[current - 1], params, rng)
        if isinstance(result, Finished):
            break
        assert result.next_participant != msg.prev_participant
        assert result.next_participant != current
        current = result.next_participant
        msg = result.message


def _draw_by_candidate_list(rng, num_participants, exclude_self, prev, current):
    # the next-hop rule spelled out: list the candidates, draw an index
    excluded = {prev} if prev is not None else set()
    if exclude_self:
        excluded |= {current}
    everyone = range(1, num_participants + 1)
    candidates = [j for j in everyone if j not in excluded]
    if not candidates:
        candidates = [j for j in everyone if j != prev]
    if not candidates:
        candidates = [current]
    return candidates[rng.integers(0, len(candidates))]


@pytest.mark.parametrize("exclude_self", [True, False])
@pytest.mark.parametrize("num_participants", range(2, 7))
def test_draw_next_matches_candidate_list(num_participants, exclude_self):
    params = _params(num_participants=num_participants, batch_size=1,
                     exclude_self=exclude_self)
    for prev in [None, *range(1, num_participants + 1)]:
        for current in range(1, num_participants + 1):
            fast, slow = substream(1, "draw"), substream(1, "draw")
            for _ in range(20):
                route = [current] if prev is None else [prev, current]
                _walk(route, 1, fast, params)
                assert route[-1] == _draw_by_candidate_list(
                    slow, num_participants, exclude_self, prev, current)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 9, 198, 1000, 2**31 + 5, 2**40])
def test_chunked_draws_equal_scalar_draws(k):
    # a window walks each chain with one draw of the hops it lacks, of any
    # size up to a window's rounds; this must equal drawing them one at a
    # time and leave the stream in the same state
    for size in range(1, protocol._WINDOW_ROUNDS + 2):
        sized, scalar = substream(0, "chain", k), substream(0, "chain", k)
        scalar.integers(0, k + 1)  # the first hop's draw has one more candidate
        sized.integers(0, k + 1)
        values = sized.integers(0, k, size=size).tolist()
        assert values == [int(scalar.integers(0, k)) for _ in range(size)]
        assert sized.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("exclude_self", [True, False])
@pytest.mark.parametrize("num_participants", [2, 3, 6])
def test_routes_replay_scalar_draws(monkeypatch, num_participants,
                                    exclude_self):
    # a run draws every hop after a chain's first a window of rounds ahead
    # of its hops, with one sized draw per chain and window, m=2 included;
    # replaying each chain's stream with one scalar draw per hop must
    # reproduce its route. The budgets put the end of a run at the first
    # hop, before, at and just past a 64-round window; with grad_tol > 0
    # the chains stop at different rounds inside a window, and the next
    # window starts there. Blocks of one chain and of both must replay,
    # and give the same run.
    early_stops, runs = set(), {}
    for block_bytes in (1, protocol._BLOCK_BYTES):
        monkeypatch.setattr(protocol, "_BLOCK_BYTES", block_bytes)
        for max_iters in (1, 25, 30, 64, 65, 150):
            for grad_tol in (0.0, 0.2):
                params = _params(num_participants=num_participants,
                                 batch_size=2, step_size=0.03,
                                 grad_tol=grad_tol, max_iters=max_iters,
                                 exclude_self=exclude_self)
                obs, _ = _make_obs(params)
                result = run_simulation(obs, params)
                assert runs.setdefault(params, result.to_json()) == \
                    result.to_json()
                for chain_id, route in enumerate(result.routes, start=1):
                    rng = substream(params.seed, "chain", chain_id)
                    # the run's own init draws: the scale only multiplies them
                    init_factors(8, params.window, params.latent, 1.0, rng)
                    replay = [route[0]]
                    while len(replay) < len(route):
                        _walk(replay, 1, rng, params)
                    assert tuple(replay) == route
                    assert len(route) == max_iters or grad_tol > 0
                    if len(route) < max_iters:
                        early_stops.add(len(route))
    # chains stopped early, and at different rounds
    assert len(early_stops) > 1


def test_step_rejects_exhausted_message():
    params = _params(max_iters=10)
    obs, _ = _make_obs(params)
    msg = ChainMessage(random_factors(4, num_subareas=8, window=5), 10, 1)
    with pytest.raises(ParameterError):
        participant_step(msg, obs[0], params, substream(0, "chain", 1))


# --- recover ---

def test_recover_single_pair_is_its_product():
    pair = random_factors(11)
    recovered, averaged = recover(pair.p[None], pair.q[None])
    assert np.array_equal(recovered, pair.product())
    assert np.array_equal(averaged.p, pair.p)


def test_recover_identical_pairs_average_to_same():
    pair = random_factors(12)
    recovered, _ = recover(np.stack([pair.p, pair.p]), np.stack([pair.q, pair.q]))
    assert np.allclose(recovered, pair.product())


def test_recover_hand_case():
    p = np.array([[[2.0], [0.0]], [[0.0], [2.0]]])
    q = np.array([[[1.0, 1.0]], [[1.0, 1.0]]])
    recovered, averaged = recover(p, q)
    assert np.array_equal(averaged.p, [[1.0], [1.0]])
    assert np.array_equal(recovered, [[1.0, 1.0], [1.0, 1.0]])


def test_recover_empty_rejected():
    with pytest.raises(ParameterError):
        recover(np.empty((0, 4, 2)), np.empty((0, 2, 5)))


# --- run_simulation ---

def test_single_chain_run_recovers_its_own_product():
    params = _params(batch_size=1, max_iters=25, grad_tol=0.0)
    obs, _ = _make_obs(params)
    result = run_simulation(obs, params)
    assert result.per_chain_iters == (25,)
    assert {r["chain_id"] for r in result.transcript} == {1}
    assert np.array_equal(result.recovered, result.p_bar @ result.q_bar)
    # single chain: the average IS the chain's final factors
    assert result.transcript[-1]["to"] == ORGANIZER


def test_run_is_deterministic():
    params = _params(noise_sigma=0.02, max_iters=30)
    obs, _ = _make_obs(params)
    a = run_simulation(obs, params)
    b = run_simulation(obs, params)
    assert a.to_json() == b.to_json()
    assert np.array_equal(a.recovered, b.recovered)


def test_init_batch_full_population():
    # batch_size == num_participants: the organizer's initial batch of
    # sends reaches every participant exactly once
    params = _params(num_participants=6, batch_size=6, max_iters=5)
    obs, _ = _make_obs(params)
    result = run_simulation(obs, params)
    starters = [r["to"] for r in result.transcript if r["from"] == ORGANIZER]
    assert sorted(starters) == [1, 2, 3, 4, 5, 6]


def test_run_transcript_chain_structure():
    params = _params(grad_tol=0.0, max_iters=15)
    obs, _ = _make_obs(params)
    result = run_simulation(obs, params)
    for chain_id in range(1, params.batch_size + 1):
        entries = [r for r in result.transcript if r["chain_id"] == chain_id]
        assert entries[0]["from"] == ORGANIZER
        assert entries[-1]["to"] == ORGANIZER
        assert entries[-1]["payload_kind"] == "final-factors"
        assert all(r["payload_kind"] == "factors-only" for r in entries[:-1])
        # hops = iterations + 1 (the organizer's initial send)
        assert len(entries) == result.per_chain_iters[chain_id - 1] + 1


def test_run_counts_scalars_exactly():
    params = _params(grad_tol=0.0, max_iters=15)
    obs, _ = _make_obs(params)
    result = run_simulation(obs, params)
    payload = 8 * params.latent + params.latent * params.window
    expected = sum(iters + 1 for iters in result.per_chain_iters) * payload
    assert result.scalars_transferred() == expected
    assert (result.scalars_transferred(include_init=False)
            == expected - params.batch_size * payload)


def test_run_worst_case_matches_closed_form():
    # grad_tol=0 forces every chain to the budget; counted transfers
    # (excluding init) equal (|S|l + lw) * t_max * N exactly
    params = _params(grad_tol=0.0, max_iters=12, batch_size=4)
    obs, _ = _make_obs(params)
    result = run_simulation(obs, params)
    payload = 8 * params.latent + params.latent * params.window
    assert (result.scalars_transferred(include_init=False)
            == payload * params.max_iters * params.batch_size)


def test_run_validates_observation_order():
    params = _params()
    obs, _ = _make_obs(params)
    with pytest.raises(ParameterError):
        run_simulation(list(reversed(obs)), params)


def test_run_reports_divergence_with_chain_and_iteration():
    # the overflow is reported as NumericError, never as a numpy warning
    params = _params(step_size=50.0, grad_tol=0.0, max_iters=20000,
                     noise_sigma=0.0, literal_update=True)
    obs, _ = _make_obs(params)
    with warnings_as_errors(), pytest.raises(NumericError) as excinfo:
        run_simulation(obs, params)
    assert (excinfo.value.chain_id, excinfo.value.iteration) == (1, 9)


# (seed, step_size, max_iters) -> the expected (chain_id, iteration). Run
# one at a time, the three chains diverge at iterations (18, 14, 15) in the
# first case and (never, 11, 10) in the second: a run reports the lowest
# diverging chain id with its own iteration, even when a higher id in the
# same block diverges first.
_DIVERGENCE_ORDER = {
    "lowest-id-diverges-last": ((6, 5.0, 2000), (1, 18)),
    "first-chain-survives": ((11, 3.0, 300), (2, 11)),
}


@pytest.mark.parametrize("setting, expected", _DIVERGENCE_ORDER.values(),
                         ids=_DIVERGENCE_ORDER)
def test_run_divergence_reports_lowest_chain_id(setting, expected):
    seed, step_size, max_iters = setting
    params = _params(step_size=step_size, grad_tol=0.0, max_iters=max_iters,
                     literal_update=True, seed=seed)
    obs, _ = _make_obs(params)
    with warnings_as_errors(), pytest.raises(NumericError) as excinfo:
        run_simulation(obs, params)
    assert (excinfo.value.chain_id, excinfo.value.iteration) == expected


def test_run_require_convergence_drops_capped_chains():
    params = _params(grad_tol=0.0, max_iters=10, require_convergence=True)
    obs, _ = _make_obs(params)
    with pytest.raises(ParameterError):
        run_simulation(obs, params)


# SHA-256 of RunResult.to_json() for fixed inputs. Together they cover the
# README point, rank 1, the m=2 next-hop fallback, self-sends, chains
# finishing at different iterations, require_convergence dropping some
# chains, and windows large enough that chains are stepped in blocks of
# several (100x60, N=12) or one at a time (300x250).
_README_POINT = dict(num_participants=10, batch_size=10, max_subareas=3,
                     window=30, latent=2, noise_sigma=0.01, max_iters=2000,
                     seed=0)
_GOLDEN_RUNS = {
    "readme-point": (
        (20, 30, 2), _README_POINT,
        "780bfe4c174d2ac79689c865a4ec57066f4751fe0ff2f105beab0f4d600897ce"),
    "latent-1": (
        (20, 30, 2), dict(_README_POINT, latent=1, max_iters=150, seed=1),
        "dbefd991e7d15ded521a4f08d679197acef4f7e3b13a75b83aa6311a44b221a7"),
    "two-participant-fallback": (
        (8, 5, 2), dict(num_participants=2, batch_size=2, max_subareas=2,
                        window=5, latent=2, max_iters=60, grad_tol=0.0,
                        seed=2),
        "777e5aac9a2bd32ef4d4ce1bf497d4b51ee73d11e5faf711342ce104de4ece94"),
    "self-sends-allowed": (
        (8, 5, 2), dict(num_participants=4, batch_size=4, max_subareas=2,
                        window=5, latent=2, max_iters=60, grad_tol=0.0,
                        exclude_self=False, seed=3),
        "7583000b1dfaaaff767e5067eaee4b496d9e6187a70cd23441b276b2621a916e"),
    "uneven-convergence": (
        (20, 30, 2), dict(_README_POINT, grad_tol=0.8, max_iters=400, seed=4),
        "f5de6dbff626d7978aa4b8f915c5aef917a1164294aef0abee55351678d78b2c"),
    "require-convergence-drops": (
        (20, 30, 2), dict(_README_POINT, grad_tol=0.8, max_iters=400,
                          require_convergence=True, seed=5),
        "e4b5b1f4222e3ad7a103ee1fc04da11b4ae924f246b3499d8db9ee55a3727879"),
    "block-between-1-and-n": (
        (100, 60, 4), dict(num_participants=12, batch_size=12,
                           max_subareas=10, window=60, latent=4,
                           noise_sigma=0.01, max_iters=25, grad_tol=0.0,
                           seed=6),
        "78911f4a1abb1b89ec7f6974c89ccef62f3a16b99931eb630900ae045a0dc597"),
    "block-of-one": (
        (300, 250, 3), dict(num_participants=4, batch_size=3,
                            max_subareas=30, window=250, latent=3,
                            noise_sigma=0.01, max_iters=6, grad_tol=0.0,
                            seed=7),
        "cb1fa251cad1affcfb7cb89cd59b4f77a24a9f48e78e0ee931dccb30d8db3c4b"),
}


@pytest.mark.parametrize("shape, settings, digest", _GOLDEN_RUNS.values(),
                         ids=_GOLDEN_RUNS)
def test_run_matches_golden_digest(shape, settings, digest):
    rows, cols, rank = shape
    params = Hyperparams(**settings)
    field = generate_lowrank_field(rows, cols, rank, seed=params.seed)
    schedule = assign_coverage(params, rows, substream(params.seed, "coverage"))
    obs = observe(field.values, schedule, params.noise_sigma,
                  substream(params.seed, "observe"))
    result = run_simulation(obs, params)
    assert hashlib.sha256(result.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("exclude_self", [True, False])
def test_run_independent_of_block_size(monkeypatch, exclude_self):
    # the kernel gathers each chain's cells at an offset set by its position
    # in the block, which shifts as chains finish (here after 2 to 70 hops);
    # blocks of 1, 3 and all 7 chains must agree exactly
    params = _params(num_participants=9, batch_size=7, max_subareas=3,
                     window=12, max_iters=70, grad_tol=1.0,
                     noise_sigma=0.01, exclude_self=exclude_self)
    obs, _ = _make_obs(params, num_subareas=10)
    cell_bytes = 10 * params.window * 8
    runs = []
    for block_bytes in (1, 3 * cell_bytes, 100 * cell_bytes):
        monkeypatch.setattr(protocol, "_BLOCK_BYTES", block_bytes)
        runs.append(run_simulation(obs, params).to_json())
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("chains_per_block", [1, 3])
def test_reused_window_buffers_leak_no_stale_rows(monkeypatch,
                                                  chains_per_block):
    # every window of every block gathers into a prefix of the same two
    # buffers, which keep rows of earlier windows past it: here blocks of
    # 1 chain, or of 3, 3 and 1, whose chains stop mid-window after 2 to
    # 43 hops or run to the cap. One-round windows regather every round,
    # so a run that read a stale row would differ from theirs
    params = _params(num_participants=9, batch_size=7, max_subareas=3,
                     window=12, max_iters=150, grad_tol=1.0,
                     noise_sigma=0.01)
    obs, _ = _make_obs(params, num_subareas=10)
    monkeypatch.setattr(protocol, "_BLOCK_BYTES",
                        max(1, (chains_per_block - 1) * 10 * params.window * 8
                            + 1))
    runs = []
    for window_rounds in (protocol._WINDOW_ROUNDS, 1):
        monkeypatch.setattr(protocol, "_WINDOW_ROUNDS", window_rounds)
        runs.append(run_simulation(obs, params))
    assert len(set(runs[0].per_chain_iters)) > 2
    assert runs[0].to_json() == runs[1].to_json()


def test_gather_table_built_once_per_run(monkeypatch):
    # one table serves every block of a run, however many blocks there are
    params = _params(num_participants=9, batch_size=7, max_iters=30)
    obs, _ = _make_obs(params)
    expected = run_simulation(obs, params).to_json()
    built = []

    def counting_gather_table(observations):
        built.append(len(observations))
        return gather_table(observations)

    monkeypatch.setattr(protocol, "gather_table", counting_gather_table)
    monkeypatch.setattr(protocol, "_BLOCK_BYTES", 1)   # one chain per block
    assert run_simulation(obs, params).to_json() == expected
    assert built == [params.num_participants]


def test_run_result_json_has_no_observation_fields():
    params = _params(max_iters=10)
    obs, _ = _make_obs(params)
    result = run_simulation(obs, params)
    # structural privacy: neither the result types nor their JSON carry
    # any field capable of holding observations
    message_fields = {f.name for f in dataclasses.fields(ChainMessage)}
    assert message_fields == {"factors", "iteration", "prev_participant"}
    assert all(record.keys() == {"chain_id", "from", "to", "payload_kind",
                                 "scalar_count"}
               for record in result.transcript)
    doc = json.loads(result.to_json())
    forbidden = {"r_local", "f_mask", "observations", "readings", "location"}
    def keys_of(node):
        if isinstance(node, dict):
            for k, v in node.items():
                yield k
                yield from keys_of(v)
        elif isinstance(node, list):
            for v in node:
                yield from keys_of(v)
    assert forbidden.isdisjoint(set(keys_of(doc)))


# settings -> the converged chain count, for runs whose transcript shapes
# the renderer must also get right: routes of one hop, chains dropped from
# the average, and the m=2 fallback
_RENDER_CASES = {
    "one-hop-routes": (dict(max_iters=1), 0),
    "require-convergence-drops": (
        dict(_README_POINT, grad_tol=0.8, max_iters=400,
             require_convergence=True), 4),
    "two-participants": (
        dict(num_participants=2, batch_size=2, max_iters=30, grad_tol=0.0), 0),
}


@pytest.mark.parametrize("settings, converged", _RENDER_CASES.values(),
                         ids=_RENDER_CASES)
def test_to_json_matches_json_dumps(settings, converged):
    params = _params(**settings)
    obs, _ = _make_obs(params, num_subareas=20)
    result = run_simulation(obs, params)
    assert result.converged_chains == converged
    assert result.to_json() == reference_json(result)


def test_to_json_extra_keys():
    params = _params(max_iters=10)
    obs, _ = _make_obs(params)
    result = run_simulation(obs, params)
    # "config" replaces the run's echo; the others are added
    extra = {"config": {"out": "runs"}, "abs_error": 0.25,
             "missing_only_abs_error": None}
    assert result.to_json(**extra) == reference_json(result, **extra)
    for key in ("transcript", "verdict"):
        with pytest.raises(ParameterError, match=key):
            result.to_json(**{key: 1})


def test_numpy_scalar_params_render_like_python_ints():
    plain = _params(num_participants=4, max_iters=5)
    numpy = _params(num_participants=np.int64(4), max_iters=np.int64(5),
                    step_size=np.float64(1e-3))
    assert type(numpy.num_participants) is int
    assert type(numpy.step_size) is float
    obs, _ = _make_obs(plain)
    assert (run_simulation(obs, numpy).to_json()
            == run_simulation(obs, plain).to_json())


def test_decentralized_tracks_centralized_oracle():
    # side-by-side oracle comparison at the acceptance operating point
    # (t_max=2000, noise 0.01); the chain average has an error floor that
    # a longer centralized budget walks under, so the budget is pinned
    from statistics import median
    from cswa import absolute_error, solve_centralized
    ratios = []
    for seed in range(5):
        field = generate_lowrank_field(20, 30, rank=2, seed=seed)
        params = Hyperparams(num_participants=10, batch_size=10,
                             max_subareas=3, window=30, latent=2,
                             noise_sigma=0.01, max_iters=2000, seed=seed)
        schedule = assign_coverage(params, 20, substream(seed, "coverage"))
        obs = observe(field.values, schedule, 0.01, substream(seed, "observe"))
        run = run_simulation(obs, params)
        aggregated = aggregate_for_baseline(obs)
        factors, _ = solve_centralized(aggregated, params,
                                       substream(seed, "centralized"))
        ratios.append((absolute_error(run.recovered, field.values),
                       absolute_error(factors.product(), field.values)))
    decentralized = median(r[0] for r in ratios)
    centralized = median(r[1] for r in ratios)
    assert decentralized <= 1.5 * centralized


# --- audit_transcript ---

def _record(chain_id, sender, receiver, payload_kind, scalar_count):
    return {"chain_id": chain_id, "from": sender, "to": receiver,
            "payload_kind": payload_kind, "scalar_count": scalar_count}


def _well_formed_run():
    params = _params(grad_tol=0.0, max_iters=12)
    obs, _ = _make_obs(params)
    return obs, params


def test_audit_passes_well_formed_run():
    report = audit_transcript(run_simulation(*_well_formed_run()).transcript)
    assert report.passed
    assert report.violations == ()


def test_audit_flags_immediate_back_transfer():
    payload = 26
    transcript = [
        _record(1, ORGANIZER, 2, "factors-only", payload),
        _record(1, 2, 5, "factors-only", payload),
        _record(1, 5, 2, "factors-only", payload),  # back to sender
        _record(1, 2, ORGANIZER, "final-factors", payload),
    ]
    report = audit_transcript(transcript)
    assert not report.passed
    assert report.violations[0].index == 2
    assert report.violations[0].rule == "back-transfer"


def test_audit_allows_non_consecutive_revisit():
    payload = 26
    transcript = [
        _record(1, ORGANIZER, 2, "factors-only", payload),
        _record(1, 2, 5, "factors-only", payload),
        _record(1, 5, 3, "factors-only", payload),
        _record(1, 3, 2, "factors-only", payload),  # revisit of 2: fine
        _record(1, 2, ORGANIZER, "final-factors", payload),
    ]
    assert audit_transcript(transcript).passed


def test_audit_flags_early_organizer_contact():
    payload = 26
    transcript = [
        _record(1, ORGANIZER, 2, "factors-only", payload),
        _record(1, 2, ORGANIZER, "final-factors", payload),  # early
        _record(1, 2, 4, "factors-only", payload),
    ]
    report = audit_transcript(transcript)
    assert not report.passed
    assert report.violations[0].index == 1
    assert report.violations[0].rule == "early-organizer-contact"


def test_audit_flags_oversized_payload():
    payload = 26
    transcript = [
        _record(1, ORGANIZER, 2, "factors-only", payload),
        _record(1, 2, 5, "factors-only", payload + 40),  # leak-sized
        _record(1, 5, ORGANIZER, "final-factors", payload),
    ]
    report = audit_transcript(transcript)
    assert not report.passed
    assert report.violations[0].index == 1
    assert report.violations[0].rule == "payload"


def test_audit_checks_payload_against_expected_size():
    # every record agrees with the first, so only the expected size shows
    # that all of them are inflated
    result = run_simulation(*_well_formed_run())
    size = result.p_bar.size + result.q_bar.size
    assert audit_transcript(result.transcript, size).passed
    inflated = [dict(r, scalar_count=1000000) for r in result.transcript]
    assert audit_transcript(inflated).passed
    report = audit_transcript(inflated, size)
    assert len(report.violations) == len(inflated)
    assert {v.rule for v in report.violations} == {"payload"}


def test_audit_flags_extra_record_key():
    result = run_simulation(*_well_formed_run())
    transcript = result.transcript
    transcript[3]["readings"] = [0.5]   # where observations would leak
    report = audit_transcript(transcript)
    assert [(v.index, v.rule) for v in report.violations] == [(3, "payload")]
    # each access builds new records, so the edit reached no later transcript
    assert audit_transcript(result.transcript).passed


def test_audit_interleaved_chains_judged_independently():
    payload = 26
    transcript = [
        _record(1, ORGANIZER, 2, "factors-only", payload),
        _record(2, ORGANIZER, 5, "factors-only", payload),
        _record(1, 2, 5, "factors-only", payload),
        _record(2, 5, 2, "factors-only", payload),  # fine: chain 2
        _record(1, 5, ORGANIZER, "final-factors", payload),
        _record(2, 2, ORGANIZER, "final-factors", payload),
    ]
    assert audit_transcript(transcript).passed


# --- aggregate_for_baseline ---

def _obs_from_cells(participant_id, shape, cells):
    values = np.zeros(shape)
    mask = np.zeros(shape)
    for (a, t), v in cells.items():
        values[a, t] = v
        mask[a, t] = 1.0
    return dense_observations(participant_id, values, mask)


def test_aggregate_single_source():
    obs = _obs_from_cells(1, (3, 3), {(0, 0): 5.0})
    agg = aggregate_for_baseline([obs])
    assert agg.r_local[0, 0] == 5.0
    assert agg.f_mask[0, 0] == 1.0
    assert agg.participant_id == 0


def test_aggregate_averages_double_coverage():
    a = _obs_from_cells(1, (3, 3), {(0, 0): 4.0})
    b = _obs_from_cells(2, (3, 3), {(0, 0): 6.0})
    agg = aggregate_for_baseline([a, b])
    assert agg.r_local[0, 0] == 5.0


@pytest.mark.parametrize("m", range(2, 17))
def test_aggregate_matches_dense_formula(m):
    # participant by participant sums over the covered cells give the bits
    # of the dense sums over every cell, overlaps included
    params = _params(num_participants=m, batch_size=1, max_subareas=6,
                     window=9, noise_sigma=0.05, seed=m)
    field = generate_lowrank_field(12, 9, rank=2, seed=m)
    schedule = assign_coverage(params, 12, substream(m, "coverage"))
    obs = observe(field.values, schedule, 0.05, substream(m, "observe"))
    counts = sum(o.f_mask for o in obs)
    sums = sum(o.r_local for o in obs)
    covered = counts > 0
    mean = np.zeros_like(sums)
    np.divide(sums, counts, out=mean, where=covered)
    assert (counts > 1).any()
    agg = aggregate_for_baseline(obs)
    assert np.array_equal(agg.r_local, mean)
    assert np.array_equal(np.signbit(agg.r_local), np.signbit(mean))
    assert np.array_equal(agg.f_mask, covered.astype(np.float64))


def test_aggregate_disjoint_union():
    a = _obs_from_cells(1, (2, 2), {(0, 0): 1.0, (0, 1): 2.0})
    b = _obs_from_cells(2, (2, 2), {(1, 0): 3.0})
    agg = aggregate_for_baseline([a, b])
    assert np.array_equal(agg.f_mask, np.maximum(a.f_mask, b.f_mask))
    assert agg.r_local[0, 1] == 2.0 and agg.r_local[1, 0] == 3.0
    assert agg.f_mask[1, 1] == 0.0

