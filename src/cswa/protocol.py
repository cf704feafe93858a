"""The aggregation-free message-passing protocol.

An organizer starts N chains, each a factor pair random-walking across
participants. Every hop applies one local masked update and forwards the
factors (never the data) to a next participant that is not the sender;
a chain returns to the organizer only when it converges or exhausts its
iteration budget. The organizer averages the returned pairs and multiplies
them to recover the field window.

Chains are logically parallel, and are simulated in blocks of consecutive
chain ids: every live chain of a block takes its next hop in one stacked
update, and a block runs to completion before the next one starts. The
block holds as many chains as fit their (S, W) residuals in 512 KiB, at
least one and at most N. The run's factors are one packed array, a row per
chain, which holds the chain's initial factors and receives its final ones
when it stops. Every block reads one gather table of all participants'
covered cells and readings, built once per run. A chain's route depends on
its stream alone, so a block draws its chains' next hops a window of up to
64 rounds ahead and gathers the window's table rows at once, into two
buffers that the run allocates next to the table and every window reuses;
only a round in which a chain stops steps through the chains one by one.
A round tests its factors for overflow against a running bound on the
block's largest entry, and makes the exact test only when the bound is
too high to rule one out. Participants are stateless with respect to
chains (factors live in the message, observations are read-only), each
chain draws from its own stream derived from (seed, chain_id), and each
chain's arithmetic is the same in any block, so any interleaving yields
the identical result. A diverging run reports the lowest diverging chain
id with that chain's own iteration, which is what running the chains one
at a time in id order would report.

A run records each chain's route and final factors. The transcript, the
organizer-visible data flow, is derived from the routes, and
:func:`audit_transcript` checks it against the architecture's privacy
rules: no immediate back-transfer between participants, no organizer
contact before a chain finishes, factor-sized payloads only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .factorization import (_NON_FINITE, _Stack, _unpack, gather_table,
                            init_factors, sgd_step)
from .model import FactorPair, Hyperparams, LocalObservations
from .rng import substream

ORGANIZER = "organizer"

PAYLOAD_FACTORS = "factors-only"
PAYLOAD_FINAL = "final-factors"

# The keys of a transcript record, the transcript's one form in memory and on
# disk. ``from`` and ``to`` are participant ids (1-based) or ``"organizer"``.
RECORD_KEYS = ("chain_id", "from", "to", "payload_kind", "scalar_count")
_record_fields = itemgetter(*RECORD_KEYS)

# A record as ``json.dumps(record, sort_keys=True, separators=(",", ":"))``
# writes it, with a named %-slot for each value's JSON text.
_RECORD_TEMPLATE = "{%s}" % ",".join(
    f"{json.dumps(key)}:%({key})s" for key in sorted(RECORD_KEYS))

# Chains are stepped in blocks whose (S, W) residuals fill about this many
# bytes: small enough to stay in cache, large enough to share each numpy
# call among several chains.
_BLOCK_BYTES = 512 * 1024

# A block draws its routes at most this many rounds ahead of its hops.
_WINDOW_ROUNDS = 64

# A round whose bound on the block's factor entries, and whose growth of
# that bound, stay below this has no overflow to find (see run_simulation).
_FINITE_BOUND = 1e300


@dataclass(frozen=True)
class ChainMessage:
    """What travels between participants: the factors, the update count so
    far, and the sender's index (None when the organizer originated it).

    Deliberately has no field that could carry observations or locations.
    """

    factors: FactorPair
    iteration: int
    prev_participant: int | None

    def __post_init__(self):
        if self.iteration < 0:
            raise ParameterError(f"iteration must be non-negative, got {self.iteration}")
        if self.prev_participant is not None and self.prev_participant < 1:
            raise ParameterError(
                f"prev_participant must be a participant index, got {self.prev_participant!r}")


@dataclass(frozen=True)
class Continue:
    """A participant step that forwards the chain."""

    next_participant: int
    message: ChainMessage


@dataclass(frozen=True)
class Finished:
    """A participant step that ends the chain and reports to the organizer.

    ``converged`` distinguishes a gradient-tolerance stop from hitting the
    iteration cap.
    """

    factors: FactorPair
    iterations: int
    converged: bool


@dataclass(frozen=True)
class AuditViolation:
    index: int      # position in the transcript
    rule: str       # "back-transfer" | "early-organizer-contact" | "payload"
    detail: str


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    violations: tuple[AuditViolation, ...]


@dataclass(frozen=True, eq=False)
class RunResult:
    """Everything a full protocol run produces.

    ``recovered`` is exactly ``p_bar @ q_bar``. ``routes[c-1]`` lists the
    participants chain c updated at, in order. ``config`` echoes the run's
    :class:`Hyperparams`, flags included, so the run can be reproduced
    bit-for-bit from this object alone (plus the observations).
    """

    recovered: np.ndarray
    p_bar: np.ndarray
    q_bar: np.ndarray
    routes: tuple[tuple[int, ...], ...]
    converged_chains: int
    config: dict

    @property
    def per_chain_iters(self) -> tuple[int, ...]:
        return tuple(len(route) for route in self.routes)

    @property
    def transcript(self) -> list[dict]:
        """Every transfer's record, chain by chain: the organizer's send,
        one send per hop, and the return to the organizer. A new list on
        each access."""
        payload = self.p_bar.size + self.q_bar.size
        return [{"chain_id": chain_id, "from": a, "to": b,
                 "payload_kind": PAYLOAD_FINAL if b == ORGANIZER else PAYLOAD_FACTORS,
                 "scalar_count": payload}
                for chain_id, route in enumerate(self.routes, start=1)
                for a, b in zip((ORGANIZER,) + route, route + (ORGANIZER,))]

    def scalars_transferred(self, include_init: bool = True) -> int:
        """Total real values moved over the network in this run.

        ``include_init=False`` drops the organizer's N initial sends,
        leaving only participant-originated transfers (the quantity the
        worst-case bound covers).
        """
        return (self.p_bar.size + self.q_bar.size) * sum(
            len(route) + include_init for route in self.routes)

    def to_json(self, **extra) -> str:
        """The run as one compact JSON document with sorted keys: the
        config echo, ``recovered``, the averaged factors, the per-chain
        iterations, the converged count and the transcript, plus the
        ``extra`` top-level keys (which replace a field of the same name).

        Only the head goes through :func:`json.dumps`; the ``transcript``
        array, the last key in sorted order, is written straight from the
        routes, byte for byte as ``json.dumps`` writes :attr:`transcript`.
        """
        late = sorted(key for key in extra if key >= "transcript")
        if late:
            raise ParameterError(
                f"extra keys {late} must sort before 'transcript'")
        head = json.dumps(
            dict({"config": self.config,
                  "recovered": self.recovered.tolist(),
                  "p_bar": self.p_bar.tolist(),
                  "q_bar": self.q_bar.tolist(),
                  "per_chain_iters": list(self.per_chain_iters),
                  "converged_chains": self.converged_chains}, **extra),
            sort_keys=True, separators=(",", ":"))
        # Per chain, the record template is filled with all but the two
        # endpoints, once for the hops and once for the return; "from"
        # sorts before "to", so a record is that template % (from, to).
        # The hop records are one join: split at its two slots into
        # pre, mid and post, a hop is pre + from + mid + to + post.
        payload = self.p_bar.size + self.q_bar.size
        organizer = json.dumps(ORGANIZER)
        records = []
        for chain_id, route in enumerate(self.routes, start=1):
            hop, final = (_RECORD_TEMPLATE % {
                "chain_id": chain_id, "from": "%s", "to": "%s",
                "payload_kind": json.dumps(kind), "scalar_count": payload}
                for kind in (PAYLOAD_FACTORS, PAYLOAD_FINAL))
            pre, mid, post = hop.split("%s")
            ends = [organizer, *map(str, route)]
            records.append(pre + (post + "," + pre).join(
                map(mid.join, zip(ends, ends[1:]))) + post)
            records.append(final % (ends[-1], organizer))
        return f'{head[:-1]},"transcript":[{",".join(records)}]}}'


def _walk(route: list[int], need: int, rng: np.random.Generator,
          params: Hyperparams) -> None:
    """The next-hop rule: append ``need`` hops to ``route``, each drawn
    uniformly from every participant but its sender (the previous entry;
    the organizer, which is no participant, for a one-entry route) and, by
    default, the current participant. When both would empty the candidate
    set (m=2 with exclude_self), only the sender is excluded; this
    degenerate fallback keeps tiny networks runnable.

    The candidate count and the exclusion case are the same for every hop
    after a chain's first, so one ``rng.integers(0, count, size=need)``
    draws them all, the same values as ``need`` scalar draws; a one-entry
    route takes one hop. Pick p goes to the (p+1)-th lowest candidate id.
    """
    m, current = params.num_participants, route[-1]
    if len(route) == 1:
        # sent by the organizer: the current participant stands in as the
        # one exclusion, and m + 1, above every id, excludes no one
        sender = current if params.exclude_self else m + 1
        exclude_current = False
    else:
        sender = route[-2]
        exclude_current = params.exclude_self and m > 2 and sender != current
    picks = rng.integers(0, m - (sender <= m) - exclude_current,
                         size=need).tolist()
    append = route.append
    # the exclusion case is fixed for the whole walk, so the walk branches
    # on it once, not once per hop
    if exclude_current:
        for pick in picks:
            # shift past the lower exclusion, and then past the higher one
            pick += 1
            if sender < current:
                if pick >= sender:
                    pick += 1
                    if pick >= current:
                        pick += 1
            elif pick >= current:
                pick += 1
                if pick >= sender:
                    pick += 1
            sender, current = current, pick
            append(pick)
    else:
        for pick in picks:
            pick += 1
            if pick >= sender:
                pick += 1
            sender, current = current, pick
            append(pick)


def participant_step(msg: ChainMessage, obs: LocalObservations,
                     params: Hyperparams,
                     rng: np.random.Generator) -> Continue | Finished:
    """One participant's handling of an incoming chain message.

    Applies a single local update, then either forwards the chain to a
    next participant drawn uniformly from everyone except the sender (and
    itself, unless ``params.exclude_self`` is off), or, when the
    perturbation max(|g_p|_inf, |g_q|_inf) has dropped to grad_tol or the
    budget is spent, finishes and addresses the factors to the organizer.
    """
    if msg.iteration >= params.max_iters:
        raise ParameterError(
            f"message iteration {msg.iteration} already at the cap "
            f"{params.max_iters}; the scheduler must not deliver it")
    try:
        new_factors, grads = sgd_step(obs, msg.factors, params.step_size,
                                      params.reg_p, params.reg_q,
                                      literal_update=params.literal_update)
    except NumericError as err:
        err.iteration = msg.iteration + 1
        raise
    iteration = msg.iteration + 1
    delta = grads.max_abs()
    if delta > params.grad_tol and iteration < params.max_iters:
        sender, current = msg.prev_participant, obs.participant_id
        route = [current] if sender is None else [sender, current]
        _walk(route, 1, rng, params)
        return Continue(route[-1],
                        ChainMessage(new_factors, iteration, current))
    return Finished(new_factors, iteration, converged=delta <= params.grad_tol)


def recover(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, FactorPair]:
    """Organizer-side recovery: arithmetic mean of the returned factor
    pairs, stacked along axis 0 of ``p`` and ``q``, then their product.
    Returns (recovered matrix, averaged pair)."""
    if not len(p):
        raise ParameterError("recovery needs at least one returned factor pair")
    averaged = FactorPair(np.mean(p, axis=0), np.mean(q, axis=0))
    return averaged.product(), averaged


def _window_shape(all_obs: list[LocalObservations]) -> tuple[int, int]:
    """The (subareas, window) shape that every observation set shares."""
    shapes = {(obs.num_subareas, obs.window) for obs in all_obs}
    if len(shapes) != 1:
        raise ShapeError(f"observation windows disagree in shape: {shapes}")
    return shapes.pop()


def run_simulation(all_obs: list[LocalObservations],
                   params: Hyperparams) -> RunResult:
    """Execute a full run: batch initialization, every chain to completion,
    and recovery, recording each chain's route.

    ``all_obs`` must hold participant 1..m in order. Each chain's random
    stream is derived from (seed, chain_id) and its starting factors are
    scaled by the starting participant's own observed mean, so results are
    a pure function of (observations, params) regardless of how chains
    would be interleaved.

    ``params.require_convergence`` drops chains that hit the iteration
    budget from the recovery average (they still appear in
    routes/iterations/transcript).

    Each block steps its live chains in one hop of a
    :class:`~cswa.factorization._Stack` per round. A window walks every live
    route to its end, with one draw of the hops it lacks, and gathers the
    window's cells and readings into a prefix of the run's two buffers (see
    :meth:`~cswa.factorization._Stack.gather`); rows that an earlier window
    left past the prefix are never read. A round in which every live chain
    is finite and above ``grad_tol`` makes no per-chain Python call and no
    reduction beyond the hop's deltas. Its overflow test is a running upper
    bound on the block's largest factor entry: ``x.max()`` at the window's
    start, plus ``step_size * sum(delta)`` per round, since a hop moves pair
    i's entries by at most ``step_size * delta[i]``. While the bound and the
    round's growth of it stay below ``_FINITE_BOUND``, every factor and
    update is finite; otherwise the round makes the exact test, and a false
    alarm costs only that test. Only a round in which a chain stops goes
    chain by chain: it truncates the stopped chains' routes to the hops
    they made, writes their final rows, drops them from the stack and ends
    the window; the survivors' next window starts at the following round. A
    chain whose update is not finite retires, and once its block is done
    the lowest diverged chain id is reported with its own iteration.
    """
    if len(all_obs) != params.num_participants:
        raise ParameterError(
            f"expected {params.num_participants} observation sets, got {len(all_obs)}")
    for idx, obs in enumerate(all_obs, start=1):
        if obs.participant_id != idx:
            raise ParameterError(
                f"observations must be ordered by participant id; position "
                f"{idx} holds participant {obs.participant_id}")
    num_subareas, window = _window_shape(all_obs)
    if window != params.window:
        raise ShapeError(
            f"observation window ({window}) does not match params.window "
            f"({params.window})")
    params.check_against(num_subareas)

    organizer_rng = substream(params.seed, "organizer")
    starters = [int(j) + 1 for j in
                organizer_rng.choice(params.num_participants,
                                     size=params.batch_size, replace=False)]
    chains = len(starters)

    size = max(1, min(_BLOCK_BYTES // (num_subareas * window * 8), chains))
    table = gather_table(all_obs)
    # a window's gathered cells and readings, at most a window's rounds of
    # a block's rows, for every window of every block to reuse
    rounds = min(params.max_iters, _WINDOW_ROUNDS)
    length = rounds * size * table.cells.shape[1]
    buffers = np.empty(length, dtype=np.intp), np.empty(length)
    # row c - 1 is chain c's packed factors: its initial ones, until its
    # block's stack takes the rows over as a buffer, and its final ones
    # from its stop on
    x = np.empty((chains, (num_subareas + window) * params.latent))
    init_p, init_q = _unpack(x, num_subareas, window)
    rngs, routes = [], []
    for c, start in enumerate(starters):
        rngs.append(substream(params.seed, "chain", c + 1))
        local_mean = all_obs[start - 1].observed_mean()
        factors = init_factors(num_subareas, window, params.latent,
                               local_mean if local_mean > 0 else 1.0, rngs[c])
        init_p[c], init_q[c] = factors.p, factors.q
        # the first hop's draw: nothing reads the stream before it is due
        routes.append([start])
        _walk(routes[c], 1, rngs[c], params)
    step_size, grad_tol, max_iters = (params.step_size, params.grad_tol,
                                      params.max_iters)
    step = (-1.0 if params.literal_update else 1.0) * step_size
    converged = np.zeros(chains, dtype=bool)
    diverged: list[tuple[int, int]] = []   # (chain id, its iteration)
    with np.errstate(over="ignore", invalid="ignore"):   # reported as divergence
        for first in range(0, chains, size):
            live = list(range(first, min(first + size, chains)))
            stack = _Stack(x[first:first + size], table, params.reg_p,
                           params.reg_q)
            iteration = 0
            while live:
                # a window: every live route walked to its end (with a
                # budget of one hop, the first hop already runs past it),
                # then each round's table rows for the live chains in order
                end = min(max_iters, iteration + _WINDOW_ROUNDS)
                for c in live:
                    if len(routes[c]) < end:
                        _walk(routes[c], end - len(routes[c]), rngs[c], params)
                rows = np.array([routes[c][iteration:end] for c in live],
                                dtype=np.intp).T - 1
                bound = float(stack.x.max())
                for hop_cells, hop_readings in zip(*stack.gather(rows,
                                                                 buffers)):
                    iteration += 1
                    delta = stack.hop(hop_cells, hop_readings, step).tolist()
                    growth = step_size * sum(delta)
                    bound += growth
                    if (iteration < max_iters and min(delta) > grad_tol
                            and ((bound < _FINITE_BOUND
                                  and growth < _FINITE_BOUND)
                                 or stack.finite().all())):
                        continue
                    keep, done = [], []
                    for i, (c, ok, d) in enumerate(zip(
                            live, stack.finite().tolist(), delta)):
                        if ok and iteration < max_iters and d > grad_tol:
                            keep.append(i)
                            continue
                        if not ok:
                            diverged.append((c + 1, iteration))
                        else:
                            done.append(i)
                            converged[c] = d <= grad_tol
                        del routes[c][iteration:]
                    x[[live[i] for i in done]] = stack.x[done]
                    live = [live[i] for i in keep]
                    if live:
                        stack = _Stack(stack.x[keep], table, params.reg_p,
                                       params.reg_q)
                    break   # the survivors' next window starts at this round
            if diverged:
                chain_id, at = min(diverged)
                raise NumericError(_NON_FINITE, iteration=at,
                                   chain_id=chain_id)
    kept = converged | (not params.require_convergence)
    if not kept.any():
        raise ParameterError(
            "require_convergence dropped every chain; raise max_iters or "
            "grad_tol")
    recovered, averaged = recover(*_unpack(x[kept], num_subareas, window))
    return RunResult(
        recovered=recovered,
        p_bar=averaged.p,
        q_bar=averaged.q,
        routes=tuple(map(tuple, routes)),
        converged_chains=int(converged.sum()),
        config=params.to_dict(),
    )


def audit_transcript(transcript: list[dict],
                     expected_payload: int | None = None) -> AuditReport:
    """Check a transcript's records against the architecture's privacy rules.

    (a) back-transfer: within a chain, no participant may send to the
        participant it just received from;
    (b) early organizer contact: a chain talks to the organizer exactly
        once, as its final record;
    (c) payload: every record has exactly the :data:`RECORD_KEYS` (another
        key could carry observations) and a payload of
        ``expected_payload`` scalars, the size of one factor pair (a larger
        one would indicate observation leakage). Without it, the first
        record's ``scalar_count`` is taken as the run's uniform size.

    Revisiting a participant later in the chain is allowed; only the
    immediate sender is off-limits.
    """
    violations: list[AuditViolation] = []
    last_in_chain = {r.get("chain_id"): i for i, r in enumerate(transcript)}
    if expected_payload is None:
        expected_payload = transcript[0].get("scalar_count") if transcript else 0
    prev_in_chain: dict[int, tuple] = {}   # chain id -> its last (from, to)
    keys = frozenset(RECORD_KEYS)
    for index, record in enumerate(transcript):
        if record.keys() != keys:
            violations.append(AuditViolation(
                index, "payload",
                f"record keys {list(record)} are not {list(RECORD_KEYS)}"))
            continue
        chain_id, sender, receiver, kind, count = _record_fields(record)
        prev = prev_in_chain.get(chain_id)
        if (prev is not None and sender == prev[1] and receiver == prev[0]
                and isinstance(prev[0], int) and isinstance(prev[1], int)):
            violations.append(AuditViolation(
                index, "back-transfer",
                f"chain {chain_id}: participant {sender} returned the "
                f"factors to its sender {receiver}"))
        if receiver == ORGANIZER and index != last_in_chain[chain_id]:
            violations.append(AuditViolation(
                index, "early-organizer-contact",
                f"chain {chain_id}: organizer contacted before the chain "
                f"finished"))
        if kind not in (PAYLOAD_FACTORS, PAYLOAD_FINAL):
            violations.append(AuditViolation(
                index, "payload", f"unknown payload kind {kind!r}"))
        elif count != expected_payload:
            violations.append(AuditViolation(
                index, "payload",
                f"payload of {count} scalars does not match the run's factor "
                f"size {expected_payload}"))
        prev_in_chain[chain_id] = (sender, receiver)
    return AuditReport(passed=not violations, violations=tuple(violations))


def aggregate_for_baseline(all_obs: list[LocalObservations]) -> LocalObservations:
    """Organizer-style aggregation used ONLY by the centralized baselines:
    each cell covered by at least one participant gets the mean of the
    covering participants' values; uncovered cells stay masked out.

    The returned observations carry ``participant_id=0`` (the organizer).
    """
    if not all_obs:
        raise ParameterError("aggregation needs at least one participant")
    num_subareas, window = _window_shape(all_obs)
    counts = np.zeros(num_subareas * window)
    sums = np.zeros(num_subareas * window)
    # participant by participant, as a dense sum would add them
    for obs in all_obs:
        counts[obs.cells] += 1.0
        sums[obs.cells] += obs.readings
    cells = np.flatnonzero(counts)
    return LocalObservations(0, num_subareas, window, cells,
                             sums[cells] / counts[cells])
