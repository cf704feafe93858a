"""Shared builders, the finite-difference gradient oracle, the JSON
reference for ``RunResult.to_json`` and a warnings-as-errors block."""

import json
import warnings
from contextlib import contextmanager

import numpy as np

from cswa import CoverageSchedule, FactorPair, LocalObservations, masked_loss


@contextmanager
def warnings_as_errors():
    """Turn every warning raised inside the block into an exception."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def dense_observations(participant_id: int, values, mask) -> LocalObservations:
    """Observations given as a dense S x W readings matrix and 0/1 mask:
    the readings at the cells where the mask is 1. Readings off the mask
    must be 0, so the dense views give both matrices back."""
    values = np.asarray(values, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    assert values.shape == mask.shape and np.isin(mask, (0.0, 1.0)).all()
    assert not values[mask == 0.0].any()
    cells = np.flatnonzero(mask)
    return LocalObservations(participant_id, *values.shape, cells,
                             values.ravel()[cells])


def dense_schedule(covered) -> CoverageSchedule:
    """A schedule given as a dense (participants, subareas, cycles) boolean
    mask: each participant's cells are the flat indices of its True
    entries."""
    covered = np.asarray(covered, dtype=bool)
    return CoverageSchedule(covered.shape[1], covered.shape[2],
                            [np.flatnonzero(mask) for mask in covered])


def dense_coverage(schedule: CoverageSchedule) -> np.ndarray:
    """``schedule`` as a dense (participants, subareas, cycles) boolean
    mask: ``[j-1, a-1, t-1]`` is True when participant j covers subarea a
    in cycle t."""
    covered = np.zeros((schedule.num_participants,
                        schedule.num_subareas * schedule.num_cycles), dtype=bool)
    for row, cells in zip(covered, schedule.cells):
        row[cells] = True
    return covered.reshape(-1, schedule.num_subareas, schedule.num_cycles)


def random_observations(seed: int, num_subareas: int = 6, window: int = 4,
                        fill: float = 0.5, participant_id: int = 1,
                        scale: float = 2.0) -> LocalObservations:
    """A random masked observation set with at least one covered cell."""
    rng = np.random.default_rng(seed)
    mask = (rng.random((num_subareas, window)) < fill).astype(float)
    if not mask.any():
        mask[0, 0] = 1.0
    values = mask * rng.random((num_subareas, window)) * scale
    return dense_observations(participant_id, values, mask)


def random_factors(seed: int, num_subareas: int = 6, window: int = 4,
                   latent: int = 2, scale: float = 1.0) -> FactorPair:
    rng = np.random.default_rng(seed)
    return FactorPair(scale * rng.random((num_subareas, latent)),
                      scale * rng.random((latent, window)))


def reference_json(result, **extra) -> str:
    """``result.to_json(**extra)`` as plain ``json.dumps`` writes the run's
    document, every transcript record included."""
    doc = {"config": result.config,
           "recovered": result.recovered.tolist(),
           "p_bar": result.p_bar.tolist(),
           "q_bar": result.q_bar.tolist(),
           "per_chain_iters": list(result.per_chain_iters),
           "converged_chains": result.converged_chains,
           "transcript": result.transcript}
    return json.dumps(dict(doc, **extra), sort_keys=True, separators=(",", ":"))


def finite_difference_grads(obs: LocalObservations, factors: FactorPair,
                            reg_p: float, reg_q: float,
                            step: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient of masked_loss w.r.t. every factor entry.

    Independent of the analytic gradient path: only the loss is evaluated.
    """
    def loss_at(p, q):
        return masked_loss(obs, FactorPair(p, q), reg_p, reg_q)

    fd_p = np.zeros_like(factors.p)
    base_p = factors.p.copy()
    for idx in np.ndindex(*base_p.shape):
        plus = base_p.copy()
        minus = base_p.copy()
        plus[idx] += step
        minus[idx] -= step
        fd_p[idx] = (loss_at(plus, factors.q) - loss_at(minus, factors.q)) / (2 * step)

    fd_q = np.zeros_like(factors.q)
    base_q = factors.q.copy()
    for idx in np.ndindex(*base_q.shape):
        plus = base_q.copy()
        minus = base_q.copy()
        plus[idx] += step
        minus[idx] -= step
        fd_q[idx] = (loss_at(factors.p, plus) - loss_at(factors.p, minus)) / (2 * step)
    return fd_p, fd_q
