"""The numerical core: masked regularized squared loss, its gradients, one
SGD step with non-negativity truncation, and a full-batch centralized solver
used both as a baseline and as the oracle for decentralized-vs-centralized
comparison.

For one participant's observations (readings R, 0/1 filter F) and factors
(P, Q), the objective is

    loss(P, Q) = ||F o (R - PQ)||_F^2 + reg_p ||P||_F^2 + reg_q ||Q||_F^2

where ``o`` is element-wise multiplication. The quantities

    g_p = (F o (R - PQ)) Q^T - reg_p P
    g_q = P^T (F o (R - PQ)) - reg_q Q

equal -1/2 of the analytic gradient of the loss, so the descent update is
P <- Truncate(P + step * g_p) (the factor 2 is absorbed into the step size).
``literal_update=True`` flips the sign to P <- Truncate(P - step * g_p),
which moves *away* from the data-fit optimum; it exists only for
side-by-side study of the two sign conventions and is off everywhere by
default.

The residual F o (R - PQ) is evaluated at the covered cells only: R - PQ
is gathered at each participant's cached covered cells, the rest of PQ is
multiplied by 0, and the gathered values are scattered back. A covered
cell thus holds exactly 1 * (R - PQ), and an uncovered one 0 * PQ, which is
0 for a finite product and NaN for an overflowed one, as with the dense
definition, so a non-finite product is still reported as divergence.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .model import FactorPair, Hyperparams, LocalObservations


@dataclass(frozen=True)
class GradPair:
    """The pair (g_p, g_q) produced by one gradient evaluation."""

    g_p: np.ndarray
    g_q: np.ndarray

    def max_abs(self) -> float:
        """Perturbation magnitude: the largest absolute entry across both
        matrices. This is the chain convergence statistic."""
        return float(max(np.abs(self.g_p).max(), np.abs(self.g_q).max()))


_NON_FINITE = "factor update produced non-finite entries; reduce step_size"


def _check_shapes(obs: LocalObservations, factors: FactorPair) -> None:
    if factors.p.shape[0] != obs.num_subareas or factors.q.shape[1] != obs.window:
        raise ShapeError(
            f"factors ({factors.p.shape} x {factors.q.shape}) do not match "
            f"observations ({obs.num_subareas}x{obs.window})")


def _residuals(p: np.ndarray, q: np.ndarray,
               observations: Sequence[LocalObservations]) -> np.ndarray:
    """F o (R - PQ) for a stack of pairs ``p`` (n, S, L), ``q`` (n, L, W),
    pair i against ``observations[i]``, from the observations' cached
    ``cells`` and ``readings`` with one gather and one scatter for the whole
    stack (see module docstring)."""
    residual = p @ q
    flat = residual.reshape(-1)
    if len(observations) == 1:
        cells, readings = observations[0].cells, observations[0].readings
    else:
        # pair i's cells sit at offset i * S * W of the flattened stack
        counts = [obs.cells.size for obs in observations]
        cells = np.concatenate([obs.cells for obs in observations])
        cells += np.repeat(np.arange(0, flat.size, flat.size // len(counts)),
                           counts)
        readings = np.concatenate([obs.readings for obs in observations])
    covered = readings - flat[cells]
    np.multiply(residual, 0.0, out=residual)
    flat[cells] = covered
    return residual


def _stacked_gradients(p: np.ndarray, q: np.ndarray,
                       observations: Sequence[LocalObservations],
                       reg_p: float, reg_q: float) -> tuple[np.ndarray, np.ndarray]:
    """(g_p, g_q) of every pair in a stack (see module docstring)."""
    residual = _residuals(p, q, observations)
    return (residual @ q.swapaxes(1, 2) - reg_p * p,
            p.swapaxes(1, 2) @ residual - reg_q * q)


def _hop(p: np.ndarray, q: np.ndarray,
         observations: Sequence[LocalObservations],
         reg_p: float, reg_q: float, step: float):
    """The hop kernel: one masked update of every pair in a stack, pair i
    on ``observations[i]``, with the signed step ``step``.

    Returns (new p, new q, g_p, g_q, finite, delta): ``finite[i]`` says
    whether pair i's new factors are all finite and ``delta[i]`` is its
    max(|g_p|_inf, |g_q|_inf). Each pair goes through the same float
    operations in the same order as it would alone, so the stack size
    never changes a result.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported in finite
        g_p, g_q = _stacked_gradients(p, q, observations, reg_p, reg_q)
        new_p = np.maximum(p + step * g_p, 0.0)
        new_q = np.maximum(q + step * g_q, 0.0)
        finite = (np.isfinite(new_p).all(axis=(1, 2))
                  & np.isfinite(new_q).all(axis=(1, 2)))
        delta = np.maximum(np.abs(g_p).max(axis=(1, 2)),
                           np.abs(g_q).max(axis=(1, 2)))
    return new_p, new_q, g_p, g_q, finite, delta


def masked_loss(obs: LocalObservations, factors: FactorPair,
                reg_p: float, reg_q: float) -> float:
    """Single-participant objective value; always non-negative."""
    _check_shapes(obs, factors)
    residual = _residuals(factors.p[None], factors.q[None], (obs,))[0]
    return float(
        (residual ** 2).sum()
        + reg_p * (factors.p ** 2).sum()
        + reg_q * (factors.q ** 2).sum()
    )


def gradients(obs: LocalObservations, factors: FactorPair,
              reg_p: float, reg_q: float) -> GradPair:
    """Evaluate (g_p, g_q); equals -1/2 the analytic gradient of
    :func:`masked_loss` (see module docstring)."""
    _check_shapes(obs, factors)
    g_p, g_q = _stacked_gradients(factors.p[None], factors.q[None], (obs,),
                                  reg_p, reg_q)
    return GradPair(g_p[0], g_q[0])


def sgd_step(obs: LocalObservations, factors: FactorPair, step_size: float,
             reg_p: float, reg_q: float, *,
             literal_update: bool = False) -> tuple[FactorPair, GradPair]:
    """One local update: move along (g_p, g_q), truncate negatives to zero,
    and return the new factors together with the gradients used.

    The default direction descends the loss; ``literal_update`` flips it
    (see module docstring). Raises :class:`NumericError` when the update
    produces non-finite entries, which indicates a step size too large for
    the data scale.
    """
    if not step_size > 0:
        raise ParameterError(f"step_size must be positive, got {step_size!r}")
    _check_shapes(obs, factors)
    sign = -1.0 if literal_update else 1.0
    p, q, g_p, g_q, finite, _ = _hop(factors.p[None], factors.q[None], (obs,),
                                     reg_p, reg_q, sign * step_size)
    if not finite[0]:
        raise NumericError(_NON_FINITE)
    return FactorPair(p[0], q[0]), GradPair(g_p[0], g_q[0])


def init_factors(num_subareas: int, window: int, latent: int, scale: float,
                 rng: np.random.Generator) -> FactorPair:
    """Draw a Gaussian starting pair with entries |N(0,1)| * sqrt(scale / latent).

    ``scale`` should be the typical magnitude of the data (a local observed
    mean), so the initial product PQ starts at the data's order of magnitude
    instead of half-negative and immediately truncated.
    """
    if not 1 <= latent <= min(num_subareas, window):
        raise ParameterError(
            f"latent {latent} must lie in 1..min({num_subareas}, {window})")
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale!r}")
    magnitude = np.sqrt(scale / latent)
    p = magnitude * np.abs(rng.standard_normal((num_subareas, latent)))
    q = magnitude * np.abs(rng.standard_normal((latent, window)))
    return FactorPair(p, q)


def solve_centralized(aggregated: LocalObservations, params: Hyperparams,
                      rng: np.random.Generator) -> tuple[FactorPair, int]:
    """Full-batch masked NMF on organizer-aggregated observations.

    Runs the :func:`sgd_step` update from a Gaussian-initialized pair until
    max(|g_p|_inf, |g_q|_inf) <= grad_tol or the iteration budget is spent;
    returns the final factors and the iterations used. This is the
    centralized counterpart the decentralized protocol is measured against.
    """
    if aggregated.window != params.window:
        raise ShapeError(
            f"aggregated window ({aggregated.window}) does not match "
            f"params.window ({params.window})")
    params.check_against(aggregated.num_subareas)
    mean = aggregated.observed_mean()
    # quarter of the data scale: starting below the data magnitude avoids
    # long stalls near rank-1 saddle points on full-batch instances
    scale = (mean if mean > 0 else 1.0) / 4.0
    start = init_factors(aggregated.num_subareas, params.window,
                         params.latent, scale, rng)
    p, q = start.p[None], start.q[None]
    iterations = 0
    for i in range(1, params.max_iters + 1):
        p, q, _, _, finite, delta = _hop(p, q, (aggregated,), params.reg_p,
                                         params.reg_q, params.step_size)
        if not finite[0]:
            raise NumericError(_NON_FINITE, iteration=i)
        iterations = i
        if delta[0] <= params.grad_tol:
            break
    return FactorPair(p[0], q[0]), iterations
