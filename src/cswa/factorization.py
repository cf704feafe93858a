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

The hop kernel, :meth:`_Stack.hop`, updates a stack of pairs in packed
form: row i of ``x`` holds pair i's P (row-major) followed by its Q, so
the regularizer, the update, the truncation and the convergence statistic
are one numpy call each for the whole stack, and so is the finiteness
test whenever every pair is finite. A stack makes its buffers and their
views once and reuses them every hop; a hop reads its pairs' cells and
readings from :meth:`_Stack.gather`, one call of which can serve many hops.

The residual F o (R - PQ) is evaluated at the covered cells only, through
a :class:`GatherTable` of every participant's covered cells and readings,
built once per run. R - PQ is gathered at the cells, the rest of PQ is
multiplied by 0, and the gathered values are scattered back. A covered
cell thus holds exactly 1 * (R - PQ), and an uncovered one 0 * PQ, which is
0 for a finite product and NaN for an overflowed one, as with the dense
definition. Divergence is tested on the update as well as on the
truncated factors, so an overflow is reported even where the truncation
maps it to 0.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .model import FactorPair, Hyperparams, LocalObservations, check_type


@dataclass(frozen=True)
class GradPair:
    """The pair (g_p, g_q) produced by one gradient evaluation."""

    g_p: np.ndarray
    g_q: np.ndarray

    def max_abs(self) -> float:
        """Perturbation magnitude: the largest absolute entry across both
        matrices. This is the chain convergence statistic."""
        return float(max(np.abs(self.g_p).max(), np.abs(self.g_q).max()))


@dataclass(frozen=True, eq=False)
class GatherTable:
    """Every participant's covered cells and readings, padded to one width.

    Row k holds ``observations[k]``'s flat cell indices and readings,
    relative to one pair's S x W residual, which a stack follows with one
    scratch slot, index S * W; a row's padding points there with reading
    0, so it changes no cell.
    """

    cells: np.ndarray       # (k, width) int
    readings: np.ndarray    # (k, width) float64
    num_subareas: int
    window: int


def gather_table(observations: Sequence[LocalObservations]) -> GatherTable:
    """The :class:`GatherTable` of ``observations``, which share one shape."""
    num_subareas, window = observations[0].num_subareas, observations[0].window
    width = max(obs.cells.size for obs in observations)
    cells = np.full((len(observations), width), num_subareas * window,
                    dtype=np.intp)
    readings = np.zeros((len(observations), width))
    for row, obs in enumerate(observations):
        cells[row, :obs.cells.size] = obs.cells
        readings[row, :obs.readings.size] = obs.readings
    return GatherTable(cells, readings, num_subareas, window)


def _pack(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The packed rows of the pairs ``p`` (n, S, L) and ``q`` (n, L, W)."""
    return np.concatenate((p.reshape(len(p), -1), q.reshape(len(q), -1)), axis=1)


def _unpack(x: np.ndarray, num_subareas: int,
            window: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n, S, L) and (n, L, W) views of packed rows ``x``."""
    n, size = x.shape
    latent = size // (num_subareas + window)
    split = num_subareas * latent
    return (x[:, :split].reshape(n, num_subareas, latent),
            x[:, split:].reshape(n, latent, window))


_NON_FINITE = "factor update produced non-finite entries; reduce step_size"


def _check_shapes(obs: LocalObservations, factors: FactorPair) -> None:
    if factors.p.shape[0] != obs.num_subareas or factors.q.shape[1] != obs.window:
        raise ShapeError(
            f"factors ({factors.p.shape} x {factors.q.shape}) do not match "
            f"observations ({obs.num_subareas}x{obs.window})")


class _Stack:
    """``n`` factor pairs stepped together on one :class:`GatherTable`,
    with the regularizers ``reg_p`` and ``reg_q``.

    ``x`` holds the pairs' packed rows (the stack keeps and overwrites the
    array it is given, or a C-contiguous copy of it) and ``g`` their
    gradients from the last evaluation. The buffers
    a hop writes, and the views of each, are made once per stack, so a hop
    allocates only what numpy's gathers and reductions return.
    """

    def __init__(self, x: np.ndarray, table: GatherTable, reg_p: float,
                 reg_q: float):
        x = np.ascontiguousarray(x)   # so that every view below aliases it
        n, s, w = len(x), table.num_subareas, table.window
        latent = x.shape[1] // (s + w)
        self._table = table
        # the regularizer of a packed row: reg_p on P, reg_q on Q
        self._reg = np.repeat([reg_p, reg_q], [s * latent, latent * w])
        # the current rows and the buffer the next hop writes, with views
        self._rows = [self._views(x, s, w),
                      self._views(np.empty_like(x), s, w)]
        self.g = np.empty_like(x)
        self._g_p, self._g_q = _unpack(self.g, s, w)
        # each pair's S x W residual and its scratch slot, which stays 0
        self._padded = np.zeros((n, s * w + 1))
        self._flat = self._padded.reshape(-1)
        self._residual = self._padded[:, :s * w].reshape(n, s, w)
        # where pair i's residual starts in the flat residuals
        self._offsets = np.arange(n, dtype=np.intp)[:, None] * (s * w + 1)
        # the last hop's signed step and deltas, which a hop that no pair
        # has made yet leaves finite
        self._step, self._delta = 0.0, np.zeros(n)

    @staticmethod
    def _views(x: np.ndarray, s: int, w: int) -> tuple:
        p, q = _unpack(x, s, w)
        return x, p, q, p.swapaxes(1, 2), q.swapaxes(1, 2)

    @property
    def x(self) -> np.ndarray:
        return self._rows[0][0]

    def gather(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cells and readings that step pair i on table row
        ``ids[..., i]``: the row's covered cells, offset to pair i's
        residual, and its readings, each of shape ``ids.shape + (width,)``.
        One gather serves as many hops as ``ids`` has leading rows."""
        cells = self._table.cells.take(ids, axis=0)
        cells += self._offsets
        return cells, self._table.readings.take(ids, axis=0)

    def residuals(self, cells: np.ndarray,
                  readings: np.ndarray) -> np.ndarray:
        """F o (R - PQ) of pair i at ``cells[i]`` and ``readings[i]``, one
        hop's rows of :meth:`gather`, with one gather and one scatter for the
        whole stack (see module docstring)."""
        _, p, q, _, _ = self._rows[0]
        flat = self._flat
        np.matmul(p, q, out=self._residual)
        covered = readings - flat[cells]
        np.multiply(self._padded, 0.0, out=self._padded)
        flat[cells] = covered
        return self._residual

    def gradients(self, cells: np.ndarray,
                  readings: np.ndarray) -> np.ndarray:
        """The packed (g_p, g_q) of every pair (see module docstring)."""
        x, _, _, p_t, q_t = self._rows[0]
        residual = self.residuals(cells, readings)
        np.matmul(residual, q_t, out=self._g_p)
        np.matmul(p_t, residual, out=self._g_q)
        reg_x = self._rows[1][0]   # the next rows' buffer is free until a hop
        np.multiply(self._reg, x, out=reg_x)
        self.g -= reg_x
        return self.g

    def hop(self, cells: np.ndarray, readings: np.ndarray,
            step: float) -> np.ndarray:
        """The hop kernel: one masked update of every pair, pair i at
        ``cells[i]`` and ``readings[i]`` (one hop's rows of :meth:`gather`),
        with the signed step ``step``.

        Returns delta: ``delta[i]`` is pair i's max(|g_p|_inf, |g_q|_inf).
        An update that overflows is not reported here but by
        :meth:`all_finite` and :meth:`finite`, so each caller that reports
        divergence silences numpy's overflow and invalid-value warnings
        around its hops, once per loop rather than once per hop. Each pair
        goes through the same float operations in the same order as it
        would alone, so the stack size never changes a result.
        """
        g = self.gradients(cells, readings)
        x, new_x = self.x, self._rows[1][0]
        np.multiply(step, g, out=new_x)
        np.add(x, new_x, out=new_x)
        np.maximum(new_x, 0.0, out=new_x)
        self._rows.reverse()
        self._step, self._delta = step, np.abs(g).max(axis=1)
        return self._delta

    def all_finite(self) -> bool:
        """Whether every pair's factors and last update are finite, tested
        block-wide (see :meth:`finite`). A hop leaves every entry
        non-negative, inf or NaN, and ``max`` propagates NaN, so the
        largest entry, or delta, is finite exactly when all are. Unlike a
        sum, the test cannot overflow."""
        return (math.isfinite(self.x.max())
                and math.isfinite(self._step * self._delta.max()))

    def finite(self) -> np.ndarray:
        """Whether pair i's factors and last update are all finite, for
        every pair. The update is finite exactly when ``step * delta[i]``,
        its largest entry in magnitude, is: one that overflows to -inf
        truncates to finite zeros, so the factors alone would hide it."""
        return (np.isfinite(self.x).all(axis=1)
                & np.isfinite(self._step * self._delta))


def _one_pair(obs: LocalObservations, factors: FactorPair, reg_p: float,
              reg_q: float) -> tuple[_Stack, tuple[np.ndarray, np.ndarray]]:
    """A stack of one pair on ``obs``, and the cells and readings that step
    it there."""
    _check_shapes(obs, factors)
    stack = _Stack(_pack(factors.p[None], factors.q[None]),
                   gather_table((obs,)), reg_p, reg_q)
    return stack, stack.gather(np.zeros(1, dtype=np.intp))


def masked_loss(obs: LocalObservations, factors: FactorPair,
                reg_p: float, reg_q: float) -> float:
    """Single-participant objective value; always non-negative."""
    stack, hop_rows = _one_pair(obs, factors, reg_p, reg_q)
    residual = stack.residuals(*hop_rows)[0]
    return float(
        (residual ** 2).sum()
        + reg_p * (factors.p ** 2).sum()
        + reg_q * (factors.q ** 2).sum()
    )


def gradients(obs: LocalObservations, factors: FactorPair,
              reg_p: float, reg_q: float) -> GradPair:
    """Evaluate (g_p, g_q); equals -1/2 the analytic gradient of
    :func:`masked_loss` (see module docstring)."""
    stack, hop_rows = _one_pair(obs, factors, reg_p, reg_q)
    (g_p,), (g_q,) = _unpack(stack.gradients(*hop_rows), obs.num_subareas,
                             obs.window)
    return GradPair(g_p, g_q)


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
    sign = -1.0 if literal_update else 1.0
    stack, hop_rows = _one_pair(obs, factors, reg_p, reg_q)
    with np.errstate(over="ignore", invalid="ignore"):   # reported here
        stack.hop(*hop_rows, sign * step_size)
        if not stack.all_finite():
            raise NumericError(_NON_FINITE)
    (p,), (q,) = _unpack(stack.x, obs.num_subareas, obs.window)
    (g_p,), (g_q,) = _unpack(stack.g, obs.num_subareas, obs.window)
    return FactorPair(p, q), GradPair(g_p, g_q)


def init_factors(num_subareas: int, window: int, latent: int, scale: float,
                 rng: np.random.Generator) -> FactorPair:
    """Draw a Gaussian starting pair with entries |N(0,1)| * sqrt(scale / latent).

    ``scale`` should be the typical magnitude of the data (a local observed
    mean), so the initial product PQ starts at the data's order of magnitude
    instead of half-negative and immediately truncated.
    """
    for name, value in (("num_subareas", num_subareas), ("window", window),
                        ("latent", latent)):
        check_type(name, value, "int")
    if not 1 <= latent <= min(num_subareas, window):
        raise ParameterError(
            f"latent {latent} must lie in 1..min({num_subareas}, {window})")
    if not scale > 0:
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
    stack, hop_rows = _one_pair(aggregated, start, params.reg_p,
                                params.reg_q)
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):   # reported here
        for i in range(1, params.max_iters + 1):
            delta = stack.hop(*hop_rows, params.step_size)
            if not stack.all_finite():
                raise NumericError(_NON_FINITE, iteration=i)
            iterations = i
            if delta[0] <= params.grad_tol:
                break
    (p,), (q,) = _unpack(stack.x, aggregated.num_subareas, params.window)
    return FactorPair(p, q), iterations
