"""Centralized comparison methods over organizer-aggregated observations:
truncated-SVD iterative imputation and a mean-fill floor.

Truncated SVD by itself is only defined for complete matrices, so the
completion variant here is the standard iterative hard-impute loop: fill
missing cells from column means, then alternate rank-k SVD reconstruction
with re-imposing the observed values until the missing cells stop moving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .model import LocalObservations, check_type


@dataclass(frozen=True, eq=False)
class ImputeResult:
    """Completion output: the filled matrix and the rounds used."""

    completed: np.ndarray
    iterations: int


def _observed(aggregated: LocalObservations) -> tuple[np.ndarray, np.ndarray]:
    """The dense readings and boolean mask of ``aggregated``."""
    if not aggregated.cells.size:
        raise ParameterError("no observed cells; nothing to impute from")
    return aggregated.r_local, aggregated.f_mask == 1.0


def _initial_fill(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Observed cells as observed, missing cells at their column's observed
    mean; all-missing columns fall back to the global observed mean."""
    global_mean = values[mask].mean()
    col_counts = mask.sum(axis=0)
    col_sums = (values * mask).sum(axis=0)
    col_means = np.where(col_counts > 0,
                         col_sums / np.maximum(col_counts, 1), global_mean)
    return np.where(mask, values, col_means[np.newaxis, :])


def tsvd_impute(aggregated: LocalObservations, k: int,
                max_rounds: int = 200, tol: float = 1e-6) -> ImputeResult:
    """Iterative hard-impute with a rank-k SVD: keep only the k largest
    singular triplets each round, overwrite observed cells with their
    observed values, stop when missing cells change by at most ``tol``.

    Observed cells are always preserved exactly; missing cells of the
    result are clamped at 0 to match the non-negative field model.
    """
    return tsvd_impute_all([aggregated], k, max_rounds, tol)[0]


def tsvd_impute_all(aggregated, k: int, max_rounds: int = 200,
                    tol: float = 1e-6) -> list[ImputeResult]:
    """``tsvd_impute`` of every window in the sequence ``aggregated``, in
    lockstep: each round is one stacked SVD, rank-k product and stop test
    over the windows still running, and a window leaves the stack in the
    round it stops. The windows must share one shape.

    Each window's result is bit for bit what ``tsvd_impute`` returns for it
    alone: the stacked calls run the same LAPACK and BLAS routine on each
    window, and every other step is element-wise or a per-window maximum.
    """
    check_type("k", k, "int")
    check_type("max_rounds", max_rounds, "int")
    check_type("tol", tol, "float")
    if not isinstance(aggregated, (list, tuple)) or not aggregated:
        raise ParameterError("aggregated must be a non-empty sequence of "
                             f"observations, got {aggregated!r}")
    observed = [_observed(obs) for obs in aggregated]
    rows, cols = observed[0][0].shape
    for values, _ in observed:
        if values.shape != (rows, cols):
            raise ShapeError(f"windows of shapes {(rows, cols)} and "
                             f"{values.shape} cannot be imputed together")
    if not 1 <= k <= min(rows, cols):
        raise ParameterError(f"k={k} must lie in 1..min({rows}, {cols})")
    if max_rounds < 1:
        raise ParameterError(f"max_rounds must be positive, got {max_rounds}")
    if tol < 0:
        raise ParameterError(f"tol must be non-negative, got {tol!r}")

    values = np.stack([v for v, _ in observed])
    mask = np.stack([m for _, m in observed])
    filled = np.stack([_initial_fill(v, m) for v, m in observed])
    missing = ~mask
    running = np.arange(len(observed))
    results: list[ImputeResult | None] = [None] * len(observed)
    for rounds in range(1, max_rounds + 1):
        u, s, vt = np.linalg.svd(filled, full_matrices=False)
        low_rank = (u[..., :k] * s[:, np.newaxis, :k]) @ vt[:, :k]
        # each window's largest change over its missing cells (0 if none)
        delta = np.where(missing, np.abs(low_rank - filled), 0.0).max(axis=(1, 2))
        filled = np.where(mask, values, low_rank)
        stop = (delta <= tol) | (rounds == max_rounds)
        if not stop.any():
            continue
        completed = np.where(mask[stop], values[stop],
                             np.maximum(filled[stop], 0.0))
        for index, window in zip(running[stop].tolist(), completed):
            results[index] = ImputeResult(window, rounds)
        keep = ~stop
        if not keep.any():
            break
        running, values, mask, missing, filled = (
            running[keep], values[keep], mask[keep], missing[keep], filled[keep])
    return results


def mean_fill(aggregated: LocalObservations) -> np.ndarray:
    """Sanity-floor completion: missing cells get their row's observed mean,
    all-missing rows fall back to the global observed mean. Observed cells
    are kept exactly."""
    values, mask = _observed(aggregated)
    global_mean = values[mask].mean()
    row_counts = mask.sum(axis=1)
    row_sums = (values * mask).sum(axis=1)
    row_means = np.where(row_counts > 0,
                         row_sums / np.maximum(row_counts, 1), global_mean)
    return np.where(mask, values, row_means[:, np.newaxis])
