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

from .errors import ParameterError
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


def tsvd_impute(aggregated: LocalObservations, k: int,
                max_rounds: int = 200, tol: float = 1e-6) -> ImputeResult:
    """Iterative hard-impute with a rank-k SVD: keep only the k largest
    singular triplets each round, overwrite observed cells with their
    observed values, stop when missing cells change by at most ``tol``.

    Observed cells are always preserved exactly; missing cells of the
    result are clamped at 0 to match the non-negative field model.
    """
    check_type("k", k, "int")
    check_type("max_rounds", max_rounds, "int")
    check_type("tol", tol, "float")
    values, mask = _observed(aggregated)
    rows, cols = values.shape
    if not 1 <= k <= min(rows, cols):
        raise ParameterError(f"k={k} must lie in 1..min({rows}, {cols})")
    if max_rounds < 1:
        raise ParameterError(f"max_rounds must be positive, got {max_rounds}")
    if tol < 0:
        raise ParameterError(f"tol must be non-negative, got {tol!r}")

    # initial fill: column observed means; all-missing columns fall back to
    # the global observed mean
    global_mean = values[mask].mean()
    col_counts = mask.sum(axis=0)
    col_sums = (values * mask).sum(axis=0)
    col_means = np.where(col_counts > 0,
                         col_sums / np.maximum(col_counts, 1), global_mean)
    filled = np.where(mask, values, col_means[np.newaxis, :])

    missing = ~mask
    any_missing = missing.any()
    for rounds in range(1, max_rounds + 1):
        u, s, vt = np.linalg.svd(filled, full_matrices=False)
        low_rank = (u[:, :k] * s[:k]) @ vt[:k]
        delta = float(np.abs(low_rank - filled)[missing].max()) if any_missing else 0.0
        filled = np.where(mask, values, low_rank)
        if delta <= tol:
            break
    completed = np.where(mask, values, np.maximum(filled, 0.0))
    return ImputeResult(completed, rounds)


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
