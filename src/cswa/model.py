"""Domain types shared by all modules: the sensed field, per-participant
observations (covered cells and their readings only), hyperparameters, and
low-rank factor pairs.

All types are immutable after construction (arrays are locked read-only),
so they can be shared across concurrently executing chains.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ParameterError, ShapeError


def _frozen_matrix(values, name: str) -> np.ndarray:
    """Copy ``values`` into a read-only float64 2-D array."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Field:
    """Ground-truth sensor readings: one row per subarea, one column per
    sensing cycle.

    Entries must be finite and non-negative. Data on a naturally signed
    scale (e.g. Celsius) is stored after an affine shift, with the offset
    recorded in ``unit`` (e.g. ``"degC+30"``); the low-rank model cannot
    represent negative values.
    """

    values: np.ndarray
    unit: str = ""

    def __post_init__(self):
        arr = _frozen_matrix(self.values, "field")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ParameterError(f"field dimensions must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ParameterError("field contains non-finite entries")
        if (arr < 0).any():
            a, t = np.argwhere(arr < 0)[0]
            raise ParameterError(
                f"field entry at subarea {a + 1}, cycle {t + 1} is negative; "
                "pre-shift the data to a non-negative scale and record the "
                "offset in the unit label"
            )
        object.__setattr__(self, "values", arr)

    @property
    def num_subareas(self) -> int:
        return self.values.shape[0]

    @property
    def num_cycles(self) -> int:
        return self.values.shape[1]


def check_type(name: str, value, kind: str) -> None:
    """Raise :class:`ParameterError` naming ``name`` unless ``value`` is of
    ``kind``: ``"int"`` (an integer, not a bool), ``"float"`` (a finite real
    number, not a bool), ``"bool"`` (a real bool, not a truthy value),
    ``"str"``, ``"list"`` or ``"dict"``."""
    if kind in ("str", "list", "dict"):
        ok = isinstance(value, {"str": str, "list": list, "dict": dict}[kind])
    elif kind == "bool":
        ok = isinstance(value, bool)
    elif isinstance(value, bool):
        ok = False
    elif kind == "int":
        ok = isinstance(value, (int, np.integer))
    else:
        ok = isinstance(value, numbers.Real) and math.isfinite(value)
    if not ok:
        wanted = {"int": "an integer", "float": "a finite number",
                  "bool": "true or false", "str": "a string",
                  "list": "a list", "dict": "an object"}[kind]
        raise ParameterError(f"{name} must be {wanted}, got {value!r}")


def _locked(arr: np.ndarray, dtype) -> np.ndarray:
    """``arr`` itself when it is of ``dtype`` and no writable view can
    reach its data (it is read-only and owns its data or views a read-only
    array), and a read-only copy of it as ``dtype`` otherwise."""
    # the array that owns the data: no view of a read-only one is writable
    base = arr if arr.base is None else arr.base
    if (arr.dtype != dtype or not isinstance(base, np.ndarray)
            or base.flags.writeable):
        arr = arr.astype(dtype)
        arr.setflags(write=False)
    return arr


def check_cells(name: str, cells, size: int) -> np.ndarray:
    """Return ``cells`` as covered-cell indices: a read-only 1-D intp array,
    strictly increasing and inside ``[0, size)``; every error names
    ``name``. The given array is returned as it is when no writable view
    can reach it, and a copy otherwise (see :func:`_locked`)."""
    arr = np.asarray(cells)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be a 1-D array, got shape {arr.shape}")
    if arr.size and arr.dtype.kind not in "iu":
        raise ParameterError(f"{name} must be integers, got dtype {arr.dtype}")
    arr = _locked(arr, np.intp)
    if (arr[1:] <= arr[:-1]).any():
        raise ParameterError(f"{name} must be strictly increasing")
    if arr.size and not 0 <= arr[0] <= arr[-1] < size:
        raise ParameterError(f"{name} must lie in [0, {size})")
    return arr


@dataclass(frozen=True)
class Hyperparams:
    """Run parameters and behaviour flags: everything a run depends on
    besides the observations, and the schema of the CLI config. Defaults
    follow the package-wide conventions; the first five have no sensible
    universal value and must be given.

    ``grad_tol=0`` is allowed and means "never converge early" (every chain
    runs to the iteration cap), which is how worst-case communication is
    exercised.

    Flags: ``exclude_self`` also bars a participant from forwarding a chain
    to itself (the bare protocol bars only the previous sender);
    ``literal_update`` flips the sign of the decentralized hop's update
    (see :mod:`cswa.factorization`; the centralized solver ignores it);
    ``require_convergence`` drops budget-capped chains from the recovery
    average.
    """

    num_participants: int      # m, population size of the peer network
    batch_size: int            # N, number of chains started by the organizer
    max_subareas: int          # s, per-participant per-cycle coverage cap
    window: int                # w, cycles jointly recovered
    latent: int                # l, factorization rank
    step_size: float = 1e-3
    reg_p: float = 1e-4
    reg_q: float = 1e-4
    grad_tol: float = 1e-4
    max_iters: int = 5000      # t_max, per-chain update budget
    noise_sigma: float = 0.0
    seed: int = 0
    exclude_self: bool = True
    literal_update: bool = False
    require_convergence: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            check_type(f.name, value, f.type)
            # an accepted numpy scalar becomes the Python int or float it
            # holds, so the config echo stays plain JSON
            if isinstance(value, np.generic):
                object.__setattr__(self, f.name, value.item())
        for name in ("num_participants", "batch_size", "max_subareas",
                     "window", "latent", "max_iters"):
            v = getattr(self, name)
            if v < 1:
                raise ParameterError(f"{name} must be a positive integer, got {v!r}")
        if self.num_participants < 2:
            raise ParameterError(
                f"num_participants must be at least 2, got "
                f"{self.num_participants}: a chain is never sent back to "
                "its sender, so one participant cannot forward it")
        if self.batch_size > self.num_participants:
            raise ParameterError(
                f"batch_size ({self.batch_size}) cannot exceed "
                f"num_participants ({self.num_participants})"
            )
        if self.latent > self.window:
            raise ParameterError(
                f"latent ({self.latent}) must not exceed the window "
                f"({self.window}); the factorization would not reduce rank"
            )
        if not self.step_size > 0:
            raise ParameterError(f"step_size must be positive, got {self.step_size!r}")
        for name in ("reg_p", "reg_q", "grad_tol", "noise_sigma"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative, got {getattr(self, name)!r}")

    def check_against(self, num_subareas: int) -> None:
        """Validate the constraints that need the field's row count."""
        if self.latent > num_subareas:
            raise ParameterError(
                f"latent ({self.latent}) must not exceed the number of "
                f"subareas ({num_subareas})"
            )
        if self.max_subareas > num_subareas:
            raise ParameterError(
                f"max_subareas ({self.max_subareas}) exceeds the number of "
                f"subareas ({num_subareas})"
            )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class LocalObservations:
    """One participant's noisy readings of the cells it covered in an
    S x W field window (``num_subareas`` x ``window``): all that its device
    stores, and it never leaves the device; only factor matrices travel.

    ``cells`` holds the flat row-major indices of the covered cells,
    strictly increasing, and ``readings`` the reading at each, in the same
    order. Both are stored read-only: an array that no writable view can
    reach is stored as given, and any other as a copy (see :func:`_locked`).
    ``r_local`` (readings, 0 elsewhere) and ``f_mask`` (1 at the covered
    cells, 0 elsewhere) are dense S x W views, built anew and read-only on
    each access; nothing in the package reads them per hop.

    ``participant_id`` 0 is reserved for the organizer-side aggregate that
    feeds the centralized baselines; real participants are numbered 1..m.
    """

    participant_id: int
    num_subareas: int
    window: int
    cells: np.ndarray = field(repr=False)
    readings: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("participant_id", "num_subareas", "window"):
            check_type(name, getattr(self, name), "int")
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.participant_id < 0:
            raise ParameterError(
                f"participant_id must be non-negative, got {self.participant_id!r}")
        if self.num_subareas < 1 or self.window < 1:
            raise ParameterError("num_subareas and window must be positive, got "
                                 f"{self.num_subareas} and {self.window}")
        cells = check_cells("cells", self.cells, self.num_subareas * self.window)
        readings = np.asarray(self.readings)
        if readings.size and readings.dtype.kind not in "biuf":
            raise ParameterError(
                f"readings must be real numbers, got dtype {readings.dtype}")
        if readings.shape != cells.shape:
            raise ShapeError(f"readings {readings.shape} must match cells {cells.shape}")
        readings = _locked(readings, np.float64)
        if not np.isfinite(readings).all():
            raise ParameterError("readings must be finite")
        if (readings < 0).any():
            raise ParameterError("readings must be non-negative")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "readings", readings)

    def _dense(self, values) -> np.ndarray:
        dense = np.zeros(self.num_subareas * self.window)
        dense[self.cells] = values
        dense.setflags(write=False)
        return dense.reshape(self.num_subareas, self.window)

    @property
    def r_local(self) -> np.ndarray:
        return self._dense(self.readings)

    @property
    def f_mask(self) -> np.ndarray:
        return self._dense(1.0)

    def observed_mean(self) -> float:
        """Mean of the collected cells; 0.0 when nothing was collected."""
        if not self.readings.size:
            return 0.0
        return float(self.readings.mean())


@dataclass(frozen=True, eq=False)
class FactorPair:
    """Low-rank factors: ``p`` (subareas x latent) and ``q`` (latent x
    window). The only payload that ever travels between parties.

    Entries are non-negative after every update because each update ends in
    truncation; negatives may appear transiently in a pair that has not been
    truncated yet, so the constructor checks finiteness only.
    """

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = _frozen_matrix(self.p, "p")
        q = _frozen_matrix(self.q, "q")
        if p.shape[1] != q.shape[0]:
            raise ShapeError(
                f"inner dimensions of p {p.shape} and q {q.shape} do not agree")
        for name, m in (("p", p), ("q", q)):
            if not np.isfinite(m).all():
                raise ParameterError(f"factor {name} contains non-finite entries")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def product(self) -> np.ndarray:
        """The reconstruction this pair encodes."""
        return self.p @ self.q


def build_window(field: Field, end_cycle: int, window: int) -> np.ndarray:
    """Return the ``window`` most recent columns up to and including
    ``end_cycle`` (1-based), as a fresh writable matrix.

    Pure projection: adjacent windows concatenate back to the field slice.
    """
    if window < 1:
        raise ParameterError(f"window must be positive, got {window}")
    if not window <= end_cycle <= field.num_cycles:
        raise ParameterError(
            f"window of {window} cycles ending at cycle {end_cycle} does not "
            f"fit a field with {field.num_cycles} cycles"
        )
    return field.values[:, end_cycle - window:end_cycle].copy()
