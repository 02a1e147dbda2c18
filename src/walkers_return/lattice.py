"""Two-component field on the integer lattice and its shift step.

Both walks carry a (Left, Right) pair per site and advance by the same
split of a 2x2 matrix M: the top row P sends the pair one site left, the
bottom row Q one site right, new(x) = P old(x+1) + Q old(x-1).  The quantum
walk shifts complex amplitudes, the correlated walk real conditional
masses; the site weight follows from the dtype: |amp|^2 for a complex
amplitude, the value itself for a real mass.

A walk started at the origin occupies at time t only the t + 1 sites
x = -t + 2m (m = 0..t) of the parity of t; every other site holds exactly
zero, so the field stores just those slots.

Walkers advance as one stack: a leading walker axis in front of the
(pair, slot) axes, and one product per step, under one matrix that the
product broadcasts over the walkers or under a stack of matrices, one per
walker.  A single walker is the stack with no leading axis.  Every walk is
set up by `stack`: its step matrix and its time-0 field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .specfun import _require_count

__all__ = ["Field", "stack", "shift", "evolve", "return_values"]


def _weight(values):
    """Site weight of numpy components, elementwise: |amp|^2 for complex
    amplitudes, the value itself for real masses."""
    return np.abs(values) ** 2 if values.dtype.kind == "c" else values


def _window(horizon: int, t: int) -> tuple[int, int]:
    """First slot and width of the light-cone window at time t: the slots m
    whose site can still reach the origin by `horizon` (|x| <= horizon - t).
    It is empty only at an odd last step."""
    reach = horizon - t
    lo = max(0, (t - reach + 1) // 2)
    return lo, max(0, min(t, (t + reach) // 2) - lo + 1)


# Not frozen: a frozen dataclass's __init__ costs about 0.8 us more, and
# every lattice step builds a Field.
@dataclass
class Field:
    """Walker state at one time step.

    Column j of `packed` holds the (L, R) pair at the occupied-parity site
    x = -time + 2 (lo + j); any axes in front of the pair axis index the
    walkers of one stack, which share `time`, `lo` and the step matrix.  A
    field from `evolve` stores all time + 1 of them (lo = 0).  Inside
    `return_values` a field keeps only the light cone of the origin and
    carries `cone`, the horizon and the two buffers its steps write into;
    such fields never leave that loop.  The reads work per walker:
    `position_distribution()` gives positions -time..time, one row per
    walker, with exact zeros on every site not stored, and
    `total_probability()` a float for one walker and an array for a stack.
    """

    time: int
    packed: np.ndarray  # shape (..., 2, width), width <= time + 1
    lo: int = 0
    cone: tuple[int, np.ndarray] | None = None  # (horizon, buffers of shape (2, ..., size))

    @classmethod
    def at_origin(cls, vector: np.ndarray) -> "Field":
        """The time-0 field of the (L, R) pairs `vector`, shape (..., 2)."""
        return cls(time=0, packed=vector[..., None].copy())

    def total_probability(self) -> float | np.ndarray:
        weights = _weight(self.packed)
        total = np.sum(weights.reshape(weights.shape[:-2] + (-1,)), axis=-1)
        return float(total) if total.ndim == 0 else total

    def position_distribution(self) -> np.ndarray:
        weights = _weight(self.packed[..., 0, :]) + _weight(self.packed[..., 1, :])
        dist = np.zeros(weights.shape[:-1] + (2 * self.time + 1,), dtype=weights.dtype)
        dist[..., 2 * self.lo : 2 * (self.lo + weights.shape[-1]) : 2] = weights
        return dist


def stack(source, state) -> tuple[np.ndarray, Field]:
    """The step matrix and the time-0 field of one walk or of a stack of walks.

    `source` is a coin or transition (anything with `matrix()`) or a
    sequence of them, `state` an initial state (anything with `vector()`)
    or a sequence of them.  One state walks alone under one source.  A
    sequence of states walks as one stack, shape (len(state), 2, 1), under
    the one source or paired one-to-one with a sequence of sources, whose
    matrices stack to shape (len(source), 2, 2).
    """
    if hasattr(source, "matrix"):
        matrix = source.matrix()
    else:
        matrix = np.array([one.matrix() for one in source]).reshape(-1, 2, 2)
    single = hasattr(state, "vector")
    if single:
        vectors = state.vector()
    else:
        vectors = np.array([one.vector() for one in state], dtype=matrix.dtype).reshape(-1, 2)
    if matrix.ndim > 2 and (single or len(matrix) != len(vectors)):
        states = "one state" if single else f"{len(vectors)} states"
        raise ValueError(f"a stack pairs each state with one step matrix, got {len(matrix)} matrices and {states}")
    return matrix, Field.at_origin(vectors)


def shift(field: Field, matrix: np.ndarray) -> Field:
    """One time step: new(x) = P old(x+1) + Q old(x-1).

    `matrix` is the 2x2 coin array [[a, b], [c, d]]; P is its top row, Q its
    bottom row, so one product `matrix @ old` gives both moved components:
    in slots, new L[m] = (M old)[0, m] and new R[m] = (M old)[1, m - 1] (the
    L-components come from the right neighbour, the R-components from the
    left one).  The product is written straight into place, and only a slot
    with no source (the last L, the first R of a growing field) is zeroed.
    For a stack of walkers the one product broadcasts a 2x2 `matrix` over
    them, or pairs a (walkers, 2, 2) stack of matrices with them.
    """
    old, lo, t = field.packed, field.lo, field.time
    walkers, width = old.shape[:-2], old.shape[-1]
    cone = field.cone
    if cone is None:  # a fresh array, so a field `evolve` returns is never overwritten
        new_lo, new_width = 0, t + 2
        flat = np.empty(walkers + (2 * t + 7,), dtype=old.dtype)
    else:  # the buffer the input field does not live in
        horizon, buffers = cone
        new_lo, new_width = _window(horizon, t + 1)
        flat = buffers[(t + 1) % 2]
    # Each walker's new field is its row flat[..., 1 : 1 + 2 new_width] as a (2, new_width) array:
    # L slot m at flat[1 + m - new_lo], R slot m at flat[1 + new_width + m - new_lo].
    # So (M old)[0, j] (L at m = lo + j) and (M old)[1, j] (R at m = lo + j + 1)
    # are two rows new_width + 1 apart from flat[start].  A window drops at
    # most its first slot per step, so start >= 0 and width <= new_width + 1.
    start = 1 + lo - new_lo
    rows = flat[..., start : start + 2 * new_width + 2].reshape(walkers + (2, new_width + 1))
    np.matmul(matrix, old, out=rows[..., :width])
    if new_lo + new_width > lo + width:  # the last L slot has no source
        flat[..., new_width] = 0
    if new_lo == lo:  # the first R slot has no source
        flat[..., new_width + 1] = 0
    new = flat[..., 1 : 1 + 2 * new_width].reshape(walkers + (2, new_width))
    return Field(t + 1, new, new_lo, cone)


def evolve(field: Field, n: int, step: Callable[[Field], Field]) -> Field:
    """The field after n applications of `step`."""
    for _ in range(_require_count(n, "n")):
        field = step(field)
    return field


def return_values(field: Field, nmax: int, step: Callable[[Field], Field]) -> np.ndarray:
    """Origin weights r_0..r_nmax of a walk started from the time-0 `field`.

    Only the light cone of the origin is advanced: at time t the sites with
    |x| <= min(t, nmax - t), which is about a quarter of the dense field's
    site work over the walk.  The origin pair is read at every even time,
    the only times it can be occupied, and turned into weights at the end.
    A stack of walkers gives one row of weights per walker, shape
    (..., nmax + 1).
    """
    nmax = _require_count(nmax, "nmax")
    if field.time != 0:
        raise ValueError(f"return_values starts at time 0, got a field at time {field.time}")
    walkers = field.packed.shape[:-2]
    size = 2 * (nmax // 2 + 1) + 3  # the widest window, nmax // 2 + 1 slots, as `shift` lays it out
    field = replace(field, cone=(nmax, np.empty((2, *walkers, size), dtype=field.packed.dtype)))
    pairs = np.empty((*walkers, 2, nmax // 2 + 1), dtype=field.packed.dtype)
    pairs[..., 0] = field.packed[..., 0]
    for t in range(1, nmax + 1):
        field = step(field)
        if t % 2 == 0:
            pairs[..., t // 2] = field.packed[..., t // 2 - field.lo]
    # |amp|^2 is rounded with pow, as numpy rounds a scalar |amp| ** 2 and
    # a per-step read would; an array's ** 2 is a product, which differs in
    # the last bit of about one value in a thousand.
    if pairs.dtype.kind == "c":
        pairs = np.float_power(np.abs(pairs), 2)
    values = np.zeros((*walkers, nmax + 1))
    values[..., ::2] = pairs[..., 0, :] + pairs[..., 1, :]
    return values
