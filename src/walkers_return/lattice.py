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

`evolve` and `return_values` set up one plan per walk: the window of
slots kept at every time, computed at once, and two zeroed buffers that
the steps fill in turn, slot m at fixed columns, so a step is one product
and a few slices.  A window's first slot stays put or rises by one a step
and its end grows by at most one, so a slot with no source is one that no
step has written, and it reads 0.  A real matrix multiplies a complex
field as (re, im) float pairs: half the flops of the complex product and,
with the OpenBLAS numpy ships, the same bits, except one slot wide, where
numpy takes a matrix-vector routine that rounds differently.
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


def _buffer(walkers: tuple, slots: int, dtype, allocate=np.empty) -> tuple[np.ndarray, np.ndarray]:
    """A step buffer of 2 S + 2 entries per walker, made by `allocate`, as a
    read view (..., 2, S) with L and R of slot m in column m, and a write
    view (..., 2, S + 1) whose R row starts one slot later, so a product
    written at the old slots puts R into the next slot."""
    buffer = allocate(walkers + (2 * slots + 2,), dtype=dtype)
    return buffer[..., : 2 * slots].reshape(walkers + (2, slots)), buffer.reshape(walkers + (2, slots + 1))


def _plan(walkers: tuple, dtype, lows: np.ndarray, ends: np.ndarray) -> tuple:
    """A walk's window at every time, first slot and end, as
    memoryviews (a list would hold an int object per time), and the read,
    write and float-pair write views of its two buffers; the step to time t
    writes buffer t % 2."""
    # Zeroed, so a slot that no step has written is 0, as one with no source must be.
    buffers = [_buffer(walkers, int(np.max(ends)), dtype, np.zeros) for _ in range(2)]
    views = [(read, write, write.view(write.real.dtype)) for read, write in buffers]
    return memoryview(lows), memoryview(ends), views


# Not frozen: a frozen dataclass's __init__ costs about 0.8 us more, and
# every lattice step builds a Field.
@dataclass
class Field:
    """Walker state at one time step.

    Column j of `packed` holds the (L, R) pair at the occupied-parity site
    x = -time + 2 (lo + j); any axes in front of the pair axis index the
    walkers of one stack, which share `time`, `lo` and the step matrix.  A
    step without a plan keeps lo and one slot more, and so does `evolve`:
    from the origin it returns all time + 1 slots (lo = 0).  Inside
    `evolve` and `return_values` a field carries `plan`: it then lives in
    one of the plan's two buffers, which the next step but one overwrites;
    inside `return_values` it keeps only the light cone of the origin.  Such
    fields never leave those loops.  The reads work per walker:
    `position_distribution()` gives positions -time..time, one row per
    walker, with exact zeros on every site not stored, and
    `total_probability()` a float for one walker and an array for a stack.
    """

    time: int
    packed: np.ndarray  # shape (..., 2, width), width <= time + 1
    lo: int = 0
    plan: tuple | None = None  # see `_plan`

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
    matrices stack to shape (len(source), 2, 2).  A complex matrix whose
    entries all have a zero imaginary part is handed out as its real part;
    the states keep the complex dtype.
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
    if matrix.dtype.kind == "c" and not matrix.imag.any():
        matrix = np.ascontiguousarray(matrix.real)
    return matrix, Field.at_origin(vectors)


def shift(field: Field, matrix: np.ndarray) -> Field:
    """One time step: new(x) = P old(x+1) + Q old(x-1).

    `matrix` is the 2x2 coin array [[a, b], [c, d]]; P is its top row, Q its
    bottom row, so one product `matrix @ old` gives both moved components:
    in slots, new L[m] = (M old)[0, m] and new R[m] = (M old)[1, m - 1] (the
    L-components come from the right neighbour, the R-components from the
    left one).  The product is written straight into place.  A slot with no
    source (the last L, the first R of a growing field) is zeroed in a new
    buffer; in a plan's zeroed buffers it is one that no step has written,
    so it is already 0.  For a stack of walkers the one product broadcasts
    a 2x2 `matrix` over them, or pairs a (walkers, 2, 2) stack of matrices
    with them.  A field without a plan steps into a new buffer, keeping
    every slot its slots reach; one with a plan steps into its plan's
    buffer and keeps the plan's window.
    """
    old, t, lo, plan = field.packed, field.time + 1, field.lo, field.plan
    width = old.shape[-1]
    end = lo + width
    if plan is None:  # a fresh buffer, so a field `evolve` returns is never overwritten
        new_lo, new_end, pairs = lo, end + 1, None
        read, write = _buffer(old.shape[:-2], new_end, old.dtype)
        # Only the slots with no source: np.zeros would cost as much as the
        # product at a thousand slots.
        read[..., 0, end] = read[..., 1, lo] = 0
    else:
        lows, ends, views = plan
        read, write, pairs = views[t % 2]
        new_lo, new_end = lows[t], ends[t]
    if width > 1 and matrix.dtype != old.dtype:  # a real matrix on amplitudes, as float pairs
        pairs = write.view(matrix.dtype) if pairs is None else pairs
        np.matmul(matrix, old.view(matrix.dtype), out=pairs[..., 2 * lo : 2 * end])
    else:
        np.matmul(matrix, old, out=write[..., lo:end])
    return Field(t, read[..., new_lo:new_end], new_lo, plan)


def evolve(field: Field, n: int, step: Callable[[Field], Field]) -> Field:
    """The field after n applications of `step`, through the windows of steps
    without a plan: the field's own first slot, and one slot more per step.
    A field at the origin comes out dense: lo = 0 and all time + 1 slots."""
    packed, lo = field.packed, field.lo
    t = field.time + _require_count(n, "n")
    ends = np.arange(t + 1) + (lo + packed.shape[-1] - field.time)
    field = replace(field, plan=_plan(packed.shape[:-2], packed.dtype, np.full_like(ends, lo), ends))
    for _ in range(n):
        field = step(field)
    return replace(field, plan=None)


def return_values(field: Field, nmax: int, step: Callable[[Field], Field]) -> np.ndarray:
    """Origin weights r_0..r_nmax of a walk started from the time-0 `field`.

    Only the light cone of the origin is advanced: at time t the sites with
    |x| <= min(t, nmax - t), which is about a quarter of the dense field's
    site work over the walk; the window is empty only at an odd last step.
    The origin pair, inside the window at every even time t <= nmax, is read
    at those times, the only ones it can be occupied, and turned into
    weights at the end.  A stack of walkers gives one row of weights per
    walker, shape (..., nmax + 1).
    """
    nmax = _require_count(nmax, "nmax")
    if field.time != 0:
        raise ValueError(f"return_values starts at time 0, got a field at time {field.time}")
    walkers = field.packed.shape[:-2]
    t = np.arange(nmax + 1)
    lows = np.maximum(0, (2 * t - nmax + 1) // 2)
    ends = np.maximum(lows, np.minimum(t, nmax // 2) + 1)
    field = replace(field, plan=_plan(walkers, field.packed.dtype, lows, ends))
    pairs = np.zeros((*walkers, 2, nmax // 2 + 1), dtype=field.packed.dtype)
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
