"""Two-component field on the integer lattice and its shift step.

Both walks carry a (Left, Right) pair per site and advance by the same
split of a 2x2 matrix M: the top row P sends the pair one site left, the
bottom row Q one site right, new(x) = P old(x+1) + Q old(x-1).  The quantum
walk shifts complex amplitudes, the correlated walk real conditional
masses; the site weight follows from the dtype: |amp|^2 for a complex
amplitude, the value itself for a real mass.  The origin pairs must be
float or complex, of a dtype the step matrix does not widen (no int
pairs, no complex matrix over float pairs, no float32 pairs under a
float64 matrix); the loops refuse any other before a step.  The dtype is
all they see: a quantum coin with real entries over real pairs is walked
as masses, like a correlated walk (the pairs (0.6, 0.8) give r_0 = 1.4),
so amplitudes are walked only from complex pairs, as `qw` passes them.

A walk started at the origin occupies at time t only the t + 1 sites
x = -t + 2m (m = 0..t) of the parity of t; every other site holds exactly
zero, so the field stores just those slots.

Walkers advance as one stack: a leading walker axis in front of the
(pair, slot) axes, and one product per step, under one matrix that the
product broadcasts over the walkers or under a stack of matrices, one per
walker.  A single walker is the stack with no leading axis.  Every walk is
set up by `stack`: its step matrix and its origin (L, R) pairs.

`evolve` and `return_values` take both and a step, called as `step(field,
matrix)` like `shift`, in the plan they set up from the origin pairs: the
window of slots kept at every time, computed at once, and two zeroed
buffers that the steps fill in turn, slot m at fixed
columns, so a step is one product and a few slices.  A window's first
slot stays put or rises by one a step and its end grows by at most one,
so a slot with no source is one that no step has written, and it reads 0.
A real matrix multiplies a complex field as (re, im) float pairs: half
the flops of the complex product and, with the OpenBLAS numpy ships, the
same bits, except one slot wide, where numpy takes a matrix-vector
routine that rounds differently.
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


# Not frozen: a frozen dataclass's __init__ costs about 0.8 us more, and
# every lattice step builds a Field.
@dataclass
class Field:
    """Walker state at one time step.

    Column j of `packed` holds the (L, R) pair at the occupied-parity site
    x = -time + 2 (lo + j); any axes in front of the pair axis index the
    walkers of one stack, which share `time`, `lo` and the step matrix.
    Only `evolve` and `return_values` make a field with a `plan`, from the
    origin pairs: it lives in one of the plan's two buffers, which the next
    step but one overwrites; inside `return_values` it keeps only the light cone of the
    origin.  Such fields never leave those loops.  `evolve` hands out its
    last field without the plan, with all time + 1 slots (lo = 0), and a
    field without a plan is never stepped.  The reads work per walker:
    `position_distribution()` gives positions -time..time, one row per
    walker, with exact zeros on every site not stored, and
    `total_probability()` a float for one walker and an array for a stack.
    """

    time: int
    packed: np.ndarray  # shape (..., 2, width), width <= time + 1
    lo: int = 0
    plan: tuple | None = None  # see `_plan`

    def total_probability(self) -> float | np.ndarray:
        weights = _weight(self.packed)
        total = np.sum(weights.reshape(weights.shape[:-2] + (-1,)), axis=-1)
        return float(total) if total.ndim == 0 else total

    def position_distribution(self) -> np.ndarray:
        weights = _weight(self.packed[..., 0, :]) + _weight(self.packed[..., 1, :])
        dist = np.zeros(weights.shape[:-1] + (2 * self.time + 1,), dtype=weights.dtype)
        dist[..., 2 * self.lo : 2 * (self.lo + weights.shape[-1]) : 2] = weights
        return dist


def stack(source, state) -> tuple[np.ndarray, np.ndarray]:
    """The step matrix and the origin (L, R) pairs of one walk or of a stack of walks.

    `source` is a coin or transition (anything with `matrix()`) or a
    sequence of them, `state` an initial state (anything with `vector()`)
    or a sequence of them.  One state walks alone under one source, from
    pairs of shape (2,).  A sequence of states walks as one stack, pairs of
    shape (len(state), 2), under the one source or paired one-to-one with a
    sequence of sources, whose matrices stack to shape (len(source), 2, 2).
    A complex matrix whose entries all have a zero imaginary part is handed
    out as its real part; the states keep the complex dtype.
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
    return matrix, vectors


def shift(field: Field, matrix: np.ndarray) -> Field:
    """One time step: new(x) = P old(x+1) + Q old(x-1).

    `matrix` is the 2x2 coin array [[a, b], [c, d]]; P is its top row, Q its
    bottom row, so one product `matrix @ old` gives both moved components:
    in slots, new L[m] = (M old)[0, m] and new R[m] = (M old)[1, m - 1] (the
    L-components come from the right neighbour, the R-components from the
    left one).  The product is written straight into the plan's buffer for
    the new time, and the new field keeps the plan's window.  A slot with
    no source (the last L, the first R of a growing field) is one that no
    step has written, so the zeroed buffer already holds 0 there.  For a
    stack of walkers the one product broadcasts a 2x2 `matrix` over them,
    or pairs a (walkers, 2, 2) stack of matrices with them.  Only a field
    with a plan steps; walk one with `evolve` or `return_values`.
    """
    old, t, lo, plan = field.packed, field.time + 1, field.lo, field.plan
    if plan is None:
        raise ValueError("a field without a plan does not step; walk it with lattice.evolve or lattice.return_values")
    width = old.shape[-1]
    end = lo + width
    lows, ends, views = plan
    read, write, pairs = views[t % 2]
    new_lo, new_end = lows[t], ends[t]
    if width > 1 and matrix.dtype != old.dtype:  # a real matrix on amplitudes, as float pairs
        np.matmul(matrix, old.view(matrix.dtype), out=pairs[..., 2 * lo : 2 * end])
    else:
        np.matmul(matrix, old, out=write[..., lo:end])
    return Field(t, read[..., new_lo:new_end], new_lo, plan)


def _plan(matrix: np.ndarray, origin, lows: np.ndarray, ends: np.ndarray) -> Field:
    """The time-0 field of one slot, a copy of the (..., 2) pairs `origin`,
    which must be float or complex and of a dtype that `matrix` does not
    widen, with the plan of a walk whose window at time t is the slots from
    lows[t] to ends[t] - 1: the windows as memoryviews (a list would hold
    an int object per time), and the read, write and float-pair write views
    of two zeroed buffers; the step to time t writes buffer t % 2.  A buffer
    holds 2 S + 2 entries per walker: the read view (..., 2, S) has L and R
    of slot m in column m, and the write view (..., 2, S + 1) starts the R
    row one slot later, so a product written at the old slots puts R into
    the next slot."""
    origin = np.asarray(origin)
    if origin.shape[-1:] != (2,):
        raise ValueError(f"a walk starts from (L, R) pairs of shape (..., 2), got shape {origin.shape}")
    if origin.dtype.kind not in "fc" or np.result_type(matrix, origin) != origin.dtype:
        raise ValueError(f"a walk needs float or complex pairs its {matrix.dtype} matrix does not widen, got {origin.dtype}")
    walkers, slots, views = origin.shape[:-1], int(np.max(ends)), []
    for _ in range(2):
        buffer = np.zeros(walkers + (2 * slots + 2,), dtype=origin.dtype)
        write = buffer.reshape(walkers + (2, slots + 1))
        views.append((buffer[..., : 2 * slots].reshape(walkers + (2, slots)), write, write.view(write.real.dtype)))
    return Field(0, origin[..., None].copy(), 0, (memoryview(lows), memoryview(ends), views))


def evolve(matrix: np.ndarray, origin, n: int, step: Callable[[Field, np.ndarray], Field]) -> Field:
    """The field after n calls `step(field, matrix)` from the `origin` pairs,
    with all n + 1 slots (lo = 0).  It is handed out without the plan, so
    no later walk writes into it or steps it."""
    ends = np.arange(_require_count(n, "n") + 1) + 1
    field = _plan(matrix, origin, np.zeros_like(ends), ends)
    for _ in range(n):
        field = step(field, matrix)
    return replace(field, plan=None)


def return_values(matrix: np.ndarray, origin, nmax: int, step: Callable[[Field, np.ndarray], Field]) -> np.ndarray:
    """Origin weights r_0..r_nmax of a walk of calls `step(field, matrix)` from the `origin` pairs.

    Only the light cone of the origin is advanced: at time t the sites with
    |x| <= min(t, nmax - t), which is about a quarter of the dense field's
    site work over the walk; the window is empty only at an odd last step.
    The origin pair, inside the window at every even time t <= nmax, is read
    at those times, the only ones it can be occupied, and turned into
    weights at the end.  A stack of walkers gives one row of weights per
    walker, shape (..., nmax + 1).
    """
    nmax = _require_count(nmax, "nmax")
    t = np.arange(nmax + 1)
    lows = np.maximum(0, (2 * t - nmax + 1) // 2)
    ends = np.maximum(lows, np.minimum(t, nmax // 2) + 1)
    field = _plan(matrix, origin, lows, ends)
    walkers = field.packed.shape[:-2]
    pairs = np.zeros((*walkers, 2, nmax // 2 + 1), dtype=field.packed.dtype)
    pairs[..., 0] = field.packed[..., 0]
    for t in range(1, nmax + 1):
        field = step(field, matrix)
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
