"""Two-component field on the integer lattice and its shift step.

Both walks carry a (Left, Right) pair per site and advance by the same
split of a 2x2 matrix M: the top row P sends the pair one site left, the
bottom row Q one site right, new(x) = P old(x+1) + Q old(x-1).  The quantum
walk shifts complex amplitudes (site weight |amp|^2), the correlated walk
real conditional masses (site weight the mass itself); the observable that
turns a component into a weight is carried by the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Field", "shift", "evolve", "return_values"]


@dataclass(frozen=True)
class Field:
    """Walker state at one time step.

    Dense storage over positions -time..time: column j of `components`
    holds the (L, R) pair at position x = j - time.  Odd-parity slots stay
    exactly zero because the shift never writes into them.
    """

    time: int
    components: np.ndarray  # shape (2, 2*time + 1)
    observable: Callable  # elementwise component -> weight, on scalars and arrays

    @classmethod
    def at_origin(cls, vector: np.ndarray, observable: Callable) -> "Field":
        components = np.zeros((2, 1), dtype=vector.dtype)
        components[:, 0] = vector
        return cls(time=0, components=components, observable=observable)

    @property
    def positions(self) -> np.ndarray:
        return np.arange(-self.time, self.time + 1)

    def component(self, x: int) -> np.ndarray:
        if abs(x) > self.time:
            return np.zeros(2, dtype=self.components.dtype)
        return self.components[:, x + self.time]

    def probability(self, x: int) -> float:
        if abs(x) > self.time:
            return 0.0
        j = x + self.time
        return float(self.observable(self.components[0, j]) + self.observable(self.components[1, j]))

    def total_probability(self) -> float:
        return float(np.sum(self.observable(self.components)))

    def position_distribution(self) -> np.ndarray:
        return self.observable(self.components[0]) + self.observable(self.components[1])


def shift(field: Field, matrix: np.ndarray) -> Field:
    """One time step: new(x) = P old(x+1) + Q old(x-1).

    `matrix` is the 2x2 coin array [[a, b], [c, d]]; P is its top row, Q its
    bottom row, so one product `matrix @ old` gives both moved components.
    """
    old = field.components
    t = field.time
    moved = matrix @ old
    # L-components come from the right neighbour, R-components from the left.
    new = np.zeros((2, 2 * t + 3), dtype=moved.dtype)
    new[0, : 2 * t + 1] = moved[0]
    new[1, 2:] = moved[1]
    return Field(time=t + 1, components=new, observable=field.observable)


def evolve(field: Field, n: int, step: Callable[[Field], Field]) -> Field:
    """The field after n applications of `step`."""
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
    for _ in range(n):
        field = step(field)
    return field


def return_values(field: Field, nmax: int, step: Callable[[Field], Field]) -> np.ndarray:
    """Origin weights r_0..r_nmax along nmax applications of `step`."""
    if nmax < 0:
        raise ValueError(f"nmax must be non-negative, got {nmax}")
    values = np.empty(nmax + 1)
    values[0] = field.probability(0)
    for n in range(1, nmax + 1):
        field = step(field)
        values[n] = field.probability(0)
    return values
