"""Return-probability series container shared by all walk models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReturnSeries:
    """Sequence r_0, r_1, ..., r_N of return probabilities for one model."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("return series must be a non-empty 1-D sequence")

    @property
    def nmax(self) -> int:
        return self.values.size - 1

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, n: int) -> float:
        return float(self.values[n])
