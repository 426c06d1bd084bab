"""Periodic grid functions on the unit torus."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np


class GridFunction:
    """Real 1-periodic function sampled at the n equispaced nodes j/n of [0, 1)."""

    values: np.ndarray

    def __init__(self, values):
        v = np.array(values, dtype=float)
        if v.ndim != 1:
            raise ValueError("grid function values must be a 1-D array")
        if v.size < 8:
            raise ValueError("grid function needs at least 8 nodes")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function values must be finite")
        v.setflags(write=False)
        self.values = v

    @classmethod
    def from_callable(cls, f, n: int) -> "GridFunction":
        return cls(np.asarray(f(np.arange(n) / n), dtype=float))

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        return 1.0 / self.values.size

    def nodes(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def mean(self) -> float:
        return float(np.mean(self.values))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def nearest_node(points: np.ndarray, n: int) -> np.ndarray:
    """Index of the node j / n of the n-node grid nearest each torus point."""
    return np.rint(np.asarray(points) * n).astype(np.int64) % n


def one_sided_diffs(values: np.ndarray, h: float) -> tuple:
    """(backward, forward) differences from one pass: the two views d[:-1]
    and d[1:] of d[k] = (v[k] - v[k-1]) / h, k = 0..n, indices mod n."""
    d = np.empty(values.size + 1)
    np.subtract(values[1:], values[:-1], out=d[1:-1])
    d[0] = d[-1] = values[0] - values[-1]
    d /= h
    return d[:-1], d[1:]


def forward_diff(values: np.ndarray, h: float) -> np.ndarray:
    return one_sided_diffs(values, h)[1]


def central_diff(values: np.ndarray, h: float) -> np.ndarray:
    pad = np.concatenate((values[-1:], values, values[:1]))
    return (pad[2:] - pad[:-2]) / (2.0 * h)


def whole_reciprocal(eps: float) -> Optional[int]:
    """k where eps = 1 / k for a whole k >= 1, else None (k = inf for a subnormal eps)."""
    k = 1.0 / eps if eps > 0 else 0.0
    return round(k) if 1.0 <= k < math.inf and abs(k - round(k)) <= 1e-12 else None
