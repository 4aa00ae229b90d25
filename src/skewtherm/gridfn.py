"""Sampled periodic functions with a log-scale offset.

A GridFn represents e^log_offset * interp(values) on the fiber circle, with
nodes at j/N.  Renormalizing after every operator application keeps the
stored values at unit sup norm while the operator's exponential growth
accumulates in log_offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveFunctionError

MIN_NODES = 16


def _check_nodes(n: int) -> None:
    if n < MIN_NODES or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= {MIN_NODES}, got {n}")


@dataclass
class GridFn:
    """N samples on the circle plus a log-scale factor."""

    values: np.ndarray
    log_offset: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        _check_nodes(self.values.size)

    @property
    def n_nodes(self) -> int:
        return self.values.size

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_nodes, dtype=float) / self.n_nodes

    @classmethod
    def ones(cls, n: int) -> "GridFn":
        _check_nodes(n)
        return cls(np.ones(n))

    @classmethod
    def from_callable(cls, f, n: int) -> "GridFn":
        _check_nodes(n)
        return cls(np.asarray(f(np.arange(n, dtype=float) / n), dtype=float))

    def interp(self, t):
        """Periodic linear interpolation at circle point(s) t."""
        (j0, j1), (w0, w1) = interp_nodes(t, self.n_nodes)
        out = w0 * self.values[j0] + w1 * self.values[j1]
        return float(out) if out.ndim == 0 else out

    def renormalize(self) -> "GridFn":
        """Scale stored values to unit max-abs, folding the factor into log_offset."""
        m = float(np.max(np.abs(self.values)))
        if m == 0.0:
            return self
        self.values /= m
        self.log_offset += math.log(m)
        return self


@dataclass
class GridFn2D:
    """N_X x N_Y samples on the torus plus a log-scale factor."""

    values: np.ndarray
    log_offset: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("GridFn2D needs a 2-d sample array")
        _check_nodes(self.values.shape[0])
        _check_nodes(self.values.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @classmethod
    def ones(cls, n_x: int, n_y: int) -> "GridFn2D":
        return cls(np.ones((n_x, n_y)))

    @classmethod
    def from_callable(cls, f, n_x: int, n_y: int) -> "GridFn2D":
        xs = np.arange(n_x, dtype=float) / n_x
        ys = np.arange(n_y, dtype=float) / n_y
        return cls(np.asarray(f(xs[:, None], ys[None, :]), dtype=float))

    def interp(self, x, y):
        """Periodic bilinear interpolation at torus point(s) (x, y)."""
        jx, wx = interp_nodes(x, self.values.shape[0])
        jy, wy = interp_nodes(y, self.values.shape[1])
        out = sum(wx[a] * wy[b] * self.values[jx[a], jy[b]]
                  for b in (0, 1) for a in (0, 1))
        return float(out) if np.ndim(out) == 0 else out

    def slice_at(self, x: float) -> GridFn:
        """The fiber restriction Psi(x, .) as a GridFn (interpolated in x)."""
        return GridFn(self.rows_at(x), self.log_offset)

    def rows_at(self, xs) -> np.ndarray:
        """The stored values of the fiber restrictions at base point(s) xs,
        interpolated in x: one row per point, without the log offset."""
        (j0, j1), (w0, w1) = interp_nodes(xs, self.values.shape[0])
        return (w0[..., None] * self.values[j0]
                + w1[..., None] * self.values[j1])

    renormalize = GridFn.renormalize


def pair_log(weights: np.ndarray, values: np.ndarray,
             log_offset: float = 0.0) -> float:
    """log <f, w> of f = e^log_offset * values on the nodes and node weights
    w, such as an anchor's: one dot product."""
    v = float(np.dot(weights, values))
    if v <= 0.0:
        raise NonpositiveFunctionError(
            "log pairing needs a positive value at the anchor")
    return log_offset + math.log(v)


def interp_nodes(t, n: int):
    """Periodic linear interpolation at circle point(s) t on the grid j/n,
    n a power of two.

    Returns ((j0, j1), (w0, w1)): the left and right nodes of the grid cell
    holding t and their interpolation weights, each shaped like t.
    """
    if n < 1 or n & (n - 1):
        raise ValueError(f"grid size must be a power of two, got {n}")
    t = np.asarray(t, dtype=float)
    # t - floor(t) is t % 1.0 to the bit (both round t - floor(t) once),
    # at a fraction of the cost of numpy's float remainder
    s = (t - np.floor(t)) * n
    cell = np.floor(s)
    frac = s - cell
    # j & (n - 1) is j % n for a power of two n, and cheaper
    mask = n - 1
    j = cell.astype(np.intp) & mask
    return (j, (j + 1) & mask), (1.0 - frac, frac)

