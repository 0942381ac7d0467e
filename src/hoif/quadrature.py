"""Tensor-product midpoint quadrature on the unit cube.

The midpoint rule on a dyadic grid is exact for piecewise-constant
integrands whose cells align with the grid, which makes it the natural
companion of the Haar basis used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def default_nodes_per_dim(d: int) -> int:
    return 256 if d <= 2 else 64


@dataclass(frozen=True)
class QuadratureSpec:
    """Midpoint rule with ``nodes_per_dim`` cells per coordinate."""

    nodes_per_dim: int = 256

    def __post_init__(self):
        if self.nodes_per_dim < 1:
            raise ValueError("nodes_per_dim must be positive")

    def grid(self, d: int) -> tuple[np.ndarray, float]:
        """Return (nodes, cell_weight): nodes is (nodes_per_dim**d, d)."""
        return _grid_cached(self.nodes_per_dim, d)


@lru_cache(maxsize=32)
def _grid_cached(nodes_per_dim: int, d: int) -> tuple[np.ndarray, float]:
    x1 = (np.arange(nodes_per_dim) + 0.5) / nodes_per_dim
    axes = np.meshgrid(*([x1] * d), indexing="ij")
    nodes = np.stack([a.ravel() for a in axes], axis=1)
    nodes.setflags(write=False)
    return nodes, nodes_per_dim ** (-d)


def integrate(f, d: int, quad: QuadratureSpec) -> float:
    """Midpoint integral of ``f`` over [0,1]^d; f takes an (n, d) array."""
    nodes, w = quad.grid(d)
    return float(np.sum(f(nodes)) * w)
