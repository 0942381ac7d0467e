"""Tensor-product midpoint quadrature on the unit cube.

The midpoint rule on a dyadic grid is exact for piecewise-constant
integrands whose cells align with the grid, which makes it the natural
companion of the Haar basis used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


STRIP_NODES = 1 << 16  # nodes per evaluation of an integrand in ``integrate``


def default_nodes_per_dim(d: int) -> int:
    return 256 if d <= 2 else 64


@dataclass(frozen=True)
class QuadratureSpec:
    """Midpoint rule with ``nodes_per_dim`` cells per coordinate."""

    nodes_per_dim: int

    def __post_init__(self):
        if self.nodes_per_dim < 1:
            raise ValueError("nodes_per_dim must be positive")

    def grid(self, d: int) -> tuple[np.ndarray, float]:
        """Return (nodes, cell_weight): nodes is (nodes_per_dim**d, d)."""
        return _grid_cached(self.nodes_per_dim, d)


def basis_quadrature(spec) -> QuadratureSpec:
    """Midpoint grid for a basis spec: its dimension's default, or its own size if finer."""
    return QuadratureSpec(max(default_nodes_per_dim(spec.dimension), spec.per_dim_size))


def _midpoints(n: int, d: int, flat: np.ndarray) -> np.ndarray:
    """The nodes of the n^d midpoint grid at row-major indices ``flat``: (len(flat), d)."""
    x1 = (np.arange(n) + 0.5) / n
    return x1[np.stack(np.unravel_index(flat, (n,) * d), axis=1)]


@lru_cache(maxsize=32)
def _grid_cached(nodes_per_dim: int, d: int) -> tuple[np.ndarray, float]:
    nodes = _midpoints(nodes_per_dim, d, np.arange(nodes_per_dim ** d))
    nodes.setflags(write=False)
    return nodes, nodes_per_dim ** (-d)


def integrate(f, d: int, quad: QuadratureSpec) -> float:
    """Midpoint integral of ``f`` over [0,1]^d; f takes an (n, d) array.  The
    nodes are made and ``f`` evaluated in strips of at most ``STRIP_NODES``
    in row-major order, so no array of the whole grid is held or cached."""
    n = quad.nodes_per_dim
    total = 0.0
    for lo in range(0, n**d, STRIP_NODES):
        total += float(np.sum(f(_midpoints(n, d, np.arange(lo, min(lo + STRIP_NODES, n**d))))))
    return total * n ** (-d)
