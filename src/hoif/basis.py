"""Tensor-product basis families on the unit cube.

Two univariate families are shipped:

* B-splines of order s (polynomial degree s) on a uniform clamped knot
  grid, scaled by sqrt(q) so the diagonal of the uniform-density Gram
  stays bounded away from 0 and infinity as q grows.  Order 0 is the
  histogram basis at any q: sqrt(q) times the indicators of q equal cells.
* Haar: the histogram basis at a power-of-two q = 2**(L+1), which spans what
  the scaling function and the Haar wavelets up to level L span.

d-dimensional bases are tensor products enumerated in row-major order over
the univariate indices, so serialized coefficient vectors are reproducible.
One immutable ``BasisSpec`` both configures and evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from hoif.data import ValidationError

# Certification grid resolution per dimension and a cap on its total size.
CERT_GRID_PER_DIM = 512
CERT_MEMORY_CAP = 1 << 26  # max univariate grid-by-q element count


@dataclass(frozen=True)
class BasisSpec:
    """Family, dimension and per-dimension size of a tensor basis, and the
    basis itself.  Equality and hash read these four fields only, so the
    cached ``locality_constant`` is no part of a spec's identity."""

    family: str
    dimension: int
    per_dim_size: int
    order: int = 0  # B-spline order (polynomial degree); always 0 for haar

    def __post_init__(self):
        if self.family not in ("haar", "bspline"):
            raise ValidationError(f"unknown basis family {self.family!r}")
        if self.dimension < 1:
            raise ValidationError("dimension must be >= 1")
        if self.per_dim_size < 1:
            raise ValidationError("per_dim_size must be >= 1")
        if self.family == "haar":
            q = self.per_dim_size
            if q & (q - 1) != 0:
                raise ValidationError("haar per_dim_size must be a power of two")
            object.__setattr__(self, "order", 0)  # haar reads none: equal runs, equal specs
        if self.order < 0:
            raise ValidationError("bspline order must be >= 0")
        if self.per_dim_size < self.order + 1:
            raise ValidationError("bspline requires per_dim_size >= order + 1")

    @property
    def k(self) -> int:
        return self.per_dim_size ** self.dimension

    @property
    def cellwise(self) -> bool:
        """Whether the basis is of order 0 (every Haar basis is), so that its
        rows are the scaled indicators of the cells of its uniform q^d grid
        (``cells``): its Gram, series fits and correction terms then come
        from per-cell sums."""
        return self.order == 0

    @property
    def d(self) -> int:
        return self.dimension

    @cached_property
    def locality_constant(self) -> float:
        """A bound on sup_x ||z(x)||^2 / k over a certification grid, computed
        when first read: the pointwise-boundedness condition the estimator's
        theory requires of the basis.  For a tensor product the supremum
        factorizes, so the grid is ``CERT_GRID_PER_DIM`` points on one axis."""
        if CERT_GRID_PER_DIM * self.per_dim_size > CERT_MEMORY_CAP:
            raise ValidationError(
                f"certification grid of {CERT_GRID_PER_DIM} x {self.per_dim_size} "
                f"exceeds memory cap {CERT_MEMORY_CAP}"
            )
        xs = np.linspace(0.0, 1.0, CERT_GRID_PER_DIM)
        uni = self._univariate(xs)
        per_dim_max = float(np.max(np.sum(uni * uni, axis=1)))
        return per_dim_max ** self.d / self.k

    def _univariate(self, xs: np.ndarray) -> np.ndarray:
        """The q univariate functions at ``xs``; cellwise, sqrt(q) times cell indicators."""
        q = self.per_dim_size
        if self.cellwise:
            return np.sqrt(q) * (_axis_cells(q, xs)[:, None] == np.arange(q))
        return _bspline_univariate(q, self.order, xs)

    def _points(self, x: np.ndarray) -> np.ndarray:
        """``x`` as an (n, d) float array of points in [0, 1]^d, or a ValueError."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[1] != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {x.shape[1]}")
        if not np.all((x >= 0.0) & (x <= 1.0)):  # NaN fails too
            raise ValueError("coordinates must lie in [0, 1]")
        return x

    def evaluate_many(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at an (n, d) array of points; returns (n, k)."""
        x = self._points(x)
        out = self._univariate(x[:, 0])
        for j in range(1, self.d):
            uj = self._univariate(x[:, j])
            out = (out[:, :, None] * uj[:, None, :]).reshape(x.shape[0], -1)
        return out

    def design(self, x: np.ndarray) -> np.ndarray:
        """The design on the points of an (n, d) array: each point's cell
        (``cells``) if the basis is cellwise, otherwise the (n, k) basis values."""
        return self.cells(x) if self.cellwise else self.evaluate_many(x)

    def cells(self, x: np.ndarray) -> np.ndarray:
        """Row-major index of the cell of the uniform q^d grid that holds each
        point of an (n, d) array, per axis ``_axis_cells``: the column of the
        point's nonzero entry in a cellwise basis's rows."""
        q = self.per_dim_size
        axis = _axis_cells(q, self._points(x))
        index = axis[:, 0]
        for j in range(1, self.d):  # multiply-add: numpy has no BLAS for an int64 matmul
            index = index * q + axis[:, j]
        return index


def _axis_cells(q: int, xs: np.ndarray) -> np.ndarray:
    """Each coordinate's cell of q equal cells on [0, 1], x == 1 in the last."""
    return np.minimum(np.floor(xs * q).astype(np.int64), q - 1)


def _bspline_knots(q: int, s: int) -> np.ndarray:
    breaks = np.linspace(0.0, 1.0, q - s + 1)  # q - s intervals
    return np.concatenate([np.zeros(s), breaks, np.ones(s)])


def _bspline_univariate(q: int, s: int, xs: np.ndarray) -> np.ndarray:
    """sqrt(q) times the q order-s B-splines at ``xs``, by de Boor's recursion
    (J. Approx. Theory 6, 1972) over each point's s + 1 nonzero splines, in
    the operation order of FITPACK's fpbspl, so equal bit for bit to scipy's
    ``BSpline.design_matrix``."""
    t = _bspline_knots(q, s)
    x = np.clip(xs, 0.0, 1.0)
    # each point's interval: t[ell] <= x < t[ell + 1], x == 1 in the last
    ell = np.clip(np.searchsorted(t, x, "right") - 1, s, q - 1)
    h = np.zeros((s + 1, x.size))
    h[0] = 1.0
    for j in range(1, s + 1):
        hh = h[:j].copy()
        h[0] = 0.0
        for n in range(1, j + 1):
            xb, xa = t[ell + n], t[ell + n - j]  # xb > xa: ell is an interior interval
            w = hh[n - 1] / (xb - xa)
            h[n - 1] += w * (xb - x)
            h[n] = w * (x - xa)
    rows = np.zeros((x.size, q))
    first = np.arange(x.size) * q + ell - s  # flat index of each row's first nonzero
    for i in range(s + 1):
        rows.flat[first + i] = h[i] * np.sqrt(q)
    return rows


Basis = BasisSpec  # the name perfbench/tracing.py wraps evaluate_many under


def build_basis(spec: BasisSpec) -> BasisSpec:
    """The basis of ``spec``, which is ``spec`` itself."""
    return spec
