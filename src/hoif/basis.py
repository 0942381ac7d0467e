"""Tensor-product basis families on the unit cube.

Two univariate families are shipped:

* Haar: the constant scaling function plus Haar wavelets up to resolution
  level L, giving q = 2**(L+1) functions per dimension (q = 1 means the
  scaling function alone).  Orthonormal in L2 of the uniform density.
* B-splines of order s (polynomial degree s) on a uniform clamped knot
  grid, scaled by sqrt(q) so the diagonal of the uniform-density Gram
  stays bounded away from 0 and infinity as q grows.

d-dimensional bases are tensor products enumerated in row-major order over
the univariate indices, so serialized coefficient vectors are reproducible.
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
    """Family, dimension and per-dimension size of a tensor basis."""

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

    def preset_id(self) -> str:
        if self.family == "haar":
            level = self.per_dim_size.bit_length() - 2  # q = 2**(L+1)
            return f"haar:d={self.dimension},L={level}"
        return f"bspline:d={self.dimension},s={self.order},q={self.per_dim_size}"


def _haar_univariate(q: int, xs: np.ndarray) -> np.ndarray:
    """Evaluate the q-function univariate Haar family at points xs."""
    n = xs.shape[0]
    out = np.zeros((n, q))
    out[:, 0] = 1.0
    rows = np.arange(n)
    for j in range(q.bit_length() - 1):
        njm = 1 << j  # shifts at level j, in columns njm .. 2 * njm - 1
        # cell index at level j; x == 1 belongs to the last cell
        t = xs * njm
        cell = np.minimum(np.floor(t).astype(np.int64), njm - 1)
        sign = np.where(t - cell < 0.5, 1.0, -1.0)
        out[rows, njm + cell] = 2.0 ** (j / 2.0) * sign
    return out


def _bspline_knots(q: int, s: int) -> np.ndarray:
    n_intervals = q - s
    breaks = np.linspace(0.0, 1.0, n_intervals + 1)
    return np.concatenate([np.zeros(s), breaks, np.ones(s)])


def _bspline_univariate(q: int, s: int, xs: np.ndarray) -> np.ndarray:
    from scipy.interpolate import BSpline  # imported here so Haar runs never load scipy

    t = _bspline_knots(q, s)
    return BSpline.design_matrix(np.clip(xs, 0.0, 1.0), t, s).toarray() * np.sqrt(q)


@dataclass(frozen=True)
class Basis:
    """Immutable evaluable tensor basis."""

    spec: BasisSpec

    @cached_property
    def locality_constant(self) -> float:
        """A bound on sup_x ||z(x)||^2 / k over a certification grid, computed
        when first read: the pointwise-boundedness condition the estimator's
        theory requires of the basis.  For a tensor product the supremum
        factorizes, so the grid is ``CERT_GRID_PER_DIM`` points on one axis."""
        if CERT_GRID_PER_DIM * self.spec.per_dim_size > CERT_MEMORY_CAP:
            raise ValidationError(
                f"certification grid of {CERT_GRID_PER_DIM} x {self.spec.per_dim_size} "
                f"exceeds memory cap {CERT_MEMORY_CAP}"
            )
        xs = np.linspace(0.0, 1.0, CERT_GRID_PER_DIM)
        uni = self._univariate(xs)
        per_dim_max = float(np.max(np.sum(uni * uni, axis=1)))
        return per_dim_max ** self.d / self.k

    @property
    def k(self) -> int:
        return self.spec.k

    @property
    def d(self) -> int:
        return self.spec.dimension

    def _univariate(self, xs: np.ndarray) -> np.ndarray:
        if self.spec.family == "haar":
            return _haar_univariate(self.spec.per_dim_size, xs)
        return _bspline_univariate(self.spec.per_dim_size, self.spec.order, xs)

    def evaluate_many(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at an (n, d) array of points; returns (n, k)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[1] != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {x.shape[1]}")
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise ValueError("coordinates must lie in [0, 1]")
        out = self._univariate(x[:, 0])
        for j in range(1, self.d):
            uj = self._univariate(x[:, j])
            out = (out[:, :, None] * uj[:, None, :]).reshape(x.shape[0], -1)
        return out


def build_basis(spec: BasisSpec) -> Basis:
    """The basis of ``spec``."""
    return Basis(spec)


def basis_from_preset(preset: str) -> Basis:
    """Build a basis from a string id.

    Formats: ``haar:d=<d>,L=<L>`` and ``bspline:d=<d>,s=<s>,q=<q>``.
    """
    try:
        family, rest = preset.split(":", 1)
        kv = dict(item.split("=") for item in rest.split(","))
        if family == "haar":
            spec = BasisSpec("haar", int(kv["d"]), 2 ** (int(kv["L"]) + 1))
        elif family == "bspline":
            spec = BasisSpec("bspline", int(kv["d"]), int(kv["q"]), order=int(kv["s"]))
        else:
            raise ValueError(f"unknown family {family!r}")
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"malformed basis preset {preset!r}: {exc}") from exc
    return build_basis(spec)
