"""Gram matrices, checked inversion, projections and truncation bias.

Three Gram variants appear in the pipeline: the population matrix built by
quadrature against the true weighted density g, the same quadrature against
an estimated density (the density-based comparison path), and the empirical
training-sample average of |h1|-weighted outer products (the main path,
which needs no density estimate).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from hoif.basis import Basis
from hoif.data import Dataset, ValidationError
from hoif.functionals import FunctionalSpec
from hoif.quadrature import QuadratureSpec

DEFAULT_EIGEN_FLOOR = 1e-8

_SOURCE_TAGS = {"empirical": 1, "quadrature": 2}
_TAG_SOURCES = {v: k for k, v in _SOURCE_TAGS.items()}
_MAGIC = b"HOIFGRAM"


@dataclass(frozen=True)
class GramMatrix:
    entries: np.ndarray  # (k, k) symmetric
    source: str  # "empirical" | "quadrature"
    n_used: int

    @property
    def k(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class InverseReport:
    inverse: np.ndarray | None
    invertible: bool
    condition_number: float
    eig_min: float
    eig_max: float
    op_distance_to_reference: float | None = None


def _finish(entries: np.ndarray, source: str, n_used: int) -> GramMatrix:
    return GramMatrix(entries=0.5 * (entries + entries.T), source=source, n_used=n_used)


def empirical_gram(basis: Basis, training: Dataset, spec: FunctionalSpec) -> GramMatrix:
    """Training-sample average of |h1|-weighted basis outer products."""
    if training.n == 0:
        raise ValidationError("empty training set")
    w = np.abs(spec.h1(training))
    if not np.all(np.isfinite(w)):
        raise ValidationError("non-finite weight |h1|")
    z = basis.evaluate_many(training.x)
    entries = (z * w[:, None]).T @ z / training.n
    return _finish(entries, "empirical", training.n)


def quadrature_gram(basis: Basis, g, quad: QuadratureSpec) -> GramMatrix:
    """Quadrature of the g-weighted outer product of basis evaluations."""
    if quad.nodes_per_dim < basis.spec.per_dim_size:
        raise ValueError("quadrature node count below basis resolution")
    nodes, w = quad.grid(basis.d)
    gv = np.asarray(g(nodes), dtype=float)
    if np.any(gv < 0):
        raise ValueError("density must be nonnegative")
    z = basis.evaluate_many(nodes)
    entries = (z * (gv * w)[:, None]).T @ z
    return _finish(entries, "quadrature", nodes.shape[0])


def invert_checked(m: GramMatrix, eigen_floor: float = DEFAULT_EIGEN_FLOOR) -> InverseReport:
    """Symmetric inverse with an invertibility verdict.

    The matrix counts as non-invertible when its smallest eigenvalue falls
    at or below ``eigen_floor`` relative to the largest eigenvalue.  The
    verdict is a value, not an error: the estimator convention maps it to
    a zero estimate.
    """
    eigvals, eigvecs = np.linalg.eigh(m.entries)
    eig_min, eig_max = float(eigvals[0]), float(eigvals[-1])
    floor = eigen_floor * max(eig_max, 0.0)
    if eig_min <= floor or eig_max <= 0.0:
        return InverseReport(
            inverse=None,
            invertible=False,
            condition_number=float("inf"),
            eig_min=eig_min,
            eig_max=eig_max,
        )
    inv = (eigvecs / eigvals) @ eigvecs.T
    return InverseReport(
        inverse=0.5 * (inv + inv.T),
        invertible=True,
        condition_number=eig_max / eig_min,
        eig_min=eig_min,
        eig_max=eig_max,
    )


def op_norm_distance(amat: GramMatrix, bmat: GramMatrix) -> float:
    """Operator-norm distance between two symmetric matrices."""
    if amat.k != bmat.k:
        raise ValueError("shape mismatch")
    eigs = np.linalg.eigvalsh(amat.entries - bmat.entries)
    return float(max(abs(eigs[0]), abs(eigs[-1])))


def projection_coefficients(basis: Basis, m_inv: np.ndarray, g, h, quad: QuadratureSpec) -> np.ndarray:
    """Coefficients of the L2(g)-projection of h onto the basis span."""
    nodes, w = quad.grid(basis.d)
    z = basis.evaluate_many(nodes)
    gv = np.asarray(g(nodes), dtype=float)
    hv = np.asarray(h(nodes), dtype=float)
    moments = z.T @ (gv * hv * w)
    return m_inv @ moments


def project(basis: Basis, m_inv: np.ndarray, g, h, quad: QuadratureSpec):
    """Return the L2(g)-orthogonal projection of h onto the basis span.

    ``m_inv`` must be the inverse of ``quadrature_gram(basis, g, quad)``.
    The result is a function of an (n, d) point array.
    """
    coef = projection_coefficients(basis, m_inv, g, h, quad)

    def projected(x):
        return basis.evaluate_many(np.asarray(x)) @ coef

    return projected


def truncation_bias(basis: Basis, g, b_err, p_err, quad: QuadratureSpec,
                    sign_flag: bool = False) -> float:
    """Signed integral of g times the off-span parts of the nuisance errors.

    Computes sign * int g (I - P)[b_err] (I - P)[p_err] dx where P is the
    L2(g)-projection onto the basis span and sign = (-1)**I(h1 <= 0).
    Simulation-only: requires the error functions themselves.
    """
    gram = quadrature_gram(basis, g, quad)
    rep = invert_checked(gram)
    if not rep.invertible:
        raise ValueError("population Gram not invertible at this quadrature")
    nodes, w = quad.grid(basis.d)
    gv = np.asarray(g(nodes), dtype=float)
    bv = np.asarray(b_err(nodes), dtype=float)
    pv = np.asarray(p_err(nodes), dtype=float)
    z = basis.evaluate_many(nodes)
    cb = z.T @ (gv * bv * w)
    cp = z.T @ (gv * pv * w)
    full = float(np.sum(gv * bv * pv) * w)
    projected = float(cb @ rep.inverse @ cp)
    sign = -1.0 if sign_flag else 1.0
    return sign * (full - projected)


def save_gram(m: GramMatrix, path):
    """Flat binary dump: 16-byte header (magic, k, source tag), then
    little-endian float64 entries in row-major order."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", m.k, _SOURCE_TAGS[m.source]))
        fh.write(np.ascontiguousarray(m.entries, dtype="<f8").tobytes())
        fh.write(struct.pack("<q", m.n_used))


def load_gram(path) -> GramMatrix:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValueError("not a Gram matrix file")
        k, tag = struct.unpack("<II", fh.read(8))
        entries = np.frombuffer(fh.read(8 * k * k), dtype="<f8").reshape(k, k).copy()
        (n_used,) = struct.unpack("<q", fh.read(8))
    return _finish(entries, _TAG_SOURCES[tag], n_used)
