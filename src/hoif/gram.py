"""Gram matrices, checked inversion, projections and truncation bias.

Three Gram variants appear in the pipeline: the population matrix built by
quadrature against the true weighted density g, the same quadrature against
an estimated density (the density-based comparison path), and the empirical
training-sample average of |h1|-weighted outer products (the main path,
which needs no density estimate).  For a cellwise basis (Haar) each of the
three is B^T diag(m_c) B (``cell_gram``) of its per-cell masses: the
training mass (``cell_mass``) or the quadrature integral of the density
over the cell (``cell_quadrature_mass``); other bases (B-splines) take
theirs from the basis evaluated on the records or on the nodes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from hoif.basis import Basis
from hoif.data import Dataset, ValidationError
from hoif.functionals import FunctionalSpec
from hoif.quadrature import QuadratureSpec
from hoif.ustat import PLAN_BYTES_MAX

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
    gram: GramMatrix  # the matrix inverted
    inverse: np.ndarray | None
    invertible: bool
    condition_number: float
    eig_min: float
    eig_max: float


def _finish(entries: np.ndarray, source: str, n_used: int) -> GramMatrix:
    return GramMatrix(entries=0.5 * (entries + entries.T), source=source, n_used=n_used)


def empirical_gram(basis: Basis, training: Dataset, spec: FunctionalSpec) -> GramMatrix:
    """Training-sample average of |h1|-weighted basis outer products."""
    return design_gram(basis.evaluate_many(training.x), training, spec)


def _abs_h1(training: Dataset, spec: FunctionalSpec) -> np.ndarray:
    if training.n == 0:
        raise ValidationError("empty training set")
    w = np.abs(spec.h1(training))
    if not np.all(np.isfinite(w)):
        raise ValidationError("non-finite weight |h1|")
    return w


def design_gram(z: np.ndarray, training: Dataset, spec: FunctionalSpec) -> GramMatrix:
    """``empirical_gram`` from the basis evaluated on the training points, ``z``."""
    entries = (z * _abs_h1(training, spec)[:, None]).T @ z / training.n
    return _finish(entries, "empirical", training.n)


def cell_mass(cells: np.ndarray, k: int, training: Dataset, spec: FunctionalSpec) -> np.ndarray:
    """m_c = (1/n) sum of |h1| over the training records in each of the k cells;
    ``cells`` holds each record's cell (``Basis.cells``)."""
    return np.bincount(cells, _abs_h1(training, spec), k) / training.n


def cell_gram(rows: np.ndarray, mass: np.ndarray, source: str, n_used: int) -> GramMatrix:
    """The Gram of a basis constant on cells (Haar) from its row in each cell
    (``Basis.cell_rows``) and each cell's mass: rows^T diag(mass) rows.  With
    the masses of ``cell_mass`` it is ``empirical_gram``, up to rounding."""
    return _finish((rows.T * mass) @ rows, source, n_used)


def _capped(planned: int, what: str) -> int:
    """``planned`` bytes of ``what``, or a ValidationError if they pass ``PLAN_BYTES_MAX``."""
    if planned > PLAN_BYTES_MAX:
        raise ValidationError(f"{what} needs {planned} bytes, over the cap of {PLAN_BYTES_MAX}")
    return planned


def _nodes_of(basis: Basis, quad: QuadratureSpec) -> str:
    return f"{quad.nodes_per_dim}^{basis.d} nodes at k={basis.k}"


def node_design(basis: Basis, quad: QuadratureSpec) -> tuple[np.ndarray, float, np.ndarray]:
    """Nodes, cell weight and basis values of the rule ``quad``; a design
    over ``PLAN_BYTES_MAX`` bytes is refused before its grid is built."""
    if quad.nodes_per_dim < basis.spec.per_dim_size:
        raise ValidationError("quadrature node count below basis resolution")
    _capped(8 * quad.nodes_per_dim ** basis.d * basis.k,
            f"quadrature design of {_nodes_of(basis, quad)}")
    nodes, w = quad.grid(basis.d)
    return nodes, w, basis.evaluate_many(nodes)


def quadrature_gram(basis: Basis, g, quad: QuadratureSpec) -> GramMatrix:
    """Quadrature of the g-weighted outer product of basis evaluations."""
    return design_quadrature_gram(node_design(basis, quad), g)


def _density(g, nodes: np.ndarray) -> np.ndarray:
    gv = np.asarray(g(nodes), dtype=float)
    if np.any(gv < 0):
        raise ValueError("density must be nonnegative")
    return gv


def cell_quadrature_mass(basis: Basis, g, quad: QuadratureSpec) -> np.ndarray:
    """The quadrature integral of g over each of the k cells of a cellwise
    basis (Haar): the nodes' g-weighted weights summed per cell, one
    ``np.bincount``; refused, before anything is built, when ``cell_plan``
    passes ``PLAN_BYTES_MAX``."""
    if quad.nodes_per_dim < basis.spec.per_dim_size:
        raise ValidationError("quadrature node count below basis resolution")
    cell_plan(basis, quad)
    nodes, w = quad.grid(basis.d)
    return np.bincount(basis.cells(nodes), _density(g, nodes) * w, basis.k)


def cell_quadrature_gram(basis: Basis, g, quad: QuadratureSpec) -> GramMatrix:
    """``quadrature_gram`` of a cellwise basis (Haar), which is constant on
    its cells: ``cell_gram`` of ``cell_quadrature_mass``, with the basis
    evaluated at its k cell centres, after the masses, and on no node."""
    mass = cell_quadrature_mass(basis, g, quad)  # capped before the k x k rows
    return cell_gram(basis.cell_rows(), mass, "quadrature", quad.nodes_per_dim ** basis.d)


def design_quadrature_gram(design: tuple, g) -> GramMatrix:
    """``quadrature_gram`` from a ``node_design``, which several g can share."""
    nodes, w, z = design
    entries = (z * (_density(g, nodes) * w)[:, None]).T @ z
    return _finish(entries, "quadrature", nodes.shape[0])


def quadrature_plan(basis: Basis, quad: QuadratureSpec) -> int:
    """Bytes of a quadrature Gram's working set: the basis on the nodes of
    ``quad``, the k x k Gram and ``eigh``'s eigenvectors of it; a
    ValidationError if they pass ``PLAN_BYTES_MAX``."""
    k, nodes = basis.k, quad.nodes_per_dim ** basis.d
    return _capped(8 * (nodes * k + 2 * k * k),
                   f"quadrature design of {_nodes_of(basis, quad)} with its Gram and eigenvectors")


def cell_plan(basis: Basis, quad: QuadratureSpec | None = None) -> int:
    """Bytes of a cell Gram's working set: the basis at the k cell centres,
    the k x k Gram and ``eigh``'s eigenvectors of it, and with ``quad`` its
    nodes' d coordinates, cell and weight; a ValidationError if they pass
    ``PLAN_BYTES_MAX``."""
    k = basis.k
    if quad is None:
        return _capped(8 * 3 * k * k, f"cell Gram at k={k} with its eigenvectors")
    return _capped(8 * (quad.nodes_per_dim ** basis.d * (basis.d + 2) + 3 * k * k),
                   f"cell quadrature of {_nodes_of(basis, quad)} with its Gram and eigenvectors")


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
            gram=m,
            inverse=None,
            invertible=False,
            condition_number=float("inf"),
            eig_min=eig_min,
            eig_max=eig_max,
        )
    inv = (eigvecs / eigvals) @ eigvecs.T
    return InverseReport(
        gram=m,
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
    nodes, w, z = node_design(basis, quad)
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
    design = node_design(basis, quad)
    rep = invert_checked(design_quadrature_gram(design, g))
    if not rep.invertible:
        raise ValueError("population Gram not invertible at this quadrature")
    nodes, w, z = design
    gv = np.asarray(g(nodes), dtype=float)
    bv = np.asarray(b_err(nodes), dtype=float)
    pv = np.asarray(p_err(nodes), dtype=float)
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
