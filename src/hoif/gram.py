"""Gram matrices, checked inversion, projections and truncation bias.

Every Gram is (1/n) sum_i w_i z_i z_i^T over the n points of a design, and
``weighted_gram`` builds it: over the training records with w = |h1|, the
empirical Gram (the main path, which needs no density estimate); over the
nodes of a midpoint grid with w a density, the quadrature Gram of the true
weighted density g (``population_gram``) or of an estimate of it (the
density-based comparison path).  A design (``BasisSpec.design``) is the
basis's (n, k) rows, or for a cellwise (order-0) basis each point's cell: its
cell rows B are sqrt(k) times the identity, so B^T diag(m_c) B is the
diagonal matrix of k m_c, and a cell design's Gram holds that diagonal
alone, m_c the per-cell sum of w / n.
Every Gram's working set is planned (``ustat.run_plan``) before it is built.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from hoif.basis import BasisSpec
from hoif.data import Dataset, ValidationError, writing
from hoif.functionals import FunctionalSpec
from hoif.quadrature import QuadratureSpec
from hoif.ustat import run_plan

DEFAULT_EIGEN_FLOOR = 1e-8

_SOURCE_TAGS = {"empirical": 1, "quadrature": 2}
_TAG_SOURCES = {v: k for k, v in _SOURCE_TAGS.items()}
_MAGIC = b"HOIFGRAM"


@dataclass(frozen=True)
class GramMatrix:
    entries: np.ndarray  # (k, k) symmetric; of a cell Gram, its (k,) diagonal
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


def weighted_gram(basis: BasisSpec, design: np.ndarray, weights: np.ndarray,
                  source: str) -> GramMatrix:
    """(1/n) sum_i w_i z_i z_i^T over the n points of ``design``
    (``BasisSpec.design``): the dense matrix for a design of (n, k) rows; for
    a design of cells, the diagonal k * m of B^T diag(m) B, m the per-cell
    sums over n and B the cell rows: entries / k is m to within one ulp, and
    exactly m when k is a power of two."""
    n = design.shape[0]
    if design.ndim == 1:
        return GramMatrix(basis.k * (np.bincount(design, weights, basis.k) / n), source, n)
    return _finish((design * weights[:, None]).T @ design / n, source, n)


def empirical_gram(basis: BasisSpec, training: Dataset, spec: FunctionalSpec) -> GramMatrix:
    """Training-sample average of |h1|-weighted basis outer products."""
    return weighted_gram(basis, basis.evaluate_many(training.x), spec.abs_h1(training),
                         "empirical")


def _dense(m: GramMatrix) -> np.ndarray:
    """The (k, k) matrix of ``m``; a cell Gram's is the diagonal matrix of its
    entries, planned (``ustat.run_plan``) as the one k x k array it is."""
    if m.entries.ndim == 2:
        return m.entries
    run_plan(m.k, cells=True, dense=True)
    return np.diag(m.entries)


def _grid(basis: BasisSpec, quad: QuadratureSpec, cells: bool = False) -> tuple:
    """The nodes and cell weight of ``quad``, no coarser than the basis, once planned."""
    if quad.nodes_per_dim < basis.per_dim_size:
        raise ValidationError("quadrature node count below basis resolution")
    run_plan(basis.k, basis.d, design=quad.nodes_per_dim ** basis.d, grid=True, cells=cells)
    return quad.grid(basis.d)


def node_rows(basis: BasisSpec, quad: QuadratureSpec) -> tuple[np.ndarray, float, np.ndarray]:
    """Nodes, cell weight and basis values of the rule ``quad`` (``_grid``)."""
    nodes, w = _grid(basis, quad)
    return nodes, w, basis.evaluate_many(nodes)


def quadrature_gram(basis: BasisSpec, g, quad: QuadratureSpec) -> GramMatrix:
    """Quadrature of the g-weighted outer product of basis evaluations."""
    nodes, _, z = node_rows(basis, quad)
    return weighted_gram(basis, z, _density(g, nodes), "quadrature")


def _density(g, nodes: np.ndarray) -> np.ndarray:
    gv = np.asarray(g(nodes), dtype=float)
    if np.any(gv < 0):
        raise ValueError("density must be nonnegative")
    return gv


def population_gram(basis: BasisSpec, g, quad: QuadratureSpec) -> GramMatrix:
    """The quadrature Gram of the density g over the design (``BasisSpec.design``)
    of the nodes of ``quad`` (``_grid``): for a cellwise basis, their cells, no
    basis value."""
    nodes, _ = _grid(basis, quad, basis.cellwise)
    return weighted_gram(basis, basis.design(nodes), _density(g, nodes), "quadrature")


def invert_checked(m: GramMatrix, eigen_floor: float = DEFAULT_EIGEN_FLOOR) -> InverseReport:
    """Symmetric inverse with an invertibility verdict.

    The matrix counts as non-invertible when its smallest eigenvalue falls
    at or below ``eigen_floor`` relative to the largest eigenvalue.  The
    verdict is a value, not an error: the estimator convention maps it to
    a zero estimate.  A cell Gram is judged on its diagonal, its eigenvalues
    (an empty cell's 0 fails every floor), and has no inverse: ``cell_terms``
    reads its masses.
    """
    eigvals, eigvecs = np.linalg.eigh(m.entries) if m.entries.ndim == 2 else (m.entries, None)
    eig_min, eig_max = float(eigvals.min()), float(eigvals.max())
    floor = eigen_floor * max(eig_max, 0.0)
    invertible = not (eig_min <= floor or eig_max <= 0.0)
    inverse = None
    if invertible and eigvecs is not None:
        inv = (eigvecs / eigvals) @ eigvecs.T
        inverse = 0.5 * (inv + inv.T)
    return InverseReport(
        gram=m,
        inverse=inverse,
        invertible=invertible,
        condition_number=eig_max / eig_min if invertible else float("inf"),
        eig_min=eig_min,
        eig_max=eig_max,
    )


def op_norm_distance(amat: GramMatrix, bmat: GramMatrix) -> float:
    """Operator-norm distance between two symmetric matrices; between two
    cell Grams, diagonal matrices, the largest difference of their entries."""
    if amat.k != bmat.k:
        raise ValueError("shape mismatch")
    if amat.entries.ndim == bmat.entries.ndim == 1:
        return float(np.max(np.abs(amat.entries - bmat.entries)))
    return float(np.max(np.abs(np.linalg.eigvalsh(_dense(amat) - _dense(bmat)))))


def projection_coefficients(basis: BasisSpec, m_inv: np.ndarray, g, h,
                            quad: QuadratureSpec) -> np.ndarray:
    """Coefficients of the L2(g)-projection of h onto the basis span."""
    nodes, w, z = node_rows(basis, quad)
    gv = np.asarray(g(nodes), dtype=float)
    hv = np.asarray(h(nodes), dtype=float)
    moments = z.T @ (gv * hv * w)
    return m_inv @ moments


def project(basis: BasisSpec, m_inv: np.ndarray, g, h, quad: QuadratureSpec):
    """Return the L2(g)-orthogonal projection of h onto the basis span.

    ``m_inv`` must be the inverse of ``quadrature_gram(basis, g, quad)``.
    The result is a function of an (n, d) point array.
    """
    coef = projection_coefficients(basis, m_inv, g, h, quad)

    def projected(x):
        return basis.evaluate_many(np.asarray(x)) @ coef

    return projected


def truncation_bias(basis: BasisSpec, g, b_err, p_err, quad: QuadratureSpec,
                    sign_flag: bool = False) -> float:
    """Signed integral of g times the off-span parts of the nuisance errors.

    Computes sign * int g (I - P)[b_err] (I - P)[p_err] dx where P is the
    L2(g)-projection onto the basis span and sign = (-1)**I(h1 <= 0).
    Simulation-only: requires the error functions themselves.
    """
    nodes, w, z = node_rows(basis, quad)
    gv = _density(g, nodes)
    rep = invert_checked(weighted_gram(basis, z, gv, "quadrature"))
    if not rep.invertible:
        raise ValueError("population Gram not invertible at this quadrature")
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
    little-endian float64 entries in row-major order; a cell Gram's dense view
    (``_dense``) is planned and built before the file is opened."""
    view = np.ascontiguousarray(_dense(m), dtype="<f8")
    with writing(path), open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", m.k, _SOURCE_TAGS[m.source]))
        view.tofile(fh)
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
