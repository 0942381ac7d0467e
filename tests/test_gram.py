import tracemalloc

import numpy as np
import pytest

from hoif import basis as basis_module
from hoif import gram as gram_module
from hoif import quadrature as quadrature_module
from hoif import ustat
from hoif.basis import BasisSpec, build_basis
from hoif.data import Dataset, ValidationError
from hoif.functionals import expected_cond_cov_spec, mar_mean_spec
from hoif.gram import (
    GramMatrix,
    empirical_gram,
    invert_checked,
    load_gram,
    node_rows,
    op_norm_distance,
    population_gram,
    project,
    projection_coefficients,
    quadrature_gram,
    save_gram,
    truncation_bias,
    weighted_gram,
)
from hoif.quadrature import QuadratureSpec, basis_quadrature
from hoif.ustat import run_plan

QUAD = QuadratureSpec(256)


def uniform(x):
    return np.ones(x.shape[0])


def make_data(x, a=None, y=None):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    a = np.ones(n) if a is None else np.asarray(a, dtype=float)
    y = np.zeros(n) if y is None else np.asarray(y, dtype=float)
    return Dataset(x, a, y)


def test_empirical_gram_constant_basis():
    basis = build_basis(BasisSpec("haar", 1, 1))
    data = make_data([0.1, 0.5, 0.9], a=[1, 1, 1])
    gram = empirical_gram(basis, data, expected_cond_cov_spec())
    np.testing.assert_allclose(gram.entries, [[1.0]])


def test_empirical_gram_mar_weights():
    # |h1| = A, A-values (1, 0, 1, 1) -> average weight 0.75
    basis = build_basis(BasisSpec("haar", 1, 1))
    data = make_data([0.1, 0.3, 0.5, 0.7], a=[1, 0, 1, 1])
    gram = empirical_gram(basis, data, mar_mean_spec())
    np.testing.assert_allclose(gram.entries, [[0.75]])


def test_empirical_gram_outer_products():
    basis = build_basis(BasisSpec("haar", 1, 2))
    data = make_data([0.25, 0.75])
    z = basis.evaluate_many(data.x)
    expected = (np.outer(z[0], z[0]) + np.outer(z[1], z[1])) / 2.0
    gram = empirical_gram(basis, data, expected_cond_cov_spec())
    np.testing.assert_allclose(gram.entries, expected)


def test_empirical_gram_permutation_invariant():
    basis = build_basis(BasisSpec("haar", 1, 4))
    rng = np.random.default_rng(3)
    x = rng.random(50)
    data = make_data(x, a=rng.integers(0, 2, 50))
    perm = rng.permutation(50)
    g1 = empirical_gram(basis, data, mar_mean_spec())
    g2 = empirical_gram(basis, data.subset(perm), mar_mean_spec())
    np.testing.assert_allclose(g1.entries, g2.entries, atol=1e-14)


def test_empirical_gram_rejects_empty():
    basis = build_basis(BasisSpec("haar", 1, 1))
    with pytest.raises(ValidationError):
        empirical_gram(basis, make_data(np.empty((0, 1))), mar_mean_spec())


def test_empirical_gram_rejects_non_finite_weight():
    basis = build_basis(BasisSpec("haar", 1, 2))
    data = make_data([0.2, 0.7, 0.9], a=[1.0, np.nan, 0.0])
    with pytest.raises(ValidationError, match="non-finite h1 value in data"):
        empirical_gram(basis, data, mar_mean_spec())


def test_quadrature_gram_rejects_negative_density():
    # the density is the program's own (scenario or fitted), so a negative
    # value is a fault in the program, not bad input
    basis = build_basis(BasisSpec("haar", 1, 2))
    with pytest.raises(ValueError, match="density must be nonnegative") as err:
        quadrature_gram(basis, lambda x: 1.0 - 2.0 * x[:, 0], QUAD)
    assert not isinstance(err.value, ValidationError)


def test_quadrature_gram_uniform_identity():
    basis = build_basis(BasisSpec("haar", 1, 8))
    gram = quadrature_gram(basis, uniform, QUAD)
    np.testing.assert_allclose(gram.entries, np.eye(8), atol=1e-10)


def test_quadrature_gram_linear_density():
    basis = build_basis(BasisSpec("haar", 1, 1))
    gram = quadrature_gram(basis, lambda x: 2.0 * x[:, 0], QUAD)
    np.testing.assert_allclose(gram.entries, [[1.0]], atol=1e-12)


def test_quadrature_gram_haar2_linear_density():
    # closed-form: the rows are sqrt(2) times the indicators of the halves,
    # so Omega = diag(2 * 1/4, 2 * 3/4) for g(x)=2x
    basis = build_basis(BasisSpec("haar", 1, 2))
    gram = quadrature_gram(basis, lambda x: 2.0 * x[:, 0], QUAD)
    np.testing.assert_allclose(gram.entries, [[0.5, 0.0], [0.0, 1.5]], atol=1e-12)


@pytest.mark.parametrize("k", [196, 343, 1000, 64])
def test_cell_gram_holds_its_masses_within_one_ulp(k):
    # a cell Gram holds k * m, and the cell route reads entries / k as the
    # masses m: at any k that is m to within one ulp, and at a power-of-two
    # k exactly.  At k = 196, 24 of the 196 masses came back one ulp off on
    # one draw
    basis = BasisSpec("bspline", 1, k)
    rng = np.random.default_rng(k)
    for _ in range(20):
        n = 20 * k
        cells, w = rng.integers(0, k, n), rng.random(n)
        mass = np.bincount(cells, w, k) / n
        back = weighted_gram(basis, cells, w, "empirical").entries / k
        assert np.all(np.abs(back - mass) <= np.spacing(mass))
        if k & (k - 1) == 0:
            assert np.array_equal(back, mass)


def test_fine_basis_needs_a_fine_enough_grid():
    # a caller's own grid coarser than the basis is refused; the basis's
    # grid rule picks one node per finest cell, where the Gram is exact
    basis = build_basis(BasisSpec("haar", 1, 512))
    with pytest.raises(ValidationError, match="quadrature node count below basis resolution"):
        quadrature_gram(basis, uniform, QUAD)
    gram = quadrature_gram(basis, uniform, basis_quadrature(basis))
    np.testing.assert_allclose(gram.entries, np.eye(512), atol=1e-10)


def test_over_budget_node_design_refused_before_building(monkeypatch):
    # 256 nodes of d = 1 at k = 8: per node a row of 8, its weighted copy, a
    # coordinate, cell and weight, and a k x k Gram with its eigenvectors, of
    # float64, take 8 * (256 * 19 + 128) = 39936 bytes; a Haar basis's rows
    # are planned as rows, not as cells
    basis = build_basis(BasisSpec("haar", 1, 8))
    monkeypatch.setattr(ustat, "PLAN_BYTES_MAX", 39936)
    assert node_rows(basis, QUAD)[2].shape == (256, 8)
    monkeypatch.setattr(ustat, "PLAN_BYTES_MAX", 39935)
    monkeypatch.setattr(BasisSpec, "evaluate_many", lambda self, x: pytest.fail("evaluated"))
    monkeypatch.setattr(QuadratureSpec, "grid", lambda self, d: pytest.fail("grid built"))
    with pytest.raises(ValidationError, match="the tensor route at k=8 plans a peak of 39936 "
                                              "bytes, over the cap of 39935; its largest group, "
                                              "the node grid, takes 38912 bytes"):
        node_rows(basis, QUAD)
    with pytest.raises(ValidationError, match="plans a peak of 39936 bytes"):
        quadrature_gram(basis, uniform, QUAD)


def test_weighted_gram_of_cells_equals_that_of_rows():
    # a Haar design of cells and the basis rows at the same points give one
    # Gram, under a training measure (|h1| at records) and under a quadrature
    # measure (a density at the nodes)
    basis = build_basis(BasisSpec("haar", 2, 4))
    rng = np.random.default_rng(5)
    data = make_data(rng.random((400, 2)), a=rng.integers(0, 2, 400))
    nodes, _ = QUAD.grid(2)
    for pts, weights, source in ((data.x, mar_mean_spec().abs_h1(data), "empirical"),
                                 (nodes, 0.5 + nodes[:, 0] * nodes[:, 1], "quadrature")):
        cells = weighted_gram(basis, basis.design(pts), weights, source)
        rows = weighted_gram(basis, basis.evaluate_many(pts), weights, source)
        assert (cells.entries.shape, rows.entries.shape) == ((basis.k,), (basis.k, basis.k))
        assert (cells.source, cells.n_used) == (rows.source, rows.n_used) == (source, len(pts))
        assert op_norm_distance(cells, rows) <= 1e-13


def test_population_gram_of_haar_evaluates_no_node(monkeypatch):
    basis = build_basis(BasisSpec("haar", 2, 4))
    g = lambda x: 0.5 + x[:, 0] * x[:, 1]
    monkeypatch.setattr(BasisSpec, "evaluate_many", lambda self, x: pytest.fail("evaluated"))
    gram = population_gram(basis, g, QUAD)
    assert (gram.entries.shape, gram.source, gram.n_used) == ((16,), "quadrature", 256 ** 2)
    # over the cap, the plan refuses before the grid is built
    planned = run_plan(16, 2, design=256**2, grid=True, cells=True).peak
    monkeypatch.setattr(ustat, "PLAN_BYTES_MAX", planned - 1)
    monkeypatch.setattr(QuadratureSpec, "grid", lambda self, d: pytest.fail("grid built"))
    with pytest.raises(ValidationError, match=f"the cell route at k=16 plans a peak of {planned} "
                                              "bytes, over the cap.*the node grid"):
        population_gram(basis, g, QUAD)
    monkeypatch.undo()
    assert op_norm_distance(gram, quadrature_gram(basis, g, QUAD)) <= 1e-13


@pytest.mark.parametrize("spec,q", [(BasisSpec("bspline", 2, 16, order=2), 128),
                                    (BasisSpec("haar", 3, 16), 64),
                                    (BasisSpec("bspline", 2, 8, order=2), None)],
                         ids=["rows", "cells", "emp rows"])
def test_traced_peak_within_the_gram_plan(spec, q):
    # the plan bounds a Gram and its inversion: a population Gram from a cold
    # grid cache, or with no grid the empirical Gram of 20000 training
    # records.  Rows: the design of the nodes or records and weighted_gram's
    # weighted copy of it, which took the peak to 2.0 times a plan without
    # the copy (read at 256^2 nodes); cells: the grid's gather and the
    # temporaries of ``cells``, which took it to 1.64 times a plan of d + 2
    # doubles per node
    if q is None:
        data = make_data(np.random.default_rng(3).random((20000, 2)))
        build = lambda: empirical_gram(spec, data, mar_mean_spec())
        planned = run_plan(spec.k, spec.d, design=data.n).peak
    else:
        quad = QuadratureSpec(q)
        g = lambda x: 0.5 + x[:, 0] * x[:, -1]
        build = lambda: population_gram(spec, g, quad)
        planned = run_plan(spec.k, spec.d, design=q**spec.d, grid=True, cells=spec.cellwise).peak
    build()  # imports and first-call caches
    quadrature_module._grid_cached.cache_clear()
    tracemalloc.start()
    try:
        invert_checked(build())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= planned


def test_invert_checked_identity():
    gram = quadrature_gram(build_basis(BasisSpec("haar", 1, 4)), uniform, QUAD)
    rep = invert_checked(gram)
    assert rep.invertible
    np.testing.assert_allclose(rep.inverse, np.eye(4), atol=1e-10)
    assert rep.condition_number == pytest.approx(1.0, abs=1e-9)


def test_invert_checked_floor():
    m = GramMatrix(np.diag([1.0, 1e-12]), "quadrature", 0)
    rep = invert_checked(m, eigen_floor=1e-8)
    assert not rep.invertible
    assert rep.inverse is None
    assert rep.condition_number == np.inf


def test_invert_checked_residual():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5))
    m = GramMatrix(a @ a.T + np.eye(5), "quadrature", 0)
    rep = invert_checked(m)
    resid = np.max(np.abs(m.entries @ rep.inverse - np.eye(5)))
    assert resid < 1e-8


def test_op_norm_distance():
    eye = GramMatrix(np.eye(3), "quadrature", 0)
    two = GramMatrix(2.0 * np.eye(3), "quadrature", 0)
    assert op_norm_distance(eye, eye) == 0.0
    assert op_norm_distance(eye, two) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        op_norm_distance(eye, GramMatrix(np.eye(2), "quadrature", 0))


@pytest.mark.parametrize("q", [8, 32], ids=["k64", "k1024"])
def test_cell_gram_matches_the_dense_path(q):
    # a cell Gram read from its eigenvalues k * mass against eigh and eigvalsh
    # of the dense B^T diag(mass) B from the cell rows, at d = 2.  Bounds,
    # relative: 1e-12 on eig_min and the condition number, 1e-14 on eig_max,
    # 1e-13 on the distances; worst seen over ten draws of each size: 3.1e-15
    # (eig_min), 2.9e-15 (condition number), 4.4e-16 (eig_max) and 4.6e-15
    basis = build_basis(BasisSpec("haar", 2, q))
    rows, k = node_rows(basis, QuadratureSpec(basis.per_dim_size))[2], basis.k
    rng = np.random.default_rng(q)
    masses = [np.bincount(basis.cells(rng.random((20 * k, 2))), rng.random(20 * k), k) / (20 * k)
              for _ in range(2)]
    empty = masses[0].copy()
    empty[k // 3] = 0.0
    cells = [weighted_gram(basis, np.arange(k), m * k, "empirical") for m in masses + [empty]]
    denses = [GramMatrix((rows.T * m) @ rows, "empirical", 20 * k) for m in masses + [empty]]
    for floor in (0.0, 1e-8):
        for cell, dense in zip(cells[:2], denses):
            rc, rd = invert_checked(cell, floor), invert_checked(dense, floor)
            assert rc.invertible and rd.invertible and rc.inverse is None
            assert rc.eig_min == pytest.approx(rd.eig_min, rel=1e-12, abs=0.0)
            assert rc.eig_max == pytest.approx(rd.eig_max, rel=1e-14, abs=0.0)
            assert rc.condition_number == pytest.approx(rd.condition_number, rel=1e-12, abs=0.0)
        # the empty cell is the eigenvalue 0, which fails every floor; the
        # dense eigh rounds it to either sign, so its verdict holds at 1e-8 only
        rc = invert_checked(cells[2], floor)
        assert (rc.invertible, rc.eig_min, rc.condition_number) == (False, 0.0, np.inf)
    assert not invert_checked(denses[2], 1e-8).invertible
    want = op_norm_distance(denses[0], denses[1])
    assert op_norm_distance(cells[0], cells[1]) == pytest.approx(want, rel=1e-13, abs=0.0)
    # a (k,) cell Gram against a (k, k) one is the dense-dense distance,
    # never a broadcast of the vector against the matrix
    for mixed in (op_norm_distance(cells[0], denses[1]), op_norm_distance(denses[0], cells[1])):
        assert mixed == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("d,q", [(1, 8), (2, 8), (2, 32), (3, 4)])
def test_dense_view_of_a_cell_gram_bit_for_bit(tmp_path, d, q):
    # the (k, k) matrix of a cell Gram, as op_norm_distance and save_gram read
    # it, is bit for bit the diagonal matrix of its entries: B^T diag(entries / k) B
    # for its cell rows B = sqrt(k) I, with no rounding of the row product
    basis = build_basis(BasisSpec("haar", d, q))
    rng = np.random.default_rng(q + d)
    n = 20 * basis.k
    gram = weighted_gram(basis, basis.cells(rng.random((n, d))), rng.random(n), "empirical")
    want = np.diag(gram.entries)
    assert np.array_equal(gram_module._dense(gram), want)
    save_gram(gram, tmp_path / "gram.bin")
    assert (tmp_path / "gram.bin").read_bytes()[16:-8] == want.astype("<f8").tobytes()
    assert np.array_equal(load_gram(tmp_path / "gram.bin").entries, want)


def test_dense_view_of_a_large_cell_gram_evaluates_nothing(tmp_path, monkeypatch):
    # at d = 2, q = 64 (k = 4096) the dense view is np.diag of the entries:
    # save_gram and a mixed op_norm_distance read it with no basis value and
    # no cell lookup, where the cell rows at the k cell centres and their
    # k x k product took about 2.9 s and a 402.7 MB traced peak to write 134 MB
    basis = build_basis(BasisSpec("haar", 2, 64))
    k, rng = basis.k, np.random.default_rng(64)
    gram = weighted_gram(basis, basis.cells(rng.random((4 * k, 2))), rng.random(4 * k),
                         "empirical")
    monkeypatch.setattr(BasisSpec, "evaluate_many", lambda *a: pytest.fail("evaluated"))
    monkeypatch.setattr(basis_module, "_axis_cells", lambda *a: pytest.fail("cells found"))
    tracemalloc.start()
    try:
        save_gram(gram, tmp_path / "gram.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * k * k
    view = np.diag(gram.entries)
    assert (tmp_path / "gram.bin").read_bytes()[16:-8] == view.astype("<f8").tobytes()
    del view

    def eigvalsh(a):  # the difference is diagonal: its eigenvalues without an 8 s eigvalsh
        assert a.shape == (k, k) and np.count_nonzero(a - np.diag(np.diagonal(a))) == 0
        return np.sort(np.diagonal(a))

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    eye = GramMatrix(np.eye(k), "quadrature", 0)
    want = float(np.max(np.abs(gram.entries - 1.0)))
    assert op_norm_distance(gram, eye) == op_norm_distance(eye, gram) == want


def test_op_norm_triangle_inequality():
    rng = np.random.default_rng(21)
    for _ in range(20):
        mats = []
        for _ in range(3):
            a = rng.normal(size=(4, 4))
            m = 0.5 * (a + a.T)
            mats.append(GramMatrix(m, "quadrature", 0))
        ab = op_norm_distance(mats[0], mats[1])
        bc = op_norm_distance(mats[1], mats[2])
        ac = op_norm_distance(mats[0], mats[2])
        assert ac <= ab + bc + 1e-12


@pytest.mark.parametrize("g", [uniform, lambda x: 0.6 + 0.8 * x[:, 0]])
def test_projection_reproduces_span_and_idempotent(g):
    basis = build_basis(BasisSpec("haar", 1, 16))
    gram = quadrature_gram(basis, g, QUAD)
    m_inv = invert_checked(gram).inverse
    nodes, _ = QUAD.grid(1)
    z = basis.evaluate_many(nodes)
    for l in (0, 3, 15):
        proj = project(basis, m_inv, g, lambda x, l=l: basis.evaluate_many(x)[:, l], QUAD)
        np.testing.assert_allclose(proj(nodes), z[:, l], atol=1e-8)
    h = lambda x: np.sin(3.0 * x[:, 0])
    p1 = project(basis, m_inv, g, h, QUAD)
    p2 = project(basis, m_inv, g, lambda x: p1(x), QUAD)
    np.testing.assert_allclose(p1(nodes), p2(nodes), atol=1e-8)


def test_projection_annihilates_orthogonal_part():
    basis = build_basis(BasisSpec("haar", 1, 4))
    gram = quadrature_gram(basis, uniform, QUAD)
    m_inv = invert_checked(gram).inverse

    def h(x):
        # residual of x after its own projection: orthogonal to the span
        coef = projection_coefficients(basis, m_inv, uniform,
                                       lambda p: p[:, 0], QUAD)
        return x[:, 0] - basis.evaluate_many(x) @ coef

    nodes, _ = QUAD.grid(1)
    proj = project(basis, m_inv, uniform, h, QUAD)
    np.testing.assert_allclose(proj(nodes), np.zeros(nodes.shape[0]), atol=1e-8)


def test_truncation_bias_zero_cases():
    basis = build_basis(BasisSpec("haar", 1, 4))
    in_span = lambda x: np.where(x[:, 0] < 0.25, 1.0, 3.0)
    off_span = lambda x: x[:, 0]
    zero = lambda x: np.zeros(x.shape[0])
    assert truncation_bias(basis, uniform, in_span, off_span, QUAD) == pytest.approx(0.0, abs=1e-12)
    assert truncation_bias(basis, uniform, off_span, zero, QUAD) == pytest.approx(0.0, abs=1e-15)


def test_truncation_bias_evaluates_the_grid_once(monkeypatch):
    # the population Gram and the projection moments share one node design
    basis = build_basis(BasisSpec("haar", 1, 4))
    f = lambda x: x[:, 0]
    expected = truncation_bias(basis, uniform, f, f, QUAD)
    calls = []
    original = BasisSpec.evaluate_many
    monkeypatch.setattr(BasisSpec, "evaluate_many",
                        lambda self, x: calls.append(len(x)) or original(self, x))
    assert truncation_bias(basis, uniform, f, f, QUAD) == expected
    assert calls == [256]


def test_truncation_bias_closed_form_and_sign():
    # with b_err = p_err = x under uniform g and q cells, TB equals the
    # squared approximation error 1/(12 q^2)
    basis = build_basis(BasisSpec("haar", 1, 4))
    f = lambda x: x[:, 0]
    tb = truncation_bias(basis, uniform, f, f, QUAD)
    assert tb == pytest.approx(1.0 / (12.0 * 16.0), rel=1e-3)
    flipped = truncation_bias(basis, uniform, f, f, QUAD, sign_flag=True)
    assert flipped == pytest.approx(-tb)


def test_gram_save_load_roundtrip(tmp_path):
    basis = build_basis(BasisSpec("haar", 1, 4))
    data = make_data(np.random.default_rng(2).random(20))
    gram = empirical_gram(basis, data, expected_cond_cov_spec())
    path = tmp_path / "gram.bin"
    save_gram(gram, path)
    back = load_gram(path)
    np.testing.assert_array_equal(back.entries, gram.entries)
    assert back.source == "empirical"
    assert back.n_used == 20
    # a cell Gram is written as its dense matrix: empirical_gram's, up to rounding
    weights = expected_cond_cov_spec().abs_h1(data)
    save_gram(weighted_gram(basis, basis.design(data.x), weights, "empirical"), path)
    np.testing.assert_allclose(load_gram(path).entries, gram.entries, rtol=0.0, atol=1e-15)
    with pytest.raises(ValueError):
        path2 = tmp_path / "bad.bin"
        path2.write_bytes(b"NOTAGRAM" + bytes(16))
        load_gram(path2)
