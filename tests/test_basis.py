import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from hoif.basis import (
    Basis,
    BasisSpec,
    _bspline_knots,
    _bspline_univariate,
    build_basis,
)
from hoif.data import ValidationError
from hoif.gram import population_gram, quadrature_gram
from hoif.quadrature import QuadratureSpec, basis_quadrature
from reference import bspline_partition_values, l2_approximation_error


def uniform(x):
    return np.ones(x.shape[0])


def test_haar_q1_is_constant():
    basis = build_basis(BasisSpec("haar", 1, 1))
    assert basis.k == 1
    np.testing.assert_allclose(basis.evaluate_many([0.3])[0], [1.0])
    np.testing.assert_allclose(basis.evaluate_many([0.0])[0], [1.0])
    np.testing.assert_allclose(basis.evaluate_many([1.0])[0], [1.0])


def test_haar_hand_value_at_quarter():
    # q=4: sqrt(4) times the indicators of [0, 1/4), [1/4, 1/2), [1/2, 3/4)
    # and [3/4, 1]; x=0.25 opens the second cell
    basis = build_basis(BasisSpec("haar", 1, 4))
    vec = basis.evaluate_many([0.25])[0]
    assert np.array_equal(vec, [0.0, 2.0, 0.0, 0.0])


def test_order0_row_sits_in_the_cell_of_cells():
    # at every knot of q <= 64, as the spline grid lays them out (linspace)
    # and as j / q, and at x = 0 and 1, an order-0 row has one nonzero
    # entry, sqrt(q), in the column ``cells`` names; scipy's order-0 design
    # put 196 of the linspace knots in the next cell (q = 7, x = 5/7: cell 4
    # by ``cells``, column 5 in the row)
    for q in range(1, 65):
        basis = BasisSpec("bspline", 1, q)
        xs = np.concatenate([np.linspace(0.0, 1.0, q + 1), np.arange(q + 1) / q])
        rows = basis.evaluate_many(xs)
        assert np.array_equal(np.count_nonzero(rows, axis=1), np.ones(2 * q + 2))
        assert np.array_equal(rows.argmax(axis=1), basis.cells(xs))
        assert np.array_equal(rows.max(axis=1), np.full(2 * q + 2, np.sqrt(q)))


@pytest.mark.parametrize("d,q", [(2, 14), (2, 53), (3, 7)])
def test_order0_uniform_gram_is_the_identity(d, q):
    # the population Gram of an order-0 basis under the uniform density, as
    # basis-inspect builds it: every cell holds the same nodes of the
    # basis's grid, so each eigenvalue is 1 to rounding.  The midpoint grid
    # of 256 nodes per axis gave [0.969, 1.080] at d = 2, q = 14.  Worst
    # seen over these and five other (d, q): half an eps
    basis = BasisSpec("bspline", d, q)
    quad = basis_quadrature(basis)
    assert quad.nodes_per_dim % q == 0
    gram = population_gram(basis, uniform, quad)
    assert np.max(np.abs(gram.entries - 1.0)) <= 4 * np.finfo(float).eps


def test_haar_piecewise_constant_within_cells():
    basis = build_basis(BasisSpec("haar", 1, 8))
    # both points inside the same finest cell [0.25, 0.375)
    a = basis.evaluate_many([0.26])[0]
    b = basis.evaluate_many([0.37])[0]
    np.testing.assert_allclose(a, b)


def test_haar_orthonormal_under_uniform():
    for q, d in ((4, 1), (8, 1), (4, 2)):
        basis = build_basis(BasisSpec("haar", d, q))
        gram = quadrature_gram(basis, uniform, QuadratureSpec(256))
        np.testing.assert_allclose(gram.entries, np.eye(basis.k), atol=1e-10)


def test_bspline_partition_of_unity():
    rng = np.random.default_rng(5)
    xs = rng.random(10**6)
    for q, s in ((4, 1), (6, 2), (8, 3)):
        vals = bspline_partition_values(q, s, xs)
        assert np.max(np.abs(vals - 1.0)) < 1e-12


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda s: st.tuples(st.just(s), st.integers(s + 1, 64))),
       st.lists(st.floats(0.0, 1.0), max_size=60))
def test_bspline_rows_are_scipys_bit_for_bit(order_q, xs):
    # de Boor's recursion in FITPACK's operation order gives the bits of
    # scipy's design matrix, which computed these rows before: at random
    # points, every knot, 0 and 1, and the floats either side of each
    s, q = order_q
    t = _bspline_knots(q, s)
    edges = np.concatenate([t, [0.0, 1.0]])
    xs = np.concatenate([xs, edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
    want = BSpline.design_matrix(np.clip(xs, 0.0, 1.0), t, s).toarray() * np.sqrt(q)
    got = _bspline_univariate(q, s, xs)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_locality_certified():
    for spec in (BasisSpec("haar", 1, 8), BasisSpec("haar", 2, 4),
                 BasisSpec("bspline", 1, 6, order=2),
                 BasisSpec("bspline", 2, 4, order=1)):
        basis = build_basis(spec)
        assert basis.locality_constant > 0
        rng = np.random.default_rng(7)
        pts = rng.random((500, spec.dimension))
        z = basis.evaluate_many(pts)
        norms = np.sum(z * z, axis=1)
        assert np.all(norms <= basis.locality_constant * basis.k + 1e-9)


def test_locality_computed_when_read():
    # a basis is its spec; the constant needs no separate build step
    for spec in (BasisSpec("haar", 2, 4), BasisSpec("bspline", 1, 6, order=2)):
        assert spec.locality_constant == build_basis(spec).locality_constant
        assert build_basis(spec) is spec and Basis is BasisSpec


def test_haar_spec_has_no_order():
    # haar reads no order, so a run that sets one resolves like one that does not
    assert BasisSpec("haar", 1, 4, order=2) == BasisSpec("haar", 1, 4)


def test_haar_locality_is_one():
    basis = build_basis(BasisSpec("haar", 1, 16))
    assert basis.locality_constant == pytest.approx(1.0, abs=1e-12)


def test_tensor_row_major_order():
    basis = build_basis(BasisSpec("haar", 2, 2))
    x = np.array([[0.25, 0.75]])
    u1 = build_basis(BasisSpec("haar", 1, 2)).evaluate_many(x[:, :1])[0]
    u2 = build_basis(BasisSpec("haar", 1, 2)).evaluate_many(x[:, 1:])[0]
    expected = np.array([u1[0] * u2[0], u1[0] * u2[1], u1[1] * u2[0], u1[1] * u2[1]])
    np.testing.assert_allclose(basis.evaluate_many(x)[0], expected)


def test_evaluate_rejects_out_of_range():
    basis = build_basis(BasisSpec("haar", 1, 2))
    with pytest.raises(ValueError):
        basis.evaluate_many([1.5])
    with pytest.raises(ValueError):
        basis.evaluate_many([-0.01])
    for spec in (BasisSpec("haar", 2, 2), BasisSpec("bspline", 2, 4, order=2)):
        with pytest.raises(ValueError, match="coordinates must lie in"):
            build_basis(spec).evaluate_many([[0.5, 0.5], [0.2, np.nan]])


def test_spec_validation():
    # bad input, so exit 2 at the command line, where a bare ValueError exits 4
    with pytest.raises(ValidationError):
        BasisSpec("haar", 1, 3)  # not a power of two
    with pytest.raises(ValidationError):
        BasisSpec("bspline", 1, 2, order=3)  # q < s+1
    with pytest.raises(ValidationError):
        BasisSpec("fourier", 1, 4)
    with pytest.raises(ValidationError, match="exceeds memory cap"):
        build_basis(BasisSpec("haar", 1, 2**18)).locality_constant  # certification grid too large


@pytest.mark.parametrize("args,message", [
    (("haar", 0, 4), "dimension must be >= 1"),
    (("bspline", 1, 0), "per_dim_size must be >= 1"),
    (("haar", 1, 0), "per_dim_size must be >= 1"),
    (("bspline", 1, 4, -1), "bspline order must be >= 0"),
])
def test_spec_below_range_rejected(args, message):
    with pytest.raises(ValidationError, match=message):
        BasisSpec(*args)


def test_evaluate_rejects_a_wrong_coordinate_count():
    # the basis reads the points the pipeline hands it: a mismatch is a
    # fault in the program (ValueError), not bad input
    for spec in (BasisSpec("haar", 2, 2), BasisSpec("bspline", 2, 4, order=1)):
        with pytest.raises(ValueError, match="expected 2 coordinates, got 3"):
            build_basis(spec).evaluate_many(np.full((5, 3), 0.5))
        with pytest.raises(ValueError, match="expected 2 coordinates, got 1"):
            spec.cells(np.full(5, 0.5))


def test_l2_error_zero_in_span():
    basis = build_basis(BasisSpec("haar", 1, 4))

    def f(x):
        return np.where(x[:, 0] < 0.25, 2.0, -1.0)

    err = l2_approximation_error(basis, f, QuadratureSpec(256))
    assert err < 1e-12


def test_l2_error_linear_function_rate():
    # best L2 approx of f(x)=x by q-cell piecewise constants: 1/(12 q^2)
    for q in (2, 4, 8):
        basis = build_basis(BasisSpec("haar", 1, q))
        err = l2_approximation_error(basis, lambda x: x[:, 0], QuadratureSpec(512))
        assert err == pytest.approx(1.0 / (12.0 * q * q), rel=1e-3)


def _haar_holder(beta: float, levels: int = 9):
    # truncated Haar series with coefficients 2^{-j(beta+1/2)}: the squared
    # best-approximation error at resolution 2^a is exactly sum_{j>=a} 4^{-j beta}
    signs = [np.where(np.random.default_rng(100 + j).random(2**j) < 0.5, -1.0, 1.0)
             for j in range(levels)]

    def f(x):
        t = np.clip(x[:, 0], 0.0, np.nextafter(1.0, 0.0))
        out = np.zeros_like(t)
        for j in range(levels):
            scaled = t * 2**j
            m = np.floor(scaled).astype(np.int64)
            sign = np.where(scaled - m < 0.5, 1.0, -1.0)
            out += 2.0 ** (-j * beta) * sign * signs[j][m]
        return out

    return f


def _cosine_holder(beta: float, levels: int = 11):
    # Weierstrass-type dyadic series: uniformly Hoelder(beta), saturating
    # the k^{-2 beta} squared approximation rate (a point kink would not)
    def f(x):
        t = x[:, 0]
        out = np.zeros_like(t)
        for j in range(levels):
            out += 2.0 ** (-j * beta) * np.cos(2.0 * np.pi * 2**j * t)
        return out

    return f


@pytest.mark.parametrize("family,order,beta,qs,nodes", [
    ("haar", 0, 0.5, (4, 8, 16, 32), 1024),
    ("haar", 0, 1.0, (4, 8, 16, 32), 1024),
    ("bspline", 2, 1.5, (16, 32, 64, 128), 8192),
    ("bspline", 3, 2.5, (16, 32, 64, 128), 8192),
])
def test_approximation_rate_slope(family, order, beta, qs, nodes):
    f = _haar_holder(beta) if family == "haar" else _cosine_holder(beta)
    errs = []
    for q in qs:
        spec = BasisSpec(family, 1, q, order=order)
        errs.append(l2_approximation_error(build_basis(spec), f,
                                           QuadratureSpec(nodes)))
    ks = np.log([float(q) for q in qs])
    slope = np.polyfit(ks, np.log(errs), 1)[0]
    assert slope == pytest.approx(-2.0 * beta, abs=0.25)
