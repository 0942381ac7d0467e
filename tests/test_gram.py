import numpy as np
import pytest

from hoif.basis import BasisSpec, build_basis
from hoif.data import Dataset, ValidationError
from hoif.functionals import expected_cond_cov_spec, mar_mean_spec
from hoif.gram import (
    GramMatrix,
    empirical_gram,
    invert_checked,
    load_gram,
    op_norm_distance,
    project,
    projection_coefficients,
    quadrature_gram,
    save_gram,
    truncation_bias,
)
from hoif.quadrature import QuadratureSpec

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


def test_quadrature_gram_uniform_identity():
    basis = build_basis(BasisSpec("haar", 1, 8))
    gram = quadrature_gram(basis, uniform, QUAD)
    np.testing.assert_allclose(gram.entries, np.eye(8), atol=1e-10)


def test_quadrature_gram_linear_density():
    basis = build_basis(BasisSpec("haar", 1, 1))
    gram = quadrature_gram(basis, lambda x: 2.0 * x[:, 0], QUAD)
    np.testing.assert_allclose(gram.entries, [[1.0]], atol=1e-12)


def test_quadrature_gram_haar2_linear_density():
    # closed-form: Omega = [[1, -1/2], [-1/2, 1]] for g(x)=2x
    basis = build_basis(BasisSpec("haar", 1, 2))
    gram = quadrature_gram(basis, lambda x: 2.0 * x[:, 0], QUAD)
    np.testing.assert_allclose(gram.entries, [[1.0, -0.5], [-0.5, 1.0]], atol=1e-12)


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
    with pytest.raises(ValueError):
        path2 = tmp_path / "bad.bin"
        path2.write_bytes(b"NOTAGRAM" + bytes(16))
        load_gram(path2)
