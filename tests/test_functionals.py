import numpy as np
import pytest

from hoif.data import Dataset, ValidationError
from hoif.functionals import (
    ate_spec,
    expected_cond_cov_spec,
    h_values,
    mar_mean_spec,
    residuals,
)
from hoif.quadrature import QuadratureSpec, integrate
from hoif.sim import SCENARIOS, generate, true_psi


def make_data(a, y, x=None):
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    if x is None:
        x = np.linspace(0.1, 0.9, len(a))[:, None]
    return Dataset(np.asarray(x, dtype=float), a, y)


def test_mar_mean_h_values_per_record():
    spec = mar_mean_spec()
    data = make_data(a=[0, 1], y=[0, 1])
    assert spec.h1(data).tolist() == [0.0, -1.0]
    assert spec.h2(data).tolist() == [1.0, 1.0]
    assert spec.h3(data).tolist() == [0.0, 1.0]
    assert spec.h4(data).tolist() == [0.0, 0.0]
    assert spec.sign_flag and spec.sign() == -1.0


def test_ecc_spec_quadruple():
    spec = expected_cond_cov_spec()
    data = make_data(a=[1], y=[2])
    assert spec.h1(data).tolist() == [1.0]
    assert spec.h2(data).tolist() == [-1.0]
    assert spec.h3(data).tolist() == [-2.0]
    assert spec.h4(data).tolist() == [2.0]
    assert not spec.sign_flag and spec.sign() == 1.0


def test_ate_spec_pair():
    arm1, arm0 = ate_spec()
    data = make_data(a=[0, 1], y=[3, 5])
    assert arm1.h1(data).tolist() == [0.0, -1.0]
    assert arm0.h1(data).tolist() == [-1.0, 0.0]
    assert arm0.h3(data).tolist() == [3.0, 0.0]


def test_h1_sign_check():
    spec = mar_mean_spec()
    good = make_data(a=[0, 1, 1], y=[0, 1, 0])
    spec.check_h1_sign(good)
    bad = Dataset(good.x, np.array([-1.0, 1.0, 0.0]), good.y)
    with pytest.raises(ValidationError):
        spec.check_h1_sign(bad)


def test_residual_formulas_mar():
    spec = mar_mean_spec()
    data = make_data(a=[1, 0], y=[0.7, 0.0])
    # zero nuisances: eps_b = AY, eps_p = 1
    res = residuals(spec, data, np.zeros(2), np.zeros(2))
    np.testing.assert_allclose(res.eps_b, [0.7, 0.0])
    np.testing.assert_allclose(res.eps_p, [1.0, 1.0])
    np.testing.assert_allclose(res.abs_h1, [1.0, 0.0])
    # true b: eps_b = A(Y - b(X)) up to the h1 sign
    res = residuals(spec, data, np.full(2, 0.5), np.zeros(2))
    np.testing.assert_allclose(res.eps_b, [0.7 - 0.5, 0.0])


def test_h_values_mar_closed_form():
    spec = mar_mean_spec()
    data = make_data(a=[1, 0], y=[1.0, 0.0])
    # H = A p (Y - b) + b
    np.testing.assert_allclose(h_values(spec, data, np.full(2, 0.25), np.full(2, 2.0)),
                               [2.0 * 0.75 + 0.25, 0.25])


def test_non_finite_nuisance_rejected():
    spec = mar_mean_spec()
    data = make_data(a=[1], y=[1])
    bad = np.full(1, np.nan)
    with pytest.raises(ValidationError):
        residuals(spec, data, bad, bad)


@pytest.mark.parametrize("sid", ["s1-smooth-d1", "s2-smooth-d2", "s5-ecc-indep"])
def test_double_robustness_identity_at_truth(sid):
    # E[eps_b] = E[eps_p] = 0 under true nuisances, within 3 MC SE at n=1e4
    scn = SCENARIOS[sid]
    data = generate(scn, 10**4, seed=99)
    if scn.functional == "ecc":
        spec = expected_cond_cov_spec()
        b, p = scn.b, scn.pi
    else:
        spec = mar_mean_spec()
        b, p = scn.b, lambda x: 1.0 / scn.pi(x)
    res = residuals(spec, data, b(data.x), p(data.x))
    for eps in (res.eps_b, res.eps_p):
        se = np.std(eps, ddof=1) / np.sqrt(data.n)
        assert abs(np.mean(eps)) <= 3.0 * max(se, 1e-12)


@pytest.mark.parametrize("sid", ["s1-smooth-d1", "s2-smooth-d2", "s4-span-exact",
                                 "s5-ecc-indep", "ecc-corr"])
def test_psi_identity_by_quadrature(sid):
    # psi = E[H4] - E[B P h1-weight]: for MAR this is int b f dx; for the
    # conditional covariance E[AY] - int p b f dx
    scn = SCENARIOS[sid]
    quad = QuadratureSpec(512)
    if scn.functional == "ecc":
        e_h4 = integrate(lambda x: (scn.pi(x) * scn.b(x) + scn.c11(x)) * scn.f(x),
                         scn.d, quad)
        e_bp = integrate(lambda x: scn.b(x) * scn.pi(x) * scn.f(x), scn.d, quad)
        psi = e_h4 - e_bp
    else:
        # E[BP h1] = -int b(x) (1/pi) pi f = -int b f; H4 = 0
        psi = integrate(lambda x: scn.b(x) * scn.f(x), scn.d, quad)
    assert psi == pytest.approx(true_psi(scn), abs=1e-6)
