import numpy as np
import pytest

from hoif.basis import Basis, BasisSpec, build_basis
from hoif.data import Dataset, ValidationError
from hoif.functionals import expected_cond_cov_spec, mar_mean_spec
from hoif.nuisance import (
    density_series,
    fit_nuisances,
    series_designs,
    series_fit,
    zero_nuisance,
)
from hoif.quadrature import QuadratureSpec, integrate

BASIS = build_basis(BasisSpec("haar", 1, 8))


def make_training(n, seed=0, b=None, pi=None):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 1))
    pi_v = pi(x) if pi else np.full(n, 0.5)
    a = (rng.random(n) < pi_v).astype(float)
    b_v = b(x) if b else np.full(n, 0.5)
    y = a * (rng.random(n) < b_v).astype(float)
    return Dataset(x, a, y)


def fit_b(data, k_grid, folds, seed=0):
    """Series fit of Y on X among the records with A=1."""
    fit, _ = series_fit(series_designs(data.x, BASIS, k_grid), data.y, folds, seed,
                        rows=data.a > 0)
    return fit


def test_zero_nuisance():
    nuis = zero_nuisance()
    pts = np.array([[0.2], [0.8]])
    np.testing.assert_array_equal(nuis.b_hat(pts), [0.0, 0.0])
    np.testing.assert_array_equal(nuis.p_hat(pts), [0.0, 0.0])
    assert nuis.provenance == "zero"


def test_series_fit_constant_exact():
    # noiseless constant outcome: k=1 fit reproduces it to 1e-10
    rng = np.random.default_rng(1)
    x = rng.random((200, 1))
    data = Dataset(x, np.ones(200), np.full(200, 0.5))
    fit = fit_b(data, [1], folds=2)
    np.testing.assert_allclose(fit(x), 0.5, atol=1e-10)


def test_series_fit_in_span_exact():
    # noiseless piecewise-constant outcome in the span: exact recovery
    rng = np.random.default_rng(2)
    x = rng.random((400, 1))
    y = np.where(x[:, 0] < 0.5, 0.2, 0.9)
    data = Dataset(x, np.ones(400), y)
    fit = fit_b(data, [2, 4], folds=2)
    grid = np.linspace(0.01, 0.99, 50)[:, None]
    np.testing.assert_allclose(fit(grid), np.where(grid[:, 0] < 0.5, 0.2, 0.9),
                               atol=1e-10)


def test_propensity_fit_constant():
    data = make_training(4000, seed=3)
    p_hat = fit_nuisances(mar_mean_spec(), data, BASIS, [1], folds=2).p_hat
    vals = p_hat(np.array([[0.3], [0.7]]))
    assert vals == pytest.approx(2.0, abs=0.15)


def test_propensity_clipping_range():
    # nearly degenerate sample (one A=1 in 100): fitted pi = 0.01 is
    # clipped at sigma_floor
    x = np.random.default_rng(4).random((100, 1))
    a = np.zeros(100)
    a[0] = 1.0
    data = Dataset(x, a, np.zeros(100))
    p_hat = fit_nuisances(mar_mean_spec(), data, BASIS, [1], folds=2,
                          sigma_floor=0.05).p_hat
    vals = p_hat(x)
    assert np.all(vals >= 1.0 - 1e-12)
    assert np.all(vals <= 1.0 / 0.05 + 1e-12)


def test_series_fit_rate_in_span():
    # L2 error of the k=4 fit of an in-span b shrinks roughly like
    # sqrt(k/n); check it decreases by ~sqrt(4) from n to 16n
    b = lambda x: np.where(x[:, 0] < 0.25, 0.2, 0.7)
    errs = []
    for n in (500, 8000):
        data = make_training(n, seed=5, b=b, pi=lambda x: np.full(x.shape[0], 1.0))
        fit = fit_b(data, [4], folds=2)
        err2 = integrate(lambda p: (fit(p) - b(p)) ** 2, 1, QuadratureSpec(256))
        errs.append(np.sqrt(err2))
    assert errs[1] < errs[0] / 2.0


def test_cv_choice_reproducible():
    b = lambda x: 0.3 + 0.4 * x[:, 0]
    data = make_training(600, seed=6, b=b)
    f1 = fit_b(data, [1, 2, 4, 8], folds=3, seed=11)
    f2 = fit_b(data, [1, 2, 4, 8], folds=3, seed=11)
    grid = np.linspace(0.0, 1.0, 33)[:, None]
    np.testing.assert_array_equal(f1(grid), f2(grid))


def test_series_rejects_unusable_grid():
    data = make_training(10, seed=7)
    with pytest.raises(ValidationError):
        fit_b(data, [64], folds=2)


def test_density_series_uniform():
    data = make_training(20000, seed=8, pi=lambda x: np.full(x.shape[0], 1.0))
    g_hat = density_series(data, BASIS, mar_mean_spec(), sigma_floor=0.05)
    grid = np.linspace(0.01, 0.99, 64)[:, None]
    np.testing.assert_allclose(g_hat(grid), 1.0, atol=0.15)


def test_density_series_floor_and_mass():
    data = make_training(500, seed=9, pi=lambda x: np.full(x.shape[0], 0.3))
    spec = mar_mean_spec()
    g_hat = density_series(data, BASIS, spec, sigma_floor=0.05)
    grid = np.linspace(0.0, 1.0, 257)[:, None]
    assert np.all(g_hat(grid) >= 0.05 - 1e-12)
    mass = integrate(g_hat, 1, QuadratureSpec(256))
    sample_mass = np.mean(np.abs(spec.h1(data)))
    assert mass == pytest.approx(sample_mass, rel=0.02)


def test_density_series_all_zero_weights():
    x = np.random.default_rng(10).random((50, 1))
    data = Dataset(x, np.zeros(50), np.zeros(50))
    with pytest.raises(ValidationError):
        density_series(data, BASIS, mar_mean_spec(), 0.05)


def test_fit_nuisances_mar_and_ecc():
    data = make_training(800, seed=12, b=lambda x: 0.3 + 0.4 * x[:, 0])
    nuis = fit_nuisances(mar_mean_spec(), data, BASIS, [1, 2, 4], folds=2)
    pts = np.array([[0.2], [0.8]])
    assert np.all(np.isfinite(nuis.b_hat(pts)))
    assert np.all(nuis.p_hat(pts) >= 1.0 - 1e-12)
    nuis2 = fit_nuisances(expected_cond_cov_spec(), data, BASIS, [1, 2], folds=2)
    assert np.all(np.isfinite(nuis2.p_hat(pts)))


def test_mean_regression_linear_target():
    rng = np.random.default_rng(14)
    x = rng.random((5000, 1))
    resp = 2.0 * x[:, 0] + rng.normal(0, 0.1, 5000)
    data = Dataset(x, np.ones(5000), resp)
    fit, _ = series_fit(series_designs(x, BASIS, [8]), resp, folds=2, seed=0)
    grid = np.linspace(0.05, 0.95, 20)[:, None]
    assert np.max(np.abs(fit(grid) - 2.0 * grid[:, 0])) < 0.2


def test_series_fit_rows_match_subset():
    # fitting selected rows of the full design equals fitting the subset
    data = make_training(600, seed=15, b=lambda x: 0.3 + 0.4 * x[:, 0])
    mask = data.a > 0
    grid = np.linspace(0.0, 1.0, 33)[:, None]
    full, k_full = series_fit(series_designs(data.x, BASIS, [1, 2, 4, 8]), data.y,
                              folds=3, seed=5, rows=mask)
    sub, k_sub = series_fit(series_designs(data.x[mask], BASIS, [1, 2, 4, 8]),
                            data.y[mask], folds=3, seed=5)
    assert k_full == k_sub
    np.testing.assert_array_equal(full(grid), sub(grid))


def test_fit_nuisances_evaluates_each_design_once(monkeypatch):
    calls = []
    original = Basis.evaluate_many
    monkeypatch.setattr(Basis, "evaluate_many",
                        lambda self, x: calls.append(self.k) or original(self, x))
    data = make_training(400, seed=16)
    fit_nuisances(mar_mean_spec(), data, BASIS, [1, 2, 4], folds=2)
    assert sorted(calls) == [1, 2, 4]
    fit_nuisances(expected_cond_cov_spec(), data, BASIS, [1, 2, 4], folds=2)
    assert sorted(calls) == [1, 1, 2, 2, 4, 4]
