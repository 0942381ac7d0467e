from dataclasses import replace

import numpy as np
import pytest

from hoif.basis import BasisSpec, build_basis
from hoif.data import Dataset, ValidationError
from hoif.functionals import expected_cond_cov_spec, mar_mean_spec
from hoif.nuisance import (
    density_cells,
    fit_nuisances,
    series_designs,
    series_fit,
    series_scores,
    zero_nuisance,
)
from hoif.quadrature import QuadratureSpec, integrate
from reference import loop_series_fit, lstsq_series_fit

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


def test_series_fit_skips_singular_designs():
    # every X in the first of four cells: the Haar design at k=4 has rank 1,
    # so that size is skipped, and a grid of it alone has nothing to fit
    rng = np.random.default_rng(5)
    x = 0.25 * rng.random((40, 1))
    y = rng.random(40)
    _, k = series_fit(series_designs(x, BASIS, [1, 4]), y, folds=2, seed=0)
    assert k == 1
    with pytest.raises(ValidationError, match="all series sizes produced singular designs"):
        series_fit(series_designs(x, BASIS, [4]), y, folds=2, seed=0)


def test_propensity_fit_constant():
    data = make_training(4000, seed=3)
    p_hat = fit_nuisances(mar_mean_spec(), data, series_designs(data.x, BASIS, [1]),
                          folds=2).p_hat
    vals = p_hat(np.array([[0.3], [0.7]]))
    assert vals == pytest.approx(2.0, abs=0.15)


def test_propensity_clipping_range():
    # nearly degenerate sample (one A=1 in 100): fitted pi = 0.01 is
    # clipped at sigma_floor
    x = np.random.default_rng(4).random((100, 1))
    a = np.zeros(100)
    a[0] = 1.0
    data = Dataset(x, a, np.zeros(100))
    p_hat = fit_nuisances(mar_mean_spec(), data, series_designs(data.x, BASIS, [1]),
                          folds=2, sigma_floor=0.05).p_hat
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


def test_grid_without_a_tensor_size_names_the_failure():
    # 3 is no Haar size in d=1: no design is built, so none was singular
    data = make_training(200, seed=17)
    assert series_designs(data.x, BASIS, [3]) == {}
    with pytest.raises(ValidationError,
                       match="no grid size is a tensor size of the family at most half"):
        fit_b(data, [3], folds=2)


def test_density_series_uniform():
    data = make_training(20000, seed=8, pi=lambda x: np.full(x.shape[0], 1.0))
    dens = density_cells(data, BASIS, mar_mean_spec().abs_h1(data), sigma_floor=0.05)
    g_hat = lambda pts: dens[BASIS.cells(pts)]
    grid = np.linspace(0.01, 0.99, 64)[:, None]
    np.testing.assert_allclose(g_hat(grid), 1.0, atol=0.15)


def test_density_series_floor_and_mass():
    data = make_training(500, seed=9, pi=lambda x: np.full(x.shape[0], 0.3))
    spec = mar_mean_spec()
    dens = density_cells(data, BASIS, spec.abs_h1(data), sigma_floor=0.05)
    g_hat = lambda pts: dens[BASIS.cells(pts)]
    grid = np.linspace(0.0, 1.0, 257)[:, None]
    assert np.all(g_hat(grid) >= 0.05 - 1e-12)
    mass = integrate(g_hat, 1, QuadratureSpec(256))
    sample_mass = np.mean(np.abs(spec.h1(data)))
    assert mass == pytest.approx(sample_mass, rel=0.02)


def test_density_series_all_zero_weights():
    x = np.random.default_rng(10).random((50, 1))
    data = Dataset(x, np.zeros(50), np.zeros(50))
    with pytest.raises(ValidationError):
        density_cells(data, BASIS, mar_mean_spec().abs_h1(data), 0.05)


def test_density_cells_refuses_a_non_finite_weight():
    # the weights are FunctionalSpec.abs_h1's, checked as the empirical Gram's are
    data = make_training(50, seed=10)
    spec = replace(mar_mean_spec(), h1=lambda dat: np.where(dat.x[:, 0] < 0.5, -np.inf, -1.0))
    with pytest.raises(ValidationError, match="non-finite h1 value in data"):
        density_cells(data, BASIS, spec.abs_h1(data), 0.05)
    with pytest.raises(ValidationError, match="empty training set"):
        density_cells(data, BASIS, mar_mean_spec().abs_h1(data.subset(np.arange(0))), 0.05)


def test_fit_nuisances_mar_and_ecc():
    data = make_training(800, seed=12, b=lambda x: 0.3 + 0.4 * x[:, 0])
    nuis = fit_nuisances(mar_mean_spec(), data, series_designs(data.x, BASIS, [1, 2, 4]),
                         folds=2)
    pts = np.array([[0.2], [0.8]])
    assert np.all(np.isfinite(nuis.b_hat(pts)))
    assert np.all(nuis.p_hat(pts) >= 1.0 - 1e-12)
    nuis2 = fit_nuisances(expected_cond_cov_spec(), data,
                          series_designs(data.x, BASIS, [1, 2]), folds=2)
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
    original = BasisSpec.evaluate_many
    monkeypatch.setattr(BasisSpec, "evaluate_many",
                        lambda self, x: calls.append(self.k) or original(self, x))
    data = make_training(400, seed=16)
    designs = series_designs(data.x, build_basis(BasisSpec("bspline", 1, 8, order=2)),
                             [3, 4, 6])
    assert sorted(calls) == [3, 4, 6]
    # both fits of either functional read the shared designs
    fit_nuisances(mar_mean_spec(), data, designs, folds=2)
    fit_nuisances(expected_cond_cov_spec(), data, designs, folds=2)
    assert sorted(calls) == [3, 4, 6]
    # Haar designs are the records' cells: neither the designs nor the fits
    # nor their predictions evaluate the basis
    designs = series_designs(data.x, BASIS, [1, 2, 4])
    nuis = fit_nuisances(mar_mean_spec(), data, designs, folds=2)
    nuis.b_hat(data.x), nuis.p_hat(data.x)
    assert sorted(calls) == [3, 4, 6]


@pytest.mark.parametrize("d,n,folds,masked,empty", [
    (1, 600, 3, False, False),
    (2, 800, 2, True, False),
    (1, 9, 5, False, True),  # n < 2 * folds: no CV, and a cell without a record
    (2, 900, 2, True, True),
])
def test_haar_cell_fit_matches_dense_lstsq(d, n, folds, masked, empty):
    # the Haar fit from per-cell means chooses the k that dense designs and
    # lstsq choose and predicts what they predict, 0 in an empty cell
    rng = np.random.default_rng(60 + d + n)
    x = rng.random((n, d))
    if empty:  # no record with x_1 in [0.5, 0.75)
        x[:, 0] = np.where((x[:, 0] >= 0.5) & (x[:, 0] < 0.75), x[:, 0] - 0.5, x[:, 0])
    y = np.sin(3.0 * x.sum(axis=1)) + 0.3 * rng.normal(size=n)
    rows = rng.random(n) < 0.7 if masked else slice(None)
    basis = build_basis(BasisSpec("haar", d, 8))
    grid = [1, 2**d, 4**d, 8**d]
    fit, k = series_fit(series_designs(x, basis, grid), y, folds, seed=9, rows=rows)
    ref_fit, ref_k = lstsq_series_fit(x, basis, grid, y, folds, seed=9, rows=rows)
    assert k == ref_k
    pts = (np.indices((16,) * d).reshape(d, -1).T + 0.5) / 16
    np.testing.assert_allclose(fit(pts), ref_fit(pts), rtol=0, atol=1e-12)
    if empty and n < 10:
        assert k == 4 and np.all(fit(pts[(pts[:, 0] >= 0.5) & (pts[:, 0] < 0.75)]) == 0.0)


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("folds", [2, 3, 4, 5])
@pytest.mark.parametrize("masked,case", [
    pytest.param(False, "haar", id="False-False"),
    pytest.param(True, "haar", id="True-False"),
    pytest.param(True, "lone", id="True-True"),
    pytest.param(True, "mixed", id="mixed"),
    pytest.param(False, "in-sample", id="in-sample"),
])
def test_haar_cv_matches_the_fold_loop_bit_for_bit(binary, folds, masked, case):
    # one loop scores every candidate, fold by fold, from the same records in
    # the same order as a loop over the masked sample, so the scores, the
    # chosen k and the predictions are equal, not close.  ``lone`` leaves one
    # record in a cell of the finest Haar candidate: the fold that tests it
    # has no training record there, and that candidate gets no score.
    # ``mixed`` fits B-splines whose q = 1 candidate is order 0, cellwise,
    # beside dense ones; ``in-sample`` has fewer than two records per fold
    rng = np.random.default_rng(70 + folds)
    n = 2 * folds - 1 if case == "in-sample" else 700
    x = rng.random((n, 2))
    if case == "lone":  # the cell [0, 1/8)^2 of the 8x8 grid holds record 0 only
        x[1:] = np.where((x[1:] < 0.125).all(axis=1)[:, None], x[1:] + 0.125, x[1:])
        x[0] = [0.05, 0.05]
    signal = np.sin(4.0 * x[:, 0]) * np.cos(3.0 * x[:, 1])
    y = ((rng.random(n) < 0.5 + 0.4 * signal) if binary
         else signal + 0.3 * rng.normal(size=n)).astype(float)
    rows = rng.random(n) < 0.8 if masked else slice(None)
    if case == "lone":
        rows[0] = True
    if case == "mixed":
        designs = series_designs(x, BasisSpec("bspline", 2, 4, order=2), [1, 4, 9, 16])
        assert designs[1][0].cellwise and not designs[4][0].cellwise
    else:
        designs = series_designs(x, build_basis(BasisSpec("haar", 2, 8)), [1, 4, 16, 64])
    fit, k = series_fit(designs, y, folds, seed=folds, rows=rows)
    ref_fit, ref_k, ref_scores = loop_series_fit(designs, y, folds, seed=folds, rows=rows)
    scores = series_scores(designs, y, folds, seed=folds, rows=rows)
    assert scores == ref_scores
    assert {"mixed": {1, 16}, "in-sample": {1}}.get(case, {16}) <= set(scores)
    if case == "lone":
        assert 64 not in scores
    assert k == ref_k
    pts = (np.indices((16, 16)).reshape(2, -1).T + 0.5) / 16
    np.testing.assert_array_equal(fit(pts), ref_fit(pts))


def test_rank_deficient_dense_candidate_has_no_score():
    # hat functions on four knots over records all below 0.2: the columns of
    # the far hats vanish, every training fold's design is rank-deficient and
    # the candidate of size 4 is skipped; the smaller sizes are scored
    x = np.random.default_rng(8).random((40, 1)) * 0.2
    designs = series_designs(x, BasisSpec("bspline", 1, 4, order=1), [1, 2, 4])
    assert sorted(designs) == [1, 2, 4]
    scores = series_scores(designs, x[:, 0] ** 2, folds=2, seed=3)
    assert sorted(scores) == [1, 2]
