"""Training-sample nuisance estimation.

Ships series least squares with cross-validated size, a weighted-histogram
density estimate for the density-based comparison path, and the zero
estimator (which deliberately ignores the admissible range of the inverse
propensity and still leaves the full pipeline consistent).

A cellwise (order-0) candidate of size q^d spans the indicators of its q^d
cells, so its design (``BasisSpec.design``) is each record's cell and its
least-squares fit the per-cell mean: such fits, their cross-validation and
their predictions never evaluate the basis.  B-splines of order >= 1 fit
their (n, k) rows by ``np.linalg.lstsq``.  The density estimate is its
value in each cell of the basis's q^d grid (``density_cells``), which the
estimator reads at the records or nodes it needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from hoif.basis import BasisSpec
from hoif.data import Dataset, ValidationError
from hoif.functionals import FunctionalSpec

DEFAULT_SIGMA_FLOOR = 0.05


@dataclass(frozen=True)
class NuisanceSet:
    b_hat: Callable[[np.ndarray], np.ndarray]
    p_hat: Callable[[np.ndarray], np.ndarray]


def _constant(value: float):
    def fn(x):
        return np.full(np.atleast_1d(x).shape[0], value)

    return fn


def zero_nuisance() -> NuisanceSet:
    """b_hat = p_hat = 0; the range clipping of p_hat is deliberately
    bypassed, the higher-order terms alone then estimate the target."""
    return NuisanceSet(b_hat=_constant(0.0), p_hat=_constant(0.0))


def _least_squares(sub: BasisSpec, design: np.ndarray, response: np.ndarray) -> tuple:
    """Least-squares coefficients of ``response`` on ``design`` rows and whether
    the design has full rank.  A cellwise fit is the per-cell mean, 0 in a
    cell with no record: what lstsq's minimum-norm solution predicts there for
    the orthogonal cell design, whose rank is the number of cells with a record."""
    if sub.cellwise:
        counts = np.bincount(design, minlength=sub.k)
        sums = np.bincount(design, response, sub.k)
        return np.divide(sums, counts, out=np.zeros(sub.k), where=counts > 0), counts.all()
    coef, _, rank, _ = np.linalg.lstsq(design, response, rcond=None)
    return coef, rank == sub.k


def _fitted(sub: BasisSpec, design: np.ndarray, coef: np.ndarray) -> np.ndarray:
    return coef[design] if sub.cellwise else design @ coef


def series_bases(n: int, basis: BasisSpec, k_grid: tuple[int, ...]) -> dict:
    """A series fit's candidates on n records by size: ``basis`` at each q the
    family has whose q^d in ``k_grid`` is at most n / 2, order capped at q - 1."""
    bases = {}
    for k in k_grid:
        if k > max(n // 2, 1) or k in bases:
            continue
        q = round(k ** (1.0 / basis.d))
        if q**basis.d != k:
            continue
        try:
            bases[k] = replace(basis, per_dim_size=q, order=min(basis.order, max(q - 1, 0)))
        except ValidationError:  # this family has no basis of q functions
            continue
    return bases


def series_designs(x: np.ndarray, basis: BasisSpec, k_grid: tuple[int, ...]) -> dict:
    """Each ``series_bases`` candidate on ``x`` and its design on ``x``."""
    return {k: (sub, sub.design(x)) for k, sub in series_bases(x.shape[0], basis, k_grid).items()}


def _cell_folds(order: np.ndarray, fold_id: np.ndarray, folds: int,
                response: np.ndarray) -> tuple:
    """The records of the per-fold cross-validation loop, in the order that
    loop visits them, for all folds at once: the fold and record of each
    training entry and its response, fold by fold; the same for each test
    entry; and where each fold's test entries end."""
    train_fold, at = np.nonzero(fold_id != np.arange(folds)[:, None])
    tests = [order[f::folds] for f in range(folds)]  # order[fold_id == f]
    sizes = [t.shape[0] for t in tests]
    test = np.concatenate(tests)
    train = order[at]
    return (train_fold, train, response[train], np.repeat(np.arange(folds), sizes),
            test, response[test], np.cumsum(sizes))


def _cell_cv_error(k: int, cells: np.ndarray, train_fold, train, train_response,
                   test_fold, test, test_response, ends):
    """Squared test error, summed over the folds of ``_cell_folds``, of the
    per-cell-mean fit on ``k`` cells; None when a training fold leaves a cell
    without a record.  Bit for bit the per-fold loop: every (fold, cell) bin
    adds the same values in the same order, and each fold's residuals are
    one contiguous array, as the loop's are."""
    bins = train_fold * k + cells[train]
    counts = np.bincount(bins, minlength=ends.shape[0] * k)
    if not counts.all():
        return None
    coef = np.bincount(bins, train_response, counts.shape[0]) / counts
    resid = test_response - coef[test_fold * k + cells[test]]
    err, lo = 0.0, 0
    for hi in ends.tolist():
        err += float(resid[lo:hi] @ resid[lo:hi])
        lo = hi
    return err


def series_scores(designs: dict, response: np.ndarray, folds: int, seed: int,
                  rows=slice(None)) -> dict:
    """Fold-averaged squared error of each candidate size (k -> score).

    ``designs`` comes from ``series_designs`` on the training points and
    ``rows`` selects the records to fit.  Sizes that exceed half the fitted
    records or hit a singular design have no score.  With fewer than two
    folds, or fewer than two records per fold, the score is the in-sample
    error.
    """
    response = response[rows]
    n = response.shape[0]
    if n == 0:
        raise ValidationError("empty fitting sample")
    usable = [k for k in designs if k <= max(n // 2, 1)]
    if not usable:
        raise ValidationError("no grid size is a tensor size of the family "
                              "at most half the fitted records")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    fold_id = np.arange(n) % folds
    plan = None
    scores = {}
    for k in usable:
        sub, z = designs[k]
        z = z[rows]
        if folds < 2 or n < 2 * folds:
            coef, _ = _least_squares(sub, z, response)
            resid = response - _fitted(sub, z, coef)
            scores[k] = float(resid @ resid) / n
        elif sub.cellwise:
            if plan is None:
                plan = _cell_folds(order, fold_id, folds, response)
            err = _cell_cv_error(sub.k, z, *plan)
            if err is not None:
                scores[k] = err / n
        else:
            err = 0.0
            for f in range(folds):
                test = order[fold_id == f]
                train = order[fold_id != f]
                coef, full_rank = _least_squares(sub, z[train], response[train])
                if not full_rank:
                    break
                resid = response[test] - _fitted(sub, z[test], coef)
                err += float(resid @ resid)
            else:
                scores[k] = err / n
    return scores


def series_fit(designs: dict, response: np.ndarray, folds: int, seed: int,
               rows=slice(None)):
    """Least-squares series fit of the size with the least ``series_scores``
    score (the smaller size on a tie).

    Returns (predict, k_chosen).  An error is raised only when every
    candidate fails.
    """
    scores = series_scores(designs, response, folds, seed, rows)
    if not scores:
        raise ValidationError("all series sizes produced singular designs")
    k_best = min(scores, key=lambda k: (scores[k], k))
    sub, z = designs[k_best]
    coef, _ = _least_squares(sub, z[rows], response[rows])

    def predict(pts):
        return _fitted(sub, sub.design(np.asarray(pts)), coef)

    return predict, k_best


def density_cells(training: Dataset, basis: BasisSpec, w: np.ndarray,
                  sigma_floor: float = DEFAULT_SIGMA_FLOOR) -> np.ndarray:
    """Histogram density on the basis's q^d cells of the training records
    weighted by ``w`` (|h1|, ``FunctionalSpec.abs_h1``): its value in each of
    the q^d cells, in ``BasisSpec.cells`` order.

    Floored at ``sigma_floor`` and renormalized to the weighted sample
    mass; used only by the density-based comparison path.
    """
    mass = float(np.mean(w))
    if mass <= 0.0:
        raise ValidationError("all |h1| weights are zero")
    k = basis.k  # the cells of the grid
    dens = np.bincount(basis.cells(training.x), w, k) / training.n * k  # histogram density
    dens = np.maximum(dens, sigma_floor)
    dens = dens * (mass / (np.mean(dens / k) * k))
    return np.maximum(dens, sigma_floor)


def fit_nuisances(spec: FunctionalSpec, training: Dataset, designs: dict, folds: int,
                  seed: int = 0, sigma_floor: float = DEFAULT_SIGMA_FLOOR) -> NuisanceSet:
    """Fit the nuisance pair of the functional arm ``spec``.

    A MAR arm regresses Y on X among the records it observes
    (``spec.observed``) and that indicator on X over all records; the fitted
    propensity is clipped to [sigma_floor, 1] and inverted.  An arm with no
    ``observed`` regresses Y and A on X over all records.  Both fits use
    ``designs``, the candidate designs that ``series_designs`` made on the
    training points.
    """
    if spec.observed is None:
        b_hat, _ = series_fit(designs, training.y, folds, seed)
        p_hat, _ = series_fit(designs, training.a, folds, seed + 1)
    else:
        seen = spec.observed(training)
        b_hat, _ = series_fit(designs, training.y, folds, seed, rows=seen > 0)
        pi_hat, _ = series_fit(designs, seen, folds, seed + 1)

        def p_hat(pts):
            return 1.0 / np.clip(pi_hat(pts), sigma_floor, 1.0)

    return NuisanceSet(b_hat, p_hat)
