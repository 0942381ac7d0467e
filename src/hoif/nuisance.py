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


def series_scores(designs: dict, response: np.ndarray, folds: int, seed: int,
                  rows=slice(None)) -> dict:
    """Fold-averaged squared error of each candidate size (k -> score).

    ``designs`` comes from ``series_designs`` on the training points and
    ``rows`` selects the records to fit.  The folds are split once, ``rows``
    composed into their indices, and every candidate, cellwise or not, is
    fitted by ``_least_squares`` on each fold's training records and scored
    on its test records.  Sizes that exceed half the fitted records or hit a
    singular design have no score.  With fewer than two folds, or fewer than
    two records per fold, the one split is (all, all) with no rank check:
    the score is the in-sample error.
    """
    idx = np.arange(response.shape[0])[rows]
    n = idx.shape[0]
    if n == 0:
        raise ValidationError("empty fitting sample")
    usable = [k for k in designs if k <= max(n // 2, 1)]
    if not usable:
        raise ValidationError("no grid size is a tensor size of the family "
                              "at most half the fitted records")
    if folds < 2 or n < 2 * folds:
        splits, checked = [(idx, idx)], False
    else:  # fold f tests every folds-th record of a permutation, in its order
        order = idx[np.random.default_rng(seed).permutation(n)]
        splits = [(np.delete(order, np.s_[f::folds]), order[f::folds]) for f in range(folds)]
        checked = True
    scores = {}
    for k in usable:
        sub, z = designs[k]
        err = 0.0
        for train, test in splits:
            coef, full_rank = _least_squares(sub, z[train], response[train])
            if checked and not full_rank:
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
