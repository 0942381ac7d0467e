"""Training-sample nuisance estimation.

Ships series least squares with cross-validated size, a weighted-histogram
density estimate for the density-based comparison path, and the zero
estimator (which deliberately ignores the admissible range of the inverse
propensity and still leaves the full pipeline consistent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from hoif.basis import Basis, BasisSpec, build_basis
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


def series_designs(x: np.ndarray, basis: Basis, k_grid: list[int]) -> dict:
    """Sub-basis and design matrix on ``x`` of each size in ``k_grid`` that
    can be fit: a tensor size of the basis's family at most half the sample.
    """
    designs = {}
    for k in k_grid:
        if k > max(x.shape[0] // 2, 1) or k in designs:
            continue
        q = round(k ** (1.0 / basis.d))
        if q**basis.d != k:
            continue
        try:
            sub = build_basis(BasisSpec(basis.spec.family, basis.d, q,
                                        order=min(basis.spec.order, max(q - 1, 0))))
        except ValidationError:  # this family has no basis of q functions
            continue
        designs[k] = (sub, sub.evaluate_many(x))
    return designs


def series_fit(designs: dict, response: np.ndarray, folds: int, seed: int,
               rows=slice(None)):
    """Least-squares series fit with fold-averaged squared-error selection.

    ``designs`` comes from ``series_designs`` on the training points and
    ``rows`` selects the records to fit.  Returns (predict, k_chosen).
    Sizes that exceed half the fitted records or hit a singular design are
    skipped; an error is raised only when every candidate fails.
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
    scores = {}
    for k in usable:
        z = designs[k][1][rows]
        if folds >= 2 and n >= 2 * folds:
            err = 0.0
            for f in range(folds):
                test = order[fold_id == f]
                train = order[fold_id != f]
                coef, _, rank, _ = np.linalg.lstsq(z[train], response[train], rcond=None)
                if rank < k:
                    break
                resid = response[test] - z[test] @ coef
                err += float(resid @ resid)
            else:
                scores[k] = err / n
        else:
            coef, _, _, _ = np.linalg.lstsq(z, response, rcond=None)
            resid = response - z @ coef
            scores[k] = float(resid @ resid) / n
    if not scores:
        raise ValidationError("all series sizes produced singular designs")
    k_best = min(scores, key=lambda k: (scores[k], k))
    sub, z = designs[k_best]
    coef, _, _, _ = np.linalg.lstsq(z[rows], response, rcond=None)

    def predict(pts):
        return sub.evaluate_many(np.asarray(pts)) @ coef

    return predict, k_best


def density_series(training: Dataset, basis: Basis, spec: FunctionalSpec,
                   sigma_floor: float = DEFAULT_SIGMA_FLOOR):
    """|h1|-weighted histogram density on the basis's dyadic cells.

    Floored at ``sigma_floor`` and renormalized to the weighted sample
    mass; used only by the density-based comparison path.
    """
    if training.n == 0:
        raise ValidationError("empty training set")
    w = np.abs(spec.h1(training))
    mass = float(np.mean(w))
    if mass <= 0.0:
        raise ValidationError("all |h1| weights are zero")
    q = basis.spec.per_dim_size
    d = basis.d
    cells = np.minimum((training.x * q).astype(np.int64), q - 1)
    flat = np.zeros(q**d)
    strides = q ** np.arange(d - 1, -1, -1)
    np.add.at(flat, cells @ strides, w)
    dens = flat / training.n * q**d  # histogram density per cell
    dens = np.maximum(dens, sigma_floor)
    dens = dens * (mass / (np.mean(dens / q**d) * q**d))
    dens = np.maximum(dens, sigma_floor)

    def g_hat(pts):
        pts = np.asarray(pts)
        if pts.ndim == 1:
            pts = pts[:, None]
        cell = np.minimum((pts * q).astype(np.int64), q - 1)
        return dens[cell @ strides]

    return g_hat


def fit_nuisances(spec: FunctionalSpec, training: Dataset, designs: dict, folds: int,
                  seed: int = 0, sigma_floor: float = DEFAULT_SIGMA_FLOOR) -> NuisanceSet:
    """Fit the nuisance pair of the functional arm ``spec``.

    A MAR arm regresses Y on X among the records it observes
    (``spec.observed``) and that indicator on X over all records; the fitted
    propensity is clipped to [sigma_floor, 1] and inverted.  An arm with no
    ``observed`` regresses Y and A on X over all records.  Both fits use
    ``designs``, the candidate designs that ``series_designs`` evaluated on
    the training points.
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
