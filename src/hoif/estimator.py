"""Estimator pipeline: split, fit, Gram, U-statistic sum, inference.

The full estimate is the one-step (first-order) estimator plus the
higher-order U-statistic corrections of orders 2..m, with the inverse Gram
taken either from the empirical training-sample covariance (variant
``emp``, the main path) or from quadrature against an estimated density
(variant ``ac``), each a ``gram.weighted_gram`` over a basis design
(``BasisSpec.design``).  A cellwise (order-0) basis's design is each
point's cell, so its Gram is per-cell masses and its corrections come from
``ustat.cell_terms``; other bases' (B-splines of order >= 1) is the basis
rows, which ``ustat.correction_terms`` reads.  The average treatment
effect is the difference of two arm estimates, and cross-fitting averages
the estimate over the two ways of assigning the halves of the split.  A
Gram that fails the invertibility check maps the whole estimate to zero
by convention.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import suppress
from dataclasses import dataclass, field, replace
from statistics import NormalDist

import numpy as np

from hoif.basis import BasisSpec
from hoif.data import Dataset, ValidationError
from hoif import functionals as fn
from hoif.functionals import FunctionalSpec
from hoif.gram import DEFAULT_EIGEN_FLOOR, InverseReport, invert_checked, node_rows, weighted_gram
from hoif.nuisance import (DEFAULT_SIGMA_FLOOR, NuisanceSet, density_cells, fit_nuisances,
                           series_bases, series_designs, zero_nuisance)
from hoif.quadrature import basis_quadrature
from hoif.ustat import (M_MAX, CellInputs, ChainInputs, RunPlan, cell_terms, correction_terms,
                        run_plan)

VARIANTS = ("emp", "ac")


@dataclass(frozen=True)
class EstimatorConfig:
    functional: str = "mar_mean"
    basis: BasisSpec = field(default_factory=lambda: BasisSpec("haar", 1, 4))
    m: int = 2
    split_fraction: float = 0.5
    seed: int = 0
    variant: str = "emp"
    eigen_floor: float = DEFAULT_EIGEN_FLOOR
    cross_fit: bool = False
    nuisance_method: str = "series"  # series | zero; a nuisance_override wins over either
    nuisance_k_grid: tuple[int, ...] = (1, 2, 4)
    nuisance_folds: int = 2
    sigma_floor: float = DEFAULT_SIGMA_FLOOR
    ci_level: float = 0.95

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}")
        if self.nuisance_method not in ("series", "zero"):
            raise ValidationError(f"unknown nuisance method {self.nuisance_method!r}")
        fn.arm_specs(self.functional)  # rejects an unknown functional
        if not 0.0 < self.split_fraction < 1.0:
            raise ValidationError("split_fraction must be in (0, 1)")
        if self.m < 1 or self.m > M_MAX:
            raise ValidationError(f"m must be in [1, {M_MAX}]")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if not 0.0 < self.ci_level < 1.0:
            raise ValidationError("ci_level must be in (0, 1)")
        if not self.nuisance_k_grid or min(self.nuisance_k_grid) < 1:
            raise ValidationError("nuisance k_grid entries must be >= 1")
        if self.nuisance_folds < 2:
            raise ValidationError("nuisance folds must be >= 2 (one fold cannot cross-validate)")
        if not self.eigen_floor >= 0.0:  # NaN included
            raise ValidationError("eigen_floor must be >= 0")
        if not 0.0 < self.sigma_floor <= 1.0:
            raise ValidationError("sigma_floor must be in (0, 1]")


@dataclass
class EstimateReport:
    cfg: EstimatorConfig  # the configuration that produced the estimate
    psi_hat: float
    psi_1: float
    per_order: list[float]  # contributions for j = 2..m
    variance_est: float
    ci_low: float
    ci_high: float
    gram_diag: InverseReport | None  # fold 0, first arm, its inverse dropped; None when m = 1
    zero_convention_applied: bool
    n_est: int
    n_tr: int

    CSV_COLUMNS = ",".join(["functional,variant,n_est,n_tr,k,m,seed,psi_hat,psi_1",
                            *(f"per_order_{j}" for j in range(2, M_MAX + 1)),
                            "variance_est,ci_low,ci_high,zero_convention"])

    def csv_row(self) -> dict:
        """The report's fields by column of ``CSV_COLUMNS``."""
        cfg = self.cfg
        per = list(self.per_order) + [float("nan")] * (M_MAX - 1 - len(self.per_order))
        vals = [
            cfg.functional, cfg.variant, self.n_est, self.n_tr, cfg.basis.k,
            cfg.m, cfg.seed, self.psi_hat, self.psi_1, *per,
            self.variance_est, self.ci_low, self.ci_high,
            int(self.zero_convention_applied),
        ]
        return dict(zip(self.CSV_COLUMNS.split(","), vals))

    def text_block(self) -> str:
        cfg = self.cfg
        lines = [
            f"functional      : {cfg.functional} ({cfg.variant})",
            f"samples         : estimation {self.n_est}, training {self.n_tr}",
            f"basis size k    : {cfg.basis.k}   order m: {cfg.m}",
            f"psi_hat         : {self.psi_hat:.10g}",
            f"one-step psi_1  : {self.psi_1:.10g}",
        ]
        for j, v in enumerate(self.per_order, start=2):
            lines.append(f"order-{j} term    : {v:.10g}")
        lines.append(f"variance est    : {self.variance_est:.10g}")
        ci_label = f"{100 * cfg.ci_level:.15g}% CI"  # 15 digits: the configured level
        lines.append(f"{ci_label:<16}: [{self.ci_low:.10g}, {self.ci_high:.10g}]")
        if self.zero_convention_applied:
            lines.append("zero convention : applied (Gram not invertible)")
        return "\n".join(lines)


def estimation_size(n: int, fraction: float) -> int:
    """Records that ``split_sample`` puts in the estimation sample of n."""
    n_est = math.ceil(fraction * n)
    return n_est - 1 if n_est == n else n_est


def split_sample(data: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Uniformly random partition into estimation and training samples."""
    if not 0.0 < fraction < 1.0:
        raise ValidationError("fraction must be in (0, 1)")
    if data.n < 4:
        raise ValidationError("need at least 4 records to split")
    n_est = estimation_size(data.n, fraction)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(data.n)
    return data.subset(perm[:n_est]), data.subset(perm[n_est:])


def _nuisance_values(nuis: NuisanceSet, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """b_hat and p_hat evaluated once at every record of ``data``."""
    return (np.asarray(nuis.b_hat(data.x), dtype=float),
            np.asarray(nuis.p_hat(data.x), dtype=float))


def one_step(est_sample: Dataset, spec: FunctionalSpec, nuis: NuisanceSet) -> float:
    """Sample mean of H(b_hat, p_hat): plug-in plus first-order correction."""
    return float(np.mean(fn.influence(spec, est_sample, *_nuisance_values(nuis, est_sample))[0]))


def plan_estimate(cfg: EstimatorConfig, n_est: int, n_tr: int, fitted: bool = True) -> RunPlan:
    """``run_plan`` of ``cfg`` on n_est estimation and n_tr training records (either in
    either role when cross-fitted), its nuisances fitted unless ``fitted`` is False."""
    basis = cfg.basis
    if cfg.cross_fit:
        n_est = n_tr = max(n_est, n_tr)
    series = fitted and cfg.nuisance_method == "series"
    candidates = tuple(series_bases(n_tr, basis, cfg.nuisance_k_grid)) if series else ()
    grid = cfg.variant == "ac" and not basis.cellwise
    nodes = basis_quadrature(basis).nodes_per_dim ** basis.d if grid else 0
    return run_plan(basis.k, basis.d, cfg.m, n_est, n_tr if cfg.variant == "emp" else nodes,
                    grid, n_tr, candidates, basis.cellwise,
                    len(fn.arm_specs(cfg.functional)) + 1 + cfg.cross_fit)


def default_tuning(n: int, variant: str, dimension: int = 1, family: str = "haar",
                   order: int = 0, n_tr: int | None = None,
                   run: EstimatorConfig = EstimatorConfig()) -> tuple[int, int]:
    """Rate-optimal (k, m) for the estimation-sample size n, and the whole rule.

    emp: k = n/(ln n)^3, m = sqrt(ln n); ac: k = n/(ln n)^2, m = ln n.
    k is rounded down to the largest tensor size q**dimension the family
    realizes, with a B-spline q at least ``order + 1``, and lowered until
    ``plan_estimate`` of ``run`` on n_tr training records (n if None) fits at
    m = 2, or to the smallest q, which the run's plan then refuses; m is the
    largest in [2, M_MAX] up to the rule's that fits.
    """
    if n < 8:
        raise ValidationError("n must be >= 8 for the tuning rules")
    ln = math.log(n)
    if variant == "ac":
        k_raw, m_rule = n / ln**2, math.ceil(ln)
    else:
        k_raw, m_rule = n / ln**3, math.ceil(math.sqrt(ln))
    qs = [1 if family == "haar" else order + 1]
    while (q_next := qs[-1] * 2 if family == "haar" else qs[-1] + 1) ** dimension <= k_raw:
        qs.append(q_next)

    def fits(q: int, m: int) -> bool:
        cfg = replace(run, variant=variant, basis=BasisSpec(family, dimension, q, order), m=m)
        with suppress(ValidationError):
            return bool(plan_estimate(cfg, n, n_tr or n))
        return False

    q = qs[max(bisect_left(qs, True, key=lambda q: not fits(q, 2)) - 1, 0)]
    return q**dimension, next((m for m in range(min(m_rule, M_MAX), 2, -1) if fits(q, m)), 2)


def confidence_interval(psi_hat: float, variance_est: float, level: float) -> tuple[float, float]:
    if not 0.0 < level < 1.0:
        raise ValidationError("level must be in (0, 1)")
    if variance_est <= 0.0:
        raise ValidationError("non-positive variance estimate")
    half = NormalDist().inv_cdf(0.5 * (1.0 + level)) * math.sqrt(variance_est)
    return psi_hat - half, psi_hat + half


def _training_fits(specs: tuple[FunctionalSpec, ...], weights: tuple[np.ndarray, ...],
                   nuisances: list[NuisanceSet] | None, training: Dataset,
                   cfg: EstimatorConfig) -> tuple[list, list]:
    """Every arm's nuisances and Gram (None if m = 1), the Gram weighted by
    the arm's ``weights``, |h1| at the training records.  Under ``emp`` it
    is over the training design, the k-grid candidate of the basis's own size
    if the grid has it.  Under ``ac`` it is over a node set, each node
    weighted by the density estimate at its cell: a cellwise basis's k
    cells, one node each (the midpoint rule, exact for a density constant
    on the cells); other bases' quadrature grid rows."""
    basis, designs = cfg.basis, {}
    if nuisances is None:
        if cfg.nuisance_method == "zero":
            nuisances = [zero_nuisance()] * len(specs)
        else:
            designs = series_designs(training.x, basis, cfg.nuisance_k_grid)
            nuisances = [fit_nuisances(spec, training, designs, cfg.nuisance_folds,
                                       seed=cfg.seed + 17, sigma_floor=cfg.sigma_floor)
                         for spec in specs]
    if cfg.m == 1:
        return nuisances, [None] * len(specs)
    if cfg.variant == "emp":
        shared = designs.get(basis.k)  # a candidate of size k has the basis's design
        design = shared[1] if shared else basis.design(training.x)
        return nuisances, [weighted_gram(basis, design, w, "empirical") for w in weights]
    g_hats = [density_cells(training, basis, w, cfg.sigma_floor) for w in weights]
    design = cells = np.arange(basis.k)  # a cellwise basis's nodes: one per cell
    if not basis.cellwise:
        nodes, _, design = node_rows(basis, basis_quadrature(basis))
        cells = basis.cells(nodes)
    return nuisances, [weighted_gram(basis, design, g[cells], "quadrature") for g in g_hats]


def _run_fold(specs: tuple[FunctionalSpec, ...], nuisances: list[NuisanceSet] | None,
              est: Dataset, training: Dataset, cfg: EstimatorConfig) -> list[tuple]:
    """Every arm on one fold: IF1 summands, IFjj terms for j = 2..m (None under
    the zero convention) and, for the first arm, the Gram report with its
    inverse dropped once the terms are summed (None when m = 1)."""
    est_weights, weights = zip(*[(spec.abs_h1(est), spec.abs_h1(training)) for spec in specs])
    nuisances, grams = _training_fits(specs, weights, nuisances, training, cfg)
    basis = cfg.basis
    rows = basis.design(est.x) if cfg.m > 1 else None
    runs = []
    for spec, nuisance, gram, abs_h1 in zip(specs, nuisances, grams, est_weights):
        if1, eps_p, eps_b = fn.influence(spec, est, *_nuisance_values(nuisance, est))
        if gram is None:
            runs.append((if1, [], None))
            continue
        diag = invert_checked(gram, cfg.eigen_floor)
        terms = None
        if diag.invertible and basis.cellwise:
            terms = cell_terms(CellInputs(
                eps_p=eps_p, eps_b=eps_b, abs_h1=abs_h1, cells=rows,
                mass=gram.entries / basis.k, sign_flag=spec.sign_flag), cfg.m)
        elif diag.invertible:
            terms = correction_terms(ChainInputs(
                eps_p=eps_p, eps_b=eps_b, abs_h1=abs_h1, zmat=rows,
                omega_inv=diag.inverse, sign_flag=spec.sign_flag), cfg.m)
        diag = replace(diag, inverse=None)  # freed before the next arm's inversion
        runs.append((if1, terms, None if runs else diag))
    return runs


def _contrast(arm_values: list):
    """Arm 1 minus arm 0 for a two-arm functional; the single arm's value otherwise."""
    return arm_values[0] if len(arm_values) == 1 else arm_values[0] - arm_values[1]


def _arm_summary(if1: np.ndarray, terms: list[float]) -> np.ndarray:
    """(psi_1, psi_hat, IF22, ..., IFmm) of one arm on one fold."""
    psi_1 = float(np.mean(if1))
    return np.array([psi_1, psi_1 + float(np.sum(terms)), *terms])


def estimate_split(est: Dataset, training: Dataset, cfg: EstimatorConfig,
                   nuisance_override: NuisanceSet | tuple[NuisanceSet, ...] | None = None
                   ) -> EstimateReport:
    """Run the pipeline on caller-supplied estimation/training samples.

    Each arm's estimate is psi_1 plus its IFjj terms; ``ate`` is arm 1 minus
    arm 0.  ``cfg.cross_fit`` averages over both assignments of the two
    samples and pools their first-order influence values for the variance.
    ``nuisance_override`` holds one NuisanceSet per arm (a pair for ``ate``)
    and serves every fold, whatever ``cfg.nuisance_method`` says.
    Conditional-on-training studies call this with one fixed training sample.
    """
    specs = fn.arm_specs(cfg.functional)
    overrides = None
    if nuisance_override is not None:
        overrides = [nuisance_override] if isinstance(nuisance_override, NuisanceSet) \
            else list(nuisance_override)
        if len(overrides) != len(specs):
            raise ValidationError(
                f"{cfg.functional} needs {len(specs)} nuisance override(s), "
                f"got {len(overrides)}")
    folds = [(est, training), (training, est)] if cfg.cross_fit else [(est, training)]
    if min(f_est.n for f_est, _ in folds) < cfg.m:
        raise ValidationError(f"order m={cfg.m} needs at least {cfg.m} estimation records")
    n_tr = min(f_tr.n for _, f_tr in folds)
    if cfg.m > 1 and cfg.variant == "emp" and cfg.basis.k > n_tr:
        raise ValidationError(f"basis size k={cfg.basis.k} exceeds the {n_tr} training records "
                              "the empirical Gram is built on; its inverse does not exist")
    plan_estimate(cfg, est.n, training.n, overrides is None)  # refused before any fit
    runs = [_run_fold(specs, overrides, f_est, f_tr, cfg) for f_est, f_tr in folds]

    zero = any(terms is None for fold in runs for _, terms, _ in fold)
    if zero:  # the estimate is zero by convention and carries no variance
        psi_1 = psi_hat = 0.0
        per_order = [0.0] * (cfg.m - 1)
        variance = float("nan")
    else:
        fold_summaries = [_contrast([_arm_summary(v, t) for v, t, _ in fold]) for fold in runs]
        psi_1, psi_hat, *per_order = np.mean(fold_summaries, axis=0).tolist()
        pooled = np.concatenate([_contrast([v for v, _, _ in fold]) for fold in runs])
        n = len(pooled)
        variance = float(np.var(pooled, ddof=1)) / n if n > 1 else float("nan")

    lo = hi = float("nan")
    if variance > 0.0 and np.isfinite(variance):
        lo, hi = confidence_interval(psi_hat, variance, cfg.ci_level)
    return EstimateReport(
        cfg=cfg, psi_hat=psi_hat, psi_1=psi_1, per_order=per_order,
        variance_est=variance, ci_low=lo, ci_high=hi,
        gram_diag=runs[0][0][2], zero_convention_applied=zero,
        n_est=sum(f_est.n for f_est, _ in folds),
        n_tr=sum(f_tr.n for _, f_tr in folds),
    )


def estimate(data: Dataset, cfg: EstimatorConfig,
             nuisance_override: NuisanceSet | tuple[NuisanceSet, ...] | None = None
             ) -> EstimateReport:
    """Run the full pipeline on one random split of ``data``."""
    est, training = split_sample(data, cfg.split_fraction, cfg.seed)
    return estimate_split(est, training, cfg, nuisance_override)
