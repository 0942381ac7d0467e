"""Scenarios with known truth and the Monte Carlo study driver.

Every scenario is fully analytic: covariate density, propensity/regression
functions, and (for the conditional-covariance scenarios) the conditional
covariance itself are closed forms, so the target and the efficiency bound
come from quadrature with a resolution-doubling error check, never from
Monte Carlo.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from hoif.data import Dataset, ValidationError
from hoif.estimator import EstimatorConfig, estimate
from hoif.gram import GramMatrix, quadrature_gram
from hoif.nuisance import NuisanceSet
from hoif.quadrature import QuadratureSpec, default_nodes_per_dim, integrate

QUAD_TOL = 1e-8


@dataclass(frozen=True)
class ScenarioSpec:
    id: str
    d: int
    functional: str  # mar_mean | ate | ecc
    b: Callable[[np.ndarray], np.ndarray]  # E[Y|A=1,X] (mar/ate) or E[Y|X] (ecc)
    pi: Callable[[np.ndarray], np.ndarray]  # P(A=1|X)
    f: Callable[[np.ndarray], np.ndarray]  # covariate density on [0,1]^d
    sample_x: Callable[[np.random.Generator, int], np.ndarray]
    sigma: float  # lower bound on pi (and on 1-pi for ate/ecc)
    b0: Callable[[np.ndarray], np.ndarray] | None = None  # E[Y|A=0,X] for ate
    c11: Callable[[np.ndarray], np.ndarray] | None = None  # Cov(A,Y|X) for ecc
    beta_b: float | None = None
    beta_p: float | None = None
    description: str = ""


def _uniform_f(x):
    return np.ones(x.shape[0])


def _uniform_sample(rng, n, d):
    return rng.random((n, d))


# ---------------------------------------------------------------------------
# S1: analytic smooth, d=1, uniform covariate


def _s1_b(x):
    t = x[:, 0]
    return 0.3 + 0.4 * t * t


def _s1_pi(x):
    return 0.5 + 0.3 * x[:, 0]


# ---------------------------------------------------------------------------
# S2: analytic smooth, d=2, product covariate density 0.6 + 0.8t per axis


def _s2_f(x):
    return (0.6 + 0.8 * x[:, 0]) * (0.6 + 0.8 * x[:, 1])


def _s2_sample(rng, n):
    u = rng.random((n, 2))
    # invert F(t) = 0.6 t + 0.4 t^2 per coordinate
    return (-0.6 + np.sqrt(0.36 + 1.6 * u)) / 0.8


def _s2_b(x):
    return 0.3 + 0.4 * x[:, 0] * x[:, 1]


def _s2_pi(x):
    return 0.45 + 0.45 * x[:, 0] * x[:, 1]


# ---------------------------------------------------------------------------
# S3: Hoelder-type truncated Haar series, d=2, beta_b = beta_p = 0.6

S3_BETA = 0.6
# levels 0..7: the finest sign flip sits on the 1/256 grid, so the default
# midpoint quadrature nodes are strictly interior and the truth is exact
S3_LEVELS = 8
_S3_SIGNS = [
    np.where(np.random.default_rng(20240615 + j).random(2**j) < 0.5, -1.0, 1.0)
    for j in range(S3_LEVELS)
]


def _haar_series(t: np.ndarray) -> np.ndarray:
    """u(t) = sum_j 2^{-j(beta+1/2)} sum_m s_jm psi_jm(t) with fixed signs."""
    t = np.clip(t, 0.0, np.nextafter(1.0, 0.0))
    out = np.zeros_like(t)
    for j in range(S3_LEVELS):
        scaled = t * 2**j
        m = np.floor(scaled).astype(np.int64)
        sign = np.where(scaled - m < 0.5, 1.0, -1.0)
        amp = 2.0 ** (-j * (S3_BETA + 0.5)) * 2.0 ** (j / 2.0)
        out += amp * sign * _S3_SIGNS[j][m]
    return out


S3_AB = 0.06
S3_AP = 0.085


def _s3_u2(x):
    return _haar_series(x[:, 0]) + _haar_series(x[:, 1])


def _s3_b(x):
    return 0.5 + S3_AB * _s3_u2(x)


def _s3_p(x):
    """Inverse propensity p = 1/pi, itself the Hoelder-smooth object."""
    return 1.6 + S3_AP * _s3_u2(x)


def _s3_pi(x):
    return 1.0 / _s3_p(x)


# ---------------------------------------------------------------------------
# S4: span-exact, d=1, piecewise constant on the two halves (TB = 0 for k >= 2)


def _s4_b(x):
    return np.where(x[:, 0] < 0.5, 0.3, 0.6)


def _s4_pi(x):
    return np.where(x[:, 0] < 0.5, 0.7, 0.4)


def _s4_b0(x):
    return np.where(x[:, 0] < 0.5, 0.2, 0.4)


# ---------------------------------------------------------------------------
# S5 / ecc-corr: conditional covariance scenarios, d=1, uniform covariate


def _s5_b(x):
    return 0.3 + 0.4 * x[:, 0]


def _s5_pi(x):
    return 0.35 + 0.3 * x[:, 0]


def _zero_fn(x):
    return np.zeros(x.shape[0])


def _ecc_corr_c11(x):
    return 0.05 + 0.05 * x[:, 0]


SCENARIOS: dict[str, ScenarioSpec] = {}


def _register(scn: ScenarioSpec):
    SCENARIOS[scn.id] = scn
    return scn


_register(ScenarioSpec(
    id="s1-smooth-d1", d=1, functional="mar_mean",
    b=_s1_b, pi=_s1_pi, f=_uniform_f,
    sample_x=lambda rng, n: _uniform_sample(rng, n, 1),
    sigma=0.5, description="analytic smooth MAR mean, uniform X on [0,1]",
))
_register(ScenarioSpec(
    id="s2-smooth-d2", d=2, functional="mar_mean",
    b=_s2_b, pi=_s2_pi, f=_s2_f, sample_x=_s2_sample,
    sigma=0.45, description="analytic smooth MAR mean, product density, d=2",
))
_register(ScenarioSpec(
    id="s3-holder-d2", d=2, functional="mar_mean",
    b=_s3_b, pi=_s3_pi, f=_uniform_f,
    sample_x=lambda rng, n: _uniform_sample(rng, n, 2),
    sigma=0.45, beta_b=S3_BETA, beta_p=S3_BETA,
    description="truncated Haar series nuisances of smoothness 0.6, d=2",
))
_register(ScenarioSpec(
    id="s4-span-exact", d=1, functional="mar_mean",
    b=_s4_b, pi=_s4_pi, f=_uniform_f,
    sample_x=lambda rng, n: _uniform_sample(rng, n, 1),
    sigma=0.4, description="b and pi piecewise constant on the halves; TB=0",
))
_register(ScenarioSpec(
    id="s4-ate", d=1, functional="ate",
    b=_s4_b, pi=_s4_pi, f=_uniform_f, b0=_s4_b0,
    sample_x=lambda rng, n: _uniform_sample(rng, n, 1),
    sigma=0.3, description="span-exact two-arm scenario for the ATE",
))
_register(ScenarioSpec(
    id="s5-ecc-indep", d=1, functional="ecc",
    b=_s5_b, pi=_s5_pi, f=_uniform_f, c11=_zero_fn,
    sample_x=lambda rng, n: _uniform_sample(rng, n, 1),
    sigma=0.35, description="A and Y conditionally independent; psi = 0",
))
_register(ScenarioSpec(
    id="ecc-corr", d=1, functional="ecc",
    b=_s5_b, pi=_s5_pi, f=_uniform_f, c11=_ecc_corr_c11,
    sample_x=lambda rng, n: _uniform_sample(rng, n, 1),
    sigma=0.35, description="positively correlated A and Y given X",
))


_VALIDATED: set[str] = set()


def validate_scenario(scn: ScenarioSpec):
    """Grid check of the scenario invariants; cached per id."""
    if scn.id in _VALIDATED:
        return
    grid = np.linspace(0.0, 1.0, 257 if scn.d == 1 else 129)
    mesh = np.meshgrid(*([grid] * scn.d), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pi = scn.pi(pts)
    if np.any(pi < scn.sigma - 1e-12) or np.any(pi > 1.0 + 1e-12):
        raise ValidationError(f"{scn.id}: pi outside [sigma, 1]")
    for fn_b in filter(None, (scn.b, scn.b0)):
        bv = fn_b(pts)
        if np.any(bv < -1e-12) or np.any(bv > 1.0 + 1e-12):
            raise ValidationError(f"{scn.id}: regression outside [0, 1]")
    fv = scn.f(pts)
    if np.any(fv < 0):
        raise ValidationError(f"{scn.id}: negative density")
    mass = integrate(scn.f, scn.d, QuadratureSpec(default_nodes_per_dim(scn.d)))
    if abs(mass - 1.0) > QUAD_TOL:
        raise ValidationError(f"{scn.id}: density mass {mass} != 1")
    if scn.functional == "ecc":
        _ecc_cell_probs(scn, pts)  # raises if any joint cell goes negative
    _VALIDATED.add(scn.id)


def _ecc_cell_probs(scn: ScenarioSpec, x: np.ndarray):
    pi, b, c = scn.pi(x), scn.b(x), scn.c11(x)
    p11 = pi * b + c
    p10 = pi * (1.0 - b) - c
    p01 = (1.0 - pi) * b - c
    p00 = (1.0 - pi) * (1.0 - b) + c
    cells = np.stack([p00, p01, p10, p11], axis=1)
    if np.any(cells < -1e-12):
        raise ValidationError(f"{scn.id}: joint cell probability negative")
    return np.clip(cells, 0.0, 1.0)


def generate(scn: ScenarioSpec, n: int, seed) -> Dataset:
    """Draw n i.i.d. records (X, A, Y) from the scenario."""
    validate_scenario(scn)
    if n < 1:
        raise ValidationError("n must be positive")
    rng = np.random.default_rng(seed)
    x = scn.sample_x(rng, n)
    if scn.functional == "ecc":
        cells = _ecc_cell_probs(scn, x)
        cum = np.cumsum(cells, axis=1)
        u = rng.random(n)
        idx = (u[:, None] >= cum).sum(axis=1)  # 0..3 encoding (a, y) bits
        a = (idx >= 2).astype(float)
        y = (idx % 2).astype(float)
        return Dataset(x, a, y)
    a = (rng.random(n) < scn.pi(x)).astype(float)
    y1 = (rng.random(n) < scn.b(x)).astype(float)
    if scn.functional == "ate":
        y0 = (rng.random(n) < scn.b0(x)).astype(float)
        y = a * y1 + (1.0 - a) * y0
    else:
        y = a * y1  # AY recorded; Y unobserved when A=0
    return Dataset(x, a, y)


def _checked_integral(fn, d: int) -> float:
    """Richardson-extrapolated midpoint quadrature with a doubling check.

    The midpoint rule has an h^2 error expansion, so the extrapolated
    values at consecutive resolution doublings agree to O(h^4); their
    difference certifies the quadrature error.
    """
    base = default_nodes_per_dim(d)
    i1, i2, i4 = (integrate(fn, d, QuadratureSpec(base * s)) for s in (1, 2, 4))
    r1 = (4.0 * i2 - i1) / 3.0
    r2 = (4.0 * i4 - i2) / 3.0
    if abs(r2 - r1) > QUAD_TOL * (1.0 + abs(r2)):
        raise ValidationError(f"quadrature did not converge: {r1} vs {r2}")
    return r2


def true_psi(scn: ScenarioSpec) -> float:
    """Target value by quadrature (resolution-doubled)."""
    validate_scenario(scn)
    if scn.functional == "mar_mean":
        return _checked_integral(lambda x: scn.b(x) * scn.f(x), scn.d)
    if scn.functional == "ate":
        return _checked_integral(lambda x: (scn.b(x) - scn.b0(x)) * scn.f(x), scn.d)
    if scn.functional == "ecc":
        return _checked_integral(lambda x: scn.c11(x) * scn.f(x), scn.d)
    raise ValidationError(f"unknown functional {scn.functional!r}")


def efficiency_bound(scn: ScenarioSpec) -> float:
    """Variance of the first-order influence function, by quadrature."""
    psi = true_psi(scn)
    if scn.functional == "mar_mean":
        def integrand(x):
            b = scn.b(x)
            return (b * (1.0 - b) / scn.pi(x) + (b - psi) ** 2) * scn.f(x)
        return _checked_integral(integrand, scn.d)
    if scn.functional == "ate":
        def integrand(x):
            b1, b0, pi = scn.b(x), scn.b0(x), scn.pi(x)
            return (
                b1 * (1.0 - b1) / pi
                + b0 * (1.0 - b0) / (1.0 - pi)
                + (b1 - b0 - psi) ** 2
            ) * scn.f(x)
        return _checked_integral(integrand, scn.d)
    if scn.functional == "ecc":
        def integrand(x):
            cells = _ecc_cell_probs(scn, x)
            pi, b = scn.pi(x), scn.b(x)
            m4 = np.zeros(x.shape[0])
            for idx in range(4):
                av, yv = float(idx >= 2), float(idx % 2)
                m4 += cells[:, idx] * ((av - pi) * (yv - b)) ** 2
            return m4 * scn.f(x)
        return _checked_integral(integrand, scn.d) - psi**2
    raise ValidationError(f"unknown functional {scn.functional!r}")


def weighted_density(scn: ScenarioSpec):
    """g(x) = E[|h1| | X=x] f(x) for the scenario's functional."""
    if scn.functional in ("mar_mean", "ate"):
        return lambda x: scn.pi(x) * scn.f(x)
    return scn.f


# ---------------------------------------------------------------------------
# study driver

ROW_COLUMNS = (
    "rep,cfg_index,variant,k,m,seed,psi_hat,psi_1,variance_est,"
    "ci_low,ci_high,zero_convention,op_dist,covered,error"
)
AGG_COLUMNS = (
    "scenario,n,cfg_index,variant,k,m,reps_ok,psi_true,bias,sd,rmse,"
    "coverage,mean_op_dist,eff_bound"
)


@dataclass
class StudyResult:
    scenario: str
    psi_true: float
    eff_bound: float
    reps: int
    n: int
    seed: int
    rows: list[dict]
    aggregates: list[dict]

    def rows_csv(self, header_lines: tuple[str, ...] = ()) -> str:
        out = [f"# {h}" for h in header_lines]
        out.append(ROW_COLUMNS)
        cols = ROW_COLUMNS.split(",")
        for row in self.rows:
            out.append(",".join(_csv_val(row.get(c)) for c in cols))
        return "\n".join(out) + "\n"

    def aggregates_csv(self, header_lines: tuple[str, ...] = ()) -> str:
        out = [f"# {h}" for h in header_lines]
        out.append(AGG_COLUMNS)
        cols = AGG_COLUMNS.split(",")
        for row in self.aggregates:
            out.append(",".join(_csv_val(row.get(c)) for c in cols))
        return "\n".join(out) + "\n"


def _csv_val(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _rep_seed(master: int, rep: int) -> int:
    return int(np.random.SeedSequence([master, rep]).generate_state(1)[0])


def _one_cell(scn: ScenarioSpec, cfg: EstimatorConfig, n: int, master: int,
              rep: int, cfg_index: int, psi_true: float,
              nuisance_factory, ref_gram: GramMatrix | None) -> dict:
    seed = _rep_seed(master, rep)
    row = {
        "rep": rep, "cfg_index": cfg_index, "variant": cfg.variant,
        "k": cfg.k, "m": cfg.m, "seed": seed, "error": "",
    }
    try:
        data = generate(scn, n, seed)
        run_cfg = replace(cfg, seed=seed, functional=scn.functional)
        override = nuisance_factory(scn, run_cfg) if nuisance_factory else None
        rep_out = estimate(data, run_cfg, nuisance_override=override,
                           reference_gram=ref_gram)
        op = None
        if rep_out.gram_diag is not None:
            op = rep_out.gram_diag.op_distance_to_reference
        covered = ""
        if np.isfinite(rep_out.ci_low) and np.isfinite(rep_out.ci_high):
            covered = int(rep_out.ci_low <= psi_true <= rep_out.ci_high)
        row.update(
            psi_hat=rep_out.psi_hat, psi_1=rep_out.psi_1,
            variance_est=rep_out.variance_est,
            ci_low=rep_out.ci_low, ci_high=rep_out.ci_high,
            zero_convention=int(rep_out.zero_convention_applied),
            op_dist=op, covered=covered,
        )
    except (ValueError, np.linalg.LinAlgError) as exc:
        # bad data or numerics: recorded per row, fatal only in bulk; any
        # other exception is a programming error and fails the study
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_study(scn: ScenarioSpec, cfg_grid: list[EstimatorConfig], reps: int,
              seed: int, n: int, threads: int = 1,
              nuisance_factory=None, track_op_dist: bool = True) -> StudyResult:
    """Run `reps` independent replications of every config in the grid.

    Each replication draws one dataset (shared across the grid, so the
    configs are compared on identical data) with a seed derived from the
    master seed by position, making the output independent of scheduling.
    """
    validate_scenario(scn)
    if reps < 2:
        raise ValidationError("reps must be >= 2")
    psi = true_psi(scn)
    eff = efficiency_bound(scn)

    ref_grams: list[GramMatrix | None] = [None] * len(cfg_grid)
    if track_op_dist:
        from hoif.basis import build_basis

        ref_grams = [quadrature_gram(build_basis(cfg.basis), weighted_density(scn),
                                     cfg.quadrature()) for cfg in cfg_grid]

    tasks = [
        (rep, ci)
        for rep in range(reps)
        for ci in range(len(cfg_grid))
    ]

    def work(task):
        rep, ci = task
        return _one_cell(scn, cfg_grid[ci], n, seed, rep, ci, psi,
                         nuisance_factory, ref_grams[ci])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(work, tasks))
    else:
        rows = [work(t) for t in tasks]

    n_err = sum(1 for r in rows if r["error"])
    if n_err > 0.05 * len(rows):
        raise ValidationError(f"{n_err}/{len(rows)} replications failed")

    aggregates = []
    for ci, cfg in enumerate(cfg_grid):
        ok = [r for r in rows if r["cfg_index"] == ci and not r["error"]]
        est = np.array([r["psi_hat"] for r in ok])
        agg = {
            "scenario": scn.id, "n": n, "cfg_index": ci,
            "variant": cfg.variant, "k": cfg.k, "m": cfg.m,
            "reps_ok": len(ok), "psi_true": psi, "eff_bound": eff,
        }
        if len(ok) >= 2:
            bias = float(np.mean(est) - psi)
            sd = float(np.std(est, ddof=1))
            rmse = math.sqrt(float(np.mean((est - psi) ** 2)))
            cov_vals = [r["covered"] for r in ok if r["covered"] != ""]
            agg.update(
                bias=bias, sd=sd, rmse=rmse,
                coverage=float(np.mean(cov_vals)) if cov_vals else None,
            )
            ops = [r["op_dist"] for r in ok if r["op_dist"] is not None]
            agg["mean_op_dist"] = float(np.mean(ops)) if ops else None
        aggregates.append(agg)

    return StudyResult(
        scenario=scn.id, psi_true=psi, eff_bound=eff, reps=reps, n=n,
        seed=seed, rows=rows, aggregates=aggregates,
    )
