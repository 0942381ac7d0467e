"""Scenarios with known truth and the Monte Carlo study driver.

Every scenario is fully analytic (covariate density, propensity and
regression functions, and the ecc scenarios' conditional covariance are
closed forms), so its target and efficiency bound come from quadrature with
a resolution-doubling error check, never from Monte Carlo.  ``TRUTH``
records that pair for each registry scenario, bit for bit (a test checks
it); a study of any other spec integrates it before its replications.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable

import numpy as np

from hoif.data import Dataset, ValidationError, table_csv
from hoif.estimator import EstimatorConfig, estimate, estimation_size, plan_estimate
from hoif.gram import GramMatrix, op_norm_distance, population_gram
from hoif.quadrature import QuadratureSpec, basis_quadrature, default_nodes_per_dim, integrate

QUAD_TOL = 1e-8


@dataclass(frozen=True)
class ScenarioSpec:
    id: str
    d: int
    functional: str  # mar_mean | ate | ecc
    b: Callable[[np.ndarray], np.ndarray]  # E[Y|A=1,X] (mar/ate) or E[Y|X] (ecc)
    pi: Callable[[np.ndarray], np.ndarray]  # P(A=1|X)
    sigma: float  # lower bound on pi (and on 1-pi for ate/ecc)
    f: Callable[[np.ndarray], np.ndarray] = lambda x: np.ones(x.shape[0])  # density on [0,1]^d
    sample_x: Callable[[np.random.Generator, int], np.ndarray] | None = None  # None: uniform
    b0: Callable[[np.ndarray], np.ndarray] | None = None  # E[Y|A=0,X] for ate
    c11: Callable[[np.ndarray], np.ndarray] | None = None  # Cov(A,Y|X) for ecc
    beta_b: float | None = None


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
# S3: Hoelder-type truncated Haar series, d=2, b and p of smoothness 0.6

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


SCENARIOS: dict[str, ScenarioSpec] = {scn.id: scn for scn in (
    ScenarioSpec(
        id="s1-smooth-d1", d=1, functional="mar_mean",
        b=_s1_b, pi=_s1_pi, sigma=0.5,
    ),
    ScenarioSpec(
        id="s2-smooth-d2", d=2, functional="mar_mean",
        b=_s2_b, pi=_s2_pi, f=_s2_f, sample_x=_s2_sample, sigma=0.45,
    ),
    ScenarioSpec(
        id="s3-holder-d2", d=2, functional="mar_mean",
        b=_s3_b, pi=_s3_pi, sigma=0.45, beta_b=S3_BETA,
    ),
    ScenarioSpec(
        id="s4-span-exact", d=1, functional="mar_mean",
        b=_s4_b, pi=_s4_pi, sigma=0.4,
    ),
    ScenarioSpec(
        id="s4-ate", d=1, functional="ate",
        b=_s4_b, pi=_s4_pi, b0=_s4_b0, sigma=0.3,
    ),
    ScenarioSpec(
        id="s5-ecc-indep", d=1, functional="ecc",
        b=_s5_b, pi=_s5_pi, c11=_zero_fn, sigma=0.35,
    ),
    ScenarioSpec(
        id="ecc-corr", d=1, functional="ecc",
        b=_s5_b, pi=_s5_pi, c11=_ecc_corr_c11, sigma=0.35,
    ),
)}

TRUTH: dict[str, tuple[float, float]] = {
    "s1-smooth-d1": (0.43333333333333335, 0.37449092435154774),
    "s2-smooth-d2": (0.42844444444443797, 0.4152387409522961),
    "s3-holder-d2": (0.5, 0.39236011248349034),
    "s4-span-exact": (0.4499999999999999, 0.4725000000000001),
    "s4-ate": (0.15000000000000002, 0.9191666666666665),
    "s5-ecc-indep": (0.0, 0.057471666666665124),
    "ecc-corr": (0.075, 0.05484666666666514),
}


@cache
def validate_scenario(scn: ScenarioSpec):
    """Grid check of the scenario invariants; cached per spec."""
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
    x = rng.random((n, scn.d)) if scn.sample_x is None else scn.sample_x(rng, n)
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
    return _efficiency_bound(scn, true_psi(scn))


def _efficiency_bound(scn: ScenarioSpec, psi: float) -> float:
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
    "rep,variant,k,m,seed,psi_hat,psi_1,variance_est,"
    "ci_low,ci_high,zero_convention,op_dist,covered,error"
)
AGG_COLUMNS = (
    "scenario,n,variant,k,m,reps_ok,reps_failed,zero_convention_count,psi_true,"
    "bias,sd,rmse,coverage,mean_op_dist,eff_bound"
)


@dataclass
class StudyResult:
    psi_true: float
    rows: list[dict]
    aggregate: dict

    def rows_csv(self, header_lines: tuple[str, ...] = ()) -> str:
        return table_csv(ROW_COLUMNS, self.rows, header_lines)

    def aggregates_csv(self, header_lines: tuple[str, ...] = ()) -> str:
        return table_csv(AGG_COLUMNS, [self.aggregate], header_lines)


def _rep_seed(master: int, rep: int) -> int:
    return int(np.random.SeedSequence([master, rep]).generate_state(1)[0])


def _one_rep(scn: ScenarioSpec, cfg: EstimatorConfig, n: int, master: int,
             rep: int, nuisance_factory, ref_gram: GramMatrix) -> dict:
    seed = _rep_seed(master, rep)
    row = {"rep": rep, "variant": cfg.variant, "k": cfg.basis.k, "m": cfg.m,
           "seed": seed, "error": ""}
    try:
        data = generate(scn, n, seed)
        run_cfg = replace(cfg, seed=seed, functional=scn.functional)
        override = nuisance_factory(scn, run_cfg) if nuisance_factory else None
        rep_out = estimate(data, run_cfg, nuisance_override=override)
        diag = rep_out.gram_diag  # fold 0's first arm; None when m = 1
        op = None if diag is None else op_norm_distance(diag.gram, ref_gram)
        row.update(
            psi_hat=rep_out.psi_hat, psi_1=rep_out.psi_1,
            variance_est=rep_out.variance_est,
            ci_low=rep_out.ci_low, ci_high=rep_out.ci_high,
            zero_convention=int(rep_out.zero_convention_applied),
            op_dist=op,
        )
    except (ValidationError, np.linalg.LinAlgError) as exc:
        # bad data or numerics: recorded per row, fatal only in bulk; any
        # other exception is a programming error and fails the study
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _exit_with_parent():
    """End this worker as soon as the process that forked it has gone, even
    when that process was killed before it could stop it."""
    import multiprocessing
    import threading

    parent = multiprocessing.parent_process()
    threading.Thread(target=lambda: (parent.join(), os._exit(1)), daemon=True).start()


def _drain(work, counter, reps: int) -> list:
    """``(rep, work(rep))`` for each replication this process takes from the
    shared counter, until the counter passes the last replication."""
    done = []
    while True:
        with counter.get_lock():
            rep = counter.value
            counter.value = rep + 1
        if rep >= reps:
            return done
        done.append((rep, work(rep)))


def _worker(work, counter, reps: int, conn):
    """A forked worker's body: send this worker's ``_drain`` pairs, or, on an
    error, exhaust the counter so that nobody takes more work and send the
    exception with its traceback.  ``work`` is the fork's copy of the study's
    own, so scenario lambdas and nuisance factories are never pickled."""
    _exit_with_parent()
    try:
        conn.send(_drain(work, counter, reps))
    except Exception as exc:
        import traceback

        with counter.get_lock():
            counter.value = reps
        conn.send((exc, traceback.format_exc()))


def _map_reps(work, reps: int, threads: int):
    """``[work(r) for r in range(reps)]``: this process and ``min(threads - 1,
    reps)`` forked workers (none at threads = 1 or without ``fork``) take the
    replications from one counter, each worker given ``work`` as its argument."""
    import multiprocessing

    fork = "fork" in multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if fork else None)
    counter = ctx.Value("q", 0)
    workers = []
    try:
        for _ in range(min(threads - 1, reps) if fork else 0):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, args=(work, counter, reps, send))
            proc.start()
            workers.append((proc, recv))
            send.close()
        parts = [_drain(work, counter, reps)]
        for proc, conn in workers:
            try:
                part = conn.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"study worker {proc.pid} exited with code "
                                   f"{proc.exitcode} before sending its rows") from None
            if isinstance(part, tuple):
                exc, trace = part
                raise exc from RuntimeError(f"in a study worker:\n{trace}")
            parts.append(part)
        rows = dict(pair for part in parts for pair in part)
        return [rows[rep] for rep in range(reps)]
    finally:
        for proc, _ in workers:
            proc.kill()
        for proc, conn in workers:
            proc.join()
            proc.close()
            conn.close()


def check_study_size(n: int, reps: int, threads: int):
    """Refuse a study that cannot run, before it starts anything."""
    if n < 1:
        raise ValidationError("n must be positive")
    if reps < 2:
        raise ValidationError("reps must be >= 2")
    if threads < 1:
        raise ValidationError("threads must be >= 1")


def run_study(scn: ScenarioSpec, cfg: EstimatorConfig, reps: int, seed: int,
              n: int, threads: int = 1, nuisance_factory=None) -> StudyResult:
    """Run `reps` independent replications of one configuration.

    Each replication draws its dataset with a seed derived from the master
    seed by position, making the output independent of scheduling.  The
    dataset, split and folds of a replication depend only on (scenario, n,
    seed, rep), so two studies with the same scenario, n and seed compare
    their configurations on identical draws.  The target and efficiency
    bound are recorded (``TRUTH``) or, off the registry, integrated first,
    once the pre-flight all replications share (``plan_estimate``) passes.
    The study runs on up to ``threads`` processes (``_map_reps``): this
    one and ``threads - 1`` forked workers take the replications.
    """
    validate_scenario(scn)
    check_study_size(n, reps, threads)
    n_est = estimation_size(n, cfg.split_fraction)
    plan_estimate(cfg, n_est, n - n_est, nuisance_factory is None)
    recorded = SCENARIOS.get(scn.id) == scn  # False for a changed registry copy
    psi = TRUTH[scn.id][0] if recorded else true_psi(scn)
    eff = TRUTH[scn.id][1] if recorded else _efficiency_bound(scn, psi)
    ref_gram = population_gram(cfg.basis, weighted_density(scn), basis_quadrature(cfg.basis))

    def work(rep):
        return _one_rep(scn, cfg, n, seed, rep, nuisance_factory, ref_gram)

    rows = _map_reps(work, reps, threads)
    ok = [r for r in rows if not r["error"]]
    for row in ok:
        finite = np.isfinite(row["ci_low"]) and np.isfinite(row["ci_high"])
        row["covered"] = int(row["ci_low"] <= psi <= row["ci_high"]) if finite else ""
    errors = [r["error"] for r in rows if r["error"]]
    if len(errors) > 0.05 * len(rows):
        raise ValidationError(f"{len(errors)}/{len(rows)} replications failed, first: {errors[0]}")

    est = np.array([r["psi_hat"] for r in ok])
    cov_vals = [r["covered"] for r in ok if r["covered"] != ""]
    ops = [r["op_dist"] for r in ok if r["op_dist"] is not None]
    agg = {
        "scenario": scn.id, "n": n, "variant": cfg.variant, "k": cfg.basis.k, "m": cfg.m,
        "reps_ok": len(ok), "reps_failed": len(errors),
        "zero_convention_count": sum(r["zero_convention"] for r in ok),
        "psi_true": psi, "eff_bound": eff,
        "bias": float(np.mean(est) - psi),
        "sd": float(np.std(est, ddof=1)),
        "rmse": math.sqrt(float(np.mean((est - psi) ** 2))),
        "coverage": float(np.mean(cov_vals)) if cov_vals else None,
        "mean_op_dist": float(np.mean(ops)) if ops else None,
    }
    return StudyResult(psi_true=psi, rows=rows, aggregate=agg)
