"""Acceptance gate: one test per shipped criterion A1-A10.

Each test prints a single PASS/FAIL line with the measured quantity and the
stated tolerance (visible with -s; the pytest -v status line mirrors it).
All thresholds are the contracted ones; none are tuned to the draw.
"""

import math
from math import comb

import numpy as np
import pytest

from hoif.basis import BasisSpec, build_basis
from hoif.estimator import (
    EstimatorConfig,
    default_tuning,
    estimate_split,
    one_step,
)
from hoif.functionals import (
    ate_spec,
    expected_cond_cov_spec,
    mar_mean_spec,
)
from hoif.gram import (
    empirical_gram,
    invert_checked,
    op_norm_distance,
    project,
    quadrature_gram,
    truncation_bias,
)
from hoif.nuisance import NuisanceSet
from hoif.quadrature import QuadratureSpec
from hoif.sim import (
    SCENARIOS,
    efficiency_bound,
    generate,
    run_study,
    true_psi,
    weighted_density,
)
from hoif.ustat import ChainInputs, brute_force_ifjj, correction_terms


def report_line(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{name}: {detail}"


def _rep_seed(master, rep):
    return int(np.random.SeedSequence([master, rep]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# A1: oracle equivalence of the fast U-statistic against full enumeration


def test_A1_oracle_equivalence():
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for trial in range(200):
        j = 2 + trial % 3
        n = int(rng.integers(max(j + 1, 5), 13))
        k = int(rng.integers(1, 6))
        z = rng.normal(size=(n, k))
        m = np.linalg.inv(z.T @ z / n + 0.3 * np.eye(k))
        inp = ChainInputs(
            eps_p=rng.normal(size=n), eps_b=rng.normal(size=n),
            abs_h1=rng.random(n), zmat=z, omega_inv=0.5 * (m + m.T),
            sign_flag=bool(trial % 2),
        )
        fast = correction_terms(inp, j)[-1]
        ref = brute_force_ifjj(j, inp)
        worst = max(worst, abs(fast - ref) / (1.0 + abs(ref)))
    report_line("A1 oracle equivalence", worst <= 1e-10,
                f"max relative gap {worst:.3g} over 200 instances (tol 1e-10)")


# ---------------------------------------------------------------------------
# A2: projection reproduces the span and is idempotent, two densities


def test_A2_projection_properties():
    basis = build_basis(BasisSpec("haar", 1, 16))
    quad = QuadratureSpec(256)
    nodes, _ = quad.grid(1)
    zgrid = basis.evaluate_many(nodes)
    worst = 0.0
    for g in (lambda x: np.ones(x.shape[0]),
              lambda x: 0.5 + x[:, 0]):
        gram = quadrature_gram(basis, g, quad)
        m_inv = invert_checked(gram).inverse
        for l in range(basis.k):
            proj = project(basis, m_inv, g, lambda x, l=l: basis.evaluate_many(x)[:, l],
                           quad)
            worst = max(worst, float(np.max(np.abs(proj(nodes) - zgrid[:, l]))))
        h = lambda x: np.exp(x[:, 0])
        p1 = project(basis, m_inv, g, h, quad)
        v1 = p1(nodes)
        p2 = project(basis, m_inv, g, lambda x: p1(x), quad)
        worst = max(worst, float(np.max(np.abs(p2(nodes) - v1))))
    report_line("A2 projection properties", worst <= 1e-8,
                f"max grid deviation {worst:.3g} (tol 1e-8)")


# ---------------------------------------------------------------------------
# A3: empirical-Gram concentration rate in the training size


def test_A3_gram_concentration():
    scn = SCENARIOS["s2-smooth-d2"]
    basis = build_basis(BasisSpec("haar", 2, 4))  # k = 16
    spec = mar_mean_spec()
    ref = quadrature_gram(basis, weighted_density(scn), QuadratureSpec(256))
    sizes = (500, 2000, 8000)
    medians = []
    for n_tr in sizes:
        dists = []
        for rep in range(200):
            training = generate(scn, n_tr, _rep_seed(311 + n_tr, rep))
            emp = empirical_gram(basis, training, spec)
            dists.append(op_norm_distance(emp, ref))
        medians.append(float(np.median(dists)))
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
    report_line("A3 gram concentration", abs(slope + 0.5) <= 0.15,
                f"median op-distance slope {slope:.3f} (target -0.5 +/- 0.15), "
                f"medians {[f'{m:.4f}' for m in medians]}")


# ---------------------------------------------------------------------------
# A4 + A5: conditional-on-training bias reduction and variance bound.
# One training sample is held fixed (the theorem's conditional statement);
# 500 fresh estimation samples are drawn with in-span nuisance errors.

A45_N = 2000
A45_REPS = 500
A45_K = 32
A45_DP = 1.2
A45_DB = 0.6


@pytest.fixture(scope="module")
def a45_study():
    scn = SCENARIOS["s4-span-exact"]
    basis_spec = BasisSpec("haar", 1, A45_K)
    cfg = EstimatorConfig(basis=basis_spec, m=4, seed=0, variant="emp")
    training = generate(scn, A45_N, 20240810)
    ref = quadrature_gram(build_basis(basis_spec), weighted_density(scn),
                          QuadratureSpec(256))
    # in-span injected errors; the two error directions are kept
    # non-proportional so the second-order bias does not self-cancel
    nuis = NuisanceSet(
        b_hat=lambda x: scn.b(x) - A45_DB * np.where(x[:, 0] < 0.5, 1.0, -1.0),
        p_hat=lambda x: 1.0 / scn.pi(x) - A45_DP,
    )
    psi1 = np.empty(A45_REPS)
    orders = np.empty((A45_REPS, 3))  # contributions for j = 2, 3, 4
    op_dist = None
    for rep in range(A45_REPS):
        est = generate(scn, A45_N, _rep_seed(45045, rep))
        out = estimate_split(est, training, cfg, nuisance_override=nuis)
        assert not out.zero_convention_applied
        psi1[rep] = out.psi_1
        orders[rep] = out.per_order
        op_dist = op_norm_distance(out.gram_diag.gram, ref)
    return {"psi1": psi1, "orders": orders, "op_dist": op_dist,
            "psi_true": true_psi(scn)}


def test_A4_bias_reduction(a45_study):
    psi = a45_study["psi_true"]
    psi1 = a45_study["psi1"]
    psi2 = psi1 + a45_study["orders"][:, 0]
    psi3 = psi2 + a45_study["orders"][:, 1]
    reps = len(psi1)
    bias1 = float(np.mean(psi1) - psi)
    bias2 = float(np.mean(psi2) - psi)
    bias3 = float(np.mean(psi3) - psi)
    first_ok = abs(bias2) < abs(bias1)
    ratio = abs(bias3) / abs(bias2)
    # delta-method standard error of the bias ratio, covariance included
    cov = np.cov(np.stack([psi2, psi3]), ddof=1) / reps
    var_r = (cov[1, 1] / bias2**2 + bias3**2 * cov[0, 0] / bias2**4
             - 2.0 * bias3 * cov[0, 1] / bias2**3)
    se_r = math.sqrt(max(var_r, 0.0))
    bound = a45_study["op_dist"] + 3.0 * se_r
    report_line(
        "A4 bias reduction", first_ok and ratio <= bound,
        f"|bias| 1st={abs(bias1):.4g} 2nd={abs(bias2):.4g} 3rd={abs(bias3):.4g}; "
        f"ratio {ratio:.3f} <= op-dist {a45_study['op_dist']:.3f} + 3 SE "
        f"({3 * se_r:.3f})",
    )


def test_A5_variance_bound(a45_study):
    orders = a45_study["orders"]
    k, n = A45_K, A45_N

    def bound(m, c):
        total = 0.0
        for l in range(m - 1):
            coef = sum(comb(j - 2, l) for j in range(l + 2, m + 1))
            total += coef**2 * c ** (l + 2) * k ** (l + 1) / comb(n, l + 2)
        return total

    c_needed = 0.0
    details = []
    for m in (2, 3, 4):
        var_m = float(np.var(np.sum(orders[:, : m - 1], axis=1), ddof=1))
        lo, hi = 1e-8, 1e6
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if bound(m, mid) >= var_m:
                hi = mid
            else:
                lo = mid
        c_needed = max(c_needed, hi)
        details.append(f"m={m} var={var_m:.3g}")
    report_line("A5 variance bound", c_needed <= 10.0,
                f"calibrated c = {c_needed:.3f} <= 10 simultaneously for "
                f"m in {{2,3,4}} ({'; '.join(details)})")


# ---------------------------------------------------------------------------
# A6: zero-nuisance consistency at the default tuning


def test_A6_zero_nuisance_consistency():
    scn = SCENARIOS["s4-span-exact"]
    rmses = []
    last_agg = None
    sizes = (2000, 8000)
    for n in sizes:
        k, m = default_tuning(math.ceil(n / 2), "emp", 1, "haar")
        cfg = EstimatorConfig(basis=BasisSpec("haar", 1, k), m=m,
                              nuisance_method="zero")
        result = run_study(scn, cfg, reps=200, seed=606, n=n, threads=4)
        last_agg = result.aggregate
        rmses.append(last_agg["rmse"])
    slope = math.log(rmses[1] / rmses[0]) / math.log(sizes[1] / sizes[0])
    mc_se = last_agg["sd"] / math.sqrt(last_agg["reps_ok"])
    bias_ok = abs(last_agg["bias"]) < 2.0 * mc_se
    report_line(
        "A6 zero-nuisance consistency",
        abs(slope + 0.5) <= 0.15 and bias_ok,
        f"RMSE slope {slope:.3f} (target -0.5 +/- 0.15); bias at n=8000 "
        f"{last_agg['bias']:.4g} vs 2 MC SE {2 * mc_se:.4g}",
    )


# ---------------------------------------------------------------------------
# A7: efficiency and coverage with cross-fitting and series nuisances


def test_A7_efficiency_and_coverage():
    scn = SCENARIOS["s2-smooth-d2"]
    n = 5000
    k, m = default_tuning(math.ceil(n / 2), "emp", 2, "haar")
    q = round(k ** 0.5)
    cfg = EstimatorConfig(basis=BasisSpec("haar", 2, q), m=m, cross_fit=True,
                          nuisance_k_grid=(1, 4, 16), nuisance_folds=2)
    result = run_study(scn, cfg, reps=500, seed=707, n=n, threads=4)
    agg = result.aggregate
    eff = efficiency_bound(scn)
    var_cap = 1.5 * eff / n
    cov_ok = 0.92 <= agg["coverage"] <= 0.98
    var_ok = agg["sd"] ** 2 <= var_cap
    report_line(
        "A7 efficiency and coverage", cov_ok and var_ok,
        f"coverage {agg['coverage']:.3f} in [0.92, 0.98]; MC variance "
        f"{agg['sd'] ** 2:.3g} <= 1.5 eff/N = {var_cap:.3g}",
    )


# ---------------------------------------------------------------------------
# A8: truncation-bias rate on the Hoelder scenario


def test_A8_truncation_bias_rate():
    scn = SCENARIOS["s3-holder-d2"]
    g = weighted_density(scn)
    quad = QuadratureSpec(256)
    ks, tbs = [], []
    for q in (2, 4, 8, 16):
        basis = build_basis(BasisSpec("haar", 2, q))
        tb = truncation_bias(basis, g, scn.b, lambda x: 1.0 / scn.pi(x), quad,
                             sign_flag=True)
        ks.append(basis.k)
        tbs.append(abs(tb))
    slope = float(np.polyfit(np.log(ks), np.log(tbs), 1)[0])
    target = -2.0 * scn.beta_b / scn.d
    report_line("A8 truncation-bias rate", abs(slope - target) <= 0.25,
                f"log-log slope {slope:.3f} (target {target} +/- 0.25)")


# ---------------------------------------------------------------------------
# A9: double robustness of the one-step estimator per functional


def _mar_psi1(data, b_hat, p_hat):
    return one_step(data, mar_mean_spec(),
                    NuisanceSet(b_hat=b_hat, p_hat=p_hat))


def _ate_psi1(data, scn, wrong):
    arm1, arm0 = ate_spec()
    if wrong == "b":
        n1 = NuisanceSet(b_hat=lambda x: scn.b(x) * 0.7,
                         p_hat=lambda x: 1.0 / scn.pi(x))
        n0 = NuisanceSet(b_hat=lambda x: scn.b0(x) + 0.25,
                         p_hat=lambda x: 1.0 / (1.0 - scn.pi(x)))
    else:
        n1 = NuisanceSet(b_hat=scn.b, p_hat=lambda x: 1.0 / scn.pi(x) + 0.8)
        n0 = NuisanceSet(b_hat=scn.b0, p_hat=lambda x: 1.0 / (1.0 - scn.pi(x)) - 0.4)
    return one_step(data, arm1, n1) - one_step(data, arm0, n0)


def _ecc_psi1(data, scn, wrong):
    if wrong == "b":
        nuis = NuisanceSet(b_hat=lambda x: scn.b(x) + 0.2, p_hat=scn.pi)
    else:
        nuis = NuisanceSet(b_hat=scn.b, p_hat=lambda x: scn.pi(x) * 0.8)
    return one_step(data, expected_cond_cov_spec(), nuis)


def test_A9_double_robustness():
    cases = []
    reps, n = 200, 10**4
    # (label, scenario, psi1 evaluator)
    s1 = SCENARIOS["s1-smooth-d1"]
    s4 = SCENARIOS["s4-ate"]
    s5 = SCENARIOS["ecc-corr"]
    evaluators = [
        ("mar_mean/b-wrong", s1,
         lambda d: _mar_psi1(d, lambda x: s1.b(x) + 0.2,
                             lambda x: 1.0 / s1.pi(x))),
        ("mar_mean/p-wrong", s1,
         lambda d: _mar_psi1(d, s1.b, lambda x: 1.0 / s1.pi(x) + 0.8)),
        ("ate/b-wrong", s4, lambda d: _ate_psi1(d, s4, "b")),
        ("ate/p-wrong", s4, lambda d: _ate_psi1(d, s4, "p")),
        ("ecc/b-wrong", s5, lambda d: _ecc_psi1(d, s5, "b")),
        ("ecc/p-wrong", s5, lambda d: _ecc_psi1(d, s5, "p")),
    ]
    all_ok = True
    for label, scn, evaluator in evaluators:
        psi = true_psi(scn)
        vals = np.array([
            evaluator(generate(scn, n, _rep_seed(909, 1000 * len(cases) + rep)))
            for rep in range(reps)
        ])
        bias = float(np.mean(vals) - psi)
        se = float(np.std(vals, ddof=1)) / math.sqrt(reps)
        ok = abs(bias) <= 3.0 * se
        all_ok = all_ok and ok
        cases.append(f"{label} bias={bias:.2e} (3 SE {3 * se:.2e})"
                     + ("" if ok else " **"))
    report_line("A9 double robustness", all_ok, "; ".join(cases))


# ---------------------------------------------------------------------------
# A10: byte-identical study reruns, independent of the thread count


def test_A10_reproducibility():
    scn = SCENARIOS["s4-span-exact"]
    cfg = EstimatorConfig(basis=BasisSpec("haar", 1, 4), m=3,
                          nuisance_k_grid=(1, 2, 4), nuisance_folds=2)
    outputs = []
    for threads in (1, 4, 4):
        result = run_study(scn, cfg, reps=30, seed=1010, n=600,
                           threads=threads)
        outputs.append((result.rows_csv(("rerun-probe",)).encode(),
                        result.aggregates_csv(("rerun-probe",)).encode()))
    ok = outputs[0] == outputs[1] == outputs[2]
    report_line("A10 reproducibility", ok,
                "three reruns (threads 1, 4, 4) produced byte-identical "
                "replication and aggregate CSVs")
