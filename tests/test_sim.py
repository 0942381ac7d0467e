import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from hoif import sim
from hoif.basis import BasisSpec
from hoif.data import ValidationError
from hoif.estimator import EstimatorConfig
from hoif.nuisance import zero_nuisance
from hoif.sim import (
    SCENARIOS,
    ScenarioSpec,
    efficiency_bound,
    generate,
    run_study,
    true_psi,
    validate_scenario,
    weighted_density,
)

# frozen truth and efficiency-bound values; computed once by the checked
# quadrature and pinned so any scenario drift fails loudly
FROZEN = {
    "s1-smooth-d1": (0.433333333333, 0.374490924352),
    "s2-smooth-d2": (0.428444444444, 0.415238740952),
    "s3-holder-d2": (0.5, 0.392360112483),
    "s4-span-exact": (0.45, 0.4725),
    "s4-ate": (0.15, 0.919166666667),
    "s5-ecc-indep": (0.0, 0.057471666667),
    "ecc-corr": (0.075, 0.054846666667),
}


def constant_scenario(pi_val=1.0, b_val=0.5):
    return ScenarioSpec(
        id=f"const-{pi_val}-{b_val}", d=1, functional="mar_mean",
        b=lambda x: np.full(x.shape[0], b_val),
        pi=lambda x: np.full(x.shape[0], pi_val),
        f=lambda x: np.ones(x.shape[0]),
        sample_x=lambda rng, n: rng.random((n, 1)),
        sigma=min(pi_val, 0.9),
    )


@pytest.mark.parametrize("sid", sorted(FROZEN))
def test_frozen_truth_and_bound(sid):
    scn = SCENARIOS[sid]
    psi, eff = FROZEN[sid]
    assert true_psi(scn) == pytest.approx(psi, abs=1e-9)
    assert efficiency_bound(scn) == pytest.approx(eff, abs=1e-9)


def test_scenario_registry_complete():
    assert set(FROZEN) == set(SCENARIOS)
    for scn in SCENARIOS.values():
        validate_scenario(scn)


def test_generate_fully_observed_when_pi_one():
    scn = constant_scenario(pi_val=1.0)
    data = generate(scn, 500, 3)
    assert np.all(data.a == 1.0)
    assert data.x.shape == (500, 1)
    assert np.all((data.x >= 0.0) & (data.x < 1.0))


def test_generate_binomial_outcome_mean():
    scn = constant_scenario(pi_val=1.0, b_val=0.5)
    n = 20000
    data = generate(scn, n, 4)
    se = math.sqrt(0.25 / n)
    assert abs(np.mean(data.y) - 0.5) <= 3.0 * se


def test_generate_mar_masks_unobserved():
    data = generate(SCENARIOS["s1-smooth-d1"], 2000, 5)
    assert np.all(data.y[data.a == 0.0] == 0.0)
    assert set(np.unique(data.a)) <= {0.0, 1.0}


def test_generate_draws_a_uniform_x_by_default():
    data = generate(SCENARIOS["s1-smooth-d1"], 50, 3)
    np.testing.assert_array_equal(data.x, np.random.default_rng(3).random((50, 1)))


def test_generate_reproducible():
    a = generate(SCENARIOS["s2-smooth-d2"], 100, 6)
    b = generate(SCENARIOS["s2-smooth-d2"], 100, 6)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)


def test_s2_covariate_marginal_gof():
    # each coordinate of S2 has cdf F(t) = 0.6 t + 0.4 t^2; chi-square
    # goodness of fit on 10 equiprobable-ish bins at the 1% level
    data = generate(SCENARIOS["s2-smooth-d2"], 10**5, 7)
    edges = np.linspace(0.0, 1.0, 11)
    cdf = 0.6 * edges + 0.4 * edges**2
    expected = np.diff(cdf) * data.n
    for j in range(2):
        observed, _ = np.histogram(data.x[:, j], bins=edges)
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2 < stats.chi2.ppf(0.99, df=9)


def test_ecc_cell_frequencies():
    # s5 has Cov(A, Y | X) = 0: the joint cell P(A=1, Y=1 | X) is pi b
    scn = SCENARIOS["s5-ecc-indep"]
    n = 40000
    data = generate(scn, n, 8)
    p11 = float(np.mean(scn.pi(data.x) * scn.b(data.x)))
    freq = np.mean((data.a == 1.0) & (data.y == 1.0))
    assert abs(freq - p11) <= 3.0 * math.sqrt(p11 * (1.0 - p11) / n)


def test_ecc_negative_cell_rejected():
    scn = SCENARIOS["ecc-corr"]
    bad = ScenarioSpec(
        id="ecc-bad", d=1, functional="ecc", b=scn.b, pi=scn.pi, f=scn.f,
        sample_x=scn.sample_x, sigma=scn.sigma,
        c11=lambda x: np.full(x.shape[0], 0.5),
    )
    with pytest.raises(ValidationError):
        generate(bad, 10, 1)


def test_validate_rejects_bad_density():
    scn = constant_scenario()
    bad = ScenarioSpec(
        id="bad-density", d=1, functional="mar_mean", b=scn.b, pi=scn.pi,
        f=lambda x: np.full(x.shape[0], 1.3), sample_x=scn.sample_x,
        sigma=scn.sigma,
    )
    with pytest.raises(ValidationError):
        validate_scenario(bad)


def test_validation_is_cached_per_spec_not_per_id():
    scn = SCENARIOS["s1-smooth-d1"]
    validate_scenario(scn)
    with pytest.raises(ValidationError, match="density mass"):
        validate_scenario(replace(scn, f=lambda x: np.full(len(x), 1.3)))


def test_efficiency_bound_hand_value():
    # pi = 1, b = 1/2: b(1-b)/pi + (b - psi)^2 = 1/4 exactly
    scn = constant_scenario(pi_val=1.0, b_val=0.5)
    assert true_psi(scn) == pytest.approx(0.5, abs=1e-10)
    assert efficiency_bound(scn) == pytest.approx(0.25, abs=1e-10)


def test_weighted_density_values():
    scn = SCENARIOS["s1-smooth-d1"]
    pts = np.array([[0.0], [1.0]])
    np.testing.assert_allclose(weighted_density(scn)(pts), [0.5, 0.8])
    ecc = SCENARIOS["s5-ecc-indep"]
    np.testing.assert_allclose(weighted_density(ecc)(pts), [1.0, 1.0])


def study_cfg():
    return EstimatorConfig(basis=BasisSpec("haar", 1, 4), m=2, nuisance_method="zero")


def test_run_study_rmse_identity_and_schema():
    scn = SCENARIOS["s4-span-exact"]
    cfg = EstimatorConfig(basis=BasisSpec("haar", 1, 4), m=2,
                          nuisance_k_grid=(1, 2), nuisance_folds=2)
    result = run_study(scn, cfg, reps=12, seed=5, n=400)
    assert len(result.rows) == 12
    agg = result.aggregate
    assert (agg["reps_ok"], agg["reps_failed"], agg["zero_convention_count"]) == (12, 0, 0)
    expected_rmse2 = agg["bias"] ** 2 + agg["sd"] ** 2 * 11.0 / 12.0
    assert agg["rmse"] ** 2 == pytest.approx(expected_rmse2, rel=1e-12)
    assert agg["psi_true"] == pytest.approx(0.45, abs=1e-9)
    assert 0.0 <= agg["coverage"] <= 1.0
    assert agg["mean_op_dist"] > 0.0
    # the CSV renderings parse back against their declared schemas
    rows_lines = result.rows_csv(("probe",)).splitlines()
    assert rows_lines[0] == "# probe"
    header = rows_lines[1].split(",")
    assert all(len(ln.split(",")) == len(header) for ln in rows_lines[2:])
    agg_lines = result.aggregates_csv().splitlines()
    assert len(agg_lines) == 2


def test_run_study_same_draws_for_every_configuration():
    # a replication's data, split and folds follow from (scenario, n, seed,
    # rep) alone, so two studies compare their configurations on equal draws
    scn = SCENARIOS["s4-span-exact"]
    cfg = EstimatorConfig(basis=BasisSpec("haar", 1, 4), nuisance_k_grid=(1, 2),
                          nuisance_folds=2)
    low, high = (run_study(scn, replace(cfg, m=m), reps=3, seed=9, n=300) for m in (2, 3))
    assert [r["m"] for r in low.rows + high.rows] == [2, 2, 2, 3, 3, 3]
    for r2, r3 in zip(low.rows, high.rows):
        assert r2["seed"] == r3["seed"]
        assert r2["psi_1"] == r3["psi_1"]
        assert r2["psi_hat"] != r3["psi_hat"]


def test_run_study_thread_invariance():
    scn = SCENARIOS["s1-smooth-d1"]
    r1 = run_study(scn, study_cfg(), reps=6, seed=2, n=300, threads=1)
    r4 = run_study(scn, study_cfg(), reps=6, seed=2, n=300, threads=4)
    assert r1.rows_csv() == r4.rows_csv()
    assert r1.aggregates_csv() == r4.aggregates_csv()


def test_run_study_cross_fit_uses_nuisance_factory():
    cfg = EstimatorConfig(basis=BasisSpec("haar", 1, 4), m=2, cross_fit=True)
    result = run_study(SCENARIOS["s1-smooth-d1"], cfg, reps=3, seed=4, n=400,
                       nuisance_factory=lambda scn, cfg: zero_nuisance())
    assert [r["psi_1"] for r in result.rows] == [0.0, 0.0, 0.0]


def test_run_study_runs_each_quadrature_once(monkeypatch):
    # one checked quadrature for psi and one for the efficiency bound
    calls = []
    original = sim._checked_integral
    monkeypatch.setattr(sim, "_checked_integral",
                        lambda fn, d: calls.append(d) or original(fn, d))
    scn = SCENARIOS["s1-smooth-d1"]
    result = run_study(scn, study_cfg(), reps=2, seed=3, n=100)
    assert len(calls) == 2
    assert result.psi_true == pytest.approx(FROZEN[scn.id][0], abs=1e-9)
    assert result.aggregate["eff_bound"] == efficiency_bound(scn)


def test_run_study_builds_each_basis_once(monkeypatch):
    # the pipeline never reads the locality constant, so a study evaluates no
    # certification grid, however many replications build a basis
    from hoif import basis

    certified = []
    original = basis._haar_univariate

    def spy(q, xs):
        if xs.shape[0] == basis.CERT_GRID_PER_DIM:
            certified.append(q)
        return original(q, xs)

    monkeypatch.setattr(basis, "_haar_univariate", spy)
    cfg = EstimatorConfig(basis=BasisSpec("haar", 2, 4), m=2,
                          nuisance_k_grid=(1, 2, 4), nuisance_folds=2)
    run_study(SCENARIOS["s2-smooth-d2"], cfg, reps=3, seed=3, n=200)
    assert certified == []
    assert basis.build_basis(cfg.basis).locality_constant == 1.0  # the spy sees a read
    assert certified == [4]


def test_run_study_rejects_tiny_rep_count():
    with pytest.raises(ValidationError):
        run_study(SCENARIOS["s1-smooth-d1"], study_cfg(), reps=1, seed=1, n=100)


def test_run_study_bulk_failures_fatal():
    def broken_factory(scn, cfg):
        raise ValidationError("nuisance backend down")

    with pytest.raises(ValidationError):
        run_study(SCENARIOS["s1-smooth-d1"], study_cfg(), reps=4, seed=1,
                  n=100, nuisance_factory=broken_factory)


def test_run_study_counts_failed_replications():
    # one ValidationError in 30 replications is within the 5% tolerance: its
    # row records it and the aggregate counts it apart from the successes
    calls = []

    def flaky_factory(scn, cfg):
        calls.append(cfg.seed)
        if len(calls) == 5:
            raise ValidationError("nuisance backend down")
        return zero_nuisance()

    result = run_study(SCENARIOS["s1-smooth-d1"], study_cfg(), reps=30, seed=1, n=100,
                       nuisance_factory=flaky_factory)
    agg = result.aggregate
    assert (agg["reps_ok"], agg["reps_failed"], agg["zero_convention_count"]) == (29, 1, 0)
    assert [r["rep"] for r in result.rows if r["error"]] == [4]
    assert result.aggregates_csv().splitlines()[0].split(",")[5:8] == [
        "reps_ok", "reps_failed", "zero_convention_count"]


def test_run_study_counts_zero_convention_replications():
    # an eigen floor near 1 rejects every Gram: each replication succeeds
    # with psi_hat = 0, counts in reps_ok and enters bias, sd and rmse
    cfg = replace(study_cfg(), eigen_floor=0.999)
    result = run_study(SCENARIOS["s4-span-exact"], cfg, reps=6, seed=2, n=300)
    agg = result.aggregate
    assert (agg["reps_ok"], agg["reps_failed"], agg["zero_convention_count"]) == (6, 0, 6)
    assert all(r["zero_convention"] == 1 and r["psi_hat"] == 0.0 for r in result.rows)
    assert agg["bias"] == -agg["psi_true"] and agg["sd"] == 0.0
    assert agg["rmse"] == pytest.approx(agg["psi_true"], rel=1e-15)


def test_run_study_programming_error_fatal():
    # one TypeError or bare ValueError in 30 replications is within the 5%
    # row-failure tolerance, but a programming error must fail the study,
    # not a row; only a ValidationError or LinAlgError is a row failure
    for error in (TypeError, ValueError):
        calls = []

        def buggy_factory(scn, cfg):
            calls.append(cfg.seed)
            if len(calls) == 5:
                raise error("unsupported operand")
            return zero_nuisance()

        with pytest.raises(error):
            run_study(SCENARIOS["s1-smooth-d1"], study_cfg(), reps=30, seed=1,
                      n=100, nuisance_factory=buggy_factory)
