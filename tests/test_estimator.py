import importlib.util
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hoif import estimator, functionals
from hoif.basis import BasisSpec, build_basis
from hoif.data import Dataset, ValidationError, dataset_from_csv, table_csv
from hoif.estimator import (
    EstimatorConfig,
    confidence_interval,
    default_tuning,
    estimate,
    estimate_split,
    one_step,
    plan_estimate,
    split_sample,
)
from hoif.functionals import influence, mar_mean_spec
from hoif.gram import (empirical_gram, invert_checked, node_rows, op_norm_distance,
                       population_gram, quadrature_gram)
from hoif.nuisance import NuisanceSet, density_cells, zero_nuisance
from hoif.quadrature import QuadratureSpec, basis_quadrature
from hoif.sim import SCENARIOS, generate, run_study, weighted_density
from hoif.ustat import ChainInputs, brute_force_ifjj, cell_terms
from reference import longdouble_cell_terms

FIXTURES = Path(__file__).parent / "fixtures"

# golden regression values: first run of the pipeline on the fixture
# dataset is the oracle; any change here is a behaviour change
GOLDEN_PSI_HAT = 0.4192178645599927
GOLDEN_PSI_1 = 0.41736471558783683
GOLDEN_PER_ORDER = (0.0015746995384292397, 0.0002784494337266395)
# IF22..IF44 of the same run at m = 4
GOLDEN_PER_ORDER_M4 = GOLDEN_PER_ORDER + (0.00026286180513648686,)


def golden_config():
    return EstimatorConfig(functional="mar_mean", basis=BasisSpec("haar", 1, 4),
                           m=3, seed=77, nuisance_k_grid=(1, 2, 4),
                           nuisance_folds=2)


def test_split_sample_sizes_and_partition():
    data = generate(SCENARIOS["s1-smooth-d1"], 100, 1)
    est, train = split_sample(data, 0.5, seed=4)
    assert est.n == 50 and train.n == 50
    merged = np.sort(np.concatenate([est.x[:, 0], train.x[:, 0]]))
    np.testing.assert_array_equal(merged, np.sort(data.x[:, 0]))
    est2, train2 = split_sample(data, 0.5, seed=4)
    np.testing.assert_array_equal(est.x, est2.x)
    est3, _ = split_sample(data, 0.61, seed=4)
    assert est3.n == math.ceil(0.61 * 100)


def test_split_sample_bounds():
    data = generate(SCENARIOS["s1-smooth-d1"], 4, 1)
    for fraction in (0.0, 1.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValidationError, match=r"fraction must be in \(0, 1\)"):
            split_sample(data, fraction, seed=4)
    assert [part.n for part in split_sample(data, 0.5, seed=4)] == [2, 2]
    with pytest.raises(ValidationError, match="need at least 4 records to split"):
        split_sample(data.subset(np.arange(3)), 0.5, seed=4)


def test_split_sample_uniform_assignment():
    data = generate(SCENARIOS["s1-smooth-d1"], 10, 1)
    hits = np.zeros(10)
    reps = 4000
    for s in range(reps):
        est, _ = split_sample(data, 0.5, seed=s)
        for v in est.x[:, 0]:
            hits[np.argwhere(data.x[:, 0] == v)[0][0]] += 1
    freq = hits / reps
    se = math.sqrt(0.25 / reps)
    assert np.all(np.abs(freq - 0.5) <= 3.0 * se + 1e-9)


def test_one_step_zero_nuisances():
    data = generate(SCENARIOS["s1-smooth-d1"], 50, 2)
    assert one_step(data, mar_mean_spec(), zero_nuisance()) == 0.0


def test_one_step_fully_observed_mean():
    x = np.random.default_rng(3).random((40, 1))
    y = np.random.default_rng(4).random(40)
    data = Dataset(x, np.ones(40), y)
    nuis = NuisanceSet(b_hat=lambda p: np.zeros(p.shape[0]),
                       p_hat=lambda p: np.ones(p.shape[0]))
    assert one_step(data, mar_mean_spec(), nuis) == pytest.approx(np.mean(y))


def test_m1_equals_one_step():
    data = generate(SCENARIOS["s1-smooth-d1"], 400, 5)
    cfg = EstimatorConfig(basis=BasisSpec("haar", 1, 2), m=2, seed=8)
    rep = estimate(data, cfg)
    cfg1 = EstimatorConfig(basis=BasisSpec("haar", 1, 2), m=1, seed=8)
    rep1 = estimate(data, cfg1)
    assert rep1.psi_hat == rep.psi_1
    assert rep1.per_order == []


def test_decomposition_identity():
    data = generate(SCENARIOS["s2-smooth-d2"], 800, 6)
    cfg = EstimatorConfig(basis=BasisSpec("haar", 2, 2), m=4, seed=9)
    rep = estimate(data, cfg)
    assert rep.psi_hat == pytest.approx(rep.psi_1 + sum(rep.per_order), abs=1e-12)
    assert len(rep.per_order) == 3


def test_zero_convention():
    data = generate(SCENARIOS["s1-smooth-d1"], 400, 7)
    cfg = EstimatorConfig(basis=BasisSpec("haar", 1, 4), m=2, seed=10,
                          eigen_floor=1e30)
    # one policy for a single fold, cross-fitting and the two-arm ATE
    cases = [(data, cfg), (data, replace(cfg, cross_fit=True)),
             (generate(SCENARIOS["s4-ate"], 400, 7), replace(cfg, functional="ate"))]
    for case_data, case_cfg in cases:
        rep = estimate(case_data, case_cfg)
        assert rep.zero_convention_applied
        assert rep.psi_hat == 0.0
        assert rep.psi_1 == 0.0 and rep.per_order == [0.0]
        assert math.isnan(rep.variance_est)
        assert math.isnan(rep.ci_low) and math.isnan(rep.ci_high)
        assert not rep.gram_diag.invertible


def test_empty_training_cell_applies_the_zero_convention():
    # no training record in [0, 0.25): the Haar Gram has the eigenvalue 0, so
    # even an eigen floor of 0 applies the convention instead of dividing by
    # the empty cell's mass
    rng = np.random.default_rng(0)

    def draw(n, lo):
        return Dataset(lo + (1.0 - lo) * rng.random((n, 1)), np.ones(n), rng.random(n))

    est, training = draw(200, 0.0), draw(200, 0.3)
    for floor in (1e-8, 0.0):
        cfg = EstimatorConfig(basis=BasisSpec("haar", 1, 4), m=3, eigen_floor=floor)
        rep = estimate_split(est, training, cfg)
        assert rep.zero_convention_applied and rep.per_order == [0.0, 0.0]
        assert not rep.gram_diag.invertible and rep.gram_diag.inverse is None


def test_oversized_cell_gram_refused_before_any_fit(monkeypatch):
    # a cross-fitted two-arm Haar ac estimate at k = 2^23: the cell route's
    # arrays of k doubles (64 MiB each) pass the byte cap, so the estimate is
    # refused before any nuisance fit or array of k entries
    monkeypatch.setattr("hoif.estimator.fit_nuisances", lambda *a, **kw: pytest.fail("fitted"))
    data = generate(SCENARIOS["s4-ate"], 400, 3)
    cfg = EstimatorConfig(functional="ate", basis=BasisSpec("haar", 1, 2**23), m=2,
                          variant="ac", cross_fit=True)
    with pytest.raises(ValidationError, match="the cell route at k=8388608, m=2 plans a peak of "
                       "2147520448 bytes, over the cap of 1073741824; its largest group, the "
                       "cell Gram, takes 2147483648 bytes"):
        estimate(data, cfg)


def test_k_exceeding_estimation_sample_rejected():
    data = generate(SCENARIOS["s1-smooth-d1"], 24, 11)
    cfg = EstimatorConfig(basis=BasisSpec("haar", 1, 16), m=2, seed=1)
    with pytest.raises(ValidationError):
        estimate(data, cfg)


def test_ac_variant_runs():
    data = generate(SCENARIOS["s1-smooth-d1"], 600, 12)
    cfg = EstimatorConfig(basis=BasisSpec("haar", 1, 4), m=2, seed=2,
                          variant="ac")
    rep = estimate(data, cfg)
    assert rep.gram_diag.invertible
    assert np.isfinite(rep.psi_hat)


def test_emp_vs_ac_agree_with_truth_injected(monkeypatch):
    # with g-hat equal to the true g, the ac Gram equals the population
    # Gram and the order-2 terms differ only through Omega-hat-emp noise
    scn = SCENARIOS["s1-smooth-d1"]
    basis = build_basis(BasisSpec("haar", 1, 4))
    # the true g enters through its per-cell values, its cell integrals times
    # k: the eigenvalues of the population Gram
    true_cells = population_gram(basis, weighted_density(scn), QuadratureSpec(256)).entries
    monkeypatch.setattr("hoif.estimator.density_cells", lambda *args: true_cells)
    nuis = NuisanceSet(b_hat=lambda p: np.zeros(p.shape[0]),
                       p_hat=lambda p: np.zeros(p.shape[0]))
    diffs = []
    for n in (400, 12800):
        per_seed = []
        for seed in range(20):
            data = generate(scn, n, 1000 + seed)
            cfg_e = EstimatorConfig(basis=basis, m=2, seed=seed, variant="emp")
            cfg_a = EstimatorConfig(basis=basis, m=2, seed=seed, variant="ac")
            r_e = estimate(data, cfg_e, nuisance_override=nuis)
            r_a = estimate(data, cfg_a, nuisance_override=nuis)
            per_seed.append(abs(r_e.per_order[0] - r_a.per_order[0]))
        diffs.append(np.median(per_seed))
    assert diffs[1] < diffs[0]


def test_default_tuning_frozen_arithmetic():
    # d=1 B-spline family realizes every integer k, so the raw values show
    assert default_tuning(1000, "emp", 1, "bspline") == (3, 3)
    assert default_tuning(10**5, "emp", 1, "bspline") == (65, 4)
    assert default_tuning(1000, "ac", 1, "bspline") == (20, 6)  # m clamped to the cap
    # a B-spline q is raised to order + 1 before m is planned: at n = 2000,
    # d = 3 and order 3 the rule's q = 3 becomes 4, and at k = 64 m = 6 is
    # over the plan cap; Haar reads no order
    assert default_tuning(2000, "ac", 3, "bspline") == (27, 6)
    assert default_tuning(2000, "ac", 3, "bspline", 3) == (64, 5)
    assert default_tuning(10**4, "emp", 2, "bspline", 3) == (16, 4)
    assert default_tuning(2000, "ac", 3, "haar", 3) == default_tuning(2000, "ac", 3) == (8, 6)
    with pytest.raises(ValidationError):
        default_tuning(4, "emp")


def test_default_tuning_never_below_second_order():
    # B-splines of order 1 on 10^6 estimation and training records: the
    # rule's k = 5239 is lowered until the plan fits at m = 2, to k = 41
    # (k = 42 plans its whitened estimation rows over the cap), where m = 3
    # does not fit
    assert default_tuning(10**6, "ac", 1, "bspline", 1) == (41, 2)
    run = EstimatorConfig(basis=BasisSpec("bspline", 1, 42, order=1), m=2, variant="ac")
    with pytest.raises(ValidationError, match="k=42, m=2 plans a peak of 1096321712 bytes, over "
                                              "the cap of 1073741824; its largest group, the "
                                              "whitened estimation rows, takes 744000000 bytes"):
        plan_estimate(run, 10**6, 10**6)
    with pytest.raises(ValidationError, match="k=41, m=3 plans"):
        plan_estimate(replace(run, basis=BasisSpec("bspline", 1, 41, order=1), m=3),
                      10**6, 10**6)
    # order-0 bases take their terms from per-cell sums, which the plan
    # admits at the rule's m: Haar at a power-of-two k, a B-spline at the rule's k
    assert default_tuning(10**6, "ac", 1, "haar") == (4096, 6)
    assert default_tuning(10**6, "ac", 1, "bspline") == (5239, 6)
    # a run that fits at no size gets the smallest, which its plan refuses
    assert default_tuning(10**9, "emp") == (1, 2)
    with pytest.raises(ValidationError, match="the cell route at k=1, m=2 plans a peak"):
        plan_estimate(EstimatorConfig(basis=BasisSpec("haar", 1, 1)), 10**9, 10**9)


def _dense_ac(k: int, **kw) -> EstimatorConfig:
    return EstimatorConfig(basis=BasisSpec("bspline", 1, k, order=1), variant="ac", **kw)


@pytest.mark.parametrize("cfg,n", [
    # candidates of 128, 256 and 512 B-spline functions: about 220 MB traced,
    # where a plan that counted no candidate design read 1.76 MB
    (EstimatorConfig(basis=BasisSpec("bspline", 1, 4, order=1),
                     nuisance_k_grid=(128, 256, 512)), 40000),
    (EstimatorConfig(basis=BasisSpec("bspline", 2, 8, order=2), m=3, variant="ac"), 40000),
    (EstimatorConfig(functional="ate", basis=BasisSpec("haar", 2, 8), m=4, variant="ac",
                     nuisance_k_grid=(1, 4, 16, 64, 256)), 40000),
    (EstimatorConfig(basis=BasisSpec("haar", 1, 64), m=6, cross_fit=True,
                     nuisance_k_grid=(1, 2, 4, 8, 16, 32, 64)), 40000),
    # the summing half of a dense run: while its terms are summed it holds
    # the Gram, eigh's vectors, their scaled copy and the inverse, then the
    # inverse, np.allclose's two temporaries and mask, then the Cholesky
    # factor.  The traced peak passed a plan that counted the Gram and one
    # more k x k array 1.19 and 1.15 times at k = 1024 and 2048.  With two
    # arms or two folds it holds the fold's Grams and the inverse in use, the
    # reported fold running last: a two-arm cross-fit traced 100.2 MB at
    # k = 1024 while every arm and fold kept its Gram and inverse
    (_dense_ac(1024), 2000),
    (_dense_ac(2048), 2000),
    (_dense_ac(512, functional="ate", cross_fit=True), 2000),
    (_dense_ac(1024, functional="ate"), 2000),
    (_dense_ac(1024, cross_fit=True), 2000),
    (_dense_ac(1024, functional="ate", cross_fit=True), 2000),
], ids=["candidates", "bspline ac", "haar ac ate", "haar cross-fit", "bspline ac k1024",
        "bspline ac k2048", "bspline ac ate cross-fit", "bspline ac ate k1024",
        "bspline ac cross-fit k1024", "bspline ac ate cross-fit k1024"])
def test_traced_peak_within_the_run_plan(cfg, n):
    # the plan estimate_split checks bounds every array it builds, from the
    # nuisance fit to the correction terms, on n records
    rng = np.random.default_rng(4)

    def split(n):
        a = (rng.random(n) < 0.6).astype(float)
        return split_sample(Dataset(rng.random((n, cfg.basis.d)), a, a * (rng.random(n) < 0.5)),
                            0.5, 0)

    estimate_split(*split(n // 10), cfg)  # imports and first-call caches
    est, training = split(n)
    planned = plan_estimate(cfg, est.n, training.n).peak
    tracemalloc.start()
    try:
        estimate_split(est, training, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= planned


def test_cross_fit_holds_no_gram_of_its_other_fold():
    # fold 0, whose first arm's Gram is reported, runs last, so no Gram of the
    # other fold is held while it runs: at k = 1024 a cross-fitted run traced
    # 58.2 MB against 49.8 MB for one fold, one 8.4 MB Gram more, while the
    # report kept fold 0's Gram through fold 1
    rng = np.random.default_rng(5)
    a = (rng.random(2000) < 0.6).astype(float)
    est, training = split_sample(Dataset(rng.random((2000, 1)), a, a * (rng.random(2000) < 0.5)),
                                 0.5, 0)
    estimate_split(est, training, _dense_ac(256, cross_fit=True))  # first-call caches
    peaks = []
    for cross_fit in (False, True):
        tracemalloc.start()
        try:
            estimate_split(est, training, _dense_ac(1024, cross_fit=cross_fit))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.02 * peaks[0]


def test_million_record_bspline_run_is_refused_on_its_rows():
    # untuned, order 1 and k = 196 on 5 * 10^5 estimation records: the
    # whitened rows (design, whitening, norms and per-record values) are the
    # largest group
    run = EstimatorConfig(basis=BasisSpec("bspline", 1, 196, order=1), m=2)
    with pytest.raises(ValidationError, match="k=196, m=2 plans a peak of 2397536152 bytes, over "
                                              "the cap of 1073741824; its largest group, the "
                                              "whitened estimation rows, takes 1604000000 bytes"):
        plan_estimate(run, 5 * 10**5, 5 * 10**5)


def test_realizable_k_rounding():
    # k is the largest tensor size q**d of the family at most the rule's raw
    # size (n / (ln n)^3 under emp): a power-of-two q for Haar, any q >= 1
    # for B-splines
    for n, d, family, k in ((1000, 1, "haar", 2), (10**5, 1, "haar", 64), (10**5, 2, "haar", 64),
                            (10**4, 2, "haar", 4), (10**4, 2, "bspline", 9),
                            (10**5, 3, "bspline", 64), (100, 3, "haar", 1)):
        assert default_tuning(n, "emp", d, family)[0] == k


def test_confidence_interval():
    lo, hi = confidence_interval(0.0, 1.0 / 100.0, 0.95)
    assert (hi - lo) / 2.0 == pytest.approx(0.196, abs=5e-4)
    lo90, hi90 = confidence_interval(0.0, 1.0 / 100.0, 0.90)
    lo99, hi99 = confidence_interval(0.0, 1.0 / 100.0, 0.99)
    assert hi90 < hi < hi99
    with pytest.raises(ValidationError):
        confidence_interval(0.0, 0.0, 0.95)


def test_confidence_quantile_matches_scipy():
    from scipy import stats

    for level in np.linspace(0.5, 0.999, 200):
        lo, hi = confidence_interval(0.0, 1.0, float(level))
        assert abs(hi - stats.norm.ppf(0.5 * (1.0 + level))) <= 1e-15
        assert lo == -hi


@pytest.mark.parametrize("settings,message", [
    ({"nuisance_k_grid": (1, -4)}, "k_grid entries must be >= 1"),
    ({"nuisance_k_grid": (0, 2)}, "k_grid entries must be >= 1"),
    ({"nuisance_k_grid": ()}, "k_grid entries must be >= 1"),
    ({"nuisance_folds": 1}, "folds must be >= 2"),
    ({"nuisance_folds": 0}, "folds must be >= 2"),
    ({"nuisance_method": "seires"}, "unknown nuisance method 'seires'"),
])
def test_bad_nuisance_settings_rejected(settings, message):
    with pytest.raises(ValidationError, match=message):
        EstimatorConfig(**settings)


@pytest.mark.parametrize("settings,message", [
    ({"variant": "plugin"}, "unknown variant 'plugin'"),
    ({"split_fraction": 0.0}, r"split_fraction must be in \(0, 1\)"),
    ({"split_fraction": 1.0}, r"split_fraction must be in \(0, 1\)"),
    ({"split_fraction": float("nan")}, r"split_fraction must be in \(0, 1\)"),
])
def test_bad_variant_and_split_fraction_rejected(settings, message):
    with pytest.raises(ValidationError, match=message):
        EstimatorConfig(**settings)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, float("nan")])
def test_ci_level_outside_unit_interval_rejected(level):
    with pytest.raises(ValidationError, match=r"ci_level must be in \(0, 1\)"):
        EstimatorConfig(ci_level=level)


def test_nuisance_methods_accepted():
    for method in ("series", "zero"):
        assert EstimatorConfig(nuisance_method=method).nuisance_method == method
    with pytest.raises(ValidationError, match="unknown nuisance method 'oracle'"):
        EstimatorConfig(nuisance_method="oracle")
    # an override wins whatever the method: both give the override's psi_1
    data = generate(SCENARIOS["s1-smooth-d1"], 200, 3)
    runs = [estimate(data, EstimatorConfig(nuisance_method=method),
                     nuisance_override=zero_nuisance()) for method in ("series", "zero")]
    assert runs[0].psi_1 == runs[1].psi_1 == 0.0
    assert runs[0].psi_hat == runs[1].psi_hat


def test_golden_fixture_regression():
    data = dataset_from_csv(FIXTURES / "golden_data.csv")
    rep = estimate(data, golden_config())
    assert rep.psi_hat == GOLDEN_PSI_HAT
    assert rep.psi_1 == GOLDEN_PSI_1
    assert tuple(rep.per_order) == GOLDEN_PER_ORDER
    assert tuple(estimate(data, replace(golden_config(), m=4)).per_order) == GOLDEN_PER_ORDER_M4


def test_report_csv_row_parses():
    data = dataset_from_csv(FIXTURES / "golden_data.csv")
    rep = estimate(data, golden_config())
    header, line = table_csv(rep.CSV_COLUMNS, [rep.csv_row()]).splitlines()
    cols, row = header.split(","), line.split(",")
    assert len(row) == len(cols)
    assert float(row[cols.index("psi_hat")]) == GOLDEN_PSI_HAT
    assert row[cols.index("functional")] == "mar_mean"
    assert "psi_hat" in rep.text_block() or "psi_hat" in rep.text_block().replace(" ", "_")


def test_cross_fit_average_and_variance():
    data = generate(SCENARIOS["s4-span-exact"], 1200, 21)
    cfg = EstimatorConfig(basis=BasisSpec("haar", 1, 4), m=2, seed=5,
                          cross_fit=True)
    xf = estimate(data, cfg)
    single = replace(cfg, cross_fit=False)
    est, train = split_sample(data, cfg.split_fraction, cfg.seed)
    r_a = estimate_split(est, train, single)
    r_b = estimate_split(train, est, single)
    assert estimate(data, single).psi_hat == r_a.psi_hat
    assert xf.psi_hat == pytest.approx(0.5 * (r_a.psi_hat + r_b.psi_hat))
    assert xf.n_est == data.n and xf.n_tr == data.n
    assert 0.0 < xf.variance_est < max(r_a.variance_est, r_b.variance_est)


def test_ate_pipeline_combines_arms():
    data = generate(SCENARIOS["s4-ate"], 2000, 22)
    cfg = EstimatorConfig(functional="ate", basis=BasisSpec("haar", 1, 4),
                          m=2, seed=6)
    rep = estimate(data, cfg)
    assert rep.cfg.functional == "ate"
    assert rep.psi_hat == pytest.approx(0.15, abs=0.1)
    assert np.isfinite(rep.variance_est)


def test_reference_gram_distance_reported():
    # the report names the training Gram it inverted, so its distance to the
    # population Gram is measured from the report alone
    scn = SCENARIOS["s1-smooth-d1"]
    data = generate(scn, 800, 23)
    basis = build_basis(BasisSpec("haar", 1, 4))
    ref = quadrature_gram(basis, lambda x: scn.pi(x) * scn.f(x),
                          QuadratureSpec(256))
    cfg = EstimatorConfig(basis=basis, m=2, seed=7)
    rep = estimate(data, cfg)
    gram = rep.gram_diag.gram
    assert (gram.source, gram.k, gram.n_used) == ("empirical", 4, rep.n_tr)
    assert gram.entries.shape == (4,) and rep.gram_diag.inverse is None  # k * the cell masses
    again = invert_checked(gram)
    assert (again.eig_min, again.eig_max) == (rep.gram_diag.eig_min, rep.gram_diag.eig_max)
    assert 0.0 < op_norm_distance(gram, ref) < 1.0


def test_cross_fitted_ate_reports_fold_0_first_arm_gram_without_inverse():
    # every arm's inverse is dropped once its terms are summed, and each fold
    # keeps its first arm's report alone: the report names fold 0's first-arm
    # Gram bit for bit, with the verdict and eigen range of a run that kept
    # every arm's and fold's inverse
    cfg = EstimatorConfig(functional="ate", basis=BasisSpec("bspline", 1, 6, order=1), m=3,
                          seed=4, cross_fit=True)
    data = generate(SCENARIOS["s4-ate"], 1200, 9)
    diag = estimate(data, cfg).gram_diag
    _, training = split_sample(data, cfg.split_fraction, cfg.seed)
    spec = functionals.arm_specs("ate")[0]
    want = empirical_gram(cfg.basis, training, spec)
    assert np.array_equal(diag.gram.entries, want.entries)
    assert (diag.gram.source, diag.gram.n_used) == ("empirical", training.n)
    assert diag.invertible and diag.inverse is None
    assert (diag.eig_min.hex(), diag.eig_max.hex(), diag.condition_number.hex()) == (
        "0x1.b8300f45e8648p-4", "0x1.8b2fe11af8536p-1", "0x1.cba86a982eaaap+2")


def test_estimate_split_fixed_training():
    scn = SCENARIOS["s4-span-exact"]
    train = generate(scn, 1000, 31)
    cfg = EstimatorConfig(basis=BasisSpec("haar", 1, 4), m=3, seed=8)
    nuis = NuisanceSet(b_hat=lambda p: scn.b(p) - 0.5,
                       p_hat=lambda p: 1.0 / scn.pi(p) - 1.0)
    vals = []
    for s in (41, 42):
        est = generate(scn, 1000, s)
        rep = estimate_split(est, train, cfg, nuisance_override=nuis)
        vals.append(rep.psi_hat)
        assert rep.n_tr == 1000
    assert vals[0] != vals[1]


def test_report_labels_follow_config():
    data = generate(SCENARIOS["ecc-corr"], 600, 4)
    cfg = EstimatorConfig(functional="ecc", basis=BasisSpec("haar", 1, 2),
                          m=2, seed=3, ci_level=0.5)
    rep = estimate(data, cfg)
    assert rep.csv_row()["functional"] == "ecc"
    text = rep.text_block()
    assert "50% CI" in text and "95% CI" not in text
    # the label's number is the configured level, not a 6-digit rounding of it
    for level in (0.12345678, 0.999999999999):
        text = replace(rep, cfg=replace(cfg, ci_level=level)).text_block()
        label = next(line for line in text.splitlines() if "% CI" in line)
        assert float(label.split("%")[0]) == pytest.approx(100 * level, rel=0, abs=1e-12)


def test_nuisance_override_one_set_per_arm():
    data = generate(SCENARIOS["s4-ate"], 400, 3)
    cfg = EstimatorConfig(functional="ate", basis=BasisSpec("haar", 1, 2),
                          m=2, seed=1)
    zero = zero_nuisance()
    assert estimate(data, cfg, nuisance_override=(zero, zero)).psi_1 == 0.0
    with pytest.raises(ValidationError, match="needs 2 nuisance"):
        estimate(data, cfg, nuisance_override=zero)
    with pytest.raises(ValidationError, match="needs 1 nuisance"):
        estimate(data, replace(cfg, functional="mar_mean"),
                 nuisance_override=(zero, zero))


def test_fewer_estimation_records_than_order_rejected():
    rng = np.random.default_rng(8)
    est = Dataset(rng.random((3, 1)), np.ones(3), rng.random(3))
    training = Dataset(rng.random((2, 1)), np.ones(2), rng.random(2))
    cfg = EstimatorConfig(basis=BasisSpec("haar", 1, 1), m=4, nuisance_method="zero")
    with pytest.raises(ValidationError, match="m=4 needs at least 4 estimation records"):
        estimate_split(est, training, cfg)
    with pytest.raises(ValidationError, match="at least 4"):
        estimate_split(est, training, replace(cfg, cross_fit=True))


@pytest.mark.parametrize("m", [5, 6])
def test_orders_up_to_the_cap_match_brute_force(m):
    # the pipeline runs every order ustat accepts: on a tiny Haar sample each
    # term equals the enumeration over the same ChainInputs, and the report
    # row fills that order's column
    rng = np.random.default_rng(40 + m)

    def draw(n):
        a = (np.arange(n) % 4 != 1) * 1.0  # every fourth record unobserved
        return Dataset(rng.random((n, 1)), a, a * rng.random(n))

    est, training = draw(8), draw(12)
    nuis = NuisanceSet(b_hat=lambda p: 0.2 + 0.5 * p[:, 0], p_hat=lambda p: 1.5 - p[:, 0])
    cfg = EstimatorConfig(basis=BasisSpec("haar", 1, 2), m=m)
    rep = estimate_split(est, training, cfg, nuisance_override=nuis)
    spec, basis = mar_mean_spec(), build_basis(cfg.basis)
    _, eps_p, eps_b = influence(spec, est, nuis.b_hat(est.x), nuis.p_hat(est.x))
    inp = ChainInputs(eps_p=eps_p, eps_b=eps_b, abs_h1=spec.abs_h1(est),
                      zmat=basis.evaluate_many(est.x), sign_flag=spec.sign_flag,
                      omega_inv=invert_checked(empirical_gram(basis, training, spec)).inverse)
    assert not rep.zero_convention_applied and len(rep.per_order) == m - 1
    row = rep.csv_row()
    for j, term in enumerate(rep.per_order, start=2):
        ref = brute_force_ifjj(j, inp)
        assert abs(term - ref) <= 1e-10 * (1.0 + abs(ref))
        assert row[f"per_order_{j}"] == term
    assert math.isnan(row["per_order_6"]) == (m == 5)


@pytest.mark.parametrize("functional,most", [("ate", 8), ("mar_mean", 6)])
def test_basis_evaluated_once_per_sample_per_fold(monkeypatch, functional, most):
    # per fold: the k-grid designs and the Gram design share one evaluation
    # on the training sample, zmat is one on the estimation sample, and the
    # arms share all three; each fitted nuisance evaluates its own basis once
    calls = []
    original = BasisSpec.evaluate_many
    monkeypatch.setattr(BasisSpec, "evaluate_many",
                        lambda self, x: calls.append(len(x)) or original(self, x))
    data = generate(SCENARIOS["s4-ate"], 2000, 31)
    cfg = EstimatorConfig(functional=functional, basis=BasisSpec("haar", 1, 4), m=3,
                          seed=4, nuisance_k_grid=(1, 2, 4))
    estimate(data, cfg)
    single = len(calls)
    assert single <= most
    calls.clear()
    estimate(data, replace(cfg, cross_fit=True))
    assert len(calls) == 2 * single


@pytest.mark.parametrize("variant,most", [("ac", 9), ("emp", 8)])
def test_grid_design_shared_by_the_arms(monkeypatch, variant, most):
    # B-splines: both arms' ac Grams come from one evaluation of the basis on
    # the 256-node quadrature grid per fold; emp never evaluates the grid
    calls = []
    original = BasisSpec.evaluate_many
    monkeypatch.setattr(BasisSpec, "evaluate_many",
                        lambda self, x: calls.append(len(x)) or original(self, x))
    data = generate(SCENARIOS["s4-ate"], 2000, 31)
    cfg = EstimatorConfig(functional="ate", basis=BasisSpec("bspline", 1, 4, order=2), m=3,
                          seed=4, variant=variant, nuisance_k_grid=(1, 2, 4))
    estimate(data, cfg)
    assert len(calls) <= most
    assert calls.count(256) == (variant == "ac")
    calls.clear()
    estimate(data, replace(cfg, cross_fit=True))
    assert len(calls) <= 2 * most
    assert calls.count(256) == 2 * (variant == "ac")


@pytest.mark.parametrize("spec", [BasisSpec("bspline", 1, 6, order=2),
                                  BasisSpec("bspline", 2, 4, order=2)])
def test_bspline_ac_gram_bit_for_bit(spec):
    # on a power-of-two grid the ac Gram, (1/N) sum g_hat z z^T over the N
    # nodes, is bit for bit the rule's sum of g_hat * w * z z^T
    cfg = EstimatorConfig(basis=spec, m=2, seed=3, variant="ac")
    data = generate(SCENARIOS["s2-smooth-d2" if spec.dimension == 2 else "s1-smooth-d1"],
                    1500, 8)
    gram = estimate(data, cfg).gram_diag.gram
    _, training = split_sample(data, cfg.split_fraction, cfg.seed)
    basis = build_basis(spec)
    nodes, w, z = node_rows(basis, basis_quadrature(spec))
    g = density_cells(training, basis, mar_mean_spec().abs_h1(training),
                      cfg.sigma_floor)[basis.cells(nodes)]
    entries = (z * (g * w)[:, None]).T @ z
    assert np.array_equal(gram.entries, 0.5 * (entries + entries.T))


@pytest.mark.parametrize("d", [1, 2])
def test_haar_ac_gram_bit_for_bit(d):
    # the Haar ac Gram is over one node per cell, weighted by the density
    # estimate there: its eigenvalues are k * (g_hat / k), bit for bit, with
    # n_used = k
    spec = BasisSpec("haar", d, 4)
    cfg = EstimatorConfig(basis=spec, m=2, seed=3, variant="ac")
    data = generate(SCENARIOS["s2-smooth-d2" if d == 2 else "s1-smooth-d1"], 1500, 8)
    gram = estimate(data, cfg).gram_diag.gram
    _, training = split_sample(data, cfg.split_fraction, cfg.seed)
    basis = build_basis(spec)
    g = density_cells(training, basis, mar_mean_spec().abs_h1(training), cfg.sigma_floor)
    assert np.array_equal(gram.entries, basis.k * (g / basis.k))
    assert (gram.entries.shape, gram.source, gram.n_used) == ((basis.k,), "quadrature", basis.k)


def test_haar_emp_evaluates_the_basis_on_no_record(monkeypatch):
    # Haar emp runs in cell space: designs, fits, predictions, Grams and
    # terms read each record's cell, and the basis is evaluated nowhere, in
    # an estimate and in a study with its reference Gram
    monkeypatch.setattr(BasisSpec, "evaluate_many", lambda *a: pytest.fail("evaluated"))
    scn = SCENARIOS["s2-smooth-d2"]
    cfg = EstimatorConfig(basis=BasisSpec("haar", 2, 4), m=3, nuisance_k_grid=(1, 4, 16))
    estimate(generate(scn, 2000, 5), cfg)
    run_study(scn, cfg, reps=2, seed=1, n=2000)


def test_haar_ac_evaluates_the_basis_on_no_record_or_node(monkeypatch):
    # Haar ac takes its Gram from the density estimate's per-cell values: the
    # basis is evaluated nowhere, in a two-arm cross-fitted estimate and in a
    # study, and one midpoint per cell integrates the estimate exactly
    monkeypatch.setattr(BasisSpec, "evaluate_many", lambda *a: pytest.fail("evaluated"))
    cfg = EstimatorConfig(functional="ate", basis=BasisSpec("haar", 1, 4), m=3, seed=4,
                          variant="ac", cross_fit=True, nuisance_k_grid=(1, 2, 4))
    rep = estimate(generate(SCENARIOS["s4-ate"], 2000, 31), cfg)
    assert (rep.gram_diag.gram.source, rep.gram_diag.gram.n_used) == ("quadrature", 4)
    scn = SCENARIOS["s2-smooth-d2"]
    run_study(scn, EstimatorConfig(basis=BasisSpec("haar", 2, 4), m=3, variant="ac",
                                   nuisance_k_grid=(1, 4, 16)), reps=2, seed=1, n=2000)


@pytest.mark.parametrize("settings", [
    {}, {"variant": "ac"}, {"functional": "ate"}, {"cross_fit": True},
    {"functional": "ate", "variant": "ac", "cross_fit": True, "m": 6},
], ids=["emp", "ac", "ate", "cross-fit", "ate-ac-cross-fit-m6"])
def test_haar_runs_no_eigendecomposition(monkeypatch, settings):
    # a cell Gram's eigenvalues are k times its cell masses: Haar estimates
    # and a Haar study judge, report and compare their Grams without eigh or
    # eigvalsh
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda *a, name=name, **kw: pytest.fail(name))
    cfg = replace(EstimatorConfig(basis=BasisSpec("haar", 1, 8), m=3, seed=2), **settings)
    scn = SCENARIOS["s4-ate" if cfg.functional == "ate" else "s1-smooth-d1"]
    rep = estimate(generate(scn, 2000, 6), cfg)
    assert rep.gram_diag.invertible and not rep.zero_convention_applied
    if not settings:
        result = run_study(scn, cfg, reps=3, seed=2, n=600, threads=1)
        assert all(row["op_dist"] > 0.0 for row in result.rows)


def test_haar_ac_at_k4096_holds_no_k_by_k_array():
    # Haar ac at k = 4096 (d = 2): the estimate allocates less than one
    # k x k float64 array (134 MB) at its peak
    cfg = EstimatorConfig(basis=BasisSpec("haar", 2, 64), m=4, variant="ac")
    data = generate(SCENARIOS["s2-smooth-d2"], 20000, 3)
    tracemalloc.start()
    rep = estimate(data, cfg)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert rep.gram_diag.gram.entries.shape == (4096,)
    assert peak < 8 * 4096**2


def _recorded_cell_terms(monkeypatch) -> list:
    # the CellInputs of every cell_terms call the estimator makes
    recorded = []
    original = estimator.cell_terms
    monkeypatch.setattr(estimator, "cell_terms",
                        lambda inputs, m: recorded.append(inputs) or original(inputs, m))
    return recorded


def _s2_draw() -> Dataset:
    return generate(SCENARIOS["s2-smooth-d2"], 20000, 1)


@pytest.mark.parametrize("data,cfg", [
    (lambda: dataset_from_csv(FIXTURES / "golden_data.csv"), replace(golden_config(), m=6)),
    (_s2_draw, EstimatorConfig(basis=BasisSpec("haar", 2, 8), m=5)),
], ids=["golden-m6", "s2-k64-m5"])
def test_haar_ac_equals_emp_without_a_floored_cell(monkeypatch, data, cfg):
    # the density estimate is a histogram on the basis's own cells, so when
    # no cell is floored its integral over each cell is the cell's training
    # mass, and the ac Gram is the emp Gram up to rounding
    data = data()
    training = split_sample(data, cfg.split_fraction, cfg.seed)[1]
    basis = build_basis(cfg.basis)
    hist = np.bincount(basis.cells(training.x), np.abs(mar_mean_spec().h1(training)),
                       basis.k) / training.n * basis.k
    assert hist.min() > cfg.sigma_floor  # no cell is floored
    masses = _recorded_cell_terms(monkeypatch)
    emp, ac = (estimate(data, replace(cfg, variant=v)) for v in ("emp", "ac"))
    np.testing.assert_allclose(masses[1].mass, masses[0].mass, rtol=1e-12, atol=0.0)
    assert abs(ac.psi_hat - emp.psi_hat) <= 1e-12 * abs(emp.psi_hat)
    assert len(ac.per_order) == cfg.m - 1
    for a, e in zip(ac.per_order, emp.per_order, strict=True):
        assert abs(a - e) <= 1e-12 * abs(e)


@pytest.mark.parametrize("data,cfg,bound", [
    (lambda: dataset_from_csv(FIXTURES / "golden_data.csv"), replace(golden_config(), m=6),
     1e-11),
    (_s2_draw, EstimatorConfig(basis=BasisSpec("haar", 2, 8), m=5), 1e-10),
], ids=["golden-m6", "s2-k64-m5"])
def test_haar_ac_terms_match_long_double(monkeypatch, data, cfg, bound):
    # the report's Haar ac terms are cell_terms of the fold's inputs, and
    # those match the partition-by-partition long-double sums, per order,
    # relative.  Worst errors seen: 1.2e-13 (IF66) on the golden fixture; at
    # k = 64, m = 5, 3.9e-14 on this draw and 1.2e-11 over five s2-smooth-d2
    # draws, at an IF55 of 1.8e-7 whose chain sums cancel
    recorded = _recorded_cell_terms(monkeypatch)
    rep = estimate(data(), replace(cfg, variant="ac"))
    (inputs,) = recorded
    assert rep.per_order == cell_terms(inputs, cfg.m)
    for fast, ref in zip(rep.per_order, longdouble_cell_terms(inputs, cfg.m), strict=True):
        assert abs(fast - ref) <= bound * abs(ref)


# IF22..IF44 of an order-0 B-spline at q = 14 (k = 196), emp, on est-k64-m4's
# input, from the tensor route, which every order-0 B-spline took until the
# cell route served any q; m = 5 planned 47.5 GB of block tensors there
TENSOR_ROUTE_Q14_M4 = (-0.005042421080357253, 0.00038225888249255463, -0.0014906246482803906)


def _est_k64_m4_input(tmp_path) -> Dataset:
    """The input of perfbench's est-k64-m4 workload: 20000 records of seed 0."""
    path = Path(__file__).parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    inputs.write_csv(tmp_path / "input.csv", 20_000, 0)
    return dataset_from_csv(tmp_path / "input.csv")


def test_order0_bspline_at_q14_takes_the_cell_route(monkeypatch, tmp_path):
    # at a q no Haar basis has, the cell route's m = 4 terms match the tensor
    # route's within 1e-13 relative (worst 6.8e-15: the terms and the
    # nuisance fits' per-cell means move at rounding); it runs m = 5 and
    # matches the long-double cell oracle within 1e-12 (worst seen: 3.1e-15)
    data = _est_k64_m4_input(tmp_path)
    recorded = _recorded_cell_terms(monkeypatch)
    cfg = EstimatorConfig(basis=BasisSpec("bspline", 2, 14), m=5)
    four = estimate(data, replace(cfg, m=4))
    for fast, want in zip(four.per_order, TENSOR_ROUTE_Q14_M4, strict=True):
        assert abs(fast - want) <= 1e-13 * abs(want)
    five = estimate(data, cfg)
    assert five.per_order[:3] == four.per_order
    for fast, ref in zip(five.per_order, longdouble_cell_terms(recorded[-1], 5), strict=True):
        assert abs(fast - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("functional", ["mar_mean", "ate", "ecc"])
@pytest.mark.parametrize("family", ["haar", "bspline"])
def test_each_evaluator_runs_once_per_sample(monkeypatch, functional, family):
    # one checked |h1| per sample and one influence pass on the estimation
    # sample: per arm, h1 once on the training sample and at most twice on
    # the estimation sample, h2..h4 once on the estimation sample only
    calls = {}

    def counted(spec):
        def wrap(name):
            def h(dat):
                key = (spec.id, name, dat.n)
                calls[key] = calls.get(key, 0) + 1
                return getattr(spec, name)(dat)
            return h
        return replace(spec, **{name: wrap(name) for name in ("h1", "h2", "h3", "h4")})

    arm_specs = estimator.fn.arm_specs
    monkeypatch.setattr(estimator.fn, "arm_specs",
                        lambda f: tuple(counted(spec) for spec in arm_specs(f)))
    data = generate(SCENARIOS["s4-ate" if functional == "ate" else "s1-smooth-d1"], 301, 5)
    n_est, n_tr = 151, 150
    basis = BasisSpec(family, 1, 4, order=2 if family == "bspline" else 0)
    for variant in ("emp", "ac"):
        for m in (1, 3):
            calls.clear()
            rep = estimate(data, EstimatorConfig(functional=functional, basis=basis, m=m,
                                                 variant=variant))
            assert (rep.n_est, rep.n_tr) == (n_est, n_tr)
            for spec in arm_specs(functional):
                assert calls.pop((spec.id, "h1", n_tr)) == 1
                assert 1 <= calls.pop((spec.id, "h1", n_est)) <= 2
                for name in ("h2", "h3", "h4"):
                    assert calls.pop((spec.id, name, n_est)) == 1
            assert calls == {}
