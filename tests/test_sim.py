import csv
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from hoif import cli, sim
from hoif.basis import BasisSpec, build_basis
from hoif.data import ValidationError
from hoif.estimator import EstimatorConfig, estimate
from hoif.gram import node_rows, op_norm_distance, population_gram, quadrature_gram
from hoif.nuisance import NuisanceSet, zero_nuisance
from hoif.quadrature import QuadratureSpec, basis_quadrature
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

# frozen truth and efficiency-bound values, bit for bit; computed once by the
# checked quadrature and pinned so any scenario or quadrature drift fails loudly
FROZEN = {
    "s1-smooth-d1": (0.43333333333333335, 0.37449092435154774),
    "s2-smooth-d2": (0.42844444444443797, 0.4152387409522961),
    "s3-holder-d2": (0.5, 0.39236011248349034),
    "s4-span-exact": (0.4499999999999999, 0.4725000000000001),
    "s4-ate": (0.15000000000000002, 0.9191666666666665),
    "s5-ecc-indep": (0.0, 0.057471666666665124),
    "ecc-corr": (0.075, 0.05484666666666514),
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
    # the pair a study reads for a registry scenario is the checked quadrature's
    scn = SCENARIOS[sid]
    assert sim.TRUTH[sid] == (true_psi(scn), efficiency_bound(scn)) == FROZEN[sid]


def test_scenario_registry_complete():
    # a registry scenario cannot ship without its recorded truth
    assert set(FROZEN) == set(SCENARIOS)
    assert sim.TRUTH.keys() == SCENARIOS.keys()
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


def test_generate_rejects_an_empty_draw():
    for n in (0, -3):
        with pytest.raises(ValidationError, match="n must be positive"):
            generate(SCENARIOS["s1-smooth-d1"], n, 1)


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


@pytest.mark.parametrize("change,message", [
    ({"pi": lambda x: np.full(x.shape[0], 0.3)}, "pi outside [sigma, 1]"),
    ({"b": lambda x: 1.5 * x[:, 0]}, "regression outside [0, 1]"),
    # unit mass, negative below x = 1/4
    ({"f": lambda x: 4.0 * x[:, 0] - 1.0}, "negative density"),
])
def test_validate_rejects_broken_invariants(change, message):
    bad = replace(constant_scenario(pi_val=0.8), id="broken", **change)
    with pytest.raises(ValidationError) as err:
        validate_scenario(bad)
    assert str(err.value) == f"broken: {message}"


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


def assert_no_child_left():
    # raw OS children, reaped or not: waitpid returns (0, 0) for a running
    # child and reaps a finished one that nobody waited for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    # at threads >= 2 forked workers run replications beside the study
    # process; they inherit the study, so a factory closing over a local
    # (which pickle refuses) runs, the bytes match threads=1 and no worker
    # outlives the call
    scale = 0.9

    def oracle_factory(scn, cfg):
        return NuisanceSet(b_hat=lambda x: scale * scn.b(x), p_hat=lambda x: 1.0 / scn.pi(x))

    scn, cfg = SCENARIOS["s2-smooth-d2"], EstimatorConfig(basis=BasisSpec("haar", 2, 4), m=3)
    r1, r2, r4 = (run_study(scn, cfg, reps=7, seed=11, n=400, threads=t,
                            nuisance_factory=oracle_factory) for t in (1, 2, 4))
    assert_no_child_left()
    assert r1.rows_csv() == r2.rows_csv() == r4.rows_csv()
    assert r1.aggregates_csv() == r2.aggregates_csv() == r4.aggregates_csv()
    assert r1.aggregate["reps_ok"] == 7 and r1.aggregate["coverage"] is not None


def test_forked_programming_error_fails_the_study():
    # the forked worker and the study process take replications from one
    # counter, so either may raise the error; it is chosen by the
    # replication's seed, since a call counter would count in each process
    # separately.  The worker's re-raise path has its own test below
    bad_seed = sim._rep_seed(1, 4)

    def buggy_factory(scn, cfg):
        if cfg.seed == bad_seed:
            raise TypeError("unsupported operand")
        return zero_nuisance()

    with pytest.raises(TypeError, match="unsupported operand"):
        run_study(SCENARIOS["s1-smooth-d1"], study_cfg(), reps=30, seed=1, n=100,
                  threads=2, nuisance_factory=buggy_factory)
    assert_no_child_left()


def _worker_fault(fault):
    """A replication function under which the forked worker runs ``fault`` on
    the first replication it takes, while the study process holds its own
    first replication until the worker has taken one."""
    taken, study = multiprocessing.get_context("fork").Event(), os.getpid()

    def work(rep):
        if os.getpid() == study:
            assert taken.wait(60), "the worker took no replication"
            return rep
        taken.set()
        fault(rep)

    return work


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_forked_worker_exception_is_raised_with_its_traceback():
    def fault(rep):
        raise KeyError(f"replication {rep}")

    work = _worker_fault(fault)
    with pytest.raises(KeyError, match="replication") as raised:
        sim._map_reps(work, 4, 2)
    cause = raised.value.__cause__
    assert isinstance(cause, RuntimeError)
    assert str(cause).startswith("in a study worker:\nTraceback")
    assert "KeyError: 'replication" in str(cause)
    assert_no_child_left()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_forked_worker_that_exits_without_rows_fails_the_map():
    work = _worker_fault(lambda rep: os._exit(3))
    with pytest.raises(RuntimeError, match=r"study worker \d+ exited with code 3 before "
                                           r"sending its rows"):
        sim._map_reps(work, 4, 2)
    assert_no_child_left()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_map_started_while_another_forks_returns_both_maps_rows(monkeypatch):
    # a map started from os.fork, while another map forks its worker, runs and
    # ends before that worker exists; each worker is handed its own map's
    # function, so the outer worker does not read whatever the inner map left
    real_fork, started, inner = os.fork, [], []

    def fork():
        if not started:
            started.append(1)
            inner.append(sim._map_reps(lambda rep: -rep, 3, 2))
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    taken, study = multiprocessing.get_context("fork").Event(), os.getpid()

    def work(rep):
        # the study process holds its first replication until the worker has
        # run one, so the outer worker always calls its function
        if os.getpid() == study:
            taken.wait(30)
        else:
            taken.set()
        return rep

    assert sim._map_reps(work, 4, 2) == [0, 1, 2, 3]
    assert taken.is_set() and inner == [[0, -1, -2]]
    assert_no_child_left()


def test_map_at_one_thread_forks_nothing(monkeypatch):
    # threads = 1 drains the same counter in this process alone
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert sim._map_reps(lambda rep: rep * rep, 5, 1) == [0, 1, 4, 9, 16]
    assert_no_child_left()


def test_truth_failure_during_a_forked_study_leaves_no_worker(monkeypatch):
    # a spec outside the registry integrates its target before the fork, so
    # its failure fails the study before any worker starts
    def unconverged(scn):
        raise ValidationError("quadrature did not converge")

    monkeypatch.setattr(sim, "true_psi", unconverged)
    scn = replace(SCENARIOS["s1-smooth-d1"], id="s1-copy")
    with pytest.raises(ValidationError, match="did not converge"):
        run_study(scn, study_cfg(), reps=6, seed=2, n=300, threads=2)
    assert_no_child_left()


_KILLED_STUDY = """
import os, sys, time
from hoif.basis import BasisSpec
from hoif.estimator import EstimatorConfig
from hoif.nuisance import zero_nuisance
from hoif.sim import SCENARIOS, run_study

def factory(scn, cfg):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(0.05)
    return zero_nuisance()

run_study(SCENARIOS["s1-smooth-d1"], EstimatorConfig(basis=BasisSpec("haar", 1, 4), m=2),
          reps=2000, seed=1, n=100, threads=2, nuisance_factory=factory)
"""


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_workers_exit_when_the_study_process_is_killed(tmp_path):
    # a study killed by a signal it cannot handle never kills its workers;
    # they must notice and exit rather than run the study to its end
    env = {**os.environ, "PYTHONPATH": str(Path(sim.__file__).resolve().parent.parent)}
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_STUDY, str(tmp_path)], env=env)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.05)
            workers = [int(p.name) for p in tmp_path.iterdir()]
        # threads=2: the study process and one forked worker run replications
        assert len(workers) == 2 and proc.pid in workers
        workers.remove(proc.pid)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        proc.kill()
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("threads,reps,workers", [(2, 6, 1), (3, 6, 2), (5, 3, 3)])
def test_forked_study_runs_on_threads_processes(monkeypatch, tmp_path, threads, reps, workers):
    # threads - 1 workers (at most one per replication) are forked, and the
    # study process takes replications beside them; the workers sleep so
    # that some are left for it when reps exceeds them
    real_fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    study_pid = os.getpid()

    def factory(scn, cfg):
        (tmp_path / f"{cfg.seed}-{os.getpid()}").touch()
        if os.getpid() != study_pid:
            time.sleep(0.2)
        return zero_nuisance()

    result = run_study(SCENARIOS["s1-smooth-d1"], study_cfg(), reps=reps, seed=3, n=100,
                       threads=threads, nuisance_factory=factory)
    assert_no_child_left()
    assert len(forks) == workers
    assert result.aggregate["reps_ok"] == reps
    pids = [int(f.name.split("-")[1]) for f in tmp_path.iterdir()]
    assert len(pids) == reps
    if reps > workers:
        assert study_pid in pids


def test_over_cap_study_refused_before_truth_gram_or_fork(monkeypatch):
    # every replication splits its n records alike, so the study's plan refuses
    # m = 6 at k = 64 once, before the truth, the reference Gram, any draw or
    # any fork, where it had lost all 20 replications to the same refusal
    real_fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    for name in ("true_psi", "population_gram", "generate"):
        monkeypatch.setattr(sim, name, lambda *a, **kw: pytest.fail("built"))
    scn = replace(SCENARIOS["s2-smooth-d2"], id="s2-copy")  # off the registry: integrated
    cfg = EstimatorConfig(basis=BasisSpec("bspline", 2, 8, order=2), m=6)
    with pytest.raises(ValidationError, match="the tensor route at k=64, m=6 plans a peak of "
                                              r"\d+ bytes.*the block tensors"):
        run_study(scn, cfg, reps=20, seed=0, n=2000, threads=2)
    assert forks == []


def test_study_too_small_for_its_basis_refused_before_truth_gram_or_fork(monkeypatch):
    # n = 40 leaves 20 training records for a k = 64 empirical Gram: the
    # study's plan refuses the record count once, with the estimate's message,
    # where all 200 replications had failed on it
    real_fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    for name in ("true_psi", "population_gram", "generate"):
        monkeypatch.setattr(sim, name, lambda *a, **kw: pytest.fail("built"))
    scn = replace(SCENARIOS["s2-smooth-d2"], id="s2-copy")  # off the registry: integrated
    with pytest.raises(ValidationError, match="basis size k=64 exceeds the 20 training records "
                                              "the empirical Gram is built on"):
        run_study(scn, EstimatorConfig(basis=BasisSpec("haar", 2, 8)), reps=200, seed=0, n=40,
                  threads=2)
    assert forks == []


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_forked_map_of_many_items_keeps_order_and_does_not_block():
    # 20 000 indices are more than a pipe holds, as the worker's reply may be:
    # neither may be written before somebody reads it
    def timeout(signum, frame):
        raise TimeoutError("_map_reps blocked")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        rows = sim._map_reps(lambda rep: rep, 20_000, 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()
    assert rows == list(range(20_000))


def test_run_study_cross_fit_uses_nuisance_factory():
    cfg = EstimatorConfig(basis=BasisSpec("haar", 1, 4), m=2, cross_fit=True)
    result = run_study(SCENARIOS["s1-smooth-d1"], cfg, reps=3, seed=4, n=400,
                       nuisance_factory=lambda scn, cfg: zero_nuisance())
    assert [r["psi_1"] for r in result.rows] == [0.0, 0.0, 0.0]


def _counted_quadratures(monkeypatch) -> list:
    calls = []
    original = sim._checked_integral
    monkeypatch.setattr(sim, "_checked_integral",
                        lambda fn, d: calls.append(d) or original(fn, d))
    return calls


def test_registry_study_reads_its_recorded_truth(monkeypatch):
    # a registry scenario's target and efficiency bound are recorded in TRUTH
    calls = _counted_quadratures(monkeypatch)
    scn = SCENARIOS["s1-smooth-d1"]
    result = run_study(scn, study_cfg(), reps=2, seed=3, n=100)
    assert calls == []
    assert (result.psi_true, result.aggregate["eff_bound"]) == FROZEN[scn.id]


def test_run_study_runs_each_quadrature_once(monkeypatch):
    # any other spec integrates its own pair: one checked quadrature for psi
    # and one for the efficiency bound; a registry id with a changed
    # regression never inherits the recorded pair
    calls = _counted_quadratures(monkeypatch)
    base = SCENARIOS["s1-smooth-d1"]
    half = replace(base, b=lambda x: np.full(x.shape[0], 0.5))
    for scn, psi in ((replace(base, id="s1-copy"), FROZEN[base.id][0]), (half, 0.5)):
        calls.clear()
        result = run_study(scn, study_cfg(), reps=2, seed=3, n=100)
        assert len(calls) == 2
        assert result.psi_true == pytest.approx(psi, abs=1e-12)
        assert result.aggregate["eff_bound"] == efficiency_bound(scn)


def test_run_study_builds_each_basis_once(monkeypatch):
    # the pipeline never reads the locality constant, so a study evaluates no
    # certification grid, however many replications build a basis
    from hoif import basis

    certified = []
    original = basis._axis_cells  # the cell evaluator of every order-0 row and cell

    def spy(q, xs):
        if xs.shape[0] == basis.CERT_GRID_PER_DIM:
            certified.append(q)
        return original(q, xs)

    monkeypatch.setattr(basis, "_axis_cells", spy)
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

    # the study names why: the first failed replication's error
    with pytest.raises(ValidationError, match="^4/4 replications failed, first: "
                                              "ValidationError: nuisance backend down$"):
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


def test_replication_error_with_a_comma_is_quoted(tmp_path):
    # a failed replication's message is free text: quoted, its line keeps the
    # header's width and the report reader gives the message back unchanged
    message = 'bad draw, second clause "quoted"'
    calls = []

    def flaky_factory(scn, cfg):
        calls.append(cfg.seed)
        if len(calls) == 3:
            raise ValidationError(message)
        return zero_nuisance()

    result = run_study(SCENARIOS["s1-smooth-d1"], study_cfg(), reps=30, seed=1, n=100,
                       nuisance_factory=flaky_factory)
    path = tmp_path / "replications.csv"
    path.write_text(result.rows_csv(("probe",)))
    lines = path.read_text().splitlines()
    parsed = list(csv.reader(lines[1:]))
    assert parsed[0] == sim.ROW_COLUMNS.split(",")
    assert len(parsed) == 31 and all(len(row) == len(parsed[0]) for row in parsed)
    cols, rows = cli._read_csv_rows(str(path))
    assert cols == parsed[0]
    assert [r["error"] for r in rows if r["error"]] == [f"ValidationError: {message}"]


def test_op_dist_measures_the_gram_each_estimate_inverted():
    # a row's op_dist is the distance from its estimate's reported Gram (fold
    # 0, first arm) to the scenario's population Gram, which a Haar study
    # takes from the quadrature weights summed per cell; the dense Gram of
    # those masses, built from the cell rows, is the quadrature Gram
    scn = SCENARIOS["s1-smooth-d1"]
    cfg = study_cfg()
    result = run_study(scn, cfg, reps=3, seed=4, n=300)
    basis, quad = build_basis(cfg.basis), basis_quadrature(cfg.basis)
    ref = population_gram(basis, weighted_density(scn), quad)
    mass, rows = ref.entries / basis.k, node_rows(basis, QuadratureSpec(basis.per_dim_size))[2]
    dense = quadrature_gram(basis, weighted_density(scn), quad)
    np.testing.assert_allclose((rows.T * mass) @ rows, dense.entries, rtol=0, atol=1e-15)
    for row in result.rows:
        run_cfg = replace(cfg, seed=row["seed"], functional=scn.functional)
        rep = estimate(generate(scn, 300, row["seed"]), run_cfg)
        assert row["op_dist"] == op_norm_distance(rep.gram_diag.gram, ref)
        assert row["op_dist"] == pytest.approx(op_norm_distance(rep.gram_diag.gram, dense),
                                               rel=1e-12, abs=0.0)


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
