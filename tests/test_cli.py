import itertools
import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoif import cli, estimator, sim, ustat
from hoif.basis import Basis, BasisSpec, build_basis
from hoif.cli import (
    EXIT_INTERNAL,
    EXIT_VALIDATION,
    EXIT_ZERO_CONVENTION,
    build_parser,
    config_hash,
    estimator_config,
    load_config,
    main,
    parse_config_text,
    render_config,
    write_resolved_config,
)
from hoif.data import Dataset, ValidationError, dataset_to_csv
from hoif.estimator import EstimatorConfig, default_tuning, estimation_size
from hoif.sim import SCENARIOS, generate

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden_data.csv"


def test_parse_config_text():
    cfg = parse_config_text(
        "# comment\nfunctional = mar_mean\nm=3\nnuisance.k_grid=1;2;4\n"
        "cross_fit=true\n",
        "inline",
    )
    assert cfg == {"functional": "mar_mean", "m": 3,
                   "nuisance.k_grid": (1, 2, 4), "cross_fit": True}


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValidationError, match="unknown key 'bogus'"):
        parse_config_text("bogus=1", "inline")
    with pytest.raises(ValidationError, match="inline:1"):
        parse_config_text("no equals sign", "inline")
    with pytest.raises(ValidationError, match="bad value"):
        parse_config_text("m=three", "inline")


def test_config_typos_exit_validation(tmp_path, capsys):
    for text, value in (("1", True), ("TRUE", True), ("Yes", True),
                        ("0", False), ("false", False), ("NO", False)):
        assert parse_config_text(f"cross_fit={text}", "inline") == {"cross_fit": value}
    for text in ("default", "manual"):
        assert parse_config_text(f"tuning={text}", "inline") == {"tuning": text}
    # a misspelt value must not quietly run as cross_fit=false or manual tuning
    for i, (key, value) in enumerate((("cross_fit", "ture"), ("cross_fit", "on"),
                                      ("tuning", "defualt"), ("tuning", "Default"))):
        rc = main(["estimate", "--input", str(GOLDEN), "--out", str(tmp_path / f"o{i}"),
                   "--set", f"{key}={value}"])
        assert rc == EXIT_VALIDATION
        assert f"bad value for {key}" in capsys.readouterr().err
        assert not (tmp_path / f"o{i}").exists()


def test_load_config_overrides_and_env(tmp_path, monkeypatch):
    path = tmp_path / "cfg.txt"
    path.write_text("m=2\nseed=1\n")
    cfg = load_config(str(path), ["m=4"], "estimate")
    assert cfg["m"] == 4 and cfg["seed"] == 1
    monkeypatch.setenv("HOIF_SEED", "99")
    assert load_config(str(path), [], "estimate")["seed"] == 99


def test_config_file_with_a_byte_order_mark(tmp_path):
    # a UTF-8 byte-order mark before the first key loads the same keys
    text = "m=3\nseed=7\nvariant=ac\n"
    (tmp_path / "plain.txt").write_text(text)
    (tmp_path / "bom.txt").write_bytes(b"\xef\xbb\xbf" + text.encode())
    plain = load_config(str(tmp_path / "plain.txt"), [], "estimate")
    assert load_config(str(tmp_path / "bom.txt"), [], "estimate") == plain == {
        "m": 3, "seed": 7, "variant": "ac"}


def test_config_hash_order_independent():
    assert config_hash({"m": 2, "seed": 1}) == config_hash({"seed": 1, "m": 2})
    assert config_hash({"m": 2}) != config_hash({"m": 3})


def test_cached_locality_constant_is_no_part_of_a_config(tmp_path):
    # a spec caches the constant once read; equal specs stay equal, hash
    # alike and echo the same resolved config whichever of them has read it
    read, fresh = BasisSpec("bspline", 2, 4, order=1), BasisSpec("bspline", 2, 4, order=1)
    assert read.locality_constant > 0
    assert "locality_constant" in vars(read) and "locality_constant" not in vars(fresh)
    assert read == fresh and hash(read) == hash(fresh)
    runs = [EstimatorConfig(basis=read, m=3), EstimatorConfig(basis=fresh, m=3)]
    assert runs[0] == runs[1] and hash(runs[0]) == hash(runs[1])
    echoes = [render_config(run) for run in runs]
    assert config_hash(echoes[0]) == config_hash(echoes[1])
    for echo, out in zip(echoes, ("read", "fresh")):
        write_resolved_config(echo, tmp_path / out)
    assert ((tmp_path / "read" / "resolved_config.txt").read_bytes()
            == (tmp_path / "fresh" / "resolved_config.txt").read_bytes())


def test_estimator_config_default_tuning():
    cfg = estimator_config({"tuning": "default", "seed": 5}, dimension=1, n=2000)
    assert cfg.m >= 2
    assert cfg.basis.per_dim_size >= 1
    with pytest.raises(ValidationError):
        estimator_config({"tuning": "default"}, dimension=1)
    # tuned on the 1611 records split_sample puts in the estimation sample
    assert estimator_config({"tuning": "default"}, 2, n=3221).basis.k == 4


def test_absent_keys_take_the_stated_defaults():
    # the defaults README states
    assert estimator_config({}, 1) == EstimatorConfig(
        functional="mar_mean", basis=BasisSpec("haar", 1, 4, order=0), m=2,
        split_fraction=0.5, seed=0, variant="emp", eigen_floor=1e-8, cross_fit=False,
        nuisance_method="series", nuisance_k_grid=(1, 2, 4), nuisance_folds=2,
        sigma_floor=0.05, ci_level=0.95)


@pytest.mark.parametrize("cfg,dimension,n,expected", [
    # the tuning rule picks m over the one the config names, even one out of range
    ({"tuning": "default", "m": 5}, 1, 2000,
     EstimatorConfig(basis=BasisSpec("haar", 1, 2), m=3)),
    # Haar ac takes its terms from per-cell sums, so no plan lowers the
    # rule's m (ceil(ln 6000) = 9) below the cap
    ({"tuning": "default", "variant": "ac", "split_fraction": 0.3, "seed": 9}, 2, 20000,
     EstimatorConfig(basis=BasisSpec("haar", 2, 8), m=6, split_fraction=0.3, seed=9,
                     variant="ac")),
    ({"tuning": "default", "basis.family": "bspline", "basis.order": 2}, 1, 5000,
     EstimatorConfig(basis=BasisSpec("bspline", 1, 5, order=2), m=3)),
])
def test_default_tuning_reads_resolved_values(cfg, dimension, n, expected):
    assert estimator_config(cfg, dimension, n=n) == expected


def test_default_tuned_haar_ignores_the_order(tmp_path):
    # only B-splines floor the tuned size at order + 1; haar's stays a power of two
    rc = main(["estimate", "--input", str(GOLDEN), "--out", str(tmp_path / "o"),
               "--set", "tuning=default", "--set", "basis.order=2"])
    assert rc == 0


def test_haar_order_changes_no_artifact(tmp_path):
    # haar reads no order: the echo, its hash and the report are those of a run without one
    outs = [tmp_path / "plain", tmp_path / "order"]
    for out, extra in zip(outs, ([], ["--set", "basis.order=2"])):
        assert main(["estimate", "--input", str(GOLDEN), "--out", str(out), "--set", "m=3",
                     *extra]) == 0
    for name in ("resolved_config.txt", "report.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_oversized_ac_basis_refused_before_it_is_built(tmp_path, capsys):
    # B-splines of order 1: the run's plan refuses q = 2^22 and q = 2^14
    # before any fit, and before any array of 2^22 cells, on the inversion's
    # two k x k arrays and mask beside the Gram and its inverse, which pass
    # the node grid and its weighted copy by about k^2 / 8 doubles
    for q, refusal in ((2**22, "the tensor route at k=4194304, m=2 plans a peak of "
                               "580567439791608 bytes"),
                       (2**14, "its largest group, the inversion, takes 4563402752 bytes")):
        tracemalloc.start()
        rc = main(["estimate", "--input", str(GOLDEN), "--out", str(tmp_path / "o"),
                   "--set", "variant=ac", "--set", "basis.family=bspline",
                   "--set", "basis.order=1", "--set", f"basis.per_dim_size={q}"])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert rc == EXIT_VALIDATION
        assert refusal in capsys.readouterr().err
        assert peak < 8 * 2**22


@pytest.mark.parametrize("q,planned", [(2**23, 2147483648), (2**40, 281474976710656)])
def test_oversized_haar_ac_refused_by_the_cell_plan(tmp_path, monkeypatch, capsys, q, planned):
    # Haar ac takes its Gram from the density estimate's per-cell values: the
    # cell plan counts its arrays of k doubles and refuses them before any
    # nuisance fit and any array of k entries; beside them the peak holds the
    # 3 candidate cells of each of the 250 training records and the fit's 20
    # fold arrays of them
    monkeypatch.setattr(estimator, "fit_nuisances", lambda *a, **kw: pytest.fail("fitted"))
    tracemalloc.start()
    rc = main(["estimate", "--input", str(GOLDEN), "--out", str(tmp_path / "o"),
               "--set", "variant=ac", "--set", f"basis.per_dim_size={q}"])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert rc == EXIT_VALIDATION
    assert (f"the cell route at k={q}, m=2 plans a peak of {planned + 8 * 250 * 23} bytes, over "
            f"the cap of 1073741824; its largest group, the cell Gram, takes {planned} bytes"
            ) in capsys.readouterr().err
    assert peak < 8 * 2**22


def test_haar_ac_at_the_default_tuned_size_runs(tmp_path):
    # default_tuning(2 * 10**6, "ac", 1) picks k = 8192, which the cell plan
    # admits; on the golden fixture a Haar ac estimate at that k runs
    k, m = default_tuning(2 * 10**6, "ac", 1)
    assert (k, m) == (8192, 6)
    run = EstimatorConfig(basis=build_basis(BasisSpec("haar", 1, k)), m=m, variant="ac")
    assert estimator.plan_estimate(run, 2 * 10**6, 2 * 10**6).peak <= 1 << 30
    assert main(["estimate", "--input", str(GOLDEN), "--out", str(tmp_path / "o"),
                 "--set", "variant=ac", "--set", f"basis.per_dim_size={k}"]) == 0


def test_oversized_haar_study_refused_before_it_is_built(tmp_path, capsys):
    # at d = 2, q = 2^13 the study's plan counts the cell route's arrays of
    # 2^26 doubles, over the byte cap: refused before any array of the
    # population Gram's nodes or of k entries
    tracemalloc.start()
    rc = main(["simulate", "--out", str(tmp_path / "s"), "--set", "scenario=s2-smooth-d2",
               "--set", "n=300", "--set", "reps=2", "--set", "basis.per_dim_size=8192"])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert rc == EXIT_VALIDATION
    assert ("the cell route at k=67108864, m=2 plans a peak of 17179896784 bytes, over the "
            "cap of 1073741824; its largest group, the cell Gram, takes 17179869184 bytes"
            ) in capsys.readouterr().err
    assert peak < 8 * 2**22


def test_ac_gram_working_set_refused_before_any_fit(tmp_path, monkeypatch, capsys):
    # B-splines of order 1 at k = 8192 on 8192 nodes: the design alone
    # (512 MiB) is under the cap, but the k x k Gram and its inverse (512 MiB
    # each) with the inversion's two more and a mask (1088 MiB), the 250
    # estimation rows and the block tensors plan 2.1 GiB, refused before any
    # nuisance fit
    monkeypatch.setattr(estimator, "fit_nuisances", lambda *a, **kw: pytest.fail("fitted"))
    rc = main(["estimate", "--input", str(GOLDEN), "--out", str(tmp_path / "o"),
               "--set", "variant=ac", "--set", "basis.family=bspline",
               "--set", "basis.order=1", "--set", "basis.per_dim_size=8192"])
    assert rc == EXIT_VALIDATION
    assert ("plans a peak of 2264290808 bytes, over the cap of 1073741824; its largest "
            "group, the inversion, takes 1140850688 bytes") in capsys.readouterr().err


def test_emp_basis_size_is_checked_against_the_training_records(tmp_path, monkeypatch, capsys):
    # the empirical Gram is built on the training records: k = 256 is built
    # on 3800 of them however few estimation records there are, and refused
    # before any fit on 200 of them, or on the 15 of an odd n = 31 at the
    # default split, since a Gram of fewer records than k is singular
    path = tmp_path / "d.csv"
    dataset_to_csv(generate(SCENARIOS["s2-smooth-d2"], 4000, 0), path)
    args = ["estimate", "--input", str(path), "--set", "basis.per_dim_size=16", "--set", "m=2"]
    assert main([*args, "--out", str(tmp_path / "a"), "--set", "split_fraction=0.05"]) in (
        0, EXIT_ZERO_CONVENTION)
    _, rows = cli._read_csv_rows(str(tmp_path / "a" / "report.csv"))
    assert (rows[0]["n_est"], rows[0]["n_tr"], rows[0]["k"]) == ("200", "3800", "256")
    monkeypatch.setattr(estimator, "fit_nuisances", lambda *a, **kw: pytest.fail("fitted"))
    rc = main([*args, "--out", str(tmp_path / "b"), "--set", "split_fraction=0.95"])
    assert rc == EXIT_VALIDATION
    assert ("basis size k=256 exceeds the 200 training records the empirical Gram is built "
            "on") in capsys.readouterr().err
    odd = tmp_path / "odd.csv"
    dataset_to_csv(generate(SCENARIOS["s1-smooth-d1"], 31, 0), odd)
    rc = main(["estimate", "--input", str(odd), "--out", str(tmp_path / "c"),
               "--set", "basis.per_dim_size=16"])
    assert rc == EXIT_VALIDATION
    assert "basis size k=16 exceeds the 15 training records" in capsys.readouterr().err


def test_emp_training_design_refused_before_any_fit(monkeypatch):
    # B-splines of order 1 at k = 2048 on 31350 training records: the k x k
    # Gram and its inverse (64 MiB) and the 1650 estimation rows are under the cap,
    # but the training design with its weighted copy and three doubles per
    # record, beside the Gram and the candidate designs, bring the run to
    # 1098900064 bytes, refused before any fit
    monkeypatch.setattr(estimator, "fit_nuisances", lambda *a, **kw: pytest.fail("fitted"))
    rng = np.random.default_rng(31)
    data = Dataset(rng.random((33000, 1)), np.ones(33000), np.zeros(33000))
    cfg = EstimatorConfig(basis=BasisSpec("bspline", 1, 2048, order=1), split_fraction=0.05)
    with pytest.raises(ValidationError, match="the tensor route at k=2048, m=2 plans a peak of "
                                              "1098900064 bytes, over the cap of 1073741824; its "
                                              "largest group, the training design, takes "
                                              "1028029200 bytes"):
        estimator.estimate(data, cfg)


def test_default_tuning_echoes_what_ran(tmp_path):
    # the rule picks m=3 and q=2 over the configured m=4 and q=8; the echo and
    # its hash name the values the run used
    out = tmp_path / "o"
    rc = main(["estimate", "--input", str(GOLDEN), "--out", str(out), "--set", "tuning=default",
               "--set", "m=4", "--set", "basis.per_dim_size=8"])
    assert rc == 0
    echo_text = (out / "resolved_config.txt").read_text()
    echo = parse_config_text(echo_text, "echo")
    lines = [ln for ln in (out / "report.csv").read_text().splitlines()
             if not ln.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert echo["m"] == int(row["m"]) == 3
    assert echo["basis.per_dim_size"] ** echo["basis.dimension"] == int(row["k"])
    assert f"# config-hash {config_hash(echo)}\n" in echo_text
    assert f"# config-hash {config_hash(echo)}\n" in (out / "report.csv").read_text()
    # a study echoes the rule's m too
    sim = tmp_path / "s"
    rc = main(["simulate", "--out", str(sim), "--set", "scenario=s1-smooth-d1", "--set", "n=400",
               "--set", "reps=2", "--set", "tuning=default", "--set", "m=4",
               "--set", "nuisance.method=zero"])
    assert rc == 0
    echo = parse_config_text((sim / "resolved_config.txt").read_text(), "echo")
    lines = [ln for ln in (sim / "replications.csv").read_text().splitlines()
             if not ln.startswith("#")]
    column = lines[0].split(",").index("m")
    assert {ln.split(",")[column] for ln in lines[1:]} == {str(echo["m"])} == {"3"}


_TUNED_FAMILIES = [("haar", 0)] + [("bspline", order) for order in range(4)]


def _tuned(n: int, d: int, variant: str, family: str, order: int) -> EstimatorConfig:
    return estimator_config({"tuning": "default", "variant": variant, "basis.family": family,
                             "basis.order": order}, d, n=n)


def _split_plan(run: EstimatorConfig, n: int):
    """The plan, record counts included, that estimate_split checks on a split of n records."""
    n_est = estimation_size(n, run.split_fraction)
    return estimator.plan_estimate(run, n_est, n - n_est)


def _cell_rule(n: int, d: int, variant: str, family: str) -> tuple[int, int]:
    """The rule's (q, m) for an order-0 basis, which no plan lowers up to 10^6
    records: Haar's q the largest power of two, a B-spline's any q."""
    n_est = max(estimation_size(n, 0.5), 8)
    ln = math.log(n_est)
    k_raw, m = ((n_est / ln**2, math.ceil(ln)) if variant == "ac"
                else (n_est / ln**3, math.ceil(math.sqrt(ln))))
    q = 1
    while (q_next := 2 * q if family == "haar" else q + 1) ** d <= k_raw:
        q = q_next
    return q, max(2, min(m, ustat.M_MAX))


@pytest.mark.parametrize("variant", ["emp", "ac"])
def test_every_tuned_order_passes_its_plan(variant):
    # 165 configurations per variant, up to 10^6 records: every tuned run
    # passes the plan estimate_split checks, and every order-0 run takes its
    # terms from cells at the rule's (q, m), Haar's q stepping by powers of
    # two and a B-spline's by 1.  The exceptions are seven emp B-splines
    # (n, d, order) whose smallest q, order + 1, already has more functions
    # than the split leaves training records: no q fits, so the rule gives
    # them that q and the plan refuses it on its record count
    refused = {(16, 2, 2), (16, 2, 3), (16, 3, 2), (16, 3, 3), (40, 3, 2), (40, 3, 3),
               (100, 3, 3)} if variant == "emp" else set()
    for n, d, (family, order) in itertools.product(
            (16, 40, 100, 400, 1000, 2000, 4000, 8000, 10**4, 10**5, 10**6), (1, 2, 3),
            _TUNED_FAMILIES):
        run = _tuned(n, d, variant, family, order)
        assert run.basis.per_dim_size >= order + 1 and 2 <= run.m <= ustat.M_MAX
        if (n, d, order) in refused:
            assert run.basis.per_dim_size == order + 1
            with pytest.raises(ValidationError, match=f"basis size k={run.basis.k} exceeds the "
                                                      f"{n - estimation_size(n, 0.5)} training"):
                _split_plan(run, n)
            continue
        assert _split_plan(run, n).route == ("cell" if order == 0 else "tensor")
        if order == 0:
            assert (run.basis.per_dim_size, run.m) == _cell_rule(n, d, variant, family)


@pytest.mark.parametrize("n", [400, 1000, 2000, 4000, 8000])
def test_tuned_order_three_bspline_ac_at_d3_runs_at_m5(n):
    # the rule's q = 3 is raised to order + 1 = 4 before m is planned, so m is
    # planned at k = 64, where m = 6 is over the cap (it fits at k = 27)
    run = _tuned(n, 3, "ac", "bspline", 3)
    assert (run.basis.per_dim_size, run.m) == (4, 5)
    with pytest.raises(ValidationError, match="the tensor route at k=64, m=6 plans"):
        _split_plan(replace(run, m=6), n)


def test_tuned_bsplines_at_a_million_records_stop_at_the_plan_boundary():
    # the rule lowers q until m = 2 fits: at 10^6 records every tensor-route
    # B-spline tuning (order >= 1) fits its plan, and one q more at m = 2 is
    # refused on its whitened estimation rows
    for d, variant, order in itertools.product((1, 2, 3), ("emp", "ac"), range(1, 4)):
        run = _tuned(10**6, d, variant, "bspline", order)
        _split_plan(run, 10**6)
        wider = replace(run.basis, per_dim_size=run.basis.per_dim_size + 1)
        with pytest.raises(ValidationError, match="its largest group, the whitened estimation "
                                                  "rows"):
            _split_plan(replace(run, m=2, basis=wider), 10**6)


def test_tuned_order_three_bspline_ac_runs_the_planned_order(tmp_path, capsys):
    # 400 records at d = 3: the echo and the report name q = 4 and m = 5
    rng = np.random.default_rng(30)
    a = (rng.random(400) < 0.6).astype(float)
    path = tmp_path / "d3.csv"
    dataset_to_csv(Dataset(rng.random((400, 3)), a, a * (rng.random(400) < 0.5)), path)
    out = tmp_path / "o"
    rc = main(["estimate", "--input", str(path), "--out", str(out), "--set", "tuning=default",
               "--set", "basis.family=bspline", "--set", "basis.order=3", "--set", "variant=ac"])
    assert rc == 0, capsys.readouterr().err
    echo = parse_config_text((out / "resolved_config.txt").read_text(), "echo")
    assert (echo["basis.per_dim_size"], echo["m"]) == (4, 5)
    _, rows = cli._read_csv_rows(str(out / "report.csv"))
    assert (rows[0]["k"], rows[0]["m"]) == ("64", "5")


def _data_lines(path: Path) -> list[str]:
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


@pytest.mark.parametrize("settings", [(), ("tuning=default",), ("cross_fit=true", "variant=ac")])
def test_estimate_echo_reruns_the_run(tmp_path, settings):
    # --config on a run's echo resolves the same settings: same echo, same
    # hash, same report bytes
    first, again = tmp_path / "first", tmp_path / "again"
    args = [arg for s in settings for arg in ("--set", s)]
    assert main(["estimate", "--input", str(GOLDEN), "--out", str(first)] + args) == 0
    echo = first / "resolved_config.txt"
    assert main(["estimate", "--input", str(GOLDEN), "--out", str(again),
                 "--config", str(echo)]) == 0
    assert (again / "resolved_config.txt").read_bytes() == echo.read_bytes()
    assert (again / "report.csv").read_bytes() == (first / "report.csv").read_bytes()
    assert set(parse_config_text(echo.read_text(), "echo")) == set(cli._KEYS) - {
        "scenario", "n", "reps"}


def test_simulate_echo_reruns_the_study(tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["simulate", "--out", str(first), "--set", "scenario=s4-ate", "--set", "n=300",
                 "--set", "reps=3", "--set", "nuisance.method=zero"]) == 0
    echo = first / "resolved_config.txt"
    resolved = parse_config_text(echo.read_text(), "echo")
    assert set(resolved) == set(cli._KEYS)
    assert resolved["functional"] == "ate" and resolved["basis.dimension"] == 1
    assert main(["simulate", "--out", str(again), "--config", str(echo)]) == 0
    for name in ("resolved_config.txt", "replications.csv", "aggregates.csv"):
        assert (again / name).read_bytes() == (first / name).read_bytes()


def test_runs_resolving_alike_share_a_hash(tmp_path):
    # keys spelled out at their defaults resolve to the same run as no keys
    outs = [tmp_path / "bare", tmp_path / "spelled"]
    assert main(["estimate", "--input", str(GOLDEN), "--out", str(outs[0])]) == 0
    assert main(["estimate", "--input", str(GOLDEN), "--out", str(outs[1]),
                 "--set", "variant=emp", "--set", "functional=mar_mean",
                 "--set", "ci_level=0.95"]) == 0
    heads = [[ln for ln in (out / "report.csv").read_text().splitlines()
              if ln.startswith("# config-hash")] for out in outs]
    assert heads[0] == heads[1] and len(heads[0]) == 1
    assert _data_lines(outs[0] / "report.csv") == _data_lines(outs[1] / "report.csv")
    # a setting that changes the run changes the hash
    assert main(["estimate", "--input", str(GOLDEN), "--out", str(tmp_path / "m3"),
                 "--set", "m=3"]) == 0
    assert heads[0][0] not in (tmp_path / "m3" / "report.csv").read_text()


def test_readme_key_table_lists_the_accepted_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| key | meaning |", 1)[1].split("\n\n", 1)[0]
    listed = [cell.strip().strip("`") for ln in table.splitlines()[2:]
              for cell in ln.split("|")[1:2]]
    assert sorted(listed) == sorted(cli._KEYS)


# valid values of every config key; tuning stays manual, the study keys are
# ignored by estimator_config
_KEY_VALUES = {
    "functional": st.sampled_from(["mar_mean", "ate", "ecc"]),
    "variant": st.sampled_from(["emp", "ac"]),
    "m": st.integers(1, ustat.M_MAX),
    "tuning": st.just("manual"),
    "split_fraction": st.floats(0.01, 0.99),
    "seed": st.integers(0, 2**40),
    "eigen_floor": st.floats(1e-14, 1e-2),
    "cross_fit": st.booleans(),
    "ci_level": st.floats(0.5, 0.999),
    "basis.family": st.sampled_from(["haar", "bspline"]),
    "basis.dimension": st.integers(1, 3),
    "basis.per_dim_size": st.sampled_from([4, 8, 16]),
    "basis.order": st.integers(0, 3),
    "nuisance.method": st.sampled_from(["series", "zero"]),
    "nuisance.k_grid": st.lists(st.integers(1, 64), min_size=1, max_size=4).map(tuple),
    "nuisance.folds": st.integers(2, 6),
    "nuisance.sigma_floor": st.floats(1e-4, 0.5),
    "scenario": st.sampled_from(sorted(SCENARIOS)),
    "n": st.integers(10, 10**6),
    "reps": st.integers(2, 1000),
}
# config key -> EstimatorConfig field, for the keys that set one
_FIELD_OF = {"functional": "functional", "variant": "variant", "m": "m",
             "split_fraction": "split_fraction", "seed": "seed", "eigen_floor": "eigen_floor",
             "cross_fit": "cross_fit", "ci_level": "ci_level",
             "nuisance.method": "nuisance_method", "nuisance.k_grid": "nuisance_k_grid",
             "nuisance.folds": "nuisance_folds", "nuisance.sigma_floor": "sigma_floor"}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_config_parse_resolve_hash(data):
    keys = data.draw(st.lists(st.sampled_from(sorted(_KEY_VALUES)), unique=True))
    drawn = {key: data.draw(_KEY_VALUES[key]) for key in keys}
    text = "\n".join(f"{key}={cli._cfg_text(v)}" for key, v in drawn.items())
    cfg = parse_config_text(text, "drawn")
    assert cfg == drawn
    # parse -> resolve: the keys given, every other field at the stated default
    dimension = data.draw(st.integers(1, 3))
    basis = BasisSpec(cfg.get("basis.family", "haar"), cfg.get("basis.dimension", dimension),
                      cfg.get("basis.per_dim_size", 4), order=cfg.get("basis.order", 0))
    expected = EstimatorConfig(basis=basis, **{_FIELD_OF[k]: v for k, v in cfg.items()
                                               if k in _FIELD_OF})
    assert estimator_config(cfg, dimension) == expected
    # resolve -> hash: key order does not matter, and the echo re-parses
    shuffled = data.draw(st.permutations(keys))
    assert config_hash({key: cfg[key] for key in shuffled}) == config_hash(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        write_resolved_config(cfg, Path(tmp))
        echo = (Path(tmp) / "resolved_config.txt").read_text()
    assert parse_config_text(echo, "echo") == cfg
    assert f"# config-hash {config_hash(cfg)}\n" in echo
    # resolve -> render -> echo -> parse -> resolve: the same EstimatorConfig
    run = estimator_config(cfg, dimension)
    with tempfile.TemporaryDirectory() as tmp:
        write_resolved_config(render_config(run), Path(tmp))
        rendered = parse_config_text((Path(tmp) / "resolved_config.txt").read_text(), "echo")
    assert rendered == render_config(run)
    assert estimator_config(rendered, data.draw(st.integers(1, 3))) == run


def test_cmd_estimate_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["estimate", "--input", str(GOLDEN), "--out", str(out),
               "--set", "m=3", "--set", "basis.per_dim_size=4",
               "--set", "seed=77", "--set", "nuisance.k_grid=1;2;4"])
    assert rc == 0
    assert (out / "resolved_config.txt").exists()
    report = (out / "report.csv").read_text().splitlines()
    assert report[0].startswith("# hoif ")
    assert any(ln.startswith("# config-hash ") for ln in report[:3])
    header = report[3].split(",")
    row = report[4].split(",")
    assert len(row) == len(header)
    assert "psi_hat" in header
    assert (out / "report.txt").exists()
    assert "psi_hat" in capsys.readouterr().out


def test_cmd_estimate_report_bytes_reproducible(tmp_path):
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["estimate", "--input", str(GOLDEN), "--out", str(out),
                   "--set", "m=3", "--set", "seed=77"])
        assert rc == 0
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]


def test_cmd_estimate_zero_convention_exit(tmp_path):
    out = tmp_path / "zc"
    rc = main(["estimate", "--input", str(GOLDEN), "--out", str(out),
               "--set", "eigen_floor=1e30"])
    assert rc == EXIT_ZERO_CONVENTION
    # the estimate is still written, flagged as the zero convention
    body = (out / "report.csv").read_text()
    assert ",1," in body.splitlines()[-1] or "zero" in body


def test_cmd_estimate_validation_exit(tmp_path, capsys):
    rc = main(["estimate", "--input", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "o")])
    assert rc != 0
    rc = main(["estimate", "--input", str(GOLDEN),
               "--out", str(tmp_path / "o2"),
               "--set", "basis.per_dim_size=1024"])
    assert rc == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err
    # the nuisance method is series or zero
    rc = main(["estimate", "--input", str(GOLDEN),
               "--out", str(tmp_path / "o3"), "--set", "nuisance.method=oracle"])
    assert rc == EXIT_VALIDATION
    assert "series|zero" in capsys.readouterr().err
    # the order cap is ustat's
    rc = main(["estimate", "--input", str(GOLDEN),
               "--out", str(tmp_path / "o4"), "--set", f"m={ustat.M_MAX + 1}"])
    assert rc == EXIT_VALIDATION
    assert f"m must be in [1, {ustat.M_MAX}]" in capsys.readouterr().err


def test_over_cap_order_refused_before_any_fit(tmp_path, monkeypatch, capsys):
    # m=6 at k=64 plans 34909721656 bytes of B-spline block tensors on the 250
    # estimation records: refused up front, whether or not the training Gram
    # would invert; a study is refused by the same plan before it starts
    monkeypatch.setattr(estimator, "fit_nuisances", lambda *a, **kw: pytest.fail("fitted"))
    over = ["--set", "m=6", "--set", "basis.per_dim_size=64",
            "--set", "basis.family=bspline", "--set", "basis.order=2"]
    rc = main(["estimate", "--input", str(GOLDEN), "--out", str(tmp_path / "e"), *over])
    assert rc == EXIT_VALIDATION
    assert ("the tensor route at k=64, m=6 plans a peak of 34910130824 bytes, over the cap of "
            "1073741824; its largest group, the block tensors, takes 34909721656 bytes"
            ) in capsys.readouterr().err
    rc = main(["simulate", "--out", str(tmp_path / "s"), "--set", "scenario=s1-smooth-d1",
               "--set", "n=300", "--set", "reps=2", *over])
    assert rc == EXIT_VALIDATION
    assert ("error: the tensor route at k=64, m=6 plans a peak of 34910021224 bytes"
            ) in capsys.readouterr().err


def test_haar_emp_order_is_not_capped_by_the_plan(tmp_path, capsys):
    # Haar emp takes its terms from per-cell sums, so the tensor plan that
    # refuses m=6 at k=64 above does not apply: the estimate runs and fills
    # every order's column
    path = tmp_path / "d.csv"
    dataset_to_csv(generate(SCENARIOS["s1-smooth-d1"], 4000, 3), path)
    rc = main(["estimate", "--input", str(path), "--out", str(tmp_path / "o"),
               "--set", "m=6", "--set", "basis.per_dim_size=64"])
    assert rc == 0, capsys.readouterr().err
    _, rows = cli._read_csv_rows(str(tmp_path / "o" / "report.csv"))
    assert (rows[0]["k"], rows[0]["m"]) == ("64", "6")
    assert all(math.isfinite(float(rows[0][f"per_order_{j}"])) for j in range(2, 7))


def test_cmd_simulate_reproducible(tmp_path):
    args = ["--set", "scenario=s4-span-exact", "--set", "n=300",
            "--set", "reps=4", "--set", "seed=3", "--set", "m=2",
            "--set", "nuisance.method=zero"]
    outs = []
    for name, threads in (("a", "1"), ("b", "4")):
        out = tmp_path / name
        rc = main(["--threads", threads, "simulate", "--out", str(out)] + args)
        assert rc == 0
        outs.append((out / "replications.csv").read_bytes())
        assert (out / "aggregates.csv").exists()
    assert outs[0] == outs[1]


def test_registry_study_integrates_no_oracle(tmp_path, monkeypatch):
    # every simulate study is on a registry scenario, which carries its
    # recorded target and efficiency bound: no checked quadrature runs, in
    # this process or in a forked worker
    monkeypatch.setattr(sim, "_checked_integral", lambda fn, d: pytest.fail("quadrature"))
    sim_emp = ("scenario=s2-smooth-d2", "n=5000", "m=3", "basis.per_dim_size=4",
               "reps=12", "variant=emp", "seed=0")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        argv = ["--threads", threads, "simulate", "--out", str(out)]
        assert main(argv + [a for s in sim_emp for a in ("--set", s)]) == 0
        outs.append([(out / name).read_bytes() for name in
                     ("replications.csv", "aggregates.csv", "resolved_config.txt")])
    assert outs[0] == outs[1]


def test_cmd_simulate_unknown_scenario(tmp_path):
    rc = main(["simulate", "--out", str(tmp_path / "x"),
               "--set", "scenario=nope"])
    assert rc == EXIT_VALIDATION


def test_cmd_report_slopes(tmp_path, capsys):
    # two aggregate files differing in k: |bias| ~ k^-1 gives slope -1; their
    # older column set (cfg_index, no failure counts) still merges
    cols = ("scenario,n,cfg_index,variant,k,m,reps_ok,psi_true,bias,sd,rmse,"
            "coverage,mean_op_dist,eff_bound")
    a = tmp_path / "agg_a.csv"
    b = tmp_path / "agg_b.csv"
    a.write_text(cols + "\ns,1000,0,emp,4,2,10,0.5,0.08,0.1,0.1,0.95,0.2,0.4\n")
    b.write_text(cols + "\ns,4000,0,emp,16,2,10,0.5,0.02,0.1,0.1,0.95,0.1,0.4\n")
    out = tmp_path / "merged.csv"
    rc = main(["report", str(a), str(b), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith("slope_bias_vs_k,slope_op_dist_vs_n")
    slope_bias = float(lines[1].split(",")[-2])
    slope_op = float(lines[1].split(",")[-1])
    assert slope_bias == pytest.approx(-1.0, abs=1e-9)
    assert slope_op == pytest.approx(-0.5, abs=1e-9)


def test_cmd_report_schema_mismatch(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("scenario,variant,m,k,n,bias,mean_op_dist\ns,emp,2,4,100,0.1,0.2\n")
    b.write_text("other,columns\n1,2\n")
    assert main(["report", str(a), str(b)]) == EXIT_VALIDATION


def test_simulate_scenario_owns_functional_and_dimension(tmp_path, capsys):
    # a contradicting key would run the scenario's functional under a resolved
    # config naming another, or fail inside the estimator
    for key, value in (("functional", "ecc"), ("basis.dimension", "1")):
        out = tmp_path / key
        rc = main(["simulate", "--out", str(out), "--set", "scenario=s2-smooth-d2",
                   "--set", "n=300", "--set", "reps=2", "--set", f"{key}={value}"])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"error: {key}={value} contradicts scenario s2-smooth-d2" in err
        assert not out.exists()
    # naming the scenario's own values is allowed
    rc = main(["simulate", "--out", str(tmp_path / "same"), "--set", "scenario=s2-smooth-d2",
               "--set", "n=300", "--set", "reps=2", "--set", "functional=mar_mean",
               "--set", "basis.dimension=2", "--set", "nuisance.method=zero"])
    assert rc == 0


@pytest.mark.parametrize("threads,command", [
    ("0", ["estimate", "--input", str(GOLDEN)]),
    ("-4", ["estimate", "--input", str(GOLDEN)]),
    ("0", ["simulate", "--set", "scenario=s1-smooth-d1", "--set", "n=100", "--set", "reps=2"]),
    ("0", ["report", str(FIXTURES / "golden_data.csv")]),
    ("-1", ["basis-inspect"]),
])
def test_every_command_refuses_fewer_than_one_thread(tmp_path, capsys, threads, command):
    out = ["--out", str(tmp_path / "o")] if command[0] != "basis-inspect" else []
    assert main(["--threads", threads, *command, *out]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: threads must be >= 1\n"
    assert not (tmp_path / "o").exists()


def test_basis_finer_than_default_grid_runs(tmp_path):
    # the grid follows the basis: the emp study needs it for its reference
    # Gram, the ac estimate for its Gram
    rc = main(["simulate", "--out", str(tmp_path / "s"), "--set", "scenario=s1-smooth-d1",
               "--set", "n=2400", "--set", "reps=2", "--set", "m=2",
               "--set", "basis.per_dim_size=512", "--set", "nuisance.method=zero"])
    assert rc == 0
    rc = main(["estimate", "--input", str(GOLDEN), "--out", str(tmp_path / "e"),
               "--set", "variant=ac", "--set", "basis.per_dim_size=512"])
    assert rc == 0


def test_basis_inspect_refuses_over_budget_design(monkeypatch, capsys):
    monkeypatch.setattr(Basis, "evaluate_many", lambda self, x: pytest.fail("evaluated"))
    bspline = ["--set", "basis.family=bspline", "--set", "basis.order=1"]
    # B-splines of order 1 on 64**3 nodes at k=4096: the rows of float64 and their
    # weighted copy would take 17 GB
    assert main(["basis-inspect", *bspline, "--set", "basis.dimension=3",
                 "--set", "basis.per_dim_size=16"]) == EXIT_VALIDATION
    assert ("the tensor route at k=4096 plans a peak of 17458790400 bytes, over the cap of "
            "1073741824; its largest group, the node grid, takes 17190354944 bytes"
            ) in capsys.readouterr().err
    # 256 nodes at k=8 take 39936 bytes, one over a lowered cap
    monkeypatch.setattr(ustat, "PLAN_BYTES_MAX", 39935)
    assert main(["basis-inspect", *bspline, "--set", "basis.per_dim_size=8"]) == EXIT_VALIDATION
    assert "the tensor route at k=8 plans a peak of 39936 bytes" in capsys.readouterr().err


def test_basis_inspect_reads_a_haar_basis_from_its_cells(monkeypatch, capsys):
    # as a study builds its population Gram: at d = 2, q = 64 no basis row is
    # evaluated, where a design of 256^2 rows at k = 4096 took 2 GiB
    monkeypatch.setattr(Basis, "evaluate_many", lambda self, x: pytest.fail("evaluated"))
    assert main(["basis-inspect", "--set", "basis.dimension=2",
                 "--set", "basis.per_dim_size=64"]) == 0
    out = capsys.readouterr().out
    assert "k                 : 4096\n" in out
    assert "uniform Gram eig  : [1, 1]\n" in out


def test_basis_inspect_refuses_an_over_cap_dense_view_before_printing(tmp_path, monkeypatch,
                                                                       capsys):
    # a Haar Gram at k = 64 is written as its dense view, one k x k array
    # beside the cell Gram's 32 arrays of k doubles: 8 * (64**2 + 32 * 64) =
    # 49152 bytes, one over a lowered cap, refused before any line or file
    # is written; the report alone still runs under that cap
    monkeypatch.setattr(ustat, "PLAN_BYTES_MAX", 49151)
    gram_path = tmp_path / "g.bin"
    haar = ["basis-inspect", "--set", "basis.per_dim_size=64"]
    assert main([*haar, "--gram-out", str(gram_path)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and not gram_path.exists()
    assert err == ("error: the cell route at k=64 plans a peak of 49152 bytes, over the cap of "
                   "49151; its largest group, the cell Gram, takes 49152 bytes\n")
    assert main(haar) == 0


def test_cmd_basis_inspect(tmp_path, capsys):
    gram_path = tmp_path / "g.bin"
    rc = main(["basis-inspect", "--set", "basis.per_dim_size=8",
               "--gram-out", str(gram_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "k                 : 8" in out
    assert gram_path.exists()
    assert main(["basis-inspect", "--set", "basis.per_dim_size=oops"]) == EXIT_VALIDATION


@pytest.mark.parametrize("keys,basis", [
    ([], EstimatorConfig().basis),
    (["basis.family=bspline", "basis.order=2"], BasisSpec("bspline", 1, 4, order=2)),
    (["basis.dimension=2", "basis.per_dim_size=8"], BasisSpec("haar", 2, 8))])
def test_basis_inspect_names_its_basis_by_keys(tmp_path, capsys, monkeypatch, keys, basis):
    # the first line is every basis key at its resolved value, a key not
    # given at EstimatorConfig's; pasted back, it inspects the same basis
    monkeypatch.setenv("HOIF_SEED", "4")  # basis-inspect reads no seed
    config = tmp_path / "basis.cfg"
    config.write_text("".join(f"{key}\n" for key in keys))
    assert main(["basis-inspect", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    first = out.splitlines()[0].split(":", 1)[1].split()
    assert first[::2] == ["--set"] * 4
    assert first[1::2] == [f"basis.family={basis.family}", f"basis.dimension={basis.d}",
                           f"basis.per_dim_size={basis.per_dim_size}",
                           f"basis.order={basis.order}"]
    assert f"k                 : {basis.k}\n" in out
    assert main(["basis-inspect", *first]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("key,message", [
    ("m=3", "key 'm' is not read by basis-inspect"),
    ("seed=4", "key 'seed' is not read by basis-inspect"),
    ("basis.typo=3", "unknown key 'basis.typo'")])
def test_basis_inspect_reads_only_basis_keys(monkeypatch, capsys, key, message):
    monkeypatch.setattr(cli, "population_gram", lambda *a: pytest.fail("built a Gram"))
    assert main(["basis-inspect", "--set", "basis.per_dim_size=8",
                 "--set", key]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_cmd_estimate_mar_csv_blank_y(tmp_path):
    # Y left blank on every A = 0 row, as README's MAR format allows
    data = generate(SCENARIOS["s1-smooth-d1"], 300, 19)
    path = tmp_path / "mar.csv"
    dataset_to_csv(data, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "A,Y,X1"
    rows = [ln.split(",") for ln in lines[1:]]
    path.write_text("\n".join([lines[0]] + [f"{a},{y if float(a) else ''},{x}"
                                            for a, y, x in rows]) + "\n")
    assert path.read_text().count(",,") == int(sum(data.a == 0.0)) > 0
    rc = main(["estimate", "--input", str(path), "--out", str(tmp_path / "o"),
               "--set", "m=2", "--set", "nuisance.k_grid=1;2"])
    assert rc == 0


def test_mar_file_with_blank_y_runs_as_with_zeros(tmp_path):
    # README's MAR format leaves Y blank on A = 0 rows; the run is the run of
    # the same file with zeros there, byte for byte
    data = generate(SCENARIOS["s1-smooth-d1"], 2000, 23)
    zeros = tmp_path / "zeros.csv"
    dataset_to_csv(data, zeros)
    lines = zeros.read_text().splitlines()
    assert lines[0] == "A,Y,X1"
    blank = tmp_path / "blank.csv"
    blank.write_text("\n".join([lines[0]] + [
        ",".join(f[:1] + [""] + f[2:]) if float(f[0]) == 0.0 else ln
        for ln in lines[1:] for f in [ln.split(",")]]) + "\n")
    assert blank.read_text().count(",,") == int(sum(data.a == 0.0)) > 0
    outs = []
    for path in (zeros, blank):
        out = tmp_path / f"out_{path.stem}"
        assert main(["estimate", "--input", str(path), "--out", str(out),
                     "--set", "m=3", "--set", "basis.per_dim_size=8"]) == 0
        outs.append([(out / name).read_bytes()
                     for name in ("report.csv", "report.txt", "resolved_config.txt")])
    assert outs[0] == outs[1]


def test_threads_default_to_one():
    assert build_parser().parse_args(["simulate", "--out", "x"]).threads == 1
    assert build_parser().parse_args(["--threads", "3", "simulate", "--out", "x"]).threads == 3


@pytest.mark.parametrize("argv,message", [
    (["estimate", "--input", "{tmp}/absent.csv", "--out", "{tmp}/o"],
     "cannot read {tmp}/absent.csv"),
    (["estimate", "--input", "{tmp}", "--out", "{tmp}/o"], "cannot read {tmp}"),
    (["estimate", "--input", "{golden}", "--out", "{tmp}/o", "--config", "{tmp}/absent.cfg"],
     "cannot read {tmp}/absent.cfg"),
    (["report", "{tmp}/absent.csv"], "cannot read {tmp}/absent.csv"),
    (["estimate", "--input", "{golden}", "--out", "{tmp}/o", "--set", "basis.per_dim_size=262144"],
     "basis size k=262144 exceeds the 250 training records"),
    (["simulate", "--out", "{tmp}/o", "--set", "scenario=s2-smooth-d2",
      "--set", "basis.dimension=1"], "basis.dimension=1 contradicts scenario s2-smooth-d2"),
    (["estimate", "--input", "{golden}", "--out", "{tmp}/o", "--set", "seed=-1"],
     "seed must be >= 0"),
    (["estimate", "--input", "{five}", "--out", "{tmp}/o", "--set", "m=4",
      "--set", "basis.per_dim_size=1"], "order m=4 needs at least 4 estimation records"),
    (["estimate", "--input", "{golden}", "--out", "{tmp}/o", "--set", "nuisance.k_grid=-4"],
     "nuisance k_grid entries must be >= 1"),
    (["estimate", "--input", "{golden}", "--out", "{tmp}/o", "--set", "nuisance.folds=0"],
     "nuisance folds must be >= 2"),
    (["report", "{ab}"], "{ab}: missing columns scenario, variant, m"),
    (["estimate", "--input", "{golden}", "--out", "{tmp}/o", "--set", "ci_level=1.5"],
     "ci_level must be in (0, 1)"),
    # the keys only simulate reads, refused before the output directory is made
    (["estimate", "--input", "{golden}", "--out", "{tmp}/o", "--set", "scenario=s1-smooth-d1"],
     "key 'scenario' is not read by estimate"),
    (["estimate", "--input", "{golden}", "--out", "{tmp}/o", "--set", "n=300"],
     "key 'n' is not read by estimate"),
    (["estimate", "--input", "{golden}", "--out", "{tmp}/o", "--set", "reps=7"],
     "key 'reps' is not read by estimate"),
    # out-of-range floors; eigen_floor=-1 at k=128 had reached the whitened kernel
    (["estimate", "--input", "{golden}", "--out", "{tmp}/o", "--set", "eigen_floor=-1",
      "--set", "basis.per_dim_size=128", "--set", "split_fraction=0.7"],
     "eigen_floor must be >= 0"),
    (["estimate", "--input", "{golden}", "--out", "{tmp}/o", "--set", "nuisance.sigma_floor=0"],
     "sigma_floor must be in (0, 1]"),
    (["estimate", "--input", "{golden}", "--out", "{tmp}/o", "--set", "nuisance.sigma_floor=2"],
     "sigma_floor must be in (0, 1]"),
    # a non-finite value in the golden fixture's row 502; a NaN X had exited 4
    (["estimate", "--input", "{nan_x}", "--out", "{tmp}/o"], "row 502: X coordinate outside [0,1]"),
    (["estimate", "--input", "{nan_y}", "--out", "{tmp}/o"], "row 502: column Y not finite"),
    (["--threads", "0", "simulate", "--out", "{tmp}/o", "--set", "scenario=s1-smooth-d1",
      "--set", "n=100", "--set", "reps=2"], "threads must be >= 1"),
    (["report", "{blank}"], "{blank}: empty input"),
    (["report", "{ragged}"], "{ragged}: schema mismatch"),
    (["report", "{header}"], "no aggregate rows"),
    # a study too small to run, refused before the output directory is made
    (["simulate", "--out", "{tmp}/o", "--set", "scenario=s1-smooth-d1", "--set", "reps=1"],
     "reps must be >= 2"),
    (["simulate", "--out", "{tmp}/o", "--set", "scenario=s1-smooth-d1", "--set", "n=0"],
     "n must be positive"),
    # an output path that cannot be written, as an input that cannot be read;
    # each had exited 4, the last after its estimate had run
    (["estimate", "--input", "{golden}", "--out", "{five}"], "cannot write {five}: "),
    (["simulate", "--out", "{five}", "--set", "scenario=s1-smooth-d1", "--set", "n=100",
      "--set", "reps=2"], "cannot write {five}: "),
    (["basis-inspect", "--gram-out", "{tmp}"], "cannot write {tmp}: "),
    (["report", "{agg}", "--out", "{tmp}"], "cannot write {tmp}: "),
    (["estimate", "--input", "{golden}", "--out", "{tmp}/held"],
     "cannot write {tmp}/held: [Errno 21] Is a directory: '{tmp}/held/report.csv'"),
])
def test_input_errors_exit_validation(tmp_path, capsys, argv, message):
    five = tmp_path / "five.csv"
    five.write_text("A,Y,X1\n1,1,0.5\n0,0,0.2\n1,0,0.7\n0,1,0.1\n1,1,0.9\n")
    ab = tmp_path / "ab.csv"
    ab.write_text("a,b\n1,2\n")
    fill = {"tmp": str(tmp_path), "golden": str(GOLDEN), "five": str(five), "ab": str(ab)}
    for name, text in (("nan_x", GOLDEN.read_text() + "1,1,nan\n"),
                       ("nan_y", GOLDEN.read_text() + "1,nan,0.5\n"),
                       ("blank", "# hoif 0.1.0\n\n"),
                       ("ragged", "scenario,variant,m\ns,emp,2,4\n"),
                       ("header", "# hoif 0.1.0\nscenario,variant,m\n"),
                       ("agg", "scenario,variant,m\ns,emp,2\n")):
        (tmp_path / f"{name}.csv").write_text(text)
        fill[name] = str(tmp_path / f"{name}.csv")
    (tmp_path / "held" / "report.csv").mkdir(parents=True)
    rc = main([arg.format(**fill) for arg in argv])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION, err
    assert err.startswith("error: ") and message.format(**fill) in err
    if "is not read by" in message or "simulate" in argv:
        assert not (tmp_path / "o").exists()


def test_bad_ci_level_writes_nothing(tmp_path):
    # refused when the config is built, before the output directory exists
    rc = main(["estimate", "--input", str(GOLDEN), "--out", str(tmp_path / "o"),
               "--set", "ci_level=1.5"])
    assert rc == EXIT_VALIDATION
    assert not (tmp_path / "o").exists()


def test_bad_seed_environment_exits_validation(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOIF_SEED", "abc")
    rc = main(["estimate", "--input", str(GOLDEN), "--out", str(tmp_path / "o")])
    assert rc == EXIT_VALIDATION
    assert "HOIF_SEED:1: bad value for seed" in capsys.readouterr().err


def test_bare_value_error_exits_internal(tmp_path, monkeypatch, capsys):
    # a ValueError that no input check raised is a fault in the program
    def broken(data, cfg):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "estimate", broken)
    rc = main(["estimate", "--input", str(GOLDEN), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INTERNAL
    assert "internal error: ValueError: boom" in capsys.readouterr().err
