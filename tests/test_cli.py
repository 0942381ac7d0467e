from pathlib import Path

import pytest

from hoif.cli import (
    EXIT_VALIDATION,
    EXIT_ZERO_CONVENTION,
    config_hash,
    estimator_config,
    load_config,
    main,
    parse_config_text,
)
from hoif.data import ValidationError, dataset_to_csv
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
    cfg = load_config(str(path), ["m=4"])
    assert cfg["m"] == 4 and cfg["seed"] == 1
    monkeypatch.setenv("HOIF_SEED", "99")
    assert load_config(str(path), [])["seed"] == 99


def test_config_hash_order_independent():
    assert config_hash({"m": 2, "seed": 1}) == config_hash({"seed": 1, "m": 2})
    assert config_hash({"m": 2}) != config_hash({"m": 3})


def test_estimator_config_default_tuning():
    cfg = estimator_config({"tuning": "default", "seed": 5}, dimension=1, n=2000)
    assert cfg.m >= 2
    assert cfg.basis.per_dim_size >= 1
    with pytest.raises(ValidationError):
        estimator_config({"tuning": "default"}, dimension=1)
    # tuned on the 1611 records split_sample puts in the estimation sample
    assert estimator_config({"tuning": "default"}, 2, n=3221).k == 4


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
    # plugin nuisances exist only for library callers that pass them in
    rc = main(["estimate", "--input", str(GOLDEN),
               "--out", str(tmp_path / "o3"), "--set", "nuisance.method=plugin"])
    assert rc == EXIT_VALIDATION
    assert "series|zero" in capsys.readouterr().err
    # the pipeline's order cap is 4
    rc = main(["estimate", "--input", str(GOLDEN),
               "--out", str(tmp_path / "o4"), "--set", "m=5"])
    assert rc == EXIT_VALIDATION
    assert "m must be in [1, 4]" in capsys.readouterr().err


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


def test_cmd_simulate_unknown_scenario(tmp_path):
    rc = main(["simulate", "--out", str(tmp_path / "x"),
               "--set", "scenario=nope"])
    assert rc == EXIT_VALIDATION


def test_cmd_report_slopes(tmp_path, capsys):
    # two aggregate files differing in k: |bias| ~ k^-1 gives slope -1
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


def test_cmd_basis_inspect(tmp_path, capsys):
    gram_path = tmp_path / "g.bin"
    rc = main(["basis-inspect", "--preset", "haar:d=1,L=2",
               "--gram-out", str(gram_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "k                 : 8" in out
    assert gram_path.exists()
    assert main(["basis-inspect", "--preset", "haar:d=1,L=oops"]) == EXIT_VALIDATION


def test_cmd_estimate_mar_csv_blank_y(tmp_path):
    data = generate(SCENARIOS["s1-smooth-d1"], 300, 19)
    path = tmp_path / "mar.csv"
    dataset_to_csv(data, path)
    rc = main(["estimate", "--input", str(path), "--out", str(tmp_path / "o"),
               "--set", "m=2", "--set", "nuisance.k_grid=1;2"])
    assert rc == 0
