"""Command-line surface: estimate, simulate, report, basis-inspect.

Configuration is plain-text key=value with dotted namespaces; command-line
``--set key=value`` entries override the file.  A completed run writes a resolved
config echo and its artifacts, each headed by the tool version, the resolved
config hash and the master seed, all or none of them; a run refused or failed
before that writes nothing, and an ``--out`` it could not write is refused
before it runs.

Exit codes: 0 success, 2 validation error (bad input or configuration, or
an output path that cannot be written), 3 zero-convention trigger (the
estimate is still written), 4 any other error.
"""

from __future__ import annotations

import argparse
import csv
import errno
import hashlib
import io
import os
import sys
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np

import hoif
from hoif.data import (ValidationError, dataset_from_csv, existing_ancestor, read_text,
                       replacing, staging, table_csv, writing)
from hoif.estimator import EstimatorConfig, default_tuning, estimate, estimation_size
from hoif.gram import invert_checked, population_gram, save_gram
from hoif.quadrature import basis_quadrature
from hoif.sim import SCENARIOS, run_study

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ZERO_CONVENTION = 3
EXIT_INTERNAL = 4

ECHO = "resolved_config.txt"
REPORT = ("report.csv", "report.txt")  # estimate's artifacts
STUDY = ("replications.csv", "aggregates.csv")  # simulate's


def _one_of(*allowed: str):
    def parse(value: str) -> str:
        if value not in allowed:
            raise ValueError(f"expected {'|'.join(allowed)}, got {value!r}")
        return value

    return parse


_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


# every accepted config key: its parser and the EstimatorConfig field it
# sets ("basis.<field>" for a BasisSpec field), or None for a command's own key
_KEYS = {
    "functional": (str, "functional"),
    "variant": (str, "variant"),
    "m": (int, "m"),
    "tuning": (_one_of("default", "manual"), None),
    "split_fraction": (float, "split_fraction"),
    "seed": (int, "seed"),
    "eigen_floor": (float, "eigen_floor"),
    "cross_fit": (lambda v: _FLAGS[_one_of(*_FLAGS)(v.lower())], "cross_fit"),
    "ci_level": (float, "ci_level"),
    "basis.family": (str, "basis.family"),
    "basis.dimension": (int, "basis.dimension"),
    "basis.per_dim_size": (int, "basis.per_dim_size"),
    "basis.order": (int, "basis.order"),
    "nuisance.method": (_one_of("series", "zero"), "nuisance_method"),
    "nuisance.k_grid": (lambda v: tuple(int(t) for t in v.split(";")), "nuisance_k_grid"),
    "nuisance.folds": (int, "nuisance_folds"),
    "nuisance.sigma_floor": (float, "sigma_floor"),
    "scenario": (str, None),
    "n": (int, None),
    "reps": (int, None),
}
# the keys each command reads: a run every EstimatorConfig key and its own
_RUN = [key for key, (_, name) in _KEYS.items() if name] + ["tuning"]
_READS = {"estimate": _RUN, "simulate": _RUN + ["scenario", "n", "reps"],
          "basis-inspect": [key for key in _KEYS if key.startswith("basis.")]}


def parse_config_text(text: str, source: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{lineno}: expected key=value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ValidationError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _KEYS[key][0](val)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{source}:{lineno}: bad value for {key}: {exc}")
    return out


def load_config(path: str | None, overrides: list[str], command: str) -> dict:
    """The keys of the config file, then the overrides, then HOIF_SEED if the
    command reads a seed; a key it does not read is a validation error."""
    cfg = {}
    if path:
        cfg.update(parse_config_text(read_text(path), path))
    for item in overrides:
        cfg.update(parse_config_text(item, "--set"))
    if "HOIF_SEED" in os.environ and "seed" in _READS[command]:
        # parsed as a config line, so a bad value is a validation error
        cfg["seed"] = parse_config_text(f"seed={os.environ['HOIF_SEED']}", "HOIF_SEED")["seed"]
    for key in cfg:
        if key not in _READS[command]:
            raise ValidationError(f"key {key!r} is not read by {command}")
    return cfg


def _config_lines(cfg: dict) -> list[str]:
    return [f"{k}={_cfg_text(cfg[k])}" for k in sorted(cfg)]


def config_hash(cfg: dict) -> str:
    """Hash of the config's echo lines: key order and spelling do not matter."""
    return hashlib.sha256("\n".join(_config_lines(cfg)).encode()).hexdigest()[:16]


def header_lines(cfg: dict) -> tuple[str, ...]:
    return f"hoif {hoif.__version__}", f"config-hash {config_hash(cfg)}", f"seed {cfg['seed']}"


def check_out(out_dir: Path, names: tuple[str, ...]):
    """Refuse, creating nothing, an ``out_dir`` that ``write_run`` could not
    write the config echo and the artifacts ``names`` into: a file, a path
    under a file or in a directory this process may not write, or a
    directory holding one of those names as other than a file."""
    with writing(out_dir):
        base = existing_ancestor(out_dir)
        if not base.is_dir():
            code = errno.EEXIST if base == out_dir.absolute() else errno.ENOTDIR
            raise OSError(code, os.strerror(code), str(out_dir))
        if not os.access(base, os.W_OK | os.X_OK):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES), str(base))
        for path in (out_dir / name for name in (ECHO, *names)):
            if path.exists() and not path.is_file():
                code = errno.EISDIR if path.is_dir() else errno.EEXIST
                raise OSError(code, os.strerror(code), str(path))


def write_run(cfg: dict, out_dir: Path, artifacts: dict[str, str]):
    """A run's one write, all or nothing: the echo of ``cfg`` and each artifact
    (name -> text), written in full beside ``out_dir`` and then moved into it.
    Files of other names in an existing ``out_dir`` stay."""
    lines = [f"# hoif {hoif.__version__}", f"# config-hash {config_hash(cfg)}"]
    files = {ECHO: "\n".join(lines + _config_lines(cfg)) + "\n", **artifacts}
    check_out(out_dir, tuple(artifacts))  # again: the run may have been long
    with writing(out_dir), staging(out_dir) as stage:
        for name, text in files.items():
            (stage / name).write_text(text)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in files:
            os.replace(stage / name, out_dir / name)


def _cfg_text(v):
    if isinstance(v, tuple):
        return ";".join(str(t) for t in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def estimator_config(cfg: dict, dimension: int, n: int | None = None) -> EstimatorConfig:
    """EstimatorConfig of the keys ``cfg`` sets; every other field keeps its default."""
    given = {_KEYS[key][1]: v for key, v in cfg.items() if _KEYS[key][1]}
    spec = {name.removeprefix("basis."): v for name, v in given.items() if "." in name}
    kwargs = {name: v for name, v in given.items() if "." not in name}
    basis = replace(EstimatorConfig().basis, **{"dimension": dimension, **spec})
    if cfg.get("tuning") != "default":
        return EstimatorConfig(basis=basis, **kwargs)
    if n is None:
        raise ValidationError("default tuning needs the sample size")
    kwargs.pop("m", None)  # the tuning rule picks m
    run = EstimatorConfig(basis=basis, **kwargs)
    n_est = estimation_size(n, run.split_fraction)
    k, m = default_tuning(max(n_est, 8), run.variant, basis.dimension, basis.family,
                          basis.order, n - n_est, run)
    q = round(k ** (1.0 / basis.dimension))  # k is q**dimension
    return replace(run, m=m, basis=replace(basis, per_dim_size=q))


def render_config(run: EstimatorConfig) -> dict:
    """The config keys of a resolved EstimatorConfig, one per field the
    key table names: the inverse of ``estimator_config``."""
    return {key: attrgetter(name)(run) for key, (_, name) in _KEYS.items() if name}


def cmd_estimate(args) -> int:
    cfg = load_config(args.config, args.set or [], "estimate")
    data = dataset_from_csv(args.input, d=cfg.get("basis.dimension"))
    run_cfg = estimator_config(cfg, data.d, n=data.n)
    echo = {**render_config(run_cfg), "tuning": cfg.get("tuning", "manual")}
    out_dir = Path(args.out)
    check_out(out_dir, REPORT)
    report = estimate(data, run_cfg)
    head = header_lines(echo)
    write_run(echo, out_dir, dict(zip(REPORT, (
        table_csv(report.CSV_COLUMNS, [report.csv_row()], head),
        "".join(f"# {h}\n" for h in head) + report.text_block() + "\n"))))
    print(report.text_block())
    if report.zero_convention_applied:
        return EXIT_ZERO_CONVENTION
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.set or [], "simulate")
    out_dir = Path(args.out)
    scenario = cfg.get("scenario")
    if scenario not in SCENARIOS:
        raise ValidationError(f"unknown scenario {scenario!r}")
    scn = SCENARIOS[scenario]
    # the scenario owns these: run_study runs its functional whatever cfg sets
    for key, owned in (("functional", scn.functional), ("basis.dimension", scn.d)):
        if cfg.get(key, owned) != owned:
            raise ValidationError(f"{key}={cfg[key]} contradicts scenario {scn.id}, "
                                  f"which sets {key}={owned}")
        cfg[key] = owned
    n, reps = cfg.get("n", 2000), cfg.get("reps", 100)
    run_cfg = estimator_config(cfg, scn.d, n=n)
    echo = {**render_config(run_cfg), "tuning": cfg.get("tuning", "manual"),
            "scenario": scn.id, "n": n, "reps": reps}
    check_out(out_dir, STUDY)
    result = run_study(scn, run_cfg, reps=reps, seed=run_cfg.seed, n=n,
                       threads=args.threads)
    head = header_lines(echo)
    write_run(echo, out_dir, dict(zip(STUDY, (result.rows_csv(head),
                                              result.aggregates_csv(head)))))
    print(f"scenario {scn.id}: psi_true={result.psi_true:.10g} "
          f"reps={reps} n={n} -> {out_dir}")
    return EXIT_OK


def _read_csv_rows(path: str) -> tuple[list[str], list[dict]]:
    lines = [row for row in csv.reader(io.StringIO(read_text(path)))
             if "".join(row).strip() and not row[0].startswith("#")]
    if not lines:
        raise ValidationError(f"{path}: empty input")
    if any(len(parts) != len(lines[0]) for parts in lines):
        raise ValidationError(f"{path}: schema mismatch")
    return lines[0], [dict(zip(lines[0], parts)) for parts in lines[1:]]


def _loglog_slope(xs: list[float], ys: list[float]) -> float:
    pairs = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len({x for x, _ in pairs}) < 2:
        return float("nan")
    lx = np.log([p[0] for p in pairs])
    ly = np.log([p[1] for p in pairs])
    return float(np.polyfit(lx, ly, 1)[0])


def cmd_report(args) -> int:
    all_rows, cols = [], None
    for path in args.inputs:
        file_cols, rows = _read_csv_rows(path)
        if cols not in (None, file_cols):
            raise ValidationError(f"{path}: schema mismatch with {args.inputs[0]}")
        cols = file_cols
        all_rows.extend(rows)
    missing = [c for c in ("scenario", "variant", "m") if c not in cols]
    if missing:
        raise ValidationError(f"{args.inputs[0]}: missing columns {', '.join(missing)}")
    if not all_rows:
        raise ValidationError("no aggregate rows")

    def fnum(row, col):
        try:
            return float(row.get(col, ""))
        except ValueError:
            return float("nan")

    # slopes fitted per (scenario, variant, m): |bias| against k, and the
    # mean operator-norm distance against n
    groups: dict[tuple, list[dict]] = {}
    for row in all_rows:
        groups.setdefault((row["scenario"], row["variant"], row["m"]), []).append(row)
    slopes = {key: {"slope_bias_vs_k": _loglog_slope([fnum(r, "k") for r in rows],
                                                     [abs(fnum(r, "bias")) for r in rows]),
                    "slope_op_dist_vs_n": _loglog_slope([fnum(r, "n") for r in rows],
                                                        [fnum(r, "mean_op_dist") for r in rows])}
              for key, rows in groups.items()}
    text = table_csv(",".join(cols + ["slope_bias_vs_k", "slope_op_dist_vs_n"]),
                     [{**row, **slopes[(row["scenario"], row["variant"], row["m"])]}
                      for row in all_rows])
    if args.out:
        with replacing(args.out) as fh:
            fh.write(text)
    print(text, end="")
    return EXIT_OK


def cmd_basis_inspect(args) -> int:
    """The basis of the ``basis.*`` keys (``EstimatorConfig``'s for those not
    given): its keys, k, locality constant and uniform-density Gram, built
    as a study builds its population Gram (an order-0 basis's from its cells)."""
    cfg = load_config(args.config, args.set or [], "basis-inspect")
    run = estimator_config(cfg, EstimatorConfig().basis.dimension)
    basis = run.basis
    gram = population_gram(basis, lambda x: np.ones(x.shape[0]), basis_quadrature(basis))
    rep = invert_checked(gram)
    if args.gram_out:  # its dense view is planned and written before any line is printed
        save_gram(gram, args.gram_out)
    print("basis             :", *(f"--set {k}={v}" for k, v in render_config(run).items()
                                   if k in _READS["basis-inspect"]))
    print(f"k                 : {basis.k}")
    print(f"locality constant : {basis.locality_constant:.10g}")
    print(f"uniform Gram eig  : [{rep.eig_min:.10g}, {rep.eig_max:.10g}]")
    print(f"condition number  : {rep.condition_number:.10g}")
    if args.gram_out:
        print(f"gram written      : {args.gram_out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoif",
        description="higher-order influence function estimation toolkit",
    )
    parser.add_argument("--threads", type=int, default=1,
                        help="processes that run simulate, this one included: "
                             "T >= 2 forks T-1 workers that take replications "
                             "beside it; the output is the same for any T")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate a functional from a CSV")
    p_est.add_argument("--input", required=True, help="input dataset CSV")
    p_est.add_argument("--out", required=True, help="output directory")
    p_est.add_argument("--config", help="key=value config file")
    p_est.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="config override (repeatable)")
    p_est.set_defaults(fn=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--config", help="key=value config file")
    p_sim.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_sim.set_defaults(fn=cmd_simulate)

    p_rep = sub.add_parser("report", help="merge aggregate CSVs with slope fits")
    p_rep.add_argument("inputs", nargs="+", help="aggregate CSV files")
    p_rep.add_argument("--out", help="write the merged table here")
    p_rep.set_defaults(fn=cmd_report)

    p_bas = sub.add_parser("basis-inspect", help="inspect the basis that the basis.* keys set")
    p_bas.add_argument("--config", help="key=value config file of basis.* keys")
    p_bas.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="basis.* key override (repeatable), e.g. basis.per_dim_size=8")
    p_bas.add_argument("--gram-out", help="write the uniform-density Gram here")
    p_bas.set_defaults(fn=cmd_basis_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ValidationError("threads must be >= 1")
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # a fault in the program, not in its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
