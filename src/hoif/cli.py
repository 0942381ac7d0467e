"""Command-line surface: estimate, simulate, report, basis-inspect.

Configuration is plain-text key=value with dotted namespaces; command-line
``--set key=value`` entries override the file.  Every run writes a resolved
config echo, and every artifact starts with a comment header carrying the
tool version, the resolved config hash, and the master seed.

Exit codes: 0 success, 2 validation error, 3 zero-convention trigger
(the estimate is still written), 4 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import hoif
from hoif.basis import BasisSpec, basis_from_preset
from hoif.data import ValidationError, dataset_from_csv
from hoif.estimator import (
    EstimatorConfig,
    default_tuning,
    estimate,
    estimation_size,
)
from hoif.gram import invert_checked, quadrature_gram, save_gram
from hoif.quadrature import QuadratureSpec, default_nodes_per_dim
from hoif.sim import SCENARIOS, run_study

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ZERO_CONVENTION = 3
EXIT_INTERNAL = 4


def _one_of(*allowed: str):
    def parse(value: str) -> str:
        if value not in allowed:
            raise ValueError(f"expected {'|'.join(allowed)}, got {value!r}")
        return value

    return parse


_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


# every accepted config key with its parser; unknown keys are rejected
_KEY_PARSERS = {
    "functional": str,
    "variant": str,
    "m": int,
    "tuning": _one_of("default", "manual"),
    "split_fraction": float,
    "seed": int,
    "eigen_floor": float,
    "cross_fit": lambda v: _FLAGS[_one_of(*_FLAGS)(v.lower())],
    "ci_level": float,
    "basis.family": str,
    "basis.dimension": int,
    "basis.per_dim_size": int,
    "basis.order": int,
    # plugin stays library-only: it needs nuisance sets passed in as objects
    "nuisance.method": _one_of("series", "zero"),
    "nuisance.k_grid": lambda v: tuple(int(t) for t in v.split(";")),
    "nuisance.folds": int,
    "nuisance.sigma_floor": float,
    "scenario": str,
    "n": int,
    "reps": int,
}


def parse_config_text(text: str, source: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{lineno}: expected key=value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_PARSERS:
            raise ValidationError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _KEY_PARSERS[key](val)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{source}:{lineno}: bad value for {key}: {exc}")
    return out


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = {}
    if path:
        cfg.update(parse_config_text(Path(path).read_text(), path))
    for item in overrides:
        cfg.update(parse_config_text(item, "--set"))
    if "HOIF_SEED" in os.environ:
        cfg["seed"] = int(os.environ["HOIF_SEED"])
    return cfg


def config_hash(cfg: dict) -> str:
    blob = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def header_lines(cfg: dict) -> tuple[str, ...]:
    return (
        f"hoif {hoif.__version__}",
        f"config-hash {config_hash(cfg)}",
        f"seed {cfg.get('seed', 0)}",
    )


def write_resolved_config(cfg: dict, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"# hoif {hoif.__version__}", f"# config-hash {config_hash(cfg)}"]
    lines += [f"{k}={_cfg_text(cfg[k])}" for k in sorted(cfg)]
    (out_dir / "resolved_config.txt").write_text("\n".join(lines) + "\n")


def _cfg_text(v):
    if isinstance(v, tuple):
        return ";".join(str(t) for t in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _basis_spec(cfg: dict, dimension: int) -> BasisSpec:
    return BasisSpec(
        cfg.get("basis.family", "haar"),
        cfg.get("basis.dimension", dimension),
        cfg.get("basis.per_dim_size", 4),
        order=cfg.get("basis.order", 0),
    )


def estimator_config(cfg: dict, dimension: int, n: int | None = None) -> EstimatorConfig:
    spec = _basis_spec(cfg, dimension)
    m = cfg.get("m", 2)
    variant = cfg.get("variant", "emp")
    if cfg.get("tuning", "manual") == "default":
        if n is None:
            raise ValidationError("default tuning needs the sample size")
        n_est = max(estimation_size(n, cfg.get("split_fraction", 0.5)), 8)
        k, m = default_tuning(n_est, variant, spec.dimension, spec.family)
        q = round(k ** (1.0 / spec.dimension))
        spec = replace(spec, per_dim_size=max(q, spec.order + 1))
    return EstimatorConfig(
        functional=cfg.get("functional", "mar_mean"),
        basis=spec,
        m=m,
        split_fraction=cfg.get("split_fraction", 0.5),
        seed=cfg.get("seed", 0),
        variant=variant,
        eigen_floor=cfg.get("eigen_floor", EstimatorConfig.eigen_floor),
        cross_fit=cfg.get("cross_fit", False),
        nuisance_method=cfg.get("nuisance.method", "series"),
        nuisance_k_grid=cfg.get("nuisance.k_grid", (1, 2, 4)),
        nuisance_folds=cfg.get("nuisance.folds", 2),
        sigma_floor=cfg.get("nuisance.sigma_floor", EstimatorConfig.sigma_floor),
        ci_level=cfg.get("ci_level", 0.95),
    )


def cmd_estimate(args) -> int:
    cfg = load_config(args.config, args.set or [])
    out_dir = Path(args.out)
    data = dataset_from_csv(args.input, d=cfg.get("basis.dimension"))
    run_cfg = estimator_config(cfg, data.d, n=data.n)
    cfg.setdefault("basis.family", run_cfg.basis.family)
    cfg.setdefault("basis.dimension", run_cfg.basis.dimension)
    cfg.setdefault("basis.per_dim_size", run_cfg.basis.per_dim_size)
    cfg.setdefault("m", run_cfg.m)
    cfg.setdefault("seed", run_cfg.seed)
    write_resolved_config(cfg, out_dir)
    report = estimate(data, run_cfg)
    head = "".join(f"# {h}\n" for h in header_lines(cfg))
    (out_dir / "report.csv").write_text(
        head + report.CSV_COLUMNS + "\n" + report.csv_row() + "\n")
    (out_dir / "report.txt").write_text(head + report.text_block() + "\n")
    print(report.text_block())
    if report.zero_convention_applied:
        return EXIT_ZERO_CONVENTION
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.set or [])
    out_dir = Path(args.out)
    scenario = cfg.get("scenario")
    if scenario not in SCENARIOS:
        raise ValidationError(f"unknown scenario {scenario!r}")
    scn = SCENARIOS[scenario]
    n = cfg.get("n", 2000)
    reps = cfg.get("reps", 100)
    seed = cfg.get("seed", 0)
    cfg.setdefault("n", n)
    cfg.setdefault("reps", reps)
    cfg.setdefault("seed", seed)
    run_cfg = estimator_config(cfg, scn.d, n=n)
    write_resolved_config(cfg, out_dir)
    result = run_study(scn, [run_cfg], reps=reps, seed=seed, n=n,
                       threads=args.threads)
    head = header_lines(cfg)
    (out_dir / "replications.csv").write_text(result.rows_csv(head))
    (out_dir / "aggregates.csv").write_text(result.aggregates_csv(head))
    print(f"scenario {scn.id}: psi_true={result.psi_true:.10g} "
          f"reps={reps} n={n} -> {out_dir}")
    return EXIT_OK


def _read_csv_rows(path: str) -> tuple[list[str], list[dict]]:
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValidationError(f"{path}: empty input")
    cols = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(cols):
            raise ValidationError(f"{path}: schema mismatch")
        rows.append(dict(zip(cols, parts)))
    return cols, rows


def _loglog_slope(xs: list[float], ys: list[float]) -> float:
    pairs = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len({x for x, _ in pairs}) < 2:
        return float("nan")
    lx = np.log([p[0] for p in pairs])
    ly = np.log([p[1] for p in pairs])
    return float(np.polyfit(lx, ly, 1)[0])


def cmd_report(args) -> int:
    all_rows = []
    cols = None
    for path in args.inputs:
        file_cols, rows = _read_csv_rows(path)
        if cols is None:
            cols = file_cols
        elif file_cols != cols:
            raise ValidationError(f"{path}: schema mismatch with {args.inputs[0]}")
        all_rows.extend(rows)
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
    slopes = {}
    for key, rows in groups.items():
        slopes[key] = (
            _loglog_slope([fnum(r, "k") for r in rows],
                          [abs(fnum(r, "bias")) for r in rows]),
            _loglog_slope([fnum(r, "n") for r in rows],
                          [fnum(r, "mean_op_dist") for r in rows]),
        )
    out_lines = [",".join(cols) + ",slope_bias_vs_k,slope_op_dist_vs_n"]
    for row in all_rows:
        s_bias, s_op = slopes[(row["scenario"], row["variant"], row["m"])]
        out_lines.append(",".join(row[c] for c in cols)
                         + f",{s_bias:.17g},{s_op:.17g}")
    text = "\n".join(out_lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return EXIT_OK


def cmd_basis_inspect(args) -> int:
    basis = basis_from_preset(args.preset)
    quad = QuadratureSpec(max(default_nodes_per_dim(basis.d),
                              basis.spec.per_dim_size))
    gram = quadrature_gram(basis, lambda x: np.ones(x.shape[0]), quad)
    rep = invert_checked(gram)
    print(f"preset            : {basis.spec.preset_id()}")
    print(f"k                 : {basis.k}")
    print(f"locality constant : {basis.locality_constant:.10g}")
    print(f"uniform Gram eig  : [{rep.eig_min:.10g}, {rep.eig_max:.10g}]")
    print(f"condition number  : {rep.condition_number:.10g}")
    if args.gram_out:
        save_gram(gram, args.gram_out)
        print(f"gram written      : {args.gram_out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoif",
        description="higher-order influence function estimation toolkit",
    )
    parser.add_argument("--threads", type=int,
                        default=os.cpu_count() or 1,
                        help="worker threads for replications")
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

    p_bas = sub.add_parser("basis-inspect", help="inspect a basis preset")
    p_bas.add_argument("--preset", required=True,
                       help="e.g. haar:d=1,L=2 or bspline:d=2,s=3,q=8")
    p_bas.add_argument("--gram-out", help="write the uniform-density Gram here")
    p_bas.set_defaults(fn=cmd_basis_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
