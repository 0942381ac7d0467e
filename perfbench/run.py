"""hoif benchmark: closed-loop runs of ``hoif.cli.main`` on generated inputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload est-k64-m4 --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seconds 36     # every workload
    python3 perfbench/selftest.py                             # harness self-tests

One client in this process calls ``hoif.cli.main([...])`` one operation at
a time, each starting when the previous one has finished.  A warm-up
operation runs first and is excluded from the timings.  The measured loop
alternates the operation at ``--threads 2`` (the shipped default on a
2-core machine) and at ``--threads 1`` until ``--seconds`` have passed.
Every operation's artifacts are checked; an operation fails on a non-zero
exit code (the zero convention, code 3, included) or on a failed check.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median wall time
of fresh interpreters importing ``hoif.cli``), ``wall_s`` and ``wall_s_1t``
(median seconds per operation at 2 and 1 threads), ``peak_rss_mb`` (one
operation in a fresh child process) and ``ok_ratio`` (1 - failed/attempted).
``--trace 1`` reports the per-layer metrics in ``PER_LAYER_UNITS``: it
spends half of ``--seconds`` on the untraced loop and half on operations
traced by ``tracing``, whose wrappers are removed before anything else runs.
Every run writes its full results (all stage metrics, the trace rollup,
machine facts and the tracing overhead) to ``perfbench/results/`` and its
spans next to them; the last line of standard output is a JSON summary.

``reference.json`` holds psi_hat and the per-order terms at ``--seed 0``,
recorded from the commit that introduced this benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import inputs  # noqa: E402  (sibling module; numpy only)
import tracing  # noqa: E402

DEFAULT_SEED = 0
# |psi_hat - psi| must stay within this many reported standard errors
Z_CHECK = 6.0
# agreement with reference.json: loose enough for reassociation
REF_ATOL, REF_RTOL = 1e-10, 1e-8
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
MIN_PAIRS = 2
CHILD_TIMEOUT_S = 150
THREADS = (2, 1)


@dataclass(frozen=True)
class Workload:
    command: str  # estimate | simulate
    n: int  # records in the input CSV, or per replication
    settings: tuple[str, ...]
    why: str

    @property
    def reps(self) -> int:
        return next((int(s.split("=")[1]) for s in self.settings
                     if s.startswith("reps=")), 0)


_SIM = ("scenario=s2-smooth-d2", "n=5000", "m=3", "basis.per_dim_size=4")
WORKLOADS = {
    "est-k64-m4": Workload(
        "estimate", 20_000, ("basis.per_dim_size=8", "m=4", "variant=emp"),
        "k=64, m=4 as the ac rate rule asks at this n; ustat.ifjj dominates"),
    "est-n200k-xfit": Workload(
        "estimate", 200_000,
        ("basis.per_dim_size=4", "m=2", "variant=emp", "cross_fit=true"),
        "CSV ingest dominates; basis, nuisance and Gram run once per half"),
    "sim-emp": Workload(
        "simulate", 5000, _SIM + ("reps=60", "variant=emp"),
        "many small replications: per-replication overhead, thread scaling"),
    "sim-ac": Workload(
        "simulate", 5000, _SIM + ("reps=40", "variant=ac"),
        "quadrature Gram over a 65 536-node grid in every replication"),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "wall_s_1t": "s",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}
# The per-layer metrics in the JSON summary: those that are non-zero on
# every workload.  Stage metrics that only some workloads reach (ingest,
# IFjj, the quadrature Gram, the study runner) are in the results file.
PER_LAYER_UNITS = {
    "slowest_stage.s": "s",
    "ustat.self_s": "s",
    "ustat.if22.s": "s",
    "basis.self_s": "s",
    "basis.evaluate_many.s": "s",
    "basis.evaluate_many.calls": "count",
    "basis.evaluate_many.rows": "count",
    "basis.build_basis.s": "s",
    "basis.build_basis.calls": "count",
    "nuisance.self_s": "s",
    "nuisance.fit_nuisances.s": "s",
    "nuisance.fit_nuisances.calls": "count",
    "gram.self_s": "s",
    "gram.invert_checked.s": "s",
    "gram.condition_number_max": "ratio",
    "estimator.self_s": "s",
    "estimator.split_sample.s": "s",
    "estimator.estimate.calls": "count",
    "cli.self_s": "s",
    "sim.thread_speedup": "ratio",
    "hoif.basis.import_s": "s",
    "hoif.estimator.import_s": "s",
    "hoif.cli.import_s": "s",
}


def import_hoif() -> str | None:
    """Import hoif from this checkout's ``src``; return a problem, or None."""
    if not (SRC / "hoif" / "cli.py").is_file():
        return f"no hoif sources at {SRC.relative_to(ROOT)}/hoif"
    os.environ.pop("HOIF_SEED", None)  # the CLI lets it override the seed
    sys.path.insert(0, str(SRC))
    import hoif.cli

    if Path(hoif.cli.__file__).resolve().parent != SRC / "hoif":
        return f"imported hoif from {hoif.cli.__file__}, not from {SRC}"
    return None


# -- operations ---------------------------------------------------------------

def op_argv(wl: Workload, threads: int, seed: int, out: Path, csv: Path | None):
    argv = ["--threads", str(threads), wl.command]
    if csv is not None:
        argv += ["--input", str(csv)]
    argv += ["--out", str(out)]
    for s in wl.settings + (f"seed={seed}",):
        argv += ["--set", s]
    return argv


def run_in_process(argv: list[str], out: Path) -> tuple[int, float, str]:
    """One operation through ``hoif.cli.main``; returns (code, seconds, stderr)."""
    import hoif.cli

    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = hoif.cli.main(argv)
        seconds = time.perf_counter() - t0
    return code, seconds, err.getvalue()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def setup_seconds() -> float:
    """Wall seconds for a fresh interpreter to ``import hoif.cli``."""
    t0 = time.perf_counter()
    proc = run_child(["-c", "import hoif.cli"])
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import hoif.cli failed: {proc.stderr.strip()}")
    return seconds


IMPORT_MODULES = ("hoif.basis", "hoif.estimator", "hoif.cli")


def import_breakdown() -> dict[str, float]:
    """Median cumulative import seconds per module from ``-X importtime``."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = run_child(["-X", "importtime", "-c", "import hoif.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"import hoif.cli failed: {proc.stderr.strip()}")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {f"{m}.import_s": statistics.median(v) for m, v in samples.items()}


_RSS_CHILD = """
import contextlib, io, json, resource, sys
from hoif.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def run_rss_child(argv: list[str]) -> tuple[int, float]:
    """One operation in a fresh interpreter; returns (code, peak RSS in MB)."""
    proc = run_child(["-c", _RSS_CHILD, *argv])
    if proc.returncode != 0:
        return proc.returncode, math.nan
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    return rec["code"], rec["maxrss_kb"] / 1024.0


# -- output checks -------------------------------------------------------------

def read_csv(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    cols = lines[0].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[1:]]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REF_ATOL + REF_RTOL * abs(b)


def reference_values(wl: Workload, out: Path) -> dict:
    """The values compared against ``reference.json`` at the default seed."""
    if wl.command == "estimate":
        row = read_csv(out / "report.csv")[0]
        m = int(row["m"])
        keys = ["psi_hat", "psi_1"] + [f"per_order_{j}" for j in range(2, m + 1)]
        return {k: float(row[k]) for k in keys}
    rows = read_csv(out / "replications.csv")
    return {"psi_hat": [float(r["psi_hat"]) for r in rows],
            "psi_1": [float(r["psi_1"]) for r in rows]}


def check_output(wl: Workload, out: Path, reference: dict | None) -> tuple[list[str], object]:
    """Problems found in one operation's artifacts, and its identity key.

    The key must be equal across the operations of a run: the report's data
    row without ``elapsed_s`` for estimate, the artifact bytes for simulate.
    """
    problems: list[str] = []
    if wl.command == "estimate":
        rows = read_csv(out / "report.csv")
        if len(rows) != 1:
            return [f"report.csv has {len(rows)} data rows"], None
        row = rows[0]
        psi, var = float(row["psi_hat"]), float(row["variance_est"])
        if not (math.isfinite(psi) and math.isfinite(var) and var > 0):
            problems.append(f"psi_hat={psi} variance_est={var}")
        elif abs(psi - inputs.PSI_TRUE) > Z_CHECK * math.sqrt(var):
            problems.append(f"psi_hat={psi} is more than {Z_CHECK} SE from "
                            f"{inputs.PSI_TRUE}")
        if row["zero_convention"] != "0":
            problems.append("zero convention applied")
        key = tuple((k, v) for k, v in row.items() if k != "elapsed_s")
    else:
        rows = read_csv(out / "replications.csv")
        (agg,) = read_csv(out / "aggregates.csv")
        bad = [r["rep"] for r in rows if r["error"] or r["zero_convention"] != "0"
               or not math.isfinite(float(r["psi_hat"] or "nan"))]
        if len(rows) != wl.reps or bad:
            problems.append(f"{len(rows)} rows, failed or zero-convention reps {bad}")
        if abs(float(agg["psi_true"]) - inputs.PSI_TRUE) > 1e-9:
            problems.append(f"psi_true={agg['psi_true']} != {inputs.PSI_TRUE}")
        reps_ok, bias, sd = int(agg["reps_ok"]), float(agg["bias"]), float(agg["sd"])
        if not abs(bias) <= Z_CHECK * sd / math.sqrt(reps_ok):
            problems.append(f"bias={bias} exceeds {Z_CHECK} SE (sd={sd}, reps={reps_ok})")
        key = ((out / "replications.csv").read_bytes(), (out / "aggregates.csv").read_bytes())
    if reference is not None:
        got = reference_values(wl, out)
        for name, want in reference.items():
            a = got[name] if isinstance(got[name], list) else [got[name]]
            b = want if isinstance(want, list) else [want]
            if len(a) != len(b) or not all(close(x, y) for x, y in zip(a, b)):
                problems.append(f"{name} differs from reference.json")
    return problems, key


class Tally:
    """Attempted and failed operations of one run.

    An operation fails on a non-zero exit code, a failed output check, or
    artifacts that differ from those of the run's first operation.
    """

    def __init__(self, wl: Workload, reference: dict | None):
        self.wl, self.reference = wl, reference
        self.attempted = 0
        self.failures: list[str] = []
        self._first_key = None

    def record(self, code: int, out: Path, label: str):
        self.attempted += 1
        problems = [f"exit code {code}"] if code != 0 else []
        if code in (0, 3):
            try:
                found, key = check_output(self.wl, out, self.reference)
            except (OSError, LookupError, ValueError) as exc:
                found, key = [f"unreadable artifacts: {type(exc).__name__}: {exc}"], None
            problems += found
            if self._first_key is None:
                self._first_key = key
            elif key != self._first_key:
                problems.append("artifacts differ from the run's first operation")
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    @property
    def error_ratio(self) -> float:
        return len(self.failures) / self.attempted


# -- machine facts ---------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _last_level_cache() -> str | None:
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level >= best[0]:
            best = (level, f"L{level} {size}")
    return best[1] if best else None


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "thread_env": {v: os.environ[v] for v in thread_vars if v in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


# -- the run -----------------------------------------------------------------------

def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    p = math.floor(100 * (1 - 10 / n)) if n else 0
    if p < 50:
        return None
    return f"p{p}", sorted(values)[max(math.ceil(p / 100 * n) - 1, 0)]


def measure(wl_name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[wl_name]
    tag = f"{wl_name}-seed{seed}-trace{int(trace)}"
    work = HERE / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    refs = json.loads((HERE / "reference.json").read_text())
    reference = refs[wl_name] if seed == DEFAULT_SEED else None

    res: dict = {"workload": wl_name, "why": wl.why, "seed": seed,
                 "seconds": seconds, "trace": int(trace), "machine": machine_facts()}
    csv = None
    if wl.command == "estimate":
        csv = work / "input.csv"
        res["input"] = inputs.write_csv(csv, wl.n, seed)

    tally = Tally(wl, reference)
    run_problems: list[str] = []

    if trace:
        res["import_s"] = import_breakdown()

    out = work / "out"
    code, _, err = run_in_process(op_argv(wl, 2, seed, out, csv), out)
    tally.record(code, out, f"warm-up {err.strip()}")

    # A traced run splits its time between the untraced and the traced loop.
    # The setup_s samples are spread evenly over the loop, outside its clock,
    # so that they see the same machine as the operations.
    loop_s = seconds / 2 if trace else seconds
    walls: dict[int, list[float]] = {t: [] for t in THREADS}
    setups: list[float] = []
    t_start, paused = time.perf_counter(), 0.0
    pair = 0
    while True:
        elapsed = time.perf_counter() - t_start - paused
        while not trace and len(setups) < SETUP_SAMPLES and (
                elapsed >= len(setups) * loop_s / (SETUP_SAMPLES - 1)):
            setups.append(setup_seconds())
            paused += setups[-1]
        if pair >= MIN_PAIRS and elapsed >= loop_s:
            break
        for threads in (THREADS if pair % 2 == 0 else THREADS[::-1]):
            code, wall, err = run_in_process(op_argv(wl, threads, seed, out, csv), out)
            walls[threads].append(wall)
            tally.record(code, out, f"op threads={threads} {err.strip()}")
        pair += 1
    res["setup_s_samples"] = setups
    res["wall_s_samples"] = walls[2]
    res["wall_s_1t_samples"] = walls[1]

    if not trace:
        rss_out = work / "out-rss"
        code, rss = run_rss_child(op_argv(wl, 2, seed, rss_out, csv))
        tally.record(code, rss_out, "peak-rss child")
        res["peak_rss_mb"] = rss

    tracer = tracing.Tracer()
    traced_walls = []
    t_start = time.perf_counter()
    with tracer.installed():
        while not traced_walls or (trace and (len(traced_walls) < 2 or
                                              time.perf_counter() - t_start < loop_s)):
            with tracer.operation(len(traced_walls)):
                code, wall, err = run_in_process(op_argv(wl, 2, seed, out, csv), out)
            traced_walls.append(wall)
            tally.record(code, out, f"traced op {err.strip()}")
    tracer.write_jsonl(HERE / "results" / f"{tag}.spans.jsonl")
    res["uninstrumented"] = tracer.missing
    if trace:
        # tracemalloc slows every allocation, so the ifjj allocation peak
        # comes from one more operation whose times are not used
        mem_tracer = tracing.Tracer(track_memory=True)
        with mem_tracer.installed(), mem_tracer.operation(0):
            code, _, err = run_in_process(op_argv(wl, 2, seed, out, csv), out)
        tally.record(code, out, f"memory-traced op {err.strip()}")
        peak_alloc = tracing.layer_metrics(mem_tracer.spans)["ustat.ifjj.peak_alloc_mb"]
    left = tracing.wrappers_removed()
    if left:
        run_problems.append(f"wrappers left installed after the traced run: {left}")

    wall_s = statistics.median(walls[2])
    traced_wall = statistics.median(traced_walls)
    ops = [[s for s in tracer.spans if s.op == i] for i in range(len(traced_walls))]
    per_op = [tracing.layer_metrics(spans) for spans in ops]
    per_layer = {k: float(statistics.median(m[k] for m in per_op)) for k in per_op[0]}
    per_layer["sim.thread_speedup"] = statistics.median(walls[1]) / wall_s
    if trace:
        per_layer.update(res["import_s"])
        per_layer["ustat.ifjj.peak_alloc_mb"] = peak_alloc
    roll = tracing.rollup([s for spans in ops for s in spans])
    res["tracing_overhead"] = {"traced_wall_s": traced_wall, "untraced_wall_s": wall_s,
                               "share": traced_wall / wall_s - 1.0,
                               "traced_ops": len(traced_walls)}
    res["rollup"] = {"per_op_layer_self_s": {k: v / len(ops) for k, v in
                                             roll["layer_self_s"].items()},
                     "per_op_stage_s": {k: v / len(ops) for k, v in
                                        roll["stage_s"].items()},
                     "traced_wall_s": traced_wall,
                     "slowest_layer": roll["slowest_layer"],
                     "slowest_stage": roll["slowest_stage"]}
    per_layer["slowest_stage.s"] = roll["stage_s"][roll["slowest_stage"]] / len(ops)
    res["per_layer"] = per_layer
    res["attempted"], res["failed"] = tally.attempted, len(tally.failures)
    res["failures"] = tally.failures + run_problems
    if not trace:
        res["end_to_end"] = {
            "setup_s": statistics.median(res["setup_s_samples"]),
            "wall_s": wall_s,
            "wall_s_1t": statistics.median(walls[1]),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": 1.0 - tally.error_ratio,
        }
    shutil.rmtree(work, ignore_errors=True)
    return res


def report(res: dict):
    """Human-readable lines; the JSON summary follows them."""
    print(f"workload {res['workload']} seed {res['seed']} trace {res['trace']}: "
          f"{res['why']}")
    if "input" in res:
        inp = res["input"]
        print(f"  input       n={inp['n']} seed={inp['seed']} sha256={inp['sha256'][:16]}")
    for label, key in (("wall_s", "wall_s_samples"), ("wall_s_1t", "wall_s_1t_samples")):
        vals = res[key]
        tail = tail_percentile(vals)
        tail_txt = (f"{tail[0]} {tail[1]:.4f} s" if tail else
                    "no percentile has 10 samples beyond it")
        print(f"  {label:<12}{statistics.median(vals):.4f} s  median of {len(vals)} ops; "
              f"{tail_txt}")
    e2e = res.get("end_to_end")
    if e2e:
        print(f"  setup_s     {e2e['setup_s']:.4f} s  median of "
              f"{len(res['setup_s_samples'])} fresh imports of hoif.cli")
        print(f"  peak_rss_mb {e2e['peak_rss_mb']:.1f} MB  one operation in a fresh child")
    print(f"  error_ratio {res['failed'] / res['attempted']:.4f}  "
          f"({res['failed']} failed of {res['attempted']} attempted)")
    for line in res["failures"]:
        print(f"  FAILED {line}")
    over = res["tracing_overhead"]
    print(f"  tracing overhead {100 * over['share']:+.1f}% of untraced wall_s "
          f"{over['untraced_wall_s']:.4f} s ({over['traced_ops']} traced ops)")
    roll = res["rollup"]
    layers, stages = roll["per_op_layer_self_s"], roll["per_op_stage_s"]
    base = sum(layers.values())
    print(f"  per traced op, wall {roll['traced_wall_s']:.4f} s; shares are of the "
          f"summed self time {base:.4f} s (all threads):")
    for layer, v in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"    layer {layer:<10}{v:9.4f} s {100 * v / base:5.1f}%")
    for stage, v in sorted(stages.items(), key=lambda kv: -kv[1])[:6]:
        print(f"    stage {stage:<26}{v:9.4f} s {100 * v / base:5.1f}%")
    print(f"  slowest layer: {roll['slowest_layer']}; slowest stage: {roll['slowest_stage']}")
    if res["uninstrumented"]:
        print(f"  not traced, absent from hoif: {', '.join(res['uninstrumented'])}")
    if res["trace"]:
        names = sorted(res["per_layer"])
        print("  per-layer metrics, median per traced op:")
        for i in range(0, len(names), 3):
            print("    " + "  ".join(f"{n}={res['per_layer'][n]:.6g}" for n in names[i:i + 3]))


def summary(res: dict, trace: bool) -> dict:
    if trace:
        metrics = {n: {"value": res["per_layer"][n], "unit": u}
                   for n, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]}
                   for n, v in res["end_to_end"].items()}
    for m in metrics.values():  # a failed child leaves NaN, which JSON lacks
        if not math.isfinite(m["value"]):
            m["value"] = None
    return {"correct": not res["failures"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def run_all(argv: list[str]) -> int:
    """Run every workload in its own interpreter; sum their summaries."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, *argv],
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 2
        part = json.loads(lines[-1])
        total["correct"] &= part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="a workload, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(["--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace)])

    problem = import_hoif()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    (HERE / "results").mkdir(exist_ok=True)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (HERE / "results" / f"{tag}.json").write_text(json.dumps(res, indent=1) + "\n")
    report(res)
    print(json.dumps(summary(res, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
