"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 perfbench/selftest.py

Exits 0 when every test passes.  The tests use a small estimate (n=3000)
so they finish in seconds; they touch only ``perfbench/work/selftest``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import numpy as np

import inputs
import run
import tracing

TINY = run.Workload("estimate", 3000, ("basis.per_dim_size=4", "m=3", "variant=emp"),
                    "self-test")
SEED = 5


def check(cond: bool, msg: str):
    if not cond:
        raise AssertionError(msg)


def test_generator_deterministic(work):
    a, b, c = inputs.draw(500, 11), inputs.draw(500, 11), inputs.draw(500, 12)
    check(np.array_equal(a, b), "same seed gave different records")
    check(not np.array_equal(a, c), "different seeds gave the same records")
    check(np.all((a[:, 2:] >= 0) & (a[:, 2:] <= 1)), "X outside [0, 1]")
    check(np.all(a[:, 1] <= a[:, 0]), "Y recorded where A=0")
    p1 = inputs.write_csv(work / "a.csv", 500, 11)
    p2 = inputs.write_csv(work / "b.csv", 500, 11)
    check(p1["sha256"] == p2["sha256"], "same seed gave different CSV bytes")


def test_wrappers_removed(work, csv):
    import hoif.cli

    before = {(p, a): tracing.current(p, a) for p, a, _ in tracing.POINTS}
    tracer = tracing.Tracer()
    out = work / "traced"
    with tracer.installed():
        check(all(hasattr(tracing.current(p, a), "__wrapped__") for p, a, _ in tracing.POINTS),
              "an instrumented name was not wrapped")
        with tracer.operation(0), contextlib.redirect_stdout(io.StringIO()):
            code = hoif.cli.main(run.op_argv(TINY, 2, SEED, out, csv))
    check(code == 0, f"traced operation exited {code}")
    check(tracer.missing == [], f"instrumented names absent: {tracer.missing}")
    check(tracing.wrappers_removed() == [], "wrappers left after the traced run")
    check(all(tracing.current(p, a) is f for (p, a), f in before.items()),
          "an original function was not restored")
    try:
        with tracing.Tracer().installed():
            raise RuntimeError("operation failed")
    except RuntimeError:
        pass
    check(tracing.wrappers_removed() == [], "wrappers left after a failed operation")
    names = {s.name for s in tracer.spans}
    for name in ("cli.main", "data.dataset_from_csv", "ustat.ifjj", "basis.evaluate_many"):
        check(name in names, f"no {name} span recorded")
    return tracer.spans


def test_self_times(spans):
    selfs = tracing.self_times(spans)
    for s in spans:
        kids = [c for c in spans if c.parent == s.id]
        check(sum(selfs[c.id] for c in kids) <= s.duration + 1e-9,
              f"children of {s.name} have more self time than its span")
        check(-1e-9 <= selfs[s.id] <= s.duration + 1e-9, f"{s.name} self time out of range")
    # two concurrent children on worker threads, one basis grandchild
    parent = tracing.Span(0, "sim.run_study", "t", 0.0, None, 0, 1, end=10.0)
    a = tracing.Span(1, "estimator.estimate", "t", 1.0, 0, 0, 2, end=6.0)
    b = tracing.Span(2, "estimator.estimate", "t", 2.0, 0, 0, 3, end=8.0)
    c = tracing.Span(3, "basis.evaluate_many", "t", 3.0, 1, 0, 2, end=4.0)
    selfs = tracing.self_times([parent, a, b, c])
    check(selfs == {0: 3.0, 1: 4.0, 2: 6.0, 3: 1.0}, f"self times {selfs}")
    staged = tracing.self_times([parent, a, b, c], fold=("basis",))
    check(staged == {0: 3.0, 1: 5.0, 2: 6.0}, f"stage times {staged}")
    roll = tracing.rollup([parent, a, b, c])
    check(roll["slowest_stage"] == "estimator.estimate", "wrong slowest stage")
    check(roll["layer_self_s"]["basis"] == 1.0, "basis layer self time")


def test_corrupted_report_counts(work, csv):
    out = work / "plain"
    code, _, err = run.run_in_process(run.op_argv(TINY, 1, SEED, out, csv), out)
    tally = run.Tally(TINY, None)
    tally.record(code, out, "good")
    check(tally.failures == [], f"good operation failed: {tally.failures} {err}")
    report = out / "report.csv"
    lines = report.read_text().splitlines()
    cols = lines[-2].split(",")
    row = lines[-1].split(",")
    row[cols.index("psi_hat")] = "0.9"
    report.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
    alone = run.Tally(TINY, None)  # no earlier operation to compare against
    alone.record(0, out, "corrupted psi_hat")
    check(alone.error_ratio == 1.0, "psi_hat far from the truth passed the check")
    tally.record(0, out, "corrupted psi_hat")
    check(len(tally.failures) == 1 and tally.error_ratio == 0.5,
          f"corrupted report not counted: {tally.failures}")
    report.write_text("")
    tally.record(0, out, "empty report")
    tally.record(3, out, "zero convention")
    check(tally.attempted == 4 and len(tally.failures) == 3,
          f"empty report or exit code 3 not counted: {tally.failures}")


def test_benchmark_json_matches():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS),
          "BENCHMARK.json names a workload the benchmark does not define")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
          "end-to-end metrics differ from BENCHMARK.json")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS,
          "per-layer metrics differ from BENCHMARK.json")


def main() -> int:
    problem = run.import_hoif()
    if problem:
        print(f"selftest: {problem}", file=sys.stderr)
        return 2
    work = run.HERE / "work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    csv = work / "input.csv"
    inputs.write_csv(csv, TINY.n, SEED)
    failed = 0
    spans = []
    tests = [
        ("generator is deterministic per seed", lambda: test_generator_deterministic(work)),
        ("wrappers are removed after the traced run",
         lambda: spans.extend(test_wrappers_removed(work, csv))),
        ("child self times fit inside the parent span", lambda: test_self_times(spans)),
        ("a corrupted report counts in error_ratio",
         lambda: test_corrupted_report_counts(work, csv)),
        ("BENCHMARK.json lists the metrics the benchmark prints", test_benchmark_json_matches),
    ]
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {name}: {exc}")
    shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
