"""One benchmark for the whole stack.

    python3 bench/run.py --workload embedded-miss --seed 7 --seconds 10 --trace 0

builds the inputs from the seed, sets the system up, runs whole passes of
the workload for ``--seconds`` with tracing off, checks the outputs and
prints every end-to-end metric of ``BENCHMARK.json``.  ``--trace 1`` halves
the untraced phase, adds as many traced passes and the rung replays, and
prints the per-layer metrics instead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Other modes: ``--smoke`` (every workload, both trace modes, small scale),
``--runset FILE`` (every workload ``--runs`` times, one process per run),
``--compare A B`` and ``--selfcheck`` (two run-sets, each metric's bound).
See ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("bench/run.py: no src/repro beside bench/ - nothing to measure")
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.benchmeta import run_metadata  # noqa: E402

from layers import (  # noqa: E402
    SpanSummary,
    SpeedKernel,
    Tracer,
    percentile,
    tail_quantile,
)
from workloads import FULL, SMOKE, WORKLOADS, Checks, Scale  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Passes an untraced timed phase runs at least, however slow the machine.
MIN_PASSES = 3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def metadata(seed: int) -> dict:
    meta = run_metadata(seed=seed)
    meta["nproc"] = os.cpu_count()
    meta["loadavg_1m"] = os.getloadavg()[0]
    meta["overloaded"] = meta["loadavg_1m"] > meta["nproc"]
    return meta


def timed_passes(run_pass, state: dict, kernel: SpeedKernel, seconds=0.0, count=0) -> list:
    """Whole passes until ``seconds`` are over, ``count`` of them at least,
    each with the machine's speed factor while it ran."""
    passes = []
    deadline = time.perf_counter() + seconds
    before = kernel.sample()
    while len(passes) < count or time.perf_counter() < deadline:
        one = run_pass(state)
        after = kernel.sample()
        one.speed = kernel.factor(before, after)
        before = after
        passes.append(one)
    return passes


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: Scale) -> dict:
    """One run: every metric the workload yields, plus the check tally."""
    workload = WORKLOADS[name]
    meta = metadata(seed)
    checks = Checks()
    kernel = SpeedKernel()
    setups = []
    state = None
    before = kernel.sample()
    for _ in range(1 if trace else SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        start = time.perf_counter()
        state = workload.setup(seed, scale)
        seconds_taken = time.perf_counter() - start
        after = kernel.sample()
        setups.append(seconds_taken / kernel.factor(before, after))
        before = after
    # What set-up built stays; without this the collector's full passes
    # walk the whole dataset and tree (~100 ms each) while requests wait,
    # a cost of keeping the harness's data in the server's process.
    gc.collect()
    gc.freeze()
    try:
        inputs = state["inputs"]
        workload.prepare(state)
        if trace:
            passes = timed_passes(workload.run_pass, state, kernel, seconds / 2, 2)
            tracer = Tracer()
            # The traced passes repeat the requests of the untraced ones.
            state["cursor"] = 0
            traced = timed_passes(
                lambda state: workload.traced_pass(state, tracer),
                state,
                kernel,
                count=len(passes),
            )
        else:
            passes = timed_passes(workload.run_pass, state, kernel, seconds, MIN_PASSES)
            traced = []
        layer = workload.finish(state, passes + traced, checks)
        shape = inputs.shape()
        speed = statistics.median(one.speed for one in passes)
        # Every time below is that of a machine at the kernel's nominal speed.
        reads = [ns / 1e6 / one.speed for one in passes for ns in one.read_ns]
        rates = [one.ops * one.speed / one.seconds for one in passes]
        end_to_end = {
            "setup_s": (statistics.median(setups), len(setups), *quartiles(setups)),
            "ops_per_s": (statistics.median(rates), len(rates), *quartiles(rates)),
            "read_p50_ms": (percentile(reads, 0.50), len(reads), *quartiles(reads)),
            "read_p99_ms": (
                percentile(reads, tail_quantile(len(reads))),
                len(reads),
                *quartiles(reads),
            ),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                1,
                0.0,
                0.0,
            ),
        }
        ops = sum(one.ops for one in passes)
        for key, value in workload.end_to_end(state, passes).items():
            end_to_end[key] = (value, ops, 0.0, 0.0)
        attempted = checks.attempted + sum(one.ops for one in passes + traced)
        failed = len(checks.failures) + sum(one.failed for one in passes + traced)
        if trace:
            summary = SpanSummary(tracer.spans)
            layer.update(workload.layers(state, passes, summary))
            untraced = statistics.median(one.seconds / one.speed for one in passes)
            layer.update(inputs.parts)
            layer.update(
                {
                    "sam.tree_pages": shape["tree_pages"],
                    "sam.tree_height": shape["tree_height"],
                    "trace.overhead_share": (
                        statistics.median(one.seconds / one.speed for one in traced)
                        - untraced
                    )
                    / untraced,
                    "trace.self_sum_share": summary.self_sum_share(),
                    "failed_share": failed / attempted,
                    "machine.speed_factor": speed,
                }
            )
            BENCH_DIR.joinpath("out").mkdir(exist_ok=True)
            tracer.write(BENCH_DIR / "out" / f"spans-{name}-seed{seed}.json", layer)
        return {
            "workload": name,
            "meta": meta,
            "shape": shape,
            "reference_digest": state["digest"],
            "passes": len(passes),
            "speed_factor": speed,
            "end_to_end": end_to_end,
            "per_layer": layer,
            "attempted": attempted,
            "failed": failed,
            "failures": checks.failures,
        }
    finally:
        workload.teardown(state)
        gc.unfreeze()


def result_line(report: dict, trace: bool) -> dict:
    """The contract's last line: the named metrics of this trace mode."""
    if trace:
        # A layer this workload never enters reports nothing: 0.0.
        values = {spec["name"]: 0.0 for spec in SPEC["per_layer"]} | report["per_layer"]
        specs = SPEC["per_layer"]
    else:
        values = {key: row[0] for key, row in report["end_to_end"].items()}
        specs = SPEC["end_to_end"]
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def print_report(report: dict, trace: bool) -> None:
    print(json.dumps({"meta": report["meta"]}))
    if report["meta"]["overloaded"]:
        print("WARNING: load average above nproc; timings of this run are suspect")
    print(
        f"workload {report['workload']}  passes {report['passes']}  "
        f"reference {report['reference_digest']}  shape {json.dumps(report['shape'])}"
    )
    print(
        f"machine speed factor {report['speed_factor']:.3f} (median over the passes; "
        "times below are wall-clock times divided by it)"
    )
    units = {spec["name"]: spec["unit"] for spec in SPEC["end_to_end"] + SPEC["per_layer"]}
    print(f"{'metric':34} {'unit':8} {'value':>14} {'n':>8} {'q1':>12} {'q3':>12}")
    for key, (value, count, q1, q3) in report["end_to_end"].items():
        print(f"{key:34} {units[key]:8} {value:14.6g} {count:8d} {q1:12.6g} {q3:12.6g}")
    if trace:
        for key, value in sorted(report["per_layer"].items()):
            print(f"{key:34} {units.get(key, '?'):8} {value:14.6g}")
    for failure in report["failures"][:20]:
        print("FAILED CHECK:", failure)
    print(json.dumps(result_line(report, trace)))


# ----------------------------------------------------------------------
# Smoke, run-sets, comparison
# ----------------------------------------------------------------------


def smoke(seed: int) -> int:
    """Small scale, every workload, both modes; every named metric appears.

    Every workload must yield every end-to-end metric; a per-layer metric
    must be named in ``BENCHMARK.json`` and come from at least one workload
    (a layer that a workload never enters reports 0.0 there).
    """
    problems = []
    layer_names = {spec["name"] for spec in SPEC["per_layer"]}
    yielded: set[str] = set()
    for name in WORKLOADS:
        for trace in (False, True):
            report = run_workload(name, seed, 1.0, trace, SMOKE)
            print_report(report, trace)
            if report["failed"]:
                problems.append(f"{name}: {report['failed']} failed")
            if trace:
                yielded |= set(report["per_layer"])
                continue
            for spec in SPEC["end_to_end"]:
                if not report["end_to_end"].get(spec["name"], (0,))[0]:
                    problems.append(f"{name}: {spec['name']} is missing or 0")
    problems += [f"{key} is yielded but not in BENCHMARK.json" for key in yielded - layer_names]
    problems += [f"{key} is named but no workload yields it" for key in layer_names - yielded]
    for problem in problems:
        print("SMOKE:", problem)
    return 1 if problems else 0


def run_set(path: Path, runs: int, seed: int, seconds: int) -> dict:
    """Every workload ``runs`` times with seeds ``seed..``, a process each."""
    workloads: dict[str, dict[str, list[float]]] = {}
    for spec in SPEC["workloads"]:
        values: dict[str, list[float]] = {}
        for run in range(runs):
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                *("--workload", spec["name"]),
                *("--seed", str(seed + run)),
                *("--seconds", str(seconds)),
                *("--trace", "0"),
            ]
            done = subprocess.run(command, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                raise SystemExit(f"{' '.join(command)} failed:\n{done.stdout}{done.stderr}")
            line = json.loads(done.stdout.strip().splitlines()[-1])
            for key, metric in line["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            print(f"{spec['name']} seed {seed + run}: done", file=sys.stderr)
        workloads[spec["name"]] = values
    document = {"meta": metadata(seed), "runs": runs, "workloads": workloads}
    path.write_text(json.dumps(document, indent=1), encoding="utf-8")
    return document


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def compare(first: dict, second: dict) -> int:
    """One row per workload and metric under the metric's own bound."""
    print(
        f"{'workload':14} {'metric':20} {'first':>12} {'second':>12} "
        f"{'worse by':>9} {'bound':>6} {'spread':>15}  verdict"
    )
    bad = 0
    for name, metrics in first["workloads"].items():
        for spec in SPEC["end_to_end"]:
            a, b = metrics[spec["name"]], second["workloads"][name][spec["name"]]
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = (median_b - median_a) / median_a
            if spec["better"] == "higher":
                worse = -worse
                b_wins = min(b) > max(a)
            else:
                b_wins = max(b) < min(a)
            spreads = (spread(a), spread(b))
            if b_wins:
                verdict = "better"
            elif spec["name"] != "setup_s" and max(spreads) > spec["bound"]:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "regressed"
            elif worse < -spec["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
            bad += verdict in ("unresolved", "regressed")
            print(
                f"{name:14} {spec['name']:20} {median_a:12.6g} {median_b:12.6g} "
                f"{worse:+9.2%} {spec['bound']:6.0%} "
                f"{spreads[0]:7.2%}/{spreads[1]:6.2%}  {verdict}"
            )
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--runset", type=Path, metavar="FILE")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke(args.seed)
    if args.compare:
        first, second = (json.loads(path.read_text("utf-8")) for path in args.compare)
        return compare(first, second)
    if args.runset:
        run_set(args.runset, args.runs, args.seed, args.seconds)
        return 0
    if args.selfcheck:
        out = BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        first = run_set(out / "selfcheck-1.json", args.runs, args.seed, args.seconds)
        second = run_set(out / "selfcheck-2.json", args.runs, args.seed, args.seconds)
        return compare(first, second)
    if not args.workload:
        parser.error("--workload is required")
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    print_report(report, bool(args.trace))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
