"""End-to-end benchmark of the perscoh command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload cube-dense --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` and driven in-process through its
console entry point ``perscoh.cli:main``, with argv and captured
stdout, exactly as a ``perscoh barcode|generators|oracle-check`` call
runs.  The load is a closed loop: one process, calls back to back.

One run: time ``import perscoh.cli`` in fresh interpreters (``setup_s``),
write the workload's inputs from the seed, derive and cross-check the
reference outputs, measure peak memory of one pass in a child process,
then repeat passes over the workload until ``--seconds`` have passed,
checking every output.  Each call's time is scaled to a fixed machine
speed by the calibration kernel (calibrate.py) and taken as its median
over passes; a kind's time is the sum of its calls.

With ``--trace 1`` traced and untraced passes alternate and the result
holds the per-layer metrics of ``BENCHMARK.json`` instead of the
end-to-end ones (set-up and memory are not measured); the spans are
written to ``.perfbench/<workload>/spans.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from calibrate import REFERENCE_S, kernel_seconds
from checks import CheckError, References, check
from tracing import EXACT, Tracer
from workloads import KIND_METRIC, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
CALIBRATE_EVERY_S = 0.25
# times the import between two runs of the calibration kernel (calibrate.py)
IMPORT_TIMER = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
                "from calibrate import kernel_seconds; before = kernel_seconds(); "
                "t = time.perf_counter(); import perscoh.cli; t = time.perf_counter() - t; "
                "print(t, before, kernel_seconds())")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def measure_setup() -> float:
    """Median scaled time to import ``perscoh.cli`` in a fresh interpreter.

    The first import is not counted: it may compile the byte code.
    """
    times = []
    for k in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER, SRC, HERE], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"cannot import perscoh.cli:\n{proc.stderr}")
        seconds, cal1, cal2 = map(float, proc.stdout.split())
        if k:
            times.append(seconds * REFERENCE_S / ((cal1 + cal2) / 2))
    return statistics.median(times)


def measure_rss(calls, work: str) -> tuple[float, int, int]:
    """Peak RSS (MB) of one pass run in a child process, and its failures."""
    plan = os.path.join(work, "plan.json")
    with open(plan, "w") as fh:
        json.dump([inv.argv() for inv in calls], fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "rss_child.py"), SRC, plan],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"memory probe failed:\n{proc.stderr}")
    res = json.loads(proc.stdout.splitlines()[-1])
    return res["maxrss_kb"] / 1024, res["attempted"], res["failed"]


def run_cli(fn, argv: list[str]) -> tuple[object, str, str, float]:
    """Call ``fn(argv)`` with stdout and stderr captured; time it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = fn(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:  # a crash counts as a failed call
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def run_pass(groups, main, refs: References, failures: list[str], tracer=None):
    """One pass over the workload, one invocation kind after another.

    The calibration kernel runs before the first call, after the last
    call of each kind, and after any call that ends ``CALIBRATE_EVERY_S``
    after the previous kernel run; the calls in between are scaled by
    the mean of the two kernel runs around them (see calibrate.py).
    Returns, per kind, the scaled seconds of each call and the factor
    applied to the kind as a whole.
    """
    gc.collect()
    scaled: dict[str, list[float]] = {}
    scales: dict[str, float] = {}
    kernel, since = kernel_seconds(), time.perf_counter()
    for kind, calls in groups.items():
        if tracer is None:
            fn = main
        else:
            def fn(argv, kind=kind):
                return tracer.call(kind, main, argv)
        scaled[kind], pending, raw = [], [], 0.0
        for k, inv in enumerate(calls, start=1):
            rc, out, err, elapsed = run_cli(fn, inv.argv())
            pending.append(elapsed)
            try:
                check(inv, rc, out, refs)
            except CheckError as exc:
                failures.append(f"{exc}; stderr: {err.strip()[-300:]}")
            if k == len(calls) or time.perf_counter() - since >= CALIBRATE_EVERY_S:
                after = kernel_seconds()
                factor = REFERENCE_S / ((kernel + after) / 2)
                scaled[kind] += [t * factor for t in pending]
                raw += sum(pending)
                pending = []
                kernel, since = after, time.perf_counter()
        scales[kind] = sum(scaled[kind]) / raw
    return scaled, scales


def kind_seconds(passes, kind: str) -> float:
    """The kind's calls summed, each call taken as its median over passes."""
    return sum(statistics.median(p[kind][i] for p in passes)
               for i in range(len(passes[0][kind])))


def end_to_end(passes, setup_s: float, rss_mb: float) -> dict[str, float]:
    metrics = {"setup_s": setup_s, "peak_rss_mb": rss_mb}
    for kind, name in KIND_METRIC.items():
        metrics[name] = kind_seconds(passes, kind)
    metrics["total_s"] = sum(metrics[name] for name in KIND_METRIC.values())
    return metrics


def per_layer(traced, untraced, layer_rows) -> dict[str, float]:
    """Median scaled layer times and exact counters over the traced passes."""
    metrics = {}
    for kind in KIND_METRIC:
        rows = [row.get(kind, {}) for row in layer_rows]
        for key in set().union(*rows):
            values = [row.get(key, 0.0) for row in rows]
            if key in EXACT:
                if len(set(values)) != 1:
                    raise BenchError(f"counter {kind}.{key} is not deterministic: {values}")
                metrics[f"{kind}.{key}"] = values[0]
            else:
                metrics[f"{kind}.{key}"] = statistics.median(values)
    traced_total = sum(kind_seconds(traced, kind) for kind in KIND_METRIC)
    metrics["trace.total_s"] = traced_total
    metrics["trace.overhead_s"] = traced_total - sum(
        kind_seconds(untraced, kind) for kind in KIND_METRIC)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if not os.path.isfile(os.path.join(SRC, "perscoh", "cli.py")):
        raise BenchError(f"no program to benchmark: {SRC}/perscoh/cli.py is missing")

    workload = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench", workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    if not args.trace:
        setup_s = measure_setup()
    sys.path.insert(0, SRC)
    from perscoh.cli import main as cli_main

    calls = workload.build(random.Random(args.seed), work)
    refs = References(lambda argv: run_cli(cli_main, argv)[:2])
    ref_errors, failures = [], []
    for inv in calls:
        try:
            refs.prepare(inv)
        except CheckError as exc:  # the calls checked against it fail below
            ref_errors.append(f"reference: {exc}")
    attempted = failed = 0
    if not args.trace:
        rss_mb, attempted, failed = measure_rss(calls, work)

    groups: dict[str, list] = {}
    for inv in calls:
        groups.setdefault(inv.kind, []).append(inv)
    # keep the benchmark's own objects (inputs, references) out of the
    # collections the program's calls trigger, as in a fresh CLI process
    gc.collect()
    gc.freeze()
    untraced, traced, layer_rows = [], [], []
    tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    while (not untraced or time.perf_counter() < deadline
           or (args.trace and len(traced) < 2)):
        untraced.append(run_pass(groups, cli_main, refs, failures)[0])
        if args.trace:
            first = len(tracer.spans)
            tracer.install()
            try:
                seconds, scales = run_pass(groups, cli_main, refs, failures, tracer)
            finally:
                tracer.uninstall()
            traced.append(seconds)
            layer_rows.append(tracer.take(first, scales))
    attempted += len(calls) * (len(untraced) + len(traced))
    failed += len(failures)

    if args.trace:
        computed = per_layer(traced, untraced, layer_rows)
        tracer.dump(os.path.join(work, "spans.json"))
    else:
        computed = end_to_end(untraced, setup_s, rss_mb)
    metrics = {}
    for m in declared:
        value = computed.get(m["name"])
        if value is None:
            if not args.trace:
                raise BenchError(f"end-to-end metric {m['name']} was not measured")
            value = 0.0  # the layer does not run in this workload
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {len(calls)} calls per pass, {len(untraced)} untraced "
          f"and {len(traced)} traced passes; each call is its median over passes")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<40} {failed / attempted:>14.6g} failed/attempted "
          f"({failed}/{attempted})")
    if tracer.absent:
        print("absent from the program: " + ", ".join(tracer.absent))
    for msg in ref_errors[:10] + failures[:10]:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not ref_errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
