#!/usr/bin/env python3
"""psigroups benchmark.

    python3 perfbench/run.py --workload {catalog-verify,large-table,gt1-import}
                             --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all ...   # each workload in its own process

One process runs one workload as a closed loop with one client, in whole
cycles of operations until at least ``--seconds`` have passed.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates an untraced and a traced cycle and reports the per-layer metrics
of the traced cycles (per cycle) and the tracing overhead.  Times are
calibrated to a fixed reference speed (see REFERENCE_S).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

The library is imported from ``src/`` next to this directory; the run fails,
printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from time import perf_counter

from tracer import MEMORY_SPANS, SPAN_NAMES, THEOREMS, Tracer, TraceError

# One client, no extra threads: keep numpy's BLAS pool (unused here) at one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("catalog-verify", "large-table", "gt1-import")

# Set-ups per run: this process's own plus this many in fresh processes.
SETUP_CHILDREN = 4
# op_s.tail needs at least this many samples beyond it.
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 20
END_TO_END_UNITS = {"op_s.p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

# The speed of a shared machine drifts by up to 1.5x within seconds to
# minutes.  A fixed pure-Python reference loop, timed right before and right
# after every timed interval, tracks that drift: the machine's relative speed
# over the interval is the loop's nominal time over its mean reading, and a
# calibrated time is the wall time times that speed raised to the workload's
# drift exponent (see workloads.py).  The loop never touches the library, so
# a change to the library shows in full.  Raw wall times are printed next to
# the calibrated ones.
REFERENCE_ITERATIONS = 40_000
REFERENCE_S = 0.0025


class BenchError(RuntimeError):
    """The benchmark cannot run: library missing or a traced layer silent."""


def tail_index(n: int) -> int | None:
    """Index in the sorted samples of the highest percentile with at least
    TAIL_BEYOND samples above it; None below TAIL_MIN_SAMPLES samples."""
    if n < TAIL_MIN_SAMPLES:
        return None
    return n - 1 - TAIL_BEYOND


def reference_loop() -> float:
    start = perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return perf_counter() - start


def reference_reading() -> float:
    """Seconds the reference loop takes now: the best of three, so that one
    preemption does not count."""
    return min(reference_loop() for _ in range(3))


def relative_speed(before: float, after: float) -> float:
    """The machine's speed over an interval relative to the reference speed,
    from the readings before and after it: below 1 when it ran slower."""
    return REFERENCE_S * 2 / (before + after)


def calibrated(times: list[float], speeds: list[float], exponent: float) -> list[float]:
    """Wall times scaled to the reference speed: each times its interval's
    relative speed raised to ``exponent`` (0 leaves it raw)."""
    return [t * speed ** exponent for t, speed in zip(times, speeds)]


def import_library():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "psigroups", "__init__.py")):
        raise BenchError(f"no psigroups package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import psigroups
    import psigroups.cli  # noqa: F401  (the package does not import it)

    if not os.path.abspath(psigroups.__file__).startswith(src + os.sep):
        raise BenchError(f"psigroups imported from {psigroups.__file__}, not {src}")
    return psigroups


def set_up(workload: str, seed: int, workdir: str):
    """Import the library and build the workload's inputs; returns the time
    from before ``import psigroups`` until the first operation is ready, raw
    and fully calibrated."""
    before = reference_reading()
    start = perf_counter()
    lib = import_library()
    from workloads import WORKLOADS, load_expected

    wl = WORKLOADS[workload](lib, seed, workdir, load_expected())
    first = wl.cycle()
    elapsed = perf_counter() - start
    speed = relative_speed(before, reference_reading())
    return (elapsed, elapsed * speed), wl, first


def child_setups(workload: str, seed: int, count: int) -> list[tuple[float, float]]:
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up in a child process failed:\n{proc.stderr}")
        raw, cal = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(raw), float(cal)))
    return samples


def run_op(op) -> tuple[float, bool]:
    """Run one operation; (seconds, ok).  Any exception is a failed operation."""
    start = perf_counter()
    try:
        result = op.action()
    except Exception:
        elapsed = perf_counter() - start
        print(f"FAILED {op.label}: unexpected exception", file=sys.stderr)
        traceback.print_exc()
        return elapsed, False
    elapsed = perf_counter() - start
    try:
        ok = bool(op.check(result))
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"FAILED {op.label}: output differs from the frozen expectation",
              file=sys.stderr)
    return elapsed, ok


def run_cycle(ops) -> tuple[list[float], list[float], int]:
    """Run the operations in order, with a reference reading before the first
    and after each; (seconds, relative speeds, failed operations)."""
    times, speeds, failed = [], [], 0
    before = reference_reading()
    for op in ops:
        elapsed, ok = run_op(op)
        after = reference_reading()
        times.append(elapsed)
        speeds.append(relative_speed(before, after))
        failed += not ok
        before = after
    return times, speeds, failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl, first, seconds: float) -> dict:
    """Untraced closed loop over whole cycles; the end-to-end metrics."""
    times, speeds, failed = [], [], 0
    start = perf_counter()
    ops = first
    while True:
        cycle_times, cycle_speeds, cycle_failed = run_cycle(ops)
        times += cycle_times
        speeds += cycle_speeds
        failed += cycle_failed
        if perf_counter() - start >= seconds:
            break
        ops = wl.cycle()
    wall = perf_counter() - start
    return {"times": times, "speeds": speeds, "failed": failed, "wall": wall,
            "rss": peak_rss_mb()}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for theorem in THEOREMS:
        units[f"verify.{theorem}.total_s"] = "s"
    units["verify.pairs_checked"] = "count"
    units["groups.group_from_table.untrusted_ratio"] = "ratio"
    units["groups.group_from_table.self_share"] = "ratio"
    units["groups.closure.noop_ratio"] = "ratio"
    for name in MEMORY_SPANS:
        units[f"{name}.peak_mb"] = "MB"
    units["trace.overhead_ratio"] = "ratio"
    return units


def traced_cycle(tracer: Tracer, ops, memory: bool,
                 exponent: float) -> tuple[list[float], int, float, dict]:
    """Run one cycle with the span wrappers installed; with ``memory`` also
    under tracemalloc, which slows Python-heavy layers, so those cycles give
    only the kernels' peak memory."""
    if memory:
        tracemalloc.start()
    tracer.install()
    try:
        start = perf_counter()
        times, speeds, failed = run_cycle(ops)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
        if memory:
            tracemalloc.stop()
    return calibrated(times, speeds, exponent), failed, wall, tracer.take_cycle()


def measure_traced(wl, first, seconds: float) -> dict:
    """Rounds of an untraced, a span-traced and a memory-traced cycle; the
    per-layer metrics, per span-traced cycle."""
    tracer = Tracer()
    untraced, traced, failed = [], [], 0
    expects: set[str] = set()
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    theorem_s = dict.fromkeys(THEOREMS, 0.0)
    counts = {"untrusted": 0, "closure_calls": 0, "closure_noops": 0, "pairs_checked": 0}
    traced_wall, cycles, memory_ops = 0.0, 0, 0
    start = perf_counter()
    ops = first
    while True:
        times, speeds, cycle_failed = run_cycle(ops)
        untraced += calibrated(times, speeds, wl.drift_exponent)
        failed += cycle_failed
        ops = wl.cycle()
        expects.update(*(op.expects for op in ops))
        times, cycle_failed, wall, data = traced_cycle(tracer, ops, False, wl.drift_exponent)
        traced += times
        failed += cycle_failed
        traced_wall += wall
        cycles += 1
        for name, row in data["rows"].items():
            if name in calls:
                calls[name] += row["calls"]
                self_s[name] += row["self_s"]
        for theorem, seconds_in in data["theorem_s"].items():
            theorem_s[theorem] += seconds_in
        for key in counts:
            counts[key] += data[key]
        times, cycle_failed, _, _ = traced_cycle(tracer, wl.cycle(), True, wl.drift_exponent)
        failed += cycle_failed
        memory_ops += len(times)
        if perf_counter() - start >= seconds:
            break
        ops = wl.cycle()

    silent = sorted(name for name in expects if calls[name] == 0)
    if "verify.verify_theorems" in expects:
        silent += [f"verify.{t}" for t in THEOREMS if theorem_s[t] == 0.0]
    if silent:
        raise BenchError("traced layers expected to run recorded no call: "
                         + ", ".join(silent))

    gft = "groups.group_from_table"
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name] / cycles
        metrics[f"{name}.self_s"] = self_s[name] / cycles
    for theorem in THEOREMS:
        metrics[f"verify.{theorem}.total_s"] = theorem_s[theorem] / cycles
    metrics["verify.pairs_checked"] = counts["pairs_checked"] / cycles
    metrics[f"{gft}.untrusted_ratio"] = counts["untrusted"] / calls[gft] if calls[gft] else 0.0
    metrics[f"{gft}.self_share"] = self_s[gft] / traced_wall
    metrics["groups.closure.noop_ratio"] = (
        counts["closure_noops"] / counts["closure_calls"] if counts["closure_calls"] else 0.0)
    for name, peak in sorted(tracer.peak_bytes.items()):
        metrics[f"{name}.peak_mb"] = peak / 2**20
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    units = per_layer_units()
    values = {name: metrics.get(name, 0.0) for name in units}
    return {"attempted": len(untraced) + len(traced) + memory_ops,
            "failed": failed, "values": values, "units": units, "cycles": cycles}


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    })


def run(args) -> int:
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    try:
        setup_s, wl, first = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(*map(repr, setup_s))
            return 0
        problems = []
        if args.trace:
            out = measure_traced(wl, first, args.seconds)
            attempted, failed = out["attempted"], out["failed"]
            values, units = out["values"], out["units"]
            problems += wl.final_check()
            for name, value in values.items():
                print(f"{args.workload} {name} = {value!r} {units[name]} "
                      f"(per cycle, {out['cycles']} traced cycles)")
        else:
            # spread the set-ups over the run: the machine's speed drifts
            setups = [setup_s] + child_setups(args.workload, args.seed, SETUP_CHILDREN // 2)
            out = measure(wl, first, args.seconds)
            setups += child_setups(args.workload, args.seed, SETUP_CHILDREN - SETUP_CHILDREN // 2)
            problems += wl.final_check()
            times = calibrated(out["times"], out["speeds"], wl.drift_exponent)
            attempted, failed = len(times), out["failed"]
            values = {
                "op_s.p50": statistics.median(times),
                "ops_per_s": len(times) / sum(times),
                "peak_rss_mb": out["rss"],
                "setup_s": statistics.median(cal for _, cal in setups),
            }
            units = END_TO_END_UNITS
            for name, value in values.items():
                print(f"{args.workload} {name} = {value!r} {units[name]}")
            for kind, exponent, setup_index in (("raw", 0, 0), ("fully calibrated", 1, 1)):
                ops_s = calibrated(out["times"], out["speeds"], exponent)
                print(f"{args.workload} {kind}: op_s.p50 = {statistics.median(ops_s)!r} s, "
                      f"ops_per_s = {len(ops_s) / sum(ops_s)!r} 1/s, "
                      f"setup_s = {statistics.median(s[setup_index] for s in setups)!r} s")
            index = tail_index(len(times))
            if index is None:
                print(f"{args.workload} op_s.tail not reported: {len(times)} samples "
                      f"< {TAIL_MIN_SAMPLES}")
            else:
                level = 100 * (index + 1) / len(times)
                print(f"{args.workload} op_s.tail (p{level:.0f}) = "
                      f"{sorted(times)[index]!r} s")
            print(f"{args.workload} samples = {len(times)} ops in {out['wall']:.1f} s, "
                  f"{len(setups)} set-ups; drift exponent {wl.drift_exponent} for "
                  f"operations, 1 for set-ups")
        for problem in problems:
            print(f"FAILED final check: {problem}", file=sys.stderr)
        print(f"{args.workload} fail_ratio = {failed}/{attempted} = {failed / attempted!r}")
        print(result_line(failed == 0 and not problems, attempted, failed, values, units))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def run_all(args) -> int:
    """Each workload in its own process; relays every metric line."""
    status = 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{workload}: run failed (exit {proc.returncode})")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run(args)
    except (BenchError, TraceError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
