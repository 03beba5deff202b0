"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of design_fine, simulate_verify, decide_replay, sweep_batch, or
``all`` to run the four in one process. ``BENCHMARK.json`` lists the first
three; sweep_batch is run by name only (see README.md). Run it from the
root of a checkout; the program is imported from ``src/``, and scratch
files go to ``.bench_work/`` there.

Ops run in a closed loop: the next op starts when the previous one returns,
ops run for about S seconds, and every op's output is checked. With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
loop runs S/2 seconds untraced and S/2 seconds with every layer's public
functions wrapped, and the per-layer metrics are printed. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from metrics import END_TO_END
from tracing import WRAPPED, Tracer, layer_metrics
from workloads import ROOT, WORKLOADS, ProgramMissing, SetupError

WORK_ROOT = ROOT / ".bench_work"
# An untraced run sets up this many times, spread over the run, and
# setup_s is the median. The host's speed changes within seconds, so
# set-ups done back to back would all meet the same speed.
SETUP_REPEATS = 5
# Failures printed in full to stderr per run; the rest are only counted.
_FAILURES_SHOWN = 5
# op_p90_ms is printed only when at least this many ops stand behind it,
# so that ten or more lie beyond the 90th percentile.
_P90_MIN_OPS = 100


@dataclass
class Phase:
    """Wall and CPU seconds of each op of one timed loop, and its failures.

    The rates are over the whole loop: the host's speed drifts over tens of
    seconds, and a figure over every op of a run averages that drift where
    a median over short windows would follow it.
    """

    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def ops_per_s(self):
        return len(self.walls) / sum(self.walls)


def timed_setup(name, seed, work, smoke):
    start = time.perf_counter()
    workload = WORKLOADS[name](seed, work, smoke)
    return workload, time.perf_counter() - start


def measure(workload, deadline, tracer=None, phase=None):
    """Closed loop over the workload's ops until about ``deadline``.

    ``deadline`` is a ``perf_counter`` reading. Another op starts while the
    loop would end nearer to it with that op than without, judged by the
    last op's length, so the run's length stays close to the deadline even
    when one op takes several seconds. A phase's first op always runs. Ops
    are appended to ``phase`` when one is given, and numbered on from its
    last op.
    """
    phase = Phase() if phase is None else phase
    i = len(phase.walls)
    while (not phase.walls
           or time.perf_counter() + 0.5 * phase.walls[-1] < deadline):
        op = (lambda i=i: workload.run_op(i))
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = tracer.run_op(op) if tracer else op()
            problems = None
        except Exception as exc:  # an op that raises is a failed op
            problems = [f"op {i} raised {type(exc).__name__}: {exc}"]
            if len(phase.failures) < _FAILURES_SHOWN:
                traceback.print_exc()
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        phase.walls.append(t1 - t0)
        phase.cpus.append(cpu1 - cpu0)
        if problems is None:
            problems = workload.check(i, result)
        if problems:
            phase.failures.append((i, problems))
        i += 1
    return phase


def percentile(values, p):
    """Percentile ``p`` (0..100) by linear interpolation between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(setup_times, phase):
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": phase.ops_per_s,
        "cpu_s": sum(phase.cpus) / len(phase.cpus),
        "op_p50_ms": 1e3 * statistics.median(phase.walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit, _better in END_TO_END}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def wrappers_restored(modules):
    return not any(getattr(getattr(modules[short], fname),
                           "__wrapped_by_bench__", False)
                   for short, functions in WRAPPED.items()
                   for fname in functions)


def run_workload(name, seed, seconds, trace, smoke=False):
    """Set up and measure one workload; returns ``(result, record)``."""
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if not trace:
            # Each set-up is followed by its share of the timed loop, whose
            # ops run on what that set-up built.
            setup_times, phase = [], Phase()
            start = time.perf_counter()
            for k in range(1, SETUP_REPEATS + 1):
                workload, setup_s = timed_setup(name, seed, work, smoke)
                setup_times.append(setup_s)
                measure(workload, start + k * seconds / SETUP_REPEATS,
                        phase=phase)
            phases = [phase]
            metrics = end_to_end(setup_times, phase)
        else:
            workload, setup_s = timed_setup(name, seed, work, smoke)
            setup_times = [setup_s]
            base = measure(workload, time.perf_counter() + seconds / 2.0)
            with Tracer(workload.modules) as tracer:
                traced = measure(workload, time.perf_counter() + seconds / 2.0,
                                 tracer)
            if not wrappers_restored(workload.modules):
                raise RuntimeError("a traced function was not restored")
            phase, phases = traced, [base, traced]
            swept = "sweep_workers" in workload.record
            sweep = {"workers": workload.record.get("sweep_workers", 0),
                     "parallelism": (sum(base.cpus) / sum(base.walls)
                                     if swept else 0.0)}
            metrics = layer_metrics(tracer.recorder.spans, len(traced.walls),
                                    traced.ops_per_s / base.ops_per_s, sweep)
            tracer.recorder.dump(WORK_ROOT / f"spans-{name}-seed{seed}.json",
                                 {"workload": name, "seed": seed})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [f for p in phases for f in p.failures]
    attempted = sum(len(p.walls) for p in phases)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "SELFTRIG_THREADS": os.environ.get("SELFTRIG_THREADS"),
        "sweep_workers": workload.record.get("sweep_workers"),
        "dwell_time_misses": workload.record.get("dwell_time_misses"),
        "setup_repeats": len(setup_times),
        "percentile_samples": len(phase.walls),
        "op_p90_ms": (1e3 * percentile(phase.walls, 90)
                      if len(phase.walls) >= _P90_MIN_OPS else None),
        "fail_ratio": len(failures) / attempted,
        "failures": [{"op": i, "problems": p}
                     for i, p in failures[:_FAILURES_SHOWN]],
    }
    return result, record


def _print_human(result, record):
    name = record["workload"]
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    print(f"{name} fail_ratio = {record['fail_ratio']:.6g} "
          f"({result['failed']}/{result['attempted']} ops failed)")
    if record["op_p90_ms"] is not None:
        print(f"{name} op_p90_ms = {record['op_p90_ms']:.6g} ms")
    print(f"{name} percentiles from {record['percentile_samples']} ops; "
          f"setup_s is the median of {record['setup_repeats']} set-ups")
    for miss in record["dwell_time_misses"] or ():
        print(f"{name} program defect: the default-grid scan reported "
              f"tau*={miss['default_tau']!r} for seeded m={miss['m']} plant "
              f"{miss['plant']}, but the decay test fails at 0.999 tau*; the "
              f"tables use the CLI-grid tau*={miss['cli_grid_tau']!r}")
    print("run record: " + json.dumps(record, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds,
                                          args.trace)
            _print_human(result, record)
            results.append((name, result))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{name}.{metric}": m for name, r in results
                             for metric, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
