"""Span recorder for the traced benchmark run.

The recorder replaces public functions of the ``selftrig`` modules with
timing wrappers for the length of a traced phase and restores the original
objects afterwards. Every intra-package call goes through a module
attribute (``linalg.expm``) or a module global (``disturbance_gain_coeff``
inside ``design``), so swapping the attribute is enough for the wrappers to
see every call. Nothing in the package itself is changed.

A span is ``(id, name, parent, start, end, thread, extra)``. Parent stacks
are kept per thread. A span opened on a thread with an empty stack (a sweep
worker) takes as parent the innermost span open on the thread that runs the
ops, which during a sweep is ``cli.main``. Spans are kept in memory and
written out once, when the run ends.

Self time is a span's duration minus the part of its interval that its
child spans cover; overlapping children from several threads are merged
before subtracting, so a parent is never charged less than zero.
"""

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

from metrics import LAYER_METRICS


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _decision_counts(args, kwargs, result):
    tables = _arg(args, kwargs, 1, "tables")
    return {"evaluations": result.evaluations, "op_count": result.op_count,
            "useful": max(0, result.evaluations - tables.n_min)}


def _written_bytes(index):
    def annotate(args, kwargs, _result):
        return {"bytes": os.stat(_arg(args, kwargs, index, "path")).st_size}
    return annotate


# Functions wrapped per module, with an optional annotator that reads
# counts from the call's arguments or its returned value. ``DisturbanceSpec
# .value`` is left alone on purpose: it runs twice per RK4 stage and its
# cost already shows in ``sim.integrate_held.self_s``.
WRAPPED = {
    "linalg": {"expm": None, "sym_eig": None, "det": None,
               "lyap_solve": None, "induced_norm2": None},
    "design": {"make_certificate": None, "min_inter_execution_time": None,
               "disturbance_gain_coeff": None, "eiss_gains": None},
    "scheduler": {
        "build_tables": lambda a, k, r: {"forms": int(r.forms.shape[0])},
        "next_update": _decision_counts,
        "next_update_packed": _decision_counts,
    },
    "sim": {
        "run_self_triggered": None,
        "run_periodic": None,
        "integrate_held": lambda a, k, r: {"steps": int(_arg(a, k, 6, "steps"))},
        "verify": lambda a, k, r: {"checked_updates": r.checked_updates},
    },
    "reports": {"load_config": None, "dump_json": _written_bytes(1),
                "write_trajectory_csv": _written_bytes(0),
                "write_events_csv": None, "svg_plot": None},
    "cli": {"main": None},
}


class Recorder:
    """In-memory span log with per-thread parent stacks.

    ``active`` gates recording, so output checks that call into the package
    between ops leave no spans.
    """

    def __init__(self):
        self.spans = []
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self):
        """Start a span on the calling thread; returns ``(id, parent)``."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def close(self, sid, name, parent, start, end, extra=None):
        self._stack().pop()
        self.spans.append((sid, name, parent, start, end,
                           threading.get_ident(), extra))

    def wrap(self, name, fn, annotate=None):
        """Timing wrapper around ``fn`` that records one span per call."""
        recorder = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            sid, parent = recorder.open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.close(sid, name, parent, start, clock())
                raise
            end = clock()
            extra = annotate(args, kwargs, result) if annotate else None
            recorder.close(sid, name, parent, start, end, extra)
            return result

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    def dump(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": ["id", "name", "parent", "start",
                                            "end", "thread", "extra"],
                       "spans": sorted(self.spans)}, fh)
            fh.write("\n")


class Tracer:
    """Installs the wrappers on the package modules and restores them."""

    def __init__(self, modules):
        self.modules = modules
        self.recorder = Recorder()
        self._saved = []

    def __enter__(self):
        for short, functions in WRAPPED.items():
            module = self.modules[short]
            for fname, annotate in functions.items():
                original = getattr(module, fname)
                self._saved.append((module, fname, original))
                setattr(module, fname, self.recorder.wrap(
                    f"{short}.{fname}", original, annotate))
        return self

    def __exit__(self, *exc):
        for module, fname, original in reversed(self._saved):
            setattr(module, fname, original)
        self._saved.clear()
        return False

    def run_op(self, op):
        """Run ``op()`` inside an ``op`` span with recording switched on."""
        rec = self.recorder
        sid, parent = rec.open()
        rec.active = True
        start = time.perf_counter()
        try:
            return op()
        finally:
            rec.active = False
            rec.close(sid, "op", parent, start, time.perf_counter())


def _covered(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id to its self time (duration minus covered child time)."""
    children = defaultdict(list)
    bounds = {}
    for sid, _name, parent, start, end, _thread, _extra in spans:
        bounds[sid] = (start, end)
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, (start, end) in bounds.items():
        clipped = [(max(lo, start), min(hi, end)) for lo, hi in children[sid]]
        clipped = [(lo, hi) for lo, hi in clipped if hi > lo]
        out[sid] = (end - start) - _covered(clipped)
    return out


def count_under(spans, ancestor, name):
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    by_id = {s[0]: s for s in spans}
    count = 0
    for _sid, sname, parent, *_rest in spans:
        if sname != name:
            continue
        while parent is not None and parent in by_id:
            if by_id[parent][1] == ancestor:
                count += 1
                break
            parent = by_id[parent][2]
    return count


def layer_metrics(spans, n_ops, overhead_ratio, sweep):
    """Per-layer metrics, each a per-op figure unless it is a ratio.

    ``sweep`` carries ``workers`` and ``parallelism`` measured on the
    untraced sweep ops (zero on workloads that run no sweep).
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    extras = defaultdict(lambda: defaultdict(float))
    for sid, name, _parent, start, end, _thread, extra in spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
        total_s[name] += end - start
        if extra:
            for key, value in extra.items():
                extras[name][key] += value

    quad_in_verify = count_under(spans, "sim.verify",
                                 "design.disturbance_gain_coeff")
    checked = extras["sim.verify"]["checked_updates"]
    steps = extras["sim.integrate_held"]["steps"]
    evals = extras["scheduler.next_update"]["evaluations"]

    raw = {
        "design.min_inter_execution_time.det_evals": count_under(
            spans, "design.min_inter_execution_time", "linalg.det"),
        "design.disturbance_gain_coeff.nodes": count_under(
            spans, "design.disturbance_gain_coeff", "linalg.expm"),
        "scheduler.next_update.useful_eval_ratio":
            extras["scheduler.next_update"]["useful"] / evals if evals else 0.0,
        "sim.integrate_held.us_per_step":
            1e6 * self_s["sim.integrate_held"] / steps if steps else 0.0,
        "sim.verify.gain_cache_hit_ratio":
            1.0 - quad_in_verify / checked if checked else 0.0,
        "cli.cmd_sweep.workers": sweep["workers"],
        "cli.cmd_sweep.parallelism": sweep["parallelism"],
        "trace.overhead_ratio": overhead_ratio,
        "trace.op_s": total_s["op"],
        "trace.ops": n_ops,
    }
    table = {"calls": calls, "self_s": self_s, "total_s": total_s}
    out = {}
    for metric, unit, kind, _better in LAYER_METRICS:
        if metric in raw:
            value = raw[metric]
        else:
            span, stat = metric.rsplit(".", 1)
            value = table[stat][span] if stat in table else extras[span][stat]
        if kind == "per_op":
            value /= n_ops
        out[metric] = {"value": float(value), "unit": unit}
    return out
