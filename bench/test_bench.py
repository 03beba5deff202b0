"""Tests of the benchmark itself: span accounting, wrapper restore, smoke runs.

Run from the repository root:

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from metrics import END_TO_END, LAYER_METRICS
from tracing import Recorder, Tracer, WRAPPED, count_under, self_times
from workloads import ROOT, WORKLOADS, import_package, seeded_plant

BENCH = Path(__file__).resolve().parent


def span(sid, name, parent, start, end, thread=1):
    return (sid, name, parent, start, end, thread, None)


def test_self_time_nested_siblings_and_second_thread():
    spans = [
        span(0, "op", None, 0.0, 10.0),
        span(1, "a", 0, 1.0, 3.0),
        span(2, "a.child", 1, 1.5, 2.5),
        span(3, "b", 0, 4.0, 6.0),
        # A worker thread's span overlaps its sibling b on the main thread.
        span(4, "w", 0, 5.0, 8.0, thread=2),
        span(5, "w.child", 4, 5.0, 6.0, thread=2),
        span(6, "w.child", 4, 5.5, 7.0, thread=2),
    ]
    selfs = self_times(spans)
    # op: children cover [1,3] and [4,8] -> 6 of 10.
    assert selfs[0] == pytest.approx(4.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(2.0)
    # w: overlapping children cover [5,7] -> 2 of 3.
    assert selfs[4] == pytest.approx(1.0)
    assert count_under(spans, "w", "w.child") == 2
    assert count_under(spans, "op", "w.child") == 2
    assert count_under(spans, "a", "w.child") == 0


def test_recorder_nests_worker_spans_under_the_main_thread():
    rec = Recorder()
    outer, outer_parent = rec.open()
    inner, inner_parent = rec.open()
    seen = {}

    def worker():
        sid, parent = rec.open()
        child, child_parent = rec.open()
        rec.close(child, "worker.child", child_parent, 2.0, 3.0)
        rec.close(sid, "worker", parent, 1.0, 4.0)
        seen.update(parent=parent, child_parent=child_parent, sid=sid)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    rec.close(inner, "inner", inner_parent, 0.5, 5.0)
    rec.close(outer, "outer", outer_parent, 0.0, 6.0)
    assert outer_parent is None and inner_parent == outer
    assert seen["parent"] == inner
    assert seen["child_parent"] == seen["sid"]
    selfs = self_times(rec.spans)
    assert selfs[inner] == pytest.approx(4.5 - 3.0)


def test_tracer_restores_every_attribute_even_after_an_error():
    modules = import_package()
    originals = {(short, fname): getattr(modules[short], fname)
                 for short, functions in WRAPPED.items() for fname in functions}
    with pytest.raises(KeyError):
        with Tracer(modules):
            assert modules["linalg"].expm is not originals[("linalg", "expm")]
            raise KeyError("op failed")
    for (short, fname), original in originals.items():
        assert getattr(modules[short], fname) is original


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_has_no_failures_and_restores_wrappers(name):
    result, record = run.run_workload(name, seed=0, seconds=0.01, trace=1,
                                      smoke=True)
    assert result["failed"] == 0, record["failures"]
    assert record["fail_ratio"] == 0.0
    assert result["correct"] is True and result["attempted"] >= 2
    assert set(result["metrics"]) == {m[0] for m in LAYER_METRICS}
    linalg = sys.modules["selftrig.linalg"]
    assert linalg.expm.__module__ == "selftrig.linalg"
    assert run.wrappers_restored({short: sys.modules[f"selftrig.{short}"]
                                  for short in WRAPPED})


def test_untraced_run_reports_every_end_to_end_metric():
    result, record = run.run_workload("decide_replay", seed=3, seconds=0.05,
                                      trace=0, smoke=True)
    assert result["failed"] == 0, record["failures"]
    assert set(result["metrics"]) == {m[0] for m in END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["setup_repeats"] == run.SETUP_REPEATS


def test_design_fine_does_the_same_work_on_every_seed(tmp_path):
    # Seeds change only the coordinates of the m=6 plant, which leaves
    # every call the design makes in place.
    calls = []
    for seed in (0, 7):
        work = tmp_path / str(seed)
        work.mkdir()
        workload = WORKLOADS["design_fine"](seed, work, smoke=True)
        with Tracer(workload.modules) as tracer:
            codes = tracer.run_op(lambda: workload.run_op(0))
        assert workload.check(0, codes) == []
        calls.append(sorted(s[1] for s in tracer.recorder.spans))
    assert calls[0] == calls[1]


def test_decide_replay_catches_a_dwell_time_the_default_grid_misses():
    # Seed 3's second m=3 plant has two eigenvalues of the decay form
    # crossing zero within one default grid step.
    modules = import_package()
    rng = np.random.default_rng(3)
    seeded_plant(modules, rng, 3)
    system, cert, tau = seeded_plant(modules, rng, 3)
    fixed, miss = workloads._checked_dwell_time(modules["design"], system,
                                                cert, tau)
    assert miss is not None and miss["top_eigenvalue_at_0.999"] > 0.0
    assert fixed < 0.999 * tau


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.LISTED)
    assert set(workloads.LISTED) <= set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, unit, better) for name, unit, _kind, better in LAYER_METRICS]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "decide_replay",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
