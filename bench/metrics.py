"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names; ``test_bench.py`` keeps the two in
step. Per-layer figures marked ``per_op`` are sums over the traced ops
divided by their number, so they compare across runs of any length.
"""

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("cpu_s", "s/op", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def _calls_self(span):
    return [(f"{span}.calls", "calls/op", "per_op"),
            (f"{span}.self_s", "s/op", "per_op")]


# Per-layer metrics where more is better; for every other one less is.
_HIGHER = {
    "scheduler.next_update.useful_eval_ratio",
    "sim.verify.gain_cache_hit_ratio",
    "cli.cmd_sweep.workers",
    "cli.cmd_sweep.parallelism",
    "trace.overhead_ratio",
    "trace.ops",
}

# (name, unit, kind); kind is "per_op", "ratio" or "count".
_LAYER = (
    _calls_self("linalg.expm")
    + _calls_self("linalg.det")
    + _calls_self("linalg.sym_eig")
    + _calls_self("linalg.induced_norm2")
    + _calls_self("linalg.lyap_solve")
    + _calls_self("design.min_inter_execution_time")
    + [("design.min_inter_execution_time.total_s", "s/op", "per_op"),
       ("design.min_inter_execution_time.det_evals", "calls/op", "per_op")]
    + _calls_self("design.disturbance_gain_coeff")
    + [("design.disturbance_gain_coeff.total_s", "s/op", "per_op"),
       ("design.disturbance_gain_coeff.nodes", "calls/op", "per_op"),
       ("design.eiss_gains.total_s", "s/op", "per_op"),
       ("design.make_certificate.total_s", "s/op", "per_op"),
       ("scheduler.build_tables.calls", "calls/op", "per_op"),
       ("scheduler.build_tables.total_s", "s/op", "per_op"),
       ("scheduler.build_tables.forms", "forms/op", "per_op")]
    + _calls_self("scheduler.next_update")
    + [("scheduler.next_update.evaluations", "evals/op", "per_op"),
       ("scheduler.next_update.op_count", "madds/op", "per_op"),
       ("scheduler.next_update.useful_eval_ratio", "ratio", "ratio")]
    + _calls_self("scheduler.next_update_packed")
    + [("scheduler.next_update_packed.evaluations", "evals/op", "per_op"),
       ("scheduler.next_update_packed.op_count", "madds/op", "per_op")]
    + _calls_self("sim.run_self_triggered")
    + [("sim.run_self_triggered.total_s", "s/op", "per_op"),
       ("sim.run_periodic.calls", "calls/op", "per_op"),
       ("sim.run_periodic.total_s", "s/op", "per_op")]
    + _calls_self("sim.integrate_held")
    + [("sim.integrate_held.steps", "steps/op", "per_op"),
       ("sim.integrate_held.us_per_step", "us/step", "ratio")]
    + _calls_self("sim.verify")
    + [("sim.verify.total_s", "s/op", "per_op"),
       ("sim.verify.gain_cache_hit_ratio", "ratio", "ratio")]
    + _calls_self("reports.load_config")
    + _calls_self("reports.dump_json")
    + [("reports.dump_json.bytes", "B/op", "per_op")]
    + _calls_self("reports.write_trajectory_csv")
    + [("reports.write_trajectory_csv.bytes", "B/op", "per_op")]
    + _calls_self("reports.write_events_csv")
    + _calls_self("reports.svg_plot")
    + _calls_self("cli.main")
    + [("cli.cmd_sweep.workers", "count", "count"),
       ("cli.cmd_sweep.parallelism", "cpu_s/s", "ratio"),
       ("trace.overhead_ratio", "ratio", "ratio"),
       ("trace.op_s", "s/op", "per_op"),
       ("trace.ops", "count", "count")]
)

# (name, unit, kind, better)
LAYER_METRICS = [(name, unit, kind, "higher" if name in _HIGHER else "lower")
                 for name, unit, kind in _LAYER]
