"""Command-line frontend.

Subcommands cover the full workflow: ``design`` certifies a controller and
writes the trigger tables, ``simulate`` runs and verifies the closed loop,
``compare`` races the self-triggered schedule against periodic execution at
the same guaranteed rate, ``sweep`` grids over trigger parameters, and
``feasibility`` checks a platform's multiply-add time against a design.

Exit codes: 0 success (and feasible), 1 infeasible platform or a sweep with
no successful cell, 2 configuration problems (including unusable input or
output paths), 3 design-stage numeric problems, 4 simulation failures.
"""

import argparse
import copy
import dataclasses
import json
import sys as _sys
from pathlib import Path

import numpy as np

from . import __version__, design, reports, scheduler, sim
from .errors import (ConfigError, DesignError, DimensionError, NumericError,
                     SelfTrigError, SimulationError)

# Dwell-time root scan: step delta/100, capped at 10 decay time constants.
_DWELL_GRID_DIVISOR = 100
_DWELL_CAP_FACTOR = 10.0
_PLOT_POINTS = 2000


def _design_bundle(cfg, raw):
    """Build every design artifact for a validated config.

    Returns ``(system, certificate, trigger, gains, tables, report)`` where
    the report is the JSON payload of ``design.json``. When the dwell-time
    scan finds no decay violation below its cap, the cap (clipped to the
    requested window) stands in as a conservative minimum dwell time.
    """
    system = design.LinearSystem(cfg["system"]["A"], cfg["system"]["B"],
                                 cfg["system"]["K"])
    lyap = cfg["lyapunov"]
    cert = design.make_certificate(system, Q=lyap["Q"],
                                   lambda_ratio=lyap["lambda_ratio"])
    tcfg = cfg["trigger"]
    result = design.min_inter_execution_time(
        system, cert,
        grid_step=tcfg["delta"] / _DWELL_GRID_DIVISOR,
        tau_cap=_DWELL_CAP_FACTOR / cert.lam)
    tau_star = result.tau if result.root_found else min(result.tau,
                                                        tcfg["tau_max"])
    trig = design.choose_trigger(tau_star, tcfg["delta"], tcfg["tau_max"],
                                 tau_min=tcfg["tau_min"])
    gains = design.eiss_gains(system, cert, trig, tau_star=tau_star)
    tables = scheduler.build_tables(system, cert, trig)
    feasibility = design.feasibility_check(system.m, 0.0, trig)
    report = {
        "tool": {"name": "selftrig", "version": __version__},
        "config_hash": reports.config_hash(raw),
        "system": {"A": system.A, "B": system.B, "K": system.K},
        "certificate": {"P": cert.P, "lambda_o": cert.lambda_o,
                        "lambda": cert.lam,
                        "lambda_ratio": lyap["lambda_ratio"]},
        "dwell_time": {"tau_star": tau_star,
                       "root_found": result.root_found,
                       "tau_cap": result.tau_cap},
        "trigger": {"delta": trig.delta, "tau_min": trig.tau_min,
                    "tau_max": trig.tau_max, "n_min": trig.n_min,
                    "n_max": trig.n_max},
        "gains": dataclasses.asdict(gains),
        "feasibility": {"work_unit": feasibility.work_unit,
                        "tau_min": feasibility.tau_min,
                        "delta": feasibility.delta,
                        "max_tau_c": feasibility.max_tau_c},
        "tables": tables.to_jsonable(),
    }
    return system, cert, trig, gains, tables, report


def _read_design_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"design file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"design file is not valid JSON: {exc}") from None


def _load_design(path, cfg):
    """Rebuild the design bundle from a previously written design.json.

    The tables must match the file's system dimension and trigger block;
    any mismatch or malformed entry is a ``ConfigError``.
    """
    data = _read_design_file(path)
    try:
        system = design.LinearSystem(data["system"]["A"], data["system"]["B"],
                                     data["system"]["K"])
        if not (np.array_equal(system.A, np.atleast_2d(cfg["system"]["A"]))
                and np.array_equal(system.B, np.atleast_2d(cfg["system"]["B"]))
                and np.array_equal(system.K, np.atleast_2d(cfg["system"]["K"]))):
            raise ConfigError(
                "design file was produced for a different system than the config")
        certificate = data["certificate"]
        P = np.asarray(certificate["P"], dtype=float)
        a_cl = system.a_cl
        # The certificate equation recovers Q exactly from P and the loop.
        Q = -(a_cl.T @ P + P @ a_cl)
        cert = design.LyapunovCertificate(P, certificate["lambda_o"],
                                          certificate["lambda"],
                                          0.5 * (Q + Q.T))
        trig = design.TriggerConfig(**data["trigger"])
        gains = design.EissGains(**data["gains"])
        tables = scheduler.TriggerTables.from_jsonable(data["tables"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed design file: {exc}") from None
    if ((tables.m, tables.delta, tables.tau_min, tables.n_min, tables.n_max)
            != (system.m, trig.delta, trig.tau_min, trig.n_min, trig.n_max)):
        raise ConfigError("design file tables do not match its system and "
                          "trigger block")
    return system, cert, trig, gains, tables, data


def _bundle_for(args, cfg, raw):
    if getattr(args, "design", None):
        return _load_design(args.design, cfg)
    return _design_bundle(cfg, raw)


def _out_dir(args, cfg):
    out = Path(args.out if args.out else cfg["outputs"]["directory"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_simulation(cfg, command):
    if cfg["simulation"] is None:
        raise ConfigError(f"{command} requires a simulation section in the config")
    sim_cfg = cfg["simulation"]
    return sim_cfg


def _disturbance(sim_cfg, m):
    d = sim_cfg["disturbance"]
    return sim.DisturbanceSpec(d["kind"], dimension=m, amplitude=d["amplitude"],
                               frequency=d["frequency"], seed=d["seed"])


def _x0(sim_cfg, m):
    x0 = np.asarray(sim_cfg["x0"], dtype=float)
    if x0.size != m:
        raise ConfigError(
            f"simulation.x0 has length {x0.size}, state dimension is {m}")
    return x0


def cmd_design(args):
    cfg, raw = reports.load_config(args.config)
    _system, _cert, trig, gains, _tables, report = _design_bundle(cfg, raw)
    out = _out_dir(args, cfg)
    path = out / "design.json"
    reports.dump_json(report, path)
    dw = report["dwell_time"]
    print(f"minimum inter-execution time: {dw['tau_star']!r} "
          f"(root_found={dw['root_found']})")
    print(f"trigger grid: delta={trig.delta!r}, window "
          f"[{trig.tau_min!r}, {trig.tau_max!r}], indices "
          f"[{trig.n_min}, {trig.n_max}]")
    print(f"gains: sigma={gains.sigma!r}, "
          f"gamma_total_coeff={gains.gamma_total_coeff!r}")
    print(f"max feasible tau_c: {report['feasibility']['max_tau_c']!r}")
    print(f"wrote {path}")
    return 0


def _downsample(*arrays):
    n = len(arrays[0])
    stride = max(1, n // _PLOT_POINTS)
    idx = np.arange(0, n, stride)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return [np.asarray(a)[idx] for a in arrays]


def _write_plots(out, traj, log, vrep, gains):
    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    t, norm, bound = _downsample(traj.times,
                                 np.linalg.norm(traj.states, axis=1),
                                 vrep.bound_curve)
    reports.svg_plot(plots / "state_norm.svg", "State norm against ISS envelope",
                     "t", "|x|", [("|x(t)|", t, norm), ("envelope", t, bound)])
    t2, v = _downsample(traj.times, traj.v_values)
    decay = traj.v_values[0] * np.exp(-gains.lam * t2)
    reports.svg_plot(plots / "lyapunov.svg", "Lyapunov function",
                     "t", "V", [("V(x(t))", t2, v),
                                ("V(x0) exp(-lambda t)", t2, decay)])
    ts, taus = [], []
    for e in log.events:
        ts.extend([e.t, e.t + e.tau])
        taus.extend([e.tau, e.tau])
    reports.svg_plot(plots / "dwell_times.svg", "Scheduled dwell times",
                     "t", "tau_k", [("tau_k", ts, taus)])
    return plots


def _verify_payload(raw, sim_cfg, dist, log, vrep):
    tau_lo, tau_mean, tau_hi = log.tau_stats()
    decay = None
    if vrep.decay_violations is not None:
        decay = {"violations": vrep.decay_violations,
                 "worst_margin": vrep.decay_worst_margin}
    return {
        "config_hash": reports.config_hash(raw),
        "t_end": sim_cfg["t_end"],
        "disturbance_bound": dist.linf_bound,
        "tolerance": vrep.tolerance,
        "executions": log.total_executions,
        "tau_k": {"min": tau_lo, "mean": tau_mean, "max": tau_hi},
        "eiss": {"violations": vrep.eiss_violations,
                 "worst_margin": vrep.eiss_worst_margin,
                 "checked_instants": vrep.checked_instants},
        "decay": decay,
        "disturbed_decay": {"violations": vrep.disturbed_decay_violations,
                            "worst_margin": vrep.disturbed_decay_worst_margin,
                            "checked_updates": vrep.checked_updates},
    }


def cmd_simulate(args):
    cfg, raw = reports.load_config(args.config)
    sim_cfg = _require_simulation(cfg, "simulate")
    system, cert, trig, gains, tables, _report = _bundle_for(args, cfg, raw)
    dist = _disturbance(sim_cfg, system.m)
    x0 = _x0(sim_cfg, system.m)
    traj, log = sim.run_self_triggered(system, cert, tables, dist, x0,
                                       sim_cfg["t_end"],
                                       divisor=sim_cfg["integrator_divisor"])
    vrep = sim.verify(traj, log, gains, cert, dist, system)
    out = _out_dir(args, cfg)
    reports.write_trajectory_csv(out / "trajectory.csv", traj, vrep.bound_curve)
    reports.write_events_csv(out / "events.csv", log, system.m)
    reports.dump_json(_verify_payload(raw, sim_cfg, dist, log, vrep),
                      out / "verify.json")
    written = ["trajectory.csv", "events.csv", "verify.json"]
    if cfg["outputs"]["emit_plots"]:
        _write_plots(out, traj, log, vrep, gains)
        written.append("plots/")
    tau_lo, tau_mean, tau_hi = log.tau_stats()
    print(f"executions: {log.total_executions} over t_end={sim_cfg['t_end']!r} "
          f"(tau_k min/mean/max = {tau_lo!r}/{tau_mean!r}/{tau_hi!r})")
    print(f"eiss violations: {vrep.eiss_violations}, disturbed decay "
          f"violations: {vrep.disturbed_decay_violations}"
          + ("" if vrep.decay_violations is None
             else f", decay violations: {vrep.decay_violations}"))
    print(f"wrote {', '.join(written)} in {out}")
    return 0


def cmd_compare(args):
    cfg, raw = reports.load_config(args.config)
    sim_cfg = _require_simulation(cfg, "compare")
    system, cert, trig, _gains, tables, _report = _bundle_for(args, cfg, raw)
    dist = _disturbance(sim_cfg, system.m)
    x0 = _x0(sim_cfg, system.m)
    divisor = sim_cfg["integrator_divisor"]
    _st_traj, st_log = sim.run_self_triggered(system, cert, tables, dist, x0,
                                              sim_cfg["t_end"], divisor=divisor)
    # Periodic execution at the same guaranteed rate must run at the grid
    # floor of the dwell window, which is what a platform with the same
    # evaluation step can actually schedule.
    period = trig.tau_min
    _p_traj, p_log = sim.run_periodic(system, cert, dist, x0, sim_cfg["t_end"],
                                      period, divisor=divisor)
    tau_lo, tau_mean, tau_hi = st_log.tau_stats()
    st_n = st_log.total_executions
    p_n = p_log.total_executions
    payload = {
        "config_hash": reports.config_hash(raw),
        "t_end": sim_cfg["t_end"],
        "self_triggered": {"executions": st_n, "tau_min": tau_lo,
                           "tau_mean": tau_mean, "tau_max": tau_hi},
        "periodic": {"executions": p_n, "period": period},
        "self_triggered_no_worse": st_n <= p_n,
    }
    out = _out_dir(args, cfg)
    reports.dump_json(payload, out / "compare.json")
    print(f"self-triggered: {st_n} executions (mean tau_k {tau_mean!r})")
    print(f"periodic at {period!r}: {p_n} executions")
    print("self-triggered executes no more often: "
          + ("yes" if st_n <= p_n else "NO"))
    print(f"wrote {out / 'compare.json'}")
    return 0


def _sweep_cell(raw, delta, tau_max, cell_dir):
    cell_raw = copy.deepcopy(raw)
    cell_raw.pop("sweep", None)
    cell_raw["trigger"]["delta"] = delta
    cell_raw["trigger"]["tau_max"] = tau_max
    row = {"delta": delta, "tau_max": tau_max, "n_max": "", "sigma": "",
           "gamma_total_coeff": "", "mean_tau_k": "", "executions": "",
           "status": "ok"}
    try:
        cfg = reports.validate_config(cell_raw)
        system, cert, trig, gains, tables, report = _design_bundle(cfg, cell_raw)
        cell_dir.mkdir(parents=True, exist_ok=True)
        reports.dump_json(report, cell_dir / "design.json")
        row["n_max"] = str(trig.n_max)
        row["sigma"] = repr(gains.sigma)
        row["gamma_total_coeff"] = repr(gains.gamma_total_coeff)
        if cfg["simulation"] is not None:
            sim_cfg = cfg["simulation"]
            dist = _disturbance(sim_cfg, system.m)
            _traj, log = sim.run_self_triggered(
                system, cert, tables, dist, _x0(sim_cfg, system.m),
                sim_cfg["t_end"], divisor=sim_cfg["integrator_divisor"])
            _lo, mean, _hi = log.tau_stats()
            row["mean_tau_k"] = repr(mean)
            row["executions"] = str(log.total_executions)
    except SelfTrigError as exc:
        row["status"] = f"error:{type(exc).__name__}"
    return row


def cmd_sweep(args):
    cfg, raw = reports.load_config(args.config)
    if cfg["sweep"] is None:
        raise ConfigError("sweep requires a sweep section in the config")
    cells = sorted((d, tm) for d in cfg["sweep"]["delta_list"]
                   for tm in cfg["sweep"]["tau_max_list"])
    out = _out_dir(args, cfg)
    dirs = [out / "cells" / f"cell_{i:03d}" for i in range(len(cells))]
    rows = [_sweep_cell(raw, delta, tau_max, cell_dir)
            for (delta, tau_max), cell_dir in zip(cells, dirs)]
    columns = ["delta", "tau_max", "n_max", "sigma", "gamma_total_coeff",
               "mean_tau_k", "executions", "status"]
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float)
                              else row[c] for c in columns) + "\n")
    ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"swept {len(rows)} cells with 1 worker(s): {ok} ok, "
          f"{len(rows) - ok} failed")
    print(f"wrote {out / 'sweep.csv'}")
    return 0 if ok else 1


def cmd_feasibility(args):
    data = _read_design_file(args.design)
    try:
        trig = design.TriggerConfig(**data["trigger"])
        m = len(data["certificate"]["P"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed design file: {exc}") from None
    rep = design.feasibility_check(m, args.tau_c, trig)
    print(f"state dimension {rep.m}, work unit {rep.work_unit} multiply-adds")
    print(f"per execution: 1.5 * {rep.work_unit} * {rep.tau_c!r} = "
          f"{rep.budget_tau_min!r} <= tau_min = {rep.tau_min!r}: "
          + ("ok" if rep.ok_tau_min else "VIOLATED"))
    print(f"per grid step: {rep.work_unit} * {rep.tau_c!r} = "
          f"{rep.budget_delta!r} <= delta = {rep.delta!r}: "
          + ("ok" if rep.ok_delta else "VIOLATED"))
    print(f"feasible: {'yes' if rep.feasible else 'no'} "
          f"(largest feasible tau_c = {rep.max_tau_c!r})")
    return 0 if rep.feasible else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="selftrig",
        description="Design and simulate self-triggered linear state "
                    "feedback implementations.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, config=True, design_file=False, tau_c=False):
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("--config", required=True,
                           help="path to the JSON config")
        if design_file:
            p.add_argument("--design", default=None,
                           help="reuse a previously written design.json")
        if tau_c:
            p.add_argument("--design", required=True,
                           help="design.json to check against")
            p.add_argument("--tau-c", dest="tau_c", type=float, required=True,
                           help="platform multiply-add time in seconds")
        if config:
            p.add_argument("--out", default=None,
                           help="output directory (default: outputs.directory)")
        return p

    add("design", "certify the controller and write the trigger tables")
    add("simulate", "run and verify the self-triggered closed loop",
        design_file=True)
    add("compare", "race the trigger against periodic execution",
        design_file=True)
    add("sweep", "grid the trigger parameters and tabulate the designs")
    add("feasibility", "check a platform multiply-add time against a design",
        config=False, tau_c=True)
    return parser


_HANDLERS = {
    "design": cmd_design,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "feasibility": cmd_feasibility,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except (DesignError, NumericError, DimensionError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    _sys.exit(main())
