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
import math
import sys as _sys
from pathlib import Path

import numpy as np

from . import __version__, design, linalg, reports, scheduler, sim
from .errors import (ConfigError, DesignError, DimensionError, NumericError,
                     SelfTrigError, SimulationError)

# Dwell-time root scan: step delta/100 (_dwell_grid_step), up to the scan's
# default cap.
_DWELL_GRID_DIVISOR = 100
_PLOT_POINTS = 2000


def _derive(system, cert, trig, tau_star):
    """``(gains, tables, derived)`` implied by a design's decisions, where
    ``derived`` holds the ``gains``, ``feasibility`` and ``tables`` blocks
    of ``design.json``: a fresh design writes them, a reused one is checked
    against them."""
    gains = design.eiss_gains(system, cert, trig, tau_star=tau_star)
    tables = scheduler.build_tables(system, cert, trig)
    feasibility = design.feasibility_check(system.m, 0.0, trig)
    derived = {
        "gains": dataclasses.asdict(gains),
        "feasibility": {"work_unit": feasibility.work_unit,
                        "max_tau_c": feasibility.max_tau_c},
        "tables": {"forms": tables.forms},
    }
    return gains, tables, derived


def _dwell_grid_step(system, delta):
    """Step of the dwell-time scan: ``delta / 100``, but at most
    ``(pi / omega) / 20``, where ``omega`` is the largest ``|Im lambda(A)|``,
    so that the scan cannot step over the first root of a plant that
    oscillates faster than the trigger grid."""
    step = delta / _DWELL_GRID_DIVISOR
    omega = float(np.max(np.abs(np.linalg.eigvals(system.A).imag)))
    return min(step, math.pi / omega / 20.0) if omega > 0.0 else step


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
        system, cert, grid_step=_dwell_grid_step(system, tcfg["delta"]))
    tau_star = result.tau if result.root_found else min(result.tau,
                                                        tcfg["tau_max"])
    trig = design.choose_trigger(tau_star, tcfg["delta"], tcfg["tau_max"],
                                 tau_min=tcfg["tau_min"])
    gains, tables, derived = _derive(system, cert, trig, tau_star)
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
        **derived,
    }
    return system, cert, trig, gains, tables, report


def _design_entry(data, path):
    """The entry of a design file at the dotted ``path``; a missing one is a
    ``ConfigError`` that names the path."""
    entry = data
    for key in path.split("."):
        if not isinstance(entry, dict) or key not in entry:
            raise ConfigError(f"missing {path}")
        entry = entry[key]
    return entry


def _design_numbers(data, path, shape=None, integer=False):
    return reports.finite_numbers(_design_entry(data, path), path, shape,
                                  integer=integer)


def _check_derived(stored, value, path):
    """A stored entry must be finite numbers of the derived entry's shape
    and lie within ``1e-9 * max(1, |value|)`` of it; a stack of forms is
    scaled per form, by its largest entry."""
    value = np.asarray(value, dtype=float)
    stored = reports.finite_numbers(stored, path, value.shape)
    per_form = tuple(range(1, value.ndim))
    scale = np.maximum(1.0, np.abs(value).max(axis=per_form))
    bad = np.flatnonzero(np.abs(stored - value).max(axis=per_form)
                         > 1e-9 * scale)
    if bad.size:
        where = f"{path}[{bad[0]}]" if value.ndim else path
        raise ConfigError(f"{where} does not match the value its system, "
                          f"certificate, dwell time and trigger grid imply")


def _read_design(path):
    """Rebuild a design from the decisions in a design.json, checked.

    The decisions are read through ``reports.finite_numbers``: the system,
    the certificate (``P`` positive definite, ``0 < lambda <= lambda_o``),
    ``dwell_time.tau_star`` and the trigger window, whose integer ``n_min``,
    ``n_max`` and times ``tau_min``, ``tau_max`` must be exactly what
    ``design.choose_trigger`` snaps the file's own values to. ``_derive``
    rebuilds everything else, and each ``gains``, ``feasibility`` and
    ``tables`` entry it derives must match the stored one
    (``_check_derived``); the returned ``(system, certificate, trigger,
    gains, tables, tau_star)`` take nothing derived from the file. Other
    keys, which earlier versions wrote, are ignored. Any missing, malformed or
    mismatched entry, and any failure to derive, is a ``ConfigError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"design file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"design file is not valid JSON: {exc}") from None
    try:
        system = design.LinearSystem(
            *(_design_numbers(data, f"system.{key}")
              for key in ("A", "B", "K")))
        P = _design_numbers(data, "certificate.P", (system.m, system.m))
        a_cl = system.a_cl
        # The certificate equation recovers Q exactly from P and the loop.
        Q = -(a_cl.T @ P + P @ a_cl)
        cert = design.LyapunovCertificate(
            P, _design_numbers(data, "certificate.lambda_o", ()).item(),
            _design_numbers(data, "certificate.lambda", ()).item(),
            0.5 * (Q + Q.T))
        tau_star = _design_numbers(data, "dwell_time.tau_star", ()).item()
        window = {key: _design_numbers(data, f"trigger.{key}", (),
                                       integer=key.startswith("n_")).item()
                  for key in ("delta", "tau_min", "tau_max", "n_min", "n_max")}
        trig = design.choose_trigger(tau_star, window["delta"],
                                     window["tau_max"], window["tau_min"])
        for key, value in window.items():
            if getattr(trig, key) != value:
                raise ConfigError(f"trigger.{key} does not match the window "
                                  f"that tau_star, delta, tau_min and "
                                  f"tau_max snap to")
        gains, tables, derived = _derive(system, cert, trig, tau_star)
        # Files from earlier versions may differ in the last digits.
        for block, entries in derived.items():
            for key, value in entries.items():
                name = f"{block}.{key}"
                _check_derived(_design_entry(data, name), value, name)
    except (ConfigError, DimensionError, DesignError, NumericError) as exc:
        raise ConfigError(f"malformed design file: {exc}") from None
    return system, cert, trig, gains, tables, tau_star


def _load_design(path, cfg):
    """``_read_design``, for a file produced from the config's own system
    (as ``design.LinearSystem`` builds it: a 1-D ``B`` is a column, a 1-D
    ``K`` a row), ``lambda_ratio``, ``Q`` (``linalg.lyap_residual_ok``) and
    trigger window (exactly as ``design.choose_trigger`` snaps it). A config
    entry the design stage refuses matches no design file."""
    system, cert, trig, gains, tables, tau_star = _read_design(path)
    lyap, tcfg = cfg["lyapunov"], cfg["trigger"]
    window = (tcfg["delta"], tcfg["tau_max"], tcfg["tau_min"])

    def same_system():
        own = design.LinearSystem(*(cfg["system"][key] for key in "ABK"))
        return all(np.array_equal(getattr(system, key), getattr(own, key))
                   for key in "ABK")

    def same_lyapunov():
        Q = linalg.as_square(np.eye(system.m) if lyap["Q"] is None
                             else lyap["Q"], "Q")
        with np.errstate(over="ignore", invalid="ignore"):
            return (cert.lam == lyap["lambda_ratio"] * cert.lambda_o
                    and Q.shape == cert.P.shape
                    and linalg.lyap_residual_ok(system.a_cl, cert.P, Q))

    for what, same in (
            ("system", same_system), ("lyapunov section", same_lyapunov),
            ("trigger section",
             lambda: trig == design.choose_trigger(tau_star, *window))):
        try:
            ok = same()
        except SelfTrigError:
            ok = False
        if not ok:
            raise ConfigError(f"design file was produced for a different "
                              f"{what} than the config")
    return system, cert, trig, gains, tables


def _bundle_for(args, cfg, raw):
    if getattr(args, "design", None):
        return _load_design(args.design, cfg)
    return _design_bundle(cfg, raw)[:5]


def _out_dir(args, cfg):
    out = Path(args.out if args.out else cfg["outputs"]["directory"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_simulation(cfg, command):
    if cfg["simulation"] is None:
        raise ConfigError(f"{command} requires a simulation section in the config")
    return cfg["simulation"]


def _run_self_triggered(sim_cfg, system, cert, tables):
    """The simulation section's self-triggered run: ``(dist, x0, traj)``."""
    d = sim_cfg["disturbance"]
    dist = sim.DisturbanceSpec(d["kind"], dimension=system.m,
                               amplitude=d["amplitude"],
                               frequency=d["frequency"], seed=d["seed"])
    x0 = np.asarray(sim_cfg["x0"], dtype=float)
    if x0.size != system.m:
        raise ConfigError(f"simulation.x0 has length {x0.size}, state "
                          f"dimension is {system.m}")
    traj = sim.run_self_triggered(system, cert, tables, dist, x0,
                                  sim_cfg["t_end"],
                                  divisor=sim_cfg["integrator_divisor"])
    return dist, x0, traj


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


def _write_plots(out, traj, vrep, gains):
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
    ts = np.column_stack((traj.t_k, traj.t_k + traj.tau_k)).ravel()
    taus = np.repeat(traj.tau_k, 2)
    reports.svg_plot(plots / "dwell_times.svg", "Scheduled dwell times",
                     "t", "tau_k", [("tau_k", ts, taus)])
    return plots


def _check_json(check, where, **counts):
    """``check`` as a block of ``verify.json``, its location under the key
    ``where``; ``None`` for a check that was not made."""
    if check is None:
        return None
    return {"violations": check.violations,
            "worst_margin": check.worst_margin,
            where: check.worst_at, **counts}


def _verify_payload(raw, sim_cfg, dist, traj, vrep):
    return {
        "config_hash": reports.config_hash(raw),
        "t_end": sim_cfg["t_end"],
        "disturbance_bound": dist.linf_bound,
        "tolerance": vrep.tolerance,
        "executions": traj.holds.size,
        "tau_k": dict(zip(("min", "mean", "max"), traj.tau_stats())),
        "eiss": _check_json(vrep.eiss, "worst_index",
                            checked_instants=vrep.checked_instants),
        "decay": _check_json(vrep.decay, "worst_k"),
        "disturbed_decay": _check_json(vrep.disturbed_decay, "worst_k",
                                       checked_updates=vrep.checked_updates),
    }


def cmd_simulate(args):
    cfg, raw = reports.load_config(args.config)
    sim_cfg = _require_simulation(cfg, "simulate")
    system, cert, _trig, gains, tables = _bundle_for(args, cfg, raw)
    dist, _x0, traj = _run_self_triggered(sim_cfg, system, cert, tables)
    vrep = sim.verify(traj, gains, cert, dist, system)
    out = _out_dir(args, cfg)
    reports.write_trajectory_csv(out / "trajectory.csv", traj, vrep.bound_curve)
    reports.write_events_csv(out / "events.csv", traj)
    reports.dump_json(_verify_payload(raw, sim_cfg, dist, traj, vrep),
                      out / "verify.json")
    written = ["trajectory.csv", "events.csv", "verify.json"]
    if cfg["outputs"]["emit_plots"]:
        _write_plots(out, traj, vrep, gains)
        written.append("plots/")
    print(f"executions: {traj.holds.size} over t_end={sim_cfg['t_end']!r} "
          f"(tau_k min/mean/max = {'/'.join(map(repr, traj.tau_stats()))})")
    print(f"eiss violations: {vrep.eiss.violations}, disturbed decay "
          f"violations: {vrep.disturbed_decay.violations}"
          + ("" if vrep.decay is None
             else f", decay violations: {vrep.decay.violations}"))
    print(f"wrote {', '.join(written)} in {out}")
    return 0


def cmd_compare(args):
    cfg, raw = reports.load_config(args.config)
    sim_cfg = _require_simulation(cfg, "compare")
    system, cert, trig, _gains, tables = _bundle_for(args, cfg, raw)
    dist, x0, st_traj = _run_self_triggered(sim_cfg, system, cert, tables)
    # Periodic execution at the same guaranteed rate must run at the grid
    # floor of the dwell window, which is what a platform with the same
    # evaluation step can actually schedule.
    period = trig.tau_min
    p_traj = sim.run_periodic(system, cert, dist, x0, sim_cfg["t_end"],
                              period, sim_cfg["integrator_divisor"])
    tau_lo, tau_mean, tau_hi = st_traj.tau_stats()
    st_n, p_n = st_traj.holds.size, p_traj.holds.size
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
            _dist, _x0, traj = _run_self_triggered(
                cfg["simulation"], system, cert, tables)
            row["mean_tau_k"] = repr(traj.tau_stats()[1])
            row["executions"] = str(traj.holds.size)
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
    system, _cert, trig, *_ = _read_design(args.design)
    rep = design.feasibility_check(system.m, args.tau_c, trig)
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
