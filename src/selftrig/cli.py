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
import functools
import json
import sys as _sys
from pathlib import Path

import numpy as np

from . import __version__, design, reports, scheduler, sim
from .errors import (ConfigError, DesignError, DimensionError, NumericError,
                     SelfTrigError, SimulationError)

# Dwell-time root scan: step delta/100 (_dwell_grid_step), up to the scan's
# default cap.
_DWELL_GRID_DIVISOR = 100
_PLOT_POINTS = 2000


# The blocks of design.json that a reused file must match, in the order
# they are built. The first three hold the decisions of the config section
# named here; the others follow from them and the dwell time.
_DECISIONS = {"system": "system", "certificate": "lyapunov section",
              "trigger": "trigger section"}
_CHECKED_BLOCKS = (*_DECISIONS, "gains", "feasibility", "tables")


def _dwell_grid_step(system, delta):
    """Step of the dwell-time scan: ``delta / 100``, but at most
    ``design.resolving_step(A)``, so that the scan cannot step over the
    first root of a plant that oscillates faster than the trigger grid."""
    return min(delta / _DWELL_GRID_DIVISOR, design.resolving_step(system.A))


def _design_bundle(cfg, raw, tau_star=None, scans=None):
    """Build every design artifact for a validated config.

    Returns ``(system, certificate, trigger, gains, tables, report)`` where
    the report is the JSON payload of ``design.json``. When the dwell-time
    scan finds no decay violation below its cap, the cap (clipped to the
    requested window) stands in as a conservative minimum dwell time. A
    given ``tau_star`` stands in for the scan. ``scans`` maps a scan's grid
    step to its result, for configs that share system and certificate: a
    scan found there is not run again, and a scan that is run is added. An
    error of the design is raised with ``block`` set to the report block (a
    key of ``_DECISIONS``) whose step failed.
    """
    scans = {} if scans is None else scans
    block = "system"
    try:
        system = design.LinearSystem(*(cfg["system"][key] for key in "ABK"))
        block, lyap = "certificate", cfg["lyapunov"]
        cert = design.make_certificate(system, Q=lyap["Q"],
                                       lambda_ratio=lyap["lambda_ratio"])
        block, tcfg = "trigger", cfg["trigger"]
        dwell = {}
        if tau_star is None:
            step = _dwell_grid_step(system, tcfg["delta"])
            if step not in scans:
                scans[step] = design.min_inter_execution_time(
                    system, cert, grid_step=step)
            result = scans[step]
            tau_star = (result.tau if result.root_found
                        else min(result.tau, tcfg["tau_max"]))
            dwell = {"root_found": result.root_found,
                     "tau_cap": result.tau_cap}
        trig = design.choose_trigger(tau_star, tcfg["delta"], tcfg["tau_max"],
                                     tau_min=tcfg["tau_min"])
        gains = design.eiss_gains(system, cert, trig, tau_star=tau_star)
        tables = scheduler.build_tables(system, cert, trig)
    except SelfTrigError as exc:
        exc.block = block
        raise
    feasibility = design.feasibility_check(system.m, 0.0, trig)
    report = {
        "tool": {"name": "selftrig", "version": __version__},
        "config_hash": reports.config_hash(raw),
        "system": {"A": system.A, "B": system.B, "K": system.K},
        "certificate": {"P": cert.P, "lambda_o": cert.lambda_o,
                        "lambda": cert.lam,
                        "lambda_ratio": lyap["lambda_ratio"]},
        "dwell_time": {"tau_star": tau_star, **dwell},
        "trigger": {"delta": trig.delta, "tau_min": trig.tau_min,
                    "tau_max": trig.tau_max, "n_min": trig.n_min,
                    "n_max": trig.n_max},
        "gains": dataclasses.asdict(gains),
        "feasibility": {"work_unit": feasibility.work_unit,
                        "max_tau_c": feasibility.max_tau_c},
        "tables": {"forms": tables.forms},
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


def _file_config(data):
    """The config that a design file's own decisions stand for: its system,
    ``certificate.lambda_ratio`` and trigger window, and the ``Q`` that the
    certificate equation recovers from its ``P`` and the loop."""
    system = design.LinearSystem(*(_design_numbers(data, f"system.{key}")
                                   for key in "ABK"))
    P = _design_numbers(data, "certificate.P", (system.m, system.m))
    # A Q past the float range is refused by the certificate, not warned of.
    with np.errstate(over="ignore", invalid="ignore"):
        Q = -(system.a_cl.T @ P + P @ system.a_cl)
        Q = 0.5 * (Q + Q.T)
    ratio = _design_numbers(data, "certificate.lambda_ratio", ()).item()
    return {"system": {"A": system.A, "B": system.B, "K": system.K},
            "lyapunov": {"Q": Q, "lambda_ratio": ratio},
            "trigger": {key: _design_numbers(data, f"trigger.{key}", ()).item()
                        for key in ("delta", "tau_max", "tau_min")}}


def _mismatch(data, report):
    """Path of the first entry in the checked blocks of a rebuilt ``report``
    that the design file ``data`` does not match, or ``None``.

    A ``system`` or ``trigger`` entry must be equal, grid indices as JSON
    integers. Any other must be finite numbers of the rebuilt value's shape
    within ``1e-9 * max(1, |v|)`` of it; a matrix is scaled by its largest
    entry, and a stack of forms form by form. A missing or malformed entry
    is a ``ConfigError``.
    """
    for block in _CHECKED_BLOCKS:
        for key, value in report[block].items():
            path = f"{block}.{key}"
            value = np.asarray(value, dtype=float)
            stored = _design_numbers(
                data, path, None if block == "system" else value.shape,
                integer=key.startswith("n_"))
            if block in ("system", "trigger"):
                if not np.array_equal(stored, value):
                    return path
                continue
            matrix = tuple(range(value.ndim))[-2:]
            bad = np.flatnonzero(
                np.abs(stored - value).max(axis=matrix)
                > 1e-9 * np.maximum(1.0, np.abs(value).max(axis=matrix)))
            if bad.size:
                return f"{path}[{bad[0]}]" if value.ndim == 3 else path
    return None


def _checked_design(path, cfg=None, raw=None):
    """``(system, certificate, trigger, gains, tables)`` of the design file
    at ``path``, rebuilt by ``_design_bundle`` at its
    ``dwell_time.tau_star``.

    A file reused with a config must be that config's own design at its
    tau_star; with no config, the design is built from ``_file_config``.
    The file must match the rebuilt report (``_mismatch``), and nothing
    else is read from it. A file whose system, certificate or trigger grid
    differs from the config's, or at whose tau_star the config has no
    design, was produced for a different config section. Every other
    fault, and any with no config, is the file's own: a malformed design
    file. Both are ``ConfigError``s.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"design file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"design file is not valid JSON: {exc}") from None
    try:
        tau_star = _design_numbers(data, "dwell_time.tau_star", ()).item()
        own = _file_config(data) if cfg is None else cfg
        try:
            *bundle, report = _design_bundle(own, raw, tau_star)
        except SelfTrigError as exc:
            if cfg is None:
                raise
            where = exc.block
        else:
            where = _mismatch(data, report)
    except SelfTrigError as exc:
        raise ConfigError(f"malformed design file: {exc}") from None
    if where is None:
        return bundle
    block = where.split(".")[0]
    if cfg is not None and block in _DECISIONS:
        raise ConfigError(f"design file was produced for a different "
                          f"{_DECISIONS[block]} than the config")
    raise ConfigError(f"malformed design file: {where} does not match the "
                      f"value its system, certificate, dwell time and trigger "
                      f"grid imply")


def _bundle_for(args, cfg, raw):
    if args.design:
        return _checked_design(args.design, cfg, raw)
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
    t, norm, bound = _downsample(traj.times, sim.state_norms(traj.states),
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


def _sweep_cell(raw, delta, tau_max, cell_dir, scans):
    cell_raw = copy.deepcopy(raw)
    cell_raw.pop("sweep", None)
    cell_raw["trigger"]["delta"] = delta
    cell_raw["trigger"]["tau_max"] = tau_max
    row = {"delta": delta, "tau_max": tau_max, "n_max": "", "sigma": "",
           "gamma_total_coeff": "", "mean_tau_k": "", "executions": "",
           "status": "ok"}
    try:
        cfg = reports.validate_config(cell_raw)
        system, cert, trig, gains, tables, report = _design_bundle(
            cfg, cell_raw, scans=scans)
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
    # The cells differ only in delta and tau_max, so cells whose deltas
    # give one scan step share one dwell-time scan.
    scans = {}
    rows = [_sweep_cell(raw, delta, tau_max, cell_dir, scans)
            for (delta, tau_max), cell_dir in zip(cells, dirs)]
    columns = ["delta", "tau_max", "n_max", "sigma", "gamma_total_coeff",
               "mean_tau_k", "executions", "status"]
    with reports.overwrite(out / "sweep.csv", newline="\n") as fh:
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
    system, _cert, trig, *_ = _checked_design(args.design)
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


# Parsing leaves the parser as it was, so one serves every call of ``main``.
@functools.cache
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


# Exit code of each error that a command reports in one line. A design
# whose grid is too fine to allocate is a design failure.
_EXIT_CODES = {ConfigError: 2, OSError: 2, DesignError: 3, NumericError: 3,
               DimensionError: 3, MemoryError: 3, SimulationError: 4}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items()
                    if isinstance(exc, cls))


if __name__ == "__main__":
    _sys.exit(main())
