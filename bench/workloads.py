"""The benchmark's four workloads and the checks on their outputs.

Each workload is built by a set-up function ``(seed, work_dir, smoke)``
that imports ``selftrig`` from the checkout's ``src``, generates its inputs
from the seed and builds whatever the ops take as given. An op is one call
into the program; ``check`` inspects what it returned or wrote and lists
every problem found. ``smoke`` shrinks the inputs for the benchmark's own
tests. Why each workload exists is written down in ``README.md`` here.
"""

import contextlib
import csv
import importlib
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DEFAULT_SEED = 0
REFERENCE = json.loads((Path(__file__).parent / "reference.json")
                       .read_text(encoding="utf-8"))

MODULES = ("linalg", "design", "scheduler", "sim", "reports", "cli")
DOUBLE_INTEGRATOR = {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]],
                     "K": [[-1.0, -2.0]]}
SINUSOID = {"kind": "sinusoid", "amplitude": 0.1, "frequency": 1.0}
# A drawn plant whose dwell-time scan finds no root has no tau* to size
# its grid from; it is redrawn, at most this many times.
_PLANT_DRAWS = 50


class ProgramMissing(Exception):
    """The checkout holds no ``src/selftrig`` to benchmark."""


class SetupError(Exception):
    """The program failed while the workload's inputs were being built."""


@dataclass
class Workload:
    name: str
    modules: dict
    run_op: Callable[[int], object]
    check: Callable[[int, object], list]
    record: dict = field(default_factory=dict)


def import_package():
    """Import ``selftrig`` afresh from the checkout and return its modules.

    Earlier imports are dropped first, so the time this takes is the import
    cost a user pays, and set-up repeats measure it each time.
    """
    if not (SRC / "selftrig" / "__init__.py").is_file():
        raise ProgramMissing(f"no selftrig package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "selftrig" or n.startswith("selftrig.")]:
        del sys.modules[name]
    importlib.import_module("selftrig.cli")
    modules = {short: sys.modules[f"selftrig.{short}"] for short in MODULES}
    if Path(modules["cli"].__file__).resolve().parent != SRC / "selftrig":
        raise ProgramMissing(f"selftrig was imported from "
                             f"{modules['cli'].__file__}, not from {SRC}")
    return modules


def run_cli(modules, argv):
    """``selftrig <argv>`` in-process; returns the exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = modules["cli"].main(argv)
    return code, buf.getvalue()


def _write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _x0(rng, m):
    # Random direction, norm uniform in [0.2, 5], as the acceptance tests
    # draw initial states.
    x0 = rng.normal(size=m)
    return x0 * rng.uniform(0.2, 5.0) / np.linalg.norm(x0)


def seeded_plant(modules, rng, m):
    """Stable plant with B = I from the spectrum-shift generator.

    Returns ``(system, certificate, tau_star)``; plants whose scan finds no
    dwell-time root are redrawn.
    """
    design = modules["design"]
    for _ in range(_PLANT_DRAWS):
        A = rng.normal(size=(m, m))
        shift = float(np.max(np.real(np.linalg.eigvals(A)))) + 0.5
        a_cl = A - shift * np.eye(m)
        system = design.LinearSystem(A, np.eye(m), a_cl - A)
        cert = design.make_certificate(system)
        result = design.min_inter_execution_time(system, cert)
        if result.root_found:
            return system, cert, result.tau
    raise SetupError(f"no m={m} plant with a dwell-time root in "
                     f"{_PLANT_DRAWS} draws")


def _decay_test_top(design, system, cert, tau):
    """Largest eigenvalue of the decay-test form; above 0, the test fails."""
    form = design.trigger_form(system, cert, tau)
    return float(np.linalg.eigvalsh(form).max())


def _system_json(system):
    return {"A": system.A.tolist(), "B": system.B.tolist(),
            "K": system.K.tolist()}


# -- design_fine ------------------------------------------------------------

# The m=6 plant is one base plant, the first that the spectrum-shift
# generator draws from this seed, put in seeded orthonormal coordinates:
# x' = Q x turns (A, I, K) into (Q A Q^T, I, Q K Q^T). Its spectrum, its
# tau* and every norm the design takes are those of the base plant, so the
# design does the same work for every benchmark seed and every op while its
# inputs differ. Ops rotate through this many coordinate changes.
_M6_BASE_SEED = 0
_DESIGN_ROTATIONS = 8


def _check_design_report(modules, path, tau_ref, delta, tau_max):
    problems = []
    report = _read_json(path)
    dwell, trig = report["dwell_time"], report["trigger"]
    tau = dwell["tau_star"]
    if dwell["root_found"] is not True:
        problems.append(f"{path}: root_found is {dwell['root_found']}")
    if abs(tau - tau_ref) > 1e-6:
        problems.append(f"{path}: tau_star {tau!r} differs from the "
                        f"reference {tau_ref!r}")
    if not 0.0 < trig["tau_min"] <= tau:
        problems.append(f"{path}: tau_min {trig['tau_min']!r} outside "
                        f"(0, tau_star={tau!r}]")
    # The program snaps with the same 1e-9 slack against a quotient that
    # lands an ulp under an integer.
    if trig["n_max"] != math.floor(tau_max / delta + 1e-9):
        problems.append(f"{path}: n_max {trig['n_max']} is not "
                        f"floor(tau_max/delta)")
    design = modules["design"]
    s, c = report["system"], report["certificate"]
    system = design.LinearSystem(s["A"], s["B"], s["K"])
    P = np.asarray(c["P"], dtype=float)
    Q = -(system.a_cl.T @ P + P @ system.a_cl)
    cert = design.LyapunovCertificate(P, c["lambda_o"], c["lambda"],
                                      0.5 * (Q + Q.T))
    top = _decay_test_top(design, system, cert, 0.999 * tau)
    if top > 0.0:
        problems.append(f"{path}: decay test fails below tau_star "
                        f"(largest eigenvalue {top!r} at 0.999 tau_star)")
    return problems


def _orthonormal(rng, m):
    Q, R = np.linalg.qr(rng.normal(size=(m, m)))
    return Q * np.sign(np.diag(R))


def design_fine(seed, work, smoke=False):
    """``selftrig design`` on the double integrator and on an m=6 plant.

    Op ``i`` designs the double integrator and the m=6 plant in the
    ``i mod 8``-th seeded coordinates.
    """
    modules = import_package()
    di_delta = 0.05 if smoke else 0.005
    divisor = 4 if smoke else 20
    di = {"system": DOUBLE_INTEGRATOR, "lyapunov": {"lambda_ratio": 0.8},
          "trigger": {"delta": di_delta, "tau_max": 1.5}}
    base, _cert, tau = seeded_plant(
        modules, np.random.default_rng(_M6_BASE_SEED), 6)
    trigger = {"delta": tau / divisor, "tau_max": 3.0 * tau}
    rng = np.random.default_rng(seed)
    m6 = []
    for k in range(1 if smoke else _DESIGN_ROTATIONS):
        Q = _orthonormal(rng, 6)
        cfg = {"system": {"A": (Q @ base.A @ Q.T).tolist(),
                          "B": np.eye(6).tolist(),
                          "K": (Q @ base.K @ Q.T).tolist()},
               "trigger": trigger}
        m6.append((_write_json(work / f"m6_{k}.json", cfg),
                   str(work / f"m6_{k}"), REFERENCE["m6_tau_star"], trigger))
    di_plan = (_write_json(work / "di.json", di), str(work / "di"),
               REFERENCE["double_integrator_tau_star"], di["trigger"])

    def op_plans(i):
        return [di_plan, m6[i % len(m6)]]

    def run_op(i):
        return [run_cli(modules, ["design", "--config", conf, "--out", out])[0]
                for conf, out, _ref, _trig in op_plans(i)]

    def check(i, codes):
        problems = []
        for code, (_conf, out, tau_ref, trig) in zip(codes, op_plans(i)):
            if code != 0:
                problems.append(f"design into {out} exited {code}")
                continue
            problems += _check_design_report(
                modules, Path(out) / "design.json", tau_ref,
                trig["delta"], trig["tau_max"])
        return problems

    return Workload("design_fine", modules, run_op, check)


# -- simulate_verify --------------------------------------------------------

_SIM_CYCLES = 8
_DISTURBANCES = ("sinusoid", "bounded_noise", "zero")


def simulate_verify(seed, work, smoke=False):
    """``selftrig simulate`` against a design built once in set-up.

    Op ``i`` runs three simulations, one per disturbance, from the
    ``i mod 8``-th seeded initial states, so every op does the same work.
    """
    modules = import_package()
    rng = np.random.default_rng(seed)
    base = {"system": DOUBLE_INTEGRATOR, "lyapunov": {"lambda_ratio": 0.8},
            "trigger": {"delta": 0.05, "tau_max": 1.5},
            "simulation": {"x0": [1.0, -0.5],
                           "t_end": 10.0 if smoke else 100.0,
                           "disturbance": SINUSOID},
            "outputs": {"emit_plots": True}}
    design_dir = work / "design"
    code, _ = run_cli(modules, ["design", "--config",
                                _write_json(work / "base.json", base),
                                "--out", str(design_dir)])
    if code != 0:
        raise SetupError(f"design for simulate_verify exited {code}")
    design_json = str(design_dir / "design.json")
    configs = []
    for _ in range(_SIM_CYCLES):
        for kind in _DISTURBANCES:
            dist = {"sinusoid": SINUSOID,
                    "bounded_noise": {"kind": "bounded_noise",
                                      "amplitude": 0.1,
                                      "seed": int(rng.integers(2**31))},
                    "zero": {"kind": "zero"}}[kind]
            cfg = {**base, "simulation": {**base["simulation"],
                                          "x0": _x0(rng, 2).tolist(),
                                          "disturbance": dist}}
            configs.append(_write_json(work / f"sim_{len(configs)}.json", cfg))
    size = "smoke" if smoke else "full"
    expected = (REFERENCE["simulate_verify_executions"][size]
                if seed == DEFAULT_SEED else None)

    def op_jobs(i):
        first = len(_DISTURBANCES) * (i % _SIM_CYCLES)
        return [(first + k, kind, work / f"out_{kind}")
                for k, kind in enumerate(_DISTURBANCES)]

    def run_op(i):
        return [run_cli(modules, ["simulate", "--config", configs[j],
                                  "--design", design_json,
                                  "--out", str(out)])[0]
                for j, _kind, out in op_jobs(i)]

    def check(i, codes):
        problems = []
        for code, (j, kind, out) in zip(codes, op_jobs(i)):
            if code != 0:
                problems.append(f"simulate {configs[j]} exited {code}")
                continue
            verdict = _read_json(out / "verify.json")
            problems += [f"simulate {configs[j]}: {name} violations "
                         f"{verdict[name]['violations']}"
                         for name in ("eiss", "disturbed_decay")
                         + (("decay",) if kind == "zero" else ())
                         if verdict[name]["violations"] != 0]
            # Noise ops are held to the verdicts only: their draws may
            # change scheme while the guarantees must not.
            if expected is not None and kind != "bounded_noise" \
                    and verdict["executions"] != expected[j]:
                problems.append(f"simulate {configs[j]}: "
                                f"{verdict['executions']} executions, "
                                f"reference {expected[j]}")
        return problems

    return Workload("simulate_verify", modules, run_op, check)


# -- sweep_batch ------------------------------------------------------------

_WORKERS = re.compile(r"swept (\d+) cells with (\d+) worker")


def sweep_batch(seed, work, smoke=False):
    """``selftrig sweep`` on the README config: 6 cells, default workers."""
    modules = import_package()
    rng = np.random.default_rng(seed)
    cfg = {"system": DOUBLE_INTEGRATOR, "lyapunov": {"lambda_ratio": 0.8},
           "trigger": {"delta": 0.05, "tau_max": 1.5},
           "simulation": {"x0": _x0(rng, 2).tolist(),
                          "t_end": 2.0 if smoke else 20.0,
                          "disturbance": SINUSOID},
           "sweep": {"delta_list": [0.05, 0.025],
                     "tau_max_list": [1.0, 1.5, 2.0]}}
    conf = _write_json(work / "sweep.json", cfg)
    out = work / "sweep_out"
    n_cells = 6
    record = {}

    def run_op(_i):
        code, text = run_cli(modules, ["sweep", "--config", conf,
                                       "--out", str(out)])
        match = _WORKERS.search(text)
        if match:
            record["sweep_workers"] = int(match.group(2))
        return code, match

    def check(_i, result):
        code, match = result
        if code != 0:
            return [f"sweep exited {code}"]
        if match is None or int(match.group(1)) != n_cells:
            return ["sweep did not report its cells and workers"]
        with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = [f"sweep cell delta={r['delta']} tau_max={r['tau_max']}: "
                    f"status {r['status']}" for r in rows if r["status"] != "ok"]
        if len(rows) != n_cells:
            problems.append(f"sweep.csv has {len(rows)} rows, expected {n_cells}")
        return problems

    return Workload("sweep_batch", modules, run_op, check, record=record)


# -- decide_replay ----------------------------------------------------------

# Seeded plants per random dimension; ops rotate through them, so one
# plant's dwell-time profile does not set the cost of a whole run.
_REPLAY_PLANTS = 16
_REPLAY_STATES = 1024


def _checked_dwell_time(design, system, cert, tau):
    """The default-grid tau*, or the CLI-grid one where the default missed.

    The default scan steps tau_cap/2000. When two eigenvalues of the decay
    form cross zero within one step, the determinant keeps its sign and the
    scan returns a later root, so the decay test already fails just below
    the tau* it reports. Such a plant is rescanned on the grid ``selftrig
    design`` uses for delta = tau*/20, and the miss is recorded so that
    every run on the seed reports it. Returns ``(tau, miss)``, where
    ``miss`` is None or describes the miss.
    """
    top = _decay_test_top(design, system, cert, 0.999 * tau)
    if top <= 0.0:
        return tau, None
    fine = design.min_inter_execution_time(system, cert,
                                           grid_step=tau / 2000.0,
                                           tau_cap=10.0 / cert.lam)
    return fine.tau, {"default_tau": tau, "top_eigenvalue_at_0.999": top,
                      "cli_grid_tau": fine.tau}


def decide_replay(seed, work, smoke=False):
    """One op: one seeded state decided on three tables, direct and packed."""
    modules = import_package()
    design, scheduler = modules["design"], modules["scheduler"]
    rng = np.random.default_rng(seed)

    def tables_for(system, cert, tau, delta):
        trig = design.choose_trigger(tau, delta, 3.0 * tau)
        return trig, scheduler.build_tables(system, cert, trig)

    di = design.LinearSystem(DOUBLE_INTEGRATOR["A"], DOUBLE_INTEGRATOR["B"],
                             DOUBLE_INTEGRATOR["K"])
    di_cert = design.make_certificate(di)
    di_tau = design.min_inter_execution_time(di, di_cert).tau
    groups = [[tables_for(di, di_cert, di_tau, 0.01)]]
    n_plants = 1 if smoke else _REPLAY_PLANTS
    misses = []
    for m in (3, 6):
        group = []
        for k in range(n_plants):
            system, cert, tau = seeded_plant(modules, rng, m)
            tau, miss = _checked_dwell_time(design, system, cert, tau)
            if miss:
                misses.append({"m": m, "plant": k, **miss})
            group.append(tables_for(system, cert, tau, tau / 20.0))
        groups.append(group)
    states = [rng.normal(size=(_REPLAY_STATES, g[0][1].m)) for g in groups]

    def run_op(i):
        out = []
        for group, xs in zip(groups, states):
            trig, tables = group[i % len(group)]
            x = xs[i % _REPLAY_STATES]
            out.append((trig, tables, scheduler.next_update(x, tables),
                        scheduler.next_update_packed(x, tables)))
        return out

    def check(i, decisions):
        problems = []
        for trig, tables, direct, packed in decisions:
            where = f"op {i}, m={tables.m}"
            if direct.n != packed.n:
                problems.append(f"{where}: direct n={direct.n}, "
                                f"packed n={packed.n}")
            for d in (direct, packed):
                if not trig.tau_min <= d.tau <= trig.tau_max + 1e-9 * trig.delta:
                    problems.append(f"{where}: tau {d.tau!r} outside "
                                    f"[{trig.tau_min!r}, {trig.tau_max!r}]")
            q = trig.n_max - trig.n_min
            worst = q + (2 * q + 1) * tables.m * (tables.m + 1) // 2
            if packed.op_count > worst:
                problems.append(f"{where}: packed op_count {packed.op_count} "
                                f"above the full-scan cost {worst}")
        return problems

    return Workload("decide_replay", modules, run_op, check,
                    record={"dwell_time_misses": misses})


WORKLOADS = {
    "design_fine": design_fine,
    "simulate_verify": simulate_verify,
    "decide_replay": decide_replay,
    "sweep_batch": sweep_batch,
}
# The workloads BENCHMARK.json lists. sweep_batch is left out: its wall
# time is set by how the host schedules the pool's threads, and its runs
# spread past any useful bound (README.md).
LISTED = ("design_fine", "simulate_verify", "decide_replay")
