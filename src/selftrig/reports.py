"""Configuration handling and report serialization.

Configs are JSON with five sections: ``system`` (plant and gain matrices),
``lyapunov`` (certificate options), ``trigger`` (grid and dwell window),
``simulation`` (run options), ``outputs`` (artifact placement), plus an
optional ``sweep`` grid. Validation is strict: unknown keys anywhere are
rejected by name, so typos fail loudly instead of silently falling back to
defaults.

All artifacts are byte-deterministic: JSON is written with sorted keys,
floats serialize through ``repr`` (shortest exact round-trip), and nothing
embeds a timestamp. ``config_hash`` fingerprints the parsed config content,
not the file bytes, so reformatting a config does not change its identity.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np

from .errors import ConfigError

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def load_config(path):
    """Parse and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return validate_config(raw), raw


def config_hash(raw):
    """Content fingerprint of a parsed config."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _check_keys(section, path, required, optional=()):
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be an object")
    for key in section:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {path}.{key}")
    for key in required:
        if key not in section:
            raise ConfigError(f"missing required key {path}.{key}")


def _number(value, path, positive=False, nonnegative=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{path} must be finite")
    if positive and v <= 0.0:
        raise ConfigError(f"{path} must be positive")
    if nonnegative and v < 0.0:
        raise ConfigError(f"{path} must be nonnegative")
    return v


def _integer(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be at least {minimum}")
    return value


def _matrix(value, path):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{path} must be a number or a nested list of numbers") from None
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path} has non-finite entries")
    if arr.ndim > 2:
        raise ConfigError(f"{path} has more than two dimensions")
    return arr.tolist() if arr.ndim else float(arr)


def _vector(value, path):
    arr = np.asarray(_matrix(value, path), dtype=float).reshape(-1)
    if arr.size == 0:
        raise ConfigError(f"{path} must not be empty")
    return arr.tolist()


def _number_list(value, path):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a nonempty list of numbers")
    return [_number(v, f"{path}[{i}]", positive=True) for i, v in enumerate(value)]


def _validate_disturbance(section):
    path = "simulation.disturbance"
    _check_keys(section, path, required=("kind",),
                optional=("amplitude", "frequency", "seed"))
    kind = section["kind"]
    if kind not in ("zero", "constant", "sinusoid", "bounded_noise"):
        raise ConfigError(
            f"{path}.kind must be one of zero, constant, sinusoid, "
            f"bounded_noise, got {kind!r}")
    return {
        "kind": kind,
        "amplitude": _number(section.get("amplitude", 0.0), f"{path}.amplitude"),
        "frequency": _number(section.get("frequency", 0.0), f"{path}.frequency"),
        "seed": _integer(section.get("seed", 0), f"{path}.seed", minimum=0),
    }


def validate_config(raw):
    """Normalize a parsed config: defaults resolved, unknown keys rejected."""
    _check_keys(raw, "config", required=("system", "trigger"),
                optional=("lyapunov", "simulation", "outputs", "sweep"))

    system = raw["system"]
    _check_keys(system, "system", required=("A", "B", "K"))
    norm = {"system": {k: _matrix(system[k], f"system.{k}") for k in ("A", "B", "K")}}

    lyap = raw.get("lyapunov", {})
    _check_keys(lyap, "lyapunov", required=(), optional=("Q", "lambda_ratio"))
    q = lyap.get("Q", "identity")
    if q != "identity":
        q = _matrix(q, "lyapunov.Q")
        if isinstance(q, float):
            raise ConfigError("lyapunov.Q must be a matrix or \"identity\"")
    ratio = _number(lyap.get("lambda_ratio", 0.8), "lyapunov.lambda_ratio")
    if not 0.0 < ratio < 1.0:
        raise ConfigError("lyapunov.lambda_ratio must lie in (0, 1)")
    norm["lyapunov"] = {"Q": None if q == "identity" else q, "lambda_ratio": ratio}

    trigger = raw["trigger"]
    _check_keys(trigger, "trigger", required=("delta", "tau_max"),
                optional=("tau_min",))
    tau_min = trigger.get("tau_min", "auto")
    if tau_min != "auto":
        tau_min = _number(tau_min, "trigger.tau_min", positive=True)
    norm["trigger"] = {
        "delta": _number(trigger["delta"], "trigger.delta", positive=True),
        "tau_max": _number(trigger["tau_max"], "trigger.tau_max", positive=True),
        "tau_min": None if tau_min == "auto" else tau_min,
    }

    simulation = None
    if "simulation" in raw:
        sec = raw["simulation"]
        _check_keys(sec, "simulation", required=("x0", "t_end"),
                    optional=("integrator_divisor", "disturbance"))
        simulation = {
            "x0": _vector(sec["x0"], "simulation.x0"),
            "t_end": _number(sec["t_end"], "simulation.t_end", positive=True),
            "integrator_divisor": _integer(sec.get("integrator_divisor", 20),
                                           "simulation.integrator_divisor", minimum=1),
            "disturbance": (_validate_disturbance(sec["disturbance"])
                            if "disturbance" in sec else
                            {"kind": "zero", "amplitude": 0.0,
                             "frequency": 0.0, "seed": 0}),
        }
    norm["simulation"] = simulation

    outputs = raw.get("outputs", {})
    _check_keys(outputs, "outputs", required=(), optional=("directory", "emit_plots"))
    directory = outputs.get("directory", "out")
    if not isinstance(directory, str) or not directory:
        raise ConfigError("outputs.directory must be a nonempty string")
    emit = outputs.get("emit_plots", False)
    if not isinstance(emit, bool):
        raise ConfigError("outputs.emit_plots must be a boolean")
    norm["outputs"] = {"directory": directory, "emit_plots": emit}

    sweep = None
    if "sweep" in raw:
        sec = raw["sweep"]
        _check_keys(sec, "sweep", required=("delta_list", "tau_max_list"))
        sweep = {
            "delta_list": _number_list(sec["delta_list"], "sweep.delta_list"),
            "tau_max_list": _number_list(sec["tau_max_list"], "sweep.tau_max_list"),
        }
    norm["sweep"] = sweep
    return norm


def to_jsonable(obj):
    """Recursive conversion to plain JSON data; floats stay floats."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return to_jsonable(dataclasses.asdict(obj))
    return obj


def dump_json(data, path):
    """Deterministic JSON artifact: sorted keys, repr floats, no timestamps."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_jsonable(data), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _fmt(v):
    return repr(float(v))


def write_trajectory_csv(path, traj, bound_curve):
    """Dense run log: time, state, held input, Lyapunov value, ISS bound."""
    m = traj.states.shape[1]
    l = traj.inputs.shape[1]
    header = (["t"] + [f"x_{i + 1}" for i in range(m)]
              + [f"u_{j + 1}" for j in range(l)] + ["V", "eiss_bound"])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(traj.times.size):
            row = ([_fmt(traj.times[i])]
                   + [_fmt(v) for v in traj.states[i]]
                   + [_fmt(v) for v in traj.inputs[i]]
                   + [_fmt(traj.v_values[i]), _fmt(bound_curve[i])])
            fh.write(",".join(row) + "\n")


def write_events_csv(path, log, m):
    """Execution log; successive times satisfy t_{k+1} = t_k + tau_k exactly
    as printed, because each t is the accumulated float sum of the taus."""
    header = ["k", "t_k"] + [f"x_{i + 1}" for i in range(m)] + ["n_k", "tau_k"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for e in log.events:
            row = ([str(e.k), _fmt(e.t)]
                   + [_fmt(v) for v in e.x]
                   + ["" if e.n is None else str(e.n), _fmt(e.tau)])
            fh.write(",".join(row) + "\n")


def _ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def svg_plot(path, title, xlabel, ylabel, series, width=720, height=440):
    """Line plot as a standalone SVG.

    ``series`` is a list of ``(label, xs, ys)``; no plotting dependency is
    involved so headless runs produce artifacts anywhere. Output is
    deterministic for identical inputs.
    """
    ml, mr, mt, mb = 64, 16, 36, 48
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        parts.append(f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" '
                     f'y2="{mt + ph}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{mt + ph + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tx:.4g}</text>')
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + pw}" '
                     f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{ml - 6}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{ty:.4g}</text>')
    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#333333"/>')
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}"
                       for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = mt + 16 + 16 * idx
        parts.append(f'<line x1="{ml + pw - 130}" y1="{ly - 4}" '
                     f'x2="{ml + pw - 106}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw - 100}" y="{ly}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{ylabel}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
