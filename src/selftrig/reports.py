"""Configuration handling and report serialization.

Configs are JSON with five sections: ``system`` (plant and gain matrices),
``lyapunov`` (certificate options), ``trigger`` (grid and dwell window),
``simulation`` (run options), ``outputs`` (artifact placement), plus an
optional ``sweep`` grid. Validation is strict: unknown keys anywhere are
rejected by name, so typos fail loudly instead of silently falling back to
defaults, and every number, scalar or matrix entry, must be a finite JSON
number, not a string or boolean (:func:`finite_numbers`, which also checks
design files).

All artifacts are byte-deterministic: JSON is written with sorted keys,
floats serialize through ``repr`` (shortest exact round-trip), and nothing
embeds a timestamp. ``dump_json`` writes the standard library's indented
text, but formats each numeric array with one call into the C encoder,
once per distinct float, and writes the indentation itself. Every artifact
goes through :func:`overwrite`, which rewrites an existing file in place
and cuts it to the written length. Truncating to zero first, as
``open(path, "w")`` does, makes each rewrite wait for the filesystem: on
ext4, for one, closing a file that was truncated to zero and rewritten
starts its write-back, and the next truncate waits for it.
``config_hash`` fingerprints the parsed config content, not the file
bytes, so reformatting a config does not change its identity.
"""

import contextlib
import hashlib
import json
import math
import os

import numpy as np

from .errors import ConfigError
from .sim import DISTURBANCE_KINDS

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
# Rows of the trajectory CSV formatted per chunk.
_CSV_CHUNK = 256
# Size of every SVG plot, in pixels.
_SVG_WIDTH, _SVG_HEIGHT = 720, 440


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


def _number(value, path, positive=False):
    v = finite_numbers(value, path, ()).item()
    if positive and v <= 0.0:
        raise ConfigError(f"{path} must be positive")
    return v


def _integer(value, path, minimum=None):
    v = finite_numbers(value, path, (), integer=True).item()
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path} must be at least {minimum}")
    return v


def finite_numbers(value, path, shape=None, integer=False):
    """Finite real numbers of a JSON entry as an array.

    The one rule for numbers read from a config or a design file: the entry
    must parse to a numpy array of integers or floats (integers only with
    ``integer``) with finite entries, and of shape ``shape`` when one is
    given. Anything else, including strings, booleans (also next to
    numbers), null and ragged lists, is a ``ConfigError``. Integers come
    back as an integer array with ``integer``, as floats otherwise.
    """
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = None
    if (arr is None or arr.dtype.kind not in ("iu" if integer else "iuf")
            or (shape is not None and arr.shape != shape)
            or not np.all(np.isfinite(arr))
            # numpy reads a boolean among numbers as 0 or 1.
            or any(isinstance(v, bool)
                   for v in np.asarray(value, dtype=object).flat)):
        expected = ("an integer" if integer else "a finite number"
                    if shape == () else "finite numbers"
                    + ("" if shape is None else f" of shape {shape}"))
        raise ConfigError(f"{path} must be {expected}")
    return arr if integer else arr.astype(float)


def _matrix(value, path):
    arr = finite_numbers(value, path)
    if arr.ndim > 2:
        raise ConfigError(f"{path} has more than two dimensions")
    return arr.tolist() if arr.ndim else float(arr)


def _vector(value, path):
    arr = np.reshape(_matrix(value, path), -1)
    if arr.size == 0:
        raise ConfigError(f"{path} must not be empty")
    return arr.tolist()


def _number_list(value, path):
    values = finite_numbers(value, path)
    if values.ndim != 1 or not values.size:
        raise ConfigError(f"{path} must be a nonempty list of numbers")
    if np.any(values <= 0.0):
        raise ConfigError(f"{path} must hold positive numbers")
    return values.tolist()


def _validate_disturbance(section):
    path = "simulation.disturbance"
    _check_keys(section, path, required=("kind",),
                optional=("amplitude", "frequency", "seed"))
    kind = section["kind"]
    if kind not in DISTURBANCE_KINDS:
        raise ConfigError(f"{path}.kind must be one of "
                          f"{', '.join(DISTURBANCE_KINDS)}, got {kind!r}")
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
        dist = simulation["disturbance"]
        # The sinusoid's phase, formed as the simulation forms it, at the
        # run's last time.
        if (dist["kind"] == "sinusoid" and not math.isfinite(
                2.0 * math.pi * dist["frequency"] * simulation["t_end"])):
            raise ConfigError(
                "simulation.disturbance.frequency is too large: the phase "
                "2 pi frequency t of the sinusoid leaves the float range "
                "before simulation.t_end")
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


def _numpy_to_json(obj):
    # np.float64 is a float and serializes as one; arrays and numpy
    # integers are not JSON types.
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# One C-encoder call per leaf or numeric array; ``dump_json`` writes the
# indentation itself, since ``json`` falls back to its pure-Python encoder
# whenever ``indent`` is given.
_encode = json.JSONEncoder(default=_numpy_to_json).encode


def _json_text(obj, depth):
    """``json.dumps(obj, sort_keys=True, indent=2, default=_numpy_to_json)``
    for a value nested ``depth`` levels deep, the same text."""
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        inner = "\n" + "  " * (depth + 1)
        return ("{" + inner + ("," + inner).join(
            _encode(k) + ": " + _json_text(v, depth + 1)
            for k, v in sorted(obj.items()))
                + "\n" + "  " * depth + "}")
    if isinstance(obj, (list, tuple)) and obj:
        inner = "\n" + "  " * (depth + 1)
        return ("[" + inner + ("," + inner).join(
            _json_text(v, depth + 1) for v in obj) + "\n" + "  " * depth + "]")
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf" and obj.ndim and obj.size:
            return _array_text(obj, depth)
        return _json_text(obj.tolist(), depth)
    if isinstance(obj, (dict, list, tuple)):
        # Empty containers, and dicts with keys the stdlib must convert.
        return json.dumps(obj, sort_keys=True, indent=2,
                          default=_numpy_to_json).replace(
                              "\n", "\n" + "  " * depth)
    return _encode(obj)


def _array_text(arr, depth):
    """Indented JSON text of a nonempty numeric array: one C-encoder call
    formats every element, and the nesting is joined level by level.

    A float array is formatted once per distinct bit pattern and the texts
    are spread back by index: the symmetric forms of a design repeat every
    off-diagonal entry, and a zero form is one value. Equal bits have equal
    texts, and values that compare equal but differ in their bits, such as
    ``0.0`` and ``-0.0``, keep their own.
    """
    flat = arr.ravel()
    # Widths up to 64 bits have an unsigned integer view.
    if flat.dtype.kind == "f" and flat.itemsize <= 8:
        bits, index = np.unique(flat.view(f"u{flat.itemsize}"),
                                return_inverse=True)
        distinct = _encode(bits.view(flat.dtype).tolist())[1:-1].split(", ")
        texts = list(map(distinct.__getitem__, index.tolist()))
    else:
        texts = _encode(flat.tolist())[1:-1].split(", ")
    for level in range(arr.ndim - 1, -1, -1):
        inner = "\n" + "  " * (depth + level + 1)
        wrap = "[" + inner + "{}\n" + "  " * (depth + level) + "]"
        rows = zip(*[iter(texts)] * arr.shape[level])
        texts = list(map(wrap.format, map(("," + inner).join, rows)))
    return texts[0]


@contextlib.contextmanager
def overwrite(path, newline=None):
    """Text file opened for writing over ``path`` in place, UTF-8.

    Works as ``open(path, "w", encoding="utf-8", newline=newline)``, but an
    existing file is not truncated to zero when it is opened; it is cut to
    the written length when the block ends, also when the block raises.
    The bytes written are the same. ``open`` passes its own flags to the
    opener, ``O_BINARY`` among them where the platform has one, so newlines
    are translated once, by the text layer.
    """
    with open(path, "w", encoding="utf-8", newline=newline,
              opener=_open_untruncated) as fh:
        try:
            yield fh
        finally:
            fh.truncate()


def _open_untruncated(path, flags):
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def dump_json(data, path):
    """Deterministic JSON artifact: sorted keys, repr floats, no timestamps.

    The text is the standard library's ``json.dumps(data, sort_keys=True,
    indent=2)``, with numpy arrays as nested lists and numpy integers as
    ints, but every numeric array goes through the C encoder in one call
    (:func:`_array_text`, once per distinct float). The whole text is built
    before the file is opened, so a value that cannot be encoded writes
    nothing, and :func:`overwrite` writes it over any earlier file.
    """
    text = _json_text(data, 0)
    with overwrite(path) as fh:
        fh.write(text + "\n")


def write_trajectory_csv(path, traj, bound_curve):
    """Dense run log: time, state, held input, Lyapunov value, ISS bound.

    Every value is its ``repr``. Each chunk of ``_CSV_CHUNK`` rows is
    formatted column by column, so the Python strings exist for one chunk
    at a time. Each hold's input is formatted once and its texts repeated
    over the hold's rows.
    """
    (n, m), l = traj.states.shape, traj.inputs.shape[1]
    header = (["t"] + [f"x_{i + 1}" for i in range(m)]
              + [f"u_{j + 1}" for j in range(l)] + ["V", "eiss_bound"])
    leading = [traj.times, *traj.states.T]
    trailing = [traj.v_values, np.asarray(bound_curve, dtype=float)]
    texts = np.array(list(map(repr, traj.inputs.ravel().tolist())),
                     dtype=object).reshape(traj.inputs.shape)
    held = np.repeat(texts, np.diff(traj.holds, append=n), axis=0)
    with overwrite(path, newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _CSV_CHUNK):
            stop = min(start + _CSV_CHUNK, n)
            cols = ([list(map(repr, c[start:stop].tolist())) for c in leading]
                    + held[start:stop].T.tolist()
                    + [list(map(repr, c[start:stop].tolist())) for c in trailing])
            fh.write("\n".join(map(",".join, zip(*cols))) + "\n")


def write_events_csv(path, traj):
    """Execution log, one row per execution, formatted column by column;
    successive times satisfy t_{k+1} = t_k + tau_k exactly as printed,
    because each t is the accumulated float sum of the taus."""
    count, m = traj.holds.size, traj.states.shape[1]
    header = ["k", "t_k"] + [f"x_{i + 1}" for i in range(m)] + ["n_k", "tau_k"]
    *cols, taus = [map(repr, c.tolist()) for c in
                   (traj.t_k, *traj.states[traj.holds].T, traj.tau_k)]
    n_k = [""] * count if traj.n_k is None else traj.n_k.tolist()
    rows = zip(map(str, range(count)), *cols, map(str, n_k), taus)
    with overwrite(path, newline="\n") as fh:
        fh.write("\n".join(map(",".join, [header, *rows])) + "\n")


def _ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def svg_plot(path, title, xlabel, ylabel, series):
    """Line plot as a standalone SVG.

    ``series`` is a list of ``(label, xs, ys)``; no plotting dependency is
    involved so headless runs produce artifacts anywhere. Output is
    deterministic for identical inputs.
    """
    width, height = _SVG_WIDTH, _SVG_HEIGHT
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
        # px and py on arrays do Python's float operations in its order.
        pts = " ".join(map("{:.2f},{:.2f}".format,
                           px(np.asarray(xs, dtype=float)).tolist(),
                           py(np.asarray(ys, dtype=float)).tolist()))
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
    with overwrite(path, newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
