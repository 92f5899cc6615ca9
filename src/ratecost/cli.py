"""Batch front end: JSON experiment configs in, tables on stdout, CSV/JSON
files and an SVG tradeoff plot out.

Subcommands: bound, simulate, sweep, decompose, validate.  Exit status is 1
when a hard assert fails (curve dominance, distortion guarantee, failed
validation, a linear-algebra failure), 2 on config errors (any ValueError),
0 otherwise; either failure prints one line and no traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bounds as bnd
from .riccati import solve_plant
from .simloop import (SimConfig, TradeoffPoint, check_horizon, run, sweep,
                      tradeoff_point)
from .sysmodel import LinearPlant, NoiseModel, validate

CSV_COLUMNS = ("d", "b_hat", "h_hat_nats", "h_hat_bits", "lower_bound_nats",
               "upper_bound_nats", "c_hat", "e_hat", "d_hat", "residual",
               "diverged")
# A sweep, simulate or decompose row is TradeoffPoint's fields, in order,
# under the names in CSV_COLUMNS.
POINT_COLUMNS = tuple(zip(
    CSV_COLUMNS, [f.name for f in dataclasses.fields(TradeoffPoint)],
    strict=True))

DEFAULT_HORIZON = 100_000
MIN_DECOMPOSE_WINDOW = 10_000


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config ingestion

@dataclass(frozen=True)
class ExperimentConfig:
    plant: LinearPlant
    bounds: tuple[str, ...]
    b_grid: tuple[float, ...]
    d_grid: tuple[float, ...]
    distortion: float | None
    horizon: int
    burn_in: int
    seed: int


_KNOWN_KEYS = {"plant", "mode", "bounds", "b_grid", "d_grid", "distortion",
               "horizon", "burn_in", "seed"}
_PLANT_KEYS = {"a", "b", "q", "r", "c", "noise_v", "noise_w", "noise_x1"}


def _numbers(raw):
    """raw, refused where JSON gave true, false, a string or an object for a
    number or a nested array of numbers, which float() or int() might take."""
    if isinstance(raw, (bool, str, dict)):
        raise TypeError(f"{raw!r} is not a number")
    return [_numbers(x) for x in raw] if isinstance(raw, list) else raw


def _matrix(raw, key: str) -> list[list[float]]:
    try:
        arr = np.asarray(_numbers(raw), dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{key} has the wrong type: {err}") from err
    if arr.ndim != 2:
        raise ConfigError(f"{key} must be a nested (row-major) array")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{key} must be finite")
    return arr.tolist()


def _noise(raw, key: str) -> NoiseModel:
    if not isinstance(raw, dict):
        raise ConfigError(f"{key} must be an object with family and covariance")
    if "covariance" not in raw:
        raise ConfigError(f"{key}.covariance is required")
    cov = _matrix(raw["covariance"], f"{key}.covariance")
    try:
        return NoiseModel(raw.get("family"), cov)
    except ValueError as err:
        raise ConfigError(f"{key}: {err}") from err


def _read(raw: dict, key: str, convert, default=None):
    """raw[key] (or default), a number or an array of them, passed through
    convert; a value of the wrong type is a ConfigError that names the key."""
    value = raw.get(key, default)
    try:
        return convert(_numbers(value))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{key} has the wrong type: {err}") from err


def _integer(raw: dict, key: str, default: int) -> int:
    """raw[key] (or default) as an int; a float must be finite and
    integral, so 1e5 reads as 100000."""
    value = raw.get(key, default)
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value}")
    return _read(raw, key, int, default)


def _grid(raw: dict, name: str) -> tuple[float, ...]:
    vals = _read(raw, name, lambda v: () if v is None else tuple(float(x) for x in v))
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"{name} must be finite")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError(f"{name} must be strictly increasing")
    return vals


def plant_from_dict(raw: dict) -> LinearPlant:
    if not isinstance(raw, dict):
        raise ConfigError("plant must be an object")
    unknown = set(raw) - _PLANT_KEYS
    if unknown:
        raise ConfigError(f"unknown plant keys: {sorted(unknown)}")
    for key in ("a", "b", "q", "r", "noise_v"):
        if key not in raw:
            raise ConfigError(f"plant.{key} is required")
    a, b, q, r = (_matrix(raw[key], f"plant.{key}") for key in "abqr")
    noise_v = _noise(raw["noise_v"], "plant.noise_v")
    c = None if raw.get("c") is None else _matrix(raw["c"], "plant.c")
    noise_w, noise_x1 = (None if raw.get(key) is None
                         else _noise(raw[key], f"plant.{key}")
                         for key in ("noise_w", "noise_x1"))
    try:
        return LinearPlant(a, b, q, r, noise_v, c=c, noise_w=noise_w,
                           noise_x1=noise_x1)
    except ValueError as err:
        raise ConfigError(f"plant: {err}") from err


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "plant" not in raw:
        raise ConfigError("plant is required")
    plant = plant_from_dict(raw["plant"])

    # The plant decides the observation mode; "mode" may only restate it.
    observed = "fully_observed" if plant.fully_observed else "partially_observed"
    mode = raw.get("mode", observed)
    if mode != observed:
        raise ConfigError(f"mode {mode!r} does not match the plant, which is "
                          f"{observed} (C = I and no noise_w is fully observed)")

    default_kind = "full" if plant.fully_observed else "partial"
    kinds = raw.get("bounds", (default_kind, "upper"))
    if not isinstance(kinds, (list, tuple)):  # tuple() would split a string
        raise ConfigError(f"bounds has the wrong type: {kinds!r} is not an array")
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in bnd.KINDS:
            raise ConfigError(f"unknown bound kind {kind!r}; choose from {bnd.KINDS}")
        if kind.startswith("partial") and plant.fully_observed:
            raise ConfigError(f"bound kind {kind!r} needs a partially observed plant")

    b_grid = _grid(raw, "b_grid")
    d_grid = _grid(raw, "d_grid")
    distortion = _read(raw, "distortion", lambda v: None if v is None else float(v))
    if distortion is not None and not 0 < distortion < math.inf:
        raise ConfigError("distortion must be positive and finite")
    if not kinds and not b_grid and not d_grid and distortion is None:
        raise ConfigError("config requests neither bounds nor a simulation")

    horizon = _integer(raw, "horizon", DEFAULT_HORIZON)
    burn_in = _integer(raw, "burn_in", 1000)
    if burn_in < 0:
        raise ConfigError("burn_in must be nonnegative")
    if horizon <= burn_in:
        raise ConfigError("horizon must exceed burn_in")
    try:
        check_horizon(horizon, plant.n)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    seed = _integer(raw, "seed", 0)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")

    return ExperimentConfig(
        plant=plant, bounds=kinds, b_grid=b_grid, d_grid=d_grid,
        distortion=distortion, horizon=horizon, burn_in=burn_in, seed=seed)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# emission helpers

def _fmt(x: float) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x != x:
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".12g")


def _js(x):
    """JSON-safe scalar: NaN and infinities become null."""
    if isinstance(x, bool):
        return x
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def point_cells(p: TradeoffPoint) -> list[str]:
    return [_fmt(getattr(p, field)) for _, field in POINT_COLUMNS]


def points_payload(points: list[TradeoffPoint], meta: dict) -> dict:
    payload = dict(meta)
    payload["columns"] = list(CSV_COLUMNS)
    payload["points"] = [{col: _js(getattr(p, field))
                          for col, field in POINT_COLUMNS} for p in points]
    return payload


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def _emit_points(args, stem: str, header, cells: list[list[str]],
                 payload: dict) -> None:
    """The one writer of a command's rows under --out: the CSV is the
    header plus the cells the table printed, the JSON is the payload."""
    if args.out is None:
        return
    out = Path(args.out)
    if args.format == "json":
        _write(out / f"{stem}.json", json.dumps(payload, indent=2) + "\n")
    else:
        lines = [",".join(header)] + [",".join(row) for row in cells]
        _write(out / f"{stem}.csv", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# SVG rendering (hand-rolled; no plotting dependency)

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 24, 24, 118


def _ticks(lo: float, hi: float) -> list[float]:
    raw = np.linspace(lo, hi, 5)
    return [float(t) for t in raw]


def render_svg(points: list[TradeoffPoint], bmin: float,
               curve_b: np.ndarray, curve_lower: np.ndarray,
               curve_upper: np.ndarray) -> str:
    """Tradeoff plot: converse and coder-entropy curves, simulated points,
    b_min asymptote.  Diverged runs are listed hollow in the legend strip."""
    live = [p for p in points if not p.diverged and math.isfinite(p.h_nats)]
    dead = [p for p in points if p.diverged]

    xs = list(curve_b) + [p.b_hat for p in live]
    ys = ([v for v in curve_lower if math.isfinite(v)]
          + [v for v in curve_upper if math.isfinite(v)]
          + [p.h_nats for p in live])
    x_lo = min([bmin] + xs)
    x_hi = max(xs) if xs else bmin + 1.0
    x_pad = 0.04 * (x_hi - x_lo or 1.0)
    x_lo -= x_pad
    x_hi += x_pad
    y_lo = 0.0
    y_hi = (max(ys) if ys else 1.0) * 1.08

    def px(b: float) -> float:
        return _ML + (b - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(r: float) -> float:
        return _H - _MB - (r - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    def path_of(bs, vals) -> str:
        pts = [f"{px(b):.2f},{py(v):.2f}" for b, v in zip(bs, vals)
               if math.isfinite(v) and y_lo <= v <= y_hi]
        return " ".join(pts)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    ax = (f'M {_ML} {_MT} L {_ML} {_H - _MB} L {_W - _MR} {_H - _MB}')
    parts.append(f'<path d="{ax}" stroke="black" fill="none"/>')

    for t in _ticks(x_lo + x_pad, x_hi - x_pad):
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{_H - _MB + 18}" '
                     f'text-anchor="middle">{t:.3g}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" '
                     f'text-anchor="end">{t:.3g}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - _MB + 36}" '
                 f'text-anchor="middle">LQR cost b</text>')
    parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">'
                 f'rate (nats)</text>')

    if x_lo <= bmin <= x_hi:
        x = px(bmin)
        parts.append(f'<line x1="{x:.2f}" y1="{_MT}" x2="{x:.2f}" '
                     f'y2="{_H - _MB}" stroke="gray" stroke-dasharray="5,4"/>')
        parts.append(f'<text x="{x + 4:.2f}" y="{_MT + 14}" fill="gray">'
                     f'b_min = {bmin:.4f}</text>')

    parts.append(f'<polyline points="{path_of(curve_b, curve_lower)}" '
                 f'fill="none" stroke="#1f77b4" stroke-width="1.5"/>')
    upper_path = path_of(curve_b, curve_upper)
    if upper_path:
        parts.append(f'<polyline points="{upper_path}" fill="none" '
                     f'stroke="#ff7f0e" stroke-width="1.5"/>')
    for p in live:
        parts.append(f'<circle cx="{px(p.b_hat):.2f}" cy="{py(p.h_nats):.2f}" '
                     f'r="3.5" fill="#2ca02c"/>')

    ly = _H - _MB + 52
    legend = [("#1f77b4", "converse lower bound"),
              ("#ff7f0e", "coder entropy upper bound"),
              ("#2ca02c", "simulated (b_hat, h_hat)")]
    lx = _ML
    for color, label in legend:
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="3"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly}">{label}</text>')
        lx += 24 + 7 * len(label) + 18
    if dead:
        ly += 20
        parts.append(f'<circle cx="{_ML + 6}" cy="{ly - 4}" r="3.5" '
                     f'fill="none" stroke="#d62728"/>')
        listing = ", ".join(f"d={p.d:.4g}" for p in dead)
        parts.append(f'<text x="{_ML + 18}" y="{ly}" fill="#d62728">'
                     f'diverged: {listing}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _bound_curves(cfg: ExperimentConfig, ctrl, filt, bmin: float,
                  points: list[TradeoffPoint]):
    b_hi = max([p.b_hat for p in points if not p.diverged], default=bmin + 10.0)
    lo = bmin + 1e-3 * max(1.0, bmin)
    bs = np.linspace(lo, b_hi * 1.02, 200)
    lower = np.empty_like(bs)
    upper = np.empty_like(bs)
    sandwich = bnd.sandwich_curve(cfg.plant, ctrl, filt)
    for i, b in enumerate(bs):
        lower[i], upper[i] = sandwich(b)
    return bs, lower, upper


# ---------------------------------------------------------------------------
# subcommands

def _print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def cmd_bound(cfg: ExperimentConfig, args) -> int:
    if not cfg.b_grid:
        raise ConfigError("bound needs a nonempty b_grid")
    if not cfg.bounds:
        raise ConfigError("bound needs a nonempty bounds list")
    ctrl, filt, bmin = solve_plant(cfg.plant)
    # each kind's b-free part is computed at its first feasible row
    curves = {kind: bnd.bound_curve(kind, cfg.plant, ctrl, filt)
              for kind in cfg.bounds}
    rows = []
    for b in cfg.b_grid:
        for kind in cfg.bounds:
            if kind not in ("floor",) and b <= bmin:
                rows.append({"b": b, "kind": kind, "nats": math.nan,
                             "bits": math.nan, "converged": True,
                             "note": f"infeasible (b <= b_min={bmin:.7f})"})
                continue
            try:
                nats, converged = curves[kind](b)
            except ValueError as err:
                raise ConfigError(f"bound {kind!r} at b={b:g}: {err}") from err
            rows.append({"b": b, "kind": kind, "nats": nats,
                         "bits": bnd.nats_to_bits(nats), "converged": converged,
                         "note": ""})

    print(f"b_min = {bmin:.10g}")
    header = ["b", "bound", "nats", "bits", "converged", "note"]
    cells = [[_fmt(r["b"]), r["kind"], _fmt(r["nats"]), _fmt(r["bits"]),
              _fmt(r["converged"]), r["note"]] for r in rows]
    _print_table(header, cells)
    payload = {"b_min": bmin,
               "rows": [{k: _js(v) for k, v in r.items()} for r in rows]}
    _emit_points(args, "bound", header, cells, payload)
    return 0


def _single_run(cfg: ExperimentConfig, ctrl, filt, bmin: float):
    sim = SimConfig(plant=cfg.plant, horizon=cfg.horizon,
                    distortion=cfg.distortion, seed=cfg.seed,
                    burn_in=cfg.burn_in)
    res = run(sim, ctrl, filt)
    d = cfg.distortion if cfg.distortion is not None else math.nan
    return res, tradeoff_point(cfg.plant, ctrl, filt, bmin, d, res)


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
    ctrl, filt, bmin = solve_plant(cfg.plant)
    res, point = _single_run(cfg, ctrl, filt, bmin)
    cells = point_cells(point)
    _print_table(["field", "value"],
                 list(zip(CSV_COLUMNS, cells))
                 + [["se_b", _fmt(res.se_b)],
                    ["max_step_distortion", _fmt(res.max_step_distortion)],
                    ["window", str(res.window)],
                    ["digest", res.digest]])
    if res.diverged:
        print(f"diverged at step {res.steps}")
    meta = {"b_min": bmin, "seed": cfg.seed, "horizon": cfg.horizon,
            "digest": res.digest}
    _emit_points(args, "simulate", CSV_COLUMNS, [cells],
                 points_payload([point], meta))
    return 0


def cmd_sweep(cfg: ExperimentConfig, args) -> int:
    ctrl, filt, bmin = solve_plant(cfg.plant)
    points = sweep(cfg.plant, ctrl, filt, cfg.d_grid, horizon=cfg.horizon,
                   seed=cfg.seed, burn_in=cfg.burn_in)

    print(f"b_min = {bmin:.10g}")
    cells = [point_cells(p) for p in points]
    _print_table(CSV_COLUMNS, cells)
    meta = {"b_min": bmin, "seed": cfg.seed, "horizon": cfg.horizon}
    _emit_points(args, "sweep", CSV_COLUMNS, cells,
                 points_payload(points, meta))
    if args.svg and args.out is not None:
        bs, lower, upper = _bound_curves(cfg, ctrl, filt, bmin, points)
        _write(Path(args.out) / "sweep.svg",
               render_svg(points, bmin, bs, lower, upper))

    bad = [p for p in points
           if not p.diverged and math.isfinite(p.lower_nats)
           and p.h_nats < p.lower_nats]
    diverged = [p for p in points if p.diverged]
    for p in diverged:
        print(f"diverged: d={p.d:g}")
    if bad:
        for p in bad:
            print(f"DOMINANCE VIOLATION: d={p.d:g} h_hat={p.h_nats:.6f} "
                  f"< lower bound {p.lower_nats:.6f}", file=sys.stderr)
        return 1
    return 0


def cmd_decompose(cfg: ExperimentConfig, args) -> int:
    short = f"need a post-burn-in window of {MIN_DECOMPOSE_WINDOW} steps"
    ctrl, filt, bmin = solve_plant(cfg.plant)
    if cfg.horizon - cfg.burn_in < MIN_DECOMPOSE_WINDOW:
        # refused without simulating; a coder weight the run would refuse
        # is still reported first
        if cfg.distortion is not None:
            bnd.whitening(ctrl.W)
        raise ConfigError(short)
    res, point = _single_run(cfg, ctrl, filt, bmin)
    if res.window < MIN_DECOMPOSE_WINDOW:  # the run diverged early
        raise ConfigError(short)
    c_ref = float(np.trace(cfg.plant.noise_v.covariance @ ctrl.S))
    e_ref = float(np.trace(filt.Sigma @ ctrl.W)) if filt is not None else 0.0
    rows = [
        ["b_hat", _fmt(res.b_hat), ""],
        ["c_hat", _fmt(res.c_hat), f"tr(Cov_V S) = {c_ref:.7f}"],
        ["e_hat", _fmt(res.e_hat), f"tr(Cov_est W) = {e_ref:.7f}"],
        ["d_hat", _fmt(res.d_hat),
         "<= d" if cfg.distortion is not None else "unquantized: 0"],
        ["residual", _fmt(res.residual),
         f"3*se(b_hat) = {3 * res.se_b:.3g}"],
    ]
    _print_table(["term", "value", "reference"], rows)
    meta = {"b_min": bmin, "seed": cfg.seed, "horizon": cfg.horizon,
            "c_ref": c_ref, "e_ref": e_ref}
    _emit_points(args, "decompose", CSV_COLUMNS, [point_cells(point)],
                 points_payload([point], meta))
    return 0


def cmd_validate(cfg: ExperimentConfig, args) -> int:
    report = validate(cfg.plant)
    rows = [
        ["plant", repr(cfg.plant)],
        ["controllable", str(report.controllable)],
        ["observable", str(report.observable)],
        ["controllability_rank", str(report.controllability_rank)],
        ["observability_rank", str(report.observability_rank)],
    ]
    if report.ok:  # the Riccati solves need a structurally sound plant
        ctrl, filt, bmin = solve_plant(cfg.plant)
        rows.append(["control_iterations", str(ctrl.iterations)])
        rows.append(["control_residual", _fmt(ctrl.residual)])
        if filt is not None:
            rows.append(["filter_iterations", str(filt.iterations)])
            rows.append(["filter_residual", _fmt(filt.residual)])
        rows.append(["b_min", _fmt(bmin)])
    rows.append(["unstable_floor_nats", _fmt(bnd.unstable_floor(cfg.plant.A))])
    n = cfg.plant.n
    if n >= 3:
        rows.append(["rogers_reference(c=2)", _fmt(bnd.rogers_rho_bound(n))])
    _print_table(["check", "value"], rows)
    for msg in report.messages:
        print(f"problem: {msg}", file=sys.stderr)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# entry point

def _seed_flag(text: str) -> int:
    """--seed's type: a nonnegative integer, as a config's seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"seed must be a nonnegative integer, got {text}")
    return int(text)


# Each flag a subcommand may take, as argparse arguments.
FLAGS = {
    "out": dict(default=None, help="output directory"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "seed": dict(type=_seed_flag, default=None,
                 help="override the config seed"),
    "svg": dict(action="store_true",
                help="also render the tradeoff plot (needs --out)"),
}


@functools.cache  # one parser serves every command a process runs
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratecost",
        description="Rate-cost bounds and quantized-control simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text, flags in (
        ("bound", cmd_bound, "evaluate rate bounds on the configured b grid",
         ("out", "format")),
        ("simulate", cmd_simulate, "run one closed-loop simulation",
         ("out", "seed", "format")),
        ("sweep", cmd_sweep, "distortion sweep producing a tradeoff curve",
         ("out", "seed", "format", "svg")),
        ("decompose", cmd_decompose, "audit the cost decomposition of one run",
         ("out", "seed", "format")),
        ("validate", cmd_validate, "structural checks on the configured plant",
         ()),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.set_defaults(fn=fn, seed=None)  # no --seed: the config's seed
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        return args.fn(cfg, args)
    except np.linalg.LinAlgError as err:
        print(f"linear algebra failure: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        # ConfigError, and plants or parameters the library refuses
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        # distortion guarantee and friends: hard assert failures
        print(f"hard assert failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
