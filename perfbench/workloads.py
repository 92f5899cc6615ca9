"""Workload definitions: seeded input generation and output checks.

A workload turns a seed into a *session*: the list of ``ratecost`` CLI
commands one client runs back to back, plus the generated JSON configs those
commands read.  After a child process has run the session, ``check`` turns the
command results into per-operation verdicts.  An operation is one sweep point
or one requested ``(b, kind)`` bound row.

This module only uses the standard library and numpy; it never imports
``ratecost``, so the program sees nothing but the generated configs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SHIPPED_CONFIGS = Path("configs")

# laplace_sweep: the eight largest distortions of the shipped grid at a
# shortened horizon (see README.md for why the three smallest are left out).
LAPLACE_POINTS = 8
LAPLACE_HORIZON = 80_000

# lattice_sweep: n = 2 on the generic A_2* path.
LATTICE_HORIZON = 1_500
LATTICE_BURN_IN = 200
LATTICE_D_GRID = tuple(float(d) for d in np.geomspace(6.0, 100.0, 8))
LATTICE_EIG_RANGE = (1.1, 1.5)

# bounds_grid: BOUND_DRAWS fully and as many partially observed plants per
# (n, m) shape, with a fixed cost scale per shape; b runs over b_min * (1 + r).
BOUND_DRAWS = 4
BOUND_SHAPES = tuple((n, m) for n in range(1, 7)
                     for m in sorted({n, (n + 1) // 2, 1}))
BOUND_REL_GRID = tuple(float(r) for r in np.geomspace(0.01, 10.0, 6))
# Q = R = scale * I.  Weaker actuation gets a smaller scale so that ||S||
# stays below about 2e3, where the absolute 1e-12 Riccati tolerance still
# converges; bounds_stress covers the plants beyond that.
BOUND_COST_SCALE = {"full": 100.0, "half": 10.0, "single": 1.0}
# bounds_stress: one generic random plant per shape, alternately fully and
# partially observed, at cost scale 10^3.
STRESS_COST_SCALE = 1000.0

SWEEP_FILE = "sweep.json"
SVG_FILE = "sweep.svg"
BOUND_FILE = "bound.json"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(path: Path, config: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")


@dataclass
class Session:
    """What one child process runs, and what the checker needs to know.

    ``steps`` is a JSON-ready list.  A step is either a plain CLI command
    (``{"argv": [...]}``) or a validate-then-bound pair for one plant
    (``{"plant": name, "validate": path, "bound": path, "rel_grid": [...]}``),
    where the client reads ``b_min`` from ``validate`` and writes the bound
    config before calling ``bound``.
    """

    steps: list[dict]
    configs: dict[str, str]           # config name -> sha256
    ops_per_session: int
    steps_per_session: int = 0        # closed-loop steps simulated
    d_grid: list = field(default_factory=list)


@dataclass
class OpVerdict:
    op: str
    ok: bool
    reason: str = ""


# ---------------------------------------------------------------------------
# sweep workloads

def sweep_session(config: dict, cfg_path: Path,
                  seed_override: int | None) -> Session:
    write_config(cfg_path, config)
    argv = ["sweep", "--config", str(cfg_path), "--format", "json", "--svg"]
    if seed_override is not None:
        argv += ["--seed", str(seed_override)]
    points = len(config["d_grid"])
    return Session(
        steps=[{"argv": argv, "out": True}],
        configs={cfg_path.name: sha256_file(cfg_path)},
        ops_per_session=points,
        steps_per_session=points * int(config["horizon"]),
        d_grid=config["d_grid"])


def laplace_config(horizon: int = LAPLACE_HORIZON) -> dict:
    config = json.loads((SHIPPED_CONFIGS / "laplace_scalar.json").read_text())
    config["d_grid"] = config["d_grid"][-LAPLACE_POINTS:]
    config["horizon"] = horizon
    return config


def laplace_sweep(seed: int, inputs: Path) -> Session:
    return sweep_session(laplace_config(), inputs / "laplace_sweep.json", seed)


def partial_sweep(seed: int, inputs: Path) -> Session:
    """The shipped partial config unchanged: its seed 7, grid and horizon.
    The workload seed is recorded but not applied."""
    config = json.loads((SHIPPED_CONFIGS / "partial_scalar.json").read_text())
    return sweep_session(config, inputs / "partial_sweep.json", None)


def lattice_plant(rng: np.random.Generator) -> dict:
    """n = 2, B = I, Gaussian noise; A is a rotated diagonal with both
    eigenvalue magnitudes in LATTICE_EIG_RANGE (random signs)."""
    theta = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    lam = rng.uniform(*LATTICE_EIG_RANGE, 2) * rng.choice([-1.0, 1.0], 2)
    a = rot @ np.diag(lam) @ rot.T
    eye = np.eye(2).tolist()
    return {"a": a.tolist(), "b": eye, "q": eye, "r": eye,
            "noise_v": {"family": "gaussian", "covariance": eye}}


def lattice_sweep(seed: int, inputs: Path) -> Session:
    rng = np.random.default_rng([seed, 2])
    config = {
        "plant": lattice_plant(rng),
        "mode": "fully_observed",
        "bounds": ["full", "upper"],
        "d_grid": list(LATTICE_D_GRID),
        "horizon": LATTICE_HORIZON,
        "burn_in": LATTICE_BURN_IN,
        "seed": seed,
    }
    return sweep_session(config, inputs / "lattice_sweep.json", None)


def check_sweep(session: Session, result: dict) -> list[OpVerdict]:
    """Per point: exit status, divergence, finiteness and the sandwich
    lower <= h_hat <= upper.  A nonzero exit that no failing point explains
    fails every point, as does a missing or malformed output."""
    cmd = result["commands"][0]
    grid = session.d_grid
    ops = [f"d={d:g}" for d in grid]
    out = Path(cmd["out"])

    def all_failed(reason):
        return [OpVerdict(op, False, reason) for op in ops]

    if cmd["error"]:
        return all_failed(f"raised {cmd['error'].splitlines()[-1]}")
    try:
        payload = json.loads((out / SWEEP_FILE).read_text())
        svg = (out / SVG_FILE).read_text()
    except (OSError, ValueError) as err:
        return all_failed(f"exit {cmd['exit']}, unreadable output: {err}")
    if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
        return all_failed("malformed svg")
    points = {p["d"]: p for p in payload.get("points", [])}
    if sorted(points) != sorted(grid):
        return all_failed("sweep output does not cover the d grid")

    verdicts = []
    for op, d in zip(ops, grid):
        p = points[d]
        h, lo, up = p["h_hat_nats"], p["lower_bound_nats"], p["upper_bound_nats"]
        if p["diverged"]:
            reason = "diverged"
        elif p["b_hat"] is None or h is None:
            reason = "non-finite b_hat or h_hat"
        elif lo is None or h < lo:
            reason = f"dominance: h_hat {h:.6g} < lower {lo}"
        elif up is None or h > up:
            reason = f"h_hat {h:.6g} > upper {up}"
        else:
            reason = ""
        verdicts.append(OpVerdict(op, not reason, reason))
    if cmd["exit"] != 0 and all(v.ok for v in verdicts):
        return all_failed(f"exit {cmd['exit']} with every point passing")
    return verdicts


# ---------------------------------------------------------------------------
# bound workloads

def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _signed(rng: np.random.Generator, shape) -> np.ndarray:
    """Entries of magnitude 0.7..1.3 with random signs: every mode of a
    normal A gets a well-conditioned share of every input and output."""
    return rng.uniform(0.7, 1.3, shape) * rng.choice([-1.0, 1.0], shape)


def applicable_kinds(partial: bool, square: bool) -> list[str]:
    """Bound kinds the CLI supports for this plant shape: ``full``,
    ``partial`` and ``upper`` need a full-rank control weight (m = n, and
    k = n for the partially observed upper bound)."""
    if partial:
        kinds = ["partial_projected", "partial_lowrank", "floor"]
        return (["partial", "upper"] + kinds) if square else kinds
    kinds = ["projected", "lowrank", "floor"]
    return (["full", "upper"] + kinds) if square else kinds


def bound_plant(rng: np.random.Generator, n: int, m: int, partial: bool,
                scale: float, generic: bool = False) -> dict:
    """A stabilisable plant with n states and m inputs.

    The default family is A = U diag(lam) U^T with |lam| spread evenly over
    0.5..1.3 (at least one unstable mode), B = U G and C = H U^T with every
    entry of G and H bounded away from zero.  ``generic`` draws A, B and C
    as plain Gaussian matrices instead (A rescaled to spectral radius
    0.8..1.4), which is what the stress workload uses.
    """
    k = n if (not partial or m == n) else m
    if generic:
        a = rng.standard_normal((n, n))
        a *= rng.uniform(0.8, 1.4) / max(abs(np.linalg.eigvals(a)))
        b = rng.standard_normal((n, m))
        c = rng.standard_normal((k, n))
    else:
        u = _orthogonal(rng, n)
        mags = np.linspace(0.5, 1.3, n) if n > 1 else np.array([1.2])
        lam = (mags + rng.uniform(-0.02, 0.02, n)) * rng.choice([-1.0, 1.0], n)
        a = u @ np.diag(lam) @ u.T
        b = u @ _signed(rng, (n, m))
        c = _signed(rng, (k, n)) @ u.T
    # Laplace only where the projected bound can use it (n = 1): its
    # projected entropy power needs an axis-aligned transform.
    family = "laplace" if n == 1 and not partial else "gaussian"
    plant = {
        "a": a.tolist(), "b": b.tolist(),
        "q": (scale * np.eye(n)).tolist(), "r": (scale * np.eye(m)).tolist(),
        "noise_v": {"family": family, "covariance": np.eye(n).tolist()},
    }
    if partial:
        plant["c"] = c.tolist()
        plant["noise_w"] = {"family": "gaussian",
                            "covariance": np.eye(k).tolist()}
    return plant


def _bound_plan(seed: int, stress: bool):
    """(name, plant, kinds) for every plant of one session."""
    rng = np.random.default_rng([seed, 3 if stress else 1])
    plan = []
    if stress:
        shapes = [(n, m, i % 2 == 1) for i, (n, m) in enumerate(BOUND_SHAPES)]
    else:
        shapes = [(n, m, partial) for _ in range(BOUND_DRAWS)
                  for n, m in BOUND_SHAPES for partial in (False, True)]
    for i, (n, m, partial) in enumerate(shapes):
        if stress:
            scale = STRESS_COST_SCALE
        else:
            role = "full" if m == n else ("single" if m == 1 else "half")
            scale = BOUND_COST_SCALE[role]
        plant = bound_plant(rng, n, m, partial, scale, generic=stress)
        kinds = applicable_kinds(partial, m == n)
        name = f"p{i:02d}_n{n}m{m}{'P' if partial else 'F'}"
        plan.append((name, plant, kinds))
    return plan


def bounds_session(plan, inputs: Path, rel_grid=BOUND_REL_GRID) -> Session:
    """One validate-then-bound step per (name, plant, kinds)."""
    steps, configs, ops = [], {}, 0
    for pname, plant, kinds in plan:
        base = {"plant": plant, "bounds": kinds}
        vpath = inputs / f"{pname}.validate.json"
        write_config(vpath, base)
        configs[vpath.name] = sha256_file(vpath)
        steps.append({"plant": pname, "validate": str(vpath),
                      "bound_template": base,
                      "bound": str(inputs / f"{pname}.bound.json"),
                      "rel_grid": list(rel_grid), "kinds": kinds})
        ops += len(rel_grid) * len(kinds)
    return Session(steps=steps, configs=configs, ops_per_session=ops)


def bounds_grid(seed: int, inputs: Path) -> Session:
    return bounds_session(_bound_plan(seed, False), inputs)


def bounds_stress(seed: int, inputs: Path) -> Session:
    return bounds_session(_bound_plan(seed, True), inputs)


class GeneratorBug(RuntimeError):
    """validate rejected a generated plant: the generator, not the program,
    is at fault, so the run stops instead of counting it."""


def _tail(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _plant_failure(res: dict) -> str:
    """Why the plant's rows all fail, or "" when bound output is usable."""
    val = res["validate"]
    if val["error"]:
        return f"validate raised {_tail(val['error'])}"
    if val["exit"] != 0:
        if "problem:" in val["stderr"]:
            raise GeneratorBug(f"{res['plant']}: {val['stderr'].strip()}")
        return f"validate exit {val['exit']}: {_tail(val['stderr'])}"
    bound = res.get("bound")
    if bound is None:
        return "validate printed no b_min"
    if bound["error"]:
        return f"bound raised {_tail(bound['error'])}"
    if bound["exit"] != 0:
        return f"bound exit {bound['exit']}: {_tail(bound['stderr'])}"
    return ""


def check_bounds(session: Session, result: dict) -> list[OpVerdict]:
    """Per requested (b, kind) row: both commands succeeded, bound agrees
    with validate on b_min, the row is finite with no note, and each lower
    bound stays below the upper bound at the same b."""
    verdicts = []
    for step, res in zip(session.steps, result["commands"]):
        ops = [(f"{step['plant']}:{r:g}:{kind}", i, kind)
               for i, r in enumerate(step["rel_grid"]) for kind in step["kinds"]]
        failure = _plant_failure(res)
        if not failure:
            try:
                payload = json.loads((Path(res["out"]) / BOUND_FILE).read_text())
            except (OSError, ValueError) as err:
                failure = f"unreadable bound output: {err}"
            else:
                if not math.isclose(payload["b_min"], res["b_min"], rel_tol=1e-9):
                    failure = "bound and validate disagree on b_min"
        if failure:
            verdicts += [OpVerdict(op, False, failure) for op, _, _ in ops]
            continue
        rows = {(row["b"], row["kind"]): row for row in payload["rows"]}
        for op, i, kind in ops:
            b = res["b_grid"][i]
            row = rows.get((b, kind))
            upper = (rows.get((b, "upper")) or {}).get("nats")
            if row is None:
                reason = "row missing"
            elif row["nats"] is None:
                reason = f"non-finite ({row['note']})"
            elif row["note"]:
                reason = row["note"]
            elif (kind not in ("upper", "floor") and upper is not None
                  and row["nats"] > upper):
                reason = f"lower {row['nats']:.6g} > upper {upper:.6g}"
            else:
                reason = ""
            verdicts.append(OpVerdict(op, not reason, reason))
    return verdicts


@dataclass(frozen=True)
class Workload:
    build: object     # (seed, inputs dir) -> Session
    check: object     # (Session, child result) -> list[OpVerdict]


# Why each workload exists: README.md.  The first three are the ones
# BENCHMARK.json names; the last two show known defects and are run by hand.
WORKLOADS = {
    "laplace_sweep": Workload(laplace_sweep, check_sweep),
    "lattice_sweep": Workload(lattice_sweep, check_sweep),
    "bounds_grid": Workload(bounds_grid, check_bounds),
    "partial_sweep": Workload(partial_sweep, check_sweep),
    "bounds_stress": Workload(bounds_stress, check_bounds),
}
