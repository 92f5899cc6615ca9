"""One client session in a fresh process: ``python3 child.py SPEC.json``.

The spec (written by run.py) names the repository root, the session steps,
an output directory, and whether to trace.  The child imports ``ratecost``
from ``<root>/src``, runs each step through ``ratecost.cli.main`` exactly as
the ``ratecost`` console script would, and writes ``result.json`` (and, when
traced, ``spans.npz``) into the output directory.

Set-up ends when ``cli.load_config`` first returns; the child records that
instant on the system-wide monotonic clock so the parent can subtract its
own launch time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
import traceback
from pathlib import Path


def call_cli(cli, argv: list[str]) -> dict:
    """Run one command; a raw exception is recorded, not propagated."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:          # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:                  # a raw traceback counts as failed
            code = None
            error = traceback.format_exc()
    return {"argv": argv, "exit": code, "error": error, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "t0": t0, "t1": time.monotonic()}


def parse_b_min(stdout: str) -> float | None:
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 2 and fields[0] == "b_min":
            return float(fields[1])
    return None


def run_plant(cli, step: dict, out: Path) -> dict:
    """validate, read b_min off its table, then bound on b_min * (1 + r)."""
    res = {"plant": step["plant"], "validate": call_cli(
        cli, ["validate", "--config", step["validate"]])}
    b_min = parse_b_min(res["validate"]["stdout"])
    if res["validate"]["exit"] != 0 or b_min is None:
        return res
    grid = [b_min * (1.0 + r) for r in step["rel_grid"]]
    config = dict(step["bound_template"], b_grid=grid)
    Path(step["bound"]).write_text(json.dumps(config), encoding="utf-8")
    bound_out = out / step["plant"]
    res.update(b_min=b_min, b_grid=grid, out=str(bound_out), bound=call_cli(
        cli, ["bound", "--config", step["bound"], "--out", str(bound_out),
              "--format", "json"]))
    return res


def point_diagnostics(tracer) -> list[dict]:
    """Per simulated point: dominance margin in units of se_b (the entropy
    gap over the lower bound's slope times se_b), |residual| / se_b and
    max_step_distortion / d.  Uses the unwrapped bound functions."""
    full = tracer.originals["bounds.lower_bound_full"]
    partial = tracer.originals["bounds.lower_bound_partial"]
    rows = []
    for plant, ctrl, filt, d, res, point in tracer.points:
        row = {"d": d, "b_hat": res.b_hat, "se_b": res.se_b,
               "h_hat": point.h_nats, "lower": point.lower_nats,
               "margin_se": math.nan, "residual_se": math.nan,
               "distortion_ratio": res.max_step_distortion / d}
        if not res.diverged and math.isfinite(point.lower_nats) and res.se_b > 0:
            def lower(b):
                return (partial(plant, ctrl, filt, b) if filt is not None
                        else full(plant, ctrl, b))
            eps = 1e-4 * res.se_b
            slope = (lower(res.b_hat - eps) - lower(res.b_hat + eps)) / (2 * eps)
            row["margin_se"] = (point.h_nats - point.lower_nats) / (slope * res.se_b)
            row["residual_se"] = abs(res.residual) / res.se_b
        rows.append(row)
    return rows


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    out = Path(spec["out"])
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    import ratecost.cli as cli

    marks = {}
    load_config = cli.load_config

    def load_config_marked(path):
        cfg = load_config(path)
        marks.setdefault("t_setup", time.monotonic())
        return cfg

    cli.load_config = load_config_marked
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    for step in spec["steps"]:
        if "argv" in step:
            argv = list(step["argv"])
            if step.get("out"):
                argv += ["--out", str(out / "cmd")]
            res = call_cli(cli, argv)
            res["out"] = str(out / "cmd")
            results.append(res)
        else:
            results.append(run_plant(cli, step, out))

    record = {"t_setup": marks.get("t_setup"), "commands": results}
    if tracer is not None:
        tracer.counters["plants"] = len(tracer.plants)
        record["trace"] = {"labels": tracer.labels, "counters": tracer.counters,
                           "points": point_diagnostics(tracer)}
        tracer.save(out / "spans.npz")
    (out / "result.json").write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
