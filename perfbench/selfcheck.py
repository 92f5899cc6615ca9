"""Tiny-size smoke run of the benchmark pipeline.

    python3 perfbench/selfcheck.py

Run from the repository root.  It registers two tiny workloads, runs
run.py on each with and without tracing, and asserts that:

- BENCHMARK.json names exactly the metrics and units run.py emits;
- every end-to-end metric (``--trace 0``) and every per-layer metric
  (``--trace 1``) is emitted with its unit, and the report-only metrics
  and ``failed_frac`` are printed;
- an injected failing operation (a ``partial`` bound requested on a fully
  observed plant, which the CLI refuses with exit 2) is counted as failed.

Exits 0 when all checks pass.  Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402

INJECTED = "inject_partial_on_full"
REL_GRID = (0.1, 1.0)


def smoke_sweep(seed: int, inputs: Path) -> wl.Session:
    config = dict(wl.laplace_config(horizon=3_000), burn_in=500)
    return wl.sweep_session(config, inputs / "smoke.json", seed)


def smoke_bounds(seed: int, inputs: Path) -> wl.Session:
    rng = np.random.default_rng(seed)
    plan = [
        ("s0_n1m1F", wl.bound_plant(rng, 1, 1, False, 1.0),
         wl.applicable_kinds(False, True)),
        ("s1_n2m1P", wl.bound_plant(rng, 2, 1, True, 1.0),
         wl.applicable_kinds(True, False)),
        (INJECTED, wl.bound_plant(rng, 1, 1, False, 1.0),
         ["full", "partial"]),
    ]
    return wl.bounds_session(plan, inputs, rel_grid=REL_GRID)


def drive(workload: str, trace: int) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)])
    text = buf.getvalue()
    assert code == 0, f"{workload}: run.py exit {code}"
    return json.loads(text.strip().splitlines()[-1]), text


def check_benchmark_json() -> None:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == run.END_TO_END, "BENCHMARK.json end_to_end != run.END_TO_END"
    assert layers == run.PER_LAYER, "BENCHMARK.json per_layer != run.PER_LAYER"
    named = {w["name"] for w in spec["workloads"]}
    assert named <= set(wl.WORKLOADS), f"unknown workloads {named - set(wl.WORKLOADS)}"


def check_metrics(result: dict, expected: dict, label: str) -> None:
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    wanted = {k: v[0] for k, v in expected.items()}
    assert emitted == wanted, f"{label}: metrics/units differ: {emitted} vs {wanted}"
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), f"{label}: {name}"


def main() -> int:
    check_benchmark_json()
    wl.WORKLOADS["smoke_sweep"] = wl.Workload(smoke_sweep, wl.check_sweep)
    wl.WORKLOADS["smoke_bounds"] = wl.Workload(smoke_bounds, wl.check_bounds)
    for workload, extra in (("smoke_sweep", "steps_per_s"),
                            ("smoke_bounds", "bound_evals_per_s")):
        result, text = drive(workload, 0)
        check_metrics(result, run.END_TO_END, f"{workload} trace 0")
        for name in (extra, "failed_frac"):
            assert f"  {name} " in text, f"{workload}: {name} not printed"
        result, _ = drive(workload, 1)
        check_metrics(result, run.PER_LAYER, f"{workload} trace 1")

    # The injected plant fails its 2 x 2 rows in each of the 6 children of
    # the traced run; the two good plants pass.
    record = json.loads(Path(run.WORK_DIR, "smoke_bounds-seed3-trace1.json")
                        .read_text())
    injected = [f for f in record["failures"] if f[0].startswith(INJECTED)]
    assert len(injected) == 2 * 2, f"injected failures not counted: {injected}"
    per_child = 2 * len(REL_GRID)
    children = sum(record["provenance"]["runs"].values())
    assert result["failed"] == per_child * children, result
    assert not result["correct"]
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
