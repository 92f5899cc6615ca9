"""ratecost benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The runner generates the workload's configs
from the seed, then, one at a time, launches fresh child processes that each
run the whole workload through the ``ratecost`` CLI (a closed loop with one
client), until ``--seconds`` have passed and at least MIN_CHILDREN children
of each kind have finished.  Every operation's output is checked.

With ``--trace 0`` it reports the end-to-end metrics as medians over the
children.  With ``--trace 1`` it alternates untraced and traced children and
reports the per-layer metrics of the traced ones, plus the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A full record with provenance goes to
``.perfbench/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import SpanTable, summarize  # noqa: E402
from workloads import WORKLOADS, GeneratorBug  # noqa: E402

MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 120.0
WORK_DIR = ".perfbench"

# name -> (unit, better); the JSON result carries exactly these names.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed in the report and kept in the record, not in the JSON result:
# each is zero or undefined on some workload.
REPORT_ONLY = {
    "steps_per_s": "steps/s",
    "bound_evals_per_s": "rows/s",
}
PER_LAYER = {
    "sysmodel.sample_s": ("s", "lower"),
    "sysmodel.sample_calls": ("count", "lower"),
    "sysmodel.sample_ns_per_draw": ("ns/draw", "lower"),
    "sysmodel.validate_s": ("s", "lower"),
    "riccati.control_s": ("s", "lower"),
    "riccati.control_calls": ("count", "lower"),
    "riccati.control_iters": ("count", "lower"),
    "riccati.control_iters_max": ("count", "lower"),
    "riccati.control_failed": ("count", "lower"),
    "riccati.control_calls_per_plant": ("calls/plant", "lower"),
    "riccati.filter_s": ("s", "lower"),
    "riccati.filter_calls": ("count", "lower"),
    "riccati.filter_iters": ("count", "lower"),
    "quantizer.encode_calls": ("count", "lower"),
    "quantizer.encode_us_per_step": ("us/step", "lower"),
    "quantizer.nearest_s": ("s", "lower"),
    "quantizer.index_of_s": ("s", "lower"),
    "quantizer.entropy_s": ("s", "lower"),
    "quantizer.entropy_ns_per_sample": ("ns/sample", "lower"),
    "simloop.run_calls": ("count", "lower"),
    "simloop.run_s": ("s", "lower"),
    "simloop.run_self_s": ("s", "lower"),
    "simloop.us_per_step": ("us/step", "lower"),
    "simloop.sweep_self_s": ("s", "lower"),
    "simloop.tradeoff_point_s": ("s", "lower"),
    "simloop.min_margin_se": ("se", "higher"),
    "simloop.max_residual_se": ("se", "lower"),
    "simloop.max_distortion_ratio": ("ratio", "lower"),
    "bounds.lower_calls": ("count", "lower"),
    "bounds.lower_us": ("us/call", "lower"),
    "bounds.upper_calls": ("count", "lower"),
    "bounds.upper_us": ("us/call", "lower"),
    "bounds.projected_us": ("us/call", "lower"),
    "bounds.lowrank_us": ("us/call", "lower"),
    "bounds.lowrank_unconverged": ("count", "lower"),
    "cli.load_config_s": ("s", "lower"),
    "cli.command_self_s": ("s", "lower"),
    "cli.render_svg_s": ("s", "lower"),
    "cli.emit_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; exit nonzero without a result."""


# ---------------------------------------------------------------------------
# children

def child_env() -> dict:
    """The caller's environment without RATECOST_THREADS, so the program's
    own default worker count applies."""
    env = dict(os.environ)
    env.pop("RATECOST_THREADS", None)
    return env


def warm_up(root: Path, env: dict) -> None:
    """Compile and page in ratecost once before timing; a user's install
    has its bytecode already."""
    code = "import sys; sys.path.insert(0, 'src'); import ratecost.cli"
    subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                   timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)


def launch(spec_path: Path, root: Path, env: dict, log: Path) -> dict:
    """Run one child to exit; wall time and peak RSS measured from outside."""
    with open(log, "wb") as fh:
        t_launch = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
            cwd=root, env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"t_launch": t_launch, "wall_s": t_exit - t_launch,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "exit": proc.returncode}


def outputs_digest(out: Path) -> str:
    """Hash of every output file the program wrote, for the same-input,
    same-output check across children."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name not in ("result.json", "spans.npz",
                                                "child.log", "spec.json"):
            h.update(str(path.relative_to(out)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_child(index: int, traced: bool, session, workload, root: Path,
              work: Path, env: dict) -> dict:
    out = work / f"child-{index:03d}"
    out.mkdir(parents=True)
    spec = {"root": str(root), "out": str(out), "trace": traced,
            "steps": session.steps}
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    timing = launch(spec_path, root, env, out / "child.log")

    record = {"index": index, "traced": traced, **timing}
    result_path = out / "result.json"
    if timing["exit"] != 0 or not result_path.is_file():
        tail = (out / "child.log").read_text(errors="replace")[-400:]
        reason = f"child exit {timing['exit']}: {tail.strip()}"
        verdicts = [(f"session-op-{i}", False, reason)
                    for i in range(session.ops_per_session)]
        record.update(setup_s=None, verdicts=verdicts, digest=None)
        return record
    result = json.loads(result_path.read_text(encoding="utf-8"))
    record["setup_s"] = (None if result["t_setup"] is None
                         else result["t_setup"] - timing["t_launch"])
    record["verdicts"] = [(v.op, v.ok, v.reason)
                          for v in workload.check(session, result)]
    record["digest"] = outputs_digest(out)
    if traced:
        table = SpanTable(out / "spans.npz", result["trace"]["labels"])
        record["layers"] = summarize(table, result["trace"]["counters"])
        record["points"] = result["trace"]["points"]
        record["spans"] = len(table.dur)
    if index > 1:                       # keep the first two for inspection
        shutil.rmtree(out)
    return record


# ---------------------------------------------------------------------------
# statistics and report

def top_percentile(values: list[float]) -> tuple[float, float] | None:
    """(q, value): the highest percentile with at least ten samples above
    it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def child_metrics(rec: dict, session) -> dict:
    work_s = rec["wall_s"] - rec["setup_s"]
    return {
        "wall_s": rec["wall_s"],
        "setup_s": rec["setup_s"],
        "ops_per_s": session.ops_per_session / work_s,
        "peak_rss_mb": rec["peak_rss_mb"],
        "steps_per_s": (session.steps_per_session / work_s
                        if session.steps_per_session else None),
        "bound_evals_per_s": (None if session.steps_per_session
                              else session.ops_per_session / work_s),
    }


def point_summary(points: list[dict]) -> dict:
    finite = [p for p in points if p["margin_se"] == p["margin_se"]]
    return {
        "simloop.min_margin_se": min((p["margin_se"] for p in finite), default=0.0),
        "simloop.max_residual_se": max((p["residual_se"] for p in finite),
                                       default=0.0),
        "simloop.max_distortion_ratio": max(
            (p["distortion_ratio"] for p in points
             if p["distortion_ratio"] == p["distortion_ratio"]), default=0.0),
    }


def provenance(root: Path, args, session, counts: dict) -> dict:
    sha = "unavailable (not a git checkout)"
    if (root / ".git").exists():    # never ask git about an enclosing repo
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "git_sha": sha, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "config_sha256": session.configs, "runs": counts,
        "ratecost_threads": "unset (program default)",
    }


def fmt(x: float) -> str:
    return f"{x:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ratecost" / "cli.py").is_file():
        raise BenchError(f"{root} holds no ratecost source tree (src/ratecost)")
    workload = WORKLOADS[args.workload]
    work = root / WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    session = workload.build(args.seed, work / "inputs")
    env = child_env()
    warm_up(root, env)

    records = []
    deadline = time.monotonic() + args.seconds
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        records.append(run_child(len(records), traced, session, workload,
                                 root, work, env))
        n_traced = sum(r["traced"] for r in records)
        enough = (len(records) - n_traced >= MIN_CHILDREN
                  and (not args.trace or n_traced >= MIN_CHILDREN))
        if enough and time.monotonic() >= deadline:
            break

    plain = [r for r in records if not r["traced"]]
    traced_recs = [r for r in records if r["traced"]]
    verdicts = [v for r in records for v in r["verdicts"]]
    failures = [v for v in verdicts if not v[1]]
    digests = {r["digest"] for r in records}
    deterministic = len(digests) == 1 and None not in digests
    timed = [child_metrics(r, session) for r in plain if r["setup_s"] is not None]

    report = {}
    for name in list(END_TO_END) + list(REPORT_ONLY):
        values = [m[name] for m in timed if m[name] is not None]
        report[name] = {"median": statistics.median(values) if values else None,
                        "top": top_percentile(values), "n": len(values)}
    failed_frac = len(failures) / len(verdicts)

    layers = {}
    if traced_recs:
        per_child = [dict(r["layers"], **point_summary(r["points"]))
                     for r in traced_recs if "layers" in r]
        for name in PER_LAYER:
            if name == "trace.overhead_frac":
                continue
            layers[name] = (statistics.median(c[name] for c in per_child)
                            if per_child else 0.0)
        layers["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced_recs)
            / statistics.median(r["wall_s"] for r in plain) - 1.0)

    counts = {"untraced": len(plain), "traced": len(traced_recs)}
    prov = provenance(root, args, session, counts)
    print(f"ratecost benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} children={counts}")
    print("  " + " ".join(f"{k}={prov[k]}" for k in
                          ("git_sha", "nproc", "cpu_model", "python", "numpy",
                           "scipy")))
    if len(session.configs) <= 3:
        for cfg, digest in session.configs.items():
            print(f"  config {cfg} sha256={digest}")
    else:
        joined = "".join(sorted(session.configs.values())).encode()
        print(f"  configs: {len(session.configs)} files (listed in the record), "
              f"sha256 of their sorted digests={hashlib.sha256(joined).hexdigest()}")
    print(f"  {'metric':<34}{'median':>14}{'top pct':>24}{'n':>5}  unit")
    units = {k: v[0] for k, v in END_TO_END.items()} | REPORT_ONLY
    for name, row in report.items():
        if row["median"] is None:
            continue
        top = ("p%.0f=%s" % (row["top"][0], fmt(row["top"][1])) if row["top"]
               else "n<11")
        print(f"  {name:<34}{fmt(row['median']):>14}{top:>24}{row['n']:>5}"
              f"  {units[name]}")
    print(f"  {'failed_frac':<34}{fmt(failed_frac):>14}{'':>24}"
          f"{len(verdicts):>5}  ratio")
    for name, value in layers.items():
        print(f"  {name:<34}{fmt(value):>14}{'':>24}{len(traced_recs):>5}"
              f"  {PER_LAYER[name][0]}")
    print(f"  operations: attempted {len(verdicts)}, failed {len(failures)}; "
          f"outputs identical across children: {deterministic}")
    by_reason: dict[str, list[str]] = {}
    for op, _, reason in sorted(set(failures)):
        by_reason.setdefault(reason, []).append(op)
    for reason, ops in by_reason.items():
        print(f"  FAILED {len(ops)} op(s), first {ops[0]}: {reason}")

    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": report[k]["median"], "unit": END_TO_END[k][0]}
                   for k in END_TO_END}
    record = {"provenance": prov, "report": report, "failed_frac": failed_frac,
              "layers": layers, "deterministic": deterministic,
              "failures": sorted(set(failures)),
              "children": [{k: v for k, v in r.items() if k != "verdicts"}
                           for r in records]}
    (root / WORK_DIR / f"{work.name}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(json.dumps({"correct": not failures and deterministic and bool(timed),
                      "attempted": len(verdicts), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, GeneratorBug) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
