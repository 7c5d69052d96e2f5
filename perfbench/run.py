"""Run a workload of the weylbox benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a weylbox checkout; the library is imported from
``src/``. Every step runs in its own worker process with a wall-time limit,
one after another, so a crash, a hang or an exception is counted as a failed
query and never stalls the benchmark.

--trace 0 measures the end-to-end metrics of BENCHMARK.json: ten fresh
processes time set-up (after one untimed warm-up that compiles bytecode),
then one process runs the closed loop for --seconds of summed query time.
--trace 1 measures the per-layer metrics: the same fixed list of queries runs
untraced, traced, untraced and traced again, each pass in a fresh process.
The count does not depend on timing, so counts repeat exactly; the passes
alternate so that a drift in machine speed cancels out of the overhead.

Each metric is printed as ``workload metric value unit``; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when any answer check fails, 2 when the checkout has no
weylbox sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
DEADLINE_S = 170          # a run must end within 180 s
SETUP_PROBES = 10

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402  (imports no weylbox code)


def worker(deadline: float, *args: str) -> tuple[list[dict], str | None]:
    """Run one worker to completion or to the deadline. Returns its output
    objects and, if it did not finish cleanly, why."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    problem = None
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        problem = "worker timed out"
    objs = []
    for line in out.splitlines():
        try:
            objs.append(json.loads(line))
        except json.JSONDecodeError:
            break  # a line cut off by a kill
    if problem is None and proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        problem = f"worker exited {proc.returncode}: {tail[0]}"
    if problem is None and (not objs or "rss_mb" not in objs[-1]):
        problem = "worker ended without a summary"
    return objs, problem


class Pass:
    """The queries of one worker, with their failures counted."""

    def __init__(self, objs: list[dict], problem: str | None):
        self.setup_s = objs[0]["setup_s"] if objs and "setup_s" in objs[0] else None
        self.queries = [o for o in objs if "i" in o]
        self.end = objs[-1] if objs and "rss_mb" in objs[-1] else None
        self.errors = {q["i"]: q["error"] for q in self.queries if q["error"]}
        self.attempted = len(self.queries)
        if problem is not None:  # the query in flight, or set-up, failed
            self.errors[self.attempted] = problem
            self.attempted += 1

    @property
    def latencies_s(self) -> list[float]:
        return [q["ns"] / 1e9 for q in self.queries]

    def merge(self, other: "Pass") -> None:
        """Count other's failures, and any answer that differs, as ours."""
        for a, b in zip(self.queries, other.queries):
            if a["digest"] != b["digest"]:
                self.errors.setdefault(a["i"], "answers differ between passes")
        for i, error in other.errors.items():
            self.errors.setdefault(i, error)
        self.attempted = max(self.attempted, other.attempted)


def end_to_end(name: str, seed: int, seconds: int) -> tuple[dict, Pass]:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    for probe in range(SETUP_PROBES + 1):
        objs, problem = worker(deadline, *common, "--mode", "setup")
        if problem is None and probe > 0:
            setups.append(objs[0]["setup_s"])
    run = Pass(*worker(deadline, *common, "--mode", "timed",
                       "--seconds", str(seconds)))
    if run.setup_s is not None:
        setups.append(run.setup_s)
    lat = run.latencies_s
    metrics = {}
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    if len(lat) >= 2:
        cuts = statistics.quantiles(lat, n=10, method="inclusive")
        metrics["queries_per_s"] = len(lat) / math.fsum(lat)
        metrics["latency_p50_ms"] = cuts[4] * 1e3
        metrics["latency_p90_ms"] = cuts[8] * 1e3
    if run.attempted:
        metrics["ok_frac"] = 1 - len(run.errors) / run.attempted
    if run.end:
        metrics["peak_rss_mb"] = run.end["rss_mb"]
    if len(lat) < 100:
        print(f"{name}: only {len(lat)} queries, fewer than ten beyond p90",
              file=sys.stderr)
    return metrics, run


def trace_count(name: str, seconds: int) -> int:
    """Queries in a traced run: about seconds/4 at the workload's nominal
    rate, whole pattern cycles, the same for every seed."""
    wl = WORKLOADS[name]
    cycles = math.ceil(wl.nominal_rate * seconds / 4 / len(wl.pattern))
    return max(1, cycles) * len(wl.pattern)


def per_layer(name: str, seed: int, seconds: int) -> tuple[dict, Pass]:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--mode", "fixed",
              "--count", str(trace_count(name, seconds))]
    spans = OUT / f"spans-{name}-seed{seed}.tsv"
    plain, traced = [], []
    for first in (True, False):
        plain.append(Pass(*worker(deadline, *common)))
        traced.append(Pass(*worker(deadline, *common, "--traced",
                                   *(["--spans", str(spans)] if first else []))))
    result = traced[0]
    for other in plain + traced[1:]:  # every pass must give the same answers
        result.merge(other)
    metrics = dict(result.end["layers"]) if result.end else {}
    if all(p.end for p in plain + traced):
        metrics["trace.overhead_frac"] = (
            math.fsum(math.fsum(p.latencies_s) for p in traced)
            / math.fsum(math.fsum(p.latencies_s) for p in plain) - 1)
    return metrics, result


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 listed: list[dict]) -> dict:
    metrics, result = (per_layer if trace else end_to_end)(name, seed, seconds)
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    for i, error in sorted(result.errors.items())[:5]:
        print(f"{name}: query {i} failed: {error}", file=sys.stderr)
    for m in listed:
        if m["name"] in metrics:
            print(f"{name} {m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    if missing:
        print(f"{name}: not measured: {', '.join(missing)}", file=sys.stderr)
    return {"correct": not result.errors and not missing,
            "attempted": max(result.attempted, 1),
            "failed": len(result.errors),
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in listed if m["name"] in metrics}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "weylbox" / "__init__.py").is_file():
        print(f"no weylbox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), listed)
               for n in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{n}.{k}": v for n, r in results.items()
                               for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
