"""The ramsys benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, closed loop, one request at a time.  Each pass of the workload
(see workloads.py) runs in a fresh single-threaded worker process, so no
request repeats within a process; passes run back to back until ``--seconds``
have gone by, and always run whole.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes of the same requests and reports the per-layer metrics and the
tracing overhead.  Every request is checked; a request that fails ranks
slower than any success in every percentile.

Each pass draws its own requests from the seed (see workloads.py); a
percentile is the median over passes of each pass's percentile.  All times
are scaled by a reference loop timed next to each measurement (see
calibration.py).

The last stdout line is the result object; the line before it is a report
with provenance and sample counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS  # noqa: E402

# Set-up time: fresh interpreters that each time their own import of
# ramsys.cli, and the reference loop next to it, after one spawn that writes
# the bytecode cache.
SETUP_SPAWNS = 21
SETUP_CODE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; from calibration import loop_ns; "
    "loop = loop_ns(); t = time.perf_counter_ns(); import ramsys.cli; "
    "t = time.perf_counter_ns() - t; print(t, min(loop, loop_ns()))"
)
# Every run must end well inside three minutes.
HARD_LIMIT_S = 150


class BenchError(RuntimeError):
    pass


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failures enter as +inf, so they rank last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _spawn(args: list[str], deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before {' '.join(args[:3])}")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(args[:3])} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(deadline: float, spawns: int) -> list[float]:
    """Scaled import time of ramsys.cli in fresh interpreters, in seconds."""
    args = ["-c", SETUP_CODE, str(SRC), str(BENCH)]
    _spawn(args, deadline)
    times = []
    for _ in range(spawns):
        import_ns, loop = map(int, _spawn(args, deadline).split())
        times.append(calibration.scale(import_ns, loop) / 1e9)
    return times


def run_passes(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Whole passes until ``seconds`` have gone by.  With ``trace``, passes
    alternate untraced and traced, and each traced pass repeats the requests
    of the untraced pass before it."""
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        tracing = trace and len(untraced) > len(traced)
        out = _spawn([str(BENCH / "worker.py"), workload, str(seed), str(len(untraced) - tracing),
                      "1" if tracing else "0"], deadline)
        (traced if tracing else untraced).append(json.loads(out.splitlines()[-1]))
        if time.monotonic() - start >= seconds and (traced or not trace):
            return untraced, traced


def ranked(passes: list[dict], field: str) -> list[float]:
    """Scaled ``field`` of every request of ``passes``; +inf for a failed request."""
    return [
        calibration.scale(rec[field], rec["loop_ns"]) if rec["status"] == checks.OK else math.inf
        for p in passes for rec in p["records"]
    ]


def pass_percentile(passes: list[dict], field: str, q: float) -> float:
    """The median over passes of each pass's ``q`` percentile of ``field``, in ms.

    Every pass has the same cost profile, so its percentile falls on the same
    request, or one of like cost, each time; the median over passes is then
    that request's median rather than an extreme repeat of it."""
    value = statistics.median(percentile(ranked([p], field), q) for p in passes)
    if not math.isfinite(value):
        raise BenchError(f"{field} percentile {q} falls on a failed request: too many requests failed")
    return value / 1e6


def end_to_end(untraced: list[dict], setup: list[float]) -> dict[str, tuple[float, str]]:
    items = sum(rec["items"] for p in untraced for rec in p["records"] if rec["status"] == checks.OK)
    return {
        "latency_p50_ms": (pass_percentile(untraced, "latency_ns", 0.5), "ms"),
        "latency_p90_ms": (pass_percentile(untraced, "latency_ns", 0.9), "ms"),
        "first_item_p50_ms": (pass_percentile(untraced, "first_ns", 0.5), "ms"),
        "items_per_s": (items / (_busy_ms(untraced) / 1e3), "1/s"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] for p in untraced) / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def _busy_ms(passes: list[dict]) -> float:
    """Scaled time of all requests of ``passes``."""
    return sum(calibration.scale(rec["latency_ns"], rec["loop_ns"])
               for p in passes for rec in p["records"]) / 1e6


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-pass span totals, the median over traced passes."""

    def span(name: str, field: str) -> float:
        return statistics.median(p["spans"][name][field] for p in traced)

    def hit_ratio(name: str) -> float:
        hits = sum(p["caches"].get(name, [0, 0])[0] for p in traced)
        calls = hits + sum(p["caches"].get(name, [0, 0])[1] for p in traced)
        return hits / calls if calls else 0.0

    def rate(count: float, ms: float) -> float:
        return count / (ms / 1e3) if ms else 0.0

    def layer_ms(layer: str) -> float:
        return statistics.median(
            sum(s["self_ms"] for name, s in p["spans"].items() if name.split(".")[0] == layer)
            for p in traced
        )

    m: dict[str, tuple[float, str]] = {
        "perm.enumerate_cycle_types.calls": (span("perm.enumerate_cycle_types", "calls"), "count"),
        "perm.enumerate_cycle_types.self_ms": (span("perm.enumerate_cycle_types", "self_ms"), "ms"),
        "perm.cycle_types_per_s": (rate(span("perm.enumerate_cycle_types", "items"),
                                        span("perm.enumerate_cycle_types", "self_ms")), "1/s"),
        "perm.CycleType.parse.self_ms": (span("perm.CycleType.parse", "self_ms"), "ms"),
        "perm.class_size.self_ms": (span("perm.class_size", "self_ms"), "ms"),
        "perm.centralizer_order.self_ms": (span("perm.centralizer_order", "self_ms"), "ms"),
        "combinat.multiset_coefficient.self_ms": (span("combinat.multiset_coefficient", "self_ms"), "ms"),
        "combinat.weak_compositions.items": (span("combinat.weak_compositions", "items"), "count"),
        "combinat.weak_compositions.self_ms": (span("combinat.weak_compositions", "self_ms"), "ms"),
        "centralizer.gamma.calls": (span("centralizer.gamma", "calls"), "count"),
        "centralizer.gamma.self_ms": (span("centralizer.gamma", "self_ms"), "ms"),
        "centralizer.gamma.hit_ratio": (hit_ratio("centralizer.gamma"), "ratio"),
        "centralizer.abelianization_invariants.self_ms": (
            span("centralizer.abelianization_invariants", "self_ms"), "ms"),
        "counting.parse_ramification.self_ms": (span("counting.parse_ramification", "self_ms"), "ms"),
        "counting.count_rsc.self_ms": (span("counting.count_rsc", "self_ms"), "ms"),
        "counting.count_report.self_ms": (span("counting.count_report", "self_ms"), "ms"),
        "counting.enumerate_types.vectors": (span("counting.enumerate_types", "items"), "count"),
        "counting.enumerate_types.self_ms": (span("counting.enumerate_types", "self_ms"), "ms"),
        "counting.enumerate_types.first_ms": (span("counting.enumerate_types", "first_ms"), "ms"),
        "counting.type_vector_str.self_ms": (span("counting.type_vector_str", "self_ms"), "ms"),
        "oracle.character_basis.calls": (span("oracle.character_basis", "calls"), "count"),
        "oracle.character_basis.self_ms": (span("oracle.character_basis", "self_ms"), "ms"),
        "oracle.character_basis.hit_ratio": (hit_ratio("oracle.character_basis"), "ratio"),
        "oracle.class_points.points": (span("oracle.class_points", "items"), "count"),
        "oracle.class_points.self_ms": (span("oracle.class_points", "self_ms"), "ms"),
        "oracle.orbit_partition_class.self_ms": (span("oracle.orbit_partition_class", "self_ms"), "ms"),
        "oracle.orbits": (span("oracle.orbit_partition_class", "items"), "count"),
        "oracle.points_per_s": (rate(span("oracle.class_points", "items"), layer_ms("oracle")), "1/s"),
        "cli.main.self_ms": (span("cli.main", "self_ms"), "ms"),
        "cli.stdout_bytes": (statistics.median(
            sum(rec["stdout_bytes"] for rec in p["records"]) for p in traced), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (layer_ms(layer), "ms")
    # traced pass i repeats the requests of untraced pass i
    m["trace.overhead_ratio"] = (_busy_ms(traced) / _busy_ms(untraced[:len(traced)]), "ratio")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args(argv)
    trace = args.trace == "1"

    if not (SRC / "ramsys" / "cli.py").is_file():
        print(f"error: no ramsys sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    try:
        setup = measure_setup(deadline, 0 if trace else SETUP_SPAWNS)
        untraced, traced = run_passes(args.workload, args.seed, args.seconds, trace, deadline)
        metrics = per_layer(untraced, traced) if trace else end_to_end(untraced, setup)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = [rec for p in untraced + traced for rec in p["records"]]
    statuses = [rec["status"] for rec in records]
    report = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "clients": 1,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "requests": {"untraced": sum(len(p["records"]) for p in untraced),
                     "traced": sum(len(p["records"]) for p in traced)},
        "setup_spawns": len(setup),
        "reference_loop_ms": statistics.median(rec["loop_ns"] for rec in records) / 1e6,
        "statuses": {s: statuses.count(s) for s in sorted(set(statuses))},
        "failure_reasons": sorted({rec["reason"] for rec in records if "reason" in rec}),
    }
    if trace:
        report["latency_p50_ms"] = {
            "untraced": pass_percentile(untraced[:len(traced)], "latency_ns", 0.5),
            "traced": pass_percentile(traced, "latency_ns", 0.5),
        }
        report["cache_hits_misses"] = traced[0]["caches"]
    print(json.dumps(report))
    print(json.dumps({
        "correct": not any(s in (checks.WRONG, checks.ERROR) for s in statuses),
        "attempted": len(records),
        "failed": sum(s != checks.OK for s in statuses),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
