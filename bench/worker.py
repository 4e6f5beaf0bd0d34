"""Run one pass of a workload in this fresh process and print its records.

    python3 bench/worker.py WORKLOAD SEED PASS TRACE

CLI requests call ``ramsys.cli.main(argv)`` in this process with stdout
going to an in-memory sink; oracle requests call ``orbit_count_class``.
Every request runs cold: all ramsys caches are cleared before it.  Each
request is checked against an independent reference after its timed region.
The only stdout line is a JSON object with one record per request (raw
times and the reference-loop time next to them, see calibration.py), the
peak RSS of this process and, when TRACE is 1, the scaled span totals and
cache hit counts.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ramsys.cli  # noqa: E402
from ramsys import oracle  # noqa: E402
from ramsys.combinat import stirling_first  # noqa: E402
from ramsys.counting import (  # noqa: E402
    Ramification,
    count_rsc,
    count_rsc_stirling,
    parse_ramification,
)
from ramsys.perm import CycleType  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def package_caches() -> dict[str, object]:
    """Every ramsys module attribute with ``cache_clear``, by qualified name,
    so caches added to the package later are found too."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "ramsys":
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                key = f"{value.__module__}.{value.__qualname__}".removeprefix("ramsys.")
                found[key] = value
    return found


def clear_caches() -> None:
    for cached in package_caches().values():
        cached.cache_clear()


class FirstItemSink:
    """Stdout for one request: records when the first output item is written,
    then hands the remaining writes straight to the buffer."""

    def __init__(self, buffer: io.StringIO, header_lines: int) -> None:
        self.buffer = buffer
        self.lines_left = header_lines
        self.first_ns: int | None = None

    def write(self, text: str) -> int:
        if self.lines_left <= 0 and text:
            self.first_ns = time.perf_counter_ns()
            sys.stdout = self.buffer
        else:
            self.lines_left -= text.count("\n")
        return self.buffer.write(text)

    def flush(self) -> None:
        pass


class Pass:
    """Runs requests one at a time; while ``traced`` is set, spans and cache
    hit counts are recorded for them."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.traced = False
        self.cache_hits: dict[str, list[int]] = {}

    def _start(self) -> int:
        clear_caches()
        gc.collect()
        self.tracer.on = self.traced
        return time.perf_counter_ns()

    def _stop(self) -> int:
        end = time.perf_counter_ns()
        self.tracer.on = False
        if self.traced:
            for name, cached in package_caches().items():
                info = cached.cache_info()
                totals = self.cache_hits.setdefault(name, [0, 0])
                totals[0] += info.hits
                totals[1] += info.misses
        return end

    def run_cli(self, req: workloads.Request) -> dict:
        buffer, err = io.StringIO(), io.StringIO()
        sink = FirstItemSink(buffer, req.header_lines())
        real_out, real_err = sys.stdout, sys.stderr
        argv = req.argv()
        start = self._start()
        sys.stdout, sys.stderr = sink, err
        try:
            code = ramsys.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed request, not a crashed pass
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
        finally:
            end = self._stop()
            sys.stdout, sys.stderr = real_out, real_err
        out = buffer.getvalue()
        outcome = self.check_cli(req, code, out, err.getvalue())
        first = sink.first_ns if sink.first_ns is not None else end
        return self._record(req, start, end, first, outcome, len(out))

    def check_cli(self, req, code, out, err) -> checks.Outcome:
        if req.kind == "classes":
            return checks.check_classes(req.n, code, out, err)
        ram = parse_ramification(req.spec, req.n)
        entries = [(str(lam), mult) for lam, mult in ram.entries]
        reference = count_rsc_stirling(ram)
        if req.kind == "count":
            return checks.check_count(entries, reference, req.fmt, code, out, err)
        return checks.check_reps(entries, reference, req.limit, code, out, err)

    def run_oracle(self, req: workloads.Request) -> dict:
        lam = CycleType.parse(req.spec)
        error = ""
        start = self._start()
        try:
            observed = oracle.orbit_count_class(lam, req.r)
        except Exception as exc:  # a crash is a failed request, not a crashed pass
            error = f"{type(exc).__name__}: {exc}"
        end = self._stop()
        if error:
            outcome = checks.Outcome(checks.ERROR, 0, error)
        else:
            mults = checks.parse_class(req.spec)
            points = checks.class_size(mults) * checks.gamma_rule(mults) ** req.r
            formula = count_rsc(Ramification(req.n, ((lam, req.r),)))
            outcome = checks.check_oracle(observed, formula, points)
        return self._record(req, start, end, end, outcome, 0)

    @staticmethod
    def _record(req, start, end, first, outcome, out_bytes) -> dict:
        record = {
            "id": req.id,
            "latency_ns": end - start,
            "first_ns": first - start,
            "items": outcome.items,
            "status": outcome.status,
            "stdout_bytes": out_bytes,
        }
        if outcome.reason:
            record["reason"] = outcome.reason
        return record

    def run(self, req: workloads.Request) -> dict:
        return self.run_oracle(req) if req.kind == "oracle" else self.run_cli(req)

    def run_all(self, requests: list[workloads.Request]) -> list[dict]:
        """Run and check each request; a record's ``loop_ns`` is the faster of
        the reference loops timed just before and just after its request."""
        records = []
        loop = calibration.loop_ns()
        for req in requests:
            record = self.run(req)
            after = calibration.loop_ns()
            record["loop_ns"] = min(loop, after)
            self.tracer.settle(calibration.REFERENCE_NS / record["loop_ns"])
            records.append(record)
            loop = after
        return records


def main(argv: list[str]) -> int:
    workload, seed, pass_number, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    requests = workloads.build(workload, seed, pass_number)
    # the Stirling table behind the count reference grows lazily and is never
    # freed; grow it once, up front, so its memory does not depend on the seed
    stirling_first(workloads.MAX_R, 1)
    runner = Pass()
    if trace:
        runner.tracer.install()
    for req in workloads.warmup(workload):
        runner.run(req)
    # what is alive now lives as long as the process: keep the collection
    # before each request from walking it
    gc.freeze()
    runner.traced = trace
    records = runner.run_all(requests)
    result = {
        "records": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        result["spans"] = runner.tracer.snapshot()
        result["caches"] = runner.cache_hits
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
