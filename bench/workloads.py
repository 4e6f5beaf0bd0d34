"""Seeded request lists for the three workloads.

A pass is a list of distinct requests, built only from the workload name,
the seed and the pass number.  Each worker process runs one pass, so no
request repeats within a process; the driver runs as many passes as fit in
the measuring time.  Each workload has a fixed skeleton that sets its cost
profile (a sweep over n, a ladder of output limits, the oracle's table of
classes) and the seed and pass number fill in the rest, so every pass
measures the same kind of work and a run pools several draws.

This module does not import ramsys, so the driver can load it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

from checks import DIGIT_LIMIT, gamma_rule

WHY = {
    "count-sweep": (
        "closed-form path: classes and all:r tables over a sweep of n, plus sparse "
        "specs with large r; dominated by perm and counting set-up, no oracle work"
    ),
    "reps-stream": (
        "type-vector streaming for n <= 10, wide (all:r) and deep (1-3 classes, r 4-8) "
        "specs; dominated by enumerate_types, weak_compositions and printing"
    ),
    "oracle-check": (
        "brute-force orbit counts for every class of S_3..S_5 at r <= 2 and S_3, S_4 "
        "at r = 3; oracle does all the work, the closed form none"
    ),
}

WORKLOADS = tuple(WHY)

# reps-stream: largest number of weak compositions enumerate_types may
# materialise up front for one wide request (S_8 all:4 needs 23,858); keeps
# peak RSS far below the machine's memory.
MATERIALISE_CAP = 25_000
# Deep specs stay well under the wide ones, so the fixed wide requests set
# the peak whatever the seed.
DEEP_MATERIALISE_CAP = 10_000
REPS_REQUESTS = 200
DEEP_SHAPES = [(n, k) for n in (4, 5, 7, 8, 9, 10) for k in (1, 2, 3)]

# count-sweep: largest r in a sparse spec.  The count reference sums Stirling
# numbers s(r, k), whose table grows with r.
MAX_R = 200


@dataclass(frozen=True)
class Request:
    id: int
    kind: str                    # classes | count | reps | oracle
    n: int
    spec: str = ""               # ramification spec, or the class for oracle requests
    fmt: str = "table"
    limit: int = 0
    r: int = 0

    def argv(self) -> list[str]:
        if self.kind == "classes":
            return ["classes", str(self.n)]
        if self.kind == "count":
            return ["count", str(self.n), "--ramification", self.spec, "--format", self.fmt]
        if self.kind == "reps":
            return ["reps", str(self.n), "--ramification", self.spec, "--limit", str(self.limit)]
        raise ValueError(f"{self.kind} requests are not CLI calls")

    def header_lines(self) -> int:
        """Lines the CLI prints before its first output item."""
        return {"classes": 1, "count": 0 if self.fmt == "json" else 1, "reps": 3}[self.kind]


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def _mults(parts: tuple[int, ...]) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in parts:
        out[p] = out.get(p, 0) + 1
    return out


def _class_text(parts: tuple[int, ...], rng: random.Random) -> str:
    """Either input form the CLI accepts: `i^m` tokens or a part list."""
    if rng.random() < 0.3:
        return "[" + ",".join(map(str, parts)) + "]"
    return " ".join(f"{i}^{m}" for i, m in sorted(_mults(parts).items()))


@lru_cache(maxsize=None)
def _all_classes(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_partitions(n))


def _random_class(n: int, rng: random.Random) -> tuple[int, ...]:
    parts = []
    while n:
        parts.append(rng.randint(1, n))
        n -= parts[-1]
    return tuple(sorted(parts, reverse=True))


def _count_sweep(rng: random.Random) -> list[Request]:
    reqs: list[Request] = []
    # classes over a sweep of n
    for n in range(2, 33):
        reqs.append(Request(0, "classes", n))
    # all:r over a sweep of n; counts past the digit limit (all:3 from n = 21,
    # all:2 from 23, all:1 at 25-26) are kept: they show the known defect
    for n in range(2, 25):
        if n == 6:
            continue
        for r in (1, 2, 3):
            reqs.append(Request(0, "count", n, f"all:{r}", rng.choice(("table", "json"))))
    for n in (25, 26):
        reqs.append(Request(0, "count", n, "all:1", rng.choice(("table", "json"))))
    # sparse explicit specs with large r, kept below the digit limit
    seen: set[tuple[int, str]] = set()
    while len(seen) < 40:
        n = rng.randint(7, 40)
        chosen = sorted({_random_class(n, rng) for _ in range(rng.randint(1, 3))})
        rs = [round(20 * (MAX_R / 20) ** rng.random()) for _ in chosen]
        if _count(list(zip(chosen, rs))) >= 10 ** (DIGIT_LIMIT - 300):
            continue
        spec = ";".join(f"{_class_text(p, rng)}:{r}" for p, r in zip(chosen, rs))
        if (n, spec) in seen:
            continue
        seen.add((n, spec))
        reqs.append(Request(0, "count", n, spec, rng.choice(("table", "json"))))
    return reqs


def _count(spec_classes: list[tuple[tuple[int, ...], int]]) -> int:
    return prod(comb(gamma_rule(_mults(p)) + r - 1, r) for p, r in spec_classes)


def _materialised(spec_classes: list[tuple[tuple[int, ...], int]]) -> int:
    return sum(comb(gamma_rule(_mults(p)) + r - 1, r) for p, r in spec_classes)


def _reps_stream(rng: random.Random) -> list[Request]:
    # output limits: a geometric ladder from 10 to 1000 lines
    ladder = [round(10 * 100 ** (i / (REPS_REQUESTS - 1))) for i in range(REPS_REQUESTS)]
    # wide: all:r on every class, for every (n, r) within the materialisation
    # cap, each with a fixed rung of the ladder, so the largest outputs (and
    # with them peak RSS) do not depend on the seed
    wide = [
        (n, f"all:{r}")
        for n in (2, 3, 4, 5, 7, 8, 9, 10)
        for r in (1, 2, 3, 4)
        if _materialised([(p, r) for p in _all_classes(n)]) <= MATERIALISE_CAP
    ]
    rungs = {round(i * (REPS_REQUESTS - 1) / (len(wide) - 1)) for i in range(len(wide))}
    reqs = [Request(0, "reps", n, spec, limit=ladder[i]) for (n, spec), i in zip(wide, sorted(rungs))]
    # deep: 1-3 classes with r from 4 to 8 on the remaining rungs.  Each rung
    # takes the first shape (n, number of classes), in a fixed rotation, that
    # can print all its lines; the seed picks the classes and the r's.
    seen: set[tuple[int, str]] = set()
    rest = [limit for i, limit in enumerate(ladder) if i not in rungs]
    for j, limit in enumerate(rest):
        spec = None
        for shift in range(len(DEEP_SHAPES)):
            n, k = DEEP_SHAPES[(j + shift) % len(DEEP_SHAPES)]
            for _ in range(50):
                chosen = [(p, rng.randint(4, 8)) for p in rng.sample(_all_classes(n), k)]
                text = ";".join(f"{_class_text(p, rng)}:{r}" for p, r in chosen)
                if (_materialised(chosen) <= DEEP_MATERIALISE_CAP and _count(chosen) >= limit
                        and (n, text) not in seen):
                    spec = text
                    break
            if spec:
                break
        seen.add((n, spec))
        reqs.append(Request(0, "reps", n, spec, limit=limit))
    return reqs


def _oracle_check(rng: random.Random) -> list[Request]:
    reqs = []
    for n in (3, 4, 5):
        for parts in _all_classes(n):
            text = " ".join(f"{i}^{m}" for i, m in sorted(_mults(parts).items()))
            for r in (1, 2, 3) if n < 5 else (1, 2):
                reqs.append(Request(0, "oracle", n, text, r=r))
    return reqs


_BUILDERS = {
    "count-sweep": _count_sweep,
    "reps-stream": _reps_stream,
    "oracle-check": _oracle_check,
}


def build(workload: str, seed: int, pass_number: int) -> list[Request]:
    """Pass ``pass_number`` of (workload, seed): distinct requests in a seeded order."""
    rng = random.Random(f"{workload}:{seed}:{pass_number}")
    reqs = _BUILDERS[workload](rng)
    rng.shuffle(reqs)
    return [
        Request(i, r.kind, r.n, r.spec, r.fmt, r.limit, r.r) for i, r in enumerate(reqs)
    ]


def warmup(workload: str) -> list[Request]:
    """Untimed requests on S_1/S_2, which no pass contains, to load lazily
    initialised interpreter state (regex caches, json encoders) in a fresh worker."""
    if workload == "oracle-check":
        return [Request(-1, "oracle", 2, "2^1", r=1)]
    return [
        Request(-1, "classes", 1),
        Request(-2, "count", 1, "all:1", "table"),
        Request(-3, "count", 1, "all:1", "json"),
        Request(-4, "reps", 1, "all:1", limit=1),
    ]
