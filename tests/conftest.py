import gc
from array import array
from typing import NamedTuple

import pytest

import ramsys.perm
from ramsys.centralizer import gamma
from ramsys.perm import MAX_CLASS_LIST_N, enumerate_cycle_types


@pytest.fixture
def no_class_built(monkeypatch):
    """Fail at the first class the walk yields, so that a missing class-list
    bound fails the test instead of running out of memory.  The walk is the
    one source of class lists: `classes`, `count` and enumerate_cycle_types
    all read it, while a parsed class is built from its own pairs."""

    def refuse_walk(n):
        raise AssertionError(f"walked the classes of S_{n} past the class-list bound")
        yield

    monkeypatch.setattr(ramsys.perm, "_algorithm_p", refuse_walk)


class ClassWalk(NamedTuple):
    """What enumerate_cycle_types(n) lists, kept without its CycleTypes:
    the class count, their type texts joined by newlines, their γ in order,
    and the hash of the tuple of their (length, multiplicity) pairs."""

    count: int
    texts: str
    gammas: array
    cycles: int


@pytest.fixture(scope="session")
def class_walks():
    """One walk of the classes of S_1..S_45, 540,634 in all, shared by the
    tests that hold enumerate_cycle_types, walk_cycle_types and the CLI's
    class walk to each other; the classes themselves would hold about
    180 MB, so each n keeps a ClassWalk.  The garbage collector is paused
    while it is built: its full collections over the CycleTypes doubled
    the build's time (4.4 s against 2.2 s on a 2-core VM)."""
    # γ by gamma's own body: its memo would only fill with classes seen once
    uncached_gamma = gamma.__wrapped__
    walks = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for n in range(1, MAX_CLASS_LIST_N + 1):
            classes = enumerate_cycle_types(n)
            walks[n] = ClassWalk(
                len(classes),
                "\n".join(map(str, classes)),
                array("Q", map(uncached_gamma, classes)),
                hash(tuple([lam.cycles for lam in classes])),
            )
    finally:
        if enabled:
            gc.enable()
    return walks
