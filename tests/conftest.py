import pytest

import ramsys.perm


@pytest.fixture
def no_class_built(monkeypatch):
    """Fail at the first class the walk yields and at the first CycleType
    enumerate_cycle_types builds, so that a missing class-list bound fails
    the test instead of running out of memory.  `classes` reads the walk and
    builds no CycleType, so the walk needs its own guard."""

    def refuse(n, cycles):
        raise AssertionError(f"built a class of S_{n} past the class-list bound")

    def refuse_walk(n):
        raise AssertionError(f"walked the classes of S_{n} past the class-list bound")
        yield

    monkeypatch.setattr(ramsys.perm, "_trusted_cycle_type", refuse)
    monkeypatch.setattr(ramsys.perm, "_algorithm_p", refuse_walk)
