import pytest

import ramsys.perm


@pytest.fixture
def no_class_built(monkeypatch):
    """Fail at the first CycleType enumerate_cycle_types builds, so that a
    missing class-list bound fails the test instead of running out of memory."""

    def refuse(n, multiplicities):
        raise AssertionError(f"built a class of S_{n} past the class-list bound")

    monkeypatch.setattr(ramsys.perm, "_trusted_cycle_type", refuse)
