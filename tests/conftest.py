"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpus"])
def cpus(request, monkeypatch):
    """Solve pools (fem.map_solves) of request.param processes, whatever
    CPUs the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(request.param)), raising=False)
    return request.param
