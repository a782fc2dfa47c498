"""The benchmark under perfbench/ reaches multlab by name: its tracer wraps the
functions in `tracing.TRACED` and its workloads call those in `make_api()`.
A rename or deletion in src that drops one of them fails here, not only in a
traced benchmark run."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    # run.py imports these modules the same way, from its own directory
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_traced_functions_resolve(perfbench):
    tracing, _ = perfbench
    for module, name, _intra in tracing.TRACED:
        fn = getattr(importlib.import_module(f"multlab.{module}"), name, None)
        assert callable(fn), f"multlab.{module}.{name}"


def test_workload_api_builds(perfbench):
    _, workloads = perfbench
    api = workloads.make_api()
    assert all(callable(fn) for name, fn in vars(api).items() if name != "acceptance")
