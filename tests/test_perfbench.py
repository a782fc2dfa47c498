"""The benchmark under perfbench/ reaches multlab by name: its tracer wraps the
functions in `tracing.TRACED` and its workloads call those in `make_api()`.
A rename or deletion in src that drops one of them fails here, not only in a
traced benchmark run."""

import dataclasses
import importlib
import inspect
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


def test_tracer_hooks_read_existing_arguments(perfbench):
    # the traced run's hooks read these arguments by name; no Tier-1 test
    # starts a traced run, so a rename would otherwise pass unnoticed
    tracing, _ = perfbench

    def params(module, name):
        fn = getattr(importlib.import_module(f"multlab.{module}"), name)
        return set(inspect.signature(fn).parameters)

    for name in tracing.MC_FUNCTIONS:
        assert "n_samples" in params("orderstats", name), name
    assert {"method", "x", "y", "z"} <= params("counting", "count_hq")
    # the workloads read .value and the count_aq hook reads .method
    from multlab.counting import CountResult
    assert {"value", "method"} <= {f.name for f in dataclasses.fields(CountResult)}
    assert "block_fn" in params("rng", "run_blocks")
