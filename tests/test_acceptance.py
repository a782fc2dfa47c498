"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Every tolerance and grid is pinned inside the criterion functions; nothing
here loosens on failure.  A criterion that fails shows up red, with its
details line in the assertion message.
"""

import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from multlab import acceptance
from multlab.orderstats import BarrierSpec, barrier_events_mc


@pytest.fixture(scope="module")
def ctx():
    return acceptance.Context(seed=acceptance.DEFAULT_SEED, threads=1)


@pytest.mark.parametrize(
    "cid,name,fn",
    [(cid, name, fn) for cid, name, _tags, fn in acceptance.CRITERIA],
    ids=[c[0] for c in acceptance.CRITERIA],
)
def test_criterion(ctx, cid, name, fn):
    passed, details = fn(ctx)
    line = f"{cid} {'PASS' if passed else 'FAIL'} {name}: {details}"
    print(line)
    assert passed, line


def test_band_check_holds_every_value_to_its_fixture():
    fix = {"all": [1.0, 2.0]}
    assert acceptance._check_bands({"all": [1.0, 2.0]}, fix, 2.5)[0]
    assert not acceptance._check_bands({"all": [1.0, 2.0]}, fix, 1.5)[0]
    assert not acceptance._check_bands({"all": [1.0, 2.001]}, fix, 2.5)[0]
    with pytest.raises(ValueError):  # a short fixture must not pass silently
        acceptance._check_bands({"all": [1.0, 2.0, 1.5]}, fix, 2.5)


def test_derive_fixtures_check_writes_nothing(tmp_path, monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "derive_fixtures.py"
    spec = importlib.util.spec_from_file_location("derive_fixtures", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    bands = tmp_path / "bands.json"
    monkeypatch.setattr(script, "BANDS", bands)
    monkeypatch.setattr(script, "oracle_sweep", lambda seed: {"all": [1.0, 2.0]})
    stale = '{\n  "all": [\n    1.0,\n    3.0\n  ]\n}\n'
    bands.write_text(stale, encoding="utf-8")
    assert script.main(["--check"]) == 1
    assert "+    2.0" in capsys.readouterr().out
    assert bands.read_text(encoding="utf-8") == stale
    assert script.main([]) == 0
    assert script.main(["--check"]) == 0
    assert bands.read_text(encoding="utf-8") == stale.replace("3.0", "2.0")


def test_load_fixtures_names_the_missing_band_keys(monkeypatch):
    bands = acceptance.load_fixtures()
    kept = {k: v for k, v in bands.items() if k not in ("regime_ratio", "uk_envelope_K")}

    class Files:  # stands in for the package's resources, serving one text
        text = json.dumps(kept)

        def joinpath(self, name):
            assert name == "fixtures/bands.json"
            return self

        def read_text(self):
            return self.text

    monkeypatch.setattr(acceptance.resources, "files", lambda package: Files())
    with pytest.raises(ValueError, match=r"bands\.json.*'regime_ratio', 'uk_envelope_K'"):
        acceptance.load_fixtures()
    Files.text = json.dumps(bands)
    assert acceptance.load_fixtures() == bands


def test_lw_walks_every_squarefree_a(ctx):
    assert acceptance._crit_lw(ctx) == (True, "60794 squarefree a <= 100000, zero violations")


def test_criteria_filter_takes_comma_separated_terms():
    assert [c[0] for c in acceptance.select_criteria("c03,c07")] == ["c03", "c07"]
    assert [c[0] for c in acceptance.select_criteria("C07,zzz,")] == ["c07"]
    with pytest.raises(acceptance.ConfigError):
        acceptance.select_criteria(",")


def test_lw_names_the_smallest_violating_a(ctx, monkeypatch):
    # L tripled at a = 97 (omega 1) and a = 30 (omega 3): the block of 97
    # comes first, but c03 names the smallest violating a, and at that a the
    # first failing check in the order (i), (ii), (iii), Cauchy-Schwarz
    blocks = acceptance.squarefree_lw

    def tripled(n, logs):
        for a, primes, la, wa in blocks(n, logs):
            yield a, primes, np.where(np.isin(a, (30, 97)), 3.0 * la, la), wa

    monkeypatch.setattr(acceptance, "squarefree_lw", tripled)
    assert acceptance._crit_lw(ctx) == (False, "(i) violated at a=30")


def test_barrier_peak_memory_and_details(ctx):
    # the MC estimates hold one tile at a time, and containment is checked on
    # the barriers themselves, not on samples; the first call's lazy imports
    # stay out of the peak
    barrier_events_mc([BarrierSpec(20, 20.0, 1.5, 1.0 / 7.0)], 10, ctx.seed)
    tracemalloc.start()
    try:
        result = acceptance._crit_barrier(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert result == (True, "C=5: 1.0000, C=10: 1.0000, C=20: 1.0000, C=40: 1.0000; "
                            "strong barrier >= weak barrier in every coordinate")


def _plant_containment_gap(monkeypatch, c_shift, shift):
    # the strong barrier of the C = c_shift spec at i = 10 set `shift` below
    # the weak one, which lets B_strong hold outside B
    thresholds = acceptance.barrier_thresholds

    def planted(spec):
        weak, strong = thresholds(spec)
        if spec.c_shift == c_shift:
            strong = strong.copy()
            strong[9] = weak[9] - shift
        return weak, strong

    monkeypatch.setattr(acceptance, "barrier_thresholds", planted)


def test_barrier_containment_sees_a_violation(ctx, monkeypatch):
    # every spec is checked, not only the first (C = 5)
    _plant_containment_gap(monkeypatch, 10.0, 1.0)
    assert acceptance._crit_barrier(ctx) == (
        False, "containment violated at C=10: strong barrier below the weak one")


def test_barrier_containment_sees_a_gap_no_sample_finds(ctx, monkeypatch):
    # the check is on the barriers, not on samples, which would all but
    # never land in a gap of 1e-9
    _plant_containment_gap(monkeypatch, 5.0, 1e-9)
    assert acceptance._crit_barrier(ctx) == (
        False, "containment violated at C=5: strong barrier below the weak one")
