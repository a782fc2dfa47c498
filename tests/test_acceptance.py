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
from multlab.rng import block_generator


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
    # the containment check draws and sorts CONTAINMENT_CHUNK rows at a time,
    # not its 100000 x 20 samples in one piece (30.5 MiB traced); the first
    # call's lazy imports stay out of the peak
    barrier_events_mc([BarrierSpec(20, 20.0, 1.5, 1.0 / 7.0)], 10, ctx.seed)
    tracemalloc.start()
    try:
        result = acceptance._crit_barrier(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert result == (True, "C=5: 1.0000, C=10: 1.0000, C=20: 1.0000, C=40: 1.0000; "
                            "containment exact on 100000 samples")


class _RecordingGenerator:
    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def random(self, *, out):
        self.rng.random(out=out)
        self.draws.append(out.copy())


def test_barrier_containment_checks_the_one_piece_stream(ctx, monkeypatch):
    rec = _RecordingGenerator(block_generator(ctx.seed, 909, 0))
    monkeypatch.setattr(acceptance, "BARRIER_SAMPLES", 20_000)
    monkeypatch.setattr(acceptance, "block_generator", lambda *args: rec)
    assert acceptance._crit_barrier(ctx)[0]
    one_piece = block_generator(ctx.seed, 909, 0).random((acceptance.CONTAINMENT_SAMPLES, 20))
    assert np.array_equal(np.concatenate(rec.draws), one_piece)


def test_barrier_containment_sees_a_violation(ctx, monkeypatch):
    # a strong barrier one below the weak one holds on samples outside B
    thresholds = acceptance.barrier_thresholds
    monkeypatch.setattr(acceptance, "BARRIER_SAMPLES", 20_000)
    monkeypatch.setattr(acceptance, "barrier_thresholds",
                        lambda spec: (thresholds(spec)[0], thresholds(spec)[0] - 1.0))
    assert acceptance._crit_barrier(ctx) == (
        False, "containment violated: strong event outside weak event")
