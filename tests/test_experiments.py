"""Experiment lifecycle: CSV bodies pinned to recorded digests, and manifest
timing that covers the whole run."""

import hashlib
import json
import time

import pytest

from multlab.acceptance import DETERMINISM_CONFIGS
from multlab.config import ConfigError
from multlab.counting import MAX_N_AQ
from multlab.experiments import HQ_SCAN_DEFAULTS, run_experiment
from multlab.primes import MAX_X_BITMAP

# sha256 of every table body at DETERMINISM_CONFIGS; any byte change fails
GOLDEN_CSV_SHA256 = {
    "hq_scan.csv": "b409b6fc5b3578c68de0649f32639d3dce9a2b415f9f9631c849b3a83f449ea0",
    "aq_dichotomy.csv": "674a800745eb9085b0c376ab4d54918b9a3bdd08af258b1834336fc00f9e3627",
    "poisson_phase.csv": "1a392722ea936c02afdb2ceed558d7b9dd49eecd9d076429d3cf289d13148ec4",
    "poisson_phase_gcurve.csv":
        "54c89d5fd711e134cd1ba46576ccaa5c033772f404a7cba9abc165f44ea6b04e",
    "smirnov.csv": "e9b0358fb546c53e001e7375344781ae3bce236011aa184fff1613ab4ca892bf",
}


def test_csv_bodies_match_golden_digests(tmp_path):
    got = {}
    for name, cfg in DETERMINISM_CONFIGS.items():
        res = run_experiment(name, dict(cfg), tmp_path / name)
        for path in res.csv_paths:
            got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == GOLDEN_CSV_SHA256


@pytest.mark.parametrize("name", sorted(DETERMINISM_CONFIGS))
def test_manifest_elapsed_covers_run(tmp_path, name):
    t0 = time.perf_counter()
    res = run_experiment(name, dict(DETERMINISM_CONFIGS[name]), tmp_path)
    wall = time.perf_counter() - t0
    elapsed = json.loads(res.manifest_path.read_text())["elapsed_seconds"]
    # half a millisecond of slack for the manifest write outside the clock
    assert elapsed >= 0.5 * wall - 0.0005, (elapsed, wall)


def _sections(res, name):
    manifest = json.loads(res.manifest_path.read_text())
    return [s for s in manifest["summary"]["sections"] if s["name"] == name]


def test_hq_scan_manifest_records_count_hq_timing(tmp_path):
    cfg = dict(DETERMINISM_CONFIGS["hq-scan"])
    res = run_experiment("hq-scan", cfg, tmp_path)
    timings = _sections(res, "count_hq")
    rows = res.tables["hq_scan"]
    assert [(t["q"], t["x"], t["y"], t["z"]) for t in timings] == \
        [(r["q"], r["x"], r["y"], r["z"]) for r in rows]
    assert all(t["method"] == HQ_SCAN_DEFAULTS["method"] for t in timings)
    assert [s["q"] for s in _sections(res, "prime_set")] == \
        list(dict.fromkeys(r["q"] for r in rows))
    header = (tmp_path / "hq_scan.csv").read_text().splitlines()[0]
    assert "elapsed" not in header and "method" not in header


def test_aq_dichotomy_manifest_records_count_aq_timing(tmp_path):
    cfg = dict(DETERMINISM_CONFIGS["aq-dichotomy"])
    res = run_experiment("aq-dichotomy", cfg, tmp_path)
    timings = _sections(res, "count_aq")
    rows = res.tables["aq_dichotomy"]
    # one curve per set, to the top of the grid, by the one method
    top = max(cfg["n_grid"])
    assert [(t["q"], t["n"], t["method"]) for t in timings] == \
        [(q, top, "increments") for q in dict.fromkeys(r["q"] for r in rows)]
    assert [s["q"] for s in _sections(res, "prime_set")] == \
        list(dict.fromkeys(r["q"] for r in rows))
    assert json.loads(res.manifest_path.read_text())["peak_rss_mb"] > 0
    header = (tmp_path / "aq_dichotomy.csv").read_text().splitlines()[0]
    assert "elapsed" not in header and "method" not in header


SECTION_NAMES = {
    "hq-scan": ["prime_set", "count_hq"],
    "aq-dichotomy": ["prime_set", "count_aq"],
    "poisson-phase": ["regimes", "gcurve"],
    "smirnov": ["daniels", "barrier", "yk"],
}


@pytest.mark.parametrize("name", sorted(DETERMINISM_CONFIGS))
def test_manifest_records_sections(tmp_path, name):
    res = run_experiment(name, dict(DETERMINISM_CONFIGS[name]), tmp_path)
    manifest = json.loads(res.manifest_path.read_text())
    sections = manifest["summary"]["sections"]
    assert list(dict.fromkeys(s["name"] for s in sections)) == SECTION_NAMES[name]
    assert all(s["elapsed_s"] >= 0 for s in sections)
    # the sections run one after another inside the manifest's clock
    assert sum(s["elapsed_s"] for s in sections) <= manifest["elapsed_seconds"]
    for path in res.csv_paths:
        assert "elapsed" not in path.read_text().splitlines()[0]


def test_aq_dichotomy_rejects_n_above_cap(tmp_path):
    with pytest.raises(ConfigError, match="capped"):
        run_experiment("aq-dichotomy", {"n_grid": [MAX_N_AQ + 1]}, tmp_path)


def test_hq_scan_rejects_x_above_bitmap_cap(tmp_path):
    # raised before any prime set is sieved up to x
    with pytest.raises(ConfigError, match="hq-scan: x capped"):
        run_experiment("hq-scan", {"x_grid": [MAX_X_BITMAP + 1.0]}, tmp_path)


@pytest.mark.parametrize("step", (1e-12, 5e-324, 6.9e-6))
def test_poisson_phase_caps_the_delta_curve(tmp_path, step):
    # rejected before any row is built: 1e-12 would ask for about 7e11 rows,
    # 5e-324 for an infinite span and 6.9e-6 for 101,450, just above the cap;
    # and before the regimes table is written
    with pytest.raises(ConfigError, match="delta curve capped at 100000 rows"):
        run_experiment("poisson-phase", {"delta_step": step}, tmp_path)
    assert not list(tmp_path.iterdir())
