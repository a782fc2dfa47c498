"""Named experiments wiring prime sets, counts, predictors, and simulations.

run_experiment fills a flat config dict from the experiment's defaults, typed
as they are, and runs the experiment's run_* body, which range-checks it, runs
the grid and hands its tables to a reporter that writes them plus a JSON
manifest into the output directory.
CSV bodies are pure functions of the config; wall-clock data lives only in the
manifest, as the sections a body times with rep.section, so identical configs
give byte-identical CSVs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, merged_config
from .counting import (AQ_METHOD, HQ_METHODS, MAX_N_AQ, MAX_X_EXHAUSTIVE, aq_curve, count_hq,
                       count_sq)
from .orderstats import (
    MAX_MC_K,
    YK_MU,
    BarrierSpec,
    barrier_events_mc,
    qk_exact,
    qk_mc,
    vol_yk_mc,
    yk_bound,
)
from .poisson import classify_regime, e_factor, g_exponent, main_term
from .primes import AUDIT_X_MIN, MAX_X_BITMAP, PrimeSet, density_audit, make_prime_set

AUDIT_GRID_POINTS = 12
DEFAULT_SEED = 20260825


def resolve_prime_set(desc: str, limit: int, seed: int = 0) -> PrimeSet:
    """Build a PrimeSet from a compact descriptor string.

    Forms: "all", "congruence:M:r1+r2+...", "thinned:DENSITY" (hash keyed by
    the run seed) or "thinned:DENSITY:SEED" to pin the hash key explicitly.
    """
    parts = desc.strip().split(":")
    kind = parts[0]
    try:
        if kind == "all" and len(parts) == 1:
            return make_prime_set("all", limit)
        if kind == "congruence" and len(parts) == 3:
            residues = tuple(int(r) for r in parts[2].split("+"))
            return make_prime_set("congruence", limit,
                                  modulus=int(parts[1]), residues=residues)
        if kind == "thinned" and len(parts) in (2, 3):
            key = int(parts[2]) if len(parts) == 3 else seed
            return make_prime_set("thinned", limit,
                                  target_density=float(parts[1]), seed=key)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad prime-set descriptor {desc!r}: {exc}") from exc
    raise ConfigError(f"unknown prime-set descriptor {desc!r} "
                      "(expected all | congruence:M:r1+r2 | thinned:D[:SEED])")


def audit_summary(ps: PrimeSet) -> dict:
    """Descriptor plus the density audit every report must carry."""
    grid = np.geomspace(AUDIT_X_MIN, ps.limit, AUDIT_GRID_POINTS)
    return {**ps.descriptor(), **density_audit(ps, grid)}


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass
class ExperimentResult:
    name: str
    out_dir: Path
    csv_paths: list[Path] = field(default_factory=list)
    manifest_path: Path | None = None
    tables: dict[str, list[dict]] = field(default_factory=dict)
    summary: dict = field(default_factory=dict)


class _Reporter:
    """Accumulates tables and writes the CSV/JSON artifacts plus manifest."""

    def __init__(self, name: str, out_dir, cfg: dict, fmt: str, threads: int):
        if fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {fmt!r}")
        self.cfg = cfg
        self.fmt = fmt
        self.threads = threads
        # what the body passed on to a threaded kernel; 1 unless it sets this
        self.threads_used = 1
        self.t0 = time.perf_counter()
        self.result = ExperimentResult(name, Path(out_dir))
        self.prime_audits: list[dict] = []
        self.files: dict[str, str] = {}

    @contextmanager
    def section(self, name: str, **fields):
        """Time the body, which gets the entry {name, **fields} and may add
        to it; the entry, with elapsed_s, goes to the manifest's
        summary["sections"], in the order the sections ended."""
        entry = {"name": name, **fields}
        t0 = time.perf_counter()
        yield entry
        entry["elapsed_s"] = round(time.perf_counter() - t0, 6)
        self.result.summary.setdefault("sections", []).append(entry)

    def add_table(self, stem: str, header: list[str], rows: list[dict]) -> None:
        self.result.tables[stem] = rows
        out_dir = self.result.out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        if self.fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt_cell(row.get(col)) for col in header])
            body = buf.getvalue()
            path = out_dir / f"{stem}.csv"
        else:
            body = json.dumps(rows, indent=2, sort_keys=True) + "\n"
            path = out_dir / f"{stem}.json"
        path.write_text(body, encoding="utf-8")
        self.files[path.name] = hashlib.sha256(body.encode("utf-8")).hexdigest()
        self.result.csv_paths.append(path)

    def finish(self) -> ExperimentResult:
        manifest = {
            "experiment": self.result.name,
            "artifact_version": __version__,
            "config": self.cfg,
            "seed": self.cfg["seed"],
            "threads": self.threads,
            "threads_used": self.threads_used,
            "prime_sets": self.prime_audits,
            "summary": self.result.summary,
            "files": self.files,
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "elapsed_seconds": round(time.perf_counter() - self.t0, 6),
            # the process's high-water mark (KiB on Linux), so it includes
            # any earlier peak of an in-process caller
            "peak_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }
        path = self.result.out_dir / f"{self.result.name}_manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        self.result.manifest_path = path
        return self.result


HQ_SCAN_DEFAULTS = {
    "prime_sets": ["all", "congruence:4:1"],
    "x_grid": [10_000_000.0],
    "y_grid": [100.0, 316.22776601683796, 1000.0],
    "z_factor": 2.0,
    "method": "divisor-multiples",
    "seed": DEFAULT_SEED,
}


def run_hq_scan(cfg: dict, rep: _Reporter) -> None:
    """Brute-force H_Q(x, y, z_factor*y) against the predictor over a grid."""
    x_grid, y_grid, zf = cfg["x_grid"], cfg["y_grid"], cfg["z_factor"]
    if max(x_grid) > MAX_X_BITMAP:
        raise ConfigError(f"hq-scan: x capped at {MAX_X_BITMAP}, got {max(x_grid)}")
    if not (min(x_grid) >= max(y_grid) and min(y_grid) > math.e):
        raise ConfigError(f"hq-scan: need every x >= every y > e, got x_grid "
                          f"{x_grid}, y_grid {y_grid}")
    if zf <= 1.0:
        raise ConfigError(f"hq-scan: z_factor must exceed 1, got {zf}")
    if cfg["method"] not in HQ_METHODS:
        raise ConfigError(f"hq-scan: method must be one of {', '.join(HQ_METHODS)}, "
                          f"got {cfg['method']!r}")
    if cfg["method"] == "exhaustive" and max(x_grid) > MAX_X_EXHAUSTIVE:
        raise ConfigError(f"hq-scan: exhaustive method capped at x <= "
                          f"{MAX_X_EXHAUSTIVE}, got {max(x_grid)}")
    limit = max(math.floor(max(x_grid)), AUDIT_X_MIN)  # the density audit's grid starts there

    rows = []
    method = cfg["method"]
    for desc in cfg["prime_sets"]:
        with rep.section("prime_set", q=desc):
            ps = resolve_prime_set(desc, limit, cfg["seed"])
            rep.prime_audits.append(audit_summary(ps))
        for x in x_grid:
            for y in y_grid:
                z = zf * y
                with rep.section("count_hq", q=desc, x=x, y=y, z=z, method=method):
                    count = count_hq(ps, x, y, z, method=method).value
                pred = main_term(x, y, ps.delta)
                rows.append({
                    "q": desc, "x": x, "y": y, "z": z,
                    "delta": ps.delta, "count": count, "predictor": pred,
                    "ratio": count / pred,
                })
        del ps  # else its bitmap lives on while the next set builds its own
    rep.add_table("hq_scan",
                  ["q", "x", "y", "z", "delta", "count", "predictor", "ratio"],
                  rows)


AQ_DICHOTOMY_DEFAULTS = {
    "prime_sets": ["all", "thinned:0.4"],
    "n_grid": [1000, 10_000, 100_000],
    "slope_threshold": -0.02,
    "seed": DEFAULT_SEED,
}


def run_aq_dichotomy(cfg: dict, rep: _Reporter) -> None:
    """A_Q(N) / |S_Q(N)|^2 over an N grid, with a log-log slope per prime set.

    The slope fit flags each Q as "flat" (product set has full relative size,
    the low-density side of the dichotomy) or "decaying".
    """
    n_grid = sorted(cfg["n_grid"])
    if n_grid[0] < 1:
        raise ConfigError(f"aq-dichotomy: N must be >= 1, got {n_grid[0]}")
    if n_grid[-1] > MAX_N_AQ:
        raise ConfigError(f"aq-dichotomy: N capped at {MAX_N_AQ}, got {n_grid[-1]}")
    limit = max(n_grid[-1], AUDIT_X_MIN)

    rows = []
    slopes = {}
    for desc in cfg["prime_sets"]:
        with rep.section("prime_set", q=desc):
            ps = resolve_prime_set(desc, limit, cfg["seed"])
            rep.prime_audits.append(audit_summary(ps))
        with rep.section("count_aq", q=desc, n=n_grid[-1], method=AQ_METHOD):
            curve = aq_curve(ps, n_grid[-1])
        ratios = []
        for n in n_grid:
            sq = count_sq(ps, n)
            aq = int(curve[n])
            ratio = aq / sq**2
            ratios.append(ratio)
            rows.append({
                "q": desc, "delta": ps.delta, "n": n, "sq_count": sq,
                "aq_count": aq, "ratio": ratio,
            })
        if len(n_grid) >= 2:
            slope = float(np.polyfit(np.log(n_grid), np.log(ratios), 1)[0])
        else:
            slope = 0.0
        trend = "decaying" if slope <= cfg["slope_threshold"] else "flat"
        slopes[desc] = {"slope": slope, "trend": trend, "delta": ps.delta}
        del ps, curve  # else they live on while the next set builds its own
    rep.result.summary["slopes"] = slopes
    rep.add_table("aq_dichotomy",
                  ["q", "delta", "n", "sq_count", "aq_count", "ratio"],
                  rows)


POISSON_PHASE_DEFAULTS = {
    "lambda_grid": [50.0, 100.0, 110.0, 121.0],
    "v_grid": [50, 100],
    "epsilon": 0.1,
    "delta_min": 0.3,
    "delta_max": 1.0,
    "delta_step": 0.01,
    "loglog_y": 30.0,
    "seed": DEFAULT_SEED,
}
MAX_GCURVE_ROWS = 100_000  # the defaults give 71 rows of the delta curve


def run_poisson_phase(cfg: dict, rep: _Reporter) -> None:
    """Regime-classification sweep plus the exponent curve behind the phase plot."""
    lam_grid, v_grid, eps = cfg["lambda_grid"], cfg["v_grid"], cfg["epsilon"]
    if not (min(lam_grid) > 0 and min(v_grid) >= 1 and 0 < eps < 1):
        raise ConfigError("poisson-phase: need every lambda > 0, every v >= 1 "
                          "and 0 < epsilon < 1")
    d0, d1, step, lly = (cfg[key] for key in ("delta_min", "delta_max",
                                              "delta_step", "loglog_y"))
    if not (0.0 < d0 <= d1 <= 1.0 and step > 0 and lly > 0):
        raise ConfigError("poisson-phase: need 0 < delta_min <= delta_max <= 1, "
                          "delta_step > 0 and loglog_y > 0")
    span = (d1 - d0) / step + 1e-9  # the curve has floor(span) + 1 rows
    if not span < MAX_GCURVE_ROWS:
        raise ConfigError(f"poisson-phase: delta curve capped at {MAX_GCURVE_ROWS} "
                          f"rows, got delta_step {step!r}")

    with rep.section("regimes"):
        rows = []
        for v in v_grid:
            for lam in lam_grid:
                r = classify_regime(lam, v, eps)
                rows.append({
                    "lambda": lam, "v": v, "theta": r.theta,
                    "regime": r.regime, "exact_sum_log": r.log_exact_sum,
                    "envelope_log": r.log_envelope, "ratio": r.ratio,
                })
        rep.add_table("poisson_phase",
                      ["lambda", "v", "theta", "regime", "exact_sum_log",
                       "envelope_log", "ratio"],
                      rows)

    with rep.section("gcurve"):
        rows = []
        for i in range(int(math.floor(span)) + 1):
            d = min(d0 + i * step, 1.0)
            rows.append({
                "delta": d, "g_exponent": g_exponent(d),
                "e_factor": e_factor(lly, d), "loglog_y": lly,
            })
        rep.add_table("poisson_phase_gcurve",
                      ["delta", "g_exponent", "e_factor", "loglog_y"],
                      rows)


SMIRNOV_DEFAULTS = {
    "daniels_k": [1, 2, 3, 4, 5, 6, 7, 8],
    "daniels_v_offset": [0, 1, 2, 3, 4],
    "daniels_u": [0.5, 1.0],
    "daniels_samples": 100_000,
    "barrier_k": 20,
    "barrier_v": 20.0,
    "barrier_c": [5.0, 10.0, 20.0, 40.0],
    "barrier_mu": 1.0 / 6.0 - 1.0 / 42.0,
    "barrier_samples": 200_000,
    "yk_k": [2, 3, 4, 5],
    "yk_v_factor": [1.0, 2.0],
    "yk_c": 40.0,
    "yk_m": 5,
    "yk_samples": 100_000,
    "seed": DEFAULT_SEED,
}

_SMIRNOV_HEADER = ["op", "k", "v", "u", "C", "M", "mu", "n",
                   "estimate", "std_error", "seed"]


def run_smirnov(cfg: dict, rep: _Reporter) -> None:
    """Order-statistics study: Daniels exact vs MC, barrier conditioning, Y_k."""
    base_seed = cfg["seed"]
    dn, bn, yn = cfg["daniels_samples"], cfg["barrier_samples"], cfg["yk_samples"]
    if min(dn, bn, yn) < 1:
        raise ConfigError(f"smirnov: sample counts must be >= 1, got "
                          f"{dn}, {bn}, {yn}")
    daniels = [(k, k + off, u) for k in cfg["daniels_k"]
               for off in cfg["daniels_v_offset"] for u in cfg["daniels_u"]]
    for k, v, u in daniels:
        if not (k >= 1 and k - v < u <= 1):
            raise ConfigError(f"smirnov: Daniels point k={k}, v={v}, u={u} "
                              "needs k >= 1 and k - v < u <= 1")
    bk, bv, bmu = (cfg[key] for key in ("barrier_k", "barrier_v", "barrier_mu"))
    try:
        specs = [BarrierSpec(bk, bv, c, bmu) for c in cfg["barrier_c"]]
    except ValueError as exc:  # BarrierSpec only validates its fields
        raise ConfigError(f"smirnov: barrier: {exc}") from None
    yc, ym = cfg["yk_c"], cfg["yk_m"]
    if ym < 0:
        raise ConfigError(f"smirnov: yk_m must be >= 0, got {ym}")
    yk_points = [(k, f * k) for k in cfg["yk_k"] for f in cfg["yk_v_factor"]]
    for k, vt in yk_points:
        if not 1 <= k <= min(vt, MAX_MC_K):
            raise ConfigError(f"smirnov: Y_k point k={k}, v_tilde={vt} "
                              f"needs 1 <= k <= v_tilde and k <= {MAX_MC_K}")

    rows = []
    rep.threads_used = rep.threads  # every MC kernel below runs on rep.threads
    with rep.section("daniels"):
        for point, (k, v, u) in enumerate(daniels):
            exact = float(qk_exact(u, v, k))
            rows.append({"op": "qk_exact", "k": k, "v": v, "u": u,
                         "estimate": exact, "std_error": 0.0})
            est = qk_mc(u, v, k, dn, base_seed + point, threads=rep.threads)
            rows.append({"op": "qk_mc", "k": k, "v": v, "u": u,
                         "n": est.n_samples, "estimate": est.estimate,
                         "std_error": est.std_error, "seed": est.seed})

    with rep.section("barrier"):
        estimates = barrier_events_mc(specs, bn, base_seed, threads=rep.threads)
        for spec, (p_b, p_s, p_cond) in zip(specs, estimates):
            for op, est in (("p_weak", p_b), ("p_strong", p_s), ("p_cond", p_cond)):
                rows.append({"op": op, "k": bk, "v": bv, "C": spec.c_shift, "mu": bmu,
                             "n": est.n_samples, "estimate": est.estimate,
                             "std_error": est.std_error, "seed": est.seed})

    with rep.section("yk"):
        for k, vt in yk_points:
            est = vol_yk_mc(k, vt, yc, ym, yn, base_seed, threads=rep.threads)
            bound = yk_bound(k, vt)
            rows.append({"op": "yk_vol", "k": k, "v": vt, "C": yc, "M": ym,
                         "mu": YK_MU, "n": est.n_samples,
                         "estimate": est.estimate, "std_error": est.std_error,
                         "seed": est.seed})
            rows.append({"op": "yk_bound", "k": k, "v": vt, "C": yc, "M": ym,
                         "mu": YK_MU, "estimate": bound, "std_error": 0.0})

    rep.add_table("smirnov", _SMIRNOV_HEADER, rows)


EXPERIMENTS = {
    "hq-scan": (run_hq_scan, HQ_SCAN_DEFAULTS),
    "aq-dichotomy": (run_aq_dichotomy, AQ_DICHOTOMY_DEFAULTS),
    "poisson-phase": (run_poisson_phase, POISSON_PHASE_DEFAULTS),
    "smirnov": (run_smirnov, SMIRNOV_DEFAULTS),
}


def run_experiment(name: str, cfg: dict | None, out_dir, *, seed=None,
                   threads: int = 1, fmt: str = "csv") -> ExperimentResult:
    """Run one named experiment; the manifest's clock covers the whole body."""
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r} "
                          f"(have: {', '.join(sorted(EXPERIMENTS))})")
    body, defaults = EXPERIMENTS[name]
    overrides = dict(cfg or {})
    if seed is not None:
        overrides["seed"] = seed
    cfg = merged_config(defaults, overrides, name)
    rep = _Reporter(name.replace("-", "_"), out_dir, cfg, fmt, threads)
    body(cfg, rep)
    return rep.finish()
