"""Acceptance suite: thirteen runnable criteria covering the whole package.

Each criterion is a self-contained check with pinned tolerances.  Derived
regression bands (order-of-magnitude results have no published constants)
live in fixtures/bands.json, produced once by oracle_sweep() and asserted
against thereafter; regenerate with scripts/derive_fixtures.py.
"""

from __future__ import annotations

import json
import math
import random
import tempfile
import time
import filecmp
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np

from .config import ConfigError
from .counting import aq_curve, count_hq, count_rough
from .divisors import factorize, log_table, squarefree_lw
from .experiments import (
    DEFAULT_SEED,
    HQ_SCAN_DEFAULTS,
    SMIRNOV_DEFAULTS,
    resolve_prime_set,
    run_experiment,
)
from .orderstats import (
    YK_SAFETY,  # noqa: F401  (perfbench reads acceptance.YK_SAFETY)
    BarrierSpec,
    barrier_events_mc,
    barrier_thresholds,
    qk_exact,
    qk_mc,
    uk_mc,
    vol_lower_barrier_exact,
    vol_yk_mc,
    yk_bound,
)
from .poisson import (
    classify_regime,
    e_factor,
    g_exponent,
    key_identity_rhs,
    main_term,
    partial_poisson,
    poisson_sum,
)
from .primes import LOG2, PrimeSet

# ---------------------------------------------------------------------------
# pinned grids and tolerances (changing any of these changes what is accepted);
# grids the experiments also run come from their *_DEFAULTS

IDENTITY_V_MAX = 60

DANIELS_KS = tuple(SMIRNOV_DEFAULTS["daniels_k"])
DANIELS_V_OFFSETS = tuple(SMIRNOV_DEFAULTS["daniels_v_offset"])
DANIELS_US = tuple(Fraction(u) for u in SMIRNOV_DEFAULTS["daniels_u"])
DANIELS_MC_SAMPLES = 1_000_000
DANIELS_MC_SIGMA = 4.0
DANIELS_MC_PASS_FRACTION = 0.99

LW_LIMIT = 100_000
LW_EPS = 1e-9

FUZZ_CASES = 500
FUZZ_X_MAX = 100_000
SANDWICH_N_MAX = 300

ROUGH_X = 10_000_000
ROUGH_Z_GRID = (10.0, 100.0, 1000.0)
ROUGH_SPREAD_MAX = 2.5

JUNCTION = 1.0 / math.log(4.0)
G_BRANCH_TOL = 1e-12
G_AT_ONE = 0.086071
G_AT_ONE_TOL = 1e-6
E_CONTINUITY_H = 1e-9
E_CONTINUITY_TOL = 1e-6

REGIME_EPSILON = 0.1
REGIME_SPREAD_MAX = 5.0
# (expected regime, lambda, v); thetas chosen to sit strictly inside each case
REGIME_GRID = (
    ("i", 50.0, 63), ("i", 100.0, 125), ("i", 1000.0, 1250), ("i", 10000.0, 12500),
    ("ii", 20.0, 10), ("ii", 30.0, 10), ("ii", 200.0, 100), ("ii", 300.0, 100),
    ("ii", 2000.0, 1000), ("ii", 3000.0, 1000), ("ii", 9999.0, 3333),
    ("iii", 4.0, 4), ("iii", 10.0, 10), ("iii", 100.0, 100),
    ("iii", 1000.0, 1000), ("iii", 10000.0, 10000),
    ("iii", 105.0, 100), ("iii", 95.0, 100),
    ("iii", 1015.0, 1000), ("iii", 985.0, 1000),
    ("iii", 10050.0, 10000), ("iii", 9950.0, 10000),
    ("iv", 1000.0, 1063), ("iv", 4000.0, 4126), ("iv", 4000.0, 4240),
    ("iv", 10000.0, 10200), ("iv", 10000.0, 10390),
    ("v", 1000.0, 937), ("v", 4000.0, 3874), ("v", 4000.0, 3760),
    ("v", 10000.0, 9800), ("v", 10000.0, 9610),
)

# integer lambdas, because Ramanujan's bound on P(Pois(n) <= n) needs one;
# the slack is partial_poisson's promised relative accuracy
GAUSSIAN_POINTS = (100, 10_000)
GAUSSIAN_REL_SLACK = 1e-9

BARRIER_SAMPLES = 1_000_000
BARRIER_FINAL_MIN = 0.9

YK_KS = range(2, 11)
YK_C = SMIRNOV_DEFAULTS["yk_c"]
YK_M = SMIRNOV_DEFAULTS["yk_m"]
YK_SAMPLES = 200_000
YK_SIGMA = 4.0

UK_KS = range(1, 13)
UK_V_OFFSETS = range(0, 7)
UK_SAMPLES = 100_000

HQ_SPREAD_MAX = 3.0

FIXTURE_REL_TOL = 1e-6

DETERMINISM_CONFIGS = {
    "hq-scan": {"x_grid": [100_000], "y_grid": [20.0, 50.0], "seed": 11},
    "aq-dichotomy": {"prime_sets": ["all", "thinned:0.4"],
                     "n_grid": [100, 1000], "seed": 11},
    "poisson-phase": {"lambda_grid": [10.0, 25.0], "v_grid": [10, 25],
                      "delta_min": 0.5, "delta_max": 0.7, "delta_step": 0.05,
                      "seed": 11},
    "smirnov": {"daniels_k": [2, 3], "daniels_v_offset": [0, 2],
                "daniels_samples": 20_000, "barrier_k": 8,
                "barrier_samples": 20_000, "yk_k": [2, 3],
                "yk_samples": 20_000, "seed": 11},
}
THREAD_COUNTS = (1, 4, 8)


def load_fixtures() -> dict:
    bands = json.loads(resources.files("multlab").joinpath("fixtures/bands.json").read_text())
    keys = ("hq_ratio", "regime_ratio", "rough_scaled", "uk_envelope_K")  # what the criteria read
    if missing := [k for k in keys if k not in bands]:
        raise ValueError(f"fixtures/bands.json lacks the band keys {missing}")
    return bands


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    details: str
    elapsed: float


@dataclass
class Context:
    seed: int = DEFAULT_SEED
    threads: int = 1
    _prime_sets: dict = field(default_factory=dict)
    _fixtures: dict | None = None

    def prime_set(self, kind: str, limit: int) -> PrimeSet:
        key = (kind, limit)
        if key not in self._prime_sets:
            desc = {"all": "all", "1mod4": "congruence:4:1"}.get(kind)
            if desc is None:
                raise ValueError(f"unknown cached prime set {kind!r}")
            self._prime_sets[key] = resolve_prime_set(desc, limit)
        return self._prime_sets[key]

    def fixtures(self) -> dict:
        if self._fixtures is None:
            self._fixtures = load_fixtures()
        return self._fixtures


def _within_band(value: float, band, rel: float = FIXTURE_REL_TOL) -> bool:
    lo, hi = band
    return lo * (1.0 - rel) <= value <= hi * (1.0 + rel)


def _check_bands(values: dict[str, list[float]], fixture: dict,
                 spread_max: float) -> tuple[bool, str]:
    """Per prime set: spread max/min at most spread_max, and each value
    within FIXTURE_REL_TOL of its fixture value."""
    notes = []
    for kind, vals in values.items():
        spread = max(vals) / min(vals)
        if spread > spread_max:
            return False, f"spread {spread:.3f} > {spread_max} for {kind}"
        for got, want in zip(vals, fixture[kind], strict=True):
            if abs(got / want - 1.0) > FIXTURE_REL_TOL:
                return False, f"regression drift for {kind}: {got} vs fixture {want}"
        notes.append(f"{kind}: spread {spread:.3f}")
    return True, "; ".join(notes)


# ---------------------------------------------------------------------------
# criteria


def _crit_identity(ctx: Context) -> tuple[bool, str]:
    checked = 0
    for v in range(1, IDENTITY_V_MAX + 1):
        lams = {Fraction(1, 2), Fraction(1), Fraction(2),
                Fraction(v - 1), Fraction(v), Fraction(v + 3), Fraction(2 * v)}
        for lam in sorted(lams):
            if poisson_sum(lam, v) != key_identity_rhs(lam, v):
                return False, f"identity broken at lambda={lam}, v={v}"
            checked += 1
    return True, f"{checked} rational identity checks, all exact"


def _crit_daniels(ctx: Context) -> tuple[bool, str]:
    points = failures = 0
    worst = 0.0
    grid = product(DANIELS_KS, DANIELS_V_OFFSETS, DANIELS_US)
    for idx, (k, off, u) in enumerate(grid):
        v = k + off
        q = qk_exact(u, v, k)
        bounds = [max(Fraction(0), Fraction(i - u, v)) for i in range(1, k + 1)]
        if q != math.factorial(k) * vol_lower_barrier_exact(bounds):
            return False, f"exact mismatch at u={u}, v={v}, k={k}"
        exact = float(q)
        est = qk_mc(float(u), v, k, DANIELS_MC_SAMPLES, ctx.seed + idx,
                    threads=ctx.threads)
        if est.std_error == 0.0:  # degenerate points where Q_k = 0 or 1
            dev = 0.0 if est.estimate == exact else math.inf
        else:
            dev = abs(est.estimate - exact) / est.std_error
        worst = max(worst, dev)
        points += 1
        if dev > DANIELS_MC_SIGMA:
            failures += 1
    ok = failures <= points * (1.0 - DANIELS_MC_PASS_FRACTION)
    return ok, (f"{points} exact equalities; MC {points - failures}/{points} within "
                f"{DANIELS_MC_SIGMA} sigma (worst {worst:.2f})")


def _squarefree_count(n: int) -> int:
    """#{squarefree a <= n} = sum over d <= sqrt(n) of mu(d) * floor(n / d^2)."""
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        factors = factorize(d)
        if all(e == 1 for _, e in factors):  # mu(d) != 0
            total += (-1) ** len(factors) * (n // (d * d))
    return total


def _crit_lw(ctx: Context) -> tuple[bool, str]:
    # L(a) by a, for (ii): a / P+(a) is 1 or, as P+(a) >= 3 once omega >= 2, <= N / 3
    l_of = np.zeros(LW_LIMIT // 3 + 1)
    checked = 0
    worst = None  # (a, check) at the smallest violating a, whatever the block order
    logs = log_table(LW_LIMIT // 2)  # every prime of an a with omega >= 2 is <= a / 2
    for a, primes, la, wa in squarefree_lw(LW_LIMIT, logs):
        stored = a <= LW_LIMIT // 3
        l_of[a[stored]] = la[stored]
        omega = primes.shape[1]
        tau = 1 << omega
        log_a = np.fromiter(map(math.log, a.tolist()), np.float64, a.size)
        prefix = 0.0
        best = LOG2 * tau  # j = 0 term
        for j in range(1, omega + 1):
            prefix += logs[primes[:, j - 1]] if omega > 1 else log_a
            best = np.minimum(best, 2.0 ** (omega - j) * (prefix + LOG2))
        fails = {
            "(i)": la > np.minimum(LOG2 * tau, LOG2 + log_a) + LW_EPS,
            "(ii)": la > 2.0 * (l_of[a // primes[:, -1]] if omega else np.inf) + LW_EPS,
            "(iii)": la > best + LW_EPS,
            "Cauchy-Schwarz bound": la < LOG2 * tau * tau / wa - LW_EPS,
        }
        bad = np.flatnonzero(np.logical_or.reduce(tuple(fails.values())))
        if bad.size and (worst is None or a[bad[0]] < worst[0]):
            worst = int(a[bad[0]]), next(c for c, fail in fails.items() if fail[bad[0]])
        checked += a.size
    if worst is not None:
        return False, f"{worst[1]} violated at a={worst[0]}"
    expected = _squarefree_count(LW_LIMIT)
    if checked != expected:
        return False, f"walked {checked} squarefree a <= {LW_LIMIT}, expected {expected}"
    return True, f"{checked} squarefree a <= {LW_LIMIT}, zero violations"


def _crit_counting(ctx: Context) -> tuple[bool, str]:
    sets = (ctx.prime_set("all", FUZZ_X_MAX), ctx.prime_set("1mod4", FUZZ_X_MAX))
    rng = random.Random(ctx.seed)
    log_span = math.log(FUZZ_X_MAX) - math.log(2.0)
    for i in range(FUZZ_CASES):
        if i % 25 == 0:
            x = float(rng.randint(FUZZ_X_MAX // 2, FUZZ_X_MAX))
        else:
            x = math.exp(math.log(2.0) + rng.random() * log_span)
        y = rng.uniform(0.0, x * 0.99)
        z = rng.uniform(y, x)
        ps = sets[i % 2]
        a = count_hq(ps, x, y, z, method="divisor-multiples").value
        b = count_hq(ps, x, y, z, method="exhaustive").value
        if a != b:
            return False, f"method mismatch at x={x:.1f}, y={y:.3f}, z={z:.3f}, q={ps.kind}"

    for kind in ("all", "1mod4"):
        ps = ctx.prime_set(kind, SANDWICH_N_MAX * SANDWICH_N_MAX)
        for n, aq in enumerate(aq_curve(ps, SANDWICH_N_MAX).tolist()[1:], start=1):
            # the lower-bound count is over [1, n^2/4], empty for n = 1
            lower = (count_hq(ps, n * n / 4.0, n / 4.0, n / 2.0).value
                     if n >= 2 else 0)
            upper = 0
            k = 0
            while n * n / 2.0**k >= 1.0:
                upper += count_hq(ps, n * n / 2.0**k, n / 2.0 ** (k + 1),
                                  n / 2.0**k).value
                k += 1
            if not lower <= aq <= upper:
                return False, f"sandwich broken at N={n}, q={kind}: {lower}, {aq}, {upper}"
    return True, (f"{FUZZ_CASES} fuzzed method agreements; sandwich exact for "
                  f"N <= {SANDWICH_N_MAX} on both prime sets")


def _rough_scaled(ctx: Context) -> dict[str, list[float]]:
    out = {}
    for kind in ("all", "1mod4"):
        ps = ctx.prime_set(kind, ROUGH_X)
        vals = []
        for z in ROUGH_Z_GRID:
            c = count_rough(ps, ROUGH_X, z)
            vals.append(c * math.log(ROUGH_X) ** (1.0 - ps.delta)
                        * math.log(z) ** ps.delta / ROUGH_X)
        out[kind] = vals
    return out


def _crit_rough(ctx: Context) -> tuple[bool, str]:
    return _check_bands(_rough_scaled(ctx), ctx.fixtures()["rough_scaled"],
                        ROUGH_SPREAD_MAX)


def _crit_predictor(ctx: Context) -> tuple[bool, str]:
    left = 1.0 - JUNCTION
    right = JUNCTION - (1.0 + math.log(JUNCTION * LOG2)) / LOG2
    if abs(left - right) > G_BRANCH_TOL:
        return False, f"g branches disagree at the junction by {abs(left - right):.2e}"
    if abs(g_exponent(1.0) - G_AT_ONE) > G_AT_ONE_TOL:
        return False, f"g(1) = {g_exponent(1.0)} departs from {G_AT_ONE}"
    for lly in (1.0, 10.0, 100.0):
        gap = abs(e_factor(lly, JUNCTION - E_CONTINUITY_H)
                  - e_factor(lly, JUNCTION + E_CONTINUITY_H))
        if gap > E_CONTINUITY_TOL:
            return False, f"e_factor jump {gap:.2e} at junction, loglog_y={lly}"
    return True, (f"branch gap {abs(left - right):.1e}; g(1) within "
                  f"{abs(g_exponent(1.0) - G_AT_ONE):.1e} of {G_AT_ONE}")


def _regime_ratios() -> dict[str, list[float]]:
    ratios: dict[str, list[float]] = {}
    for expected, lam, v in REGIME_GRID:
        rep = classify_regime(lam, v, REGIME_EPSILON)
        if rep.regime != expected:
            raise AssertionError(
                f"grid point ({lam}, {v}) classified {rep.regime}, wanted {expected}")
        ratios.setdefault(expected, []).append(rep.ratio)
    return ratios


def _crit_regimes(ctx: Context) -> tuple[bool, str]:
    fix = ctx.fixtures()["regime_ratio"]
    try:
        ratios = _regime_ratios()
    except AssertionError as exc:
        return False, str(exc)
    notes = []
    for regime, vals in ratios.items():
        spread = max(vals) / min(vals)
        if spread > REGIME_SPREAD_MAX:
            return False, f"regime {regime} ratio spread {spread:.2f} > {REGIME_SPREAD_MAX}"
        band = fix[regime]
        for r in vals:
            if not _within_band(r, band):
                return False, (f"regime {regime} ratio {r:.6g} outside fixture "
                               f"band [{band[0]:.6g}, {band[1]:.6g}]")
        notes.append(f"{regime}: spread {spread:.2f}")
    return True, "; ".join(notes)


def _ramanujan_window(lam: int) -> tuple[float, float]:
    """Bounds on P(Pois(n) <= n) - 1/2 for an integer n = lam.

    Ramanujan: e^-n sum_{k<=n} n^k/k! = 1/2 + (1 - theta_n) t_n with
    t_n = n^n e^-n / n! and 1/3 < theta_n < 1/3 + 4/(135 n) (Szego 1928,
    Watson 1929).  t_n comes from lgamma, not from partial_poisson's sum.
    """
    if lam != int(lam) or lam < 1:
        raise ValueError(f"Ramanujan's bound needs an integer lam >= 1, got {lam}")
    n = int(lam)
    t = math.exp(n * math.log(n) - n - math.lgamma(n + 1))
    return (2.0 / 3.0 - 4.0 / (135.0 * n)) * t, 2.0 / 3.0 * t


def _crit_gaussian(ctx: Context) -> tuple[bool, str]:
    notes = []
    ok = True
    for lam in GAUSSIAN_POINTS:
        p = partial_poisson(lam, 0.0)
        lo, hi = _ramanujan_window(lam)
        slack = GAUSSIAN_REL_SLACK * p
        dev = p - 0.5
        inside = lo - slack <= dev <= hi + slack
        ok = ok and inside
        notes.append(f"lambda={lam}: dev={dev:.10g} {'in' if inside else 'NOT in'} "
                     f"[{lo:.10g}, {hi:.10g}] (slack {slack:.1g})")
    return ok, "; ".join(notes)


def _crit_barrier(ctx: Context) -> tuple[bool, str]:
    cfg = SMIRNOV_DEFAULTS
    specs = [BarrierSpec(cfg["barrier_k"], cfg["barrier_v"], c, cfg["barrier_mu"])
             for c in cfg["barrier_c"]]
    # a strong barrier at least the weak one in every coordinate is what makes
    # B_strong <= B hold sample by sample
    for spec in specs:
        weak, strong = barrier_thresholds(spec)
        if not np.all(strong >= weak):
            return False, (f"containment violated at C={spec.c_shift:g}: "
                           "strong barrier below the weak one")
    conds = [p_cond.estimate for _, _, p_cond in
             barrier_events_mc(specs, BARRIER_SAMPLES, ctx.seed, threads=ctx.threads)]
    for lo, hi in zip(conds, conds[1:]):
        if hi < lo:
            return False, f"conditioning not monotone: {conds}"
    if conds[-1] < BARRIER_FINAL_MIN:
        return False, f"p(strong|weak) at C={specs[-1].c_shift} is {conds[-1]:.4f} < {BARRIER_FINAL_MIN}"
    curve = ", ".join(f"C={sp.c_shift:g}: {p:.4f}" for sp, p in zip(specs, conds))
    return True, curve + "; strong barrier >= weak barrier in every coordinate"


def _crit_yk(ctx: Context) -> tuple[bool, str]:
    worst = math.inf
    idx = 0
    for k in YK_KS:
        for vt in range(k, 2 * k + 1):
            est = vol_yk_mc(k, float(vt), YK_C, YK_M, YK_SAMPLES,
                            ctx.seed + idx, threads=ctx.threads)
            idx += 1
            bound = yk_bound(k, vt)
            slack = est.estimate - (bound - YK_SIGMA * est.std_error)
            margin = est.estimate / bound
            worst = min(worst, margin)
            if slack < 0:
                return False, (f"volume below bound at k={k}, v_tilde={vt}: "
                               f"{est.estimate:.3e} < {bound:.3e} - 4 sigma")
    return True, (f"{idx} grid points above the closed-form volume bound "
                  f"(v - k + 1)/(2 v k!); min ratio {worst:.2f}")


def _uk_envelope(k: int, v: float) -> float:
    return (1.0 + abs(v - k)) / (math.factorial(k + 1) * (2.0 ** ((k - v) / 2.0) + 1.0))


def _uk_sweep(seed: int, threads: int) -> list[tuple[int, float, float, float]]:
    """(k, v, U_k estimate, envelope) over the U_k grid, seed + i at point i."""
    out = []
    for idx, (k, off) in enumerate(product(UK_KS, UK_V_OFFSETS)):
        v = float(k + off)
        est = uk_mc(k, v, UK_SAMPLES, seed + idx, threads=threads)
        out.append((k, v, est.estimate, _uk_envelope(k, v)))
    return out


def _crit_uk(ctx: Context) -> tuple[bool, str]:
    for v in (1.0, 3.0, 10.0):
        est = uk_mc(1, v, 50_000, ctx.seed)
        if est.estimate != 1.0:
            return False, f"U_1({v}) = {est.estimate} is not exactly 1"
    big_k = ctx.fixtures()["uk_envelope_K"]
    sweep = _uk_sweep(ctx.seed, ctx.threads)
    for k, v, est, env in sweep:
        if est > big_k * env:
            return False, f"U_{k}({v}) = {est:.3e} above {big_k} x envelope"
    worst = max(est / env for _, _, est, env in sweep)
    return True, (f"U_1 exact; {len(sweep)} points under K={big_k} envelope "
                  f"(max ratio {worst:.3f})")


def _hq_ratios(ctx: Context) -> dict[str, list[float]]:
    (x,) = HQ_SCAN_DEFAULTS["x_grid"]  # the fixture bands hold one x
    zf = HQ_SCAN_DEFAULTS["z_factor"]
    out = {}
    for kind in ("all", "1mod4"):
        ps = ctx.prime_set(kind, int(x))
        ratios = []
        for y in HQ_SCAN_DEFAULTS["y_grid"]:
            h = count_hq(ps, x, y, zf * y).value
            ratios.append(h / main_term(x, y, ps.delta))
        out[kind] = ratios
    return out


def _crit_hq_band(ctx: Context) -> tuple[bool, str]:
    return _check_bands(_hq_ratios(ctx), ctx.fixtures()["hq_ratio"], HQ_SPREAD_MAX)


def _run_pipeline(out_dir: Path, threads: int = 1) -> list[Path]:
    paths = []
    for name, cfg in DETERMINISM_CONFIGS.items():
        res = run_experiment(name, dict(cfg), out_dir / name.replace("-", "_"),
                             threads=threads)
        paths.extend(res.csv_paths)
    return sorted(paths)


def _crit_determinism(ctx: Context) -> tuple[bool, str]:
    with tempfile.TemporaryDirectory(prefix="multlab-verify-") as tmp:
        root = Path(tmp)
        first = _run_pipeline(root / "run1")
        second = _run_pipeline(root / "run2")
        if len(first) != len(second):
            return False, "pipeline runs emitted different file sets"
        for a, b in zip(first, second):
            if a.name != b.name or not filecmp.cmp(a, b, shallow=False):
                return False, f"CSV body drift between runs: {a.name}"
        threaded = set()
        for t in THREAD_COUNTS:
            paths = _run_pipeline(root / f"threads{t}", threads=t)
            mc_csv = next(p for p in paths if p.name == "smirnov.csv")
            threaded.add(mc_csv.read_bytes())
        if len(threaded) != 1:
            return False, f"smirnov CSV differs across threads {THREAD_COUNTS}"
    ests = {t: qk_mc(1.0, 10, 10, 200_000, ctx.seed, threads=t).estimate
            for t in THREAD_COUNTS}
    if len(set(ests.values())) != 1:
        return False, f"qk_mc estimates differ across threads: {ests}"
    return True, (f"{len(first)} CSV bodies byte-identical across runs; MC "
                  f"invariant over threads {THREAD_COUNTS}")


CRITERIA = (
    ("c01", "poisson sum equals its closed rearrangement exactly",
     ("poisson",), _crit_identity),
    ("c02", "Daniels formula vs simplex recursion and Monte Carlo",
     ("orderstats", "smirnov"), _crit_daniels),
    ("c03", "L/W divisor-interval inequalities on squarefree a",
     ("divisors",), _crit_lw),
    ("c04", "independent H_Q methods agree; product-set sandwich exact",
     ("counting",), _crit_counting),
    ("c05", "rough-count scaled ratio stability", ("counting", "primes"),
     _crit_rough),
    ("c06", "phase-transition predictor continuity and value",
     ("poisson",), _crit_predictor),
    ("c07", "five-regime envelope ratio bands", ("poisson",), _crit_regimes),
    ("c08", "partial poisson sum near its Gaussian limit", ("poisson",),
     _crit_gaussian),
    ("c09", "strong-barrier conditioning monotone and near 1",
     ("orderstats", "smirnov"), _crit_barrier),
    ("c10", "Y_k volume above its lower bound", ("orderstats", "smirnov"),
     _crit_yk),
    ("c11", "U_k envelope with exact U_1", ("orderstats",), _crit_uk),
    ("c12", "H_Q versus predictor ratio band", ("counting", "poisson"),
     _crit_hq_band),
    ("c13", "byte-identical reruns and thread-invariant MC", ("cli",),
     _crit_determinism),
)


def select_criteria(filter_expr: str | None):
    if not filter_expr:
        return list(CRITERIA)
    needles = [t for t in filter_expr.lower().split(",") if t]  # any one may match
    picked = [c for c in CRITERIA if any(
        needle in c[0] or needle in c[1].lower() or any(needle in tag for tag in c[2])
        for needle in needles)]
    if not picked:
        raise ConfigError(f"filter {filter_expr!r} matches no criteria")
    return picked


def run_acceptance(filter_expr: str | None = None, seed: int = DEFAULT_SEED,
                   threads: int = 1, report=None) -> list[CriterionResult]:
    """Run (a subset of) the acceptance criteria; report(line) streams progress."""
    ctx = Context(seed=seed, threads=threads)
    results = []
    for cid, name, _tags, fn in select_criteria(filter_expr):
        t0 = time.perf_counter()
        try:
            passed, details = fn(ctx)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, details = False, f"raised {type(exc).__name__}: {exc}"
        res = CriterionResult(cid, name, passed, details, time.perf_counter() - t0)
        results.append(res)
        if report is not None:
            report(f"{res.cid} {'PASS' if res.passed else 'FAIL'} "
                   f"[{res.elapsed:7.2f}s] {res.name}: {res.details}")
    return results


# ---------------------------------------------------------------------------
# fixture derivation (run once via scripts/derive_fixtures.py, then frozen)


def oracle_sweep(seed: int = DEFAULT_SEED, threads: int = 1) -> dict:
    """Recompute every derived regression band from scratch.

    Band endpoints are widened by the fixture tolerance so the recording run
    itself passes; K gets 10% headroom.  The output replaces fixtures/bands.json.
    """
    ctx = Context(seed=seed, threads=threads)
    ratios = _regime_ratios()
    regime_ratio = {reg: [min(vals), max(vals)] for reg, vals in ratios.items()}

    uk_max = max(est / env for _, _, est, env in _uk_sweep(seed, threads))

    return {
        "notes": "derived regression bands; regenerate with scripts/derive_fixtures.py "
                 f"(seed {seed})",
        "regime_ratio": regime_ratio,
        "uk_envelope_K": round(uk_max * 1.10, 4),
        "rough_scaled": _rough_scaled(ctx),
        "hq_ratio": _hq_ratios(ctx),
    }
