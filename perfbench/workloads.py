"""The four benchmark workloads.

Each workload turns a seed into a list of operations.  An operation is one
call into multlab's public API, timed on its own, plus a check of its result
that holds for any seed.  Some operations also yield a reference value (a CSV
digest or an exact count) that must match the one recorded in
references.json, at the default seed or, where the result cannot depend on
the seed, at every seed.

All prime sets are built in the workload's set-up; checks build whatever they
need themselves, outside the timed operations.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

DEFAULT_SEED = 20260825

# Fixed hash key for the thinned sets: the set, and so the work, must not
# change with the workload seed.
THINNED = "thinned:0.4:20260825"

FUZZ_SETS = ("all", "congruence:4:1", "congruence:3:2", THINNED)
FUZZ_CASES = 100
FUZZ_X_MAX = 100_000
FUZZ_FULL_EVERY = 25

AQ_SETS = ("all", THINNED, "congruence:3:2")
AQ_GRID = (1_000, 10_000, 20_000)
AQ_BIG_N = 50_000
AQ_JITTER = 32
AQ_BRUTE_MAX = 3_000

MC_SIGMA = 5.0
DANIELS_SAMPLES = 100_000
YK_SAMPLES = 40_000
UK_SAMPLES = 20_000

STECK_POINTS = 120
IDENTITY_POINTS = 120


def make_api() -> SimpleNamespace:
    """The multlab functions the workloads call; the tracer wraps these."""
    mods = {name: importlib.import_module(f"multlab.{name}") for name in
            ("acceptance", "counting", "experiments", "orderstats", "poisson")}
    return SimpleNamespace(
        resolve_prime_set=mods["experiments"].resolve_prime_set,
        run_experiment=mods["experiments"].run_experiment,
        count_hq=mods["counting"].count_hq,
        count_aq=mods["counting"].count_aq,
        qk_mc=mods["orderstats"].qk_mc,
        qk_exact=mods["orderstats"].qk_exact,
        vol_lower_barrier_exact=mods["orderstats"].vol_lower_barrier_exact,
        vol_yk_mc=mods["orderstats"].vol_yk_mc,
        uk_mc=mods["orderstats"].uk_mc,
        poisson_sum=mods["poisson"].poisson_sum,
        key_identity_rhs=mods["poisson"].key_identity_rhs,
        run_acceptance=mods["acceptance"].run_acceptance,
        acceptance=mods["acceptance"],
    )


@dataclass
class Op:
    name: str
    layer: str  # the layer a failed check is charged to
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # failure message, or None
    ref: Callable[[Any], Any] | None = None
    ref_every_seed: bool = False


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _csv_digests(res) -> dict:
    return {Path(p).name: _digest(p) for p in res.csv_paths}


def _failures(msgs) -> str | None:
    msgs = [m for m in msgs if m]
    return "; ".join(msgs[:3]) if msgs else None


# ---------------------------------------------------------------------------
# hq-fuzz


def _fuzz_cases(rng: random.Random, n_sets: int):
    """(set index, x, y, z) as in c04: x log-uniform on [2, FUZZ_X_MAX] with
    every FUZZ_FULL_EVERY-th x at FUZZ_X_MAX itself, y uniform below 0.99 x,
    z uniform on [y, x].

    The draws are stratified: per set, x, y/x and the position of z each take
    one point near the middle of each of their strata.  A fixed layout pairs
    the strata, so the work of a pass barely depends on the seed; the seed
    moves every point within a tenth of its stratum and shuffles the order,
    so every count does.
    """
    per_set = FUZZ_CASES // n_sets
    layout = random.Random(0)
    log_span = math.log(FUZZ_X_MAX) - math.log(2.0)

    def point(j: int, count: int = per_set) -> float:
        return (j + 0.5 + 0.2 * (rng.random() - 0.5)) / count

    by_set = []
    for s in range(n_sets):
        n_full = sum(1 for i in range(s, FUZZ_CASES, n_sets) if i % FUZZ_FULL_EVERY == 0)
        xs = [None] * n_full + layout.sample(range(per_set - n_full), per_set - n_full)
        ys = layout.sample(range(per_set), per_set)
        zs = layout.sample(range(per_set), per_set)
        cases = []
        for xj, yj, zj in zip(xs, ys, zs):
            if xj is None:
                x = float(FUZZ_X_MAX)
            else:
                x = math.exp(math.log(2.0) + point(xj, per_set - n_full) * log_span)
            y = point(yj) * x * 0.99
            cases.append((s, x, y, y + point(zj) * (x - y)))
        full, rest = cases[:n_full], cases[n_full:]
        rng.shuffle(rest)
        by_set.append((full, rest))
    return [by_set[i % n_sets][0 if i % FUZZ_FULL_EVERY == 0 else 1].pop()
            for i in range(FUZZ_CASES)]


def hq_fuzz(api, seed: int, out_dir: Path) -> list[Op]:
    sets = [api.resolve_prime_set(desc, FUZZ_X_MAX) for desc in FUZZ_SETS]
    ops = []
    for i, (s, x, y, z) in enumerate(_fuzz_cases(random.Random(seed), len(sets))):
        def call(ps=sets[s], x=x, y=y, z=z):
            return (api.count_hq(ps, x, y, z, method="divisor-multiples").value,
                    api.count_hq(ps, x, y, z, method="exhaustive").value)

        def check(r, x=x, y=y, z=z, desc=FUZZ_SETS[s]):
            if r[0] != r[1]:
                return f"methods disagree on {desc} at x={x!r}, y={y!r}, z={z!r}: {r}"
            return None
        ops.append(Op(f"fuzz.{i}", "counting", call, check, ref=lambda r: r[0]))

    def scan():
        return api.run_experiment("hq-scan", {"prime_sets": list(FUZZ_SETS)},
                                  out_dir / "hq_scan", seed=seed, threads=1)

    def check_scan(res):
        rows = res.tables["hq_scan"]
        if len(rows) != len(FUZZ_SETS) * 3:
            return f"{len(rows)} rows"
        return _failures(f"bad row {row}" for row in rows
                       if not (isinstance(row["count"], int) and row["count"] > 0
                               and row["ratio"] == row["count"] / row["predictor"]))
    # The table cannot depend on the seed: every thinned set has a fixed key.
    ops.append(Op("hq-scan", "counting", scan, check_scan, ref=_csv_digests,
                  ref_every_seed=True))
    return ops


# ---------------------------------------------------------------------------
# aq-products


def _sq_members(q: set[int], n: int) -> np.ndarray:
    """S_Q up to n by smallest-prime-factor division, independent of multlab."""
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in range(2, n + 1):
        if spf[p] == 0:
            spf[p::p][spf[p::p] == 0] = p
    good = np.zeros(n + 1, dtype=bool)
    good[1] = n >= 1
    for k in range(2, n + 1):
        p = int(spf[k])
        good[k] = p in q and good[k // p]
    return np.nonzero(good)[0]


def _brute_aq(q: set[int], n: int) -> int:
    m = _sq_members(q, n)
    return int(np.unique(np.multiply.outer(m, m)).size)


def _sandwich(api, ps, n: int) -> tuple[int, int]:
    """The c04 bounds on A_Q(n) from H_Q counts; ps must reach n^2."""
    lower = api.count_hq(ps, n * n / 4.0, n / 4.0, n / 2.0).value if n >= 2 else 0
    upper = 0
    k = 0
    while n * n / 2.0**k >= 1.0:
        upper += api.count_hq(ps, n * n / 2.0**k, n / 2.0 ** (k + 1), n / 2.0**k).value
        k += 1
    return lower, upper


def aq_products(api, seed: int, out_dir: Path) -> list[Op]:
    rng = random.Random(seed)
    grid = [n - rng.randrange(AQ_JITTER) for n in AQ_GRID]
    big_n = AQ_BIG_N - rng.randrange(AQ_JITTER)
    thin_big = api.resolve_prime_set(THINNED, big_n)

    def dichotomy():
        return api.run_experiment("aq-dichotomy",
                                  {"prime_sets": list(AQ_SETS), "n_grid": grid},
                                  out_dir / "aq_dichotomy", seed=seed, threads=1)

    def check_row(row):
        n, sq, aq = row["n"], row["sq_count"], row["aq_count"]
        if not sq <= aq <= sq * (sq + 1) // 2:
            return f"A_Q={aq} outside [{sq}, {sq * (sq + 1) // 2}] at {row['q']}, N={n}"
        if n > AQ_BRUTE_MAX:
            return None
        ps = api.resolve_prime_set(row["q"], max(n * n, 16))
        q = {int(p) for p in ps.members[ps.members <= n]}
        brute = _brute_aq(q, n)
        if aq != brute:
            return f"A_Q={aq} but the outer product gives {brute} at {row['q']}, N={n}"
        lower, upper = _sandwich(api, ps, n)
        if not lower <= aq <= upper:
            return f"sandwich broken at {row['q']}, N={n}: {lower} <= {aq} <= {upper}"
        return None

    def check_dichotomy(res):
        rows = res.tables["aq_dichotomy"]
        if len(rows) != len(AQ_SETS) * len(grid):
            return f"{len(rows)} rows"
        return _failures(check_row(row) for row in rows)

    def big():
        return api.count_aq(thin_big, big_n).value

    def check_big(value):
        q = {int(p) for p in thin_big.members}
        m = len(_sq_members(q, big_n))
        if not m <= value <= m * (m + 1) // 2:
            return f"A_Q={value} outside [{m}, {m * (m + 1) // 2}] at N={big_n}"
        return None

    return [
        Op("aq-dichotomy", "counting", dichotomy, check_dichotomy, ref=_csv_digests),
        Op("count_aq.thinned", "counting", big, check_big, ref=lambda v: v),
    ]


# ---------------------------------------------------------------------------
# mc-orderstats


def _daniels_grid(acc):
    """c02's (u, v, k) points, from its pinned public constants."""
    return [(u, k + off, k) for k in acc.DANIELS_KS for off in acc.DANIELS_V_OFFSETS
            for u in acc.DANIELS_US]


def _uk_envelope(k: int, v: float) -> float:
    """c11's envelope (1 + |v - k|) / ((k + 1)! (2^((k - v)/2) + 1))."""
    return (1.0 + abs(v - k)) / (math.factorial(k + 1) * (2.0 ** ((k - v) / 2.0) + 1.0))


def _within_sigma(est: float, n: int, exact: float) -> str | None:
    """An MC estimate of the probability `exact` from n samples, within MC_SIGMA."""
    if exact in (0.0, 1.0):
        return None if est == exact else f"estimate {est!r} of a sure event {exact}"
    sigma = math.sqrt(exact * (1.0 - exact) / n)
    if abs(est - exact) > MC_SIGMA * sigma:
        return f"estimate {est!r} is {abs(est - exact) / sigma:.1f} sigma from {exact!r}"
    return None


def _check_smirnov(res) -> str | None:
    rows = res.tables["smirnov"]
    msgs = []
    exact = None
    for row in rows:
        op = row["op"]
        if op == "qk_exact":
            exact = row["estimate"]
        elif op == "qk_mc":
            msgs.append(_within_sigma(row["estimate"], row["n"], exact))
        elif op == "p_weak":
            weak = row["estimate"]
        elif op == "p_strong" and row["estimate"] > weak:
            msgs.append(f"P[B_strong] {row['estimate']} > P[B] {weak}")
        elif op == "p_cond" and not 0.0 <= row["estimate"] <= 1.0:
            msgs.append(f"conditional probability {row['estimate']}")
        elif op == "yk_vol":
            vol = row["estimate"] + MC_SIGMA * row["std_error"]
        elif op == "yk_bound" and vol < row["estimate"]:
            msgs.append(f"Y_k volume below its bound at k={row['k']}, v={row['v']}")
    return _failures(msgs)


def mc_orderstats(api, seed: int, out_dir: Path) -> list[Op]:
    acc = api.acceptance
    ops = [Op("smirnov", "orderstats",
              lambda: api.run_experiment("smirnov", None, out_dir / "smirnov",
                                         seed=seed, threads=1),
              _check_smirnov, ref=_csv_digests)]

    for idx, (u, v, k) in enumerate(_daniels_grid(acc)):
        def call(u=u, v=v, k=k, s=seed + idx):
            return api.qk_mc(float(u), v, k, DANIELS_SAMPLES, s, threads=1)

        def check(est, u=u, v=v, k=k):
            return _within_sigma(est.estimate, est.n_samples, float(api.qk_exact(u, v, k)))
        ops.append(Op(f"daniels.{idx}", "orderstats", call, check, ref=lambda e: e.hits))

    idx = 0
    for k in acc.YK_KS:
        for vt in range(k, 2 * k + 1):
            def call(k=k, vt=vt, s=seed + idx):
                return api.vol_yk_mc(k, float(vt), acc.YK_C, acc.YK_M, YK_SAMPLES, s,
                                     threads=1)

            def check(est, k=k, vt=vt):
                bound = acc.YK_SAFETY * (vt - k + 1) / (vt * math.factorial(k))
                if est.estimate + MC_SIGMA * est.std_error < bound:
                    return f"Y_k volume {est.estimate:.3e} below {bound:.3e} at k={k}, v={vt}"
                return None
            ops.append(Op(f"yk.{idx}", "orderstats", call, check, ref=lambda e: e.hits))
            idx += 1

    big_k = acc.load_fixtures()["uk_envelope_K"]
    idx = 0
    for k in acc.UK_KS:
        for off in acc.UK_V_OFFSETS:
            v = float(k + off)

            def call(k=k, v=v, s=seed + idx):
                return api.uk_mc(k, v, UK_SAMPLES, s, threads=1)

            def check(est, k=k, v=v):
                if k == 1:
                    return None if est.estimate == 1.0 else f"U_1({v}) = {est.estimate!r}"
                cap = big_k * _uk_envelope(k, v)
                if est.estimate - MC_SIGMA * est.std_error > cap:
                    return f"U_{k}({v}) = {est.estimate:.3e} above {cap:.3e}"
                return None
            ops.append(Op(f"uk.{idx}", "orderstats", call, check,
                          ref=lambda e: repr(e.estimate)))
            idx += 1
    return ops


# ---------------------------------------------------------------------------
# exact-oracles


def _criterion(api, cid: str) -> Op:
    def check(results):
        if [r.cid for r in results] != [cid]:
            return f"ran {[r.cid for r in results]}"
        return None if results[0].passed else results[0].details
    return Op(cid, "acceptance", lambda: api.run_acceptance(cid), check)


def _volume_op(api, name: str, u, v: int, k: int) -> Op:
    """Q_k(u, v) from qk_exact against k! times the simplex volume."""
    bounds = [max(Fraction(0), Fraction(i - u, v)) for i in range(1, k + 1)]

    def call():
        return api.qk_exact(u, v, k), api.vol_lower_barrier_exact(bounds)

    def check(r):
        q, vol = r
        ok = isinstance(q, Fraction) and q == math.factorial(k) * vol
        return None if ok else f"Q_{k}({u}, {v}) = {q} but k! vol = {math.factorial(k) * vol}"
    return Op(name, "orderstats", call, check)


def _seeded_steck(rng: random.Random):
    """(u, v, k) with rational u < 1 inside Steck's range k - v < u."""
    k = rng.randint(2, 8)
    v = k + rng.randint(0, 4)
    den = rng.randint(2, 12)
    lo = (k - v) * den + 1  # smallest numerator with u > k - v
    return Fraction(rng.randint(lo, den - 1), den), v, k


def exact_oracles(api, seed: int, out_dir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = [_criterion(api, cid) for cid in ("c01", "c03", "c07")]

    def check_phase(res):
        regimes = {row["regime"] for row in res.tables["poisson_phase"]}
        return None if regimes <= {"i", "ii", "iii", "iv", "v"} else f"regimes {regimes}"
    # Default config without MC: the tables cannot depend on the seed.
    ops.append(Op("poisson-phase", "poisson",
                  lambda: api.run_experiment("poisson-phase", None,
                                             out_dir / "poisson_phase",
                                             seed=seed, threads=1),
                  check_phase, ref=_csv_digests, ref_every_seed=True))

    for idx, (u, v, k) in enumerate(_daniels_grid(api.acceptance)):
        ops.append(_volume_op(api, f"daniels-exact.{idx}", u, v, k))
    for idx in range(STECK_POINTS):
        ops.append(_volume_op(api, f"steck.{idx}", *_seeded_steck(rng)))

    for idx in range(IDENTITY_POINTS):
        v = rng.randint(1, 60)
        den = rng.randint(1, 9)
        lam = Fraction(rng.randint(1, 3 * v * den), den)

        def call(lam=lam, v=v):
            return api.poisson_sum(lam, v), api.key_identity_rhs(lam, v)

        def check(r, lam=lam, v=v):
            return None if r[0] == r[1] else f"Sigma({lam}, {v}) != its rearrangement"
        ops.append(Op(f"identity.{idx}", "poisson", call, check))
    return ops


WORKLOADS = {
    "hq-fuzz": hq_fuzz,
    "aq-products": aq_products,
    "mc-orderstats": mc_orderstats,
    "exact-oracles": exact_oracles,
}
