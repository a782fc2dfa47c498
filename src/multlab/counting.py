"""Counting functions on S_Q: integers with a divisor in an interval, distinct
products, rough numbers, and reciprocal sums weighted by the interval measure L.

H_Q(x, y, z) counts n in S_Q, n <= x, having a divisor in (y, z]; A_Q(N) counts
distinct products ab with a, b in S_Q up to N.  Two independent H_Q methods are
kept deliberately separate so they cross-validate each other.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .divisors import _merge_log_intervals, enumerate_sq
from .primes import LOG2, PrimeSet, sieve_primes

MAX_X_BITMAP = 1 << 31
MAX_X_EXHAUSTIVE = 1 << 21
T_Q_DEFAULT_CAP = 10_000_000


@dataclass
class CountResult:
    value: int
    x: float
    y: float | None
    z: float | None
    q: dict
    method: str
    elapsed: float
    warning: str | None = None


# Keyed by prime-set descriptor, not object identity: equal descriptors give
# equal membership, so reuse across calls is sound.  Callers must not mutate.
_SQ_BITMAP_CACHE: dict[tuple, np.ndarray] = {}
_SQ_BITMAP_CACHE_SLOTS = 4


def _sq_bitmap(ps: PrimeSet, x: int) -> np.ndarray:
    """Membership bitmap of S_Q over [0, x]: True at n iff all prime factors in Q.

    Built by clearing multiples of the primes *outside* Q (complement sieve):
    strided per prime up to sqrt(x), per cofactor beyond it.  Index 0 is
    False, index 1 is True.
    """
    if x > MAX_X_BITMAP:
        raise ValueError(f"x = {x} beyond bitmap cap {MAX_X_BITMAP}")
    if ps.limit < x:
        raise ValueError(f"prime set materialized to {ps.limit} < x = {x}")
    tag = (ps.kind, ps.limit, repr(sorted(ps.params.items())))
    key = (tag, x)
    cached = _SQ_BITMAP_CACHE.get(key)
    if cached is not None:
        return cached
    for (k_tag, k_x), bm in _SQ_BITMAP_CACHE.items():
        if k_tag == tag and k_x >= x:
            return bm[: x + 1]  # view of a longer bitmap; callers never mutate
    bm = np.ones(x + 1, dtype=bool)
    bm[0] = False
    if ps.kind != "all" and x >= 2:
        primes = sieve_primes(x)
        members = ps.members[: np.searchsorted(ps.members, x, side="right")]
        at = np.minimum(np.searchsorted(primes, members), len(primes) - 1)
        if not np.array_equal(primes[at], members):
            raise ValueError("prime set members are not primes")
        outside = np.ones(len(primes), dtype=bool)
        outside[at] = False
        excluded = primes[outside]
        del primes, members, at, outside
        split = int(np.searchsorted(excluded, math.isqrt(x), side="right"))
        for p in excluded[:split].tolist():
            bm[p::p] = False
        # A multiple k*p <= x of an excluded p > sqrt(x) has k < sqrt(x), so
        # loop over the cofactor k and clear every such p at once.
        large = excluded[split:]
        k_max = x // int(large[0]) if len(large) else 0
        for k in range(1, k_max + 1):
            bm[large[: np.searchsorted(large, x // k, side="right")] * k] = False
    while len(_SQ_BITMAP_CACHE) >= _SQ_BITMAP_CACHE_SLOTS:
        _SQ_BITMAP_CACHE.pop(next(iter(_SQ_BITMAP_CACHE)))
    _SQ_BITMAP_CACHE[key] = bm
    return bm


# CSR divisor table: ascending divisors of every n <= n_max, built once.
_div_table: tuple[int, np.ndarray, np.ndarray] | None = None


def _divisor_table(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    global _div_table
    if n_max > MAX_X_EXHAUSTIVE:
        raise ValueError(f"exhaustive method capped at x <= {MAX_X_EXHAUSTIVE}")
    if _div_table is not None and _div_table[0] >= n_max:
        return _div_table[1], _div_table[2]
    n = int(n_max)
    d = np.arange(1, n + 1, dtype=np.int32)
    runs = n // d  # multiples of d up to n
    # Pairs (d, j*d) in d-major order; key starts as j - 1, which restarts at
    # 0 on each run of d, and becomes the sort key m*(n+1) + d in place.
    key = np.arange(int(runs.sum()), dtype=np.int64)
    key -= np.repeat((np.cumsum(runs) - runs).astype(np.int32), runs)
    key += 1
    d = np.repeat(d, runs)
    key *= d
    tau = np.bincount(key, minlength=n + 1)
    key *= n + 1
    key += d
    del d, runs
    key.sort()
    offsets = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(tau, out=offsets[1:])
    np.remainder(key, n + 1, out=key)
    divs = key.astype(np.int32)
    del key
    _div_table = (n, offsets, divs)
    return offsets, divs


def _squarefree_bitmap(x: int) -> np.ndarray:
    sf = np.ones(x + 1, dtype=bool)
    sf[0] = False
    for p in sieve_primes(max(math.isqrt(x), 2)):
        p2 = int(p) * int(p)
        if p2 > x:
            break
        sf[p2::p2] = False
    return sf


def count_hq(
    ps: PrimeSet,
    x: float,
    y: float,
    z: float,
    method: str = "divisor-multiples",
    squarefree_only: bool = False,
) -> CountResult:
    """H_Q(x, y, z): members of S_Q up to x with a divisor in (y, z].

    method "divisor-multiples": mark multiples of each integer d in (y, z]
    that stay inside S_Q, count marked cells once.
    method "exhaustive": walk S_Q itself and look each member up in the
    divisor table, through one prefix count of the in-range divisors.  The
    two share no counting logic.
    """
    t0 = time.perf_counter()
    if x < 1:
        raise ValueError(f"count_hq requires x >= 1, got {x}")
    if y < 0 or z < 0:
        raise ValueError("count_hq requires y, z >= 0")
    if method not in ("divisor-multiples", "exhaustive"):
        raise ValueError(f"unknown count_hq method {method!r}")
    xi = int(math.floor(x))
    if ps.limit < xi:
        raise ValueError(f"prime set materialized to {ps.limit} < x = {xi}")
    desc = ps.descriptor()
    if y >= z:
        return CountResult(
            0, x, y, z, desc, method, time.perf_counter() - t0,
            warning="empty divisor interval (y >= z)",
        )
    d_lo = int(math.floor(y)) + 1
    d_hi = min(int(math.floor(z)), xi)

    if method == "divisor-multiples":
        if d_lo > d_hi:
            return CountResult(0, x, y, z, desc, method, time.perf_counter() - t0)
        marked = np.zeros(xi + 1, dtype=bool)
        if ps.kind == "all":
            for d in range(d_lo, d_hi + 1):
                marked[d::d] = True
        else:
            bm = _sq_bitmap(ps, xi)
            for d in range(d_lo, d_hi + 1):
                if bm[d]:
                    marked[d::d] |= bm[d::d]
        if squarefree_only:
            marked &= _squarefree_bitmap(xi)
        value = int(np.count_nonzero(marked[1:]))
        return CountResult(value, x, y, z, desc, method, time.perf_counter() - t0)

    offsets, divs = _divisor_table(xi)
    # hits[i] counts the in-range entries among the first i of the table, so
    # row n holds a divisor in [d_lo, d_hi] iff hits grows across the row.
    end = int(offsets[xi + 1])
    in_range = divs[:end] >= d_lo
    in_range &= divs[:end] <= d_hi
    hits = np.zeros(end + 1, dtype=np.int32)
    np.cumsum(in_range, dtype=np.int32, out=hits[1:])
    del in_range
    members = np.array(enumerate_sq(ps, xi), dtype=np.int64)
    if squarefree_only:
        members = members[_squarefree_bitmap(xi)[members]]
    value = int(np.count_nonzero(hits[offsets[members + 1]] > hits[offsets[members]]))
    return CountResult(value, x, y, z, desc, method, time.perf_counter() - t0)


def count_hq_star(ps: PrimeSet, x: float, y: float, z: float,
                  method: str = "divisor-multiples") -> CountResult:
    """Squarefree-restricted H_Q: same count with mu^2(n) = 1 enforced."""
    res = count_hq(ps, x, y, z, method=method, squarefree_only=True)
    res.method = method + "+squarefree"
    return res


def count_sq(ps: PrimeSet, x: float) -> int:
    """|S_Q intersect [1, x]|."""
    xi = int(math.floor(x))
    if xi < 1:
        return 0
    return int(np.count_nonzero(_sq_bitmap(ps, xi)))


# The cap is what keeps every product a*b <= N^2 = 1e12 inside int64.
MAX_N_AQ = 1_000_000
_AQ_SET_PAIR_CAP = 2_000_000
_AQ_SEGMENT = 1 << 24


def count_aq(ps: PrimeSet, n_bound: int) -> CountResult:
    """A_Q(N): number of distinct products ab with a, b in S_Q and a, b <= N."""
    t0 = time.perf_counter()
    n_bound = int(n_bound)
    if n_bound < 1:
        raise ValueError(f"count_aq requires N >= 1, got {n_bound}")
    if n_bound > MAX_N_AQ:
        raise ValueError(f"count_aq capped at N <= {MAX_N_AQ}, got {n_bound}")
    members = np.array(enumerate_sq(ps, n_bound), dtype=np.int64)
    m = len(members)
    desc = ps.descriptor()

    if m * (m + 1) // 2 <= _AQ_SET_PAIR_CAP:
        products: set[int] = set()
        mem = [int(v) for v in members]
        for i, a in enumerate(mem):
            for b in mem[i:]:
                products.add(a * b)
        return CountResult(
            len(products), n_bound, None, None, desc, "product-set",
            time.perf_counter() - t0,
        )

    # segmented bitmap over [1, N^2]: mark a*b window by window
    total = 0
    top = n_bound * n_bound
    is_all = ps.kind == "all"
    for lo in range(1, top + 1, _AQ_SEGMENT):
        hi = min(lo + _AQ_SEGMENT, top + 1)
        seg = np.zeros(hi - lo, dtype=bool)
        a_min = max(1, (lo + n_bound - 1) // n_bound)  # need a*N >= lo
        i0 = int(np.searchsorted(members, a_min))
        for a in members[i0:]:
            a = int(a)
            if a * a >= hi:
                break
            b_lo = max(a, -(-lo // a))  # ceil(lo / a)
            b_hi = min(n_bound, (hi - 1) // a)
            if b_lo > b_hi:
                continue
            if is_all:
                seg[a * b_lo - lo : a * b_hi - lo + 1 : a] = True
            else:
                j0 = int(np.searchsorted(members, b_lo))
                j1 = int(np.searchsorted(members, b_hi, side="right"))
                if j0 < j1:
                    seg[members[j0:j1] * a - lo] = True
        total += int(np.count_nonzero(seg))
    return CountResult(total, n_bound, None, None, desc, "segmented-bitmap",
                       time.perf_counter() - t0)


def count_rough(ps: PrimeSet, x: float, z: float) -> CountResult:
    """#{n <= x : n in S_Q, P-(n) > z}; includes n = 1."""
    t0 = time.perf_counter()
    if x < 1:
        raise ValueError(f"count_rough requires x >= 1, got {x}")
    xi = int(math.floor(x))
    bm = _sq_bitmap(ps, xi).copy()  # mutated below, cache must stay intact
    k = bisect_right(ps.members, z)
    for q in ps.members[:k]:
        q = int(q)
        if q > xi:
            break
        bm[q::q] = False
    bm[1] = True  # P-(1) = +inf exceeds any z
    value = int(np.count_nonzero(bm[1:]))
    return CountResult(value, x, None, z, ps.descriptor(), "bitmap",
                       time.perf_counter() - t0)


def _squarefree_log_walk(primes: list[int], cap: int, max_depth: int | None = None):
    """Yield (a, omega(a), ascending logs of the divisors of a) for a = 1 and
    every squarefree product a <= cap of the ascending primes.  Nodes at
    depth max_depth are not expanded.
    """
    stack: list[tuple[int, int, int, list[float]]] = [(1, 0, 0, [0.0])]
    while stack:
        a, i0, depth, logs = stack.pop()
        yield a, depth, logs
        if depth == max_depth:
            continue
        for i in range(i0, len(primes)):
            nxt = a * primes[i]
            if nxt > cap:
                break
            shifted = [t + math.log(primes[i]) for t in logs]
            stack.append((nxt, i + 1, depth + 1, sorted(logs + shifted)))


def sum_l_over_a(ps: PrimeSet, limit: int) -> float:
    """Sum of L(a)/a over squarefree a in S_Q, a <= limit.

    Walks the squarefree product tree carrying each node's sorted divisor
    logs, so L(a) costs one interval merge per node.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if ps.limit < limit:
        raise ValueError(f"prime set materialized to {ps.limit} < limit = {limit}")
    primes = [int(p) for p in ps.members[ps.members <= limit]]
    return math.fsum(_merge_log_intervals(logs).measure / a
                     for a, _, logs in _squarefree_log_walk(primes, limit))


@dataclass
class TqResult:
    value: float
    tail_bound: float
    cap: int
    n_terms: int


def t_q(ps: PrimeSet, k: int, y: float, cap: int = T_Q_DEFAULT_CAP) -> TqResult:
    """T_Q(k, 2y) = sum of L(a)/a over squarefree a in S_Q with omega(a) = k
    and P+(a) <= 2y, truncated at a <= cap.

    tail_bound dominates the dropped part: L(a) <= 2^k log 2 and the sum of
    1/a over dropped a is at most e_k(1/p : p <= 2y) minus the enumerated part,
    with e_k the elementary symmetric sum.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    bound = 2.0 * y
    if ps.limit < bound:
        raise ValueError(f"prime set materialized to {ps.limit} < 2y = {bound}")
    primes = [int(p) for p in ps.members[ps.members <= bound]]

    # exact-ish elementary symmetric sum e_k over 1/p, for the tail bound
    e = [1.0] + [0.0] * k
    for p in primes:
        r = 1.0 / p
        for j in range(min(k, len(e) - 1), 0, -1):
            e[j] += e[j - 1] * r
    e_k = e[k]

    terms: list[float] = []
    recip: list[float] = []
    for a, depth, logs in _squarefree_log_walk(primes, cap, k):
        if depth == k:
            terms.append(_merge_log_intervals(logs).measure / a)
            recip.append(1.0 / a)
    covered = math.fsum(recip)
    tail = LOG2 * (2.0**k) * max(0.0, e_k - covered)
    return TqResult(math.fsum(terms), tail, cap, len(terms))


def sum_recip_ab(ps: PrimeSet, dec, b: tuple[int, ...], cap: float = math.inf) -> float:
    """Sum of 1/a over a built from b_j distinct Q-primes in each interval D_j.

    D_j = (Lambda_{j-1}, Lambda_j] from the greedy decomposition; a <= cap.
    """
    b = tuple(int(v) for v in b)
    if len(b) == 0 or len(b) > len(dec.lambda_seq):
        raise ValueError(
            f"composition length {len(b)} incompatible with {len(dec.lambda_seq)} intervals"
        )
    if any(v < 0 for v in b):
        raise ValueError("composition entries must be >= 0")
    if sum(b) > 12:
        raise ValueError(f"sum of composition entries capped at 12, got {sum(b)}")

    interval_primes: list[list[int]] = []
    edges = (dec.lambda0,) + tuple(float(v) for v in dec.lambda_seq)
    for j in range(len(b)):
        lo, hi = edges[j], edges[j + 1]
        i0 = bisect_right(ps.members, lo)
        i1 = bisect_right(ps.members, hi)
        interval_primes.append([int(p) for p in ps.members[i0:i1]])

    terms: list[float] = []

    def choose(j: int, prod: int) -> None:
        if j == len(b):
            terms.append(1.0 / prod)
            return
        pool = interval_primes[j]
        need = b[j]

        def combo(start: int, left: int, acc: int) -> None:
            if left == 0:
                choose(j + 1, acc)
                return
            for i in range(start, len(pool) - left + 1):
                nxt = acc * pool[i]
                if nxt > cap:
                    break
                combo(i + 1, left - 1, nxt)

        combo(0, need, prod)

    choose(0, 1)
    return math.fsum(terms)
