"""Counting functions on S_Q: integers with a divisor in an interval, distinct
products, and rough numbers.

H_Q(x, y, z) counts n in S_Q, n <= x, having a divisor in (y, z]; A_Q(N) counts
distinct products ab with a, b in S_Q up to N.  Two independent H_Q methods are
kept deliberately separate so they cross-validate each other.  S_Q membership
up to x is a view of the prime set's own bitmap, built with the set, to its
limit.  No kernel branches on the kind of prime set.  Because S_Q is closed
under divisors, the divisor-multiples method marks the multiples of the members
d in (y, z] and intersects the marks with the bitmap, and a rough count takes
the multiples of the Q-primes up to z from S_Q, both by primes.mark_multiples
one cache-sized window of [0, x] at a time.  A_Q reads its
members a from the bitmap too and has two exact kernels, chosen by the density
of S_Q(N): a dense set ORs the bitmap's window of b into the cells a*b of a
segmented bitmap over [1, N^2], one strided write per a, from a row bound
that skips the products a smaller row writes; a sparse set sorts the member
products a*b chunk by chunk and counts the distinct ones.  Only the
exhaustive H_Q method builds S_Q another way, as products of Q-primes.
The kernels return counts and the method they ran; timing a run is the
experiments' reporter's job.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .divisors import _smallest_prime_factors, enumerate_sq
from . import primes
from .primes import PrimeSet

MAX_X_EXHAUSTIVE = 1 << 21
HQ_METHODS = ("divisor-multiples", "exhaustive")


@dataclass
class CountResult:
    value: int
    method: str


def _sq_bitmap(ps: PrimeSet, x: int) -> np.ndarray:
    """Membership bitmap of S_Q over [0, x]: a view of the set's own bitmap."""
    # a slice past the end is silently short, so an x beyond the limit is an error
    if ps.limit < x:
        raise ValueError(f"prime set materialized to {ps.limit} < x = {x}")
    return ps.sq_bitmap[: x + 1]


# CSR divisor table: ascending divisors of every n <= n_max, built once.
_div_table: tuple[int, np.ndarray, np.ndarray] | None = None


def _divisor_table(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    global _div_table
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


def _count_multiples(bm: np.ndarray, xi: int, steps: np.ndarray) -> int:
    """Cells n in [1, xi] set in bm that are a multiple of one of the ascending
    int64 steps, marked one window of [0, xi] at a time in one buffer: at most
    one window per primes.SIEVE_SEGMENT cells, and never so many that the
    largest step writes fewer than 256 cells in one, so a broad set of steps
    takes one window.  At most SIEVE_SEGMENT steps are Python ints at once."""
    if not steps.size:
        return 0
    seg = primes.SIEVE_SEGMENT
    windows = max(1, min(-(-(xi + 1) // seg), xi // int(steps[-1]) // 256))
    width = -(-(xi + 1) // windows)
    marked = np.zeros(width, dtype=bool)
    value = 0
    for lo in range(0, xi + 1, width):
        window = marked[: xi + 1 - lo]
        window[:] = False
        for i in range(0, steps.size, seg):
            primes.mark_multiples(window, lo, steps[i : i + seg].tolist(), True)
        window &= bm[lo : lo + width]
        value += int(np.count_nonzero(window))
    return value


def count_hq(
    ps: PrimeSet,
    x: float,
    y: float,
    z: float,
    method: str = "divisor-multiples",
) -> CountResult:
    """H_Q(x, y, z): members of S_Q up to x with a divisor in (y, z].

    method "divisor-multiples": mark the multiples of each member d of S_Q
    in (y, z], keep the marked cells that lie in S_Q and count them, one
    window of [0, x] at a time (_count_multiples).
    method "exhaustive": walk S_Q itself and look each member up in the
    divisor table, through one prefix count of the in-range divisors.  The
    two share no counting logic.  A z >= x reads as (y, x], so z may be +inf.
    """
    if not 1 <= x < math.inf:
        raise ValueError(f"count_hq requires a finite x >= 1, got {x}")
    if not (0 <= y < math.inf and z >= 0):
        raise ValueError(f"count_hq requires a finite y >= 0 and z >= 0, got {y}, {z}")
    if method not in HQ_METHODS:
        raise ValueError(f"unknown count_hq method {method!r}")
    xi = int(math.floor(x))
    if ps.limit < xi:
        raise ValueError(f"prime set materialized to {ps.limit} < x = {xi}")
    if method == "exhaustive" and xi > MAX_X_EXHAUSTIVE:
        raise ValueError(f"exhaustive method capped at x <= {MAX_X_EXHAUSTIVE}")
    d_lo = int(math.floor(y)) + 1
    d_hi = xi if z >= xi else int(math.floor(z))
    if d_lo > d_hi:  # no integer in (y, min(z, x)], as when y >= z
        return CountResult(0, method)

    if method == "divisor-multiples":
        # exact because S_Q is closed under divisors: a member with a divisor
        # in (y, z] is a multiple of a member there
        bm = _sq_bitmap(ps, xi)
        ds = np.flatnonzero(bm[d_lo : d_hi + 1])
        ds += d_lo
        return CountResult(_count_multiples(bm, xi, ds), method)

    offsets, divs = _divisor_table(xi)
    # hits[i] counts the in-range entries among the first i of the table, so
    # row n holds a divisor in [d_lo, d_hi] iff hits grows across the row.
    end = int(offsets[xi + 1])
    in_range = divs[:end] >= d_lo
    in_range &= divs[:end] <= d_hi
    hits = np.zeros(end + 1, dtype=np.int32)
    np.cumsum(in_range, dtype=np.int32, out=hits[1:])
    del in_range
    members = enumerate_sq(ps, xi)
    value = int(np.count_nonzero(hits[offsets[members + 1]] > hits[offsets[members]]))
    return CountResult(value, method)


def count_sq(ps: PrimeSet, x: float) -> int:
    """|S_Q intersect [1, x]|."""
    if not -math.inf < x < math.inf:
        raise ValueError(f"count_sq requires a finite x, got {x}")
    xi = int(math.floor(x))
    if xi < 1:
        return 0
    return int(np.count_nonzero(_sq_bitmap(ps, xi)))


# The cap is run time: the set of all primes, which always takes the bitmap
# kernel, costs about 0.85 * N^2/2 strided writes, 22 s at N = 1e5 on a
# 2 vCPU Xeon.
MAX_N_AQ = 100_000
_AQ_SEGMENT = 1 << 23
# The sorted kernel's chunk holds at most this many member pairs, and spans at
# most 2^32 products, so each offset a*b - lo fits in uint32.
_AQ_PAIRS = 1 << 18
_AQ_SPAN_CAP = 1 << 32


def _aq_bitmap(bm: np.ndarray, n_bound: int) -> int:
    """A_Q(N) by a bitmap over [1, N^2], one segment at a time: for each
    member a, one strided write ORs the S_Q bitmap's window of b into the
    cells a*b.

    Row a > 1 starts at b = first(a) = max(a, N // p + 1), p the smallest
    prime factor of a: for b <= N/p, a*b = (a/p)*(p*b) with a/p < a <= p*b
    <= N and both factors in S_Q, which is closed under divisors and
    products, so a smaller row writes that cell.  Row 1 starts at b = 1.
    """
    members = np.flatnonzero(bm)
    first = np.maximum(members, n_bound // _smallest_prime_factors(n_bound)[members] + 1)
    first[0] = 1  # members[0] = 1, whose spf[1] = 1 would empty the row
    total = 0
    top = n_bound * n_bound
    for lo in range(1, top + 1, _AQ_SEGMENT):
        hi = min(lo + _AQ_SEGMENT, top + 1)
        i0 = int(np.searchsorted(members, -(-lo // n_bound)))  # need a*N >= lo
        i1 = int(np.searchsorted(members, math.isqrt(hi - 1), "right"))  # a*a < hi
        a = members[i0:i1]
        b_lo = np.maximum(first[i0:i1], -(-lo // a))  # ceil(lo / a)
        b_hi = np.minimum(n_bound, (hi - 1) // a)
        rows = b_lo <= b_hi  # a row with no cell in [lo, hi) has no valid slice
        a, b_lo, b_hi = a[rows], b_lo[rows], b_hi[rows]
        start = (a * b_lo - lo).tolist()
        stop = (a * b_hi - lo + 1).tolist()
        seg = np.zeros(hi - lo, dtype=bool)
        for step, s, e, b, c in zip(a.tolist(), start, stop, b_lo.tolist(),
                                    (b_hi + 1).tolist()):
            seg[s:e:step] |= bm[b:c]
        total += int(np.count_nonzero(seg))
    return total


def _aq_sorted(members: np.ndarray, n_bound: int) -> int:
    """A_Q(N) by sorting the member products a*b, a <= b, one chunk of the
    product range [1, N^2] at a time, and counting the distinct values.

    A chunk [lo, hi) takes every member a with a*N >= lo and a*a < hi, each
    with its window of b, found by searchsorted; its products are one ragged
    gather.  The span starts at its cap, halves while a chunk holds more than
    _AQ_PAIRS pairs and doubles after a chunk that holds under half of them.
    """
    narrow = members.astype(np.uint32)  # members <= MAX_N_AQ
    top = n_bound * n_bound
    total = 0
    lo, span = 1, _AQ_SPAN_CAP
    while lo <= top:
        hi = min(lo + span, top + 1)
        i0 = int(np.searchsorted(members, -(-lo // n_bound)))
        i1 = int(np.searchsorted(members, math.isqrt(hi - 1), "right"))
        a = members[i0:i1]
        # b runs over members[j0:j1]: b >= a, a*b >= lo and a*b < hi
        j0 = np.maximum(np.arange(i0, i1), np.searchsorted(members, -(-lo // a)))
        j1 = np.searchsorted(members, (hi - 1) // a, "right")
        runs = np.maximum(j1 - j0, 0)
        pairs = int(runs.sum())
        if pairs > _AQ_PAIRS and span > 1:
            span //= 2
            continue
        if pairs:
            idx = np.arange(pairs, dtype=np.int64)
            idx += np.repeat(j0 - (np.cumsum(runs) - runs), runs)
            prods = narrow[idx]
            del idx
            # uint32 arithmetic wraps mod 2^32, and the true offset lies in
            # [0, span) with span <= 2^32, so the wrapped value is exact
            prods *= np.repeat(narrow[i0:i1], runs)
            prods -= np.uint32(lo & 0xFFFFFFFF)
            prods.sort()
            total += 1 + int(np.count_nonzero(prods[1:] != prods[:-1]))
        lo = hi
        if 2 * pairs < _AQ_PAIRS:
            span = min(2 * span, _AQ_SPAN_CAP)
    return total


def count_aq(ps: PrimeSet, n_bound: int) -> CountResult:
    """A_Q(N): number of distinct products ab with a, b in S_Q and a, b <= N.

    Two exact kernels, chosen by the density of S_Q(N).  With m members,
    W = m(N+1) - sum(members) is the bitmap kernel's unpruned strided-write
    count, one per cell a*b with a <= b; its row bound skips the cells a
    smaller row writes (about 15% of them for the set of all primes), so W
    is an upper bound on the writes it makes.  The sorted kernel sorts
    m(m+1)/2 pairs.  The rule is kept on the unpruned W: charging a sorted
    pair two strided writes, a set takes "sorted-products" iff m(m+1) < W
    and "segmented-bitmap" otherwise; the set of all primes, with
    W = m(m+1)/2, always takes the bitmap.  Both kernels give the same count.
    """
    if not n_bound >= 1:
        raise ValueError(f"count_aq requires N >= 1, got {n_bound}")
    if n_bound >= MAX_N_AQ + 1:
        raise ValueError(f"count_aq capped at N <= {MAX_N_AQ}, got {n_bound}")
    n_bound = int(n_bound)
    bm = _sq_bitmap(ps, n_bound)
    members = np.flatnonzero(bm)
    m = members.size
    if m * (m + 1) < m * (n_bound + 1) - int(members.sum()):
        value, method = _aq_sorted(members, n_bound), "sorted-products"
    else:
        value, method = _aq_bitmap(bm, n_bound), "segmented-bitmap"
    return CountResult(value, method)


def count_rough(ps: PrimeSet, x: float, z: float) -> int:
    """#{n <= x : n in S_Q, P-(n) > z}; includes n = 1.  An n > 1 of S_Q has
    a prime factor <= z iff it is a multiple of a Q-prime <= min(z, x)."""
    if not 1 <= x < math.inf or math.isnan(z):
        raise ValueError(f"count_rough requires a finite x >= 1 and a z, got {x}, {z}")
    xi = int(math.floor(x))
    bm = _sq_bitmap(ps, xi)
    qs = ps.members[: bisect_right(ps.members, min(z, xi))]
    return count_sq(ps, xi) - _count_multiples(bm, xi, qs)
