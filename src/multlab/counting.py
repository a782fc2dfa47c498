"""Counting functions on S_Q: integers with a divisor in an interval, distinct
products, and rough numbers.

H_Q(x, y, z) counts n in S_Q, n <= x, having a divisor in (y, z]; A_Q(N) counts
distinct products ab with a, b in S_Q up to N.  Two independent H_Q methods are
kept deliberately separate so they cross-validate each other.  S_Q membership
up to x is read from the prime set's own bitmap, one bit per integer, built
with the set, to its limit: count_sq counts its set bits, and _sq_bitmap is
the one reader that unpacks a range of it into bools.  No kernel branches on
the kind of prime set.  Because S_Q is closed under divisors, the
divisor-multiples method marks the multiples of the members d in (y, z] and
intersects the marks with the bitmap, and a rough count takes the multiples
of the Q-primes up to z from S_Q, both by primes.mark_multiples one
cache-sized window of [0, x] at a time, packed and ANDed with the bitmap's
bytes before the bits are counted.  A_Q(n) for every n <= N comes
from one pass over the members n of S_Q: the products n*k that are not new
lie in a few rectangles fixed by the divisors of n up to sqrt(n), which a
sieve over the members up to sqrt(N) yields; all but the first are marked,
one strided write per row, in a buffer of N + 1 bools.  Only the
exhaustive H_Q method builds S_Q another way, as products of Q-primes, and
it marks the multiples of every integer in (y, z] by the hyperbola split.
The kernels return counts and the method they ran; timing a run is the
experiments' reporter's job.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .divisors import _smallest_prime_factors, enumerate_sq
from . import primes
from .primes import PrimeSet

# The cap is time and memory: (0, x] at x = 2^21 is 2,895 slices over 31M cells,
# 0.08 s; a fresh process takes 0.3 s and 72 MB peak RSS on a 2 vCPU Xeon.
MAX_X_EXHAUSTIVE = 1 << 21
HQ_METHODS = ("divisor-multiples", "exhaustive")


@dataclass
class CountResult:
    value: int
    method: str


def _sq_bitmap(ps: PrimeSet, x: int, lo: int = 0) -> np.ndarray:
    """Membership of S_Q over [lo, x] as x + 1 - lo bools, unpacked from the
    bytes of the set's own bitmap, one bit per integer, that cover it."""
    # a slice past the end is silently short, so an x beyond the limit is an error
    if ps.limit < x:
        raise ValueError(f"prime set materialized to {ps.limit} < x = {x}")
    skip = lo // 8  # whole bytes below lo
    bits = np.unpackbits(ps.sq_bitmap[skip : x // 8 + 1], bitorder="little")
    return bits[lo - 8 * skip : x + 1 - 8 * skip].view(bool)


def _popcount(bits: np.ndarray) -> int:
    """Set bits in a uint8 array, counted primes.SIEVE_SEGMENT bytes at a time."""
    seg = primes.SIEVE_SEGMENT
    return sum(int(np.bitwise_count(bits[i : i + seg]).sum()) for i in range(0, bits.size, seg))


def _count_multiples(ps: PrimeSet, xi: int, steps: np.ndarray) -> int:
    """Members n in [1, xi] of S_Q that are a multiple of one of the ascending
    int64 steps, marked one window of [0, xi] at a time in one buffer, packed
    and ANDed with the set's bitmap: at most one window per
    primes.SIEVE_SEGMENT cells, and never so many that the largest step writes
    fewer than 256 cells in one, so a broad set of steps takes one window.
    Each window is a multiple of 8 cells, so it packs onto whole bytes.  At
    most SIEVE_SEGMENT steps are Python ints at once."""
    if not steps.size:
        return 0
    seg = primes.SIEVE_SEGMENT
    windows = max(1, min(-(-(xi + 1) // seg), xi // int(steps[-1]) // 256))
    width = -(-(xi + 1) // (8 * windows)) * 8
    marked = np.zeros(width, dtype=bool)
    value = 0
    for lo in range(0, xi + 1, width):
        window = marked[: xi + 1 - lo]
        window[:] = False
        for i in range(0, steps.size, seg):
            primes.mark_multiples(window, lo, steps[i : i + seg].tolist(), True)
        packed = np.packbits(window, bitorder="little")
        packed &= ps.sq_bitmap[lo // 8 : lo // 8 + packed.size]
        value += _popcount(packed)
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
    method "exhaustive": mark the multiples of every integer in (y, z],
    member or not, and count the marked members of S_Q, built as products
    of Q-primes.  By Dirichlet's hyperbola method, one slice marks every
    multiple of each d <= t = floor(min(z, max(y, sqrt(x)))), and one per
    cofactor j <= x/(t + 1) the j*d with d in (t, z]: at most 2 sqrt(x)
    slices.  The two share no counting logic.  A z >= x reads as (y, x], so
    z may be +inf.
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
        ds = np.flatnonzero(_sq_bitmap(ps, d_hi, d_lo))
        ds += d_lo
        return CountResult(_count_multiples(ps, xi, ds), method)

    # every d in range, member or not, so no membership enters the marks; an
    # interval below sqrt(x) runs no cofactor slices, which would all be empty
    t = min(d_hi, max(d_lo - 1, math.isqrt(xi)))
    hit = np.zeros(xi + 1, dtype=bool)
    for d in range(d_lo, t + 1):
        hit[d::d] = True
    for j in range(1, xi // (t + 1) + 1 if t < d_hi else 1):
        hit[j * (t + 1) : j * d_hi + 1 : j] = True  # the slice stops at x
    return CountResult(int(np.count_nonzero(hit[enumerate_sq(ps, xi)])), method)


def count_sq(ps: PrimeSet, x: float) -> int:
    """|S_Q intersect [1, x]|."""
    if not -math.inf < x < math.inf:
        raise ValueError(f"count_sq requires a finite x, got {x}")
    xi = int(math.floor(x))
    if xi < 1:
        return 0
    if ps.limit < xi:
        raise ValueError(f"prime set materialized to {ps.limit} < x = {xi}")
    full, rest = divmod(xi + 1, 8)  # the bytes wholly in [0, x], and the bits past them
    tail = int(ps.sq_bitmap[full]) & ((1 << rest) - 1) if rest else 0
    return _popcount(ps.sq_bitmap[:full]) + tail.bit_count()


# The cap is run time: the curve for the set of all primes, the densest set,
# makes about 4.5M slice writes over 2.3e9 cells to N = 1e5 and counts 2.9e9,
# about 4 s on a 2 vCPU Xeon, and its cells grow like N^2.
MAX_N_AQ = 100_000
AQ_METHOD = "increments"


def aq_curve(ps: PrimeSet, n_bound: int) -> np.ndarray:
    """A_Q(n) for every 0 <= n <= N, as int64, by one increment per member n.

    A product n*k, k <= n in S_Q, is a product of two members below n iff
    k = a*b with a <= g - 1 and b <= n/g - 1, both in S_Q, for a divisor
    1 < g <= sqrt(n) of n (g or n/g is gcd(n, a') for such a pair a', b').  So
    with the divisors 1 = g_0 < g_1 < ... of n up to sqrt(n), each member row
    a in [g_{i-1}, g_i) marks the cells a*b, b <= c = n/g_i - 1 in S_Q, of one
    buffer.  Row 1 marks exactly the members up to top = n/g_1 - 1, so it is
    counted, not written: row a starts past top // a, a row with a*c <= top
    writes nothing, and every mark lies in (top, n).  Row a > 1, p = spf(a), also
    starts at b = max(a, cap[a/p] // p + 1), cap[a] its c at this n: a
    smaller b is a smaller row's cell b*a, or (a/p)*(p*b) with p*b <= cap[a/p],
    which row a/p marks.  Non-members start marked, so a row marks a*b for
    every b <= c (S_Q is closed under divisors), and the increment is n*n and
    the unmarked cells in (top, n), or |S_Q(n)| for 1 and a prime.  The g
    come from a dict of the next multiple of each member g <= sqrt(N).
    """
    if not n_bound >= 1:
        raise ValueError(f"aq_curve and count_aq require N >= 1, got {n_bound}")
    if n_bound >= MAX_N_AQ + 1:
        raise ValueError(f"aq_curve and count_aq capped at N <= {MAX_N_AQ}, got {n_bound}")
    n_bound = int(n_bound)
    bm = _sq_bitmap(ps, n_bound)
    member = bm.tolist()
    marks = (fresh := ~bm).copy()  # the buffer, and its state before any row writes
    rows = [a for a in range(1, math.isqrt(n_bound) + 1) if member[a]]
    spf = _smallest_prime_factors(rows[-1]).tolist()
    info = [(a, spf[a], bisect_left(rows, a // spf[a])) for a in rows]  # a, p, row of a/p
    cap = [0] * len(rows)  # cap[i]: row rows[i]'s last b at this n
    pending = {a * a: [i] for i, a in enumerate(rows) if i}  # n -> rows g | n, g*g <= n
    curve = np.zeros(n_bound + 1, dtype=np.int64)  # increments, then summed
    size = 0
    for n in range(1, n_bound + 1):
        gs = pending.pop(n, ())
        for i in gs:
            pending.setdefault(n + rows[i], []).append(i)
        if member[n]:
            size += 1
            curve[n] = _new_products(n, sorted(gs), rows, info, cap, marks, fresh) if gs else size
    return np.cumsum(curve, out=curve)


def _new_products(n: int, gs: list[int], rows: list[int], info: list[tuple[int, int, int]],
                  cap: list[int], marks: np.ndarray, fresh: np.ndarray) -> int:
    """aq_curve's increment at a composite member n, gs the rows of its divisors
    1 < g <= sqrt(n), ascending; the buffer is left as it was found."""
    top = n // rows[gs[0]] - 1
    for lo, hi in zip([0] + gs, gs):
        c = n // rows[hi] - 1
        cap[lo:hi] = [c] * (hi - lo)
        for a, p, q in info[bisect_right(rows, top // c, lo, hi) : hi]:
            b0 = cap[q] // p + 1  # max() with branches, for speed
            if b0 < a:
                b0 = a
            if a * b0 <= top:
                b0 = top // a + 1
            if b0 <= c:
                marks[a * b0 : a * c + 1 : a] = True
    new = n - top - int(np.count_nonzero(marks[top + 1 : n]))
    marks[top + 1 : n] = fresh[top + 1 : n]
    return new


def count_aq(ps: PrimeSet, n_bound: int) -> CountResult:
    """A_Q(N): number of distinct products ab with a, b in S_Q and a, b <= N,
    read from the top of aq_curve."""
    return CountResult(int(aq_curve(ps, n_bound)[-1]), AQ_METHOD)


def count_rough(ps: PrimeSet, x: float, z: float) -> int:
    """#{n <= x : n in S_Q, P-(n) > z}; includes n = 1.  An n > 1 of S_Q has
    a prime factor <= z iff it is a multiple of a Q-prime <= min(z, x)."""
    if not 1 <= x < math.inf or math.isnan(z):
        raise ValueError(f"count_rough requires a finite x >= 1 and a z, got {x}, {z}")
    xi = int(math.floor(x))
    qs = ps.members[: bisect_right(ps.members, min(z, xi))]
    return count_sq(ps, xi) - _count_multiples(ps, xi, qs)
