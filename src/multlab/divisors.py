"""Divisor structure of integers: factorizations, the interval system

    L(a) = meas( union over d|a of (log d - log 2, log d] )

and the pair count W(a) = #{(d, d'): d|a, d'|a, |log(d/d')| <= log 2}.
Also enumerators for S_Q, the integers composed only of primes from Q.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .primes import LOG2, PrimeSet, sieve_primes

MERGE_SLACK = 1e-12
MAX_DIVISORS_L = 1 << 20
MAX_DIVISORS_W = 1 << 16

_prime_cache = sieve_primes(1 << 16)


def _primes_up_to(bound: int) -> np.ndarray:
    global _prime_cache
    if _prime_cache[-1] < bound:
        _prime_cache = sieve_primes(max(bound, 2 * int(_prime_cache[-1])))
    return _prime_cache


@dataclass
class Factorization:
    """Prime factorization of n >= 1.  For n = 1: omega 0, P+ = 1, P- = +inf."""

    n: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), ascending
    omega: int
    mu_squared: int
    p_plus: int
    p_minus: float  # +inf sentinel for n = 1


def factorize(n: int) -> Factorization:
    """Trial division by sieved primes up to sqrt(n); desk scale."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n == 1:
        return Factorization(1, (), 0, 1, 1, math.inf)
    m = n
    factors: list[tuple[int, int]] = []
    for p in _primes_up_to(math.isqrt(n) + 1):
        p = int(p)
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    if m > 1:
        factors.append((m, 1))
    omega = len(factors)
    mu_sq = 1 if all(e == 1 for _, e in factors) else 0
    return Factorization(n, tuple(factors), omega, mu_sq, factors[-1][0], float(factors[0][0]))


def divisors(n: int) -> list[int]:
    """Sorted divisors of n, expanded from the factorization."""
    divs = [1]
    for p, e in factorize(n).factors:
        pk = 1
        extended = list(divs)
        for _ in range(e):
            pk *= p
            extended.extend(d * pk for d in divs)
        divs = extended
    divs.sort()
    return divs


def in_sq(ps: PrimeSet, n: int) -> bool:
    """Is every prime factor of n a member of Q?  (n = 1 qualifies.)"""
    if n < 1:
        raise ValueError(f"in_sq requires n >= 1, got {n}")
    members = ps.members
    for p, _ in factorize(n).factors:
        if p > ps.limit:
            raise ValueError(
                f"prime factor {p} of {n} exceeds materialized limit {ps.limit}"
            )
        i = bisect_right(members, p)
        if i == 0 or members[i - 1] != p:
            return False
    return True


def _product_tree(primes: list[int], cap: int, step: int) -> list[int]:
    """Ascending products of the ascending primes up to cap, 1 included.

    step 0 lets a child reuse its parent's last prime (prime powers allowed);
    step 1 moves past it (distinct primes only).
    """
    out = [1]
    stack: list[tuple[int, int]] = [(1, 0)]
    while stack:
        prod, i0 = stack.pop()
        for i in range(i0, len(primes)):
            nxt = prod * primes[i]
            if nxt > cap:
                break
            out.append(nxt)
            stack.append((nxt, i + step))
    out.sort()
    return out


def enumerate_sq(ps: PrimeSet, x: float) -> list[int]:
    """Ascending members of S_Q up to x, generated by recursive products.

    Never filters the integers: walks products of Q-primes (with repetition)
    directly, so the cost is proportional to the output size.
    """
    if x < 1:
        return []
    if ps.limit < x:
        raise ValueError(f"prime set materialized to {ps.limit} < x = {x}")
    cap = int(x)
    return _product_tree([int(p) for p in ps.members[ps.members <= cap]], cap, 0)


def enumerate_p_smooth_sq(ps: PrimeSet, z: float, cap: int) -> list[int]:
    """Ascending squarefree members of S_Q with largest prime factor <= z, up to cap."""
    if cap < 1:
        return []
    bound = min(float(z), float(cap))
    if ps.limit < bound:
        raise ValueError(f"prime set materialized to {ps.limit} < min(z, cap) = {bound}")
    return _product_tree([int(p) for p in ps.members[ps.members <= bound]], cap, 1)


@dataclass
class IntervalUnion:
    """Disjoint sorted half-open intervals (lo, hi] with total measure."""

    intervals: tuple[tuple[float, float], ...]
    measure: float


def _merge_log_intervals(logs: list[float]) -> IntervalUnion:
    """Union of (t - log 2, t] for t in logs (ascending), glued with 1e-12 slack."""
    merged: list[list[float]] = []
    for t in logs:
        lo = t - LOG2
        if merged and lo <= merged[-1][1] + MERGE_SLACK:
            if t > merged[-1][1]:
                merged[-1][1] = t
        else:
            merged.append([lo, t])
    intervals = tuple((lo, hi) for lo, hi in merged)
    return IntervalUnion(intervals, math.fsum(hi - lo for lo, hi in intervals))


def l_interval_union(a: int) -> IntervalUnion:
    """The interval system of a: union over divisors d of (log d - log 2, log d]."""
    divs = divisors(a)
    if len(divs) > MAX_DIVISORS_L:
        raise ValueError(f"{a} has {len(divs)} divisors, beyond the {MAX_DIVISORS_L} cap")
    return _merge_log_intervals([math.log(d) for d in divs])


def l_measure(a: int) -> float:
    return l_interval_union(a).measure


def w_count(a: int) -> int:
    """#{(d, d') : d|a, d'|a, |log(d/d')| <= log 2}, by exact integer comparisons.

    The boundary ratio d/d' = 2 is included (closed condition); the test is
    d' <= 2d and d <= 2d', never floating point.
    """
    divs = divisors(a)
    if len(divs) > MAX_DIVISORS_W:
        raise ValueError(f"{a} has {len(divs)} divisors, beyond the {MAX_DIVISORS_W} cap")
    return _w_count_sorted(divs)


def _w_count_sorted(divs) -> int:
    count = 0
    lo = 0
    hi = 0
    k = len(divs)
    for i in range(k):
        d = divs[i]
        while 2 * divs[lo] < d:  # divs[lo] too small: d > 2 d'
            lo += 1
        if hi < i:
            hi = i
        while hi + 1 < k and divs[hi + 1] <= 2 * d:
            hi += 1
        count += hi - lo + 1
    return count


def tau_from_factors(factors) -> int:
    t = 1
    for _, e in factors:
        t *= e + 1
    return t
