"""Divisor structure of integers: factorizations, the measure

    L(a) = meas( union over d|a of (log d - log 2, log d] )

and the pair count W(a) = #{(d, d'): d|a, d'|a, |log(d/d')| <= log 2}.
Also the enumerator of S_Q, the integers composed only of primes from Q.
Factorizations trial-divide by a fixed tuple of the primes below 2^16 and
the odd numbers past it, so no prime list grows with the inputs.

`squarefree_lw` gives L(a) and W(a) of every squarefree a <= n in array blocks
from a `log_table`; `l_measure`, `w_count`, `factorize` and `divisors` are its
per-a reference.
"""

from __future__ import annotations

import math
from itertools import chain, count

import numpy as np

from .primes import LOG2, PrimeSet, mark_multiples, sieve_primes

MERGE_SLACK = 1e-12
MAX_DIVISORS_L = 1 << 20
MAX_DIVISORS_W = 1 << 16
# Cells (rows x 2^omega divisors) per block of `squarefree_lw`.  c03 on a 2 vCPU Xeon: 2^13
# saves 3% of its time for 0.3 MB more peak RSS, 2^14 costs 1.3 MB, 2^10 is 15% slower.
_LW_BLOCK_CELLS = 1 << 12

_SMALL_PRIMES = tuple(sieve_primes(1 << 16).tolist())


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n >= 1, ascending; () for n = 1.

    Trial division up to sqrt(n): by the primes below 2^16, then by the odd
    numbers past them.  An odd composite never divides, because its prime
    factors are divided out before it is reached.  Desk scale."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    m = n
    factors: list[tuple[int, int]] = []
    for p in chain(_SMALL_PRIMES, count(_SMALL_PRIMES[-1] + 2, 2)):
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
    return tuple(factors)


def divisors(n: int) -> list[int]:
    """Sorted divisors of n, expanded from the factorization."""
    divs = [1]
    for p, e in factorize(n):
        pk = 1
        extended = list(divs)
        for _ in range(e):
            pk *= p
            extended.extend(d * pk for d in divs)
        divs = extended
    divs.sort()
    return divs


def enumerate_sq(ps: PrimeSet, x: float) -> np.ndarray:
    """Ascending int64 array of the members of S_Q up to x, generated as
    products of Q-primes.

    Never filters the integers: builds products of Q-primes (with repetition)
    directly, so the cost is about proportional to the output size.
    """
    if math.isnan(x):
        raise ValueError(f"enumerate_sq requires a number x, got {x}")
    if x < 1:
        return np.zeros(0, dtype=np.int64)
    if ps.limit < x:
        raise ValueError(f"prime set materialized to {ps.limit} < x = {x}")
    cap = int(x)
    primes = ps.members[ps.members <= cap]
    split = int(np.searchsorted(primes, math.isqrt(cap), side="right"))
    # Products of the primes up to sqrt(cap), grown one prime at a time from
    # the `live` products that the prime can still extend within cap.
    parts = [np.ones(1, dtype=np.int64)]
    live = parts[0]
    for p in primes[:split].tolist():
        live = live[live <= cap // p]
        layer, grown = live, []
        while layer.size:
            layer = layer * p
            grown.append(layer)
            layer = layer[layer <= cap // p]
        parts.extend(grown)
        live = np.concatenate([live, *grown])
    # A product with a prime p > sqrt(cap) holds it once, times a cofactor
    # m < sqrt(cap) < p of smaller primes, so loop over m instead of over p.
    large = primes[split:]
    if large.size:
        smooth = np.concatenate(parts)
        for m in np.sort(smooth[smooth <= cap // int(large[0])]).tolist():
            parts.append(large[: np.searchsorted(large, cap // m, side="right")] * m)
    out = np.concatenate(parts)
    out.sort()
    return out


def l_measure(a: int) -> float:
    """L(a), the measure of the union over divisors d of (log d - log 2, log d]."""
    divs = divisors(a)
    if len(divs) > MAX_DIVISORS_L:
        raise ValueError(f"{a} has {len(divs)} divisors, beyond the {MAX_DIVISORS_L} cap")
    rest = iter(divs)
    hi = math.log(next(rest))
    lo = hi - LOG2
    lengths: list[float] = []
    for d in rest:
        t = math.log(d)
        if t - LOG2 > hi + MERGE_SLACK:  # a gap: the interval (lo, hi] is complete
            lengths.append(hi - lo)
            lo = t - LOG2
        hi = t
    lengths.append(hi - lo)
    return math.fsum(lengths)


def w_count(a: int) -> int:
    """#{(d, d') : d|a, d'|a, |log(d/d')| <= log 2}, by exact integer comparisons.

    The boundary ratio d/d' = 2 is included (closed condition); the test is
    d' <= 2d and d <= 2d', never floating point.
    """
    divs = divisors(a)
    if len(divs) > MAX_DIVISORS_W:
        raise ValueError(f"{a} has {len(divs)} divisors, beyond the {MAX_DIVISORS_W} cap")
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


def _smallest_prime_factors(n: int) -> np.ndarray:
    """spf[m] = the smallest prime factor of m, for 0 <= m <= n (spf[0] = 0,
    spf[1] = 1), sieved once as int32."""
    spf = np.zeros(n + 1, dtype=np.int32)
    for p in sieve_primes(max(2, math.isqrt(n))).tolist():  # the sieve needs >= 2
        multiples = spf[p * p :: p]  # a view: the store below writes spf
        multiples[multiples == 0] = p
    unset = np.flatnonzero(spf == 0)
    spf[unset] = unset
    return spf


def log_table(n: int) -> np.ndarray:
    """float64 logs[d] = math.log(d) for 1 <= d <= n, and logs[0] = -inf."""
    return np.fromiter(chain([-math.inf], map(math.log, range(1, n + 1))), np.float64, n + 1)


def squarefree_lw(n: int, logs: np.ndarray | None = None):
    """Yield blocks (a, primes, L, W) that cover each squarefree a <= n once, by
    ascending omega(a) and then a: `a`, L and W have shape (m,), `primes` (m, omega)
    holds each a's primes ascending, and L, W equal `l_measure`, `w_count` bit for bit.
    A proper divisor's log is read from `logs`, a `log_table` to n // 2 or past it that
    a caller may share (built here when None); each a's own log is one math.log."""
    if n < 1:
        raise ValueError(f"squarefree_lw requires n >= 1, got {n}")
    logs = log_table(n // 2) if logs is None else logs
    return _lw_blocks(n, _smallest_prime_factors(n), logs)


def _lw_blocks(n: int, spf: np.ndarray, logs: np.ndarray):
    omega = np.full(n + 1, -1, dtype=np.int8)  # omega(a) for squarefree a, else -1
    for lo in range(1, n + 1, _LW_BLOCK_CELLS):  # prime factors with multiplicity
        a = np.arange(lo, min(lo + _LW_BLOCK_CELLS, n + 1))
        count, cof = np.zeros(a.size, dtype=np.int8), a.copy()
        while (live := cof > 1).any():
            count += live
            cof //= spf[cof]
        omega[a] = count
    mark_multiples(omega, 0, [k * k for k in range(2, math.isqrt(n) + 1)], -1)  # squareful
    for w in range(int(omega.max()) + 1):
        group = np.flatnonzero(omega == w)
        rows = max(1, _LW_BLOCK_CELLS >> w)
        for a in np.split(group, range(rows, group.size, rows)):
            primes, cof = np.empty((a.size, w), dtype=np.int64), a.copy()
            divs = np.ones((a.size, 1), dtype=np.int64)
            for j in range(w):  # the divisors without the j-th prime, then with it
                primes[:, j] = spf[cof]
                cof //= primes[:, j]
                divs = np.concatenate([divs, divs * primes[:, j, None]], axis=1)
            divs.sort(axis=1)
            # W: per divisor d, the d' in [ceil(d/2), 2d], with the rows kept
            # apart by 2n + 1; d - d // 2 = ceil(d/2), so both bounds are exact
            off = divs + (np.arange(a.size) * (2 * n + 1))[:, None]
            hi = np.searchsorted(off.ravel(), (off + divs).ravel(), side="right")
            lo = np.searchsorted(off.ravel(), (off - divs // 2).ravel(), side="left")
            # L: runs end at gaps as in `l_measure`; math.log, as np.log differs in a few ulps
            t = np.empty(divs.shape)
            t[:, :-1] = logs[divs[:, :-1]]  # the proper divisors; the largest is a
            t[:, -1] = np.fromiter(map(math.log, a.tolist()), np.float64, a.size)
            gap = t[:, 1:] - LOG2 > t[:, :-1] + MERGE_SLACK
            edge = np.ones((a.size, 1), dtype=bool)
            first, last = np.concatenate([edge, gap], axis=1), np.concatenate([gap, edge], axis=1)
            # Runs exceed log 2 > 1/2 and a row's sum is below 2^6: in units of 2^-53
            # it is exact in int64 and rounds once on its way back, as math.fsum does
            lengths = np.zeros(divs.shape)  # row-major: k-th run start, k-th run end
            lengths[last] = t[last] - (t[first] - LOG2)
            units = np.ldexp(lengths, 53).astype(np.int64).sum(axis=1)
            l_vals = np.ldexp(units.astype(np.float64), -53)
            yield a, primes, l_vals, (hi - lo).reshape(divs.shape).sum(axis=1)
