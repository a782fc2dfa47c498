"""Shared fixtures: prime sets are sieved once per session and reused, and
one hypothesis profile that keeps property tests deterministic.  Also the
trial-division membership test `in_sq`, the reference for the S_Q walkers,
`reference_aq_sorted`, which counts A_Q(N) by sorting member products and
shares no code with `aq_curve`, and the per-term loops that the array and
integer forms of `poisson_sum_log` and `_steck_determinant` must match bit
for bit."""

import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from multlab import PrimeSet, factorize, make_prime_set

settings.register_profile("multlab", derandomize=True, database=None, deadline=None)
settings.load_profile("multlab")

LIMIT = 100_000


@pytest.fixture(scope="session")
def ps_all():
    return make_prime_set("all", LIMIT)


@pytest.fixture(scope="session")
def ps_1mod4():
    return make_prime_set("congruence", LIMIT, modulus=4, residues=(1,))


@pytest.fixture(scope="session")
def ps_odd():
    # all odd primes: density 1 but 2 is excluded, handy for parity checks
    return make_prime_set("congruence", LIMIT, modulus=2, residues=(1,))


@pytest.fixture(scope="session")
def ps_thinned():
    return make_prime_set("thinned", LIMIT, target_density=0.4, seed=7)


def in_sq(ps: PrimeSet, n: int) -> bool:
    """Is every prime factor of n a member of Q?  (n = 1 qualifies.)"""
    if n < 1:
        raise ValueError(f"in_sq requires n >= 1, got {n}")
    members = ps.members
    for p, _ in factorize(n):
        if p > ps.limit:
            raise ValueError(
                f"prime factor {p} of {n} exceeds materialized limit {ps.limit}"
            )
        i = bisect_right(members, p)
        if i == 0 or members[i - 1] != p:
            return False
    return True


# A chunk of the product range holds at most this many member pairs, and spans
# at most 2^32 products, so each offset a*b - lo fits in uint32.
AQ_PAIRS = 1 << 18
AQ_SPAN_CAP = 1 << 32


def reference_aq_sorted(members: np.ndarray, n_bound: int) -> int:
    """A_Q(N) by sorting the member products a*b, a <= b, one chunk of the
    product range [1, N^2] at a time, and counting the distinct values.

    A chunk [lo, hi) takes every member a with a*N >= lo and a*a < hi, each
    with its window of b, found by searchsorted; its products are one ragged
    gather.  The span starts at its cap, halves while a chunk holds more than
    AQ_PAIRS pairs and doubles after a chunk that holds under half of them.
    """
    narrow = members.astype(np.uint32)  # members <= 1e5
    top = n_bound * n_bound
    total = 0
    lo, span = 1, AQ_SPAN_CAP
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
        if pairs > AQ_PAIRS and span > 1:
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
        if 2 * pairs < AQ_PAIRS:
            span = min(2 * span, AQ_SPAN_CAP)
    return total


def reference_poisson_sum_log(lam: float, v: int) -> float:
    """log Sigma(lam, v) by one Python loop over k, a float at a time."""
    lam = float(lam)
    if lam == 0:
        return -math.inf
    log_lam = math.log(lam)
    logs = []
    lg = 0.0  # log k!, accumulated incrementally
    for k in range(1, v + 1):
        lg += math.log(k)
        logs.append(k * log_lam - lg + math.log((v - k + 1) / v))
    m = max(logs)
    return m + math.log(math.fsum(math.exp(t - m) for t in logs))


def reference_steck_determinant(lower: list[Fraction], k: int) -> Fraction:
    """Steck's leading minors D_j = sum_{e=1..j} (-1)^(e-1) (c_j^e / e!) D_{j-e},
    c_j = (1 - lower_j)_+, in Fractions; the probability is k! D_k."""
    dets = [Fraction(1)]
    for j in range(1, k + 1):
        c = max(Fraction(0), 1 - lower[j - 1])
        term, total = Fraction(1), Fraction(0)
        for e in range(1, j + 1):
            term *= -c / e  # (-c_j)^e / e!
            total -= term * dets[j - e]
        dets.append(total)
    return dets[k] * math.factorial(k)
