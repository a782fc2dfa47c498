"""Shared fixtures: prime sets are sieved once per session and reused, and
one hypothesis profile that keeps property tests deterministic.  Also the
trial-division membership test `in_sq`, the reference for the S_Q walkers."""

from bisect import bisect_right

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
