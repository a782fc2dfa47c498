"""Shared fixtures: prime sets are sieved once per session and reused, and
one hypothesis profile that keeps property tests deterministic."""

import pytest
from hypothesis import settings

from multlab import make_prime_set

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
