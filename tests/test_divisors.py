"""Factorizations, S_Q enumeration, the interval system L(a), and W(a)."""

import importlib
import math
import random

import numpy as np
import pytest

from multlab import (
    enumerate_sq,
    factorize,
    divisors,
    l_measure,
    make_prime_set,
    w_count,
)
from multlab.divisors import log_table, squarefree_lw
from multlab.experiments import resolve_prime_set
from multlab.primes import LOG2

from conftest import in_sq


def test_factorize_basic():
    # no prime factor: omega 0 and squarefree
    assert factorize(1) == ()

    f12 = factorize(12)
    assert f12 == ((2, 2), (3, 1))
    # omega, squarefree, P+ and P-
    assert (len(f12), all(e == 1 for _, e in f12), f12[-1][0], f12[0][0]) == (2, False, 3, 2)

    assert factorize(97) == ((97, 1),)

    primorial = factorize(9699690)  # 2*3*5*7*11*13*17*19
    assert len(primorial) == 8 and all(e == 1 for _, e in primorial)
    assert primorial[-1][0] == 19


def test_factorize_grows_prime_cache():
    n = 65537 * 65537  # needs trial primes beyond the initial cache
    assert factorize(n) == ((65537, 2),)
    assert factorize(65537 * 65539) == ((65537, 1), (65539, 1))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_divisors_small():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    for n in range(1, 200):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_in_sq(ps_1mod4):
    assert in_sq(ps_1mod4, 1)
    assert in_sq(ps_1mod4, 25)
    assert in_sq(ps_1mod4, 5 * 13)
    assert not in_sq(ps_1mod4, 10)
    assert not in_sq(ps_1mod4, 3)
    with pytest.raises(ValueError):
        in_sq(ps_1mod4, 0)


def test_in_sq_beyond_limit():
    tiny = make_prime_set("all", 10)
    with pytest.raises(ValueError, match="limit"):
        in_sq(tiny, 22)  # factor 11 not materialized


def test_enumerate_sq_all_integers(ps_all):
    assert enumerate_sq(ps_all, 10).tolist() == list(range(1, 11))
    assert enumerate_sq(ps_all, 0.5).tolist() == []
    assert enumerate_sq(ps_all, 10).dtype == enumerate_sq(ps_all, 0.5).dtype == np.int64


def test_enumerate_sq_sparse(ps_1mod4):
    assert enumerate_sq(ps_1mod4, 100).tolist() == [
        1, 5, 13, 17, 25, 29, 37, 41, 53, 61, 65, 73, 85, 89, 97,
    ]


def test_enumerate_sq_matches_membership_filter(ps_1mod4, ps_thinned):
    for ps in (ps_1mod4, ps_thinned):
        listed = enumerate_sq(ps, 2000).tolist()
        filtered = [n for n in range(1, 2001) if in_sq(ps, n)]
        assert listed == filtered


def test_enumerate_sq_requires_materialized_primes():
    tiny = make_prime_set("all", 10)
    with pytest.raises(ValueError):
        enumerate_sq(tiny, 100)


def test_enumerate_sq_names_a_nan_x(ps_all):
    with pytest.raises(ValueError, match=r"enumerate_sq requires a number x, got nan"):
        enumerate_sq(ps_all, math.nan)
    with pytest.raises(ValueError, match="x = inf"):
        enumerate_sq(ps_all, math.inf)
    assert enumerate_sq(ps_all, -math.inf).tolist() == []


@pytest.mark.parametrize("desc", ["thinned:0.4:7", "congruence:3:2", "congruence:8:1+3"])
def test_walkers_match_brute_force(desc):
    ps = resolve_prime_set(desc, 3000)
    members = [n for n in range(1, 3001) if in_sq(ps, n)]
    assert enumerate_sq(ps, 3000).tolist() == members


@pytest.mark.parametrize("desc", ["all", "congruence:3:2", "congruence:8:1+3"])
def test_walkers_at_square_caps(desc):
    # caps on both sides of a prime square, where the walk switches from
    # growing smooth products to looping over cofactors of the large primes
    ps = resolve_prime_set(desc, 200)
    members = [n for n in range(1, 201) if in_sq(ps, n)]
    for cap in (1, 2, 3, 4, 5, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122, 200):
        assert enumerate_sq(ps, cap).tolist() == [n for n in members if n <= cap], cap


def test_l_measure_singletons():
    assert l_measure(1) == LOG2  # the one interval (-log 2, 0]

    # divisors 1, 3 sit more than a factor 2 apart: two disjoint intervals
    assert l_measure(3) == pytest.approx(2 * LOG2)


def test_l_measure_merges_chain():
    # divisors 1, 2, 3, 6 chain into one interval of length log 2 + log 6
    assert l_measure(6) == pytest.approx(math.log(12))


def test_l_upper_bounds():
    rng = random.Random(4)
    for _ in range(300):
        a = rng.randint(1, 5000)
        tau = len(divisors(a))
        l_val = l_measure(a)
        assert l_val <= LOG2 * tau + 1e-9
        assert l_val <= LOG2 + math.log(a) + 1e-9


def test_w_count_small():
    assert w_count(1) == 1
    assert w_count(2) == 4
    assert w_count(4) == 7  # boundary ratio exactly 2 is included
    assert w_count(6) == 10


def test_w_count_brute_force():
    rng = random.Random(11)
    for _ in range(120):
        a = rng.randint(1, 4000)
        divs = divisors(a)
        brute = sum(
            1 for d in divs for e in divs if e <= 2 * d and d <= 2 * e
        )
        assert w_count(a) == brute


def test_cauchy_schwarz_bridge():
    # log2 * tau(a)^2 / W(a) <= L(a): the overlap count controls the measure
    rng = random.Random(8)
    for _ in range(200):
        a = rng.randint(1, 5000)
        tau = len(divisors(a))
        w = w_count(a)
        assert w >= tau  # diagonal pairs alone
        assert LOG2 * tau * tau / w <= l_measure(a) + 1e-9


def _assert_matches_trial_division(n):
    """Every block of `squarefree_lw(n)` against the per-a reference."""
    walked = []
    for a_vals, primes, l_vals, w_vals in squarefree_lw(n):
        m = a_vals.size
        assert primes.shape == (m, primes.shape[1]) and l_vals.shape == w_vals.shape == (m,)
        walked += zip(a_vals.tolist(), primes.tolist(), l_vals.tolist(), w_vals.tolist())
    assert sorted(a for a, *_ in walked) == [
        a for a in range(1, n + 1) if all(e == 1 for _, e in factorize(a))
    ]
    # blocks come by ascending omega, and within an omega ascending in a
    assert [a for a, *_ in walked] == sorted(
        (a for a, *_ in walked), key=lambda a: (len(factorize(a)), a))
    for a, primes, l_val, w_val in walked:
        assert primes == [p for p, _ in factorize(a)], a
        # array kernels against the per-a reference loops: equal bits, not approx
        assert l_val == l_measure(a), a
        assert w_val == w_count(a), a


def test_squarefree_lw_matches_trial_division():
    _assert_matches_trial_division(10_000)


@pytest.mark.parametrize("cells", [4, 64])
def test_squarefree_lw_across_row_chunks(monkeypatch, cells):
    monkeypatch.setattr(importlib.import_module("multlab.divisors"), "_LW_BLOCK_CELLS", cells)
    omegas = [primes.shape[1] for _, primes, *_ in squarefree_lw(2_000)]
    assert omegas.count(2) > 1  # the omega = 2 group spans several row chunks
    _assert_matches_trial_division(2_000)


def test_squarefree_lw_first_omega_six():
    # 30030 = 2*3*5*7*11*13, the first a with omega = 6
    blocks = list(squarefree_lw(30_030))
    a_vals, primes, l_vals, w_vals = blocks[-1]
    assert a_vals.tolist() == [30_030]
    assert primes.tolist() == [[2, 3, 5, 7, 11, 13]]
    assert l_vals.tolist() == [l_measure(30_030)]
    assert w_vals.tolist() == [w_count(30_030)]
    assert max(b[1].shape[1] for b in squarefree_lw(30_029)) == 5


def test_log_table_holds_math_log():
    logs = log_table(2_000)
    assert logs.dtype == np.float64 and logs.shape == (2_001,)
    assert logs[0] == -math.inf
    assert all(logs[d] == math.log(d) for d in range(1, 2_001))  # equal bits


def test_squarefree_lw_reads_a_passed_log_table():
    own = [b[2].tolist() for b in squarefree_lw(3_000)]
    assert [b[2].tolist() for b in squarefree_lw(3_000, log_table(5_000))] == own
    assert [b[2].tolist() for b in squarefree_lw(3_000, log_table(1_500))] == own
    with pytest.raises(IndexError):  # a short table fails loudly
        list(squarefree_lw(3_000, log_table(1_000)))


def test_squarefree_lw_edges():
    [(a_vals, primes, l_vals, w_vals)] = squarefree_lw(1)
    assert a_vals.tolist() == [1] and primes.shape == (1, 0)
    assert l_vals.tolist() == [math.log(2)] and w_vals.tolist() == [1]
    for n in (0, -5):
        with pytest.raises(ValueError):
            squarefree_lw(n)
