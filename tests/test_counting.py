"""Counting functions: H_Q by two methods plus a brute-force oracle, A_Q,
rough numbers, and the L-weighted reciprocal sums."""

import math
import random

import numpy as np
import pytest

import multlab.counting as counting
from multlab import (
    build_lambda_intervals,
    count_aq,
    count_hq,
    count_hq_star,
    count_rough,
    count_sq,
    divisors,
    enumerate_sq,
    factorize,
    in_sq,
    mertens_sum,
    pi_q,
    sum_l_over_a,
    sum_recip_ab,
    t_q,
)
from multlab.divisors import l_measure
from multlab.experiments import resolve_prime_set
from multlab.primes import LOG2, PrimeSet, make_prime_set


def brute_hq(ps, x, y, z, squarefree_only=False):
    """Definition of H_Q, verbatim: no sieve, no divisor table."""
    count = 0
    for n in range(1, int(math.floor(x)) + 1):
        if not in_sq(ps, n):
            continue
        if squarefree_only and factorize(n).mu_squared == 0:
            continue
        if any(y < d <= z for d in divisors(n)):
            count += 1
    return count


def test_count_hq_known_values(ps_all, ps_odd):
    for method in ("divisor-multiples", "exhaustive"):
        assert count_hq(ps_all, 20, 3, 6, method=method).value == 10
        assert count_hq(ps_odd, 20, 3, 6, method=method).value == 2
        assert count_hq_star(ps_all, 20, 3, 6, method=method).value == 4


def test_count_hq_unit_divisor(ps_all):
    # d = 1 divides everything in S_Q
    assert count_hq(ps_all, 10, 0.5, 1.5).value == 10


def test_count_hq_empty_interval_warning(ps_all):
    res = count_hq(ps_all, 100, 6, 6)
    assert res.value == 0
    assert "empty divisor interval" in res.warning
    # (y, z] free of integers is a silent zero, not a warning
    assert count_hq(ps_all, 100, 6.2, 6.8).value == 0


def test_count_hq_validation(ps_all):
    with pytest.raises(ValueError):
        count_hq(ps_all, 0, 1, 2)
    with pytest.raises(ValueError):
        count_hq(ps_all, 10, -1, 2)
    with pytest.raises(ValueError):
        count_hq(ps_all, 10, 1, 2, method="guess")


def test_count_hq_checks_limit_for_both_methods():
    tiny = make_prime_set("all", 100)
    for method in ("divisor-multiples", "exhaustive"):
        with pytest.raises(ValueError, match="materialized"):
            count_hq(tiny, 1000, 10, 20, method=method)


def test_count_hq_rejects_unknown_method_on_empty_interval(ps_all):
    with pytest.raises(ValueError, match="unknown count_hq method"):
        count_hq(ps_all, 100, 6, 6, method="bogus")


def test_count_hq_matches_brute_force(ps_all, ps_1mod4):
    rng = random.Random(6)
    for ps in (ps_all, ps_1mod4):
        for _ in range(12):
            x = rng.randint(1, 300)
            y = rng.uniform(0, x)
            z = rng.uniform(y, 1.1 * x)
            expected = brute_hq(ps, x, y, z)
            for method in ("divisor-multiples", "exhaustive"):
                assert count_hq(ps, x, y, z, method=method).value == expected
            assert count_hq_star(ps, x, y, z).value == brute_hq(
                ps, x, y, z, squarefree_only=True
            )


def test_count_hq_methods_agree(ps_all, ps_1mod4, ps_thinned):
    rng = random.Random(2)
    sets = (ps_all, ps_1mod4, ps_thinned)
    for i in range(30):
        ps = sets[i % 3]
        x = rng.randint(1, 3000)
        y = rng.uniform(0, x)
        z = rng.uniform(y, 1.2 * x)
        a = count_hq(ps, x, y, z, method="divisor-multiples")
        b = count_hq(ps, x, y, z, method="exhaustive")
        assert a.value == b.value
        sa = count_hq_star(ps, x, y, z, method="divisor-multiples").value
        sb = count_hq_star(ps, x, y, z, method="exhaustive").value
        assert sa == sb
        assert sa <= a.value


def test_count_hq_monotone(ps_1mod4):
    rng = random.Random(3)
    for _ in range(12):
        x = rng.randint(10, 2000)
        y = rng.uniform(0, x / 2)
        z1 = rng.uniform(y, x)
        z2 = rng.uniform(z1, x)
        h1 = count_hq(ps_1mod4, x, y, z1).value
        assert h1 <= count_hq(ps_1mod4, x, y, z2).value
        assert h1 <= count_hq(ps_1mod4, 2 * x, y, z1).value


def test_count_aq_known_values(ps_all):
    assert count_aq(ps_all, 1).value == 1
    assert count_aq(ps_all, 4).value == 9
    res = count_aq(ps_all, 1000)
    assert res.value == 248083  # distinct entries of the 1000 x 1000 table
    assert res.method == "product-set"


def test_count_aq_matches_outer_product(ps_all, ps_1mod4):
    for ps, n in ((ps_all, 200), (ps_1mod4, 500)):
        members = np.array(enumerate_sq(ps, n), dtype=np.int64)
        expected = len(np.unique(np.outer(members, members)))
        assert count_aq(ps, n).value == expected


def test_count_aq_segmented_path(ps_all, ps_1mod4, monkeypatch):
    monkeypatch.setattr(counting, "_AQ_SET_PAIR_CAP", 1000)
    monkeypatch.setattr(counting, "_AQ_SEGMENT", 1 << 17)
    for ps, n in ((ps_all, 1500), (ps_1mod4, 1500)):
        res = count_aq(ps, n)
        assert res.method == "segmented-bitmap"
        members = np.array(enumerate_sq(ps, n), dtype=np.int64)
        assert res.value == len(np.unique(np.outer(members, members)))


def test_count_aq_validation(ps_all):
    with pytest.raises(ValueError):
        count_aq(ps_all, 0)
    with pytest.raises(ValueError):
        count_aq(ps_all, 2_000_000)


def test_count_rough_known_values(ps_all):
    assert count_rough(ps_all, 30, 3).value == 10
    # above z = sqrt(x) only 1 and the primes in (z, x] survive
    assert count_rough(ps_all, 10_000, 100).value == 1 + 1229 - 25
    assert count_rough(ps_all, 100, 100).value == 1


def test_count_rough_matches_brute_force(ps_1mod4):
    for z in (1, 5, 30):
        expected = sum(
            1
            for n in range(1, 401)
            if in_sq(ps_1mod4, n) and factorize(n).p_minus > z
        )
        assert count_rough(ps_1mod4, 400, z).value == expected


def test_count_sq_matches_enumeration(ps_1mod4, ps_all):
    assert count_sq(ps_1mod4, 3000) == len(enumerate_sq(ps_1mod4, 3000))
    # shorter prefix served from the cached longer bitmap
    assert count_sq(ps_1mod4, 800) == len(enumerate_sq(ps_1mod4, 800))
    assert count_sq(ps_all, 500) == 500
    assert count_sq(ps_all, 0) == 0


def test_count_rough_leaves_cache_intact(ps_1mod4):
    before = count_sq(ps_1mod4, 2000)
    count_rough(ps_1mod4, 2000, 50)
    assert count_sq(ps_1mod4, 2000) == before


def test_sum_l_over_a_small_oracle(ps_1mod4, ps_all):
    for ps, limit in ((ps_1mod4, 100), (ps_all, 50)):
        squarefree = [
            a for a in enumerate_sq(ps, limit) if factorize(a).mu_squared == 1
        ]
        expected = math.fsum(l_measure(a) / a for a in squarefree)
        assert sum_l_over_a(ps, limit) == pytest.approx(expected, rel=1e-12)


def test_squarefree_walk_matches_l_measure_on_thinned_set(ps_thinned):
    limit = 3000
    sf = [a for a in range(1, limit + 1)
          if in_sq(ps_thinned, a) and factorize(a).mu_squared == 1]
    expected = math.fsum(l_measure(a) / a for a in sf)
    assert sum_l_over_a(ps_thinned, limit) == pytest.approx(expected, rel=1e-12)
    # t_q cuts the same walk at depth k: omega(a) = 2 and P+(a) <= 2y = 100
    two = [a for a in sf if factorize(a).omega == 2 and factorize(a).p_plus <= 100]
    res = t_q(ps_thinned, 2, 50.0, cap=limit)
    assert res.n_terms == len(two)
    assert res.value == pytest.approx(math.fsum(l_measure(a) / a for a in two), rel=1e-12)


def test_sum_l_over_a_validation(ps_all):
    with pytest.raises(ValueError):
        sum_l_over_a(ps_all, 0)
    with pytest.raises(ValueError):
        sum_l_over_a(ps_all, ps_all.limit * 10)  # beyond materialized range


def test_t_q_omega_zero_and_one(ps_all):
    t0 = t_q(ps_all, 0, 50.0)
    assert (t0.value, t0.tail_bound, t0.n_terms) == (LOG2, 0.0, 1)
    # omega(a) = 1: L(p) = 2 log 2 for every prime, so T = 2 log2 sum 1/p
    t1 = t_q(ps_all, 1, 50.0)
    assert t1.value == pytest.approx(2 * LOG2 * mertens_sum(ps_all, 100.0), rel=1e-12)
    assert t1.tail_bound <= 1e-12
    assert t1.n_terms == pi_q(ps_all, 100.0)


def test_t_q_truncation_bound(ps_all):
    full = t_q(ps_all, 2, 50.0)  # largest product 89*97 fits the default cap
    assert full.tail_bound <= 1e-9
    trunc = t_q(ps_all, 2, 50.0, cap=500)
    assert trunc.n_terms < full.n_terms
    assert trunc.value < full.value
    assert trunc.value + trunc.tail_bound >= full.value


def test_t_q_validation(ps_all):
    with pytest.raises(ValueError):
        t_q(ps_all, -1, 50.0)
    with pytest.raises(ValueError):
        t_q(ps_all, 1, ps_all.limit)  # 2y beyond materialized range


def test_sum_recip_ab_known_values(ps_all):
    dec = build_lambda_intervals(ps_all, 2)  # D_1 = {2}, D_2 = {3, 5, 7}
    assert sum_recip_ab(ps_all, dec, (1,)) == pytest.approx(1 / 2)
    assert sum_recip_ab(ps_all, dec, (0, 1)) == pytest.approx(1 / 3 + 1 / 5 + 1 / 7)
    assert sum_recip_ab(ps_all, dec, (1, 1)) == pytest.approx(
        1 / 6 + 1 / 10 + 1 / 14
    )
    assert sum_recip_ab(ps_all, dec, (2, 0)) == 0.0  # no 2-subset of {2}
    assert sum_recip_ab(ps_all, dec, (0, 2)) == pytest.approx(
        1 / 15 + 1 / 21 + 1 / 35
    )
    assert sum_recip_ab(ps_all, dec, (0, 1), cap=4) == pytest.approx(1 / 3)


def test_sum_recip_ab_partition(ps_all):
    # compositions of 2 over the two intervals partition the 2-subsets of {2,3,5,7}
    dec = build_lambda_intervals(ps_all, 2)
    total = math.fsum(
        sum_recip_ab(ps_all, dec, b) for b in ((2, 0), (1, 1), (0, 2))
    )
    pool = [2, 3, 5, 7]
    direct = math.fsum(
        1 / (p * q) for i, p in enumerate(pool) for q in pool[i + 1 :]
    )
    assert total == pytest.approx(direct, rel=1e-12)


def test_sum_recip_ab_validation(ps_all):
    dec = build_lambda_intervals(ps_all, 2)
    with pytest.raises(ValueError):
        sum_recip_ab(ps_all, dec, ())
    with pytest.raises(ValueError):
        sum_recip_ab(ps_all, dec, (1, 1, 1))
    with pytest.raises(ValueError):
        sum_recip_ab(ps_all, dec, (-1, 1))
    with pytest.raises(ValueError):
        sum_recip_ab(ps_all, dec, (13, 0))


def test_divisor_table_rows_match_divisors(monkeypatch):
    monkeypatch.setattr(counting, "_div_table", None)
    # build at 500, then grow to 3000: the growth rebuilds the global table
    for n in (500, 3000):
        offsets, divs = counting._divisor_table(n)
        assert len(offsets) == n + 2 and offsets[0] == offsets[1] == 0
        assert offsets[-1] == len(divs)
        for m in range(1, n + 1):
            assert divs[offsets[m]:offsets[m + 1]].tolist() == divisors(m), m
    # a smaller request is served by the grown table
    assert counting._divisor_table(100)[1] is divs


BITMAP_SETS = ("thinned:0.4:7", "congruence:3:2", "congruence:8:1+3")
# both sides of the sqrt(x) split between strided and per-cofactor clearing
BITMAP_XS = (1, 2, 3, 4, 48, 49, 50, 120, 121, 2000)


@pytest.mark.parametrize("desc", BITMAP_SETS)
def test_sq_bitmap_matches_in_sq(desc, monkeypatch):
    ps = resolve_prime_set(desc, 2000)
    expected = [False] + [in_sq(ps, n) for n in range(1, 2001)]
    monkeypatch.setattr(counting, "_SQ_BITMAP_CACHE", {})
    for x in BITMAP_XS:
        counting._SQ_BITMAP_CACHE.clear()
        assert counting._sq_bitmap(ps, x).tolist() == expected[: x + 1], x
    # with the x = 2000 bitmap cached, shorter ones are views of its prefix
    full = counting._sq_bitmap(ps, 2000)
    for x in BITMAP_XS:
        bm = counting._sq_bitmap(ps, x)
        assert np.shares_memory(bm, full)
        assert bm.tolist() == expected[: x + 1], x


def test_sq_bitmap_rejects_non_prime_members(monkeypatch):
    monkeypatch.setattr(counting, "_SQ_BITMAP_CACHE", {})
    bogus = PrimeSet("congruence", 100, 0.5, np.array([3, 9, 11], dtype=np.int64),
                     {"modulus": 2, "residues": [1]})
    with pytest.raises(ValueError, match="not primes"):
        counting._sq_bitmap(bogus, 100)


@pytest.mark.parametrize("desc", ("congruence:3:2", "congruence:8:1+3"))
def test_count_hq_methods_agree_on_other_moduli(desc):
    ps = resolve_prime_set(desc, 100_000)
    rng = random.Random(8)
    log_span = math.log(100_000) - math.log(2.0)
    for i in range(20):
        x = 100_000.0 if i % 10 == 0 else math.exp(math.log(2.0) + rng.random() * log_span)
        y = rng.uniform(0.0, 0.99 * x)
        z = rng.uniform(y, x)
        a = count_hq(ps, x, y, z, method="divisor-multiples").value
        assert count_hq(ps, x, y, z, method="exhaustive").value == a
        sa = count_hq_star(ps, x, y, z, method="divisor-multiples").value
        assert count_hq_star(ps, x, y, z, method="exhaustive").value == sa
        assert sa <= a


def test_count_hq_methods_stay_independent(ps_1mod4, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("shared machinery between the two H_Q methods")

    x, y, z = 5000, 40.0, 900.0
    expected = count_hq(ps_1mod4, x, y, z).value
    with monkeypatch.context() as m:
        m.setattr(counting, "_sq_bitmap", forbidden)
        assert count_hq(ps_1mod4, x, y, z, method="exhaustive").value == expected
    with monkeypatch.context() as m:
        m.setattr(counting, "_divisor_table", forbidden)
        m.setattr(counting, "enumerate_sq", forbidden)
        m.setattr(counting, "_SQ_BITMAP_CACHE", {})  # build, not reuse
        assert count_hq(ps_1mod4, x, y, z, method="divisor-multiples").value == expected
