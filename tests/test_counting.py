"""Counting functions: H_Q by two methods plus a brute-force oracle, A_Q,
and rough numbers."""

import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multlab.counting as counting
from multlab import (
    count_aq,
    count_hq,
    count_rough,
    count_sq,
    divisors,
    enumerate_sq,
    factorize,
)
from multlab import primes
from multlab.divisors import _smallest_prime_factors, l_measure
from multlab.experiments import resolve_prime_set
from multlab.primes import LOG2, PrimeSet, _complement_sieve, make_prime_set, sieve_primes

from conftest import in_sq


def brute_hq(ps, x, y, z):
    """Definition of H_Q, verbatim: no sieve, no divisor table."""
    count = 0
    for n in range(1, int(math.floor(x)) + 1):
        if not in_sq(ps, n):
            continue
        if any(y < d <= z for d in divisors(n)):
            count += 1
    return count


def test_count_hq_known_values(ps_all, ps_odd):
    for method in ("divisor-multiples", "exhaustive"):
        assert count_hq(ps_all, 20, 3, 6, method=method).value == 10
        assert count_hq(ps_odd, 20, 3, 6, method=method).value == 2


def test_count_hq_unit_divisor(ps_all):
    # d = 1 divides everything in S_Q
    assert count_hq(ps_all, 10, 0.5, 1.5).value == 10


def test_count_hq_empty_interval_is_zero(ps_all, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a kernel ran on an empty interval")

    monkeypatch.setattr(counting, "_divisor_table", forbidden)
    monkeypatch.setattr(counting, "_sq_bitmap", forbidden)
    # y >= z, (y, z] free of integers, and y >= x
    for y, z in ((6, 6), (7, 6), (6.2, 6.8), (100, 200)):
        for method in counting.HQ_METHODS:
            assert count_hq(ps_all, 100, y, z, method=method) == (
                counting.CountResult(0, method))
    # the exhaustive cap is checked before the interval
    big = dataclasses.replace(ps_all, limit=counting.MAX_X_EXHAUSTIVE + 1)
    with pytest.raises(ValueError, match="exhaustive method capped"):
        count_hq(big, counting.MAX_X_EXHAUSTIVE + 1, 6, 6, method="exhaustive")


def test_count_hq_reads_z_past_x_as_x(ps_all):
    for method in counting.HQ_METHODS:
        at_x = count_hq(ps_all, 1000, 40, 1000, method=method).value
        assert at_x > 0
        for z in (1000.5, 5000, math.inf):
            assert count_hq(ps_all, 1000, 40, z, method=method).value == at_x


@pytest.mark.parametrize("x, y, z", [
    (math.nan, 1, 2), (math.inf, 1, 2), (10, math.nan, 2), (10, math.inf, math.inf),
    (10, 1, math.nan), (10, -math.inf, 2),
])
def test_count_hq_rejects_non_finite_input(ps_all, x, y, z):
    for method in counting.HQ_METHODS:
        with pytest.raises(ValueError, match="count_hq requires"):
            count_hq(ps_all, x, y, z, method=method)


def test_count_aq_and_count_rough_reject_non_finite_input(ps_all):
    for n in (math.inf, math.nan):
        with pytest.raises(ValueError, match="count_aq"):
            count_aq(ps_all, n)
    for x, z in ((math.inf, 3), (math.nan, 3), (100, math.nan)):
        with pytest.raises(ValueError, match="count_rough requires"):
            count_rough(ps_all, x, z)


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


@pytest.mark.parametrize("seg", (16, 100, 257))
def test_count_hq_windows_are_invisible(ps_all, ps_1mod4, ps_thinned, monkeypatch, seg):
    monkeypatch.setattr(primes, "SIEVE_SEGMENT", seg)
    cases = [
        (100_000, 0, 1),  # d = 1 alone: every window edge is a multiple
        (100_000, 1, 3), (99_999, 5.5, 12), (77_777, 40, 48), (100_000, 150, 390),
        (seg + 30, 40, math.inf),  # x + 1 below one window
        (100_000, 150, math.inf), (3000, 0, math.inf),
    ]
    rng = random.Random(seg)
    for _ in range(12):  # narrow (y, z] of small d: windows whose edges d divides
        x = rng.randint(2, 100_000)
        y = rng.uniform(0, 200)
        cases.append((x, y, y + rng.uniform(0, 60)))
    for x, y, z in cases:
        for ps in (ps_all, ps_1mod4, ps_thinned):
            expected = count_hq(ps, x, y, z, method="exhaustive").value
            assert count_hq(ps, x, y, z).value == expected, (ps.kind, x, y, z)


def test_count_hq_marks_one_window_at_a_time(monkeypatch):
    # a full-length marks array, or a copy of the bitmap, would take x bytes
    x = 4_000_000
    ps = make_prime_set("all", x)
    tracemalloc.start()
    try:
        value = count_hq(ps, x, 100, 200).value
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rough = count_rough(ps, x, 1000)  # the primes <= 1000 leave room for windows
        rough_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x // 2, peak
    assert rough_peak < x // 2, rough_peak
    monkeypatch.setattr(primes, "SIEVE_SEGMENT", 1 << 23)  # one window over [0, x]
    assert count_hq(ps, x, 100, 200).value == value > 0
    assert count_rough(ps, x, 1000) == rough > 0


def test_count_multiples_takes_at_most_a_segment_of_steps(ps_all, ps_thinned, monkeypatch):
    seg = 64
    monkeypatch.setattr(primes, "SIEVE_SEGMENT", seg)
    mark, sizes = primes.mark_multiples, []

    def spy(window, lo, steps, value):
        sizes.append(len(steps))
        mark(window, lo, steps, value)

    monkeypatch.setattr(primes, "mark_multiples", spy)
    for ps in (ps_all, ps_thinned):
        for x, y, z in ((5000, 300, math.inf), (5000, 10, 800), (20_000, 2000, 2500)):
            sizes.clear()
            expected = count_hq(ps, x, y, z, method="exhaustive").value
            assert count_hq(ps, x, y, z).value == expected, (ps.kind, x, y, z)
            assert max(sizes) == seg, (ps.kind, x, y, z)  # full chunks, none larger


@pytest.mark.parametrize("seg", (16, 257))
def test_count_rough_is_sq_minus_hq_over_one_to_z(ps_all, ps_1mod4, ps_thinned,
                                                  monkeypatch, seg):
    # an n > 1 has a prime factor <= z iff it has a divisor in (1, z]
    monkeypatch.setattr(primes, "SIEVE_SEGMENT", seg)
    rng = random.Random(seg)
    cases = [(20_000, math.inf), (1, 5), (3000, 0.5)]
    for _ in range(10):
        x = rng.randint(1, 20_000)
        cases.append((x, rng.choice((rng.uniform(0, 300), rng.uniform(0, x), math.inf))))
    for x, z in cases:
        for ps in (ps_all, ps_1mod4, ps_thinned):
            rough = count_rough(ps, x, z)
            for method in counting.HQ_METHODS:
                hq = count_hq(ps, x, 1, z, method=method).value
                assert rough == count_sq(ps, x) - hq, (ps.kind, x, z, method)


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
    assert res.method == "segmented-bitmap"


def test_count_aq_matches_outer_product(ps_all, ps_1mod4, ps_thinned):
    for ps, n in ((ps_all, 200), (ps_1mod4, 500), (ps_thinned, 1000)):
        members = enumerate_sq(ps, n)
        expected = len(np.unique(np.outer(members, members)))
        assert count_aq(ps, n).value == expected


AQ_SETS = ("all", "congruence:4:1", "congruence:3:2", "congruence:8:1+3",
           "thinned:0.4:7", "thinned:0.2:3")


@settings(max_examples=60)
@given(desc=st.sampled_from(AQ_SETS), n=st.integers(1, 400), k=st.integers(4, 14))
def test_count_aq_matches_outer_product_everywhere(desc, n, k):
    ps = resolve_prime_set(desc, 400)
    members = enumerate_sq(ps, n)
    expected = len(np.unique(np.outer(members, members)))
    # segments from 16 cells to past N^2 = 160,000, so marks cross their edges
    with pytest.MonkeyPatch.context() as m:
        m.setattr(counting, "_AQ_SEGMENT", 1 << k)
        assert count_aq(ps, n).value == expected


def test_count_aq_segmented_path(ps_all, ps_1mod4, ps_thinned, monkeypatch):
    # segments far shorter than N^2 = 2.25e6, so marks cross segment edges;
    # the sparse sets take the sorted kernel in count_aq, so call the bitmap
    monkeypatch.setattr(counting, "_AQ_SEGMENT", 1 << 17)
    for ps, n in ((ps_all, 1500), (ps_1mod4, 1500), (ps_thinned, 1500)):
        bm = counting._sq_bitmap(ps, n)
        members = enumerate_sq(ps, n)
        assert counting._aq_bitmap(bm, n) == len(np.unique(np.outer(members, members)))


def test_count_aq_chooses_by_density(ps_all, ps_1mod4, ps_thinned):
    assert count_aq(ps_all, 1000).method == "segmented-bitmap"
    for ps in (ps_1mod4, ps_thinned):
        res = count_aq(ps, 1500)
        assert res.method == "sorted-products"
        members = enumerate_sq(ps, 1500)
        assert res.value == len(np.unique(np.outer(members, members)))


@settings(max_examples=60)
@given(desc=st.sampled_from(AQ_SETS), n=st.integers(1, 400), k=st.integers(4, 14),
       j=st.integers(3, 14))
@example(desc="all", n=1, k=4, j=0)
@example(desc="all", n=2, k=4, j=0)
@example(desc="all", n=40, k=4, j=0)  # one pair per chunk, then chunks of one product
@example(desc="thinned:0.4:20260825", n=4, k=4, j=3)  # S_Q(4) = {1}
def test_aq_kernels_match_outer_product(desc, n, k, j):
    ps = resolve_prime_set(desc, 400)
    bm = counting._sq_bitmap(ps, n)
    members = np.flatnonzero(bm)
    expected = len(np.unique(np.outer(members, members)))
    # pair budgets from 8 to 16,384 (1 in the examples) against up to 80,200
    # pairs, so chunks split, halve and double across the product range
    with pytest.MonkeyPatch.context() as m:
        m.setattr(counting, "_AQ_SEGMENT", 1 << k)
        m.setattr(counting, "_AQ_PAIRS", 1 << j)
        assert counting._aq_bitmap(bm, n) == expected
        assert counting._aq_sorted(members, n) == expected


@pytest.mark.parametrize("desc", AQ_SETS)
def test_aq_row_bound_keeps_every_product(desc):
    # the bitmap kernel's row bound without segments: row a > 1 takes only
    # b >= first(a) = max(a, n // p + 1), p the smallest prime factor of a,
    # and row 1 takes every b
    ps = resolve_prime_set(desc, 200)
    spf = _smallest_prime_factors(200)
    for n in range(1, 201):
        members = np.flatnonzero(counting._sq_bitmap(ps, n))
        first = np.maximum(members, n // spf[members] + 1)
        first[members == 1] = 1
        table = np.outer(members, members)
        kept = table[members[None, :] >= first[:, None]]
        assert np.array_equal(np.unique(kept), np.unique(table))


def test_count_aq_dense_sets_across_segments():
    # counts from the bitmap kernel before it had a row bound; N^2 spans
    # 48 and 12 segments of 2^23 cells
    for desc, n, value in (("all", 20_000, 87_938_320),
                           ("thinned:0.9:1", 10_000, 16_481_236)):
        res = count_aq(resolve_prime_set(desc, n), n)
        assert res.method == "segmented-bitmap"
        assert res.value == value


def test_thinned_set_below_its_first_prime_is_one():
    ps = resolve_prime_set("thinned:0.4:20260825", 400)
    assert np.flatnonzero(counting._sq_bitmap(ps, 4)).tolist() == [1]
    assert count_aq(ps, 4).value == 1


def test_count_aq_past_uint32_products():
    # N^2 = 4.9e9 > 2^32; the bitmap kernel gave this count
    n = 70_000
    res = count_aq(resolve_prime_set("thinned:0.2:3", n), n)
    assert res.method == "sorted-products"
    assert res.value == 5_692_997


def test_sorted_chunks_span_at_most_2_32_products(monkeypatch):
    # a pair budget above all 725,410 pairs, so the first chunk spans the
    # whole cap; a chunk past 2^32 products would wrap 23 of them onto
    # others.  The bitmap kernel gave this count.
    monkeypatch.setattr(counting, "_AQ_PAIRS", 1 << 20)
    n = 100_000
    members = np.flatnonzero(counting._sq_bitmap(resolve_prime_set("thinned:0.1:3", n), n))
    assert counting._aq_sorted(members, n) == 710_483


def test_count_aq_validation(ps_all):
    with pytest.raises(ValueError):
        count_aq(ps_all, 0)
    with pytest.raises(ValueError):
        count_aq(ps_all, 2_000_000)
    with pytest.raises(ValueError, match="capped"):
        count_aq(ps_all, counting.MAX_N_AQ + 1)


def test_count_rough_known_values(ps_all):
    assert count_rough(ps_all, 30, 3) == 10
    # above z = sqrt(x) only 1 and the primes in (z, x] survive
    assert count_rough(ps_all, 10_000, 100) == 1 + 1229 - 25
    assert count_rough(ps_all, 100, 100) == 1
    assert count_rough(ps_all, 100, math.inf) == 1


def test_count_rough_matches_brute_force(ps_1mod4):
    for z in (1, 5, 30):
        expected = sum(
            1
            for n in range(1, 401)
            if in_sq(ps_1mod4, n) and all(p > z for p, _ in factorize(n))  # P-(n) > z
        )
        assert count_rough(ps_1mod4, 400, z) == expected


def test_count_sq_matches_enumeration(ps_1mod4, ps_all):
    assert count_sq(ps_1mod4, 3000) == len(enumerate_sq(ps_1mod4, 3000))
    # a shorter prefix of the same set's bitmap
    assert count_sq(ps_1mod4, 800) == len(enumerate_sq(ps_1mod4, 800))
    assert count_sq(ps_all, 500) == 500
    assert count_sq(ps_all, 0) == 0


def test_count_sq_rejects_non_finite_x(ps_all):
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="count_sq requires a finite x"):
            count_sq(ps_all, x)


def test_count_rough_leaves_cache_intact(ps_1mod4):
    before = count_sq(ps_1mod4, 2000)
    count_rough(ps_1mod4, 2000, 50)
    assert count_sq(ps_1mod4, 2000) == before


def test_squarefree_walk_matches_l_measure_on_thinned_set(ps_thinned):
    limit = 3000
    sf = [a for a in range(1, limit + 1)
          if in_sq(ps_thinned, a) and all(e == 1 for _, e in factorize(a))]
    walk = [a for a in enumerate_sq(ps_thinned, limit).tolist()
            if all(e == 1 for _, e in factorize(a))]
    assert walk == sf
    # L(a) is log 2 plus each gap between consecutive log-divisors, capped at log 2
    for a in sf:
        logs = [math.log(d) for d in divisors(a)]
        expected = LOG2 + math.fsum(min(LOG2, hi - lo) for lo, hi in zip(logs, logs[1:]))
        assert l_measure(a) == pytest.approx(expected, rel=1e-12)


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


BITMAP_SETS = ("all", "thinned:0.4:7", "congruence:3:2", "congruence:8:1+3")
# both sides of the sqrt(x) split between strided and per-cofactor clearing
BITMAP_XS = (1, 2, 3, 4, 48, 49, 50, 120, 121, 2000)


@pytest.mark.parametrize("desc", BITMAP_SETS)
def test_sq_bitmap_matches_in_sq(desc):
    ps = resolve_prime_set(desc, 2000)
    expected = [False] + [in_sq(ps, n) for n in range(1, 2001)]
    for x in BITMAP_XS:
        if x >= 2:  # a prime set needs limit >= 2
            fresh = resolve_prime_set(desc, x)
            assert counting._sq_bitmap(fresh, x).tolist() == expected[: x + 1], x
    # shorter bitmaps of one set are views of its limit-2000 bitmap
    full = ps.sq_bitmap
    for x in BITMAP_XS:
        bm = counting._sq_bitmap(ps, x)
        assert np.shares_memory(bm, full)
        assert bm.tolist() == expected[: x + 1], x


def test_sq_bitmap_belongs_to_its_prime_set():
    # equal descriptors, different members: each set must count its own S_Q
    params = {"modulus": 2, "residues": [1]}
    primes = sieve_primes(100)
    sets = [PrimeSet("congruence", 100, 0.5, primes[np.isin(primes, m)], params,
                     _complement_sieve(100, primes[~np.isin(primes, m)]))
            for m in ([3, 5, 7], [3, 11, 13])]
    assert sets[0].descriptor() == sets[1].descriptor()
    for ps in sets:
        expected = sum(in_sq(ps, n) for n in range(1, 101))
        assert count_sq(ps, 100) == expected


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


HQ_PROPERTY_X = 20_000


@st.composite
def restricted_prime_sets(draw):
    """A thinned set of density 0.2-0.9 under a drawn hash key, or a congruence
    set mod 3-12 on a drawn nonempty set of unit residues."""
    if draw(st.booleans()):
        density = draw(st.floats(0.2, 0.9))
        key = draw(st.integers(0, 2**32 - 1))
        return make_prime_set("thinned", HQ_PROPERTY_X, target_density=density, seed=key)
    m = draw(st.integers(3, 12))
    units = [a for a in range(1, m) if math.gcd(a, m) == 1]
    residues = draw(st.lists(st.sampled_from(units), min_size=1, unique=True))
    return make_prime_set("congruence", HQ_PROPERTY_X, modulus=m, residues=residues)


@settings(max_examples=300)
@given(restricted_prime_sets(), st.booleans(), st.floats(0, 1), st.floats(0, 0.99),
       st.floats(0, 1))
def test_count_hq_methods_agree_on_drawn_sets(ps, large, tx, ty, tz):
    # as in c04: x uniform on [X/2, X] or log-uniform on [2, X], y uniform on
    # [0, 0.99 x], z uniform on [y, x]
    if large:
        x = HQ_PROPERTY_X * (1.0 + tx) / 2.0
    else:
        x = math.exp(math.log(2.0) + tx * (math.log(HQ_PROPERTY_X) - math.log(2.0)))
    y = ty * x
    z = y + tz * (x - y)
    a = count_hq(ps, x, y, z, method="divisor-multiples").value
    assert count_hq(ps, x, y, z, method="exhaustive").value == a


def test_count_hq_methods_stay_independent(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("shared machinery between the two H_Q methods")

    x, y, z = 5000, 40.0, 900.0
    ps = make_prime_set("congruence", x, modulus=4, residues=(1,))
    # the walk never reads the bitmap, so a blank one leaves its count as it is
    blank = dataclasses.replace(ps, sq_bitmap=np.zeros(x + 1, dtype=bool))
    with monkeypatch.context() as m:
        m.setattr(primes, "mark_multiples", forbidden)
        expected = count_hq(blank, x, y, z, method="exhaustive").value
    assert expected > 0
    with monkeypatch.context() as m:
        m.setattr(counting, "_divisor_table", forbidden)
        m.setattr(counting, "enumerate_sq", forbidden)
        assert count_hq(ps, x, y, z, method="divisor-multiples").value == expected
