"""Counting functions: H_Q by two methods plus a brute-force oracle, A_Q,
and rough numbers."""

import ast
import dataclasses
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multlab.counting as counting
from multlab import (
    aq_curve,
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

from conftest import in_sq, reference_aq_sorted


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

    monkeypatch.setattr(counting, "enumerate_sq", forbidden)
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
    assert res.method == "increments"


def test_count_aq_matches_outer_product(ps_all, ps_1mod4, ps_thinned):
    for ps, n in ((ps_all, 200), (ps_1mod4, 500), (ps_thinned, 1000)):
        members = enumerate_sq(ps, n)
        expected = len(np.unique(np.outer(members, members)))
        assert count_aq(ps, n).value == expected


AQ_SETS = ("all", "congruence:4:1", "congruence:3:2", "congruence:8:1+3",
           "thinned:0.4:7", "thinned:0.2:3")


@settings(max_examples=60)
@given(desc=st.sampled_from(AQ_SETS), n=st.integers(1, 400))
def test_count_aq_matches_outer_product_everywhere(desc, n):
    ps = resolve_prime_set(desc, 400)
    members = enumerate_sq(ps, n)
    expected = len(np.unique(np.outer(members, members)))
    assert count_aq(ps, n).value == expected


@st.composite
def small_prime_sets(draw):
    """A thinned set with a random seed and density, or a random congruence
    class, to 300."""
    if draw(st.booleans()):
        return make_prime_set("thinned", 300, target_density=draw(st.floats(0.05, 1.0)),
                              seed=draw(st.integers(0, 2**32)))
    modulus = draw(st.integers(2, 30))
    units = [r for r in range(modulus) if math.gcd(r, modulus) == 1]
    residues = draw(st.lists(st.sampled_from(units), min_size=1, unique=True))
    return make_prime_set("congruence", 300, modulus=modulus, residues=residues)


@settings(max_examples=40)
@given(ps=small_prime_sets())
@example(ps=make_prime_set("all", 300))
@example(ps=make_prime_set("congruence", 300, modulus=2, residues=[1]))  # S_Q: the odd n
def test_aq_curve_matches_outer_product_at_every_n(ps):
    # the outer product's rows and columns enter one member n at a time
    members = enumerate_sq(ps, 300).tolist()
    seen, expected = set(), [0]
    for n in range(1, 301):
        if n in members:
            seen.update(n * k for k in members if k <= n)
        expected.append(len(seen))
    curve = aq_curve(ps, 300)
    assert curve.dtype == np.int64
    assert curve.tolist() == expected


@pytest.mark.parametrize("desc,n_max", [("all", 3000), ("congruence:3:2", 10_000),
                                        ("congruence:8:1+3", 30_000),
                                        ("thinned:0.6:11", 10_000)])
def test_aq_curve_matches_sorted_products(desc, n_max):
    ps = resolve_prime_set(desc, n_max)
    curve = aq_curve(ps, n_max)
    rng = random.Random(desc)
    for n in rng.sample(range(1, n_max), 3) + [n_max]:
        assert curve[n] == reference_aq_sorted(enumerate_sq(ps, n), n), n


def test_count_aq_reports_one_method(ps_all, ps_1mod4, ps_thinned):
    assert count_aq(ps_all, 1000).method == "increments"
    for ps in (ps_1mod4, ps_thinned):
        res = count_aq(ps, 1500)
        assert res.method == "increments"
        members = enumerate_sq(ps, 1500)
        assert res.value == len(np.unique(np.outer(members, members)))


@pytest.mark.parametrize("desc", AQ_SETS)
def test_aq_row_bound_keeps_every_product(desc):
    # the curve's rows without its buffer: for n in S_Q, the k with n*k = a*b
    # for members a, b < n are the cells a*b, b <= n/g_i - 1 in S_Q, of the
    # rows a in [g_{i-1}, g_i), g_i the divisors of n up to sqrt(n); row
    # a > 1, p = spf(a), may start at b = max(a, cap[a/p] // p + 1); and past
    # row 1, every member up to top = n/g_1 - 1, row a may start at
    # b = top // a + 1, so a row with a <= top // c keeps nothing
    ps = resolve_prime_set(desc, 200)
    member = counting._sq_bitmap(ps, 200).tolist()
    spf = _smallest_prime_factors(200).tolist()
    for n in range(2, 201):
        if not member[n]:
            continue
        below = np.flatnonzero(member[:n])
        prods = np.outer(below, below)
        old = set((prods[prods % n == 0] // n).tolist())
        top = n // spf[n] - 1
        cap, cells, kept, past, lo = {}, set(), set(), set(), 1
        for g in (d for d in range(2, math.isqrt(n) + 1) if n % d == 0):
            c = n // g - 1
            for a in (a for a in range(lo, g) if member[a]):
                b0 = max(a, cap[a // spf[a]] // spf[a] + 1) if a > 1 else 1
                cap[a] = c
                row = [b for b in range(1, c + 1) if member[b]]
                cells.update(a * b for b in row)
                kept.update(a * b for b in row if b >= b0)
                rest = {a * b for b in row if b >= max(b0, top // a + 1)}
                assert not (a <= top // c and rest), (n, a)
                past |= rest
                # the buffer's pre-marked non-members: a*b is one when b is
                assert not any(member[a * b] for b in range(1, c + 1) if not member[b])
            lo = g
        assert old == cells == kept, n
        assert min(past, default=top + 1) > top, n
        assert old == {k for k in range(1, top + 1) if member[k]} | past, n


@pytest.mark.parametrize("desc,n", [("all", 2**14), ("thinned:0.4:7", 2**16)])
def test_aq_curve_keeps_python_state_to_sqrt_n(desc, n):
    # the curve and the member flags take 8 bytes a cell each, the buffer and
    # its clean copy 1 each; a per-n divisor table took about 188 bytes a
    # cell, and a Python-int prefix count of S_Q about 70.  Tracing costs
    # about a microsecond per Python int the rows make, so the set of all
    # primes runs at 2^14 (3.4 s traced on a 2 vCPU Xeon, 25 s at 2^16)
    ps = resolve_prime_set(desc, n)
    tracemalloc.start()
    try:
        aq_curve(ps, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * n, peak / n


def test_count_aq_dense_sets_across_segments():
    # counts from the segmented bitmap kernel that the curve replaced; its
    # N^2 spanned 48 and 12 segments of 2^23 cells
    for desc, n, value in (("all", 20_000, 87_938_320),
                           ("thinned:0.9:1", 10_000, 16_481_236)):
        assert count_aq(resolve_prime_set(desc, n), n).value == value


def test_thinned_set_below_its_first_prime_is_one():
    ps = resolve_prime_set("thinned:0.4:20260825", 400)
    assert np.flatnonzero(counting._sq_bitmap(ps, 4)).tolist() == [1]
    assert count_aq(ps, 4).value == 1
    assert aq_curve(ps, 4).tolist() == [0, 1, 1, 1, 1]


def test_count_aq_past_uint32_products():
    # N^2 = 4.9e9 and 1e10, past 2^32; the removed bitmap and sorted kernels
    # gave these counts
    for desc, n, value in (("thinned:0.2:3", 70_000, 5_692_997),
                           ("thinned:0.1:3", 100_000, 710_483)):
        assert count_aq(resolve_prime_set(desc, n), n).value == value


def test_count_aq_validation(ps_all):
    with pytest.raises(ValueError):
        count_aq(ps_all, 0)
    with pytest.raises(ValueError):
        count_aq(ps_all, 2_000_000)
    with pytest.raises(ValueError, match="capped"):
        count_aq(ps_all, counting.MAX_N_AQ + 1)
    for n in (0, math.nan, counting.MAX_N_AQ + 1):
        with pytest.raises(ValueError, match="aq_curve"):
            aq_curve(ps_all, n)
    with pytest.raises(ValueError, match="materialized"):
        aq_curve(make_prime_set("all", 1000), 2000)


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


def test_count_hq_exhaustive_matches_divisors_of_each_n(ps_all, ps_1mod4, ps_thinned):
    for x in (3000, 3025):  # 3025 = 55^2, a square at the sqrt(x) split
        r = math.isqrt(x)
        for ps in (ps_all, ps_1mod4, ps_thinned):
            rows = [divisors(n) for n in range(1, x + 1) if in_sq(ps, n)]
            # d = 1 in range, z at and past x, narrow and broad (y, z], and
            # (y, z] ending at sqrt(x), starting past it, straddling it by one
            # and wholly above it
            for y, z in ((0, 1), (0.5, math.inf), (0.9, 40), (10, 400), (700, x),
                         (30, 5 * x), (2, 3), (5.5, 7), (0, r), (r, math.inf),
                         (r - 1, r + 1), (r + 3, 4 * r)):
                expected = sum(any(y < d <= z for d in row) for row in rows)
                assert count_hq(ps, x, y, z, method="exhaustive").value == expected, (
                    ps.kind, x, y, z)
    # the multiples of 3, 6 and 7, non-members of S_Q for 1 mod 4, hold no member
    for y, z in ((2, 3), (5.5, 7)):
        assert count_hq(ps_1mod4, 3000, y, z, method="exhaustive").value == 0


@pytest.mark.parametrize("x", (1, 2, 3, 48, 49, 50, 3025, 10**4 + 7))
def test_count_hq_exhaustive_writes_at_most_two_sqrt_x_slices(ps_all, monkeypatch, x):
    writes = []
    zeros = np.zeros

    class Marks(np.ndarray):  # a bool buffer that records the writes into it
        def __setitem__(self, key, value):
            writes.append(key)
            super().__setitem__(key, value)

    def counted(shape, dtype=float):
        out = zeros(shape, dtype)
        return out.view(Marks) if out.dtype == bool else out

    r = math.isqrt(x)
    # (0, 3] lies below sqrt(x): its cofactor slices would all be empty
    for y, z in ((0, math.inf), (0, 3), (0, r), (r, math.inf), (r - 1, r + 1), (x / 3, x / 2)):
        expected = count_hq(ps_all, x, y, z, method="exhaustive").value
        writes.clear()
        with monkeypatch.context() as m:
            m.setattr(counting.np, "zeros", counted)
            assert count_hq(ps_all, x, y, z, method="exhaustive").value == expected
        assert len(writes) <= 2 * r, (x, y, z)
        assert writes or not expected, (x, y, z)


def test_count_hq_exhaustive_keeps_one_array_of_marks():
    # a divisor table over [0, x], as this method once built, took 172 bytes a
    # cell, and blocks of x + 1 int64 multiples 42; one bool array of marks and
    # the members of S_Q take about 21
    x = 2**18
    ps = make_prime_set("all", x)
    for y, z in ((0.5, math.inf), (1000, 2000)):
        tracemalloc.start()
        try:
            value = count_hq(ps, x, y, z, method="exhaustive").value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == count_hq(ps, x, y, z).value
        assert peak < 24 * x, (y, z, peak)


def test_src_sets_no_module_global():
    # no call leaves state in a module for the next: a cache lives in an object
    # its caller holds, as acceptance's Context holds its prime sets
    sources = sorted(Path(counting.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)], path


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
    # shorter bitmaps of one set are unpacked from its limit-2000 bitmap, from
    # the bytes that cover [lo, x] alone
    for x in BITMAP_XS:
        assert counting._sq_bitmap(ps, x).tolist() == expected[: x + 1], x
        for lo in (0, 1, 7, 8, 9, x // 2, x):
            if lo <= x:
                assert counting._sq_bitmap(ps, x, lo).tolist() == expected[lo : x + 1], (lo, x)


@st.composite
def bitmap_windows(draw):
    """A set of all primes, a congruence set or a thinned set, to a drawn limit,
    and a window [lo, hi) of [0, limit], often one that ends at the limit."""
    limit = draw(st.integers(2, 600))
    kind = draw(st.sampled_from(("all", "congruence", "thinned")))
    if kind == "all":
        ps = make_prime_set("all", limit)
    elif kind == "congruence":
        m = draw(st.integers(3, 12))
        units = [a for a in range(1, m) if math.gcd(a, m) == 1]
        residues = draw(st.lists(st.sampled_from(units), min_size=1, unique=True))
        ps = make_prime_set("congruence", limit, modulus=m, residues=residues)
    else:
        ps = make_prime_set("thinned", limit, target_density=draw(st.floats(0.2, 0.9)),
                            seed=draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(0, limit))
    hi = draw(st.one_of(st.just(limit + 1), st.integers(lo + 1, limit + 1)))
    return ps, lo, hi


@settings(max_examples=200)
@given(bitmap_windows())
@example((make_prime_set("congruence", 100, modulus=4, residues=(1,)), 3, 13))
@example((make_prime_set("congruence", 100, modulus=4, residues=(1,)), 97, 101))
@example((make_prime_set("thinned", 203, target_density=0.5, seed=1), 195, 204))
@example((make_prime_set("all", 16), 8, 16))
@example((make_prime_set("all", 16), 16, 17))
def test_unpacked_bitmap_and_count_sq_match_factorize(case):
    # the bits of [lo, hi) and count_sq at every x there, against in_sq, which
    # factorizes each n; (limit + 1) % 8 takes every value, so windows end
    # inside the last byte as well as at a byte boundary
    ps, lo, hi = case
    member = [False] + [in_sq(ps, n) for n in range(1, hi)]
    assert counting._sq_bitmap(ps, hi - 1, lo).tolist() == member[lo:]
    below = np.cumsum(member).tolist()
    assert [count_sq(ps, x) for x in range(lo, hi)] == below[lo:]
    assert not np.unpackbits(ps.sq_bitmap, bitorder="little")[ps.limit + 1 :].any()


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
        m.setattr(counting, "enumerate_sq", forbidden)
        assert count_hq(ps, x, y, z, method="divisor-multiples").value == expected
