"""Sieving, prime-set construction, and density audits."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from multlab import (
    density_audit,
    make_prime_set,
    mertens_sum,
    pi_q,
    sieve_primes,
)
from multlab import primes
from multlab.experiments import AUDIT_GRID_POINTS, audit_summary, resolve_prime_set

from conftest import in_sq


def primes_by_trial_division(limit):
    return [
        n
        for n in range(2, limit + 1)
        if all(n % d for d in range(2, math.isqrt(n) + 1))
    ]


def test_sieve_matches_trial_division_small():
    for limit in range(2, 80):
        assert sieve_primes(limit).tolist() == primes_by_trial_division(limit)


def test_sieve_prime_counts():
    assert len(sieve_primes(1000)) == 168
    assert len(sieve_primes(10**6)) == 78498


def test_sieve_segmentation_is_invisible(monkeypatch):
    ref = sieve_primes(10**4).tolist()
    for seg in (16, 100, 257):
        monkeypatch.setattr(primes, "SIEVE_SEGMENT", seg)
        assert sieve_primes(10**4).tolist() == ref


WINDOW_SETS = ("congruence:4:1", "congruence:3:2", "congruence:8:1+3",
               "thinned:0.4:7", "thinned:0.7:20260825")


def test_bitmap_windows_are_invisible(monkeypatch):
    # the 3001 cells of [0, 3000] end in a short window at each size, and
    # sqrt(3000) ~ 54 leaves excluded primes on both sides of the split
    limit = 3000
    sets = {desc: resolve_prime_set(desc, limit) for desc in WINDOW_SETS}
    expected = {desc: [False] + [in_sq(ps, n) for n in range(1, limit + 1)]
                for desc, ps in sets.items()}
    for seg in (16, 100, 257):
        monkeypatch.setattr(primes, "SIEVE_SEGMENT", seg)
        for desc, ps in sets.items():
            bm = resolve_prime_set(desc, limit).sq_bitmap
            assert np.array_equal(bm, ps.sq_bitmap), (seg, desc)
            bits = np.unpackbits(bm, bitorder="little").astype(bool)
            assert bits[: limit + 1].tolist() == expected[desc], (seg, desc)
            assert not bits[limit + 1 :].any(), (seg, desc)


@pytest.mark.parametrize("dtype, fill, value", ((bool, False, True), (np.int8, 5, -1)))
def test_mark_multiples_matches_brute_force(dtype, fill, value):
    # steps longer than some windows, lo = 0, and lo values that steps divide
    steps = [1, 2, 3, 7, 10, 12, 50, 101]
    for lo in (0, 1, 10, 24, 49, 50, 70, 300):
        for length in (1, 17, 40, 250):
            for chosen in (steps, steps[3:], [101]):
                window = np.full(length, fill, dtype=dtype)
                primes.mark_multiples(window, lo, chosen, value)
                expected = [value if n > 0 and any(n % d == 0 for d in chosen) else fill
                            for n in range(lo, lo + length)]
                assert window.tolist() == expected, (lo, length, chosen)


def test_make_prime_set_rejects_non_integral_parameters():
    # int() would truncate each of these into a valid set
    for kwargs in ({"modulus": 4.5, "residues": [1]}, {"modulus": 4, "residues": [1.5]}):
        with pytest.raises(ValueError, match="must be an integer"):
            make_prime_set("congruence", 100, **kwargs)
    with pytest.raises(ValueError, match="seed must be an integer"):
        make_prime_set("thinned", 100, target_density=0.5, seed=7.2)
    # an integral float is an integer
    ps = make_prime_set("congruence", 100, modulus=4.0, residues=[1.0])
    assert ps.params == {"modulus": 4, "residues": [1]}
    assert make_prime_set("thinned", 100, target_density=0.5, seed=7.0).params["seed"] == 7


@pytest.mark.parametrize("kind,kwargs", [
    ("thinned", {"target_density": 0.5, "seed": math.inf}),
    ("thinned", {"target_density": 0.5, "seed": math.nan}),
    ("congruence", {"modulus": math.inf, "residues": [1]}),
    ("congruence", {"modulus": 4, "residues": [-math.inf]}),
])
def test_make_prime_set_rejects_non_finite_integers(kind, kwargs):
    # int() raises OverflowError on an infinity; the set names the parameter
    with pytest.raises(ValueError, match="must be an integer"):
        make_prime_set(kind, 100, **kwargs)


@pytest.mark.parametrize("kind,kwargs", [
    ("random", {}),
    ("all", {"limit": 1}),
    ("congruence", {"residues": [1]}),
    ("congruence", {"modulus": 4.5, "residues": [1]}),
    ("congruence", {"modulus": 1, "residues": [0]}),
    ("congruence", {"modulus": 4}),
    ("congruence", {"modulus": 4, "residues": [1.5]}),
    ("congruence", {"modulus": 4, "residues": []}),
    ("congruence", {"modulus": 4, "residues": [2]}),
    ("thinned", {}),
    ("thinned", {"target_density": 1.5}),
    ("thinned", {"target_density": math.nan}),
    ("thinned", {"target_density": 0.5, "seed": 7.2}),
])
def test_make_prime_set_checks_every_parameter_before_it_sieves(monkeypatch, kind, kwargs):
    def forbidden(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(primes, "sieve_primes", forbidden)
    with pytest.raises(ValueError):
        make_prime_set(kind, **{"limit": 10**8, **kwargs})


def test_sieve_rejects_tiny_limit():
    with pytest.raises(ValueError):
        sieve_primes(1)


def test_pi_q_all(ps_all):
    assert pi_q(ps_all, 1000) == 168
    assert pi_q(ps_all, 2) == 1
    assert pi_q(ps_all, 2.5) == 1
    with pytest.raises(ValueError):
        pi_q(ps_all, ps_all.limit + 1)
    with pytest.raises(ValueError):
        pi_q(ps_all, 1)


def test_congruence_set_membership(ps_1mod4):
    assert ps_1mod4.delta == 0.5
    assert np.all(ps_1mod4.members % 4 == 1)
    assert pi_q(ps_1mod4, 100) == 11  # 5,13,17,29,37,41,53,61,73,89,97


def test_congruence_rejects_bad_residues():
    with pytest.raises(ValueError):
        make_prime_set("congruence", 100, modulus=4, residues=(2,))
    with pytest.raises(ValueError):
        make_prime_set("congruence", 100, modulus=4, residues=())
    with pytest.raises(ValueError):
        make_prime_set("congruence", 100, modulus=1, residues=(0,))
    with pytest.raises(ValueError):
        make_prime_set("congruence", 100, modulus=4)


def test_congruence_delta_uses_euler_phi():
    for m in range(2, 200):
        units = [a for a in range(1, m + 1) if math.gcd(a, m) == 1]
        ps = make_prime_set("congruence", 100, modulus=m, residues=(1,))
        assert ps.delta == 1 / len(units), m


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_prime_set("random", 100)


def test_thinned_density_one_keeps_everything():
    full = make_prime_set("all", 20_000)
    kept = make_prime_set("thinned", 20_000, target_density=1.0, seed=5)
    assert np.array_equal(full.members, kept.members)


def test_thinned_membership_is_limit_independent():
    small = make_prime_set("thinned", 10**4, target_density=0.4, seed=9)
    big = make_prime_set("thinned", 10**5, target_density=0.4, seed=9)
    assert np.array_equal(small.members, big.members[big.members <= 10**4])


def test_thinned_keep_fraction_concentrates():
    ps = make_prime_set("thinned", 10**6, target_density=0.4, seed=3)
    frac = len(ps.members) / 78498
    # binomial sd is about 0.0017, so 0.01 is a > 5 sigma allowance
    assert abs(frac - 0.4) < 0.01


def test_thinned_rejects_bad_density():
    for bad in (0.0, -0.1, 1.5, None):
        with pytest.raises(ValueError):
            make_prime_set("thinned", 100, target_density=bad)


def test_density_audit_two_term_bound(ps_all, ps_1mod4):
    grid = np.geomspace(16, 100_000, 20)
    for ps in (ps_all, ps_1mod4):
        audit = density_audit(ps, grid)
        assert audit.kappa_hat <= 10.0
        assert 16 <= audit.worst_x <= ps.limit


def test_density_audit_grid_validation(ps_all):
    with pytest.raises(ValueError):
        density_audit(ps_all, [])
    with pytest.raises(ValueError):
        density_audit(ps_all, [8.0])
    with pytest.raises(ValueError):
        density_audit(ps_all, [16.0, 2 * ps_all.limit])


def test_density_audit_csv_rows_consistent(ps_all):
    grid = [100.0, 1000.0, 10_000.0]
    audit = density_audit(ps_all, grid)
    scaled = [abs(pi_q(ps_all, x) - ps_all.delta * x / math.log(x))
              * math.log(x) ** 2 / x for x in grid]
    assert audit.kappa_hat == pytest.approx(max(scaled), rel=1e-12)
    assert audit.worst_x == grid[scaled.index(max(scaled))]
    # each report's prime-set row carries the audit on the fixed grid
    row = audit_summary(ps_all)
    full = density_audit(ps_all, np.geomspace(16.0, ps_all.limit, AUDIT_GRID_POINTS))
    assert (row["kappa_hat"], row["kappa_worst_x"], row["mertens_constant_hat"]) == (
        full.kappa_hat, full.worst_x, full.mertens_constant_hat)
    assert row["limit"] == ps_all.limit


def test_mertens_sum_exact_prefix(ps_all):
    assert mertens_sum(ps_all, 10) == pytest.approx(
        1 / 2 + 1 / 3 + 1 / 5 + 1 / 7, rel=1e-15
    )
    vals = [mertens_sum(ps_all, x) for x in (10, 100, 1000, 10_000)]
    assert vals == sorted(vals)


MERTENS_LIMIT = 10**6
# (kappa_hat, mertens_constant_hat) of audit_summary at MERTENS_LIMIT, as
# math.fsum summed the reciprocals
AUDITS = {
    "all": (1.2098781163776184, 0.261536185091662),
    "congruence:4:1": (0.5776514828170577, -0.2867214775975617),
    "congruence:8:1+3": (0.5842807703062539, -0.12403932386422989),
    "thinned:0.4:7": (0.670369654971527, 0.2357307135852793),
}


@pytest.mark.parametrize("desc", AUDITS)
def test_mertens_sum_equals_fsum_bit_for_bit(desc):
    ps = resolve_prime_set(desc, MERTENS_LIMIT)
    members = ps.members
    first = int(members[0])
    xs = [2, 3, first - 1, MERTENS_LIMIT]
    xs += [1 << j for j in range(1, MERTENS_LIMIT.bit_length())]
    for x in (x for x in xs if x >= 2):
        n = int(np.searchsorted(members, x, side="right"))
        got = mertens_sum(ps, x)
        assert got == math.fsum(1.0 / members[:n].astype(np.float64)), x
        if x < first:
            assert got == 0.0 and type(got) is float, x


def test_mertens_blocks_are_invisible(ps_thinned, monkeypatch):
    ref = [mertens_sum(ps_thinned, x) for x in (2, 1000, 65536, ps_thinned.limit)]
    for block in (1, 7, 1000):
        monkeypatch.setattr(primes, "MERTENS_BLOCK", block)
        assert [mertens_sum(ps_thinned, x) for x in (2, 1000, 65536, ps_thinned.limit)] == ref


@pytest.mark.parametrize("desc", AUDITS)
def test_audit_summary_keeps_its_values(desc):
    row = audit_summary(resolve_prime_set(desc, MERTENS_LIMIT))
    assert (row["kappa_hat"], row["mertens_constant_hat"]) == AUDITS[desc]


@pytest.mark.parametrize("desc", ("congruence:4:1", "thinned:0.4:7"))
def test_prime_set_and_its_bitmap_sieve_once(desc, monkeypatch):
    calls = []
    sieve = primes.sieve_primes

    def counted(limit):
        calls.append(limit)
        return sieve(limit)

    monkeypatch.setattr(primes, "sieve_primes", counted)
    ps = resolve_prime_set(desc, 10**4)
    assert ps.sq_bitmap[0] & 0b11 == 0b10  # bit 1 set: 1 is in S_Q, and 0 is not
    assert not ps.sq_bitmap.flags.writeable
    assert calls == [10**4]


def test_make_prime_set_rejects_a_limit_past_the_bitmap_cap(monkeypatch):
    def forbidden(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(primes, "sieve_primes", forbidden)
    with pytest.raises(ValueError, match="bitmap cap"):
        make_prime_set("all", primes.MAX_X_BITMAP + 1)


@pytest.mark.parametrize("desc", ("all", "congruence:4:1", "thinned:0.4:7"))
def test_prime_set_bitmap_takes_one_bit_per_integer(desc):
    limit = 1 << 22
    ps = resolve_prime_set(desc, limit)
    assert ps.sq_bitmap.dtype == np.uint8
    assert ps.sq_bitmap.nbytes == (limit + 8) // 8


def test_make_prime_set_peak_memory():
    # at 2^22 this set peaked at 7.76 MB traced with a byte per integer and at
    # 5.35 MB with a bit: the primes, the bitmap and one window of each sieve
    limit = 1 << 22
    tracemalloc.start()
    try:
        make_prime_set("congruence", limit, modulus=4, residues=(1,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * limit // 2, peak


def test_prime_set_is_frozen():
    ps = make_prime_set("congruence", 100, modulus=4, residues=(1,))
    for name, value in (("limit", 200), ("sq_bitmap", np.ones(13, dtype=np.uint8))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ps, name, value)


def test_prime_sets_compare_and_hash_by_identity():
    ps = make_prime_set("congruence", 100, modulus=4, residues=(1,))
    twin = make_prime_set("congruence", 100, modulus=4, residues=(1,))
    assert ps == ps and ps != twin
    assert {ps, twin} == {twin, ps} and len({ps, ps}) == 1
    moved = dataclasses.replace(ps, limit=50)
    assert moved.limit == 50 and moved != ps
