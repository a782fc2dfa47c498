"""Sieving, prime-set construction, and density audits."""

import dataclasses
import hashlib
import importlib.util
import math
import sys
import tracemalloc
from pathlib import Path

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
    # sqrt(3000) ~ 54 leaves excluded primes on both sides of the split;
    # KEEP_BLOCK cuts the keep rule, the split and the gathers, whose cuts
    # fall inside rows k of the products k*p at these sizes
    limit = 3000
    sets = {desc: resolve_prime_set(desc, limit) for desc in WINDOW_SETS}
    expected = {desc: [False] + [in_sq(ps, n) for n in range(1, limit + 1)]
                for desc, ps in sets.items()}
    for seg, block in ((16, 1), (100, 7), (257, 1000), (1 << 20, 7)):
        monkeypatch.setattr(primes, "SIEVE_SEGMENT", seg)
        monkeypatch.setattr(primes, "KEEP_BLOCK", block)
        for desc, ps in sets.items():
            got = resolve_prime_set(desc, limit)
            assert np.array_equal(got.members, ps.members), (seg, block, desc)
            bm = got.sq_bitmap
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
    # no seed is seed 0, the key every manifest records for it
    unseeded = make_prime_set("thinned", 10**4, target_density=0.5)
    assert unseeded.params["seed"] == 0
    assert np.array_equal(unseeded.members,
                          make_prime_set("thinned", 10**4, target_density=0.5, seed=0).members)


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
    # a parameter the kind does not take
    ("all", {"target_density": 0.5}),
    ("all", {"modulus": 4, "residues": [1]}),
    ("congruence", {"modulus": 4, "residues": [1], "target_density": 0.5}),
    ("thinned", {"target_density": 0.5, "modulus": 4, "residues": (1,)}),
    ("thinned", {"target_density": 0.5, "residues": (1,)}),
    ("all", {"seed": 5}),
    ("all", {"seed": 0}),
    ("congruence", {"modulus": 4, "residues": [1], "seed": 5}),
])
def test_make_prime_set_checks_every_parameter_before_it_sieves(monkeypatch, kind, kwargs):
    def forbidden(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(primes, "sieve_primes", forbidden)
    with pytest.raises(ValueError):
        make_prime_set(kind, **{"limit": 10**8, **kwargs})


def test_prime_sets_build_under_a_profile_hook():
    # a profile hook holds a reference to each array whose C method it sees,
    # so the in-place shrinks must not count references
    expected = [sieve_primes(1000), make_prime_set("congruence", 10**5, modulus=4,
                                                   residues=(1,)).members]
    previous = sys.getprofile()
    sys.setprofile(lambda *args: None)
    try:
        got = [sieve_primes(1000), make_prime_set("congruence", 10**5, modulus=4,
                                                  residues=(1,)).members]
    finally:
        sys.setprofile(previous)
    for members, want in zip(got, expected):
        assert members.base is None
        assert np.array_equal(members, want)


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
        assert audit["kappa_hat"] <= 10.0
        assert 16 <= audit["kappa_worst_x"] <= ps.limit


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
    assert audit["kappa_hat"] == pytest.approx(max(scaled), rel=1e-12)
    assert audit["kappa_worst_x"] == grid[scaled.index(max(scaled))]
    # each report's prime-set row carries the audit on the fixed grid
    row = audit_summary(ps_all)
    full = density_audit(ps_all, np.geomspace(16.0, ps_all.limit, AUDIT_GRID_POINTS))
    assert row == {**ps_all.descriptor(), **full}
    assert list(row)[-3:] == ["kappa_hat", "kappa_worst_x", "mertens_constant_hat"]
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


@pytest.mark.parametrize("desc, limit", (("thinned:0.4:7", 1 << 22),
                                         ("all", 1 << 24),
                                         ("congruence:4:1", 1 << 24),
                                         ("thinned:0.72:7", 1 << 24)))
def test_prime_set_split_peak_memory(desc, limit):
    # traced peak in bytes per integer: a gather of a whole window's (k, p)
    # pairs reads 1.54 for thinned:0.4:7 at 2^22 (1.24 in KEEP_BLOCK pairs),
    # and holding the sieved primes, the members and the excluded primes at
    # once reads 1.10-1.16 for the restricted sets at 2^24 (0.74-0.75 split
    # in place); `all` reads 0.71
    bound = 1.4 if limit == 1 << 22 else 0.85
    tracemalloc.start()
    try:
        resolve_prime_set(desc, limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * limit, (peak, peak / limit)


SPLIT_LIMITS = (2, 3, 10, 97, 1000, 65537, 1_000_003)
# sha256 of members.tobytes() + sq_bitmap.tobytes() at each of SPLIT_LIMITS,
# as one sieve split into members and a complement sieve built them
SPLIT_SHA256 = {
    "all": (
        "89c58c89d04bc3ef8ef6e7e06b1e2f3a00ff30ef24a0838be228828979d4f428",
        "94e90fb559f26962da81414c5deb08b958f82fc9190cd9951797933f80b9b510",
        "b1c1f1e7e5e02eb3715efa2ea2c06efed5f8e8d64885891ea979b9ca2c300fa5",
        "eaa6bfe5fafbab6782c5c17260de385fa4d36e732b2a78239147d463fbcdf803",
        "d366907b7d6c633959923d3923ab52a32ab7757402f00c7b07f0c792b4fb6a41",
        "a5dcea7318dfaac3e74198f8b554756b2fd3c4e2443ce8aa3aeff2d63f09eb41",
        "92203faba5295b85d88d43006c16c31fa6ab4e07155dc4fd91ec3c9613a3c422",
    ),
    "congruence:4:1": (
        "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986",
        "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986",
        "153d2df3dfe852892c5e21dc6870caefd365e120b5df7503cf9e7fa3f6bc4bfe",
        "b1ba59c5c82a134dae8aa78ee2762dcc5f89b5ae3fc448095dbe3c4c4b6e93b1",
        "63c1c80249945022f9c39212c134d5636a0ae253ffa4baa23d1bdeceee35e83c",
        "da8dea0071fd9ca43c87b66ff5fd6b8f006c2dbda7b2f90bfba5494d04bb4b7d",
        "55b5faf1e8960f35c78227cff7c5b3de820d93bca7a4c0113e910254e87d418c",
    ),
    "congruence:3:2": (
        "89c58c89d04bc3ef8ef6e7e06b1e2f3a00ff30ef24a0838be228828979d4f428",
        "89c58c89d04bc3ef8ef6e7e06b1e2f3a00ff30ef24a0838be228828979d4f428",
        "aaf396e19fe7526b5f998f6acc6384ff8d09a71604c3c710afcda1d8f42487e0",
        "8fef83ec2696c839c516a59478d74192525caa0207db04c808adab45fc4d1ab8",
        "d4dae823a7e4ca267d0797154cf7e0203321ed96df550373fdcbc471ac5589f2",
        "3641f3c9f416546567b60fff7b9e190624ef264e1a8ed756604b2ac58cc3bfbc",
        "43a4c8f4a36bf0888a083f38a036f25ea629be28665e1f37cc57b165ba18d67b",
    ),
    "congruence:8:1+3": (
        "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986",
        "e6383e0ab8bca0a096ad4c87749e127853d564dca71393a995243fe225649982",
        "39fb7aa8324fd8ac91fcd975b8d321f6def18034932f9140de98a273c3106a27",
        "cd3fb4c155404f6fdb659f4bc26b6e2e744e73781dd09c1b1ddd950e2ccbd7d5",
        "076ef2d3a396348b09483694b013000e180c364f376eef3e9ef6e4d8211fbf4a",
        "ea1ad65eb470335f8a3600c0cda2de3ad1825da1271eb4657793cb21ec5f47ed",
        "383ad373a57107625c89b962ffb06d1cf0f1f2028409a501d65a577c65ce54ab",
    ),
    "thinned:0.4:20260825": (
        "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986",
        "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986",
        "153d2df3dfe852892c5e21dc6870caefd365e120b5df7503cf9e7fa3f6bc4bfe",
        "54a234e2638f3f7f84535b85af996bf6786b7dc146b614edfc8ff5befa5f4c47",
        "35c00630fef4922f01c2ced573cbb7b5f96d2931913ded5e725d408e1d631ec2",
        "7ca3f8ec285dbacc1fc808a0c479824a162f3c46323580405778f5f051359528",
        "2f763e0d475f2f9efffba0539cae9361db0b83bce7e418aba77808f2c4ec5f40",
    ),
    "thinned:0.72:7": (
        "89c58c89d04bc3ef8ef6e7e06b1e2f3a00ff30ef24a0838be228828979d4f428",
        "94e90fb559f26962da81414c5deb08b958f82fc9190cd9951797933f80b9b510",
        "b1c1f1e7e5e02eb3715efa2ea2c06efed5f8e8d64885891ea979b9ca2c300fa5",
        "616e7c7cfe49fa37792059e6a7a3b5d719e6403b3a335d5d7eca93c734d919ea",
        "eb8aba2bdbb2cb8188a9394dba9b800a3058698cead898d28254edc4320a80fb",
        "feaddeb45458dfb8a48a6db1e1292d1a0a864447b6e5fe8a260f2e5a33d63d0e",
        "b639b56399eed9a77103bf53e3432a9a48502ccc8a0f829543319f79e5ba74c0",
    ),
}


@pytest.mark.parametrize("desc", SPLIT_SHA256)
def test_prime_set_split_matches_golden_digests(desc):
    for limit, digest in zip(SPLIT_LIMITS, SPLIT_SHA256[desc]):
        ps = resolve_prime_set(desc, limit)
        assert ps.members.dtype == np.int64, limit
        assert ps.members.base is None, limit  # owns its data: no view of a larger array
        got = hashlib.sha256(ps.members.tobytes() + ps.sq_bitmap.tobytes()).hexdigest()
        assert got == digest, (limit, got)


def test_sieve_returns_exactly_pi_of_its_limit():
    for limit, count in ((2, 1), (3, 2), (10, 4), (97, 25), (1000, 168), (65537, 6543),
                         (1_000_003, 78499)):
        got = sieve_primes(limit)
        assert len(got) == count and got.base is None, limit


def test_prime_set_memory_script_prints_each_set(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "prime_set_memory.py"
    spec = importlib.util.spec_from_file_location("prime_set_memory", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    descs = ["all", "congruence:4:1", "thinned:0.72:7"]
    assert script.main([*descs, "--limit", "1e5"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[:2] for row in rows] == [[desc, "100000"] for desc in descs]
    for row in rows:
        assert float(row[2]) >= 0 and float(row[3]) > 0, row


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
