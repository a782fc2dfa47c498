"""Sieving, prime-set construction, density audits, interval decompositions."""

import math

import numpy as np
import pytest

from multlab import (
    build_lambda_intervals,
    density_audit,
    lambda_growth_check,
    load_prime_set,
    make_prime_set,
    mertens_sum,
    pi_q,
    save_prime_set,
    sieve_primes,
)
from multlab.primes import density_audit_csv_rows


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


def test_sieve_segmentation_is_invisible():
    ref = sieve_primes(10**4).tolist()
    for seg in (16, 100, 257):
        assert sieve_primes(10**4, segment_size=seg).tolist() == ref


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
        assert len(audit.residuals) == len(grid)


def test_density_audit_grid_validation(ps_all):
    with pytest.raises(ValueError):
        density_audit(ps_all, [])
    with pytest.raises(ValueError):
        density_audit(ps_all, [8.0])
    with pytest.raises(ValueError):
        density_audit(ps_all, [16.0, 2 * ps_all.limit])


def test_density_audit_csv_rows_consistent(ps_all):
    audit = density_audit(ps_all, [100.0, 1000.0, 10_000.0])
    rows = density_audit_csv_rows(ps_all, audit)
    assert [r["x"] for r in rows] == list(audit.grid)
    assert max(r["scaled_residual"] for r in rows) == pytest.approx(audit.kappa_hat)
    for r in rows:
        assert r["pi_q"] == pi_q(ps_all, r["x"])


def test_mertens_sum_exact_prefix(ps_all):
    assert mertens_sum(ps_all, 10) == pytest.approx(
        1 / 2 + 1 / 3 + 1 / 5 + 1 / 7, rel=1e-15
    )
    vals = [mertens_sum(ps_all, x) for x in (10, 100, 1000, 10_000)]
    assert vals == sorted(vals)


def test_lambda_intervals_all_primes(ps_all):
    dec = build_lambda_intervals(ps_all, 2)
    assert dec.lambda_seq == (2, 7)
    assert not dec.truncated
    dec3 = build_lambda_intervals(ps_all, 3)
    assert dec3.lambda_seq == (2, 7, 131)
    assert all(s <= dec3.budget + 1e-12 for s in dec3.interval_sums)
    # greedy stopping rule: the next member overflows the budget
    assert dec3.interval_sums[0] + 1 / 3 > dec3.budget
    assert dec3.interval_sums[1] + 1 / 11 > dec3.budget


def test_lambda_growth_check_value(ps_all):
    dec = build_lambda_intervals(ps_all, 3)
    # dominated by j = 1: |log2(log 2) - 1|
    assert lambda_growth_check(dec) == pytest.approx(1.5287663729, abs=1e-9)


def test_lambda_intervals_truncation(ps_all):
    dec = build_lambda_intervals(ps_all, 10)
    assert dec.truncated
    assert dec.lambda_seq[:3] == (2, 7, 131)
    assert lambda_growth_check(dec) < 2.0


def test_lambda_intervals_degenerate():
    # members 2, 5, 11, ... with delta = 1/2: 1/2 alone exceeds the budget
    ps = make_prime_set("congruence", 1000, modulus=3, residues=(2,))
    with pytest.raises(ValueError, match="degenerate"):
        build_lambda_intervals(ps, 1)


def test_lambda_intervals_validation(ps_all):
    with pytest.raises(ValueError):
        build_lambda_intervals(ps_all, 0)
    with pytest.raises(ValueError):
        lambda_growth_check(
            build_lambda_intervals(make_prime_set("all", 2), 1)
        )


def test_save_load_roundtrip(tmp_path, ps_thinned):
    path = tmp_path / "q.bin"
    save_prime_set(ps_thinned, path)
    back = load_prime_set(path)
    assert back.kind == ps_thinned.kind
    assert back.limit == ps_thinned.limit
    assert back.delta == ps_thinned.delta
    assert back.params == ps_thinned.params
    assert np.array_equal(back.members, ps_thinned.members)


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_prime_set(path)


def test_load_rejects_truncated_file(tmp_path, ps_thinned):
    path = tmp_path / "q.bin"
    save_prime_set(ps_thinned, path)
    whole = path.read_bytes()
    for cut in (1, 1000):
        path.write_bytes(whole[:-cut])
        with pytest.raises(ValueError, match="truncated"):
            load_prime_set(path)
    path.write_bytes(whole + b"\x00")
    with pytest.raises(ValueError, match="padded"):
        load_prime_set(path)
