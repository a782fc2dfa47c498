"""Barrier probabilities for uniform order statistics: Daniels/Steck exact
values, the recursive simplex volume, and the Monte Carlo estimators."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multlab import (
    BarrierSpec,
    barrier_events_mc,
    qk_exact,
    qk_mc,
    uk_mc,
    vol_lower_barrier_exact,
    vol_yk_mc,
)
from multlab.orderstats import (
    _TILE,
    _box_hits,
    _network,
    _sorted_tiles,
    _steck_determinant,
    _uk_integrand,
    _yk_box,
    barrier_thresholds,
)
from multlab.rng import BLOCK, block_generator

from conftest import reference_steck_determinant

SEED = 1234
# two full blocks, the second ending one tile and 7 samples past its start
N_PAST_TILE = BLOCK + _TILE + 7


def test_qk_exact_daniels_product():
    assert qk_exact(1, 4, 3) == Fraction(25, 32)
    for k in range(1, 9):
        for v in range(k, k + 5):
            w = 1 + v - k
            expected = Fraction(w, v) * Fraction(v + 1, v) ** (k - 1)
            assert qk_exact(1, v, k) == expected


def test_qk_exact_steck_value():
    # k = 2, u = 1/2, v = 2: thresholds 1/4 and 3/4, volume 5/32 by hand
    assert qk_exact(Fraction(1, 2), 2, 2) == Fraction(5, 16)
    assert qk_exact(0.5, 2.0, 2) == 0.3125


def test_qk_exact_agrees_with_recursive_volume():
    rng = random.Random(3)
    for _ in range(25):
        k = rng.randint(1, 6)
        v = rng.randint(k, k + 6)
        u = Fraction(rng.randint(0, 4), 4)  # 0 included; 1 hits Daniels
        if u <= k - v:
            continue
        lower = [max(Fraction(0), Fraction(j - u, v)) for j in range(1, k + 1)]
        vol = vol_lower_barrier_exact(lower)
        assert qk_exact(u, v, k) == vol * math.factorial(k)


@settings(max_examples=60)
@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=24),
                min_size=1, max_size=8).map(sorted))
@example([Fraction(0)] * 6)  # probability 1
@example([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)])  # last bound 1
@example([Fraction(1)] * 5)  # probability 0
def test_steck_determinant_matches_recursive_volume(bounds):
    # arbitrary ascending rational bounds, not only the linear (i - u) / v
    k = len(bounds)
    assert _steck_determinant(bounds, k) == math.factorial(k) * vol_lower_barrier_exact(bounds)


@settings(max_examples=150)
@given(st.lists(st.fractions(min_value=0, max_value=Fraction(3, 2), max_denominator=60),
                min_size=1, max_size=12).map(sorted))
@example([Fraction(1, 7)] * 12)  # repeated bounds
@example([Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 4)])  # c_j = 0 from j = 3
@example([Fraction(1, 2), Fraction(1, 2), Fraction(2, 3), Fraction(2, 3), Fraction(3, 2)])
def test_steck_determinant_matches_the_fraction_recurrence(bounds):
    # the integer recurrence gives the same reduced Fraction
    k = len(bounds)
    exact = _steck_determinant(bounds, k)
    assert isinstance(exact, Fraction) and exact == reference_steck_determinant(bounds, k)


def test_qk_exact_validation():
    with pytest.raises(ValueError):
        qk_exact(1.2, 5, 3)
    with pytest.raises(ValueError):
        qk_exact(0, 3, 3)  # u must exceed k - v
    with pytest.raises(ValueError):
        qk_exact(1, 5, 0)
    with pytest.raises(ValueError):
        qk_exact(1, 0, 1)


def test_vol_lower_barrier_closed_forms():
    assert vol_lower_barrier_exact([Fraction(1, 3)]) == Fraction(2, 3)
    rng = random.Random(7)
    for _ in range(30):
        a = Fraction(rng.randint(0, 8), 16)
        b = a + Fraction(rng.randint(0, 16 - int(a * 16)), 16)
        if b > 1:
            continue
        # volume of {a <= x1 <= x2 <= 1, x2 >= b}: integrate (x2 - a) on [b, 1]
        expected = (1 - b) * (1 + b - 2 * a) / 2
        assert vol_lower_barrier_exact([a, b]) == expected


def test_vol_lower_barrier_validation():
    with pytest.raises(ValueError):
        vol_lower_barrier_exact([])
    with pytest.raises(ValueError):
        vol_lower_barrier_exact([Fraction(1, 2)] * 11)
    with pytest.raises(ValueError):
        vol_lower_barrier_exact([Fraction(3, 4), Fraction(1, 4)])
    with pytest.raises(ValueError):
        vol_lower_barrier_exact([Fraction(5, 4)])


def _tiles_as_rows(tiles, n, k):
    """The (n, k) rows of the tiles of one stream, checking their layout."""
    rows = []
    for start, tile in tiles:
        assert start == len(rows) * _TILE
        assert tile.shape == (k, min(_TILE, n - start))
        rows.append(tile.T.copy())  # the next tile reuses the buffer
    assert len(rows) == -(-n // _TILE)
    return np.concatenate(rows) if rows else np.empty((0, k))


def test_sample_ordered_uniforms():
    # the one sampler behind every MC estimator: sorted rows in [0, 1)
    rng = np.random.default_rng(0)
    k = 8
    s = _tiles_as_rows(_sorted_tiles(rng, 20_000, k), 20_000, k)
    assert s.shape == (20_000, k)
    assert np.all(np.diff(s, axis=1) >= 0)
    assert np.all((0 <= s) & (s < 1))
    # the j-th of k uniform order statistics has mean j/(k+1) and
    # variance j(k+1-j)/((k+1)^2 (k+2))
    j = np.arange(1, k + 1)
    se = np.sqrt(j * (k + 1 - j) / ((k + 1) ** 2 * (k + 2)) / len(s))
    assert np.all(np.abs(s.mean(axis=0) - j / (k + 1)) <= 5 * se)
    assert list(_sorted_tiles(rng, 0, 3)) == []


@pytest.mark.parametrize("n", (0, 1, 5, _TILE - 1, _TILE, _TILE + 1, 20_000, 65_536))
def test_ordered_batch_equals_row_sort(n):
    # two generators from one seed: the tiles must hold np.sort's rows of
    # one rng.random((n, k)) call; n = 20,000 ends on a partial tile
    for k in range(1, 25):
        s = _tiles_as_rows(_sorted_tiles(block_generator(SEED, 5, k), n, k), n, k)
        expected = np.sort(block_generator(SEED, 5, k).random((n, k)), axis=1)
        assert np.array_equal(s, expected)


def test_sorted_tiles_interleaved_streams():
    # each generator keeps its own buffers, as concurrent blocks need
    n = 3 * _TILE + 5
    streams = {(6, 5): [], (7, 20): []}
    gens = {key: _sorted_tiles(block_generator(SEED, *key), n, key[1]) for key in streams}
    for step in zip(*gens.values()):
        for key, (start, tile) in zip(streams, step):
            streams[key].append((start, tile.copy()))
    for (stream, k), tiles in streams.items():
        expected = np.sort(block_generator(SEED, stream, k).random((n, k)), axis=1)
        assert np.array_equal(_tiles_as_rows(tiles, n, k), expected)


@pytest.mark.parametrize("threads", (1, 3))
def test_box_hits_counts_np_sort_rows(threads):
    # boxes with no upper bounds, upper bounds of 1 only, some and all upper
    # bounds below 1, counted over the rows np.sort gives each block
    k = 6
    rng = np.random.default_rng(2)
    lower = np.sort(rng.random((5, k)) * 0.6, axis=1) - 0.1
    upper = np.sort(rng.random((5, k)) * 0.5 + 0.5, axis=1)
    upper[1] = 1.0
    upper[2, -2:] = 1.0
    expected_lower = np.zeros(5, dtype=np.int64)
    expected_box = np.zeros(5, dtype=np.int64)
    for b, m in enumerate((BLOCK, N_PAST_TILE - BLOCK)):
        s = np.sort(block_generator(SEED, 31, b).random((m, k)), axis=1)
        above = np.all(s[:, None] >= lower, axis=2)
        expected_lower += above.sum(axis=0)
        expected_box += (above & np.all(s[:, None] <= upper, axis=2)).sum(axis=0)
    for up, expected in ((None, expected_lower), (upper, expected_box)):
        hits = _box_hits(lower, up, N_PAST_TILE, SEED, 31, threads)
        assert hits.dtype == np.int64
        assert np.array_equal(hits, expected)
    assert expected_box[1] == expected_lower[1]
    assert np.all(expected_box[[0, 2, 3, 4]] < expected_lower[[0, 2, 3, 4]])


@pytest.mark.parametrize("k", range(1, 17))
def test_network_sorts_every_binary_vector(k):
    # 0-1 principle: sorting all 2^k binary inputs proves it sorts every input
    codes = np.arange(1 << k, dtype=np.int64)
    rows = (codes >> np.arange(k)[:, None]) & 1  # row i is bit i of every code
    for i, j in _network(k):
        assert 0 <= i < j < k
        rows[i], rows[j] = np.minimum(rows[i], rows[j]), np.maximum(rows[i], rows[j])
    assert np.all(rows[:-1] <= rows[1:])


def _uk_integrand_row_wise(s, k, v):
    # the cumsum-over-rows formula the column walk replaced, kept as its oracle
    n = s.shape[0]
    if v <= 500.0:
        cs = np.cumsum(np.exp2(v * s), axis=1)
        sums = np.concatenate([np.zeros((n, 1)), cs], axis=1)
        weights = np.exp2(-np.arange(k + 1, dtype=np.float64))
        return np.min((sums + 1.0) * weights, axis=1)
    log_cs = np.logaddexp2.accumulate(v * s, axis=1)
    log_vals = np.logaddexp2(log_cs, 0.0) - np.arange(1, k + 1, dtype=np.float64)
    return np.exp2(np.minimum(np.min(log_vals, axis=1), 0.0))


@pytest.mark.parametrize("v", (8.0, 600.0))
def test_uk_integrand_matches_row_wise_formula(v):
    # 10,000 samples: one full tile and a partial one
    for k in (1, 2, 5, 8, 12):
        for _, tile in _sorted_tiles(block_generator(SEED, 6, k), 10_000, k):
            assert np.array_equal(_uk_integrand(tile, k, v),
                                  _uk_integrand_row_wise(tile.T, k, v))


@pytest.mark.parametrize("u, v, k", [
    (1.0, 5.0, 0),  # no order statistics: was a sure 1.0
    (1.0, -1.0, 3),  # negative v: was 1.0
    (1.0, 0.0, 3),  # was 0.0 with a division warning
    (math.nan, 5.0, 3),  # was 0.0
    (math.inf, 5.0, 3),
    (1.0, math.nan, 3),
    (1.0, math.inf, 3),
])
def test_qk_mc_rejects_bad_input(u, v, k):
    with pytest.raises(ValueError):
        qk_mc(u, v, k, 100, SEED)


@pytest.mark.parametrize("v", (23.0, 700.0))
def test_uk_mc_sums_each_block_once(v):
    # the estimator's floats, rebuilt from np.sort of each block's draws: one
    # pairwise sum per block, then fsum over blocks; a per-tile sum differs
    k = 20
    vals = [_uk_integrand_row_wise(np.sort(block_generator(SEED, 404, b).random((m, k)),
                                           axis=1), k, v)
            for b, m in enumerate((BLOCK, N_PAST_TILE - BLOCK))]
    mean = math.fsum(float(x.sum()) for x in vals) / N_PAST_TILE
    var = max(math.fsum(float(np.square(x).sum()) for x in vals) / N_PAST_TILE - mean**2, 0.0)
    kfac = float(math.factorial(k))
    est = uk_mc(k, v, N_PAST_TILE, SEED)
    assert (est.estimate, est.std_error) == (mean / kfac, math.sqrt(var / N_PAST_TILE) / kfac)


def test_qk_mc_matches_exact():
    exact = float(qk_exact(1, 5, 3))  # 0.864
    est = qk_mc(1.0, 5.0, 3, 40_000, SEED)
    assert abs(est.estimate - exact) <= 4 * est.std_error
    assert est.hits == round(est.estimate * est.n_samples)


def test_mc_thread_invariance():
    single = qk_mc(0.7, 6.0, 4, 150_000, SEED, threads=1)
    multi = qk_mc(0.7, 6.0, 4, 150_000, SEED, threads=3)
    assert single.estimate == multi.estimate
    assert single.hits == multi.hits

    u1 = uk_mc(3, 8.0, 80_000, SEED, threads=1)
    u3 = uk_mc(3, 8.0, 80_000, SEED, threads=3)
    assert u1.estimate == u3.estimate

    y1 = vol_yk_mc(4, 6.0, 3.0, 0, 80_000, SEED, threads=1)
    y3 = vol_yk_mc(4, 6.0, 3.0, 0, 80_000, SEED, threads=3)
    assert y1.estimate == y3.estimate

    # blocks that end inside a tile, sorted concurrently
    for run in (lambda t: vol_yk_mc(12, 14.0, 3.0, 1, N_PAST_TILE, SEED, threads=t),
                lambda t: uk_mc(12, 14.0, N_PAST_TILE, SEED, threads=t)):
        a, b = run(1), run(3)
        assert (a.estimate, a.std_error, a.hits) == (b.estimate, b.std_error, b.hits)


def test_barrier_events_thread_invariance():
    # k = 20 runs the largest comparator network any experiment uses
    spec = BarrierSpec(20, 20.0, 1.5, 1.0 / 7.0)
    (single,) = barrier_events_mc([spec], 150_000, SEED, threads=1)
    (multi,) = barrier_events_mc([spec], 150_000, SEED, threads=3)
    for a, b in zip(single, multi):
        assert (a.estimate, a.std_error, a.hits) == (b.estimate, b.std_error, b.hits)
    assert single[0].hits > 0


@pytest.mark.parametrize("threads", (1, 3))
def test_barrier_events_shared_stream_equals_one_spec_calls(threads):
    # the specs differ in v (so in the weak barrier), C and mu, not in k
    specs = [BarrierSpec(8, v, c, mu) for v, c, mu in
             ((8.0, 0.5, 1.0 / 7.0), (9.0, 1.0, 0.2), (10.0, 2.0, 1.0 / 7.0),
              (12.0, 40.0, 1.0 / 7.0))]
    shared = barrier_events_mc(specs, N_PAST_TILE, SEED, threads=threads)
    assert len(shared) == len(specs)
    for spec, triple in zip(specs, shared):
        (alone,) = barrier_events_mc([spec], N_PAST_TILE, SEED)
        assert triple[0].hits > 0
        for a, b in zip(triple, alone):
            assert (a.estimate, a.std_error, a.hits, a.n_samples) == \
                (b.estimate, b.std_error, b.hits, b.n_samples)


def test_barrier_events_specs_must_share_k():
    mixed = [BarrierSpec(4, 8.0, 1.0, 1.0 / 7.0), BarrierSpec(5, 8.0, 1.0, 1.0 / 7.0)]
    with pytest.raises(ValueError, match="share one k"):
        barrier_events_mc(mixed, 100, SEED)
    with pytest.raises(ValueError):
        barrier_events_mc([], 100, SEED)


def test_barrier_thresholds_shape():
    spec = BarrierSpec(5, 10.0, 2.0, 1.0 / 7.0)
    weak, strong = barrier_thresholds(spec)
    assert np.allclose(weak, (np.arange(1, 6) - 1.0) / 10.0)
    assert np.all(strong >= weak)
    # at i = k the min(i, k-i) factor vanishes, so the bump is zero
    assert strong[-1] == weak[-1]


def test_barrier_events_containment_and_conditional():
    spec = BarrierSpec(8, 12.0, 2.0, 1.0 / 7.0)
    ((p_b, p_s, cond),) = barrier_events_mc([spec], 100_000, SEED)
    assert p_s.hits <= p_b.hits
    assert 0.0 < p_s.estimate <= p_b.estimate
    assert cond.estimate == pytest.approx(p_s.hits / p_b.hits)
    assert cond.n_samples == p_b.hits


def test_barrier_events_large_shift_collapses():
    # C >= k pushes the strong barrier down to the weak one exactly
    spec = BarrierSpec(8, 12.0, 40.0, 1.0 / 7.0)
    ((p_b, p_s, cond),) = barrier_events_mc([spec], 50_000, SEED)
    assert p_b.hits == p_s.hits
    assert cond.estimate == 1.0


def test_barrier_events_empty_conditional():
    # k = ceil(v) with w = u + v - k tiny: P(B) ~ 2e-3, so 4 samples miss
    spec = BarrierSpec(21, 20.05, 1.0, 1.0 / 7.0)
    ((p_b, p_s, cond),) = barrier_events_mc([spec], 4, SEED)
    assert p_b.hits == 0
    assert math.isnan(cond.estimate)
    assert cond.n_samples == 0


def test_barrier_spec_validation():
    good = dict(k=4, v=8.0, c_shift=1.0, mu_exponent=1.0 / 7.0)
    BarrierSpec(**good)
    for field, bad in (
        ("k", 0),
        ("k", 9),
        ("c_shift", 0.0),
        ("mu_exponent", 0.5),
        ("mu_exponent", 0.0),
    ):
        with pytest.raises(ValueError):
            BarrierSpec(**{**good, field: bad})


@pytest.mark.parametrize("field,bad", [
    ("c_shift", math.nan),  # nan <= 0 is false: P[B_strong] read 0 without error
    ("c_shift", math.inf),
    ("v", math.inf),  # math.ceil raised OverflowError
    ("v", math.nan),
])
def test_barrier_spec_rejects_non_finite(field, bad):
    good = dict(k=4, v=8.0, c_shift=1.0, mu_exponent=1.0 / 7.0)
    with pytest.raises(ValueError, match=field):
        BarrierSpec(**{**good, field: bad})


def _in_yk_box(s, k, v_tilde, c_shift, m_offset):
    # which rows of the sorted (n, k) samples s lie in the box of Y_k
    lower, upper = _yk_box(k, v_tilde, c_shift, m_offset)
    return np.all((lower <= s) & (s <= upper), axis=1)


def test_yk_hits_interval_for_k1():
    def member(xi, m_offset):
        return bool(_in_yk_box(np.array([xi]), 1, 5.0, 2.0, m_offset)[0])

    # k = 1, M = 0: condition (ii) forces xi in (1/v, 1 - 1/v); barrier is moot at C >= 1
    assert member([0.5], 0)
    assert not member([0.1], 0)
    assert not member([0.9], 0)
    # the interval is open: its ends lie outside, the adjacent floats inside
    assert not member([0.2], 0)
    assert not member([0.8], 0)
    assert member([np.nextafter(0.2, 1)], 0)
    assert member([np.nextafter(0.8, 0)], 0)
    # M >= k empties condition (ii)
    assert member([0.05], 1)


def test_vol_yk_k1_interval():
    # volume of (1/5, 4/5) is 3/5
    est = vol_yk_mc(1, 5.0, 2.0, 0, 100_000, SEED)
    assert abs(est.estimate - 0.6) <= 4 * est.std_error


def test_vol_yk_monotone_in_c():
    lo = vol_yk_mc(6, 8.0, 2.0, 0, 60_000, SEED)
    hi = vol_yk_mc(6, 8.0, 6.0, 0, 60_000, SEED)
    assert lo.hits <= hi.hits  # same samples, weaker barrier


def test_vol_yk_validation():
    with pytest.raises(ValueError):
        vol_yk_mc(9, 8.0, 2.0, 0, 1000, SEED)  # k > ceil(v)
    for v_tilde in (math.inf, math.nan):
        with pytest.raises(ValueError, match="v_tilde"):
            vol_yk_mc(3, v_tilde, 2.0, 0, 1000, SEED)
    for c_shift in (math.inf, math.nan):  # nan counted 0 hits without error
        with pytest.raises(ValueError, match="c_shift"):
            vol_yk_mc(3, 4.0, c_shift, 0, 1000, SEED)


def test_strong_barrier_geometric_sum():
    # on Y_k the barrier gives sum_i 2^(i - v xi_i) <= 2^C sum_i 2^(-min(i,k-i)^(1/7))
    k, v_tilde, c_shift, m_offset = 12, 12.5, 6.0, 2
    rng = block_generator(SEED, 77, 0)
    s = np.sort(rng.random((20_000, k)), axis=1)
    hits = _in_yk_box(s, k, v_tilde, c_shift, m_offset)
    assert hits.any()
    i = np.arange(1, k + 1, dtype=np.float64)
    lhs = np.exp2(i - v_tilde * s[hits]).sum(axis=1)
    m = np.minimum(i, k - i)
    weights = np.where(m > 0, np.where(m > 0, m, 1.0) ** (1.0 / 7.0), 0.0)
    rhs = 2.0**c_shift * np.exp2(-weights).sum()
    assert np.all(lhs <= rhs + 1e-9)


def test_uk_k1_is_exactly_one():
    est = uk_mc(1, 3.0, 2000, SEED)
    assert est.estimate == 1.0
    assert est.std_error == 0.0


def test_uk_bounded_by_simplex_volume():
    est = uk_mc(4, 10.0, 60_000, SEED)
    assert est.estimate <= 1.0 / 24.0 + 4 * est.std_error
    assert est.estimate > 0


def test_uk_log_domain_continuity():
    # v = 500 runs the linear path, v just above runs the log2 path;
    # same seed means the same sample set, so the two must agree closely
    a = uk_mc(3, 500.0, 20_000, SEED)
    b = uk_mc(3, 500.0000001, 20_000, SEED)
    assert abs(a.estimate - b.estimate) <= 1e-9
    with pytest.raises(ValueError):
        uk_mc(0, 10.0, 100, SEED)
    for v in (math.nan, math.inf, -math.inf):  # nan gave a nan estimate
        with pytest.raises(ValueError, match="v must be finite"):
            uk_mc(2, v, 100, SEED)


def test_t_region_and_uk_match_golden_values():
    # recorded with numpy 2.4 on x86-64; no CSV covers the U_k estimator
    u = uk_mc(4, 6.0, 30_000, 5)
    assert (u.estimate, u.std_error, u.hits) == (
        0.04074174665313703, 1.7584932841210564e-05, 30_000)


def test_mc_blocks_peak_memory():
    # a block is drawn and sorted one tile at a time, so its peak is a few
    # (k, _TILE) buffers, not the (n, k) draws of a whole block (20 MiB at
    # k = 20)
    specs = [BarrierSpec(20, 20.0, 1.5, 1.0 / 7.0)]
    barrier_events_mc(specs, 10, SEED)  # first-call imports are not the kernel's
    tracemalloc.start()
    try:
        barrier_events_mc(specs, 200_000, SEED)
        barrier_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        uk_mc(12, 15.0, 100_000, SEED)
        uk_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert barrier_peak < 4 << 20, barrier_peak
    assert uk_peak < 6 << 20, uk_peak
