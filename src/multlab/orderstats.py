"""Uniform order statistics under linear barriers.

Q_k(u, v) = P(xi_i >= (i - u)/v for all i) over the order statistics of k
uniforms.  Exact values come from the Daniels product formula at u = 1 and,
for u < 1, from Steck's determinant, expanded by its Hessenberg recurrence;
constrained simplex volumes come from a recursive polynomial integration.
Monte Carlo estimators cover the barrier events, the Y_k region, and the
exponential-sum integral U_k.  They draw and sort each block one (k, w) tile
of at most _CELLS doubles at a time, by one comparator network (Batcher's
odd-even merge sort) over whole rows, so order statistic j is a contiguous
row; each estimator reduces a tile, row by row, before drawing the next.
Every hit event is a box lower <= xi <= upper of order-statistic bounds,
counted by one kernel, _box_hits, which tests all the boxes of one k against
one sorted stream.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .poisson import _is_exact
from .rng import run_blocks

YK_MU = 1.0 / 7.0  # exponent in the strong-barrier term min(i, k-i)^mu
YK_SAFETY = 0.5  # the 1/2 of the closed-form Y_k volume bound
MAX_EXACT_K = 10  # recursive volume integration cap
_TILE = 8192  # samples per network pass, and doubles per draw: each row stays in cache
_CELLS = 1 << 16  # doubles per tile (512 KiB), so a large k takes narrower tiles


@dataclass
class McEstimate:
    estimate: float
    std_error: float
    n_samples: int
    seed: int
    hits: int

    @classmethod
    def from_hits(cls, hits: int, n: int, seed: int, k: int = 1) -> McEstimate:
        """Hit fraction hits/n with its binomial standard error, both divided
        by k!.  With n = 0 the estimate is undefined: NaN with n_samples 0."""
        if n == 0:
            return cls(math.nan, math.nan, 0, seed, hits)
        p = hits / n
        kfac = float(math.factorial(k))
        return cls(p / kfac, math.sqrt(max(p * (1.0 - p), 0.0) / n) / kfac, n, seed, hits)


@dataclass
class BarrierSpec:
    k: int
    v: float
    c_shift: float
    mu_exponent: float

    def __post_init__(self):
        if not math.isfinite(self.v):
            raise ValueError(f"v must be finite, got {self.v}")
        if not 1 <= self.k <= math.ceil(self.v):
            raise ValueError(f"need 1 <= k <= ceil(v), got k={self.k}, v={self.v}")
        if not 0 < self.c_shift < math.inf:
            raise ValueError(f"c_shift must be finite and > 0, got {self.c_shift}")
        if not 0 < self.mu_exponent < 0.5:
            raise ValueError(f"mu_exponent must be in (0, 0.5), got {self.mu_exponent}")


def _network(k: int) -> list[tuple[int, int]]:
    """Compare-exchange pairs (i, j), i < j, of Batcher's odd-even merge sort
    on k keys, in the order they must run.

    This is the network for the next power of two with every comparator that
    touches an index >= k dropped: padding keys of +inf never move.  By the
    0-1 principle it sorts every input once it sorts every 0/1 vector.
    """
    pairs = []
    p = 1
    while p < k:
        step = p
        while step >= 1:
            for j in range(step % p, k - step, 2 * step):
                for i in range(j, j + min(step, k - j - step)):
                    if i // (2 * p) == (i + step) // (2 * p):
                        pairs.append((i, i + step))
            step //= 2
        p *= 2
    return pairs


def _sorted_tiles(rng: np.random.Generator, n: int, k: int):
    """Yield (start, tile) for n draws of the k uniform order statistics.

    The draws are rng.random((n, k)), taken at most _TILE doubles at a time
    into a small chunk: Philox fills consecutive calls from one stream, so the
    rows are the same bit for bit.  Each chunk is transposed into the columns
    of a (k, w) tile of w <= min(_TILE, _CELLS // k) samples (at least one),
    whose rows _network(k) sorts, so tile[:, t] equals np.sort(draws[start + t])
    and order statistic j is the contiguous row tile[j].  The tile buffer is
    reused: a tile is valid only until the next one is drawn.
    """
    width = max(1, min(n, _TILE, _CELLS // k))
    rows = max(1, min(width, _TILE // k))
    chunk = np.empty((rows, k))
    # a spare column, so no row of a tile runs on into the next: over abutting
    # rows of at most np.getbufsize() // 2 doubles, NumPy buffers several rows
    # of a test against a (k, 1) bound at once, three times slower
    buf = np.empty((k, width + 1))
    lo_row = np.empty(width)
    net = _network(k)
    for start in range(0, n, width):
        w = min(width, n - start)
        tile = buf[:, :w]
        for c in range(0, w, rows):
            r = min(rows, w - c)
            rng.random(out=chunk[:r])
            tile[:, c:c + r] = chunk[:r].T
        lo = lo_row[:w]
        for i, j in net:
            a, b = tile[i], tile[j]
            np.minimum(a, b, out=lo)
            np.maximum(a, b, out=b)
            a[...] = lo
        yield start, tile


def _box_hits(lower: np.ndarray, upper: np.ndarray | None, n_samples: int,
              seed: int, stream: int, threads: int = 1) -> np.ndarray:
    """Per box j, the int64 count of the n_samples sorted k-vectors xi with
    lower[j] <= xi <= upper[j]; lower and upper are (m, k), upper None means
    no upper bounds.  Each block of `stream` is sorted once, by _sorted_tiles,
    and each tile is tested against every box.  A box with no upper bound
    below 1 skips the upper test, which every sample in [0, 1) passes.
    """
    k = lower.shape[1]
    boxes = [(lo[:, None], None if upper is None or np.all(upper[j] >= 1.0)
              else upper[j][:, None]) for j, lo in enumerate(lower)]

    def block(rng, length):
        hits = np.zeros(len(boxes), dtype=np.int64)
        for _, tile in _sorted_tiles(rng, length, k):
            for j, (lo, up) in enumerate(boxes):
                inside = np.all(tile >= lo, axis=0)
                if up is not None:
                    inside &= np.all(tile <= up, axis=0)
                hits[j] += np.count_nonzero(inside)
        return hits

    return sum(run_blocks(n_samples, seed, stream, block, threads))


def _steck_determinant(lower: list[Fraction], k: int) -> Fraction:
    """P(xi_j >= lower_j for all j) by Steck's determinant (upper bounds = 1).

    The bounds must be ascending.  Steck's matrix, M[i][j] = c_j^e / e! for
    e = j-i+1 >= 0 with c_j = (1 - lower_j)_+ (and 0 where c_j = 0), is
    upper-Hessenberg, and the probability is k! det(M).  Each leading minor
    expands along its last column: D_0 = 1, D_j = sum_{e=1..j} (-1)^(e-1)
    (c_j^e / e!) D_{j-e}.  This takes every subdiagonal entry as 1; one that
    is 0 has c_{j-e} = 0, so c_j = 0 too, as the bounds ascend.  It runs in
    integers: with c_j = n_j / q over one common denominator q, E_j = j! q^j D_j
    has E_0 = 1, E_j = sum_{e=1..j} (-1)^(e-1) C(j, e) n_j^e E_{j-e}, and the
    probability is E_k / q^k.
    """
    cs = [max(Fraction(0), 1 - b) for b in lower[:k]]
    q = math.lcm(*(c.denominator for c in cs))
    dets = [1]
    for j, c in enumerate(cs, 1):
        n = c.numerator * (q // c.denominator)
        dets.append(-sum(math.comb(j, e) * (-n) ** e * dets[j - e] for e in range(1, j + 1)))
    return Fraction(dets[k], q**k)


def qk_exact(u, v, k: int):
    """Q_k(u, v) = P(xi_i >= (i-u)/v for all i), exactly.

    Valid for k - v < u <= 1.  At u = 1 this is the Daniels product
    (w/v)(1 + 1/v)^(k-1) with w = u + v - k; for u < 1 the product formula
    is only an approximation, so the value comes from Steck's determinant.
    Returns a Fraction when u and v are ints or Fractions, else a float.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if v <= 0:
        raise ValueError(f"v must be > 0, got {v}")
    if not (k - v < u <= 1):
        raise ValueError(f"u = {u} outside validity range ({k - v}, 1]")
    exact = _is_exact(u) and _is_exact(v)
    uf, vf = Fraction(u), Fraction(v)  # exact for a binary float
    if uf == 1:
        w = uf + vf - k
        res = (w / vf) * (1 + 1 / vf) ** (k - 1)
    else:
        lower = [max(Fraction(0), (j - uf) / vf) for j in range(1, k + 1)]
        res = _steck_determinant(lower, k)
    return res if exact else float(res)


def vol_lower_barrier_exact(lower_bounds):
    """Volume of {0 <= xi_1 <= ... <= xi_k <= 1, xi_i >= a_i} by recursive
    polynomial integration: F_0 = 1, F_i(t) = integral_{a_i}^t F_{i-1}.

    Bounds must be ascending and inside [0, 1]; k <= 10.  Exact rationals
    in, exact rational out.
    """
    bounds = list(lower_bounds)
    k = len(bounds)
    if k < 1:
        raise ValueError("need at least one bound")
    if k > MAX_EXACT_K:
        raise ValueError(f"recursive integration capped at k <= {MAX_EXACT_K}, got {k}")
    exact = all(map(_is_exact, bounds))
    a = [Fraction(x) for x in bounds]
    for i, x in enumerate(a):
        if not 0 <= x <= 1:
            raise ValueError(f"bound {bounds[i]} outside [0, 1]")
        if i and x < a[i - 1]:
            raise ValueError("bounds must be ascending")
    poly = [Fraction(1)]  # F_0
    for ai in a:
        anti = [Fraction(0)] + [c / (j + 1) for j, c in enumerate(poly)]
        shift = sum(c * ai**j for j, c in enumerate(anti))
        anti[0] = -shift
        poly = anti
    val = sum(c for c in poly)  # evaluate at t = 1
    return val if exact else float(val)


def qk_mc(u: float, v: float, k: int, n_samples: int, seed: int,
          threads: int = 1) -> McEstimate:
    """Monte Carlo Q_k(u, v) with binomial standard error."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not math.isfinite(u):
        raise ValueError(f"u must be finite, got {u}")
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"v must be finite and > 0, got {v}")
    lower = (np.arange(1, k + 1) - float(u)) / float(v)
    (hits,) = _box_hits(lower[None], None, n_samples, seed, 101, threads).tolist()
    return McEstimate.from_hits(hits, n_samples, seed)


def _barrier_bump(k: int, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """i = 1..k and the bump min(i, k-i)^mu, which is 0 at i = k."""
    i = np.arange(1, k + 1, dtype=np.float64)
    m = np.minimum(i, k - i)
    bump = np.where(m > 0, m, 1.0) ** mu
    return i, np.where(m > 0, bump, 0.0)


def barrier_thresholds(spec: BarrierSpec) -> tuple[np.ndarray, np.ndarray]:
    """(weak, strong) per-coordinate lower barriers for the two nested events.

    weak_i = (i-1)/v; strong_i = max(weak_i, (i + min(i, k-i)^mu - C)/v), with
    min(i, k-i)^mu evaluated as 0 when min(i, k-i) = 0 (i.e. at i = k).
    """
    i, bump = _barrier_bump(spec.k, spec.mu_exponent)
    weak = (i - 1.0) / spec.v
    strong = np.maximum(weak, (i + bump - spec.c_shift) / spec.v)
    return weak, strong


def barrier_events_mc(specs: Sequence[BarrierSpec], n_samples: int, seed: int,
                      threads: int = 1) -> list[tuple[McEstimate, McEstimate, McEstimate]]:
    """Estimate P[B], P[B_strong], P[B_strong | B] for the barrier events of
    each spec, one triple per spec, in order.

    The specs must share k: every spec is tested against the same sorted
    stream, so each triple equals that of a call with its spec alone.
    barrier_thresholds makes the strong barrier at least the weak one in every
    coordinate, so the containment B_strong <= B holds sample by sample.
    When no sample lands in B the conditional estimate is NaN with
    n_samples = 0.
    """
    ks = {spec.k for spec in specs}
    if len(ks) != 1:
        raise ValueError(f"need specs that share one k, got k in {sorted(ks)}")
    lower = np.array([bound for spec in specs for bound in barrier_thresholds(spec)])
    hits = _box_hits(lower, None, n_samples, seed, 202, threads).reshape(-1, 2)
    return [(McEstimate.from_hits(b_hits, n_samples, seed),
             McEstimate.from_hits(s_hits, n_samples, seed),
             McEstimate.from_hits(s_hits, b_hits, seed))
            for b_hits, s_hits in hits.tolist()]


def _yk_box(k: int, v_tilde: float, c_shift: float,
            m_offset: int) -> tuple[np.ndarray, np.ndarray]:
    """The box (lower, upper) of the k order statistics that is the region
    Y_k(v_tilde, C).

    Conditions: (ii) xi_{M+i^2} > i/v and xi_{k+1-(M+i^2)} < 1 - i/v for
    1 <= i <= floor(sqrt(k - M)) (empty when k <= M), each strict bound taken
    as a closed one at the adjacent float; (iii) the strong lower barrier
    v*xi_i >= max(i-1, i + min(i, k-i)^(1/7) - C) at every i.
    """
    i, bump = _barrier_bump(k, YK_MU)
    lower = np.maximum(i - 1.0, i + bump - c_shift) / v_tilde
    upper = np.ones(k)
    top = math.isqrt(k - m_offset) if k > m_offset else 0
    for ii in range(1, top + 1):
        idx = m_offset + ii * ii  # 1-based, <= k by construction
        lower[idx - 1] = max(lower[idx - 1], np.nextafter(ii / v_tilde, math.inf))
        upper[k - idx] = np.nextafter(1.0 - ii / v_tilde, -math.inf)
    return lower, upper


def yk_bound(k: int, v_tilde: float) -> float:
    """Closed-form lower bound (v - k + 1)/(2 v k!) on the volume of Y_k."""
    return YK_SAFETY * (v_tilde - k + 1) / (v_tilde * math.factorial(k))


def vol_yk_mc(k: int, v_tilde: float, c_shift: float, m_offset: int,
              n_samples: int, seed: int, threads: int = 1) -> McEstimate:
    """Volume of Y_k(v_tilde, C): hit fraction of sorted samples over k!."""
    if not math.isfinite(v_tilde):
        raise ValueError(f"v_tilde must be finite, got {v_tilde}")
    if not math.isfinite(c_shift):
        raise ValueError(f"c_shift must be finite, got {c_shift}")
    if not 1 <= k <= math.ceil(v_tilde):
        raise ValueError(f"need 1 <= k <= ceil(v_tilde), got k={k}, v_tilde={v_tilde}")
    if m_offset < 0:
        raise ValueError(f"m_offset must be >= 0, got {m_offset}")
    lower, upper = _yk_box(k, v_tilde, c_shift, m_offset)
    (hits,) = _box_hits(lower[None], upper[None], n_samples, seed, 303, threads).tolist()
    return McEstimate.from_hits(hits, n_samples, seed, k)


_LOG_DOMAIN_V = 500.0


def _uk_integrand(tile: np.ndarray, k: int, v: float) -> np.ndarray:
    """min over 0 <= j <= k of 2^-j (2^(v xi_1) + ... + 2^(v xi_j) + 1), for
    each column of a sorted (k, w) tile.

    One pass over the rows of the tile keeps the partial sum S_j and the
    running minimum; each v xi_j is formed in one reused row buffer, never
    for the whole tile.  The j = 0 term is exactly 1.
    """
    row = np.empty(tile.shape[1])
    if v <= _LOG_DOMAIN_V:
        weights = np.exp2(-np.arange(k + 1, dtype=np.float64))
        partial = np.zeros(tile.shape[1])
        best = np.ones(tile.shape[1])
        for j in range(k):
            np.multiply(tile[j], v, out=row)
            partial += np.exp2(row, out=row)
            np.minimum(best, (partial + 1.0) * weights[j + 1], out=best)
        return best
    # log2-domain: S_j tracked as log2 of the partial sum
    log_partial = np.multiply(tile[0], v)
    best = np.zeros(tile.shape[1])  # j = 0 gives exactly 1
    for j in range(k):
        if j:
            np.multiply(tile[j], v, out=row)
            np.logaddexp2(log_partial, row, out=log_partial)
        np.minimum(best, np.logaddexp2(log_partial, 0.0) - (j + 1.0), out=best)
    return np.exp2(best)


def uk_mc(k: int, v: float, n_samples: int, seed: int, threads: int = 1) -> McEstimate:
    """U_k(v): mean of the capped exponential-sum integrand over the simplex.

    The j = 0 term caps the integrand at 1, so U_1(v) = 1 exactly for any v.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not math.isfinite(v):
        raise ValueError(f"v must be finite, got {v}")

    def block(rng, length):
        # one sum per block, so the float sums do not depend on the tile width
        vals = np.empty(length)
        for start, tile in _sorted_tiles(rng, length, k):
            vals[start:start + tile.shape[1]] = _uk_integrand(tile, k, v)
        return float(vals.sum()), float(np.square(vals).sum()), length

    parts = run_blocks(n_samples, seed, 404, block, threads)
    total = math.fsum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    kfac = float(math.factorial(k))
    return McEstimate(mean / kfac, math.sqrt(var / n_samples) / kfac,
                      n_samples, seed, n_samples)
