"""Prime sets of prescribed relative density and their density audits.

A prime set Q comes with a nominal density delta: the count of members up to x
is expected to track delta * x / log x.  Three constructions are supported:
all primes (delta = 1), primes in fixed residue classes mod m
(delta = |A| / phi(m)), and a pseudo-random thinning of all primes that keeps
each prime independently with probability delta* (decided by a keyed hash, so
the set is a pure function of the seed).  make_prime_set sieves once to the
limit and splits the sieved int64 primes in place, KEEP_BLOCK at a time: the
primes it keeps are compacted into the front of that array, which shrinks to
them and becomes the members, and the primes it leaves out are copied into
one uint32 array, so no prime is held twice as int64.  The excluded primes
build the set's S_Q bitmap by a complement sieve, so every set carries its
bitmap from construction on.  The bitmap holds one bit per integer in
[0, limit], packed little-endian into uint8 bytes (np.packbits), window by
window as the sieve goes.  mark_multiples, the one kernel that writes a
value into the multiples of some steps, serves that sieve, the counting
module's H_Q and rough counts, and divisors.squarefree_lw's squareful marks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

LOG2 = math.log(2.0)
# the largest limit of a prime set: its S_Q bitmap holds one bit per integer,
# so 2^31 bits = 256 MB
MAX_X_BITMAP = 1 << 31
# factorize finds every prime factor of a modulus up to 2^32 in its table of
# the primes below 2^16, so phi(modulus) costs one pass over that table at most
MAX_MODULUS = 1 << 32
# cells per cache-sized window of the sieves: odd numbers per segment of
# sieve_primes, integers per window of mark_multiples; also the most steps the
# counting module's marks hold as Python ints at once
SIEVE_SEGMENT = 1 << 20
MERTENS_BLOCK = 1 << 15  # members per block of mertens_sum
# primes per block of the keep rule and the split in make_prime_set, and
# (k, p) pairs per gather of the complement sieve
KEEP_BLOCK = 1 << 16
AUDIT_X_MIN = 16  # the smallest x of a density audit grid

_MASK64 = (1 << 64) - 1


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, by an odd-only segmented sieve.

    Memory stays O(sqrt(limit) + SIEVE_SEGMENT) plus the output array, which
    is sized by Dusart's bound pi(x) <= x / ln x * (1 + 1.2762 / ln x), x > 1,
    filled segment by segment, and then shrunk in place to pi(limit) entries,
    so the int64 array it returns owns its data (its base is None).
    """
    if limit < 2:
        raise ValueError(f"sieve_primes requires limit >= 2, got {limit}")
    return _segmented_sieve(int(limit))


def _segmented_sieve(limit: int) -> np.ndarray:
    # the odd base primes up to sqrt(limit) come from this same sieve
    root = math.isqrt(limit)
    base_primes = _segmented_sieve(root)[1:].tolist() if root >= 3 else []
    log = math.log(limit)
    out = np.empty(int(limit / log * (1.0 + 1.2762 / log)) + 1, dtype=np.int64)
    out[0], size = 2, 1
    buffer = np.empty(min(SIEVE_SEGMENT, limit // 2), dtype=bool)
    lo = 3  # stays odd: each step is 2 * SIEVE_SEGMENT, and the last ends the loop
    while lo <= limit:
        hi = min(lo + 2 * SIEVE_SEGMENT, limit + 1)
        seg = buffer[: (hi - lo + 1) // 2]  # index i -> lo + 2i
        seg[:] = True
        for p in base_primes:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start < hi:
                seg[(start - lo) // 2 :: p] = False
        found = np.flatnonzero(seg)
        found *= 2
        found += lo
        out[size : size + len(found)] = found
        size += len(found)
        del found  # before the next segment allocates its own
        lo = hi
    # in place, which may move the buffer, so no view of out may be left.
    # refcheck=False: a profile hook's bound method for this call holds out
    # too, and the reference check would refuse the resize for it.
    out.resize(size, refcheck=False)
    return out


def mark_multiples(window: np.ndarray, lo: int, steps, value) -> None:
    """Set window[n - lo] = value for each positive multiple n of each step
    (ints >= 1) with lo <= n < lo + len(window).  The first window, lo = 0,
    writes window[d::d] with no arithmetic per step; a later one starts at
    -lo mod d."""
    if lo == 0:
        for d in steps:
            window[d::d] = value
    else:
        neg = -lo
        for d in steps:
            window[neg % d :: d] = value


def _splitmix64(x: np.ndarray | int):
    """SplitMix64 finalizer; works on python ints and uint64 arrays."""
    if isinstance(x, np.ndarray):
        z = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True, eq=False)
class PrimeSet:
    """A materialized prime set: members, nominal density, provenance, and
    the read-only membership bitmap of S_Q over [0, limit], one bit per
    integer: bit n % 8 of byte n // 8 is set iff all prime factors of n are
    in Q (bit 0 clear, bit 1 set, and the bits past limit clear), so it is
    (limit + 8) // 8 bytes.  Built by make_prime_set, which fills every field
    from one sieve.  Sets compare and hash by identity: their fields are
    arrays."""

    kind: str  # "all" | "congruence" | "thinned"
    limit: int
    delta: float
    members: np.ndarray  # ascending int64
    params: dict
    sq_bitmap: np.ndarray = field(repr=False)  # uint8, np.packbits(..., bitorder="little")

    def descriptor(self) -> dict:
        """JSON-safe summary used in manifests and count results."""
        return {
            "kind": self.kind,
            "limit": int(self.limit),
            "delta": float(self.delta),
            "params": self.params,
            "count": int(len(self.members)),
        }


def _complement_sieve(limit: int, excluded: np.ndarray) -> np.ndarray:
    """Read-only bitmap of S_Q over [0, limit], one bit per integer, from the
    ascending primes <= limit outside Q, a uint32 array (every prime below
    MAX_X_BITMAP fits): bit n % 8 of byte n // 8 is set iff n is in S_Q
    (np.packbits' little bit order), and the bits past limit are clear.  One
    window of bools, a multiple of 8 cells near SIEVE_SEGMENT, is sieved and
    packed at a time: mark_multiples clears the multiples of the excluded
    primes up to sqrt(limit), and gathers of at most KEEP_BLOCK pairs clear
    the window's products k*p of the larger ones, computed in int64."""
    x = int(limit)
    split = int(np.searchsorted(excluded, math.isqrt(x), side="right"))
    small, large = excluded[:split].tolist(), excluded[split:]
    # A multiple k*p <= x of an excluded p > sqrt(x) has k < sqrt(x).  A k with
    # an excluded factor q <= k < sqrt(x) is cleared as a multiple of q, with
    # every k*p, so only the cofactors k in S_Q need the gather.
    k_max = x // int(large[0]) if len(large) else 0
    live = np.ones(k_max + 1, dtype=bool)
    mark_multiples(live, 0, small[: bisect_right(small, k_max)], False)
    # uint32 like the excluded primes, so searchsorted casts no array per call
    ks = (np.flatnonzero(live[1:]) + 1).astype(np.uint32)
    width = max(8, SIEVE_SEGMENT // 8 * 8)
    window = np.empty(width, dtype=bool)
    bits = np.empty((x + 8) // 8, dtype=np.uint8)
    for lo in range(0, x + 1, width):
        cells = window[: x + 1 - lo]
        cells[:] = True
        if lo == 0:
            cells[0] = False
        mark_multiples(cells, lo, small, False)
        # the p of row k with lo <= k*p < lo + len(cells) are large[start:stop];
        # numbered across the rows, pair i of row k is large[i + stop - ends]
        start = np.searchsorted(large, (lo + ks - 1) // ks)
        stop = np.searchsorted(large, (lo + len(cells) - 1) // ks, side="right")
        ends = np.cumsum(stop - start)
        stop -= ends
        total = int(ends[-1]) if len(ends) else 0
        for first in range(0, total, KEEP_BLOCK):
            last = min(first + KEEP_BLOCK, total)
            rows = slice(int(np.searchsorted(ends, first, side="right")),
                         int(np.searchsorted(ends, last - 1, side="right")) + 1)
            runs = np.diff(np.minimum(ends[rows], last), prepend=first)
            at = np.arange(first, last, dtype=np.int64)
            at += np.repeat(stop[rows], runs)
            hit = large[at].astype(np.int64)
            hit *= np.repeat(ks[rows], runs)
            hit -= lo
            cells[hit] = False
        bits[lo // 8 : (lo + len(cells) + 7) // 8] = np.packbits(cells, bitorder="little")
    bits.flags.writeable = False
    return bits


def _integer(name: str, value) -> int:
    """value as an int; a ValueError, not a truncation, when it is not integral."""
    try:
        if int(value) == value:
            return int(value)
    except (OverflowError, ValueError):  # int() of an inf or a nan
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def make_prime_set(
    kind: str,
    limit: int,
    *,
    modulus: int | None = None,
    residues: tuple[int, ...] | list[int] | None = None,
    target_density: float | None = None,
    seed: int | None = None,
) -> PrimeSet:
    """Materialize a prime set up to `limit`, with its S_Q bitmap.

    kind="all": every prime, delta = 1.
    kind="congruence": primes p with p mod modulus in residues; every residue
        must be coprime to the modulus; delta = #residues / phi(modulus).
    kind="thinned": keep each prime p when hash(seed, p) / 2^64 < target_density;
        seed None is 0.

    Every parameter is checked before the one sieve picks the members (one
    the kind does not take is an error), and the primes it leaves out build
    the bitmap.  The keep rule runs KEEP_BLOCK
    primes at a time; one more block pass copies the excluded primes into a
    uint32 array and compacts the members into the front of the sieved int64
    array, which is then shrunk in place.  A set that keeps every prime takes
    the sieved array as it is.
    """
    if not 2 <= limit <= MAX_X_BITMAP:
        raise ValueError(f"limit = {limit} outside [2, the bitmap cap {MAX_X_BITMAP}]")
    takes = {"congruence": ("modulus", "residues"),
             "thinned": ("target_density", "seed")}.get(kind, ())
    given = {"modulus": modulus, "residues": residues, "target_density": target_density,
             "seed": seed}
    if extra := [k for k, v in given.items() if v is not None and k not in takes]:
        raise ValueError(f"a {kind!r} prime set takes no {', '.join(extra)}")
    if kind == "all":
        delta, params, keep = 1.0, {}, lambda block: np.ones(len(block), dtype=bool)
    elif kind == "congruence":
        if modulus is None or residues is None:
            raise ValueError("congruence prime set needs modulus and residues")
        m = _integer("modulus", modulus)
        if not 2 <= m <= MAX_MODULUS:
            raise ValueError(f"modulus must be in [2, {MAX_MODULUS}], got {m}")
        rset = sorted({_integer("residue", a) % m for a in residues})
        if not rset:
            raise ValueError("empty residue set")
        for a in rset:
            if math.gcd(a, m) != 1:
                raise ValueError(f"residue {a} is not coprime to modulus {m}")
        from .divisors import factorize  # divisors imports this module
        phi = math.prod((p - 1) * p ** (e - 1) for p, e in factorize(m))
        delta, params = len(rset) / phi, {"modulus": m, "residues": rset}
        # "sort" compares residue by residue when there are few of them
        keep = lambda block: np.isin(block % m, np.array(rset), kind="sort")
    elif kind == "thinned":
        if target_density is None or not (0.0 < target_density <= 1.0):
            raise ValueError(f"target_density must be in (0, 1], got {target_density}")
        delta, seed = float(target_density), _integer("seed", 0 if seed is None else seed)
        params = {"target_density": delta, "seed": seed}
        mixed = np.uint64(_splitmix64(seed))  # hash / 2^64 < 1: density 1.0 keeps all
        keep = lambda block: _splitmix64(block.astype(np.uint64) ^ mixed) / 2.0**64 < target_density
    else:
        raise ValueError(f"unknown prime set kind: {kind!r}")
    members = sieve_primes(limit)
    kept = np.empty(len(members), dtype=bool)
    for i in range(0, len(members), KEEP_BLOCK):  # no temporary spans all primes
        kept[i : i + KEEP_BLOCK] = keep(members[i : i + KEEP_BLOCK])
    size = int(np.count_nonzero(kept))
    excluded = np.empty(len(members) - size, dtype=np.uint32)  # primes < MAX_X_BITMAP
    if len(excluded):  # else the sieved array is the members, uncopied
        size = 0  # the members so far, compacted into the front of the sieved array
        for i in range(0, len(members), KEEP_BLOCK):
            block, mask = members[i : i + KEEP_BLOCK], kept[i : i + KEEP_BLOCK]
            taken = block[mask]
            gone = i - size  # the excluded primes so far
            excluded[gone : gone + len(block) - len(taken)] = block[~mask]
            members[size : size + len(taken)] = taken
            size += len(taken)
        # the resize may move the buffer, so these last views must go first;
        # refcheck=False for the same reason as in _segmented_sieve
        del block, mask
        members.resize(size, refcheck=False)
    del kept
    return PrimeSet(kind, limit, delta, members, params, _complement_sieve(limit, excluded))


def pi_q(ps: PrimeSet, x: float) -> int:
    """Count of members <= x.  Valid for 2 <= x <= ps.limit."""
    if not 2 <= x <= ps.limit:
        raise ValueError(f"pi_q asked at x={x} outside materialized range [2, {ps.limit}]")
    return int(bisect_right(ps.members, x))


def mertens_sum(ps: PrimeSet, x: float) -> float:
    """Sum of 1/p over members p <= x, exactly rounded: the float that
    math.fsum gives, without a Python loop over members.

    np.frexp writes each 1/p as M * 2^(e - 53) with an integer M < 2^53.
    1/p does not increase along the ascending members, so each exponent e is
    one run of them; np.add.reduceat sums M over each run in two 26-bit halves,
    so no int64 sum overflows.  The runs add up to one Python int over a power
    of two, and CPython rounds that int division correctly.  Members are taken
    MERTENS_BLOCK at a time, so the temporaries stay small.
    """
    if not 2 <= x <= ps.limit:
        raise ValueError(f"mertens_sum asked at x={x} outside materialized range [2, {ps.limit}]")
    n = bisect_right(ps.members, x)
    if n == 0:
        return 0.0
    low = math.frexp(1.0 / float(ps.members[n - 1]))[1]  # the smallest exponent
    num = 0
    for start in range(0, n, MERTENS_BLOCK):
        frac, exp = np.frexp(1.0 / ps.members[start : min(start + MERTENS_BLOCK, n)])
        mant = np.ldexp(frac, 53).astype(np.int64)
        runs = np.flatnonzero(np.diff(exp, prepend=exp[0] - 1))
        his = np.add.reduceat(mant >> 26, runs).tolist()
        los = np.add.reduceat(mant & ((1 << 26) - 1), runs).tolist()
        for hi, lo, e in zip(his, los, exp[runs].tolist()):
            num += ((hi << 26) + lo) << (e - low)
    return num / (1 << (53 - low))


def density_audit(ps: PrimeSet, grid) -> dict:
    """Audit how well ps tracks delta * x / log x over the given grid.

    kappa_hat is max over the grid of |pi_Q(x) - delta*x/log x| * (log x)^2 / x,
    the smallest constant making the two-term density bound hold on the grid,
    and kappa_worst_x the first grid point where it is reached.
    mertens_constant_hat estimates C(Q) in sum_{p<=x} 1/p = delta*loglog x + C(Q) + O(1/log x).
    """
    grid = sorted(float(x) for x in grid)
    if not grid:
        raise ValueError("density_audit needs a nonempty grid")
    for x in grid:
        if not AUDIT_X_MIN <= x <= ps.limit:
            raise ValueError(f"grid point {x} outside [{AUDIT_X_MIN}, limit={ps.limit}]")

    kappa_hat = -1.0
    worst_x = grid[0]
    for x in grid:
        scaled = abs(pi_q(ps, x) - ps.delta * x / math.log(x)) * math.log(x) ** 2 / x
        if scaled > kappa_hat:
            kappa_hat, worst_x = scaled, x

    x_top = grid[-1]
    c_hat = mertens_sum(ps, x_top) - ps.delta * math.log(math.log(x_top))
    return {"kappa_hat": kappa_hat, "kappa_worst_x": worst_x, "mertens_constant_hat": c_hat}
