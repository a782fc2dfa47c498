"""Prime sets of prescribed relative density and their interval decompositions.

A prime set Q comes with a nominal density delta: the count of members up to x
is expected to track delta * x / log x.  Three constructions are supported:
all primes (delta = 1), primes in fixed residue classes mod m
(delta = |A| / phi(m)), and a pseudo-random thinning of all primes that keeps
each prime independently with probability delta* (decided by a keyed hash, so
the set is a pure function of the seed).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

LOG2 = math.log(2.0)

_MASK64 = (1 << 64) - 1


def sieve_primes(limit: int, segment_size: int = 1 << 20) -> np.ndarray:
    """All primes <= limit, ascending, by an odd-only segmented sieve.

    Memory stays O(sqrt(limit) + segment_size) plus the output array.
    """
    if limit < 2:
        raise ValueError(f"sieve_primes requires limit >= 2, got {limit}")
    limit = int(limit)
    root = math.isqrt(limit)

    # base primes up to sqrt(limit) by a plain odd sieve
    base = np.ones(max((root + 1) // 2, 1), dtype=bool)  # index i -> 2i+1
    base[0] = False  # 1
    for i in range(1, len(base)):
        p = 2 * i + 1
        if p * p > root:
            break
        if base[i]:
            base[(p * p) // 2 :: p] = False
    base_primes = 2 * np.nonzero(base)[0] + 1  # odd primes <= root

    chunks = [np.array([2], dtype=np.int64)] if limit >= 2 else []
    lo = 3
    while lo <= limit:
        hi = min(lo + 2 * segment_size, limit + 1)
        if lo % 2 == 0:
            lo += 1
        seg = np.ones((hi - lo + 1) // 2, dtype=bool)  # index i -> lo + 2i
        for p in base_primes:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start < hi:
                seg[(start - lo) // 2 :: p] = False
        odds = lo + 2 * np.nonzero(seg)[0]
        if lo <= 1:
            odds = odds[odds > 1]
        chunks.append(odds.astype(np.int64))
        lo = hi
    return np.concatenate(chunks)


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


@dataclass
class PrimeSet:
    """A materialized prime set: members, nominal density, and provenance."""

    kind: str  # "all" | "congruence" | "thinned"
    limit: int
    delta: float
    members: np.ndarray  # ascending int64
    params: dict = field(default_factory=dict)

    def descriptor(self) -> dict:
        """JSON-safe summary used in manifests and serialized headers."""
        return {
            "kind": self.kind,
            "limit": int(self.limit),
            "delta": float(self.delta),
            "params": self.params,
            "count": int(len(self.members)),
        }


def make_prime_set(
    kind: str,
    limit: int,
    *,
    modulus: int | None = None,
    residues: tuple[int, ...] | list[int] | None = None,
    target_density: float | None = None,
    seed: int = 0,
) -> PrimeSet:
    """Materialize a prime set up to `limit`.

    kind="all": every prime, delta = 1.
    kind="congruence": primes p with p mod modulus in residues; every residue
        must be coprime to the modulus; delta = #residues / phi(modulus).
    kind="thinned": keep each prime p when hash(seed, p) / 2^64 < target_density.
    """
    primes = sieve_primes(limit)
    if kind == "all":
        return PrimeSet("all", limit, 1.0, primes)
    if kind == "congruence":
        if modulus is None or residues is None:
            raise ValueError("congruence prime set needs modulus and residues")
        m = int(modulus)
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        rset = sorted({int(a) % m for a in residues})
        if not rset:
            raise ValueError("empty residue set")
        for a in rset:
            if math.gcd(a, m) != 1:
                raise ValueError(f"residue {a} is not coprime to modulus {m}")
        phi = sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)
        keep = np.isin(primes % m, np.array(rset))
        return PrimeSet(
            "congruence",
            limit,
            len(rset) / phi,
            primes[keep],
            {"modulus": m, "residues": rset},
        )
    if kind == "thinned":
        if target_density is None or not (0.0 < target_density <= 1.0):
            raise ValueError(f"target_density must be in (0, 1], got {target_density}")
        mixed_seed = _splitmix64(int(seed))
        h = _splitmix64(primes.astype(np.uint64) ^ np.uint64(mixed_seed))
        u = h.astype(np.float64) / 2.0**64  # in [0, 1): density 1.0 keeps all
        keep = u < target_density
        return PrimeSet(
            "thinned",
            limit,
            float(target_density),
            primes[keep],
            {"target_density": float(target_density), "seed": int(seed)},
        )
    raise ValueError(f"unknown prime set kind: {kind!r}")


def pi_q(ps: PrimeSet, x: float) -> int:
    """Count of members <= x.  Valid for 2 <= x <= ps.limit."""
    if not 2 <= x <= ps.limit:
        raise ValueError(f"pi_q asked at x={x} outside materialized range [2, {ps.limit}]")
    return int(bisect_right(ps.members, x))


def mertens_sum(ps: PrimeSet, x: float) -> float:
    """Sum of 1/p over members p <= x, compensated (exactly rounded)."""
    if not 2 <= x <= ps.limit:
        raise ValueError(f"mertens_sum asked at x={x} outside materialized range [2, {ps.limit}]")
    n = bisect_right(ps.members, x)
    return math.fsum(1.0 / ps.members[:n].astype(np.float64))


@dataclass
class DensityAudit:
    """Empirical check of the density condition over a grid of x values.

    kappa_hat is max over the grid of |pi_Q(x) - delta*x/log x| * (log x)^2 / x,
    the smallest constant making the two-term density bound hold on the grid.
    mertens_constant_hat estimates C(Q) in sum_{p<=x} 1/p = delta*loglog x + C(Q) + O(1/log x);
    residuals hold (x, |sum 1/p - delta*loglog x - C_hat| * log x) per grid point.
    """

    kappa_hat: float
    grid: tuple[float, ...]
    worst_x: float
    mertens_constant_hat: float
    residuals: tuple[tuple[float, float], ...]


def density_audit(ps: PrimeSet, grid) -> DensityAudit:
    """Audit how well ps tracks delta * x / log x over the given grid."""
    grid = sorted(float(x) for x in grid)
    if not grid:
        raise ValueError("density_audit needs a nonempty grid")
    for x in grid:
        if not 16 <= x <= ps.limit:
            raise ValueError(f"grid point {x} outside [16, limit={ps.limit}]")

    kappa_hat = -1.0
    worst_x = grid[0]
    for x in grid:
        scaled = abs(pi_q(ps, x) - ps.delta * x / math.log(x)) * math.log(x) ** 2 / x
        if scaled > kappa_hat:
            kappa_hat, worst_x = scaled, x

    x_top = grid[-1]
    c_hat = mertens_sum(ps, x_top) - ps.delta * math.log(math.log(x_top))
    residuals = tuple(
        (
            x,
            abs(mertens_sum(ps, x) - ps.delta * math.log(math.log(x)) - c_hat) * math.log(x),
        )
        for x in grid
    )
    return DensityAudit(kappa_hat, tuple(grid), worst_x, c_hat, residuals)


LAMBDA0 = 1.9


@dataclass
class IntervalDecomposition:
    """Greedy split of Q into intervals D_j = (Lambda_{j-1}, Lambda_j].

    Each interval packs members while sum of 1/p stays <= delta * log 2; the
    next member of Q beyond Lambda_j would overflow the budget.
    """

    lambda_seq: tuple[int, ...]
    lambda0: float
    delta: float
    budget: float  # delta * log 2
    interval_sums: tuple[float, ...]
    truncated: bool


def build_lambda_intervals(ps: PrimeSet, j_count: int) -> IntervalDecomposition:
    """Greedy interval decomposition with j_count intervals (fewer if truncated)."""
    if j_count < 1:
        raise ValueError(f"j_count must be >= 1, got {j_count}")
    budget = ps.delta * LOG2
    members = ps.members
    lambdas: list[int] = []
    sums: list[float] = []
    idx = 0
    truncated = False
    for j in range(1, j_count + 1):
        total = 0.0
        comp = 0.0  # Neumaier compensation, O(1) per accepted prime
        last = None
        while idx < len(members):
            p = int(members[idx])
            term = 1.0 / p
            if (total + comp) + term > budget:
                break
            fresh = total + term
            if abs(total) >= term:
                comp += (total - fresh) + term
            else:
                comp += (term - fresh) + total
            total = fresh
            last = p
            idx += 1
        if last is None:
            if idx >= len(members):
                truncated = True
                break
            raise ValueError(
                f"degenerate interval {j}: 1/{int(members[idx])} alone exceeds budget {budget:.6g}"
            )
        if idx >= len(members):
            # cannot certify the greedy stopping rule without the next member
            truncated = True
            break
        lambdas.append(last)
        sums.append(total + comp)
    return IntervalDecomposition(
        tuple(lambdas), LAMBDA0, ps.delta, budget, tuple(sums), truncated
    )


def lambda_growth_check(dec: IntervalDecomposition) -> float:
    """max_j |log2(log Lambda_j) - j|; small values mean doubly exponential growth."""
    if not dec.lambda_seq:
        raise ValueError("empty interval decomposition")
    return max(
        abs(math.log2(math.log(lam)) - j) for j, lam in enumerate(dec.lambda_seq, start=1)
    )


# --- serialization ---

_MAGIC = b"MLPS"
_VERSION = 1


def save_prime_set(ps: PrimeSet, path) -> None:
    """Write a prime set as a compact binary bitmap with a JSON metadata header."""
    meta = json.dumps(ps.descriptor(), sort_keys=True).encode("utf-8")
    bitmap = np.zeros(ps.limit + 1, dtype=bool)
    bitmap[ps.members] = True
    packed = np.packbits(bitmap)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_VERSION.to_bytes(4, "little"))
        fh.write(len(meta).to_bytes(8, "little"))
        fh.write(meta)
        fh.write(packed.tobytes())


def load_prime_set(path) -> PrimeSet:
    """Inverse of save_prime_set; round-trips members and metadata exactly."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a prime set file (magic {magic!r})")
        version = int.from_bytes(fh.read(4), "little")
        if version != _VERSION:
            raise ValueError(f"unsupported prime set file version {version}")
        meta_len = int.from_bytes(fh.read(8), "little")
        meta = json.loads(fh.read(meta_len).decode("utf-8"))
        packed = np.frombuffer(fh.read(), dtype=np.uint8)
    expected = (meta["limit"] + 8) // 8  # bytes of a packed bitmap over [0, limit]
    if len(packed) != expected:
        raise ValueError(
            f"prime set payload holds {len(packed)} bytes, limit {meta['limit']} "
            f"needs {expected}: file truncated or padded"
        )
    bitmap = np.unpackbits(packed)[: meta["limit"] + 1].astype(bool)
    members = np.nonzero(bitmap)[0].astype(np.int64)
    return PrimeSet(meta["kind"], meta["limit"], meta["delta"], members, meta["params"])


def density_audit_csv_rows(ps: PrimeSet, audit: DensityAudit) -> list[dict]:
    """Rows for the audit CSV: x, pi_q, delta_x_over_logx, scaled_residual."""
    rows = []
    for x in audit.grid:
        expected = ps.delta * x / math.log(x)
        count = pi_q(ps, x)
        rows.append(
            {
                "x": x,
                "pi_q": count,
                "delta_x_over_logx": expected,
                "scaled_residual": abs(count - expected) * math.log(x) ** 2 / x,
            }
        )
    return rows
