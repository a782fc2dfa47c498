"""Counter-based random streams for reproducible, scheduler-independent MC.

Work is cut into fixed-size blocks; block b of stream s under seed is generated
by a Philox generator keyed by a pure function of (seed, s, b).  Results are
reduced in block order, so estimates are bit-identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .primes import _splitmix64

BLOCK = 1 << 16


def block_generator(seed: int, stream: int, block: int) -> np.random.Generator:
    """Generator for one block; pure function of (seed, stream, block)."""
    w0 = _splitmix64(int(seed))
    w1 = _splitmix64(((int(stream) & 0xFFFFFFFF) << 32) | (int(block) & 0xFFFFFFFF))
    key = np.array([w0, w1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def run_blocks(n_samples: int, seed: int, stream: int, block_fn, threads: int = 1) -> list:
    """Apply block_fn(rng, block_len) to every block; results in block order.

    block_fn must depend only on its arguments.  The returned list is ordered
    by block index whatever the thread count, so any order-sensitive reduction
    downstream stays deterministic.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    spans = [(b, min(BLOCK, n_samples - b * BLOCK)) for b in range(-(-n_samples // BLOCK))]
    if threads <= 1:
        return [block_fn(block_generator(seed, stream, b), length) for b, length in spans]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [
            pool.submit(block_fn, block_generator(seed, stream, b), length)
            for b, length in spans
        ]
        return [f.result() for f in futures]
