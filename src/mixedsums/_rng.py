"""Deterministic random streams.

Every random quantity in this package is drawn from a PCG64 generator keyed
by an integer seed plus a tuple of context integers (experiment seed, size,
draw index, restart index, ...). Identical keys give identical streams on
every platform, which is what makes experiment output reproducible
bit-for-bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "derive_seed", "sign_array", "phase_array"]


def _key(seed: int, key: tuple[int, ...]) -> tuple[int, ...]:
    # SeedSequence wants nonnegative entropy words
    return tuple(int(k) & 0xFFFFFFFFFFFFFFFF for k in (seed, *key))


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *key)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_key(seed, key))))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse (seed, *key) to a single 64-bit integer sub-seed."""
    ss = np.random.SeedSequence(_key(seed, key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sign_array(shape: tuple[int, ...], seed: int, *key: int) -> np.ndarray:
    """Uniform +-1 array; signs come from the top bit of 64-bit draws.

    Equal to 1.0 - 2.0 * (draws >> 63). The float64 bit pattern of +-1.0
    is the draw's top bit as sign over the exponent bits of 1.0, built in
    place on the draws, so only one array of the given shape ever exists.
    """
    g = stream(seed, *key)
    bits = g.integers(0, 2**64, size=shape, dtype=np.uint64)
    bits &= np.uint64(1 << 63)
    bits |= np.uint64(0x3FF0000000000000)
    return bits.view(np.float64)


def phase_array(shape: tuple[int, ...], seed: int, *key: int) -> np.ndarray:
    """Uniform unimodular complex array exp(2*pi*i*u)."""
    g = stream(seed, *key)
    u = g.random(size=shape)
    return np.exp(2j * np.pi * u)
