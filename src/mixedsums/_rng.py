"""Deterministic random generators.

Every random quantity in this package is drawn from a PCG64 generator that
numpy's SeedSequence seeds from an integer seed plus a tuple of context
integers (experiment seed, size, draw index, restart index, ...). Identical
keys give identical draws on every platform, which is what makes
experiment output reproducible bit-for-bit.

A random growth row draws all of its signs from one stream: draw d of row n
is the words [d*N, (d+1)*N) of PCG64(SeedSequence((seed, n))), N = n^m, as
+-1 (_signs), so stream(seed, n).bit_generator.advance(d*N) regenerates it.
Restart t >= 2 of an ascent call draws from stream(seed, t).
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["stream", "derive_seed", "sign_array", "phase_array"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_SIGN_BIT = np.uint64(1 << 63)
_ONE_BITS = np.uint64(0x3FF0000000000000)


def _key(seed: int, key: tuple[int, ...]) -> tuple[int, ...]:
    # SeedSequence wants nonnegative entropy words; int() would truncate a float
    try:
        return tuple(operator.index(k) & _MASK64 for k in (seed, *key))
    except TypeError:
        raise ValueError(f"seed and key entries must be integers, got {(seed, *key)}") from None


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *key)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_key(seed, key))))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse (seed, *key) to a single 64-bit integer sub-seed."""
    return int(np.random.SeedSequence(_key(seed, key)).generate_state(1, np.uint64)[0])


def sign_array(shape: tuple[int, ...], seed: int, *key: int) -> np.ndarray:
    """Uniform +-1 array; signs come from the top bit of the stream's raw
    64-bit words.

    Equal to 1.0 - 2.0 * (words >> 63). The float64 bit pattern of +-1.0
    is the word's top bit as sign over the exponent bits of 1.0, built in
    place on the words, so only one array of the given shape ever exists.
    """
    return _signs(stream(seed, *key).bit_generator.random_raw(shape))


def _signs(bits: np.ndarray) -> np.ndarray:
    """+-1.0 from uint64 words in place, as sign_array builds them."""
    bits &= _SIGN_BIT
    bits |= _ONE_BITS
    return bits.view(np.float64)


def phase_array(shape: tuple[int, ...], seed: int, *key: int) -> np.ndarray:
    """Uniform unimodular complex array exp(2*pi*i*u)."""
    return np.exp(2j * np.pi * stream(seed, *key).random(size=shape))

