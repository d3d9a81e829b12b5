"""Deterministic random streams.

Every random quantity in this package is drawn from a PCG64 generator keyed
by an integer seed plus a tuple of context integers (experiment seed, size,
draw index, restart index, ...). Identical keys give identical streams on
every platform, which is what makes experiment output reproducible
bit-for-bit.

A random growth row draws all of its signs from one stream: draw d of row n
is the words [d*N, (d+1)*N) of PCG64(SeedSequence((seed, n))), N = n^m, as
+-1 (_signs), so stream(seed, n).bit_generator.advance(d*N) regenerates it.

streams seeds an ascent call's restart streams (seed, t) in one batch: it
runs numpy's SeedSequence algorithm as uint32 array operations and
reproduces, word for word, the states numpy seeds a PCG64 with.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["stream", "streams", "derive_seed", "sign_array", "phase_array"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_SIGN_BIT = np.uint64(1 << 63)
_ONE_BITS = np.uint64(0x3FF0000000000000)


def _key(seed: int, key: tuple[int, ...]) -> tuple[int, ...]:
    # SeedSequence wants nonnegative entropy words
    return tuple(int(k) & _MASK64 for k in (seed, *key))


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *key)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_key(seed, key))))


def streams(seed: int, ts) -> list[np.random.Generator]:
    """[stream(seed, t) for t in ts], seeded in one batch: no SeedSequence
    is built, which would cost more than short draws do. Each t must lie
    in [0, 2**32)."""
    seeded = _seeded_type()
    states = _uint64(_states(seed, ts, 8))
    return [np.random.Generator(np.random.PCG64(seeded(state))) for state in states]


def derive_seed(seed: int, *key: int) -> int:
    """Collapse (seed, *key) to a single 64-bit integer sub-seed."""
    ss = np.random.SeedSequence(_key(seed, key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


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
    g = stream(seed, *key)
    u = g.random(size=shape)
    return np.exp(2j * np.pi * u)


@functools.cache
def _hash_constants(start: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's hash multiplier over its first `count` steps, as
    read-only uint32 arrays (before, after): each step multiplies by
    `mult`, the same for every key."""
    words = [start]
    for _ in range(count):
        words.append((words[-1] * mult) & _MASK32)
    table = np.array(words, dtype=np.uint32)
    table.flags.writeable = False
    return table[:-1], table[1:]


@functools.cache
def _cross_constants() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per source word of the pool, the (before, after) multipliers of the
    steps that mix it into the other three words, in their order; the
    source's own column gets 0, so its hashmix is 0."""
    before, after = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE**2)
    out = []
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        steps = slice(_POOL_SIZE + len(dst) * src, _POOL_SIZE + len(dst) * (src + 1))
        pair = np.zeros((2, _POOL_SIZE), dtype=np.uint32)
        pair[:, dst] = before[steps], after[steps]
        pair.flags.writeable = False
        out.append((pair[0], pair[1]))
    return tuple(out)


def _hashmix(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    # SeedSequence's hashmix, one step per column of `value`: the xor takes
    # the multiplier before its step, the product the one after
    value = (value ^ before) * after
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> _XSHIFT)


def _pools(entropy: np.ndarray) -> np.ndarray:
    """(K, 4) SeedSequence pools of K keys, each given as its uint32
    entropy words zero-padded to the pool's four: SeedSequence hashes a
    missing word as 0, so the padding seeds the same pool.

    The pool words that one source word mixes into do not feed each other,
    so each source is one array step."""
    pool = _hashmix(entropy, *_hash_constants(_INIT_A, _MULT_A, _POOL_SIZE))
    # mix all bits together so late words can affect earlier ones; the
    # source word itself keeps its value, read from the previous array
    for src, (b, a) in enumerate(_cross_constants()):
        word = pool[:, src]
        pool = _mix(pool, _hashmix(word[:, None], b, a))
        pool[:, src] = word
    return pool


def _generate(pools: np.ndarray, n_words: int) -> np.ndarray:
    """(K, n_words) uint32 output of SeedSequence.generate_state per pool."""
    columns = pools[:, np.arange(n_words) % _POOL_SIZE]
    return _hashmix(columns, *_hash_constants(_INIT_B, _MULT_B, n_words))


def _states(seed: int, ts, n_words: int) -> np.ndarray:
    """(K, n_words) uint32: row i is SeedSequence((seed, ts[i])).generate_state(n_words).

    The seed, masked as derive_seed masks it, is one 32-bit entropy word or
    two, low first; each t is one word, so a t outside [0, 2**32) raises."""
    ts = list(ts)
    if not all(0 <= t <= _MASK32 for t in ts):
        raise ValueError(f"each t must lie in [0, 2**32), got {ts}")
    seed = int(seed) & _MASK64
    head = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    entropy = np.zeros((len(ts), _POOL_SIZE), dtype=np.uint32)
    entropy[:, : len(head)] = head
    entropy[:, len(head)] = ts
    return _generate(_pools(entropy), n_words)


def _uint64(state: np.ndarray) -> np.ndarray:
    """Pairs of uint32 words as uint64, the low word first, on any platform."""
    return np.ascontiguousarray(state.astype("<u4")).view("<u8").astype(np.uint64)


@functools.cache
def _seeded_type() -> type:
    """An ISeedSequence that hands a bit generator precomputed
    generate_state words. Built on first use: NumPy loads numpy.random
    lazily, and importing it with this module would add ~10 ms to every
    import of the package."""
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return Seeded
