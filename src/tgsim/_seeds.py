"""`np.random.default_rng([seed, i])` for every i of a set, from one vectorized hash.

`default_rng([seed, i])` is a PCG64 seeded with the words that
`SeedSequence([seed, i])` hashes from its entropy, and building one
SeedSequence costs far more than the few draws a labeled bucket takes.
`seed_words` runs numpy's SeedSequence hash once over uint32 columns for
every i, and `generators` builds each Generator from its row of words:
the same streams, byte for byte.  `inject_noise` imports this module on
first use, so importing `tgsim` does not load `numpy.random`.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants (O'Neill's seed_seq hash, 32-bit words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def seed_words(seed: int, count: int) -> np.ndarray:
    """Row i is `np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)`.

    numpy's SeedSequence hash, run once over uint32 columns for every i
    instead of once per i: the hash constants follow the same sequence for
    every entropy of one length, and [seed, i] has the seed's words then
    one word for each i < 2**32.  A PCG64 seeded by row i is the bit
    generator of `np.random.default_rng([seed, i])`.
    """
    entropy = []
    while True:
        entropy.append(np.full(count, seed & _MASK32, dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    entropy.append(np.arange(count, dtype=np.uint32))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return result ^ (result >> 16)

    zero = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ (value >> 16)).astype(np.uint64))
    # little-endian pairs of 32-bit words make the 64-bit words
    return np.stack([low | (high << 32) for low, high in zip(state[0::2], state[1::2])], axis=1)


class _Words(ISeedSequence):
    """A seed sequence whose words were computed beforehand.

    PCG64 asks its seed sequence for `generate_state(4, np.uint64)` once,
    when it is built, and these are those four words.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def generators(seed: int, count: int):
    """`np.random.default_rng([seed, i])` for i in range(count), in order."""
    for words in seed_words(seed, count):
        yield np.random.Generator(np.random.PCG64(_Words(words)))
