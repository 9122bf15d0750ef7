"""Seeds for many ``np.random.default_rng(key)`` streams from one numpy pass over their keys.

numpy seeds one generator at a time, and seeding one costs more than a synthetic bucket's draws. So
``stream_seeds`` hashes a whole batch of keys as ``np.random.SeedSequence`` does, and ``reseed`` puts one
of those seeds into a reused PCG64 generator as PCG64 seeds itself. The generator then draws exactly what
``np.random.default_rng(key)`` would.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# SeedSequence's hash (numpy/random/bit_generator.pyx): entropy words mix into a pool of 4 words.
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT, POOL_SIZE = 16, 4
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # the 128-bit LCG multiplier of pcg_setseq_128_step_r
MASK32, MASK128 = (1 << 32) - 1, (1 << 128) - 1


@cache
def _chain(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constants of ``calls`` successive hashes: call t xors with entry t and multiplies by entry t + 1."""
    chain = [init]
    for _ in range(calls):
        chain.append(chain[-1] * mult & MASK32)
    return np.array(chain, np.uint32)


def _hash(value: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of each row of words in ``value``, row k with the constants of ``chain[k:k + 2]``."""
    value = (value ^ chain[:-1, None]) * chain[1:, None]
    return value ^ (value >> XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = x * np.uint32(MIX_MULT_L) - y * np.uint32(MIX_MULT_R)
    return mixed ^ (mixed >> XSHIFT)


def stream_seeds(*parts: int | np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` for each key, as an (n, 4) uint64 array.

    The keys are the rows of ``parts``: an int is the same in every row and gives its 32-bit words, low word
    first, as SeedSequence splits it; a 1-D integer array gives one word per row, and its values must lie in
    [0, 2**32), since they are not checked. All arrays have the same length n, and without an array n is 1.
    """
    words: list[int | np.ndarray] = []
    for part in parts:
        if isinstance(part, np.ndarray):
            words.append(part)
            continue
        if part < 0:  # -1 >> 32 is -1: the loop below would never end
            raise ValueError(f"expected non-negative integer: {part}")
        words.append(part & MASK32)
        while part := part >> 32:
            words.append(part & MASK32)
    n = next((len(word) for word in words if isinstance(word, np.ndarray)), 1)
    keys = np.zeros((max(POOL_SIZE, len(words)), n), np.uint32)  # word k of every key in row k; zeros pad
    for row, word in zip(keys, words):
        row[...] = word
    # mix_entropy: hash the first words into the pool, mix each pool word into the others, then each remaining
    # word into every pool word. The hashes of one source word are independent, so each source is one step.
    chain = _chain(INIT_A, MULT_A, POOL_SIZE * len(keys))
    pool, t = _hash(keys[:POOL_SIZE], chain[: POOL_SIZE + 1]), POOL_SIZE
    for src in range(POOL_SIZE):
        others = [dst for dst in range(POOL_SIZE) if dst != src]
        pool[others] = _mix(pool[others], _hash(pool[src], chain[t : t + POOL_SIZE]))
        t += POOL_SIZE - 1
    for src in range(POOL_SIZE, len(keys)):
        pool = _mix(pool, _hash(keys[src], chain[t : t + POOL_SIZE + 1]))
        t += POOL_SIZE
    # generate_state(4, np.uint64): 8 words hashed from the cycled pool, read in pairs as little-endian uint64.
    state = _hash(np.tile(pool, (2, 1)), _chain(INIT_B, MULT_B, 2 * POOL_SIZE))
    return np.asarray(state.T, "<u4", order="C").view("<u8")


def reseed(generator: np.random.Generator, seed: np.ndarray) -> np.random.Generator:
    """Return ``generator``, a PCG64 one, at the state ``np.random.default_rng`` gives it from ``seed``'s key.

    ``seed`` is a row of ``stream_seeds``. PCG64 splits it into a 128-bit initstate and initseq, then
    ``pcg_setseq_128_srandom_r`` sets inc to ``(initseq << 1) | 1`` and takes two LCG steps from state 0,
    adding initstate between them. Any buffered 32-bit half is dropped.
    """
    state_hi, state_lo, seq_hi, seq_lo = seed.tolist()
    inc = (seq_hi << 65 | seq_lo << 1 | 1) & MASK128
    state = ((inc + (state_hi << 64 | state_lo)) * PCG64_MULT + inc) & MASK128
    generator.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0
    }
    return generator
