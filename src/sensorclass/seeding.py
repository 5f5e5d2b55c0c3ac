"""Deterministic random-number derivation.

Every random draw in this package flows from one master seed through
numpy's SeedSequence, keyed by a small integer path. That keeps results
independent of global RNG state, call order between components, and
thread scheduling: tree 7 of a forest sees the same stream whether it
is built first, last, or on another thread.

The algorithm is pinned on purpose: PCG64 seeded via
``SeedSequence((master, *path))``. Changing either would change every
generated corpus and every trained forest, so treat them as part of the
file formats. pcg64_states is the same algorithm for a batch of paths:
SeedSequence's entropy mixing and state generation as uint32 array
operations over the batch, then PCG64's seeding step, giving each path
the state seeding.generator would start from.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# SeedSequence's constants (numpy/random/bit_generator.pyx) and PCG64's multiplier
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def seed_sequence(master: int, *path: int) -> np.random.SeedSequence:
    """SeedSequence for a (master seed, derivation path) pair."""
    return np.random.SeedSequence((int(master),) + tuple(int(p) for p in path))


def generator(master: int, *path: int) -> np.random.Generator:
    """Fresh PCG64 generator for the given derivation path."""
    return np.random.Generator(np.random.PCG64(seed_sequence(master, *path)))


def derive_seed(master: int, *path: int) -> int:
    """Collapse a derivation path into a plain integer seed.

    Used when a sub-computation (say, one evaluation round) needs its own
    master seed for further derivation.
    """
    return int(seed_sequence(master, *path).generate_state(1, np.uint64)[0])


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's entropy words of a non-negative int: little-endian, at least one."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hash of uint32 words (arrays here), its constant
    starting at init and multiplied by mult at every call."""
    const = init

    def hash_words(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)
    return hash_words


def pcg64_states(entries: Sequence[Sequence[int]]) -> list[dict]:
    """generator(*entry).bit_generator.state of every (master, *path) entry,
    derived together; set one on a reused PCG64 to continue that stream.
    Batched because one state per entry from numpy's SeedSequence, set on
    a reused generator, costs more than a new generator(*entry)."""
    words = [[w for n in entry for w in _uint32_words(int(n))] for entry in entries]
    lens = np.array([len(w) for w in words], dtype=np.intp)
    entropy = np.zeros((len(words), max(_POOL_SIZE, lens.max(initial=0))), dtype=np.uint32)
    for row, w in zip(entropy, words):
        row[:len(w)] = w

    def mix(x, y):
        out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return out ^ (out >> 16)

    # SeedSequence.mix_entropy: a short entropy is padded with zero words,
    # and the words past the pool are mixed in only where an entry has them
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = np.column_stack([hashmix(entropy[:, i]) for i in range(_POOL_SIZE)])
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src]))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[:, dst] = np.where(lens > src, mix(pool[:, dst], hashmix(entropy[:, src])),
                                    pool[:, dst])
    # SeedSequence.generate_state(4, np.uint64): eight words hashed from the pool, cycled
    hash_out = _hasher(_INIT_B, _MULT_B)
    state = np.column_stack([hash_out(pool[:, i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)])
    states = []
    # PCG64's srandom: state 0 and inc (seq << 1) | 1, one step, add the seed, one more step
    for s_hi, s_lo, i_hi, i_lo in state.astype("<u4").view("<u8").astype(np.uint64).tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        s = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": s, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states
