"""Deterministic random-number derivation.

Every random draw in this package flows from one master seed through
numpy's SeedSequence, keyed by a small integer path. That keeps results
independent of global RNG state, call order between components, and
thread scheduling: tree 7 of a forest sees the same stream whether it
is built first, last, or on another thread.

The algorithm is pinned on purpose: PCG64 seeded via
``SeedSequence((master, *path))``. Changing either would change every
generated corpus and every trained forest, so treat them as part of the
file formats.
"""

from __future__ import annotations

import numpy as np


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
