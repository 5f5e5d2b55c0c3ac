"""Seed derivation: stable, path-separated randomness."""

import numpy as np

from sensorclass.seeding import derive_seed, generator, seed_sequence


def test_derive_seed_is_deterministic():
    assert derive_seed(42, 101, 3) == derive_seed(42, 101, 3)


def test_derive_seed_separates_paths():
    seeds = {derive_seed(0, tag, 0) for tag in (101, 201, 202, 203, 204, 301)}
    assert len(seeds) == 6
    assert derive_seed(0, 101, 0) != derive_seed(0, 101, 1)
    assert derive_seed(0, 101, 0) != derive_seed(1, 101, 0)


def test_generator_reproduces_stream():
    a = generator(7, 101, 2).integers(0, 1 << 30, size=8)
    b = generator(7, 101, 2).integers(0, 1 << 30, size=8)
    assert a.tolist() == b.tolist()


def test_seed_sequence_spawns_consistently():
    ss1 = seed_sequence(5, 9)
    ss2 = seed_sequence(5, 9)
    g1 = np.random.Generator(np.random.PCG64(ss1))
    g2 = np.random.Generator(np.random.PCG64(ss2))
    assert g1.random(4).tolist() == g2.random(4).tolist()

