"""Seed derivation: stable, path-separated randomness."""

import numpy as np
import pytest

from sensorclass import evaluate
from sensorclass.forest import ForestConfig
from sensorclass.seeding import derive_seed, generator, pcg64_states, seed_sequence


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


@pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100])
def test_batch_states_equal_fresh_generators(master):
    # paths of one to four ints, a path int past 32 bits among them, in one batch
    entries = [(master, *range(100 + i, 100 + i + length - 1), i)
               for length in (1, 2, 3, 4) for i in range(12)] + [(master, 2**40, 7)]
    assert pcg64_states(entries) == [generator(*e).bit_generator.state for e in entries]


def test_batch_states_equal_fresh_generators_on_fold_seeds():
    # the tree paths of the 64-bit fold seeds each protocol derives with _fold_config
    folds = [evaluate._fold_config(ForestConfig(seed=seed), tag, *path).seed
             for seed in (0, 1, 42) for tag, path in [(evaluate._TAG_PERCENTAGE, (3, 2, 1)),
                                                      (evaluate._TAG_LOO, (17,)),
                                                      (evaluate._TAG_INTER, (4, 0, 1)),
                                                      (evaluate._TAG_SWEEP, (2, 1))]]
    entries = [(fold, 101, k) for fold in folds for k in range(10)]
    assert pcg64_states(entries) == [generator(*e).bit_generator.state for e in entries]
    assert pcg64_states([]) == []


def test_a_batch_state_continues_the_stream():
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = pcg64_states([(3, 101, 5)])[0]
    assert rng.integers(0, 2**32, size=9, dtype=np.uint32).tolist() == \
        generator(3, 101, 5).integers(0, 2**32, size=9, dtype=np.uint32).tolist()
