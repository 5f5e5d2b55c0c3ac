"""numpy canary: the random draws and statistics every golden file rests on.

The golden models, predictions and corpora are byte-pinned, and their bytes
depend on numpy: on SeedSequence and PCG64 for every stream, on Generator
methods for the draws of synth and the evaluation splits (NEP 19 lets their
algorithms change between numpy releases), and on np.median and np.var for
every feature. Each test here pins one of those primitives at a fixed seed
path. When a golden test fails under another numpy, the canary that fails
beside it names the primitive that moved. Tree growth calls no Generator
method: every word it reads is a uint32 half of one of its PCG64 bit
generator's raw outputs, low half first, and from those words it decodes
what `integers` would draw for the bootstrap and what `choice` without
replacement would draw (one feature subset per impure node). So two cases
here check the grower's own copies of those algorithms against numpy's,
`integers` and `choice`. Each tree's bit generator is seeded through
`seeding.seed_sequence`, so its seeding rests on the `seed_sequence` and
`pcg64` canaries.

The values were recorded with numpy 2.4.6.
"""

import numpy as np
import pytest

from sensorclass import forest, seeding


def rng(k):
    return seeding.generator(2024, 7, k)


def feature_subsets():
    r = rng(1)
    return [r.choice(8, size=2, replace=False).tolist() for _ in range(3)]


def poisson():
    r = rng(8)
    return r.poisson(3.5, size=6).tolist() + [int(r.poisson(250.0))]


DRAWS = {
    "seed_sequence": (lambda: seeding.derive_seed(2024, 7, 10), 17232084949350404006),
    "pcg64": (lambda: rng(0).bit_generator.random_raw(2).tolist(),
              [15841506535457226772, 8291790984870896158]),
    "choice_without_replacement": (feature_subsets, [[2, 3], [6, 3], [4, 0]]),
    "choice_from_array": (lambda: rng(2).choice(np.arange(10, 30), size=5, replace=False).tolist(),
                          [16, 24, 13, 22, 17]),
    "choice_with_replacement": (lambda: rng(3).choice(4, size=6).tolist(), [1, 3, 2, 0, 0, 1]),
    "integers": (lambda: rng(4).integers(0, 119, size=8).tolist(),
                 [15, 0, 15, 106, 69, 39, 84, 0]),
    "uniform": (lambda: rng(5).uniform(0.0, 1000.0, 3).tolist(),
                [521.3345696748273, 259.4507404378313, 601.9262655507263]),
    "random": (lambda: rng(6).random(), 0.2971655184845542),
    "normal": (lambda: rng(7).normal(0.0, 2.0, 3).tolist(),
               [-2.526709965513216, -0.03882047919013623, -0.753570800254908]),
    "poisson": (poisson, [8, 3, 5, 7, 3, 2, 212]),
    "permutation": (lambda: rng(9).permutation(10).tolist(), [3, 5, 8, 9, 0, 4, 7, 2, 6, 1]),
}


@pytest.mark.parametrize("name", list(DRAWS))
def test_generator_draw(name):
    draw, expected = DRAWS[name]
    assert draw() == expected


def test_median_and_variance_rows():
    block = np.array([[3.25, -1.5, 8.0, 0.1, 2.2, 2.2],
                      [1e3, 1e3 + 0.1, 1e3 - 0.3, 999.9, 1e3, 1e3 + 0.2]])
    assert np.median(block, axis=1).tolist() == [2.2, 1000.0]
    assert np.var(block, axis=1).tolist() == [8.776458333333332, 0.02472222222222273]


def test_grower_bootstrap_decode_equals_integers():
    # what forest._raw_draws decodes from a tree's raw outputs, its bootstrap and the
    # words after it, against integers on the same stream
    decoded, twin = rng(14), rng(14)
    draws, words = forest._raw_draws(decoded.bit_generator, 41, 41, 16)
    assert draws.tolist() == twin.integers(0, 41, size=41).tolist()
    assert words.tolist() == twin.integers(0, 2**32, size=15, dtype=np.uint32).tolist()


def test_grower_decode_equals_choice():
    # what forest._draw_candidates decodes from a tree's words after a bootstrap
    # of odd length, against choice on the same stream, for m = 1, 2, 3 of d = 8
    decoded = [rng(k).bit_generator for k in (11, 12, 13)]
    twins = [rng(k) for k in (11, 12, 13)]
    words, cursor = np.zeros((3, 16), dtype=np.uint32), np.zeros(3, dtype=np.intp)
    for k, (a, b) in enumerate(zip(decoded, twins)):
        draws, tail = forest._raw_draws(a, 41, 41, 16)
        assert draws.tolist() == b.integers(0, 41, size=41).tolist()
        cursor[k] = 16 - len(tail)
        words[k, cursor[k]:] = tail
    for _ in range(20):
        mask = forest._draw_candidates(words, cursor, decoded, np.arange(3), np.array([1, 2, 3]), 8)
        assert [np.flatnonzero(row).tolist() for row in mask] == [
            sorted(b.choice(8, size=m, replace=False).tolist()) for b, m in zip(twins, (1, 2, 3))]
    for k, b in enumerate(twins):  # the words left unread are the ones integers draws next
        assert words[k, cursor[k]:].tolist() == b.integers(0, 2**32, size=16 - cursor[k],
                                                             dtype=np.uint32).tolist()

