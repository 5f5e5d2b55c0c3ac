import pytest
from hypothesis import settings

from sensorclass.evaluate import build_dataset
from sensorclass.synth import CorpusSpec, generate_corpus, preset_spec

# Tests with no max_examples of their own (the fuzz gate) run 40 examples;
# `pytest tests/test_fuzz.py --hypothesis-profile=deep` runs 1,000.
settings.register_profile("default", max_examples=40, deadline=None)
settings.register_profile("deep", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def small_corpus():
    """Two-day corpus, three traces per type; enough for structural tests."""
    return generate_corpus(
        CorpusSpec(name="unit", seed=11, traces_per_type=3, duration_s=2 * 86400.0)
    )


@pytest.fixture(scope="session")
def small_dataset(small_corpus):
    return build_dataset(small_corpus, 2700.0)


@pytest.fixture(scope="session")
def default_corpus():
    """The shipped default corpus: 6 types x 20 traces, 7 days at 60 s."""
    return generate_corpus(preset_spec("default", seed=42))


@pytest.fixture(scope="session")
def default_dataset(default_corpus):
    return build_dataset(default_corpus, 2700.0)
