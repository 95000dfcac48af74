"""Stream derivation: reproducibility and independence of keyed generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import rng as streams


def test_substream_reproducible():
    a = streams.substream(3, streams.BATCH, 1, 7).standard_normal(8)
    b = streams.substream(3, streams.BATCH, 1, 7).standard_normal(8)
    assert np.array_equal(a, b)


def test_substream_distinct_by_every_key_component():
    base = streams.substream(3, streams.BATCH, 1, 7).standard_normal(8)
    for other in (
        streams.substream(4, streams.BATCH, 1, 7),
        streams.substream(3, streams.INIT, 1, 7),
        streams.substream(3, streams.BATCH, 2, 7),
        streams.substream(3, streams.BATCH, 1, 8),
        streams.substream(3, streams.BATCH, 1),
    ):
        assert not np.array_equal(base, other.standard_normal(8))


def test_substream_order_independent():
    # drawing from one stream never advances another
    g1 = streams.substream(0, streams.DATA, 0)
    g1.standard_normal(1000)
    fresh = streams.substream(0, streams.DATA, 1).standard_normal(4)
    again = streams.substream(0, streams.DATA, 1).standard_normal(4)
    assert np.array_equal(fresh, again)


def test_stream_kinds_distinct():
    kinds = [
        streams.DATA, streams.POOLED, streams.INIT, streams.BATCH,
        streams.PARTICIPATION, streams.TRIAL, streams.EVAL, streams.IDENTITY,
        streams.COEF,
    ]
    assert len(set(kinds)) == len(kinds)


# 1-word, multi-word and >= 4-word seeds: SeedSequence pads a seed of fewer
# than 4 words with zeros when a spawn key follows, and a longer one mixes in
# after the pool
SEEDS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**96 - 1),
    st.integers(2**96, 2**130),
)
PATHS = st.integers(1, 4).flatmap(
    lambda length: st.lists(
        st.lists(st.integers(0, 2**32 - 1), min_size=length, max_size=length),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, paths=PATHS)
def test_seed_states_equal_numpys_seed_sequence(seed, paths):
    # if numpy changes SeedSequence, this fails rather than the outputs
    states = streams.seed_states(seed, np.array(paths, dtype=np.int64))
    assert states.shape == (len(paths), 4) and states.dtype == np.uint64
    for path, state in zip(paths, states):
        want = np.random.SeedSequence(seed, spawn_key=tuple(path)).generate_state(4, np.uint64)
        assert np.array_equal(state, want), (seed, path)
        ours, theirs = streams.from_state(state), streams.substream(seed, *path)
        assert np.array_equal(ours.permutation(17), theirs.permutation(17))
        assert np.array_equal(ours.integers(0, 1000, size=5), theirs.integers(0, 1000, size=5))
        assert np.array_equal(ours.standard_normal(6), theirs.standard_normal(6))


@pytest.mark.parametrize("seed", [2**128, 2**128 + 5, 2**200 + 12345, 2**300 - 1])
def test_seed_words_past_the_pool_mix_in_as_numpy_mixes_them(seed):
    # a seed of 2**128 or more has words past the 4-word pool, which SEEDS
    # rarely draws: pin that branch on fixed seeds
    paths = [[streams.BATCH, 0, 1], [streams.PARTICIPATION, 7], [streams.INIT]]
    for path in paths:
        state = streams.seed_states(seed, np.array([path], dtype=np.int64))[0]
        want = np.random.SeedSequence(seed, spawn_key=tuple(path)).generate_state(4, np.uint64)
        assert np.array_equal(state, want), (seed, path)


def test_seed_states_keep_the_leading_shape_of_the_paths():
    rounds, clients = np.arange(1, 4), np.arange(5)
    paths = streams.stream_paths(streams.BATCH, clients, rounds[:, None])
    assert paths.shape == (3, 5, 3)
    assert paths[2, 4].tolist() == [streams.BATCH, 4, 3]
    states = streams.seed_states(11, paths)
    assert states.shape == (3, 5, 4)
    assert np.array_equal(states[1, 2], streams.seed_states(11, [[streams.BATCH, 2, 2]])[0])


@pytest.mark.parametrize("word", [-1, 2**32, 2**40])
def test_a_path_word_outside_32_bits_is_rejected(word):
    with pytest.raises(ValueError, match="path word"):
        streams.seed_states(0, np.array([[streams.BATCH, word]], dtype=np.int64))


def test_a_negative_seed_is_rejected():
    with pytest.raises(ValueError, match="seed"):
        streams.seed_states(-1, [[streams.BATCH]])
