import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from streamista.rng import (
    derive_seeds, keyed_generators, make_rng, philox_keys, standard_normal_rows,
)

# the run entropy is one word below 2**32, two below 2**64, and is padded to
# the four-word pool only below 2**128; a stream index takes two words from
# 2**32 on, so these boundaries cover every entropy layout
SEED_EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128)
INDEX_EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1)

seeds = st.one_of(st.sampled_from(SEED_EDGES), st.integers(min_value=0, max_value=2**130 - 1))
indices = st.one_of(
    st.sampled_from(INDEX_EDGES),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**64 - 1),
)
uint64s = st.one_of(st.sampled_from(INDEX_EDGES), st.integers(min_value=0, max_value=2**64 - 1))


@st.composite
def stream_rows(draw):
    depth = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(indices, min_size=depth, max_size=depth)
    return draw(st.lists(row, min_size=1, max_size=12))


@settings(deadline=None, max_examples=200)
@given(seed=seeds, streams=stream_rows())
def test_derive_seeds_match_seed_sequence(seed, streams):
    # rows of several word layouts in one call, each against numpy itself
    got = derive_seeds(seed, streams)
    expected = [
        np.random.SeedSequence(seed, spawn_key=tuple(row)).generate_state(1, np.uint64)[0]
        for row in streams
    ]
    assert got.dtype == np.uint64
    assert got.tolist() == [int(v) for v in expected]
    keys = philox_keys(got)
    expected_keys = [np.random.SeedSequence(int(v)).generate_state(2, np.uint64) for v in got]
    assert keys.dtype == np.uint64
    assert keys.tolist() == np.asarray(expected_keys).tolist()


@settings(deadline=None, max_examples=100)
@given(values=st.lists(uint64s, min_size=1, max_size=12))
def test_philox_keys_match_seed_sequence(values):
    expected = [np.random.SeedSequence(v).generate_state(2, np.uint64) for v in values]
    assert philox_keys(values).tolist() == np.asarray(expected).tolist()


@settings(deadline=None, max_examples=50)
@given(values=st.lists(uint64s, min_size=1, max_size=8), width=st.integers(1, 70))
def test_standard_normal_rows_match_fresh_generators(values, width):
    # one reused Philox, reset per row, draws what a fresh generator draws
    rows = standard_normal_rows(values, width)
    assert rows.shape == (len(values), width)
    for row, v in zip(rows, values):
        assert row.tobytes() == make_rng(v).standard_normal(width).tobytes()


def test_block_derivation_handles_empty_and_invalid_input():
    assert derive_seeds(3, np.empty((0, 3), dtype=np.uint64)).shape == (0,)
    assert standard_normal_rows([], 4).shape == (0, 4)
    with pytest.raises(ValueError, match="seed"):
        derive_seeds(-1, [[0]])
    with pytest.raises(ValueError, match="streams"):
        derive_seeds(0, [0, 1])
    with pytest.raises(ValueError, match="streams"):
        derive_seeds(0, np.empty((2, 0)))


@settings(deadline=None, max_examples=150)
@given(values=st.lists(uint64s, min_size=1, max_size=8), stream=st.lists(indices, max_size=3))
def test_philox_keys_of_streams_match_seed_sequence(values, stream):
    # the key make_rng(seed, *stream) starts from; no stream is the plain seed
    expected = [
        np.random.SeedSequence(v, spawn_key=tuple(stream)).generate_state(2, np.uint64)
        for v in values
    ]
    keys = philox_keys(values, *stream)
    assert keys.dtype == np.uint64
    assert keys.tolist() == np.asarray(expected).tolist()
    for key, v in zip(keys, values):
        fresh = make_rng(v, *stream)
        (gen,) = keyed_generators([key])
        assert gen.standard_normal(5).tobytes() == fresh.standard_normal(5).tobytes()
        drawn = [g.choice(9, size=3, replace=False).tolist() for g in (gen, fresh)]
        assert drawn[0] == drawn[1]


def test_philox_keys_reject_stream_indices_out_of_range():
    with pytest.raises(ValueError, match="stream index"):
        philox_keys([0], 2**64)
    with pytest.raises(ValueError, match="stream index"):
        philox_keys([0], -1)
