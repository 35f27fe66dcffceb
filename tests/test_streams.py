import itertools

import numpy as np
import pytest

from gapextremes import streams
from gapextremes.streams import _pcg_states, label_key, substream, substreams
import reference


def test_same_key_bit_identical():
    a = substream(123, 7, "path").standard_normal(100)
    b = substream(123, 7, "path").standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_components_differ():
    a = substream(123, 7, "path").standard_normal(100)
    b = substream(123, 7, "indicators").standard_normal(100)
    c = substream(123, 8, "path").standard_normal(100)
    d = substream(124, 7, "path").standard_normal(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_label_key_stable():
    # frozen: the derivation must never change silently, or every stored
    # report seed becomes irreproducible
    assert label_key("path") == label_key("path")
    assert label_key("path") != label_key("indicators")


def test_streams_statistically_independent():
    # crude but effective: correlation of two long substreams is ~ N(0, 1/n)
    n = 200_000
    a = substream(5, 0, "path").standard_normal(n)
    b = substream(5, 0, "indicators").standard_normal(n)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(n)


WORD_EDGES = (0, 1, 2**32 - 1, 2**32, 2**63 + 5)


def _draws(stream):
    """The first draws of each kind the package takes; the odd count of
    bounded integers leaves half a 64-bit word buffered."""
    return [stream.standard_normal(3), stream.random(3), stream.uniform(-1.0, 2.0, 3),
            stream.integers(0, 2**63, 3), stream.integers(0, 10, 3)]


def _assert_same_stream(got, expected, key):
    assert got.bit_generator.state == expected.bit_generator.state, key
    for a, b in zip(_draws(got), _draws(expected)):
        assert np.array_equal(a, b), key


@pytest.mark.parametrize("label", ["path", "indicators"])
def test_substream_equals_numpy_list_entropy(label):
    # the states are derived directly; numpy's SeedSequence of the list
    # [seed, replication, label_key(label)] must give the same stream
    for seed, replication in itertools.product(WORD_EDGES, WORD_EDGES):
        expected = reference.substream(seed, replication, label)
        (state,) = _pcg_states(seed, range(replication, replication + 1), label)
        assert state == tuple(expected.bit_generator.state["state"].values())
        _assert_same_stream(substream(seed, replication, label), expected, (seed, replication))


@pytest.mark.parametrize("label", ["path", "indicators"])
def test_substreams_equal_numpy_across_word_edges(label):
    # ranges at every word edge, one of them crossing 2^32, where the
    # replication grows from one entropy word to two
    for seed in WORD_EDGES:
        for edge in WORD_EDGES:
            replications = range(max(0, edge - 2), edge + 3)
            states = _pcg_states(seed, replications, label)
            for r, state, stream in zip(replications, states, substreams(seed, replications, label)):
                expected = reference.substream(seed, r, label)
                assert state == tuple(expected.bit_generator.state["state"].values())
                _assert_same_stream(stream, expected, (seed, r))


def test_substreams_reuse_one_generator_across_state_blocks(monkeypatch):
    monkeypatch.setattr(streams, "STATE_BLOCK", 3)
    replications = range(2**32 - 5, 2**32 + 5)
    items = list(zip(replications, substreams(9, replications, "path")))
    assert len(items) == len(replications)
    assert len({id(stream) for _, stream in items}) == 1
    for r, stream in zip(replications, substreams(9, replications, "path")):
        _assert_same_stream(stream, reference.substream(9, r, "path"), r)


def test_substream_rejects_negative_keys():
    with pytest.raises(ValueError):
        substream(-1, 0, "path")
    with pytest.raises(ValueError):
        substream(0, -1, "path")
    with pytest.raises(ValueError):
        next(substreams(0, range(-1, 2), "path"))


def test_substream_rejects_replications_of_three_words():
    with pytest.raises(ValueError):
        substream(0, 2**64, "path")
