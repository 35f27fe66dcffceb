"""Derivation of independent, reproducible random substreams.

All randomness in the package flows through numpy ``Generator`` objects
created here.  A substream is keyed by ``(master_seed, replication, label)``;
the label string is hashed into the seed material, so streams of
different labels can never collide.  The experiment engine keys
``"path"`` streams by draw (one draw supplies ``paths_per_draw``
replications) and ``"indicators"`` streams by replication, so the stream
assigned to a draw or a replication does not depend on how replications
are scheduled across workers.
"""
from __future__ import annotations

import functools
import hashlib

import numpy as np
# imported, not reached as np.random: numpy would load it lazily, inside
# the first simulation instead of at start-up
from numpy.random import PCG64, Generator, SeedSequence

__all__ = ["label_key", "substream"]


def label_key(label: str) -> int:
    """Stable 64-bit key for a component label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _words(value: int) -> bytes:
    """The little-endian 32-bit words of a non-negative integer, as numpy's
    SeedSequence splits it (0 is one zero word)."""
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    return value.to_bytes(4 * max(1, -(-value.bit_length() // 32)), "little")


@functools.lru_cache(maxsize=None)
def _label_words(label: str) -> bytes:
    return _words(label_key(label))


def substream(master_seed: int, replication: int, label: str) -> Generator:
    """Generator for one (replication, component) cell of an experiment;
    for ``"path"`` streams ``replication`` is the draw index.

    Identical arguments always yield a generator producing an identical
    stream; distinct arguments yield statistically independent streams.
    The entropy is the word array numpy makes of the list
    ``[master_seed, replication, label_key(label)]``, built here directly.
    """
    words = _words(int(master_seed)) + _words(int(replication)) + _label_words(label)
    seq = SeedSequence(np.frombuffer(words, dtype="<u4"))
    return Generator(PCG64(seq))
