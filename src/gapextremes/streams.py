"""Derivation of independent, reproducible random substreams.

All randomness in the package flows through numpy ``Generator`` objects
created here.  A substream is keyed by ``(master_seed, replication, label)``;
the label string is hashed into the seed material, so streams of
different labels can never collide.  The experiment engine keys
``"path"`` streams by draw (one draw supplies ``paths_per_draw``
replications) and ``"indicators"`` streams by replication, so the stream
assigned to a draw or a replication does not depend on how replications
are scheduled across workers.

The substream of a key is numpy's ``Generator(PCG64(SeedSequence(e)))``
for the entropy ``e = [master_seed, replication, label_key(label)]``.  Its
PCG64 state is computed here directly, for a block of replications at
once: SeedSequence's pool hash runs on uint32 arrays, one row per
replication, and PCG64's seeding step on Python integers mod 2^128.  The
tests check the states and draws against numpy's own route.
"""
from __future__ import annotations

import functools
import hashlib
from collections.abc import Iterator

import numpy as np
# imported, not reached as np.random: numpy would load it lazily, inside
# the first simulation instead of at start-up
from numpy.random import PCG64, Generator

__all__ = ["label_key", "substream", "substreams"]

#: Replications whose states ``substreams`` derives at once.
STATE_BLOCK = 1024

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence: the pool size, the constants of its two hashes
# (one mixes entropy into the pool, one draws words from it), and of its
# mixing function.  All hash arithmetic is uint32 with np.uint32 constants,
# which wraps mod 2^32 as the C code does under every numpy version.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def label_key(label: str) -> int:
    """Stable 64-bit key for a component label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _words(value: int) -> list[int]:
    """The 32-bit words of a non-negative integer, least significant first,
    as numpy's SeedSequence splits it (0 is one zero word)."""
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    return [(value >> shift) & _MASK32 for shift in range(0, max(1, value.bit_length()), 32)]


@functools.lru_cache(maxsize=None)
def _label_words(label: str) -> tuple[int, ...]:
    return tuple(_words(label_key(label)))


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier constants of the first ``count`` calls of a
    SeedSequence hash, as uint32 arrays.  The constant advances by one
    multiplication per word hashed, whatever the word, so the sequence is
    the same for every row."""
    xor = [init]
    for _ in range(count):
        xor.append(xor[-1] * mult & _MASK32)
    xor_arr, mult_arr = np.array(xor[:-1], dtype=np.uint32), np.array(xor[1:], dtype=np.uint32)
    xor_arr.setflags(write=False)
    mult_arr.setflags(write=False)
    return xor_arr, mult_arr


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> _XSHIFT)


#: The pool words other than each one, in order.
_OTHERS = [np.array([dst for dst in range(_POOL) if dst != src]) for src in range(_POOL)]


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's ``generate_state(4, uint64)`` for each row of a
    (B, w) uint32 entropy array: a (B, 4) uint64 array.

    The pool is a (B, 4) array.  Within one step of numpy's loops over
    (source, destination) pool words, the destinations are updated from a
    source word that none of them is, so each step is one array operation.
    """
    width = entropy.shape[1]
    # 4 hashes fill the pool, 12 mix it, and 4 mix in each word past the 4th
    xor, mult = _hash_constants(_INIT_A, _MULT_A, _POOL * max(width, _POOL))
    pool = np.zeros((len(entropy), _POOL), dtype=np.uint32)
    pool[:, :width] = entropy[:, :_POOL]
    pool = _hash(pool, xor[:_POOL], mult[:_POOL])
    k = _POOL
    for src, dst in enumerate(_OTHERS):
        pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src, None], xor[k:k + 3], mult[k:k + 3]))
        k += 3
    for src in range(_POOL, width):
        pool = _mix(pool, _hash(entropy[:, src, None], xor[k:k + _POOL], mult[k:k + _POOL]))
        k += _POOL
    # generate_state draws 8 words, from pool words 0..3 in turn
    words = _hash(np.tile(pool, 2), *_hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
    # pairs of 32-bit words read little-endian, as numpy reads them
    return words.astype("<u4", copy=False).view("<u8")


def _pcg_states(master_seed: int, replications: range, label: str) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` of ``Generator(PCG64(SeedSequence(e)))``
    for each replication, e the words of [master_seed, replication,
    label_key(label)].  Replications lie in [0, 2^64), one word below 2^32
    and two from there, so a range may hold rows of two widths."""
    if replications and min(replications[0], replications[-1]) < 0:
        raise ValueError(f"expected non-negative replications, got {replications}")
    if replications and max(replications[0], replications[-1]) >> 64:
        raise ValueError(f"replications must lie below 2**64, got {replications}")
    head, tail = _words(int(master_seed)), _label_words(label)
    reps = np.arange(replications.start, replications.stop, replications.step, dtype=np.uint64)
    wide = reps > np.uint64(_MASK32)
    states: list = [None] * len(reps)
    for rep_width, rows in ((1, np.flatnonzero(~wide)), (2, np.flatnonzero(wide))):
        if not rows.size:
            continue
        entropy = np.empty((rows.size, len(head) + rep_width + len(tail)), dtype=np.uint32)
        entropy[:, : len(head)] = head
        entropy[:, len(head)] = reps[rows] & np.uint64(_MASK32)
        if rep_width == 2:
            entropy[:, len(head) + 1] = reps[rows] >> np.uint64(32)
        entropy[:, len(head) + rep_width:] = tail
        # PCG64's seeding from words (a, b, c, d): initstate = a:b and
        # initseq = c:d as 128-bit integers, then two LCG steps from 0
        for row, (a, b, c, d) in zip(rows.tolist(), _seed_words(entropy).tolist()):
            inc = ((c << 64 | d) << 1 | 1) & _MASK128
            states[row] = (((a << 64 | b) + inc) * _PCG_MULT + inc) & _MASK128, inc
    return states


def substreams(master_seed: int, replications: range, label: str) -> Iterator[Generator]:
    """The substream of each replication in ``replications``, in order.

    One generator is reused: each item is the same ``Generator`` set to the
    next replication's state, so it is valid only until the next item is
    taken.  States are derived ``STATE_BLOCK`` replications at a time.
    """
    stream = Generator(PCG64(0))
    bits = stream.bit_generator
    for start in range(0, len(replications), STATE_BLOCK):
        for state, inc in _pcg_states(master_seed, replications[start:start + STATE_BLOCK], label):
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            yield stream


def substream(master_seed: int, replication: int, label: str) -> Generator:
    """Generator for one (replication, component) cell of an experiment;
    for ``"path"`` streams ``replication`` is the draw index.

    Identical arguments always yield a generator producing an identical
    stream; distinct arguments yield statistically independent streams.
    The generator is the caller's own, unlike the items of ``substreams``.
    """
    replication = int(replication)
    return next(substreams(master_seed, range(replication, replication + 1), label))
