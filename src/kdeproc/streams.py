"""Counter-based random streams for reproducible, splittable replications.

Every replication derives two disjoint Philox substreams from
``(master_seed, replication, purpose)``: one feeding the uniform ancestor
picks, one feeding the kernel draws.  Identical keys always reproduce the
identical stream, independent of execution order, which is what makes
whole experiment runs byte-reproducible.

A substream is ``Philox(SeedSequence([master_seed, replication, purpose]))``.
:func:`stream_keys` derives the Philox keys of a whole block of replications
at once with numpy's uint32 arithmetic, and one private Philox per purpose
is re-keyed to each replication in turn (counter 0, empty buffer), so the
draws of replication i are exactly those of its own fresh substreams:
:func:`ancestor_uniforms` fills a block's ancestor uniforms that way, and
:func:`kernel_streams` yields each replication's kernel stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PURPOSE_ANCESTOR = 0
_PURPOSE_KERNEL = 1

# numpy.random.SeedSequence's mixing constants (pool of four uint32 words).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def substream(master_seed: int, replication: int, purpose: int) -> np.random.Generator:
    """Philox generator keyed by (master_seed, replication, purpose)."""
    seq = np.random.SeedSequence([int(master_seed), int(replication), int(purpose)])
    return np.random.Generator(np.random.Philox(seq))


@dataclass
class DrawStreams:
    """Pair of generators owned by a single trajectory simulation."""

    ancestors: np.random.Generator
    kernel: np.random.Generator

    @classmethod
    def from_seed(cls, master_seed: int, replication: int = 0) -> "DrawStreams":
        return cls(
            ancestors=substream(master_seed, replication, _PURPOSE_ANCESTOR),
            kernel=substream(master_seed, replication, _PURPOSE_KERNEL),
        )


# ------------------------------------------------------------- block streams


def _words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int ([0] for 0), as
    SeedSequence splits each entropy entry."""
    if value < 0:
        raise ValueError(f"seed entries must be non-negative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The ``count`` successive values of SeedSequence's hash constant,
    which depend on no input: c_0 = init, c_{k+1} = c_k * mult mod 2^32."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _seed_sequence_keys(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(column).generate_state(2, np.uint64)`` for every column
    of a (words, R) uint32 entropy array.

    The k-th hash of SeedSequence uses the constants c_k and c_{k+1}.  Those
    are fixed in advance, so every step that hashes several words at once
    (the pool fill, one source word mixed into the other three, one extra
    entropy word mixed into all four, the output) is one array operation.
    """
    extra = entropy[_POOL_SIZE:]
    a = _hash_constants(_INIT_A, _MULT_A, 4 * (4 + len(extra)) + 1)

    def hashmix(value, k, n):
        """Hashes number k..k+n-1 of ``value`` (n rows, or one broadcast row)."""
        value = (value ^ a[k : k + n]) * a[k + 1 : k + 1 + n]
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> _XSHIFT)

    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:_POOL_SIZE]
    pool = hashmix(pool, 0, _POOL_SIZE)
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], k, 3))
        k += 3
    for word in extra:
        pool = mix(pool, hashmix(word, k, _POOL_SIZE))
        k += _POOL_SIZE

    b = _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE + 1)
    state = pool ^ b[:-1]
    state = state * b[1:]
    state = (state ^ (state >> _XSHIFT)).astype(np.uint64)
    # Two uint64 outputs take exactly one pass over the pool, low word first.
    return (state[0::2] | state[1::2] << 32).T


def stream_keys(master_seed: int, replications, purpose: int) -> np.ndarray:
    """(R, 2) uint64 Philox keys of the (master_seed, r, purpose) substreams,
    r over ``replications``: row i equals
    ``SeedSequence([master_seed, replications[i], purpose]).generate_state(2, np.uint64)``.

    SeedSequence splits each entry into uint32 words, so a seed or a
    replication of 2^32 or more contributes two words; rows are grouped by
    the width of their replication index.
    """
    reps = np.asarray(replications, dtype=np.uint64).reshape(-1)
    seed_words, purpose_words = _words(int(master_seed)), _words(int(purpose))
    keys = np.empty((reps.size, 2), dtype=np.uint64)
    wide = reps > _MASK32
    for rows, rep_words in (
        (~wide, lambda r: [r]),
        (wide, lambda r: [r & np.uint64(_MASK32), r >> np.uint64(32)]),
    ):
        if not rows.any():
            continue
        r = reps[rows]
        words = seed_words + rep_words(r) + purpose_words
        entropy = np.empty((len(words), r.size), dtype=np.uint32)
        for row, word in zip(entropy, words):
            row[...] = word
        keys[rows] = _seed_sequence_keys(entropy)
    return keys


def _keyed(master_seed: int, replications, purpose: int):
    """Yield one generator per replication: a single private Philox whose
    state is set to that replication's fresh substream (counter 0, empty
    buffer), so each draw matches ``substream(master_seed, r, purpose)``."""
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    fresh = {"counter": np.zeros(4, dtype=np.uint64), "key": None}
    state = {
        "bit_generator": "Philox",
        "state": fresh,
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in stream_keys(master_seed, replications, purpose):
        fresh["key"] = key
        bitgen.state = state  # copied into the generator, so reusable
        yield gen


def ancestor_uniforms(master_seed: int, replications, count: int) -> np.ndarray:
    """(R, count) array: row i is ``DrawStreams.from_seed(master_seed,
    replications[i]).ancestors.random(count)``."""
    out = np.empty((len(replications), count))
    for row, gen in zip(out, _keyed(master_seed, replications, _PURPOSE_ANCESTOR)):
        gen.random(out=row)
    return out


def kernel_streams(master_seed: int, replications):
    """Yield each replication's ``DrawStreams.from_seed(master_seed, r).kernel``
    at its first draw: one private generator, re-keyed when it is yielded, so
    draw from it before asking for the next."""
    return _keyed(master_seed, replications, _PURPOSE_KERNEL)
