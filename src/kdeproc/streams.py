"""Counter-based random streams for reproducible, splittable replications.

Replication r owns two disjoint Philox streams, purpose 0 for the ancestor
picks and purpose 1 for the kernel draws: the stream for purpose p is keyed
by (master_seed, r) and starts at counter (0, 0, 0, p), with master_seed and
r in [0, 2^64).  Identical keys reproduce the identical stream in any
execution order, which makes whole runs byte-reproducible.  For a block of
replications one private Philox per purpose is re-keyed to each replication
in turn, so replication r draws exactly its own fresh stream.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

_PURPOSE_ANCESTOR = 0
_PURPOSE_KERNEL = 1


def _uint64(name: str, value) -> int:
    """``value`` as an int; ValueError unless it lies in [0, 2^64)."""
    value = operator.index(value)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must lie in [0, 2^64), got {value}")
    return value


def substream(master_seed: int, replication: int, purpose: int) -> np.random.Generator:
    """Philox generator keyed by (master_seed, replication) at counter
    (0, 0, 0, purpose), built by numpy's own constructor."""
    key = [_uint64("master_seed", master_seed), _uint64("replication", replication)]
    # uint64 arrays: numpy may read a list holding 2^63 or more as float64.
    return np.random.Generator(np.random.Philox(
        key=np.array(key, dtype=np.uint64),
        counter=np.array([0, 0, 0, purpose], dtype=np.uint64),
    ))


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


def _keyed(master_seed: int, replications, purpose: int):
    """Iterator of one generator per replication: a single private Philox
    set to key (master_seed, r) and counter (0, 0, 0, purpose) with an empty
    buffer, so each draw matches ``substream(master_seed, r, purpose)``.
    Every key is checked before the first is set."""
    seed = _uint64("master_seed", master_seed)
    keys = [(seed, _uint64("replication", r)) for r in replications]
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # a fresh generator's: empty buffer, no spare uint32
    state["state"]["counter"][3] = purpose

    def rekey(key):
        state["state"]["key"] = key
        bitgen.state = state  # copied into the generator, so reusable
        return gen

    return map(rekey, keys)


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
