"""Streams against numpy's own Philox(key=(seed, r), counter=(0, 0, 0, purpose)),
and block draws against fresh streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdeproc import DrawStreams, KernelSpec
from kdeproc.kernels import FAMILIES
from kdeproc.streams import ancestor_uniforms, kernel_streams

SEEDS = st.integers(0, 2**64 - 1)
# Seeds and replications at the edges of 32- and 64-bit words.
EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 + 3, 2**64 - 1]


def numpy_stream(seed, r, purpose):
    # uint64 arrays: numpy reads a list holding 2^63 or more as float64.
    key = np.array([seed, r], dtype=np.uint64)
    counter = np.array([0, 0, 0, purpose], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


@pytest.mark.parametrize("seed", EDGES)
def test_from_seed_matches_numpy_philox(seed):
    for r in EDGES:
        streams = DrawStreams.from_seed(seed, r)
        for purpose, gen in enumerate((streams.ancestors, streams.kernel)):
            want = numpy_stream(seed, r, purpose)
            np.testing.assert_array_equal(gen.random(9), want.random(9))
            assert gen.integers(2**64, dtype=np.uint64) == want.integers(2**64, dtype=np.uint64)


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_out_of_range_seed_or_replication_rejected(bad):
    calls = [
        lambda seed, r: DrawStreams.from_seed(seed, r),
        lambda seed, r: ancestor_uniforms(seed, [0, r], 3),
        lambda seed, r: kernel_streams(seed, [0, r]),
    ]
    for call in calls:
        for seed, r in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
                call(seed, r)


def test_neighbouring_streams_uncorrelated():
    # First uniforms over 20 000 replications at seed 0: replication r
    # against r + 1, and the ancestor stream against the kernel stream,
    # each within four standard errors of zero correlation.
    reps = range(20_000)
    ancestor = ancestor_uniforms(0, reps, 1)[:, 0]
    kernel = np.array([gen.random() for gen in kernel_streams(0, reps)])
    bound = 4 / np.sqrt(len(reps))
    assert abs(np.corrcoef(ancestor[:-1], ancestor[1:])[0, 1]) < bound
    assert abs(np.corrcoef(ancestor, kernel)[0, 1]) < bound


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, start=st.integers(0, 2**32), size=st.integers(1, 5), count=st.integers(0, 40))
def test_ancestor_uniforms_match_fresh_streams(seed, start, size, count):
    got = ancestor_uniforms(seed, range(start, start + size), count)
    for i, row in enumerate(got):
        want = DrawStreams.from_seed(seed, start + i).ancestors.random(count)
        np.testing.assert_array_equal(row, want)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [1, 3])
def test_kernel_streams_match_fresh_streams(family, d):
    kernel = KernelSpec(family, dim=d, dof=5.0 if family == "student_t" else None)
    for count in (1, 3, 17):  # odd counts leave Philox buffer words unread
        reps = range(7, 19)
        seen = 0
        for r, gen in zip(reps, kernel_streams(2**40 + 5, reps)):
            fresh = DrawStreams.from_seed(2**40 + 5, r).kernel
            for _ in range(2):  # a second draw continues each stream
                np.testing.assert_array_equal(
                    kernel.sample(gen, size=count), kernel.sample(fresh, size=count)
                )
            seen += 1
        assert seen == len(reps)
