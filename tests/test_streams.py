"""Block stream keys and draws against numpy's SeedSequence and fresh generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdeproc import DrawStreams, KernelSpec
from kdeproc.kernels import FAMILIES
from kdeproc.streams import ancestor_uniforms, kernel_streams, stream_keys

SEEDS = st.integers(0, 2**64 - 1)


def seed_sequence_key(seed, r, purpose):
    return np.random.SeedSequence([seed, r, purpose]).generate_state(2, np.uint64)


@settings(max_examples=300, deadline=None)
@given(
    seed=SEEDS,
    start=st.integers(0, 2**32),
    size=st.integers(1, 6),
    purpose=st.sampled_from([0, 1]),
)
def test_keys_match_seed_sequence(seed, start, size, purpose):
    reps = range(start, start + size)
    got = stream_keys(seed, reps, purpose)
    want = np.array([seed_sequence_key(seed, r, purpose) for r in reps])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**40 + 5, 2**64 - 1])
def test_keys_at_word_boundaries(seed):
    # Seeds and replications of 2^32 or more enter SeedSequence as two words.
    reps = [0, 1, 299, 12345678, 2**32 - 1, 2**32, 2**32 + 7, 2**63 + 3, 2**64 - 1]
    for purpose in (0, 1):
        want = np.array([seed_sequence_key(seed, r, purpose) for r in reps])
        np.testing.assert_array_equal(stream_keys(seed, reps, purpose), want)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        stream_keys(-1, range(3), 0)


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
