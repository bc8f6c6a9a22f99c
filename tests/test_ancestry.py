"""Ancestry primitives against scalar oracles on random genealogies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdeproc.process import chain_sum

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def forward_sum_oracle(base, parents, increments):
    """Row by row, element by element: the recursion as written."""
    out = [list(row) for row in base]
    for i, p in enumerate(parents):
        out.append([out[p][j] + increments[i][j] for j in range(len(base[0]))])
    return np.array(out)


@st.composite
def genealogies(draw):
    """(prefix length s, 0-based parents with parents[i] < s + i)."""
    s = draw(st.integers(1, 6))
    raw = draw(st.lists(st.integers(0, 10**6), max_size=60))
    return s, np.array([x % (s + i) for i, x in enumerate(raw)], dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(genealogy=genealogies(), d=st.sampled_from([1, 2, 3]), data=st.data())
def test_chain_sum_matches_forward_loop(genealogy, d, data):
    s, parents = genealogy
    base = np.array(data.draw(st.lists(FINITE, min_size=s * d, max_size=s * d))).reshape(s, d)
    m = len(parents)
    inc = np.array(data.draw(st.lists(FINITE, min_size=m * d, max_size=m * d))).reshape(m, d)
    expected = forward_sum_oracle(base, parents, inc)
    got = chain_sum(base, parents, inc)
    assert got.shape == (s + len(parents), d)
    assert np.array_equal(got, expected)
    # A 1-d base and increments give the same sums as the d = 1 column.
    if d == 1:
        assert np.array_equal(chain_sum(base[:, 0], parents, inc[:, 0]), expected[:, 0])



def path_oracle(base, inc):
    """Sums down a path genealogy: np.cumsum adds in sequence, so row s + i
    is the last base row plus inc[0], then inc[1], ..., then inc[i]."""
    s = base.shape[0]
    return np.concatenate((base[: s - 1], np.cumsum(np.concatenate((base[s - 1 :], inc)), axis=0)))


@pytest.mark.parametrize("depth", [300, 70_000])
@pytest.mark.parametrize("s, d", [(1, 1), (3, 2)])
def test_chain_sum_on_deep_path(depth, s, d):
    # Heights past 255 and 65535 need depth keys wider than uint8 and uint16.
    rng = np.random.default_rng(depth + s)
    base = rng.standard_normal((s, d))
    inc = rng.standard_normal((depth, d))
    parents = np.arange(s - 1, s - 1 + depth)
    expected = path_oracle(base, inc)
    assert np.array_equal(chain_sum(base, parents, inc), expected)
    assert np.array_equal(chain_sum(base[:, 0], parents, inc[:, 0]), expected[:, 0])


@pytest.mark.parametrize("d", [1, 3])
def test_chain_sum_on_star(d):
    rng = np.random.default_rng(d)
    base = rng.standard_normal((5, d))
    inc = rng.standard_normal((400, d))
    parents = rng.integers(0, 5, size=400)
    expected = np.concatenate((base, base[parents] + inc))
    assert np.array_equal(chain_sum(base, parents, inc), expected)
    assert np.array_equal(chain_sum(base[:, 0], parents, inc[:, 0]), expected[:, 0])


@pytest.mark.parametrize("shape", [(4,), (4, 1), (4, 3)])
def test_chain_sum_without_generated_rows(shape):
    base = np.arange(np.prod(shape), dtype=float).reshape(shape)
    inc = np.zeros((0,) + shape[1:])
    got = chain_sum(base, np.zeros(0, dtype=np.int64), inc)
    assert got.shape == shape
    assert np.array_equal(got, base)


@pytest.mark.parametrize(
    "parents",
    [[0, 2], [0, 3], [2, 1], [0, -1]],
    ids=["self-reference", "forward-reference", "two-cycle", "negative"],
)
def test_chain_sum_rejects_parent_that_is_not_earlier(parents):
    # s = 1: row 1 + i may only descend from rows 0..i.
    with pytest.raises(ValueError, match="earlier row"):
        chain_sum(np.zeros(1), np.array(parents), np.ones(2))
