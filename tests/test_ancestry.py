"""Ancestry primitives against scalar oracles on random genealogies."""

import numpy as np
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

