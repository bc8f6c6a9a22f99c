"""Bandwidth schedules and their weighted tail sums."""

import numpy as np
import pytest

from kdeproc import BandwidthSchedule, default_delta
from kdeproc.errors import IndexBeyondTable


class TestValues:
    def test_power_examples(self):
        s = BandwidthSchedule.power(1.0, 0.2)
        assert s.at(32) == pytest.approx(0.5, abs=1e-15)
        assert s.at(1) == 1.0

    def test_exponential_example(self):
        s = BandwidthSchedule.exponential(1.0)
        assert s.at(3) == pytest.approx(np.exp(-3.0), rel=1e-15)

    def test_table(self):
        s = BandwidthSchedule.from_table([0.5, 0.25, 0.125])
        assert s.at(2) == 0.25
        np.testing.assert_allclose(s.values(3), [0.5, 0.25, 0.125])
        with pytest.raises(IndexBeyondTable):
            s.at(4)
        with pytest.raises(IndexBeyondTable):
            s.values(4)

    @pytest.mark.parametrize(
        "s",
        [
            BandwidthSchedule.power(1.3, 0.2),
            BandwidthSchedule.exponential(0.01),
            BandwidthSchedule.from_table(np.linspace(1.0, 0.1, 3000)),
        ],
        ids=["power", "exponential", "table"],
    )
    def test_values_from_start(self, s):
        full = s.values(3000)
        for start, n in ((1, 3000), (2, 2), (1025, 2048), (17, 3000)):
            np.testing.assert_array_equal(s.values(n, start=start), full[start - 1 : n])
        with pytest.raises(ValueError):
            s.values(5, start=6)
        with pytest.raises(ValueError):
            s.values(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthSchedule.power(0.0, 0.2)
        with pytest.raises(ValueError):
            BandwidthSchedule.power(1.0, -0.1)
        with pytest.raises(ValueError):
            BandwidthSchedule.exponential(0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                BandwidthSchedule.power(bad, 0.2)
            with pytest.raises(ValueError):
                BandwidthSchedule.power(1.0, bad)
            with pytest.raises(ValueError):
                BandwidthSchedule.exponential(bad)
        with pytest.raises(ValueError):
            BandwidthSchedule.from_table([])
        with pytest.raises(ValueError):
            BandwidthSchedule.from_table([1.0, -1.0])
        with pytest.raises(ValueError):
            BandwidthSchedule.power(1.0, 0.2).at(0)

    def test_monotone_non_increasing_to_1e6(self):
        for s in (BandwidthSchedule.power(2.0, 0.35), BandwidthSchedule.exponential(0.01)):
            v = s.values(10**6)
            assert np.all(np.diff(v) <= 0)
            assert np.all(v > 0)

    def test_power_identity(self):
        s = BandwidthSchedule.power(3.5, 0.6)
        n = np.arange(1, 10**5, 997)
        rel = np.abs(n**0.6 * s.values(10**5)[n - 1] / 3.5 - 1.0)
        assert np.max(rel) < 1e-12

    def test_default(self):
        assert default_delta(1) == pytest.approx(0.2)
        s = BandwidthSchedule.default(2)
        assert s.at(1) == 1.0
        assert s.delta == pytest.approx(1.0 / 6.0)


def _brute_tail(term, start, stop):
    k = np.arange(start, stop, dtype=float)
    return float(np.sum(term(k)))


class TestTailSums:
    def test_kde_tail_telescoping(self):
        # h_k = 1/k gives terms 1/(k(k+1)) which telescope to 1/n exactly.
        s = BandwidthSchedule.power(1.0, 1.0)
        for n in (1, 2, 17, 1000):
            assert s.tail_weight_kde(n) == pytest.approx(1.0 / n, rel=1e-13)

    def test_kde_tail_brute_force(self):
        s = BandwidthSchedule.power(2.0, 0.7)
        n = 5
        stop = 10**7
        head = _brute_tail(lambda k: 2.0 * k**-0.7 / (k + 1.0), n, stop)
        # Remainder bracket: decreasing positive terms vs their integral,
        # int_stop^inf 2 x^(-1.7) dx = 2 stop^(-0.7) / 0.7.
        integral = 2.0 * stop ** (-0.7) / 0.7
        got = s.tail_weight_kde(n)
        assert head < got < head + integral + 2.0 * stop**-1.7
        assert got == pytest.approx(head + integral, rel=1e-7)

    def test_kde_tail_exponential(self):
        s = BandwidthSchedule.exponential(0.05)
        n = 3
        brute = _brute_tail(lambda k: np.exp(-0.05 * k) / (k + 1.0), n, 10**5)
        assert s.tail_weight_kde(n) == pytest.approx(brute, rel=1e-12)

    def test_kde_tail_table(self):
        s = BandwidthSchedule.from_table([1.0, 0.5, 0.25])
        assert s.tail_weight_kde(2) == pytest.approx(0.5 / 3 + 0.25 / 4, rel=1e-15)
        assert s.tail_weight_kde(4) == 0.0

    def test_recursive_tail_brute_force(self):
        c, delta, n = 1.3, 0.45, 7
        s = BandwidthSchedule.power(c, delta)
        K = 10**7 - 1
        h = c * np.arange(1, K + 1, dtype=float) ** -delta
        prefix = np.cumsum(h)
        k = np.arange(n, K + 1, dtype=float)
        head = float(np.sum(prefix[n - 1 :] / (k * (k + 1.0))))
        # Remainder beyond K collapses (summation by parts) to
        # H_{K+1}/(K+1) + sum_{k >= K+2} h_k / k, the sum bracketed by its
        # integral c (K+2)^(-delta) / delta up to one extra term.
        h_next = c * (K + 1.0) ** -delta
        remainder = (prefix[-1] + h_next) / (K + 1) + c * (K + 2.0) ** (-delta) / delta
        got = s.tail_weight_recursive(n)
        assert head < got < head + remainder + 2 * h_next / K
        assert got == pytest.approx(head + remainder, rel=1e-6)

    def test_recursive_tail_exponential(self):
        s = BandwidthSchedule.exponential(0.2)
        n, K = 4, 10**6
        h = np.exp(-0.2 * np.arange(1, K + 1, dtype=float))
        prefix = np.cumsum(h)
        k = np.arange(n, K + 1, dtype=float)
        brute = float(np.sum(prefix[n - 1 :] / (k * (k + 1.0))))
        # Prefix sums saturate geometrically but the terms only decay like
        # H_inf / k^2, leaving a telescoping H_inf / (K+1) remainder.
        h_inf = np.exp(-0.2) / (1 - np.exp(-0.2))
        assert s.tail_weight_recursive(n) == pytest.approx(brute + h_inf / (K + 1), rel=1e-9)

    def test_recursive_tail_table(self):
        s = BandwidthSchedule.from_table([1.0, 0.5])
        expected = 1.0 / (1 * 2) + 1.5 / (2 * 3)
        assert s.tail_weight_recursive(1) == pytest.approx(expected, rel=1e-15)
        assert s.tail_weight_recursive(3) == 0.0

    def test_shifted_tail_power_closed_form(self):
        s = BandwidthSchedule.power(2.0, 0.5)
        n = 9
        brute = _brute_tail(lambda k: 2.0 * (k + 1.0) ** -1.5, n, 10**7)
        assert s.tail_weight_shifted(n) == pytest.approx(brute, rel=1e-3)
        assert s.tail_weight_shifted(n) > brute

    def test_shifted_tail_exponential_and_table(self):
        s = BandwidthSchedule.exponential(0.3)
        brute = _brute_tail(lambda k: np.exp(-0.3 * (k + 1.0)) / (k + 1.0), 2, 10**4)
        assert s.tail_weight_shifted(2) == pytest.approx(brute, rel=1e-12)
        st = BandwidthSchedule.from_table([1.0, 0.5, 0.25])
        assert st.tail_weight_shifted(1) == pytest.approx(0.5 / 2 + 0.25 / 3, rel=1e-15)

