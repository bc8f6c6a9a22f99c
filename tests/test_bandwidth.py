"""Bandwidth schedules and their weighted tail sums."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from kdeproc import BandwidthSchedule, default_delta
from kdeproc import bandwidth as bw
from kdeproc import martingale as mg
from kdeproc.bandwidth import TAIL_WEIGHT_REL_TOL, gauss_kronrod, leading
from kdeproc.errors import IndexBeyondTable, NoEnvelope, ToleranceNotReached


class TestValues:
    def test_power_examples(self):
        s = BandwidthSchedule.power(1.0, 0.2)
        assert s.values(32)[-1] == pytest.approx(0.5, abs=1e-15)
        assert s.values(1)[-1] == 1.0

    def test_exponential_example(self):
        s = BandwidthSchedule.exponential(1.0)
        assert s.values(3)[-1] == pytest.approx(np.exp(-3.0), rel=1e-15, abs=0.0)

    def test_table(self):
        s = BandwidthSchedule.from_table([0.5, 0.25, 0.125])
        assert s.values(2)[-1] == 0.25
        np.testing.assert_allclose(s.values(3), [0.5, 0.25, 0.125])
        with pytest.raises(IndexBeyondTable, match="table has 3 entries, asked for h_4"):
            s.values(4)

    @settings(max_examples=200, deadline=None)
    @given(
        form=st.sampled_from(["power", "exponential", "table"]),
        param=st.floats(0.01, 3.0),
        n=st.integers(1, 3000),
        extra=st.integers(0, 3000),
    )
    def test_head_of_a_longer_read(self, form, param, n, extra):
        # A run reads h_1..h_M once and its consumers slice the head they
        # need: the head must be the same floats, and sum to the same float,
        # as a read of its own.
        m = n + extra
        if form == "power":
            s = BandwidthSchedule.power(1.0 + param, param / 3.0)
        elif form == "exponential":
            s = BandwidthSchedule.exponential(param)
        else:
            s = BandwidthSchedule.from_table(np.linspace(param, param / 7.0, m))
        head = leading(s.values(m), n)
        assert head.tobytes() == s.values(n).tobytes()
        assert np.sum(head) == np.sum(s.values(n))
        with pytest.raises(ValueError, match=f"h_1..h_{m + 1}, got {m}"):
            leading(s.values(m), m + 1)

    @pytest.mark.parametrize(
        "s",
        [
            BandwidthSchedule.power(1.3, 0.2),
            BandwidthSchedule.exponential(0.01),
            BandwidthSchedule.from_table([1.0, 0.5]),
        ],
        ids=["power", "exponential", "table"],
    )
    def test_values_read_only(self, s):
        # The one read of a run is shared by every consumer and replication,
        # so a write through any slice of it raises.
        h = s.values(2)
        with pytest.raises(ValueError, match="read-only"):
            h[1:][0] = 3.0
        assert s.values(2)[1] == h[1]
        # The steps of a one-point run read h_1..h_0: nothing.
        empty = s.values(0)
        assert empty.shape == (0,) and empty.dtype == float and not empty.flags.writeable

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
        for n in (-1, -2):
            with pytest.raises(ValueError, match="n >= 0"):
                BandwidthSchedule.power(1.0, 0.2).values(n)
            with pytest.raises(ValueError, match="n >= 0"):
                BandwidthSchedule.from_table([1.0, 0.5]).values(n)

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
        assert s.values(1)[-1] == 1.0
        assert s.delta == pytest.approx(1.0 / 6.0)


def _brute_tail(term, start, stop):
    k = np.arange(start, stop, dtype=float)
    return float(np.sum(term(k)))


class TestTailSums:
    def test_kde_tail_telescoping(self):
        # h_k = 1/k gives terms 1/(k(k+1)) which telescope to 1/n exactly.
        s = BandwidthSchedule.power(1.0, 1.0)
        for n in (1, 2, 17, 1000):
            assert s.tail_weight(n, 0) == pytest.approx(1.0 / n, rel=1e-13, abs=0.0)

    def test_kde_tail_brute_force(self):
        s = BandwidthSchedule.power(2.0, 0.7)
        n = 5
        stop = 10**7
        head = _brute_tail(lambda k: 2.0 * k**-0.7 / (k + 1.0), n, stop)
        # Remainder bracket: decreasing positive terms vs their integral,
        # int_stop^inf 2 x^(-1.7) dx = 2 stop^(-0.7) / 0.7.
        integral = 2.0 * stop ** (-0.7) / 0.7
        got = s.tail_weight(n, 0)
        assert head < got < head + integral + 2.0 * stop**-1.7
        assert got == pytest.approx(head + integral, rel=1e-7, abs=0.0)

    def test_kde_tail_exponential(self):
        s = BandwidthSchedule.exponential(0.05)
        n = 3
        brute = _brute_tail(lambda k: np.exp(-0.05 * k) / (k + 1.0), n, 10**5)
        assert s.tail_weight(n, 0) == pytest.approx(brute, rel=1e-12, abs=0.0)

    # The recursive compensator tail sum_{k>=n} H_k / (k(k+1)) is the last
    # entry of compensator_tails at horizon n with E[W] = 1.
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
        got = mg.compensator_tails("recursive", s, s.values(n), 1.0, n)[-1]
        assert head < got < head + remainder + 2 * h_next / K
        assert got == pytest.approx(head + remainder, rel=1e-6, abs=0.0)

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
        got = mg.compensator_tails("recursive", s, s.values(n), 1.0, n)[-1]
        assert got == pytest.approx(brute + h_inf / (K + 1), rel=1e-9, abs=0.0)

    def test_shifted_tail_power_closed_form(self):
        s = BandwidthSchedule.power(2.0, 0.5)
        n = 9
        brute = _brute_tail(lambda k: 2.0 * (k + 1.0) ** -1.5, n, 10**7)
        assert s.tail_weight(n, 1) == pytest.approx(brute, rel=1e-3, abs=0.0)
        assert s.tail_weight(n, 1) > brute

    def test_shifted_tail_exponential(self):
        s = BandwidthSchedule.exponential(0.3)
        brute = _brute_tail(lambda k: np.exp(-0.3 * (k + 1.0)) / (k + 1.0), 2, 10**4)
        assert s.tail_weight(2, 1) == pytest.approx(brute, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "shift, term",
        [
            (0, lambda k: np.exp(-1e-4 * k) / (k + 1.0)),
            (1, lambda k: np.exp(-1e-4 * (k + 1.0)) / (k + 1.0)),
        ],
        ids=["kde", "shifted"],
    )
    def test_exponential_tails_past_one_block(self, shift, term):
        # At rate 1e-4 the terms shrink by 1/e per 10^4, so most of the sum
        # lies past the directly summed head; 2 * 10^6 exactly rounded terms
        # leave a remainder near e^-200.
        k = np.arange(10, 10 + 2 * 10**6, dtype=float)
        want = math.fsum(term(k).tolist())
        got = BandwidthSchedule.exponential(1e-4).tail_weight(10, shift)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("rate", [1e-9, 1e-12])
    @pytest.mark.parametrize("shift", [0, 1])
    def test_tiny_exponential_rate_matches_log_identity(self, shift, rate):
        # A direct sum would need ~36/rate terms.  The log identity
        # sum_{j>n} e^{-rj}/j = -ln(1 - e^{-r}) - sum_{j<=n} e^{-rj}/j gives
        # W_1(n), and W_0(n) = e^r W_1(n); at n r <= 1 it loses nothing.
        n = 51
        head = math.fsum(math.exp(-rate * j) / j for j in range(1, n + 1))
        want = -math.log(-math.expm1(-rate)) - head
        if shift == 0:
            want *= math.exp(rate)
        got = BandwidthSchedule.exponential(rate).tail_weight(n, shift)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("shift", [0, 1])
    def test_tiny_power_delta_leaves_the_float_range(self, shift):
        # h_n = n^(-0.005) maps u in (0, 1] to x = 4096 u^(-200), beyond the
        # float range near u = 0: an error, where a Hurwitz zeta has a value.
        with pytest.raises(ToleranceNotReached, match="from the cut n=4096 leaves the float range"):
            BandwidthSchedule.power(1.0, 0.005).tail_weight(51, shift)

    @pytest.mark.parametrize("n", [1001, 4096, 25001])
    @pytest.mark.parametrize("k", np.arange(100.0, 120.5, 0.5).tolist())
    def test_weight_near_the_float_range_is_finite_or_refused(self, k, n):
        # Near delta = 1/115 the node x = cut u^(-1/delta) stays finite while
        # its Jacobian overflows in a float multiply, which raises nothing:
        # the integral is then inf, which only the finiteness check refuses.
        schedule = BandwidthSchedule.power(1.0, 1.0 / k)
        for shift in (0, 1):
            try:
                assert math.isfinite(schedule.tail_weight(n, shift))
            except ToleranceNotReached as exc:
                assert "leaves the float range" in str(exc)

    @pytest.mark.parametrize(
        "n, shift, message",
        [(0, 0, "tail start must be >= 1"), (1, 2, "tail shift must be 0 or 1"),
         (1, -1, "tail shift must be 0 or 1")],
    )
    def test_bad_start_or_shift(self, n, shift, message):
        with pytest.raises(ValueError, match=message):
            BandwidthSchedule.power(1.0, 0.2).tail_weight(n, shift)

    @pytest.mark.parametrize(
        "tail", ["tail_weight_kde", "tail_weight_shifted", "tail_weight_recursive"]
    )
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_table_has_no_tail(self, tail, n):
        # A table ends, so nothing past it can be certified, inside or past
        # its last entry.
        s = BandwidthSchedule.from_table([1.0, 0.5, 0.25])
        tails = {
            "tail_weight_kde": lambda: s.tail_weight(n, 0),
            "tail_weight_shifted": lambda: s.tail_weight(n, 1),
            # The recursive tail is the shifted weight plus H_n / n.
            "tail_weight_recursive": lambda: mg.compensator_tails(
                "recursive", s, np.full(n, 0.5), 1.0, n
            ),
        }
        with pytest.raises(NoEnvelope, match="power-law bandwidth envelope"):
            tails[tail]()
        with pytest.raises(NoEnvelope):
            s.law(1.0)



def _log_identity(rate, n, shift):
    """W_s(n) at an exponential rate from the log identity, in 40-digit
    decimal arithmetic: sum_{j>n} q^j/j = -ln(1 - q) - sum_{j<=n} q^j/j with
    q = e^{-rate}, and W_0 = W_1 / q."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        q = (-decimal.Decimal(rate)).exp()
        head, power = decimal.Decimal(0), decimal.Decimal(1)
        for j in range(1, n + 1):
            power *= q
            head += power / j
        w1 = -(1 - q).ln() - head
        return float(w1 if shift else w1 / q)


class TestTailWeightOracles:
    """tail_weight against oracles that share no code with tail_sum, to 1e-14
    (the Hurwitz zeta oracle to the accuracy tail_weight asks its quadrature
    for)."""

    @settings(max_examples=150, deadline=None)
    @given(c=st.floats(0.1, 10.0), delta=st.floats(0.01, 1.0), n=st.integers(1, 10**6))
    @example(c=8.127020000605611, delta=0.011867927631978522, n=288719)
    def test_power_shifted_is_hurwitz_zeta(self, c, delta, n):
        # h_{k+1}/(k+1) = C (k+1)^-(1+delta), so W_1(n) = C zeta(1+delta, n+1).
        # Near delta = 0.01 the quadrature's answer sits ~1e-14 off at every
        # tolerance down to its 50 eps floor: the test holds it to the
        # accuracy asked.
        want = c * float(special.zeta(1.0 + delta, n + 1))
        got = BandwidthSchedule.power(c, delta).tail_weight(n, 1)
        assert got == pytest.approx(want, rel=TAIL_WEIGHT_REL_TOL / 40, abs=0.0)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 10**6))
    def test_harmonic_power_telescopes(self, n):
        # h_k = 1/k: sum_{k>=n} 1/(k(k+1)) = 1/n.
        got = BandwidthSchedule.power(1.0, 1.0).tail_weight(n, 0)
        assert got == pytest.approx(1.0 / n, rel=1e-14, abs=0.0)

    @settings(max_examples=100, deadline=None)
    @given(rate=st.floats(1e-3, 0.5), n=st.integers(1, 10**5), shift=st.sampled_from([0, 1]))
    def test_exponential_brute_sum(self, rate, n, shift):
        # Past n + 40/rate the terms fall below 1e-17 of the first.
        k = np.arange(n, n + int(40.0 / rate) + 1, dtype=float)
        want = math.fsum((np.exp(-rate * (k + shift)) / (k + 1.0)).tolist())
        got = BandwidthSchedule.exponential(rate).tail_weight(n, shift)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        log_rate=st.floats(-12.0, math.log10(0.5)),
        fraction=st.floats(0.0, 1.0),
        shift=st.sampled_from([0, 1]),
    )
    @example(log_rate=-9.665108108095936, fraction=0.3095402156781804, shift=0)
    @example(log_rate=-9.786823799734952, fraction=0.0, shift=0)
    def test_exponential_log_identity(self, log_rate, fraction, shift):
        rate = 10.0**log_rate
        n = max(1, int(fraction * min(1.0 / rate, 2 * 10**4)))
        want = _log_identity(rate, n, shift)
        got = BandwidthSchedule.exponential(rate).tail_weight(n, shift)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def sizes_of(g):
    """g with a record of the size of the array of every call."""
    sizes = []

    def counted(u):
        sizes.append(u.size)
        return g(u)

    return counted, sizes


class TestGaussKronrod:
    """The package's adaptive qk21 rule on (0, 1) against exact integrals and
    QUADPACK's quad."""

    @settings(max_examples=100, deadline=None)
    @given(
        degree=st.integers(0, 31),
        re=st.lists(st.floats(-100.0, 100.0), min_size=32, max_size=32),
        im=st.lists(st.floats(-100.0, 100.0), min_size=32, max_size=32),
    )
    def test_one_interval_is_exact_to_degree_31(self, degree, re, im):
        # 21 Kronrod nodes integrate every polynomial of degree <= 31
        # exactly: one interval, to rounding, whatever its error estimate.
        c = np.array(re[: degree + 1]) + 1j * np.array(im[: degree + 1])
        g, sizes = sizes_of(lambda u: np.polynomial.polynomial.polyval(u, c))
        got, _ = gauss_kronrod(g, np.inf, 0.0)
        k = np.arange(degree + 1)
        want = np.sum(c / (k + 1))
        assert sizes == [21]
        assert abs(got - want) <= 1e-14 * np.sum(np.abs(c) / (k + 1))

    def test_tables_are_qk21s(self):
        # The Kronrod weights make the rule exact on the Legendre polynomials
        # to degree 20; the Gauss nodes and weights are leggauss(10)'s, and
        # the Kronrod-only nodes carry no Gauss weight.
        legendre = np.polynomial.legendre
        solved = np.linalg.solve(legendre.legvander(bw._GK_X, 20).T, np.eye(21)[0] * 2.0)
        nodes, weights = legendre.leggauss(10)
        np.testing.assert_allclose(bw._GK_W, solved, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(bw._GK_X[1::2], nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(bw._GAUSS_W[1::2], weights, rtol=0.0, atol=1e-15)
        assert not bw._GAUSS_W[::2].any()

    def test_degree_32_is_not_exact(self):
        # The exactness above is the rule's own: u^32 is off by ~1e-12.
        got, _ = gauss_kronrod(lambda u: (2.0 * u - 1.0) ** 32, np.inf, 0.0)
        assert abs(got - 1.0 / 66.0) > 1e-13

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(0.0, 3.0),
        rate=st.floats(0.0, 20.0),
        freq=st.floats(0.0, 60.0),
        centre=st.floats(0.01, 0.99),
        width=st.floats(1e-3, 1.0),
        is_complex=st.booleans(),
    )
    def test_matches_quad(self, alpha, rate, freq, centre, width, is_complex):
        # u^alpha e^(-rate u) e^(i freq u) / ((u - centre)^2 + width^2): an
        # endpoint singularity of a derivative, decay, oscillation and a
        # peak; quad integrates the real and imaginary parts apart, told
        # where the peak is (unaided, it can miss a narrow one).
        def g(u):
            wave = np.exp(1j * freq * u) if is_complex else np.cos(freq * u)
            return u**alpha * np.exp(-rate * u) * wave / ((u - centre) ** 2 + width**2)

        # |g| <= 1/width^2: both tolerances scale with it, quad's 10x finer.
        tol = 1e-11 / width**2
        got, err = gauss_kronrod(g, tol, 0.0)
        parts = [np.real, np.imag] if is_complex else [np.real]
        want = sum(
            unit * integrate.quad(lambda u: part(g(u)), 0.0, 1.0, epsabs=tol / 10, epsrel=0.0,
                                  limit=400, points=[centre])[0]
            for part, unit in zip(parts, [1.0, 1j])
        )
        assert err <= tol
        assert np.iscomplexobj(got) == is_complex
        assert abs(got - want) <= 1.1 * len(parts) * tol

    def test_returns_at_the_interval_limit(self):
        # 1/u is not integrable: every split halves the interval at 0 and
        # leaves its error, so the rule stops short of 400 intervals and
        # returns an error above the tolerance for the caller to refuse.
        g, sizes = sizes_of(lambda u: 1.0 / u)
        value, err = gauss_kronrod(g, 1e-10, 0.0)
        intervals = 1 + sum(sizes[1:]) // 42
        assert 300 < intervals <= 400
        assert np.isfinite(value) and err > 1e-10

    def test_returns_a_non_finite_sum_at_once(self):
        g, sizes = sizes_of(lambda u: np.where(u < 0.1, np.inf, 1.0))
        value, err = gauss_kronrod(g, 1e-10, 0.0)
        assert sizes == [21]
        assert value == np.inf and not np.isfinite(err)

