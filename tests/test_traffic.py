"""Unit tests for traffic generation, trace ingestion and the rate estimator.

Statistical checks run at 3 sigma against the law-of-large-numbers bound for
the generated gap means, so they are deterministic for the pinned seeds and
would only flip if the generators changed.
"""

from __future__ import annotations

import functools
import math
import operator
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drx_reference import lambda_hat_series
from drxsim.engine import _lambda_hat_series
from drxsim.traffic import (
    ArrivalStream,
    ParetoTraffic,
    PoissonTraffic,
    ScheduleTraffic,
    TraceFormatError,
    TraceTraffic,
    check_arrivals,
    load_trace,
)


def serialize_trace(stream: ArrivalStream) -> str:
    """Inverse of ``load_trace`` for valid streams (timestamps only).

    Positional, never ``repr``'s exponent form (``1e-05``), which a trace
    may not use; the shortest digits still round-trip.
    """
    return "".join(np.format_float_positional(t, trim="-") + "\n"
                   for t in stream.arrivals.tolist())


def _gaps(stream: ArrivalStream) -> np.ndarray:
    return np.diff(np.concatenate(([0.0], np.asarray(stream.arrivals))))


def _in_order_sum(values) -> float:
    # ``0.0 + v[0] + v[1] + ...``, never the compensated builtin ``sum``.
    return functools.reduce(operator.add, values, 0.0)


def _schedule_oracle(segments, rng: np.random.Generator) -> list[float]:
    # A schedule's arrivals drawn one gap at a time: each segment draws
    # until a running sum from its start crosses its end.
    out: list[float] = []
    t0 = 0.0
    for dur, rate in segments:
        end = t0 + dur
        t = t0
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= end:
                break
            out.append(t)
        t0 = end
    return out


class TestPoisson:
    def test_mean_gap_within_3_sigma_low_rate(self):
        s = PoissonTraffic(0.1).arrivals(100000.0, seed=7)
        gaps = _gaps(s)
        # exponential: mean 10, var 100
        bound = 3.0 * 10.0 / math.sqrt(len(gaps))
        assert abs(float(gaps.mean()) - 10.0) < bound

    def test_mean_gap_within_3_sigma_high_rate(self):
        s = PoissonTraffic(0.9).arrivals(100000.0, seed=7)
        gaps = _gaps(s)
        mean = 1.0 / 0.9
        bound = 3.0 * mean / math.sqrt(len(gaps))
        assert abs(float(gaps.mean()) - mean) < bound

    def test_seeded_determinism(self):
        p = PoissonTraffic(0.3)
        assert p.arrivals(50000.0, 42) == p.arrivals(50000.0, 42)
        assert p.arrivals(50000.0, 42) != p.arrivals(50000.0, 43)

    def test_all_within_horizon(self):
        s = PoissonTraffic(0.5).arrivals(20000.0, 3)
        assert s.arrivals[-1] <= 20000.0

    @pytest.mark.parametrize("rate,horizon", [(0, 1000), (-1, 1000), (1, 0),
                                              (1, math.inf)])
    def test_argument_errors(self, rate, horizon):
        with pytest.raises(ValueError):
            PoissonTraffic(rate).arrivals(horizon, 1)


class TestPareto:
    def test_minimum_gap_is_scale(self):
        # inverse transform: every gap >= x_m = (shape-1)/(shape*rate)
        s = ParetoTraffic(0.2, 1.5).arrivals(100000.0, seed=5)
        x_m = 0.5 / (1.5 * 0.2)
        assert x_m == pytest.approx(5.0 / 3.0)
        assert float(_gaps(s).min()) >= x_m

    def test_mean_gap_matches_rate(self):
        # heavy tail converges slowly; 10% on a 100 s stream
        s = ParetoTraffic(0.2, 1.5).arrivals(100000.0, seed=5)
        assert float(_gaps(s).mean()) == pytest.approx(5.0, rel=0.10)

    def test_infinite_mean_rejected(self):
        with pytest.raises(ValueError):
            ParetoTraffic(0.2, 1.0).arrivals(1000.0, 1)
        with pytest.raises(ValueError):
            ParetoTraffic(0.2, 0.8).arrivals(1000.0, 1)

    def test_seeded_determinism(self):
        p = ParetoTraffic(0.4, 1.5)
        assert p.arrivals(30000.0, 9) == p.arrivals(30000.0, 9)


class TestSchedule:
    def test_segment_rates(self):
        sched = ScheduleTraffic(((50000.0, 0.1), (50000.0, 0.4)))
        s = sched.arrivals(_in_order_sum(d for d, _ in sched.segments),
                           seed=11)
        arr = np.asarray(s.arrivals)
        n1 = int((arr < 50000.0).sum())
        n2 = len(arr) - n1
        assert abs(n1 - 5000) < 3.0 * math.sqrt(5000)
        assert abs(n2 - 20000) < 3.0 * math.sqrt(20000)

    def test_matches_one_draw_oracle(self):
        # Block draws must give the one-at-a-time arrivals.  Short
        # segments at low rates draw no arrival at all.
        picker = np.random.default_rng(2024)
        empty = 0
        for seed in range(300):
            segs = [(float(picker.choice([0.3, 4.0, 100.0, 5000.0])),
                     float(picker.choice([0.002, 0.05, 0.4, 3.0])))
                    for _ in range(int(picker.integers(1, 6)))]
            want = _schedule_oracle(segs, np.random.default_rng(seed))
            sched = ScheduleTraffic(tuple(segs))
            got = sched.arrivals(_in_order_sum(d for d, _ in segs), seed)
            assert got.arrivals.tolist() == want, (seed, segs)
            edges = np.cumsum([0.0] + [d for d, _ in segs])
            empty += int((np.diff(np.searchsorted(want, edges)) == 0).sum())
        assert empty > 100

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(segments=st.lists(st.tuples(
               st.floats(0.0, 1e12, exclude_min=True),
               st.floats(0.0, 1e3, exclude_min=True)), min_size=1, max_size=8),
           horizon=st.floats(0.0, 1e13, exclude_min=True))
    def test_report_windows_tile_the_run(self, segments, horizon):
        # The windows cover [0, H) without gap or overlap, in segment
        # order, where H is the horizon or the schedule's end, whichever
        # comes first; a segment that adds no time gets no window.
        _, _, windows = ScheduleTraffic(tuple(segments)).report(horizon)
        end = _in_order_sum(d for d, _ in segments)
        assert windows[0][0] == 0.0
        assert windows[-1][1] == min(horizon, end)
        want, start = [], 0.0
        for dur, rate in segments:
            stop = min(start + dur, horizon)
            if start < stop:
                want.append((start, stop, rate))
            start += dur
        assert windows == want
        for (_, e, _), (s, _, _) in zip(windows, windows[1:]):
            assert e == s

    def test_bad_segments(self):
        with pytest.raises(ValueError):
            ScheduleTraffic(((0.0, 0.1),)).arrivals(100.0, 1)
        with pytest.raises(ValueError):
            ScheduleTraffic(((100.0, -0.1),)).arrivals(100.0, 1)


class TestRenewalStreams:
    """Poisson, Pareto and schedule streams share one in-order drawer."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(pareto=st.booleans(), rate=st.floats(0.01, 3.0),
           horizon=st.floats(1.0, 5000.0), seed=st.integers(0, 2**32 - 1))
    @example(pareto=False, rate=0.9, horizon=200.0, seed=22)
    @example(pareto=True, rate=0.3, horizon=2000.0, seed=1)
    def test_longer_horizon_keeps_the_prefix(self, pareto, rate, horizon,
                                             seed):
        # Drawn to 4H and cut at H, a stream is the stream drawn to H.
        kind = ParetoTraffic(rate, 1.5) if pareto else PoissonTraffic(rate)
        long = kind.arrivals(4.0 * horizon, seed).arrivals
        want = kind.arrivals(horizon, seed).arrivals
        assert long[long < horizon].tolist() == want.tolist()

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(rate=st.floats(0.01, 3.0), horizon=st.floats(1.0, 10000.0),
           seed=st.integers(0, 2**32 - 1))
    @example(rate=0.5, horizon=1000.0, seed=2)
    @example(rate=2.0, horizon=100.0, seed=22)
    def test_poisson_is_a_one_segment_schedule(self, rate, horizon, seed):
        got = PoissonTraffic(rate).arrivals(horizon, seed).arrivals
        want = ScheduleTraffic(((horizon, rate),)).arrivals(horizon, seed)
        assert got.tobytes() == want.arrivals.tobytes()


class TestTrafficKinds:
    """Each kind checks its numbers once, when it is built."""

    @pytest.mark.parametrize("kind, args, message", [
        (PoissonTraffic, (0.0,), "rate must be finite and > 0"),
        (PoissonTraffic, (-1.0,), "rate must be finite and > 0"),
        (PoissonTraffic, (math.inf,), "rate must be finite and > 0"),
        (ParetoTraffic, (-0.1, 1.5), "rate must be finite and > 0"),
        (ParetoTraffic, (0.1, 0.5), "shape must be finite and > 1"),
        (ParetoTraffic, (0.1, 1.0), "shape must be finite and > 1"),
        (ParetoTraffic, (0.1, math.inf), "shape must be finite and > 1"),
        (ScheduleTraffic, (((0.0, 0.1),),),
         "segment duration must be finite and > 0"),
        (ScheduleTraffic, (((math.nan, 0.1),),),
         "segment duration must be finite and > 0"),
        (ScheduleTraffic, (((1000.0, -0.1),),),
         "segment rate must be finite and > 0"),
    ], ids=["poisson_zero", "poisson_negative", "poisson_inf", "pareto_rate",
            "pareto_shape_below_one", "pareto_shape_one", "pareto_shape_inf",
            "schedule_zero_duration", "schedule_nan_duration",
            "schedule_negative_rate"])
    def test_constructor_rejects(self, kind, args, message):
        with pytest.raises(ValueError, match=message):
            kind(*args)

    def test_trace_report_counts_arrivals_before_horizon(self, tmp_path):
        # The run drops arrivals at or after its horizon, so 2.5 is out.
        path = tmp_path / "t.trace"
        path.write_text("1.0\n2.0\n2.5\n3.0\n")
        assert TraceTraffic(str(path)).report(2.5) == ("trace:t.trace",
                                                       2 / 2.5, [])

    def test_trace_reads_its_file(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("1.0\n2.5,60\n")
        stream = TraceTraffic(str(path)).arrivals(100.0, 1)
        assert stream == load_trace("1.0\n2.5\n")

    def test_trace_parsed_once_per_file_version(self, tmp_path):
        # Runs share one stream until the file's size or mtime changes.
        path = tmp_path / "t.trace"
        path.write_text("1.0\n2.0\n")
        trace = TraceTraffic(str(path))
        first = trace.arrivals(100.0, 1)
        assert trace.arrivals(50.0, 2) is first
        st = path.stat()

        def rewrite(text, mtime_ns):
            path.write_text(text)
            os.utime(path, ns=(st.st_atime_ns, mtime_ns))
            return trace.arrivals(100.0, 1).arrivals.tolist()

        later = st.st_mtime_ns + 10**9
        assert rewrite("1.5\n2.0\n", later) == [1.5, 2.0]  # same size
        assert rewrite("1.5\n2.0\n3.0\n", later) == [1.5, 2.0, 3.0]
        # Errors are not cached: a malformed or deleted file fails each time.
        path.write_text("2.0\n1.0\n")
        for _ in range(2):
            with pytest.raises(TraceFormatError, match="line 2"):
                trace.arrivals(100.0, 1)
        path.unlink()
        for _ in range(2):
            with pytest.raises(FileNotFoundError,
                               match="trace file not found: "):
                trace.arrivals(100.0, 1)


class TestTrace:
    def test_basic_parse(self):
        s = load_trace("0.0\n3.2\n10.5\n")
        assert s.arrivals.tolist() == [0.0, 3.2, 10.5]

    def test_order_violation(self):
        with pytest.raises(TraceFormatError) as err:
            load_trace("5.0\n2.0\n")
        assert err.value.line == 2

    def test_empty_input(self):
        s = load_trace("")
        assert s.arrivals.tolist() == []

    def test_comments_and_sizes(self):
        s = load_trace("# header\n1.5,1400\n\n2.5,60\n")
        assert s.arrivals.tolist() == [1.5, 2.5]

    def test_bad_timestamp_names_line(self):
        with pytest.raises(TraceFormatError) as err:
            load_trace("1.0\noops\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("size", ["big", "-5", "1_000", "+7", ""])
    def test_bad_size_field(self, size):
        # Only ASCII digits, although int() takes "-5", "1_000" and "+7".
        with pytest.raises(TraceFormatError, match="line 2"):
            load_trace(f"0.5,60\n1.0,{size}\n")

    # A timestamp is ASCII digits with at most one ".", although float()
    # also takes underscores, non-ASCII digits, signs, spaces around the
    # number, exponents and "inf"; a sign fails here, before the range check.
    @pytest.mark.parametrize("ts", [
        "1_0.5", "\u0661.5", "1\uff15", "\u00b2", "+1.5", "-1.5", "-0",
        "1 5", "1.5 ", "1.5e0", "1E3", "inf", "nan", "0x10", "1.2.3", ".",
        ""])
    def test_bad_timestamp_rejected(self, ts):
        with pytest.raises(TraceFormatError) as err:
            load_trace(f"0.5\n{ts},60\n")
        assert str(err.value) == f"line 2: bad timestamp {ts!r}"

    @pytest.mark.parametrize("ts, want", [("7", 7.0), ("7.", 7.0),
                                          (".5", 0.5), ("0012.50", 12.5)])
    def test_decimal_timestamp_forms(self, ts, want):
        assert load_trace(f"{ts}\n").arrivals.tolist() == [want]

    def test_too_many_fields(self):
        with pytest.raises(TraceFormatError):
            load_trace("1.0,2,3\n")

    def test_file_read_as_utf8_text(self, tmp_path):
        # A trace file is UTF-8 whatever the locale; CRLF ends lines too.
        path = tmp_path / "t.trace"
        path.write_bytes("# caf\u00e9\r\n1.0\r\n2.0\r\n".encode("utf-8"))
        with pytest.raises(TraceFormatError, match="line 3"):
            load_trace("# caf\u00e9\n1.0\nx\n")
        assert TraceTraffic(str(path)).arrivals(100.0, 1) == load_trace(
            "1.0\n2.0\n")

    def test_roundtrip_identity(self):
        # ``repr`` round-trips every float, so the identity is exact.
        for s in (PoissonTraffic(0.2).arrivals(5000.0, 13),
                  ParetoTraffic(0.2, 1.5).arrivals(5000.0, 13)):
            assert load_trace(serialize_trace(s)) == s


# Gaps for estimator streams: ties, ordinary gaps, and gaps past 745 * k,
# where exp(-gap / k) underflows to 0.0; drawn as multiples of k.
_EMA_GAPS = st.one_of(st.just(0.0), st.floats(1e-6, 50.0),
                      st.floats(746.0, 2000.0))


class TestRateEstimator:
    """The EMA estimate the adaptive controller reads (``engine``), carried
    over ``A[lo:hi]`` from ``A[lo - 1]``.

    After the first positive gap sets it to ``1/gap``, each gap updates
    ``lambda_hat' = (1 - e^(-gap/k)) / gap + e^(-gap/k) * lambda_hat``.
    """

    def test_first_gap_sets_inverse_gap(self):
        assert _lambda_hat_series([3.0, 7.0], 1, 2, 0.0, 2048.0) == 0.25
        assert _lambda_hat_series([3.0, 3.0, 7.0], 1, 2, 0.0, 2048.0) == 0.0
        assert _lambda_hat_series([3.0, 3.0, 7.0], 1, 3, 0.0, 2048.0) == 0.25
        assert _lambda_hat_series([3.0, 3.0, 7.0], 2, 3, 0.0, 2048.0) == 0.25
        assert _lambda_hat_series([3.0], 1, 1, 0.0, 2048.0) == 0.0

    def test_fixed_point(self):
        A = [0.0, 10.0, 20.0, 30.0]
        est = _lambda_hat_series(A, 1, 3, 0.0, 2048.0)
        assert est == pytest.approx(0.1, rel=1e-12)
        assert _lambda_hat_series(A, 3, 4, est, 2048.0) == pytest.approx(
            0.1, rel=1e-12)

    def test_huge_gap_forgets_history(self):
        A = [0.0, 0.2, 0.2 + 1e7]
        est = _lambda_hat_series(A, 1, 2, 0.0, 100.0)
        assert est == pytest.approx(5.0)
        assert _lambda_hat_series(A, 2, 3, est, 100.0) == pytest.approx(
            1e-7, rel=1e-6)

    def test_convex_combination_property(self):
        # Each update lands between the previous estimate and 1/gap.
        rng = np.random.default_rng(99)
        for _ in range(500):
            first = float(rng.uniform(0.5, 1e4))
            gap = float(rng.uniform(1e-3, 1e4))
            k = float(rng.uniform(1.0, 1e4))
            A = [0.0, first, first + gap]
            prev = _lambda_hat_series(A, 1, 2, 0.0, k)
            out = _lambda_hat_series(A, 2, 3, prev, k)
            lo, hi = min(prev, 1.0 / gap), max(prev, 1.0 / gap)
            assert lo - 1e-15 <= out <= hi + 1e-15

    def test_zero_gap_leaves_estimate_unchanged(self):
        # Tied timestamps, as traces can contain, carry no rate information.
        A = [0.0, 10.0, 10.0, 10.0]
        est = _lambda_hat_series(A, 1, 2, 0.0, 2048.0)
        assert est == 0.1
        assert _lambda_hat_series(A, 2, 4, est, 2048.0) == est
        assert _lambda_hat_series([5.0, 5.0], 1, 2, 0.3, 2048.0) == 0.3

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(lead=st.integers(0, 3),
           gaps=st.lists(_EMA_GAPS, max_size=40),
           k=st.floats(1.0, 4096.0), cuts=st.lists(st.integers(1, 45)))
    @example(lead=0, gaps=[], k=256.0, cuts=[])
    @example(lead=0, gaps=[3.0], k=256.0, cuts=[1])
    @example(lead=2, gaps=[0.0, 1000.0, 0.5], k=1.0, cuts=[1, 2, 3, 4, 5])
    def test_carried_estimate_matches_the_series(self, lead, gaps, k, cuts):
        # Carried over any cut points, the estimate at each cut is the
        # reference series' entry there, bit for bit.
        A = [0.0] * (lead + 1)
        for g in gaps:
            A.append(A[-1] + g * k)
        n = len(A)
        series = lambda_hat_series(A, k)
        est, at = 0.0, 1
        for cut in sorted({min(c, n) for c in cuts} | {n}):
            est = _lambda_hat_series(A, at, cut, est, k)
            at = cut
            assert est.hex() == series[cut - 1].hex(), (cut, A)


def _stream_error(a: np.ndarray) -> str | None:
    # The message check_arrivals must raise for ``a``, or None if the
    # stream is good: one-dimensional, every instant finite, and none below
    # the one before it (the first one below 0.0; -0.0 is not).
    if a.ndim != 1:
        return f"arrivals must be one-dimensional, got shape {a.shape}"
    values = a.tolist()
    for i, x in enumerate(values):
        if not math.isfinite(x):
            return f"arrival at index {i} is not finite: {a[i]}"
    for i, x in enumerate(values):
        prev = a[i - 1] if i else 0.0
        if x < prev:
            return f"arrivals not sorted at index {i}: {a[i]} < {prev}"
    return None


@st.composite
def checked_arrays(draw):
    # Sorted streams with ties, then at random positions: a NaN or an
    # infinity, a leading -0.0, a descent; sometimes empty or made 2-D.
    values = sorted(draw(st.lists(st.one_of(
        st.floats(0.0, 1e6), st.sampled_from([0.0, 1.0, 2.5])), max_size=12)))
    if values and draw(st.booleans()):
        values[0] = -0.0
    for special in draw(st.lists(st.sampled_from(
            [math.nan, math.inf, -math.inf, -1.0, -0.0, 5e-324]), max_size=2)):
        values.insert(draw(st.integers(0, len(values))), special)
    if len(values) > 1 and draw(st.booleans()):
        i = draw(st.integers(1, len(values) - 1))
        values[i - 1], values[i] = values[i], values[i - 1]
    a = np.array(values, dtype=np.float64)
    if draw(st.integers(0, 5)) == 0:
        a = a.reshape(draw(st.sampled_from([(1, -1), (-1, 1), (1, 1, -1)])))
    return a


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(a=checked_arrays())
@example(a=np.array([-0.0, 0.0, 0.0]))
@example(a=np.array([0.0, math.inf]))
@example(a=np.array([math.nan]))
@example(a=np.array([1.0, -math.inf, 2.0]))
@example(a=np.empty(0))
@example(a=np.empty((0, 2)))
@example(a=np.zeros((2, 2)))
def test_check_arrivals_matches_reference(a):
    want = _stream_error(a)
    if want is None:
        check_arrivals(a)
    else:
        with pytest.raises(ValueError) as err:
            check_arrivals(a)
        assert str(err.value) == want


class TestArrivalStream:
    def test_sorted_enforced(self):
        with pytest.raises(ValueError):
            ArrivalStream((2.0, 1.0))
        with pytest.raises(ValueError, match="index 2: 1.5 < 2.0"):
            ArrivalStream((1.0, 2.0, 1.5))
        with pytest.raises(ValueError, match="index 0"):
            ArrivalStream((-1.0, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="index 1 is not finite"):
            ArrivalStream((1.0, bad, 2.0))

    def test_read_only_float_array(self):
        s = ArrivalStream([1, 2.5])
        assert s.arrivals.dtype == np.float64 and s.arrivals.tolist() == [1.0, 2.5]
        with pytest.raises(ValueError):
            s.arrivals[0] = 0.0

    def test_equality(self):
        assert ArrivalStream((1.0, 2.0)) == ArrivalStream([1.0, 2.0])
        assert ArrivalStream((1.0, 2.0)) != ArrivalStream((1.0, 3.0))
        assert ArrivalStream(()) != ArrivalStream((1.0,))
