"""Unit tests for the simulation engine.

Structural properties (conservation, FIFO order, causality against the DRX
schedule, work conservation, determinism) are asserted on full run results.
``TestDrxTiming`` pins the arithmetic DRX timing on hand-scripted arrivals
with window times worked out by hand.  The randomized cross-check against
the event-by-event state machine of ``tests/drx_reference.py`` is
``tests/test_differential.py``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from drx_reference import lindley_cycle_means

from drxsim import controller as ctrl
from drxsim import engine, traffic
from drxsim.cli import parse_spec, run_experiment
from drxsim.drx import DrxConfig, Policy, PolicyKind
from drxsim.engine import (
    Metrics,
    Scenario,
    confidence_interval,
    run,
    run_detailed,
    simulate,
    slice_stats,
)
from drxsim.traffic import (
    ParetoTraffic,
    PoissonTraffic,
    ScheduleTraffic,
    TraceTraffic,
)

CFG = DrxConfig(t_in=10, t_on=2, t_short=32, t_long=32)
H = 20000.0


def _scenario(policy, rate=0.3, horizon=H, cfg=CFG):
    return Scenario(cfg, policy, PoissonTraffic(rate), horizon)


def _result(policy, rate=0.3, seed=1, horizon=H, cfg=CFG):
    return run_detailed(_scenario(policy, rate, horizon, cfg), seed)


def _fields(r):
    # Every field of a RunResult, the per-packet arrays as float lists.
    return (r.metrics, r.cfg, r.horizon, r.initial_threshold, r.boundaries,
            r.thresholds, r.arrivals.tolist(), r.tx_starts.tolist(),
            r.stretch_ends)


def _bits(values):
    # Floats as their exact hex forms, so NaN equals NaN and -0.0 is not 0.0.
    return [v.hex() if isinstance(v, float) else v for v in values]


class TestStructuralInvariants:
    @pytest.mark.parametrize("policy", [
        Policy.standard(), Policy.fixed(8), Policy.adaptive(64, 128),
    ])
    def test_conservation(self, policy):
        r = _result(policy)
        m = r.metrics
        assert m.packets_served == len(r.tx_starts)
        # Every arrival before the horizon is counted; the served ones are
        # its first packets_served, and the rest stay queued.
        stream = engine.make_arrivals(PoissonTraffic(0.3), H, 1).arrivals
        assert m.arrivals == np.searchsorted(stream, H)
        assert m.packets_served <= m.arrivals
        assert np.array_equal(r.arrivals, stream[:m.packets_served])
        over = run(_scenario(policy, rate=1.2, horizon=5000.0), 1)
        assert over.packets_served < over.arrivals

    @pytest.mark.parametrize("policy", [Policy.standard(), Policy.fixed(8)])
    def test_fifo_order(self, policy):
        r = _result(policy)
        starts = list(r.tx_starts)
        assert starts == sorted(starts)

    def test_no_transmission_while_sleeping(self):
        # The UE sleeps only inside DRX stretches, and a stretch ends at
        # its release: no start falls in [boundary, stretch end).
        r = _result(Policy.fixed(8), rate=0.2)
        assert r.boundaries
        for tx in r.tx_starts:
            k = bisect_right(r.boundaries, tx) - 1
            if k >= 0:
                assert tx >= r.stretch_ends[k]

    def test_work_conservation_while_active(self):
        # A packet already queued when the server frees starts immediately.
        r = _result(Policy.fixed(8), rate=0.6)
        psf = 1.0
        for prev_tx, arrival, tx in zip(r.tx_starts, r.arrivals[1:],
                                        r.tx_starts[1:]):
            if arrival <= prev_tx + psf:
                assert tx == prev_tx + psf

    def test_release_respects_threshold(self):
        r = _result(Policy.fixed(8), rate=0.3)
        arrivals = list(r.arrivals) + [math.inf]
        by_cycle: dict[int, float] = {}
        for tx in r.tx_starts:
            by_cycle.setdefault(bisect_left(r.boundaries, tx), tx)
        for cyc, first_tx in by_cycle.items():
            if cyc == 0:
                continue  # before the first DRX stretch there is no threshold
            boundary = r.boundaries[cyc - 1]
            backlog = sum(1 for a in arrivals
                          if boundary < a <= first_tx)
            assert backlog >= math.ceil(r.thresholds[cyc - 1])

    def test_records_and_sleep_within_horizon(self):
        r = _result(Policy.fixed(32), rate=0.1, horizon=5000.0)
        for arrival, tx in zip(r.arrivals, r.tx_starts):
            assert 0.0 <= arrival <= tx < 5000.0
        for lo, hi in zip(r.boundaries, r.stretch_ends):
            assert 0.0 <= lo < hi <= 5000.0
        # Each stretch sleeps all but at most one on-duration per cycle
        # begun (32 ms cycles, 2 ms on-durations).
        span = sum(hi - lo for lo, hi in zip(r.boundaries, r.stretch_ends))
        sleep = r.metrics.sleep_fraction * 5000.0
        assert span * 30.0 / 32.0 - 2.0 * len(r.boundaries) <= sleep <= span

    def test_sleep_fraction_bounds(self):
        m = run(_scenario(Policy.fixed(128), rate=0.1), 3)
        assert 0.0 <= m.sleep_fraction <= 1.0


class TestDeterminism:
    def test_bit_identical_metrics(self):
        sc = _scenario(Policy.adaptive(64, 128), rate=0.4)
        assert run(sc, 7) == run(sc, 7)

    def test_bit_identical_records(self):
        sc = _scenario(Policy.fixed(8), rate=0.4)
        assert run_detailed(sc, 7) == run_detailed(sc, 7)

    def test_records_compare_every_field(self):
        r = _result(Policy.fixed(8), rate=0.4)
        other_cfg = DrxConfig(t_in=10, t_on=2, t_short=32, t_long=64)
        for changed in (dict(cfg=other_cfg), dict(initial_threshold=9.0),
                        dict(horizon=H - 1.0), dict(tx_starts=r.tx_starts + 1)):
            assert dataclasses.replace(r, **changed) != r

    def test_seeds_differ(self):
        sc = _scenario(Policy.fixed(8), rate=0.4)
        assert run(sc, 7) != run(sc, 8)


class TestDeferredOutput:
    """Per-packet output is read-only arrays; ``run`` is its metrics."""

    def test_per_packet_fields_are_read_only_arrays(self):
        given = np.array([5.0, 6.0, 6.0, 300.0, 2000.0])
        for r in (_result(Policy.fixed(8), rate=0.9),
                  simulate(given, CFG, Policy.fixed(2), 1000.0),
                  simulate([], CFG, Policy.standard(), 1000.0)):
            assert len(r.arrivals) == len(r.tx_starts) == r.metrics.packets_served
            for arr in (r.arrivals, r.tx_starts):
                assert isinstance(arr, np.ndarray)
                assert arr.dtype == np.float64 and arr.ndim == 1
                assert not arr.flags.writeable
        # The caller's array is copied, not frozen or aliased.
        r = simulate(given, CFG, Policy.fixed(2), 1000.0)
        given[0] = 1.0
        assert r.arrivals.tolist() == [5.0, 6.0, 6.0]

    @pytest.mark.parametrize("policy", [
        Policy.standard(), Policy.fixed(8), Policy.adaptive(64, 128),
    ])
    @pytest.mark.parametrize("traffic", [
        PoissonTraffic(0.9), ParetoTraffic(0.3, 1.5),
        ScheduleTraffic(((5000.0, 0.1), (5000.0, 0.6))),
    ])
    def test_run_is_run_detailed_metrics(self, policy, traffic):
        sc = Scenario(CFG, policy, traffic, 10000.0)
        assert run(sc, 3) == run_detailed(sc, 3).metrics


class TestDegenerateThreshold:
    @pytest.mark.parametrize("traffic", [
        PoissonTraffic(0.3), ParetoTraffic(0.3, 1.5),
    ])
    def test_fixed_one_equals_standard(self, traffic):
        a = run_detailed(Scenario(CFG, Policy.fixed(1), traffic, H), 5)
        b = run_detailed(Scenario(CFG, Policy.standard(), traffic, H), 5)
        assert _fields(a) == _fields(b)


class TestDrxTiming:
    """Scripted arrivals against window times worked out by hand."""

    def test_release_waits_for_window(self):
        # Idle from 0: DRX enables at t_in = 10. Cycle sleeps 30 then listens
        # on [40, 42). An arrival at 15 (threshold 1) transmits at 40.
        r = simulate([15.0], CFG, Policy.standard(), 200.0)
        assert r.boundaries[0] == 10.0
        assert r.tx_starts[0] == 40.0

    def test_release_immediate_during_window(self):
        r = simulate([41.0], CFG, Policy.standard(), 200.0)
        assert r.tx_starts[0] == 41.0

    def test_threshold_filled_while_listening(self):
        # Threshold 2: first arrival at 15 sleeps through; second at 41.5
        # lands inside the window and releases instantly.
        r = simulate([15.0, 41.5], CFG, Policy.fixed(2), 200.0)
        assert r.tx_starts.tolist() == [41.5, 42.5]

    def test_two_phase_window_chain(self):
        # n_short = 3 then long cycles: windows at 40, 72, 104, 168 relative
        # to t = 0 (enable at 10).
        cfg = DrxConfig(t_in=10, t_on=2, t_short=32, t_long=64, n_short=3)
        for arrival, expected in [(11.0, 40.0), (45.0, 72.0), (100.0, 104.0),
                                  (110.0, 168.0)]:
            r = simulate([arrival], cfg, Policy.standard(), 400.0)
            assert r.tx_starts[0] == expected, arrival

    def test_countdown_arrival_served_immediately(self):
        # Arrival during the countdown (before 10) is served at once, for
        # coalescing policies too.
        r = simulate([4.0], CFG, Policy.fixed(8), 200.0)
        assert r.tx_starts[0] == 4.0

    def test_inactivity_measured_from_tx_end(self):
        # Service ends at 5; countdown runs to 15; a second arrival at 14.9
        # is still served immediately, one at 15.1 waits for a DRX window.
        r = simulate([4.0, 14.9], CFG, Policy.fixed(8), 200.0)
        assert r.tx_starts[1] == 14.9
        r2 = simulate([4.0, 15.1], CFG, Policy.fixed(1), 200.0)
        assert r2.boundaries[0] == 15.0
        assert r2.tx_starts[1] == 45.0  # window opens 30 ms after 15

    def test_cycle_index_assignment(self):
        r = simulate([4.0, 20.0], CFG, Policy.fixed(1), 200.0)
        cycles = [bisect_left(r.boundaries, tx) for tx in r.tx_starts]
        assert cycles == [0, 1]  # the first packet precedes any DRX stretch


class TestMetricsFields:
    def test_mean_q_w_fixed(self):
        m = run(_scenario(Policy.fixed(8), rate=0.2), 1)
        assert m.mean_q_w == 8.0

    def test_mean_q_w_adaptive_within_clamp(self):
        m = run(_scenario(Policy.adaptive(64, 128), rate=0.4), 1)
        assert 1.0 <= m.mean_q_w <= 128.0
        assert any(w is not None for w, _ in m.per_cycle)

    def test_per_cycle_thresholds_match(self):
        # per_cycle[k] is cycle k's window [b[k-1], b[k]) (b[-1] = 0): the
        # delay the controller read there and the threshold in effect, the
        # post-update value at the previous boundary.  An adaptive run's
        # delay is that window's slice_stats mean, bit for bit (None where
        # the window is empty or serves nothing).  Standard and fixed runs
        # read none, so their entries are (None, q); their windows'
        # slice_stats means equal the reference's per-cycle means instead.
        # With t_in 0 the first boundary is at 0, an empty first window; at
        # 0.05 the first arrival comes after t_in 10, an unserved one.
        short = DrxConfig(t_in=0, t_on=2, t_short=8, t_long=32, n_short=3)
        windows = {"empty": 0, "unserved": 0}
        for cfg, psf, policy, rate in itertools.product(
                (CFG, short), (1.0, 0.7),
                (Policy.standard(), Policy.fixed(2.5),
                 Policy.adaptive(64, 128)), (0.05, 0.4)):
            stream = PoissonTraffic(rate).arrivals(10000.0, 1)
            r = simulate(stream, cfg, policy, 10000.0, psf)
            b = r.boundaries
            assert len(r.metrics.per_cycle) == len(b) > 10
            adaptive = policy.kind is PolicyKind.ADAPTIVE_COALESCING
            if adaptive:
                means = [w for w, _ in r.metrics.per_cycle]
            else:
                assert r.metrics.per_cycle == ((None, policy.q_w),) * len(b)
                means = lindley_cycle_means(stream.arrivals, cfg, policy,
                                            10000.0, psf)
            assert len(means) == len(b)
            for k, ((_, q), w) in enumerate(zip(r.metrics.per_cycle, means)):
                start = b[k - 1] if k else 0.0
                if start == b[k]:
                    windows["empty"] += 1
                    delay = math.nan
                else:
                    delay = slice_stats(r, start, b[k])[0]
                    windows["unserved"] += math.isnan(delay)
                assert w == (None if math.isnan(delay) else delay)
                assert q == ((r.initial_threshold,) + r.thresholds)[k]
        assert windows["empty"] and windows["unserved"]

    def test_static_runs_record_no_cycle_delay(self):
        # Only the adaptive controller reads a cycle's delay; standard and
        # fixed runs keep one (None, q) entry per cycle, and their constant
        # thresholds.  At rate 0.5 the no-DRX schedule serves long stretches;
        # at 0.1 the scalar loop serves nearly all of them.
        for policy, rate in itertools.product(
                (Policy.standard(), Policy.fixed(3), Policy.fixed(300)),
                (0.1, 0.5)):
            r = _result(policy, rate=rate)
            q = policy.q_w
            assert len(r.boundaries) > 5
            assert r.metrics.per_cycle == ((None, q),) * len(r.boundaries)
            assert r.thresholds == (q,) * len(r.boundaries)
        # DRX is enabled at 15, 56 and 97; the packets at 20 and 60 wait
        # for the windows at 45 and 86.  An adaptive run that keeps
        # threshold 1 reads those delays; a fixed one records none.
        arrivals = [4.0, 20.0, 60.0]
        r = simulate(arrivals, CFG, Policy.fixed(1), 200.0)
        assert r.boundaries == (15.0, 56.0, 97.0)
        assert r.metrics.per_cycle == ((None, 1.0),) * 3
        r = simulate(arrivals, CFG, Policy.adaptive(4, 8), 200.0)
        assert r.boundaries == (15.0, 56.0, 97.0)
        assert r.metrics.per_cycle == ((0.0, 1.0), (25.0, 1.0), (26.0, 1.0))

    def test_float_means_add_in_order(self):
        # Python's sum() is compensated from CPython 3.12 on.  Every mean
        # here adds in order, as a loop would, so no result depends on the
        # Python version.  On these inputs the two ways of adding differ.
        def in_order(xs):
            return functools.reduce(operator.add, xs, 0.0)

        overall = run_experiment(parse_spec(
            "[run]\nseeds = 1 2\n\n[traffic]\nkind = schedule\n"
            "segments = " + " ".join(["1:0.1"] * 10) +
            "\n\n[policies]\nstandard = on\n"))[-1]
        assert overall.scenario == "schedule:overall"
        assert overall.rate == in_order([0.1] * 10) / 10.0
        assert in_order([0.1] * 10) != math.fsum([0.1] * 10)

        arrivals = [100.1 * j for j in range(1, 19)]
        r = simulate(arrivals, CFG, Policy.fixed(2.2), 1900.0)
        qs = r.thresholds
        delays = (r.tx_starts - r.arrivals).tolist()
        assert in_order(qs) != math.fsum(qs)
        assert in_order(delays) != math.fsum(delays)
        assert r.metrics.mean_q_w == in_order(qs) / len(qs)
        delay, _, mean_q, served = slice_stats(r, 0.0, 1900.0)
        assert (delay, mean_q, served) == (in_order(delays) / len(delays),
                                           in_order(qs) / len(qs), len(delays))

    def test_never_enabled_drx(self):
        cfg = DrxConfig(t_in=1e6, t_on=2, t_short=32, t_long=32)
        r = _result(Policy.fixed(3), rate=0.5, cfg=cfg)
        m = r.metrics
        assert m.sleep_fraction == 0.0
        assert m.per_cycle == ()
        # With no DRX stretch, the run and every window of it report the
        # threshold in effect throughout: the policy's own.
        assert r.initial_threshold == m.mean_q_w == 3.0
        assert slice_stats(r, 0.0, H)[2] == 3.0
        assert slice_stats(r, 0.25 * H, 0.5 * H)[2] == 3.0

    def test_empty_traffic(self):
        r = simulate([], CFG, Policy.standard(), 1000.0)
        assert math.isnan(r.metrics.mean_delay)
        assert r.metrics.arrivals == 0
        # UE idles 10 ms then sleeps in 30/2 cycles until the horizon
        assert r.metrics.sleep_fraction == pytest.approx(
            (990.0 - math.floor(990.0 / 32.0) * 2.0 - 0.0) / 1000.0, abs=2e-3
        )

    def test_arrival_at_horizon_is_outside_the_run(self):
        # The run observes [0, horizon): an arrival at 1000 is not counted.
        r = simulate([50.0, 1000.0], CFG, Policy.standard(), 1000.0)
        assert r.metrics.arrivals == r.metrics.packets_served == 1
        # One at 999.5 is, and waits for a window past the horizon.
        r = simulate([50.0, 999.5, 1000.0], CFG, Policy.standard(), 1000.0)
        assert r.metrics.arrivals == 2
        assert r.metrics.packets_served == 1

    @pytest.mark.parametrize("arrivals", [
        [1.0, math.nan, 2.0], [math.nan], [1.0, 2.0, math.inf],
        [-math.inf, 1.0], [1.0, 3.0, 2.0], [-1.0, 2.0],
    ])
    def test_bad_arrivals_rejected(self, arrivals):
        # Before, a NaN arrival was dropped silently (3 offered, 2 counted).
        with pytest.raises(ValueError, match="index"):
            simulate(arrivals, CFG, Policy.standard(), 1000.0)

    def test_stream_checked_once(self, monkeypatch):
        # ArrivalStream checks a generated stream; simulate does not again.
        calls = []
        check = traffic.check_arrivals
        monkeypatch.setattr(traffic, "check_arrivals",
                            lambda a: calls.append(len(a)) or check(a))
        m = run(_scenario(Policy.fixed(8)), 1)
        assert calls == [m.arrivals]

    def test_array_and_list_input_agree(self):
        arrivals = [5.0, 6.0, 6.0, 300.0, 2000.0]
        want = _fields(simulate(arrivals, CFG, Policy.fixed(2), 1000.0))
        for given in (np.array(arrivals), tuple(arrivals)):
            got = simulate(given, CFG, Policy.fixed(2), 1000.0)
            assert _fields(got) == want


class TestArrayPath:
    def test_dense_run_uses_array_path(self, monkeypatch):
        # Long active stretches must be served from the no-DRX schedule,
        # which the run builds once.
        served, built = [], []
        serve, build = engine._serve_from_schedule, engine._no_drx_schedule

        def counting_serve(*args):
            out = serve(*args)
            served.append(len(out[0]))
            return out

        monkeypatch.setattr(engine, "_serve_from_schedule", counting_serve)
        monkeypatch.setattr(engine, "_no_drx_schedule",
                            lambda *args: built.append(1) or build(*args))
        m = run(_scenario(Policy.standard(), rate=0.9, horizon=25000.0), 1)
        assert built == [1]
        assert sum(served) > 0.9 * m.packets_served > 0

    def _schedule_entries(self, monkeypatch, policy, rate):
        # Where each call of the schedule path started, as (first packet
        # of its stretch, packet it started at, next break of G from the
        # former), for every call after the one that built G.
        calls = []
        serve = engine._serve_from_schedule

        def spy(A, G, breaks, i, *rest):
            calls.append((i, breaks))
            return serve(A, G, breaks, i, *rest)

        with monkeypatch.context() as patch:
            patch.setattr(engine, "_serve_from_schedule", spy)
            r = _result(policy, rate=rate, horizon=25000.0)
        firsts = [0] + [int(np.searchsorted(r.tx_starts, e))
                        for e in r.stretch_ends]
        out = []
        for i, breaks in calls[1:]:
            first = firsts[bisect_right(firsts, i) - 1]
            out.append((first, i,
                        int(breaks[np.searchsorted(breaks, first)])))
        return out

    @pytest.mark.parametrize("policy", [
        Policy.standard(), Policy.fixed(128), Policy.adaptive(64, 128)],
        ids=["standard", "fixed128", "adaptive"])
    def test_dense_stretches_skip_the_scalar_head(self, monkeypatch, policy):
        # Once G exists, a stretch whose next break of G lies a whole head
        # on is served from G from its first packet: no scalar loop.
        entries = self._schedule_entries(monkeypatch, policy, 0.7)
        assert entries
        assert all(i == first for first, i, _ in entries)

    @pytest.mark.parametrize("rate", [0.3, 0.5])
    def test_scalar_head_runs_only_before_a_break(self, monkeypatch, rate):
        # A stretch that DRX delayed can outlast a break of G; only then
        # does the scalar loop serve its head before the schedule.
        head = engine._SCALAR_HEAD
        entries = []
        for policy in (Policy.standard(), Policy.fixed(8),
                       Policy.adaptive(512, 1024)):
            entries += self._schedule_entries(monkeypatch, policy, rate)
        assert any(i == first for first, i, _ in entries)
        for first, i, brk in entries:
            assert (i == first) == (brk >= first + head)
            assert i in (first, first + head)

    def _converted(self, monkeypatch, policy, rate, horizon):
        # The scalar loop's arrivals that became Python floats, one index
        # per conversion, and the run's arrival count.
        converted = []
        fill = engine._fill

        def counting_fill(A, A_arr, lo, hi):
            converted.extend(range(lo, hi))
            fill(A, A_arr, lo, hi)

        monkeypatch.setattr(engine, "_fill", counting_fill)
        m = run(_scenario(policy, rate=rate, horizon=horizon), 1)
        return converted, m.arrivals

    def test_dense_run_converts_few_arrivals(self, monkeypatch):
        # The schedule serves most packets, and their arrivals stay in the
        # array.
        converted, n = self._converted(monkeypatch, Policy.standard(), 0.9,
                                       25000.0)
        assert len(set(converted)) == len(converted) < 0.1 * n

    def test_sparse_run_converts_each_arrival_once(self, monkeypatch):
        converted, n = self._converted(monkeypatch, Policy.fixed(8), 0.1,
                                       100000.0)
        assert converted == list(range(n))


class TestValueTypes:
    # A non-finite field used to construct and then fail deep in a run
    # (a NaN cast to int, an overflow, a NaN metric); every value type, and
    # simulate for its own arguments, now rejects it.
    @pytest.mark.parametrize("make, field", [
        (lambda: DrxConfig(math.nan, 2, 32, 32), "t_in"),
        (lambda: DrxConfig(10, 2, 32, math.inf), "t_long"),
        (lambda: DrxConfig(10, 2, 32, 32, math.nan), "n_short"),
        (lambda: Policy.fixed(math.inf), "q_w"),
        (lambda: Policy.adaptive(64, math.inf), "w_max"),
        (lambda: Policy.adaptive(math.nan, 128), "w_star"),
        (lambda: Scenario(CFG, Policy.standard(), PoissonTraffic(0.1),
                          math.inf), "horizon"),
        (lambda: Scenario(CFG, Policy.standard(), PoissonTraffic(0.1), H,
                          math.nan), "psf"),
        (lambda: simulate([1.0], CFG, Policy.standard(), math.inf), "horizon"),
        (lambda: simulate([1.0], CFG, Policy.standard(), H, math.nan), "psf"),
        (lambda: PoissonTraffic(math.nan), "rate"),
        (lambda: ParetoTraffic(math.inf, 1.5), "rate"),
        (lambda: ParetoTraffic(0.1, math.nan), "shape"),
        (lambda: ScheduleTraffic(((math.inf, 0.1),)), "segment duration"),
        (lambda: ScheduleTraffic(((1000.0, math.inf),)), "segment rate"),
    ], ids=["t_in", "t_long", "n_short", "q_w", "w_max", "w_star", "horizon",
            "psf", "simulate_horizon", "simulate_psf", "poisson_rate",
            "pareto_rate", "shape", "duration", "segment_rate"])
    def test_non_finite_field_rejected(self, make, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            make()

    # A string is not a number: each value type names the field in a
    # ValueError rather than failing on a comparison with a TypeError.
    @pytest.mark.parametrize("make, field", [
        (lambda: DrxConfig("10", 2, 32, 32), "t_in"),
        (lambda: Policy.fixed("8"), "q_w"),
        (lambda: PoissonTraffic("0.1"), "rate"),
        (lambda: ParetoTraffic(0.1, "1.5"), "shape"),
        (lambda: ScheduleTraffic(((1000.0, "0.1"),)), "segment rate"),
        (lambda: Scenario(CFG, Policy.standard(), PoissonTraffic(0.1),
                          "1000"), "horizon"),
    ], ids=["t_in", "q_w", "poisson_rate", "shape", "segment_rate",
            "horizon"])
    def test_non_numeric_field_rejected(self, make, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite.*'"):
            make()


class TestTraceScenario:
    def test_trace_driven_run(self, tmp_path):
        path = tmp_path / "x.trace"
        path.write_text("5.0\n6.0,1400\n300.0\n")
        m = run(Scenario(CFG, Policy.standard(), TraceTraffic(str(path)), 400.0), 1)
        assert m.arrivals == 3
        assert m.packets_served == 3


class TestSliceStats:
    def test_full_slice_matches_metrics(self):
        # A run's metrics are its statistics over [0, horizon), bit for
        # bit: also with no packet (NaN delay) and with no DRX stretch.
        never_on = DrxConfig(t_in=1e6, t_on=2, t_short=32, t_long=32)
        for policy in (Policy.standard(), Policy.fixed(8),
                       Policy.adaptive(64, 128)):
            runs = (_result(policy, rate=0.3), simulate([], CFG, policy, H),
                    _result(policy, rate=0.5, cfg=never_on))
            assert runs[2].boundaries == ()
            for r in runs:
                m = r.metrics
                assert _bits(slice_stats(r, 0.0, H)) == _bits(
                    (m.mean_delay, m.sleep_fraction, m.mean_q_w,
                     m.packets_served))
                assert math.isfinite(m.mean_q_w)

    @pytest.mark.parametrize("policy,initial", [
        (Policy.fixed(8), 8.0),
        (Policy.adaptive(64, 128),
         ctrl.initial_state(64, ctrl.q_max_from_bound(128, 1.0)).q_w),
    ])
    def test_window_without_stretch_reports_threshold_in_effect(
            self, policy, initial):
        # Before the first boundary the run's initial threshold governs;
        # between stretch k's end and stretch k+1's enable instant, the
        # threshold set at boundary k.
        r = _result(policy, rate=0.05)
        assert r.initial_threshold == initial
        assert slice_stats(r, 0.0, r.boundaries[0])[2] == initial
        gaps = [k for k in range(len(r.boundaries) - 1)
                if r.stretch_ends[k] < r.boundaries[k + 1]]
        assert len(gaps) > 10
        for k in gaps:
            window = (r.stretch_ends[k], r.boundaries[k + 1])
            assert slice_stats(r, *window)[2] == r.thresholds[k]
        if policy.kind is PolicyKind.ADAPTIVE_COALESCING:
            assert len({r.thresholds[k] for k in gaps}) > 10

    @pytest.mark.parametrize("policy", [Policy.fixed(8), Policy.adaptive(64, 128)])
    def test_partition_adds_up(self, policy):
        # Short-then-long cycles, and window edges cut DRX stretches in a
        # short cycle's sleep, in its on-duration and halfway through.
        cfg = DrxConfig(t_in=10, t_on=2, t_short=8, t_long=64, n_short=4)
        r = _result(policy, rate=0.05, cfg=cfg)
        stretches = [(b, e) for b, e in zip(r.boundaries, r.stretch_ends)
                     if e - b > 40.0]
        assert len(stretches) > 20
        cuts = sorted({b + off for b, e in stretches[::5]
                       for off in (3.0, 7.0, (e - b) / 2)})
        edges = [0.0, *cuts, H]
        windows = [slice_stats(r, lo, hi) + (hi - lo,)
                   for lo, hi in zip(edges, edges[1:])]
        m = r.metrics
        assert sum(w[3] for w in windows) == m.packets_served
        assert sum(w[1] * w[4] for w in windows) == pytest.approx(
            m.sleep_fraction * H, rel=1e-12)
        assert sum(w[0] * w[3] for w in windows if w[3]) == pytest.approx(
            m.mean_delay * m.packets_served, rel=1e-12)


    @pytest.mark.parametrize("start,end", [
        (5.0, 5.0), (6.0, 5.0), (-100.0, 50.0), (0.0, math.inf),
        (math.nan, 50.0), (0.0, 2 * H),
    ])
    def test_window_outside_run_rejected(self, start, end):
        r = _result(Policy.fixed(8))
        with pytest.raises(ValueError, match=f"start {start!r} and end {end!r}"):
            slice_stats(r, start, end)

    def test_window_may_end_at_horizon(self):
        # cli's last window ends at the horizon exactly; it sees the run.
        r = _result(Policy.fixed(8), rate=0.1)
        assert r.horizon == H
        assert slice_stats(r, 0.0, H)[1] == r.metrics.sleep_fraction


class TestSchedules:
    def test_schedule_traffic_runs(self):
        sched = ScheduleTraffic(((5000.0, 0.1), (5000.0, 0.5)))
        r = run_detailed(Scenario(CFG, Policy.adaptive(64, 128), sched, 10000.0), 2)
        lo = bisect_left(r.arrivals, 5000.0)
        hi = r.metrics.arrivals - lo
        assert hi > 3 * lo / 2  # second segment is five times as fast


class TestConfidenceInterval:
    def test_constant_samples(self):
        s = confidence_interval([1.0, 1.0, 1.0, 1.0], 0.95)
        assert s.mean == 1.0 and s.ci_half_width == 0.0
        # Replications that cannot differ (one seed repeated) give exactly
        # 0, even where the mean of ten copies rounds away from the sample
        # (2.834747652200631 averages to 2.8347476522006305).
        m = run(_scenario(Policy.fixed(8), rate=0.3, horizon=5000.0), 4)
        for sample in (m.mean_delay, m.sleep_fraction, m.mean_q_w,
                       2.834747652200631):
            s = confidence_interval([sample] * 10, 0.95)
            assert (s.n, s.ci_half_width) == (10, 0.0)

    def test_two_samples_hand_value(self):
        # mean 1, s = sqrt(2), t(1, 0.975) = tan(0.475 pi) = 12.7062047...:
        # half width 12.7062 * sqrt(2) / sqrt(2) = 12.7062
        s = confidence_interval([0.0, 2.0], 0.95)
        assert s.mean == 1.0
        assert s.ci_half_width == pytest.approx(12.706204736174694, rel=1e-13)

    def test_ten_samples_t_factor(self):
        samples = [3.1, 2.7, 3.3, 2.9, 3.0, 3.6, 2.5, 3.2, 2.8, 3.4]
        import statistics
        s = confidence_interval(samples, 0.95)
        # t_{9, 0.975} from the regularized incomplete beta at 30 digits
        expected = 2.2621571627982055 * statistics.stdev(samples) / math.sqrt(10)
        assert s.n == 10
        assert s.ci_half_width == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("samples", [
        [1.0, math.nan, 1.0], [math.nan, 1.0, 1.0], [math.nan, math.nan],
        [1.0, 2.0, math.nan], [math.inf, math.inf],
    ])
    def test_non_finite_sample_gives_nan_half_width(self, samples):
        assert math.isnan(confidence_interval(samples, 0.95).ci_half_width)

    @staticmethod
    def _t_error(level, df, t):
        # The relative error of t as the quantile for the float level: the
        # Newton correction (I_x(df/2, 1/2) - (1 - level)) / (2 f(t)) at
        # x = df/(df + t^2) and 50 digits, over t.  It differs from the
        # true error by about that error squared.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            half, t = mpmath.mpf(1) / 2, mpmath.mpf(t)
            tail = mpmath.betainc(df * half, half, 0, df / (df + t * t),
                                  regularized=True)
            log_f = (mpmath.loggamma((df + 1) * half)
                     - mpmath.loggamma(df * half)
                     - mpmath.log(df * mpmath.pi) / 2
                     - (df + 1) * half * mpmath.log1p(t * t / df))
            return float((tail - (1 - mpmath.mpf(level)))
                         / (2 * mpmath.exp(log_f) * t))

    @pytest.mark.parametrize("level", [1e-6, 0.5, 0.9, 0.95, 0.99, 0.995,
                                       0.999, 0.9999, 1 - 1e-9, 1 - 1e-15])
    def test_t_quantile_matches_high_precision(self, level):
        # The df 1 and 2 closed forms round pi/2 * level and level^2, which
        # costs about 1/(1 - level) ulps, so they are checked below 0.9999.
        dfs = [*range(1 if level < 0.9999 else 3, 61), 99, 100, 101]
        errors = {df: abs(self._t_error(level, df,
                                        engine._t_quantile(level, df)))
                  for df in dfs}
        worst = max(errors, key=errors.get)
        assert errors[worst] < 1e-13, f"df {worst}: error {errors[worst]}"

    @pytest.mark.parametrize("level", [1e-6, 0.5, 0.95, 0.995, 0.999, 0.9999,
                                       1 - 1e-9, 1 - 1e-15])
    @pytest.mark.parametrize("df", [120, 1000, 5000, 10_000])
    def test_t_quantile_large_df(self, df, level):
        # Summing the head alone, so that 1 - P comes by subtraction, misses
        # by 1.5e-13 at df 1e4 and level 0.999, and by 1e-4 at 1 - 1e-13.
        error = self._t_error(level, df, engine._t_quantile(level, df))
        assert abs(error) < 1e-13

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
    def test_t_quantile_closed_forms(self, level):
        assert engine._t_quantile(level, 1) == math.tan(0.5 * math.pi * level)
        assert engine._t_quantile(level, 2) == level * math.sqrt(
            2.0 / (1.0 - level * level))

    def test_t_quantile_raises_when_unconverged(self, monkeypatch):
        monkeypatch.setattr(engine, "_NEWTON_STEPS", 2)
        with pytest.raises(ArithmeticError, match="did not converge"):
            engine._t_quantile.__wrapped__(0.95, 9)

    def test_preconditions(self):
        for samples in ([], [1.0]):
            with pytest.raises(ValueError, match="at least 2 samples"):
                confidence_interval(samples, 0.95)
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], 1.5)
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], 0.0)


class TestStatisticalTrends:
    def test_sleep_and_delay_increase_with_threshold(self):
        # Cycle-geometry trend over thresholds 1, 8, 32, 128 at a fixed rate.
        sleeps, delays = [], []
        for q in (1, 8, 32, 128):
            ms = [run(_scenario(Policy.fixed(q), rate=0.3, horizon=50000.0), s)
                  for s in range(1, 6)]
            sleeps.append(sum(m.sleep_fraction for m in ms) / len(ms))
            delays.append(sum(m.mean_delay for m in ms) / len(ms))
        assert sleeps == sorted(sleeps)
        assert delays == sorted(delays)

    def test_standard_drx_bounds_low_rate(self):
        # A buffered packet waits at most one cycle, so the mean delay sits
        # below t_short - t_on; the UE sleeps most of the time at this rate.
        ms = [run(_scenario(Policy.standard(), rate=0.1, horizon=100000.0), s)
              for s in range(1, 6)]
        assert all(m.mean_delay < 30.0 for m in ms)
        assert all(m.sleep_fraction > 0.5 for m in ms)
