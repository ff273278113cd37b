"""Unit tests for the simulation engine.

Structural properties (conservation, FIFO order, causality against the DRX
schedule, work conservation, determinism) are asserted on full run results.
``TestDrxTiming`` pins the arithmetic DRX timing on hand-scripted arrivals
with window times worked out by hand.  The randomized cross-check against
the event-by-event state machine of ``tests/drx_reference.py`` is
``tests/test_differential.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import pytest

from drxsim.drx import DrxConfig, Policy
from drxsim.engine import (
    Metrics,
    ParetoTraffic,
    PoissonTraffic,
    Scenario,
    ScheduleTraffic,
    TraceTraffic,
    confidence_interval,
    run,
    run_detailed,
    run_replicated,
    simulate,
    slice_stats,
)

CFG = DrxConfig(t_in=10, t_on=2, t_short=32, t_long=32)
H = 20000.0


def _scenario(policy, rate=0.3, horizon=H, cfg=CFG):
    return Scenario(cfg, policy, PoissonTraffic(rate), horizon)


def _result(policy, rate=0.3, seed=1, horizon=H, cfg=CFG):
    return run_detailed(_scenario(policy, rate, horizon, cfg), seed)


class TestStructuralInvariants:
    @pytest.mark.parametrize("policy", [
        Policy.standard(), Policy.fixed(8), Policy.adaptive(64, 128),
    ])
    def test_conservation(self, policy):
        r = _result(policy)
        m = r.metrics
        assert m.packets_served == len(r.tx_starts)
        assert m.arrivals == m.packets_served + m.residual_backlog
        assert m.residual_backlog >= 0

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

    def test_seeds_differ(self):
        sc = _scenario(Policy.fixed(8), rate=0.4)
        assert run(sc, 7) != run(sc, 8)


class TestDegenerateThreshold:
    @pytest.mark.parametrize("traffic", [
        PoissonTraffic(0.3), ParetoTraffic(0.3, 1.5),
    ])
    def test_fixed_one_equals_standard(self, traffic):
        a = Scenario(CFG, Policy.fixed(1), traffic, H)
        b = Scenario(CFG, Policy.standard(), traffic, H)
        assert run_detailed(a, 5) == run_detailed(b, 5)


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
        assert r.tx_starts == (41.5, 42.5)

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
        r = _result(Policy.adaptive(64, 128), rate=0.4)
        # per_cycle[i] records the threshold that governed cycle i, which is
        # the post-update value at the previous boundary.
        govern = [q for _, q in r.metrics.per_cycle]
        assert govern[1:] == list(r.thresholds[: len(govern) - 1])

    def test_saturation_flag(self):
        m = run(_scenario(Policy.standard(), rate=1.2, horizon=5000.0), 1)
        assert m.saturated
        assert m.residual_backlog > 0
        assert not run(_scenario(Policy.standard(), rate=0.5), 1).saturated

    def test_never_enabled_drx(self):
        cfg = DrxConfig(t_in=1e6, t_on=2, t_short=32, t_long=32)
        m = run(_scenario(Policy.standard(), rate=0.5, cfg=cfg), 1)
        assert m.sleep_fraction == 0.0
        assert m.per_cycle == ()
        assert m.mean_q_w == 1.0

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
        assert r.metrics.arrivals == 1
        assert r.metrics.residual_backlog == 0
        # One at 999.5 is, and waits for a window past the horizon.
        r = simulate([50.0, 999.5, 1000.0], CFG, Policy.standard(), 1000.0)
        assert r.metrics.arrivals == 2
        assert r.metrics.packets_served == 1
        assert r.metrics.residual_backlog == 1


class TestTraceScenario:
    def test_trace_driven_run(self, tmp_path):
        path = tmp_path / "x.trace"
        path.write_text("5.0\n6.0,1400\n300.0\n")
        m = run(Scenario(CFG, Policy.standard(), TraceTraffic(str(path)), 400.0), 1)
        assert m.arrivals == 3
        assert m.packets_served == 3


class TestSliceStats:
    def test_full_slice_matches_metrics(self):
        r = _result(Policy.adaptive(64, 128), rate=0.3)
        delay, sleep, _, served = slice_stats(r, CFG, 0.0, H)
        assert delay == pytest.approx(r.metrics.mean_delay)
        assert sleep == pytest.approx(r.metrics.sleep_fraction)
        assert served == r.metrics.packets_served

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
        windows = [slice_stats(r, cfg, lo, hi) + (hi - lo,)
                   for lo, hi in zip(edges, edges[1:])]
        m = r.metrics
        assert sum(w[3] for w in windows) == m.packets_served
        assert sum(w[1] * w[4] for w in windows) == pytest.approx(
            m.sleep_fraction * H, rel=1e-12)
        assert sum(w[0] * w[3] for w in windows if w[3]) == pytest.approx(
            m.mean_delay * m.packets_served, rel=1e-12)


class TestSchedules:
    def test_schedule_traffic_runs(self):
        sched = ScheduleTraffic(((5000.0, 0.1), (5000.0, 0.5)))
        r = run_detailed(Scenario(CFG, Policy.adaptive(64, 128), sched, 10000.0), 2)
        lo = bisect_left(r.arrivals, 5000.0)
        hi = r.metrics.arrivals - lo
        assert hi > 3 * lo / 2  # second segment is five times as fast


class TestReplication:
    def test_identical_seeds_zero_halfwidth(self):
        sc = _scenario(Policy.fixed(8), rate=0.3, horizon=5000.0)
        delay, sleep, qw = run_replicated(sc, [4] * 10)
        assert delay.ci_half_width == 0.0
        assert sleep.ci_half_width == 0.0
        assert qw.ci_half_width == 0.0

    def test_single_seed_rejected(self):
        with pytest.raises(ValueError):
            run_replicated(_scenario(Policy.standard()), [1])

    def test_distinct_seeds(self):
        sc = _scenario(Policy.fixed(8), rate=0.3, horizon=5000.0)
        delay, _, _ = run_replicated(sc, range(1, 6))
        assert delay.n == 5
        assert delay.ci_half_width > 0.0


class TestConfidenceInterval:
    def test_constant_samples(self):
        s = confidence_interval([1.0, 1.0, 1.0, 1.0], 0.95)
        assert s.mean == 1.0 and s.ci_half_width == 0.0

    def test_two_samples_hand_value(self):
        # mean 1, s = sqrt(2), t(1, 0.975) = 12.7062047...: half width
        # 12.7062 * sqrt(2) / sqrt(2) = 12.7062
        s = confidence_interval([0.0, 2.0], 0.95)
        assert s.mean == 1.0
        assert s.ci_half_width == pytest.approx(12.706204736432095, rel=1e-9)

    def test_ten_samples_t_factor(self):
        samples = [3.1, 2.7, 3.3, 2.9, 3.0, 3.6, 2.5, 3.2, 2.8, 3.4]
        import statistics
        s = confidence_interval(samples, 0.95)
        # t_{9, 0.975} from the regularized incomplete beta at 30 digits
        expected = 2.2621571627982055 * statistics.stdev(samples) / math.sqrt(10)
        assert s.ci_half_width == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("samples", [
        [1.0, math.nan, 1.0], [math.nan, 1.0, 1.0], [math.nan, math.nan],
        [1.0, 2.0, math.nan], [math.inf, math.inf],
    ])
    def test_non_finite_sample_gives_nan_half_width(self, samples):
        assert math.isnan(confidence_interval(samples, 0.95).ci_half_width)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0], 0.95)
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
