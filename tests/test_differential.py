"""Differential test: the engine against the event-by-event reference.

``drx_reference.reference_run`` steps the explicit UE state machine
(``advance``, ``enter_countdown``, ``release_condition``) through a FIFO
queue one event at a time; ``engine.simulate`` resolves the same timing
arithmetically.  Hypothesis draws sorted arrival sequences, DRX configs
(including short-then-long cycle schedules) and standard or fixed-threshold
policies; every served packet's transmission start, the DRX-enable
instants and the sleep fraction must agree to 1e-9 absolute.

Times are drawn either on a half-millisecond grid, where every sum both
sides form is exact and arrivals land exactly on window edges and timer
deadlines (so the tie conventions are exercised), or as arbitrary floats.
Explicit examples pin the ties that random draws rarely produce.  The
adaptive policy has no reference here; ``test_engine_invariants`` checks
the simulator's invariants on the same draws under all three policies.
``test_array_path_matches_scalar`` checks that serving long active
stretches from the run's no-DRX schedule changes no bit of any result
against the per-packet ``drx_reference.lindley_run``, and
``test_sweep_sized_streams_match_scalar`` does so on the 20 s streams a
sweep draws; the schedule tests check that schedule against its
recursion and its premise, that no packet starts before its no-DRX
start.  ``test_sleep_in_matches_scalar_walk`` checks that the elementwise
sleep layout matches the scalar walk bit for bit, and
``test_slice_stats_matches_scalar_walk`` that a window's statistics match
in-order scalar sums over its packets, stretches and thresholds, and a
window with no stretch the threshold in effect throughout it.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_left, bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from drx_reference import lindley_run, reference_run, sleep_between
from drxsim import engine
from drxsim.drx import DrxConfig, Policy
from drxsim.engine import make_arrivals, simulate
from drxsim.traffic import ParetoTraffic, PoissonTraffic

TOL = 1e-9
HORIZON = 1000.0


def _grid(lo: float, hi: float, step: float = 0.25):
    return st.integers(int(lo / step), int(hi / step)).map(lambda k: k * step)


@st.composite
def configs(draw):
    t_on = draw(_grid(0.5, 8.0, 0.5))
    t_short = t_on + draw(_grid(0.5, 40.0, 0.5))
    n_short = draw(st.integers(0, 4))
    if n_short and draw(st.booleans()):
        t_long = t_short + draw(_grid(0.5, 80.0, 0.5))
    else:
        t_long = t_short
    t_in = draw(_grid(0.0, 20.0, 0.5))
    return DrxConfig(t_in, t_on, t_short, t_long, n_short)


policies = st.one_of(
    st.just(Policy.standard()),
    st.floats(1.0, 12.0).map(Policy.fixed),
    st.integers(1, 12).map(Policy.fixed),
)

times = st.one_of(_grid(0.0, HORIZON, 0.5), st.floats(0.0, HORIZON))
arrival_lists = st.lists(times, max_size=300).map(sorted)
psfs = st.sampled_from([0.5, 1.0, 2.0])


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(arrivals=arrival_lists, cfg=configs(), policy=policies, psf=psfs)
# Exact ties that random draws rarely hit (t_in = 10 in each).
# An arrival at the inactivity deadline is served at once:
@example(arrivals=[10.0, 21.0], cfg=DrxConfig(10, 2, 32, 32),
         policy=Policy.standard(), psf=1.0)
# The threshold filling as an on-duration ends waits a whole cycle:
@example(arrivals=[15.0, 42.0], cfg=DrxConfig(10, 2, 32, 32),
         policy=Policy.fixed(2), psf=1.0)
# An arrival at the first long cycle's start waits for that cycle's window:
@example(arrivals=[26.0], cfg=DrxConfig(10, 2, 8, 32, 2),
         policy=Policy.standard(), psf=1.0)
def test_engine_matches_reference(arrivals, cfg, policy, psf):
    ref = reference_run(arrivals, cfg, policy, HORIZON, psf)
    got = simulate(arrivals, cfg, policy, HORIZON, psf)

    assert len(got.tx_starts) == len(ref.records)
    for got_arrival, got_tx, (arrival, tx_start, cycle_index) in zip(
            got.arrivals, got.tx_starts, ref.records):
        assert got_arrival == arrival
        assert got_tx == pytest.approx(tx_start, rel=0.0, abs=TOL)
        assert bisect_left(got.boundaries, got_tx) == cycle_index
    assert len(got.boundaries) == len(ref.boundaries)
    for b_got, b_ref in zip(got.boundaries, ref.boundaries):
        assert b_got == pytest.approx(b_ref, rel=0.0, abs=TOL)
    assert got.metrics.sleep_fraction == pytest.approx(
        ref.sleep_fraction, rel=0.0, abs=TOL)


adaptive_policies = st.builds(
    lambda w_star, ratio: Policy.adaptive(w_star, ratio * w_star),
    st.floats(2.0, 100.0), st.sampled_from([1.0, 2.0, 4.0]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(arrivals=arrival_lists, cfg=configs(),
       policy=st.one_of(policies, adaptive_policies), psf=psfs)
# Back-to-back service whose float difference rounds below psf:
# 2.05 - 1.05 == 0.9999999999999998, although 2.05 == 1.05 + 1.0.
@example(arrivals=[1.05, 2.0], cfg=DrxConfig(0.5, 0.5, 1.0, 1.0),
         policy=Policy.standard(), psf=1.0)
def test_engine_invariants(arrivals, cfg, policy, psf):
    r = simulate(arrivals, cfg, policy, HORIZON, psf)
    m, tx = r.metrics, r.tx_starts.tolist()
    offered = [a for a in arrivals if a < HORIZON]

    # Served plus residual backlog is every arrival; service is FIFO.
    assert m.arrivals == len(offered)
    assert m.packets_served == len(tx) <= m.arrivals
    assert r.arrivals.tolist() == offered[:len(tx)]
    for a, t in zip(r.arrivals.tolist(), tx):
        assert a <= t < HORIZON
    # The engine frees the server at start + psf; compare in that form.
    for prev, nxt in zip(tx, tx[1:]):
        assert nxt >= prev + psf

    # DRX stretch k holds back every transmission from its enable instant
    # until its release, which is the next start (or the horizon).
    assert len(r.stretch_ends) == len(r.boundaries) == len(r.thresholds)
    for b, end, q in zip(r.boundaries, r.stretch_ends, r.thresholds):
        assert b < end <= HORIZON
        k = bisect_left(tx, b)
        assert (tx[k] if k < len(tx) else HORIZON) == end
        if end < HORIZON:
            assert bisect_right(offered, end) - k >= math.ceil(q)
    for end, nxt in zip(r.stretch_ends, r.boundaries[1:]):
        assert end < nxt

    assert 0.0 <= m.sleep_fraction <= 1.0


def _bits(value):
    # Every float as its exact hex form (nan included), through nesting.
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


def _bits_of(r):
    return _bits((dataclasses.astuple(r.metrics), r.cfg, r.horizon,
                  r.initial_threshold, r.boundaries, r.thresholds,
                  r.arrivals.tolist(), r.tx_starts.tolist(), r.stretch_ends))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(arrivals=arrival_lists, cfg=configs(),
       policy=st.one_of(policies, adaptive_policies),
       psf=st.sampled_from([0.5, 0.7, 1.0, 2.0]), head=st.integers(1, 4))
# A stretch that couples at once ends at a break of the schedule; the
# next arrival opens a stretch of its own.
@example(arrivals=[1.0, 2.0, 3.0, 50.0, 51.0], cfg=DrxConfig(10, 2, 32, 32),
         policy=Policy.standard(), psf=1.0, head=1)
# The horizon falls inside a coupled stretch: packet 5 would start at 1000.
# (t_in = 1000 keeps the UE awake here and in the last-arrival example.)
@example(arrivals=[990.0, 990.5, 991.0, 991.5, 992.0, 992.5, 993.0],
         cfg=DrxConfig(1000, 2, 32, 32), policy=Policy.standard(), psf=2.0,
         head=1)
# A gap ends the first stretch after one lookup; the burst behind it is
# held in DRX until past the horizon.
@example(arrivals=[1.0, 2.0, 3.0, 4.0, 995.0, 995.5, 996.0, 996.5, 997.0],
         cfg=DrxConfig(10, 2, 32, 32), policy=Policy.standard(), psf=2.0,
         head=1)
# The last arrival would start exactly at the horizon, with no next arrival.
@example(arrivals=[994.0, 995.0, 996.0, 997.0],
         cfg=DrxConfig(1000, 2, 32, 32), policy=Policy.standard(), psf=2.0,
         head=1)
# psf = 0.7 is inexact in binary, so the unrolled schedule drifts off the
# recursion: its start for packet 7 is 4.8999999999999995, not 4.9, and
# the recursion repairs it.  The stretch ends after packet 8, whose
# start 4.9 + 0.7 = 5.6000000000000005 is computed from packet 7's.
@example(arrivals=[0.5 * k for k in range(9)] + [100.0],
         cfg=DrxConfig(10, 2, 32, 32), policy=Policy.standard(), psf=0.7,
         head=1)
# A release at 40 leaves a backlog the schedule cleared long before; the
# backlog walk reaches packet 6, which arrives after the countdown (60) or
# inside it (50), so the stretch breaks or couples there.
@example(arrivals=[20.0, 20.5, 21.0, 21.5, 22.0, 22.5, 60.0, 100.0],
         cfg=DrxConfig(10, 2, 32, 32), policy=Policy.fixed(4), psf=1.0,
         head=1)
@example(arrivals=[20.0, 20.5, 21.0, 21.5, 22.0, 22.5, 50.0, 100.0],
         cfg=DrxConfig(10, 2, 32, 32), policy=Policy.fixed(4), psf=1.0,
         head=1)
# The threshold fills at 31.3, the start of the first window of a stretch
# enabled at 1.3: it is released then, not at 1.3 + 32 - 2, which rounds
# to 31.299999999999997.
@example(arrivals=[0.0, 20.0, 31.3], cfg=DrxConfig(0.3, 2, 32, 32),
         policy=Policy.fixed(2), psf=1.0, head=4)
# DRX is enabled at 11 in the next two; the threshold fills at 43, the
# start of the second cycle (held until its window, 73), ...
@example(arrivals=[0.0, 20.0, 43.0], cfg=DrxConfig(10, 2, 32, 32),
         policy=Policy.fixed(2), psf=1.0, head=4)
# ... and at 35, where three 8 ms short cycles give way to the long ones.
@example(arrivals=[0.0, 20.0, 35.0], cfg=DrxConfig(10, 2, 8, 32, 3),
         policy=Policy.fixed(2), psf=1.0, head=4)
# The scalar loop serves its whole head, the last arrival included, and
# the sentinel ends the stretch; the next stretch's threshold is the
# arrival one past the last.
@example(arrivals=[0.0, 0.5, 1.0], cfg=DrxConfig(10, 2, 32, 32),
         policy=Policy.standard(), psf=1.0, head=3)
# The horizon stops the scalar loop: packet 3 would start at 1000.
@example(arrivals=[997.0, 998.0, 999.0, 999.5],
         cfg=DrxConfig(1000, 2, 32, 32), policy=Policy.standard(), psf=1.0,
         head=4)
def test_array_path_matches_scalar(arrivals, cfg, policy, psf, head):
    want = _bits_of(lindley_run(arrivals, cfg, policy, HORIZON, psf))
    with mock.patch.object(engine, "_SCALAR_HEAD", head):
        got = simulate(arrivals, cfg, policy, HORIZON, psf)
    assert _bits_of(got) == want


@pytest.mark.parametrize("psf", [1.0, 0.7])
@pytest.mark.parametrize("cfg", [DrxConfig(10, 2, 32, 32),
                                 DrxConfig(10, 2, 8, 32, 3)],
                         ids=["n_short0", "n_short3"])
@pytest.mark.parametrize("traffic", [
    PoissonTraffic(0.05), PoissonTraffic(0.2), PoissonTraffic(0.6),
    ParetoTraffic(0.3, 1.5)],
    ids=["poisson0.05", "poisson0.2", "poisson0.6", "pareto1.5"])
def test_sweep_sized_streams_match_scalar(traffic, cfg, psf):
    # Up to 12,021 arrivals and 471 DRX stretches per run.  At rate 0.6
    # the schedule serves long stretches, jumping past the loop's filled
    # arrivals, and thresholds 700 and up to 1,024 release on arrivals
    # beyond the scalar head.
    horizon = 20000.0
    stream = make_arrivals(traffic, horizon, 1)
    for policy in (Policy.standard(), Policy.fixed(2), Policy.fixed(8),
                   Policy.fixed(700), Policy.adaptive(64, 128),
                   Policy.adaptive(512, 1024)):
        want = lindley_run(stream.arrivals, cfg, policy, horizon, psf)
        got = simulate(stream, cfg, policy, horizon, psf)
        assert _bits_of(got) == _bits_of(want), policy


def _recursion(A, psf):
    out, free = [], 0.0
    for a in A:
        out.append(a if a > free else free)
        free = out[-1] + psf
    return out


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(arrivals=st.lists(times, min_size=1, max_size=300).map(sorted),
       psf=st.sampled_from([0.5, 0.7, 1.0, 2.0]),
       t_in=st.sampled_from([0.0, 0.5, 10.0]))
# An arrival exactly at the end of the countdown is no break.
@example(arrivals=[0.0, 11.0], psf=1.0, t_in=10.0)
# A leading -0.0 starts at +0.0, as the loop's max(A_0, 0.0) does.
@example(arrivals=[-0.0, -0.0, 0.5], psf=0.7, t_in=0.0)
def test_no_drx_schedule_is_the_recursion(arrivals, psf, t_in):
    A = np.array(arrivals, dtype=np.float64)
    G, breaks = engine._no_drx_schedule(A, psf, t_in)
    want = _recursion(arrivals, psf)
    assert _bits(G.tolist()) == _bits(want)
    assert breaks.tolist() == [m for m in range(len(A)) if m == len(A) - 1
                               or A[m + 1] > (want[m] + psf) + t_in]


def _unrolled(A, psf):
    # The closed form G[k] = k*psf + max(0, max_j<=k (A[j] - j*psf)), one
    # rounding per term where the recursion rounds at every step.
    r = np.arange(len(A)) * psf
    return r + np.maximum(np.maximum.accumulate(A - r), 0.0)


def _breaks(A, G, psf, t_in):
    return [m for m in range(len(A)) if m == len(A) - 1
            or A[m + 1] > (G[m] + psf) + t_in]


def _runs(mask):
    # The lengths of the runs of True in a boolean array.
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask, [0]))))
    return edges[1::2] - edges[::2]


@pytest.mark.parametrize("ties", [1030, 1100])
def test_no_drx_schedule_repairs_power_of_two_crossing(ties):
    # A busy period from 0.043 past 1,024 ms at psf 1.  The unrolled form
    # rounds k + 0.043 once, the recursion at each power of two it
    # crosses, and from packet 1,024 on they differ in the last bit: 6
    # packets (read one by one), or 76 (then in list blocks).  The next
    # arrival comes exactly as the true countdown ends, so it is no
    # break; read off the unrolled form's free time it would be one.
    t_in = 10.0
    busy = [0.043] * ties
    want = _recursion(busy, 1.0)
    A = np.array(busy + [(want[-1] + 1.0) + t_in])
    A = np.append(A, A[-1] + 50.0)
    unrolled = _unrolled(A, 1.0)
    differs = unrolled[:ties] != want
    assert differs.tolist() == [False] * 1024 + [True] * (ties - 1024)
    assert A[ties] > (unrolled[ties - 1] + 1.0) + t_in
    G, breaks = engine._no_drx_schedule(A, 1.0, t_in)
    want = _recursion(A.tolist(), 1.0)
    assert _bits(G.tolist()) == _bits(want)
    assert breaks.tolist() == _breaks(A, want, 1.0, t_in) == [ties, ties + 1]


@pytest.mark.parametrize("psf, short", [(0.7, True), (1.3, False)])
def test_no_drx_schedule_repairs_drift(psf, short):
    # Poisson 0.9: at psf 0.7 the unrolled form drifts off the recursion
    # every few packets and back, at psf 1.3 (load 1.17) for thousands on
    # end; each stretch where they differ is repaired by the recursion.
    A = make_arrivals(PoissonTraffic(0.9), 20000.0, 1).arrivals
    want = np.array(_recursion(A.tolist(), psf))
    runs = _runs(_unrolled(A, psf) != want)
    if short:
        assert len(runs) > 1000 and runs.max() < 100
    else:
        assert runs.max() > 1000
    G, breaks = engine._no_drx_schedule(A, psf, 10.0)
    assert _bits(G.tolist()) == _bits(want.tolist())
    assert breaks.tolist() == _breaks(A, want, psf, 10.0)


@pytest.mark.parametrize("psf", [0.5, 0.7, 1.0, 2.0])
def test_no_drx_schedule_long_stream(psf):
    # Over 10k arrivals, with and without misses of the unrolled form
    # (psf 0.7 misses every few packets).
    A = make_arrivals(PoissonTraffic(0.9 / psf), 13000.0 * psf, 3).arrivals
    assert len(A) > 10_000
    G, _ = engine._no_drx_schedule(A, psf, 10.0)
    assert _bits(G.tolist()) == _bits(_recursion(A.tolist(), psf))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(arrivals=arrival_lists, cfg=configs(),
       policy=st.one_of(policies, adaptive_policies), psf=psfs)
def test_no_packet_starts_before_its_schedule(arrivals, cfg, policy, psf):
    # DRX only delays service: the premise that lets a stretch, once a
    # packet starts at its no-DRX start, follow that schedule exactly.
    r = simulate(arrivals, cfg, policy, HORIZON, psf)
    G, _ = engine._no_drx_schedule(r.arrivals, psf, cfg.t_in)
    assert np.all(r.tx_starts >= G)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(arrivals=arrival_lists, cfg=configs(),
       policy=st.one_of(policies, adaptive_policies), psf=psfs)
def test_stretches_end_at_schedule_breaks(arrivals, cfg, policy, psf):
    # The premise of skipping the scalar head: an active stretch ends only
    # at a break of the no-DRX schedule, so one with no break within the
    # head's reach outlasts it.  Every boundary after the first follows a
    # served packet, and that packet is a break.
    r = simulate(arrivals, cfg, policy, HORIZON, psf)
    A = np.array([a for a in arrivals if a < HORIZON])
    _, breaks = engine._no_drx_schedule(A, psf, cfg.t_in)
    last = np.searchsorted(r.tx_starts, r.boundaries[1:]) - 1
    assert np.all(last >= 0)
    assert set(last.tolist()) <= set(breaks.tolist())


@st.composite
def float_configs(draw):
    # Timers off the half-millisecond grid, so the layout arithmetic rounds.
    t_on = draw(st.floats(0.1, 8.0))
    t_short = t_on + draw(st.floats(0.1, 40.0))
    t_long = t_short + draw(st.sampled_from([0.0, draw(st.floats(0.1, 80.0))]))
    return DrxConfig(draw(st.floats(0.0, 20.0)), t_on, t_short, t_long,
                     draw(st.integers(0, 4)))


@st.composite
def stretch_ends(draw, cfg, t0):
    # Offsets from t0: window edges of the short and the long phase (where
    # a stretch often ends), arbitrary spans, and spans <= 0.
    short = cfg.n_short * cfg.t_short
    k = draw(st.integers(0, 6))
    edge = draw(st.sampled_from([
        min(k, cfg.n_short) * cfg.t_short,
        min(k + 1, cfg.n_short) * cfg.t_short - cfg.t_on,
        short + k * cfg.t_long,
        short + (k + 1) * cfg.t_long - cfg.t_on,
    ]))
    off = draw(st.one_of(st.just(edge), st.floats(-50.0, 600.0),
                         st.just(0.0), st.floats(-50.0, 0.0)))
    return t0 + off


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), cfg=st.one_of(configs(), float_configs()),
       t0=st.one_of(_grid(0.0, 1000.0, 0.5), st.floats(0.0, 1000.0)))
def test_sleep_in_matches_scalar_walk(data, cfg, t0):
    ends = data.draw(st.lists(stretch_ends(cfg, t0), min_size=1, max_size=8))
    want = [sleep_between(cfg, t0, e).hex() for e in ends]
    starts = np.full(len(ends), t0)
    got = engine._sleep_in(cfg, starts, np.array(ends))
    assert [v.hex() for v in got.tolist()] == want
    # slice_stats passes a scalar end for every stretch.
    assert [engine._sleep_in(cfg, starts, e)[0].item().hex()
            for e in ends] == want


def _slice_reference(r, cfg, start, end):
    # slice_stats by scalar walks: every sum in order, each stretch's sleep
    # in the window the walk's sleep to its clipped end less that to start.
    delay, served = 0.0, 0
    for a, t in zip(r.arrivals.tolist(), r.tx_starts.tolist()):
        if start <= t < end:
            delay += t - a
            served += 1
    sleep = 0.0
    for b, e in zip(r.boundaries, r.stretch_ends):
        if e > start and b < end:
            sleep += (sleep_between(cfg, b, min(e, end))
                      - sleep_between(cfg, b, start))
    # With no stretch enabled in the window, the threshold in effect.
    q_sum, count, in_effect = 0.0, 0, r.initial_threshold
    for b, q in zip(r.boundaries, r.thresholds):
        if start <= b < end:
            q_sum += q
            count += 1
        elif b < start:
            in_effect = q
    return (delay / served if served else math.nan, sleep / (end - start),
            q_sum / count if count else in_effect, served)


@st.composite
def window_edges(draw, r, cfg):
    # 0, the horizon, a boundary or a stretch end, or a point inside one of
    # the stretch's short cycles: in its sleep or in its on-duration.
    k = draw(st.integers(0, len(r.boundaries) - 1))
    u = draw(st.floats(0.0, 1.0, exclude_max=True))
    cycle = r.boundaries[k] + draw(st.integers(0, cfg.n_short - 1)) * cfg.t_short
    edge = draw(st.sampled_from([
        0.0, r.horizon, r.boundaries[k], r.stretch_ends[k],
        cycle + u * (cfg.t_short - cfg.t_on),
        cycle + (cfg.t_short - cfg.t_on) + u * cfg.t_on,
    ]))
    return min(edge, r.horizon)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(data=st.data(), arrivals=arrival_lists,
       timers=st.tuples(_grid(0.5, 4.0, 0.5), _grid(0.5, 20.0, 0.5),
                        _grid(0.0, 40.0, 0.5)),
       policy=st.one_of(policies, adaptive_policies))
def test_slice_stats_matches_scalar_walk(data, arrivals, timers, policy):
    # t_in = 0 enables DRX at 0, so every run has a stretch to cut.
    t_on, short_sleep, long_extra = timers
    cfg = DrxConfig(0.0, t_on, t_on + short_sleep,
                    t_on + short_sleep + long_extra, 3)
    r = simulate(arrivals, cfg, policy, HORIZON, 0.7)
    edges = data.draw(st.lists(window_edges(r, cfg), min_size=2, max_size=2,
                               unique=True))
    start, end = sorted(edges)
    assert (_bits(engine.slice_stats(r, start, end))
            == _bits(_slice_reference(r, cfg, start, end)))
