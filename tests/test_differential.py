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
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from drx_reference import reference_run
from drxsim.drx import DrxConfig, Policy
from drxsim.engine import simulate

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
    m, tx = r.metrics, r.tx_starts
    offered = [a for a in arrivals if a < HORIZON]

    # Served plus residual backlog is every arrival; service is FIFO.
    assert m.arrivals == len(offered)
    assert m.packets_served == len(tx) <= m.arrivals
    assert r.arrivals == tuple(offered[:len(tx)])
    for a, t in zip(r.arrivals, tx):
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
