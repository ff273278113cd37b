"""Unit tests for the DRX domain types and the reference UE state machine.

The state machine lives in ``tests/drx_reference.py``: the engine does not
step it, the differential test uses it as the oracle.  Covers:
  - config and policy invariants reject malformed parameters
  - cycle-length schedule (short cycles first, then long)
  - release thresholds, including ceiling quantisation of real thresholds
  - every legal (mode, event) transition and, exhaustively, every illegal one
  - strict sleep/listen alternation while DRX is enabled
"""

from __future__ import annotations

import math

import pytest

from drx_reference import (
    DrxEvent,
    Mode,
    ProtocolError,
    UeState,
    advance,
    enter_countdown,
    initial_state,
    next_cycle_length,
    release_condition,
)
from drxsim.drx import DrxConfig, Policy, PolicyKind

CFG = DrxConfig(t_in=10, t_on=2, t_short=32, t_long=64, n_short=3)


class TestConfig:
    def test_valid(self):
        DrxConfig(10, 2, 32, 32, 0)
        DrxConfig(0, 1, 16, 64, 2)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(t_in=-1, t_on=2, t_short=32, t_long=32),
            dict(t_in=10, t_on=0, t_short=32, t_long=32),
            dict(t_in=10, t_on=32, t_short=32, t_long=32),  # t_on == t_short
            dict(t_in=10, t_on=2, t_short=64, t_long=32),  # short > long
            dict(t_in=10, t_on=2, t_short=32, t_long=32, n_short=-1),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            DrxConfig(**kw)

    @pytest.mark.parametrize("n_short", [2.5, 2.0, True, 1e300],
                             ids=["fraction", "float", "bool", "huge"])
    def test_n_short_must_be_int(self, n_short):
        # A run used to lay out 2.5 short cycles without error.
        with pytest.raises(ValueError, match="^n_short must be an int"):
            DrxConfig(10, 2, 8, 32, n_short)

    def test_policy_invariants(self):
        with pytest.raises(ValueError):
            Policy.fixed(0.5)
        with pytest.raises(ValueError):
            Policy(PolicyKind.STANDARD, q_w=8)  # standard DRX is threshold 1
        with pytest.raises(ValueError):
            Policy.adaptive(64, 32)  # w_max < w_star
        with pytest.raises(ValueError):
            Policy.adaptive(0, 10)
        Policy.adaptive(64, 64)


class TestNextCycleLength:
    def test_short_phase(self):
        assert next_cycle_length(0, CFG) == 32

    def test_long_phase(self):
        assert next_cycle_length(3, CFG) == 64

    def test_equal_cycles(self):
        cfg = DrxConfig(10, 2, 32, 32, 0)
        assert next_cycle_length(5, cfg) == 32

    def test_constant_when_no_short_cycles(self):
        cfg = DrxConfig(10, 2, 32, 48, 0)
        assert len({next_cycle_length(k, cfg) for k in range(20)}) == 1

    def test_constant_when_lengths_equal(self):
        cfg = DrxConfig(10, 2, 32, 32, 7)
        assert len({next_cycle_length(k, cfg) for k in range(20)}) == 1

    def test_negative_index(self):
        with pytest.raises(ValueError):
            next_cycle_length(-1, CFG)


class TestReleaseCondition:
    def test_standard_any_backlog(self):
        assert release_condition(1, Policy.standard())
        assert not release_condition(0, Policy.standard())

    def test_fixed_below_threshold(self):
        assert not release_condition(2, Policy.fixed(3))

    def test_fixed_at_threshold(self):
        assert release_condition(3, Policy.fixed(3))

    def test_real_threshold_uses_ceiling(self):
        assert not release_condition(3, Policy.fixed(3.2))
        assert release_condition(4, Policy.fixed(3.2))

    def test_adaptive_needs_current_threshold(self):
        pol = Policy.adaptive(64, 128)
        with pytest.raises(ValueError):
            release_condition(5, pol)
        assert release_condition(5, pol, current_q_w=4.5)
        assert not release_condition(4, pol, current_q_w=4.5)

    def test_negative_queue(self):
        with pytest.raises(ValueError):
            release_condition(-1, Policy.standard())


class TestAdvance:
    def test_inactivity_expiry_enables_drx(self):
        s = UeState(Mode.INACTIVITY_COUNTDOWN, 0, 100.0)
        s2 = advance(s, DrxEvent.INACTIVITY_EXPIRY, CFG)
        assert s2.mode is Mode.SLEEPING
        assert s2.cycle_index == 0
        # first listening window opens t_short - t_on after enabling
        assert s2.next_event_at == 100.0 + 32 - 2

    def test_release_from_on_duration(self):
        s = UeState(Mode.ON_DURATION, 2, 500.0)
        s2 = advance(s, DrxEvent.RELEASE_TRIGGERED, CFG)
        assert s2.mode is Mode.ACTIVE
        assert s2.cycle_index == 0

    def test_release_while_active_re_arms(self):
        s = UeState(Mode.ACTIVE, 0, math.inf)
        assert advance(s, DrxEvent.RELEASE_TRIGGERED, CFG).mode is Mode.ACTIVE

    def test_on_duration_end_completes_cycle(self):
        s = UeState(Mode.ON_DURATION, 0, 132.0)
        s2 = advance(s, DrxEvent.ON_DURATION_END, CFG)
        assert s2.mode is Mode.SLEEPING
        assert s2.cycle_index == 1

    def test_illegal_pair_example(self):
        with pytest.raises(ProtocolError):
            advance(UeState(Mode.SLEEPING, 0, 0.0), DrxEvent.ON_DURATION_END, CFG)

    def test_every_illegal_pair_raises(self):
        legal = {
            (Mode.INACTIVITY_COUNTDOWN, DrxEvent.INACTIVITY_EXPIRY),
            (Mode.SLEEPING, DrxEvent.ON_DURATION_START),
            (Mode.ON_DURATION, DrxEvent.ON_DURATION_END),
            (Mode.ON_DURATION, DrxEvent.RELEASE_TRIGGERED),
            (Mode.ACTIVE, DrxEvent.RELEASE_TRIGGERED),
        }
        for mode in Mode:
            for event in DrxEvent:
                state = UeState(mode, 1, 50.0)
                if (mode, event) in legal:
                    advance(state, event, CFG)
                else:
                    with pytest.raises(ProtocolError):
                        advance(state, event, CFG)

    def test_window_chain_two_phase(self):
        # Walk the machine through three short cycles and one long one and
        # collect the listening-window start times.
        s = advance(UeState(Mode.INACTIVITY_COUNTDOWN, 0, 0.0),
                    DrxEvent.INACTIVITY_EXPIRY, CFG)
        starts = []
        for _ in range(4):
            assert s.mode is Mode.SLEEPING
            starts.append(s.next_event_at)
            s = advance(s, DrxEvent.ON_DURATION_START, CFG)
            s = advance(s, DrxEvent.ON_DURATION_END, CFG)
        # cycle starts: 0, 32, 64, 96 (short x3), then 96+64; windows open
        # t_on before each cycle ends
        assert starts == [30.0, 62.0, 94.0, 158.0]
        assert s.cycle_index == 4

    def test_alternation_strict(self):
        # Between two window starts there is exactly one window end (or a
        # release, which leaves DRX entirely).
        s = advance(UeState(Mode.INACTIVITY_COUNTDOWN, 0, 0.0),
                    DrxEvent.INACTIVITY_EXPIRY, CFG)
        for _ in range(10):
            s = advance(s, DrxEvent.ON_DURATION_START, CFG)
            with pytest.raises(ProtocolError):
                advance(s, DrxEvent.ON_DURATION_START, CFG)
            s = advance(s, DrxEvent.ON_DURATION_END, CFG)
            with pytest.raises(ProtocolError):
                advance(s, DrxEvent.ON_DURATION_END, CFG)

    def test_countdown_entry(self):
        s = enter_countdown(UeState(Mode.ACTIVE, 0, math.inf), 40.0, CFG)
        assert s.mode is Mode.INACTIVITY_COUNTDOWN
        assert s.next_event_at == 50.0
        with pytest.raises(ProtocolError):
            enter_countdown(UeState(Mode.SLEEPING, 0, 0.0), 40.0, CFG)

    def test_initial_state(self):
        s = initial_state(CFG)
        assert s.mode is Mode.INACTIVITY_COUNTDOWN
        assert s.next_event_at == CFG.t_in
