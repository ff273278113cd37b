"""Unit tests for the closed-form delay model.

The expected numbers here are frozen from independent evaluations: direct
arithmetic for the simple forms, a high-precision (mpmath) evaluation of the
full mean-wait expression, central finite differences for the threshold
sensitivity, and the M/D/1 formula for the DRX-disabled limit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drxsim.analytic import (
    StabilityError,
    TrafficMoments,
    VacationMoments,
    dmean_wait_dq,
    equilibrium_threshold,
    extra_wait_tw,
    gamma_poisson,
    md1_wait,
    mean_wait_general,
    mean_wait_poisson,
    mean_wait_poisson_raw,
    poisson_vacation_moments,
)
from drxsim.drx import DrxConfig

CFG = DrxConfig(t_in=10, t_on=2, t_short=32, t_long=32)
TW = 14.0625  # (32 - 2)^2 / (2 * 32)
GAMMA_01 = math.e  # exp(0.1 * 10)


class TestExtraWait:
    def test_standard_config(self):
        assert extra_wait_tw(32, 2) == pytest.approx(900 / 64)

    def test_always_listening(self):
        assert extra_wait_tw(32, 32) == 0.0

    def test_long_cycle(self):
        assert extra_wait_tw(64, 2) == pytest.approx(3844 / 128)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            extra_wait_tw(32, 0)
        with pytest.raises(ValueError):
            extra_wait_tw(32, 33)


class TestGamma:
    def test_standard_point(self):
        assert gamma_poisson(0.1, 10) == pytest.approx(math.e, rel=1e-12)

    def test_zero_timer(self):
        assert gamma_poisson(0.7, 0) == 1.0

    def test_half_rate(self):
        assert gamma_poisson(0.5, 10) == pytest.approx(math.exp(5), rel=1e-12)

    def test_overflow_goes_to_inf(self):
        assert gamma_poisson(1.0, 1e6) == math.inf

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gamma_poisson(0.0, 10)
        with pytest.raises(ValueError):
            gamma_poisson(0.1, -1)


class TestFirstWaitMoments:
    def test_mean(self):
        vm = poisson_vacation_moments(0.1, 8, TW, GAMMA_01)
        assert vm.e_wf == pytest.approx(84.0625)

    def test_second_moment(self):
        vm = poisson_vacation_moments(0.1, 8, TW, GAMMA_01)
        assert vm.e_wf2 == pytest.approx(700 + 84.0625**2)

    def test_degenerate_single_packet(self):
        vm = poisson_vacation_moments(0.7, 1, 0.0, 1.0)
        assert (vm.e_wf, vm.e_wf2) == (0.0, 0.0)

    def test_threshold_below_one(self):
        with pytest.raises(ValueError):
            poisson_vacation_moments(0.1, 0.5, TW, GAMMA_01)


class TestMeanWaitPoisson:
    def test_reference_point(self):
        # md1_wait + [q(q-1)/(2 lam) + q t_w + lam t_w^2/2] / (q - 1 + lam t_w + g)
        # at lam 0.1, q 8, t_w 900/64, g e, evaluated with mpmath at 30
        # digits: 0.0555... + 80.5776... / 11.1245... = 36.22675821984225
        w = mean_wait_poisson(0.1, 1.0, 0.0, 8, CFG)
        assert w == pytest.approx(36.22675821984225, rel=1e-12)

    def test_term_decomposition(self):
        # Rebuild the reference value from an independent transcription.
        lam, q, g, a = 0.1, 8.0, GAMMA_01, 0.1 * TW
        t1 = (1 + 0.81) / (2 * 0.1 * 0.9)
        t2 = -(q - 1) / (lam * (q + a + g - 1))
        t3 = ((q + a) ** 2 - q - 2 * (a + g)) / (2 * lam * (q + a + g - 1))
        assert mean_wait_poisson(lam, 1.0, 0.0, q, CFG) == pytest.approx(
            t1 + t2 + t3, rel=1e-14
        )

    def test_requires_equal_cycles(self):
        with pytest.raises(ValueError):
            mean_wait_poisson(0.1, 1.0, 0.0, 8, DrxConfig(10, 2, 32, 64, 1))

    def test_unstable_load(self):
        with pytest.raises(StabilityError):
            mean_wait_poisson(1.0, 1.0, 0.0, 8, CFG)

    def test_threshold_below_one(self):
        with pytest.raises(ValueError):
            mean_wait_poisson(0.1, 1.0, 0.0, 0.0, CFG)

    def test_md1_limit_when_never_sleeping(self):
        # Giant inactivity timer: the UE never enters DRX, the threshold
        # never applies, and the model must collapse to the M/D/1 wait
        # (deterministic service) at every threshold.
        for q in (1, 8, 32, 128):
            for lam in (0.1, 0.5, 0.9):
                w = mean_wait_poisson(lam, 1.0, 0.0, q,
                                      DrxConfig(1e6, 2, 32, 32))
                assert w == pytest.approx(md1_wait(lam, 1.0), rel=1e-9), (q, lam)

    def test_overflow_guard_continuity(self):
        # The one expression, divided through by gamma, stays continuous and
        # finite for huge gamma.
        lam = 0.5
        w_plain = mean_wait_poisson_raw(lam, 1.0, 0.0, 8, TW, 1e12 * 0.99)
        w_divided = mean_wait_poisson_raw(lam, 1.0, 0.0, 8, TW, 1e12 * 1.01)
        assert w_plain == pytest.approx(w_divided, rel=1e-9)
        assert math.isfinite(
            mean_wait_poisson(0.9, 1.0, 0.0, 8, DrxConfig(1e5, 2, 32, 32))
        )


class TestSpecializationIdentity:
    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("q", [1, 2, 8, 32, 128])
    def test_general_reproduces_poisson(self, lam, q):
        tm = TrafficMoments(lam, 1.0, var_a=1.0 / lam**2, var_s=0.0)
        vm = poisson_vacation_moments(lam, q, TW, gamma_poisson(lam, 10))
        g = mean_wait_general(tm, q, vm)
        p = mean_wait_poisson(lam, 1.0, 0.0, q, CFG)
        assert g == pytest.approx(p, rel=1e-12)

    def test_degenerate_denominator(self):
        # E[Wf] + g E[I] == 0 is rejected at every gamma, infinite included.
        tm = TrafficMoments(0.5, 1.0, 4.0, 0.0)
        for gamma in (1.0, math.inf):
            vm = VacationMoments(e_i=0.0, e_i2=0.0, e_wf=0.0, e_wf2=0.0,
                                 gamma=gamma)
            with pytest.raises(ValueError, match="degenerate"):
                mean_wait_general(tm, 1, vm)

    def test_moment_invariants(self):
        with pytest.raises(StabilityError):
            TrafficMoments(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            VacationMoments(2.0, 1.0, 0.0, 0.0, 1.0)  # e_i2 < e_i^2
        with pytest.raises(ValueError):
            VacationMoments(1.0, 2.0, 1.0, 2.0, 0.5)  # gamma < 1


class TestThresholdSensitivity:
    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("q", [2.0, 8.0, 64.0])
    def test_matches_central_difference(self, lam, q):
        g = gamma_poisson(lam, 10)
        h = 1e-5 * q
        fd = (
            mean_wait_poisson_raw(lam, 1.0, 0.0, q + h, TW, g)
            - mean_wait_poisson_raw(lam, 1.0, 0.0, q - h, TW, g)
        ) / (2 * h)
        assert dmean_wait_dq(lam, q, TW, g) == pytest.approx(fd, rel=1e-8)

    def test_limit_large_threshold(self):
        assert dmean_wait_dq(0.2, 1e9, TW, 5.0) == pytest.approx(
            1.0 / (2 * 0.2), rel=1e-6
        )

    def test_limit_large_gamma(self):
        # DRX effectively disabled: the threshold no longer matters.
        assert dmean_wait_dq(0.2, 8.0, TW, math.inf) == 0.0
        # To first order in 1/g the slope is (2(q + a) - 1) / (2 lam g).
        a = 0.2 * TW
        assert dmean_wait_dq(0.2, 8.0, TW, 1e15) == pytest.approx(
            (2 * (8.0 + a) - 1) / (2 * 0.2 * 1e15), rel=1e-9
        )

    def test_preconditions(self):
        with pytest.raises(ValueError):
            dmean_wait_dq(0.1, 0.5, TW, 2.0)
        with pytest.raises(ValueError):
            dmean_wait_dq(0.1, 2.0, TW, 0.5)

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(
        lam=st.floats(1e-3, 0.999),
        q=st.floats(1.0, 1e6),
        t_w=st.floats(0.0, 1e3),
        gamma=st.one_of(st.floats(1.0, 1e300), st.just(math.inf)),
    )
    @example(lam=0.1, q=1.0, t_w=0.0, gamma=1.0)
    @example(lam=0.999, q=1e6, t_w=0.0, gamma=1.0)
    @example(lam=0.5, q=8.0, t_w=TW, gamma=math.inf)
    def test_loop_gain_in_unit_interval(self, lam, q, t_w, gamma):
        # The tuner's loop gain against the model, 2 lam * slope, lies in
        # (0, 1] for finite gamma and is exactly 0 at gamma = inf: the loop
        # never overshoots, and the slope is the only stability test needed.
        gain = 2.0 * lam * dmean_wait_dq(lam, q, t_w, gamma)
        assert 0.0 <= gain <= 1.0 + 4 * 2.0**-52
        if math.isinf(gamma):
            assert gain == 0.0
        else:
            assert gain > 0.0


class TestStabilityVerdict:
    """The paper's published stability inequalities, written out inline.

    The model's own stability test is the loop gain of
    ``test_loop_gain_in_unit_interval``; these pin the published
    conditions as printed.
    """

    def test_lower_inequality_value_at_2(self):
        # LHS of the slope-positivity inequality at q* = 2: about 0.831 < 1
        a = 0.1 * TW
        lhs = 2 / 4 - (a - GAMMA_01 * (GAMMA_01 + 1)) / (2 + a + GAMMA_01 - 1) ** 2
        assert lhs == pytest.approx(0.8313, abs=1e-3)
        assert lhs < 1

    def test_upper_inequality_sample_grid(self):
        for lam in (0.05, 0.3, 0.7, 1.0):
            for q in (1.0, 2.0, 16.0, 256.0):
                for g in (1.0, 2.0, 30.0, 150.0):
                    a = lam * TW
                    lhs = (a - g * (g + 1)) / (q + a + g - 1) ** 2 - 2 / q**2
                    assert lhs < 1.0


class TestMd1:
    @pytest.mark.parametrize(
        "lam,expected", [(0.5, 0.5), (0.9, 4.5), (0.1, 1 / 18)]
    )
    def test_values(self, lam, expected):
        assert md1_wait(lam, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_unstable(self):
        with pytest.raises(StabilityError):
            md1_wait(1.0, 1.0)


class TestMonotonicity:
    def test_sign_agreement_with_forward_differences(self):
        # Wherever the closed-form slope is meaningfully nonzero, the model
        # moves in the same direction.
        rng = np.random.default_rng(4)
        for _ in range(300):
            lam = float(rng.uniform(0.05, 0.95))
            q = float(rng.uniform(1.0, 256.0))
            t_in = float(rng.uniform(0.0, 30.0))
            g = gamma_poisson(lam, t_in)
            slope = dmean_wait_dq(lam, q, TW, g)
            h = max(1e-4 * q, 1e-6)
            fwd = (
                mean_wait_poisson_raw(lam, 1.0, 0.0, q + h, TW, g)
                - mean_wait_poisson_raw(lam, 1.0, 0.0, q, TW, g)
            ) / h
            if abs(slope) > 1e-6:
                assert math.copysign(1, slope) == math.copysign(1, fwd)

    def test_gamma_poisson_monotone(self):
        assert gamma_poisson(0.2, 10) < gamma_poisson(0.3, 10)
        assert gamma_poisson(0.2, 10) < gamma_poisson(0.2, 11)


class TestEquilibriumThreshold:
    def test_solves_target(self):
        g = gamma_poisson(0.2, 10)
        q = equilibrium_threshold(0.2, 512.0, TW, g, q_max=1024.0)
        assert mean_wait_poisson_raw(0.2, 1.0, 0.0, q, TW, g) == pytest.approx(
            512.0, abs=1e-6
        )

    def test_clamps_to_cap_when_unreachable(self):
        g = gamma_poisson(0.9, 10)
        assert equilibrium_threshold(0.9, 512.0, TW, g, q_max=1024.0) == 1024.0

    def test_clamps_to_floor_when_overshooting(self):
        g = gamma_poisson(0.9, 10)
        assert equilibrium_threshold(0.9, 1e-6, TW, g, q_max=1024.0) == 1.0
