"""Unit tests for the threshold tuner."""

from __future__ import annotations

import math

import numpy as np
import pytest

from drxsim.analytic import (
    dmean_wait_dq,
    gamma_poisson,
    mean_wait_poisson_raw,
)
from drxsim.controller import (
    ControllerState,
    initial_state,
    q_max_from_bound,
    update_threshold,
)
from model_reference import equilibrium_threshold

TW = 14.0625


class TestQMax:
    @pytest.mark.parametrize(
        "w_max,s_max,expected", [(1024, 1, 1024), (128, 1, 128), (100, 2, 50)]
    )
    def test_values(self, w_max, s_max, expected):
        assert q_max_from_bound(w_max, s_max) == expected

    def test_preconditions(self):
        with pytest.raises(ValueError):
            q_max_from_bound(0, 1)
        with pytest.raises(ValueError):
            q_max_from_bound(10, 0)


class TestUpdate:
    def test_plain_step(self):
        cs = ControllerState(q_w=10, q_max=128, w_star=64)
        out = update_threshold(cs, lambda_hat=0.5, w_hat=60)
        assert out.q_w == pytest.approx(14.0)

    def test_lower_clamp(self):
        cs = ControllerState(q_w=2, q_max=128, w_star=64)
        out = update_threshold(cs, 0.5, 200)  # raw update lands at -134
        assert out.q_w == 1.0

    def test_upper_clamp(self):
        cs = ControllerState(q_w=120, q_max=128, w_star=512)
        out = update_threshold(cs, 0.5, 100)  # raw update lands at 532
        assert out.q_w == 128.0

    def test_fixed_point(self):
        cs = ControllerState(q_w=37.5, q_max=128, w_star=64)
        assert update_threshold(cs, 0.7, 64).q_w == 37.5

    def test_sign_correctness(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            cs = ControllerState(
                q_w=float(rng.uniform(1, 128)), q_max=128.0,
                w_star=float(rng.uniform(1, 512)),
            )
            lam = float(rng.uniform(0.01, 2.0))
            w_hat = float(rng.uniform(0, 1024))
            out = update_threshold(cs, lam, w_hat)
            if w_hat > cs.w_star:
                assert out.q_w <= cs.q_w
            elif w_hat < cs.w_star:
                assert out.q_w >= cs.q_w

    def test_clamp_for_arbitrary_inputs(self):
        rng = np.random.default_rng(22)
        for _ in range(500):
            q_max = float(rng.uniform(1, 2048))
            cs = ControllerState(
                q_w=float(rng.uniform(1, q_max)), q_max=q_max,
                w_star=float(rng.uniform(0.1, 1e4)),
            )
            out = update_threshold(cs, float(rng.uniform(1e-3, 10)),
                                   float(rng.uniform(0, 1e6)))
            assert 1.0 <= out.q_w <= q_max

    def test_preconditions(self):
        cs = initial_state(64, 128)
        with pytest.raises(ValueError):
            update_threshold(cs, 0.0, 10)
        with pytest.raises(ValueError):
            update_threshold(cs, 0.5, -1)

    def test_state_invariants(self):
        with pytest.raises(ValueError):
            ControllerState(q_w=0.5, q_max=128, w_star=64)
        with pytest.raises(ValueError):
            ControllerState(q_w=200, q_max=128, w_star=64)
        with pytest.raises(ValueError):
            ControllerState(q_w=1, q_max=128, w_star=0)


class TestClosedLoopAgainstModel:
    """Iterate the tuner against the analytic delay model as the plant.

    Restricted here to the standard operating regime (DRX parameters of the
    experiment suites, reachable targets); the full stability-grid version
    lives in the acceptance suite.
    """

    @pytest.mark.parametrize("lam", [0.1, 0.2, 0.3, 0.4, 0.5])
    @pytest.mark.parametrize("w_star", [64.0, 512.0])
    def test_converges_to_target(self, lam, w_star):
        g = gamma_poisson(lam, 10)
        q_eq = equilibrium_threshold(lam, w_star, TW, g, q_max=1e9)
        gain = 2.0 * lam * dmean_wait_dq(lam, q_eq, TW, g)
        assert 0.0 < gain < 2.0
        q = 1.0
        for _ in range(200):
            w = mean_wait_poisson_raw(lam, 1.0, 0.0, q, TW, g)
            q = max(q + 2.0 * lam * (w_star - w), 1.0)
        final = mean_wait_poisson_raw(lam, 1.0, 0.0, q, TW, g)
        assert abs(final - w_star) < 0.1


@pytest.mark.parametrize("call, message", [
    (lambda: q_max_from_bound(math.nan, 1), "w_max and s_max must be > 0"),
    (lambda: q_max_from_bound(10, math.nan), "w_max and s_max must be > 0"),
    (lambda: initial_state(math.nan, 128), "w_star must be > 0"),
    (lambda: initial_state(64, math.nan), "q_max must be >= 1"),
    (lambda: ControllerState(math.nan, 128, 64), "q_w must lie in"),
    (lambda: update_threshold(initial_state(64, 128), math.nan, 10),
     "lambda_hat must be > 0"),
    (lambda: update_threshold(initial_state(64, 128), 0.5, math.nan),
     "w_hat must be >= 0"),
], ids=["q_max_from_bound-w_max", "q_max_from_bound-s_max",
        "initial_state-w_star", "initial_state-q_max", "ControllerState-q_w",
        "update_threshold-lambda_hat", "update_threshold-w_hat"])
def test_nan_argument_rejected(call, message):
    # NaN fails every comparison, so each check is written to accept.
    with pytest.raises(ValueError, match=f"^{message}"):
        call()
