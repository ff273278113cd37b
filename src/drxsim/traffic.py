"""Arrival-process generation and trace ingestion.

Generators are pure functions of (parameters, seed) backed by numpy's PCG64
generator, so identical inputs always reproduce identical streams, across
platforms.  The Pareto sampler uses plain inverse-transform sampling on the
generator's 64-bit uniforms (``gap = x_m * (1 - U) ** (-1/shape)``), kept
explicit here rather than through ``numpy.random.pareto`` so the draw count
per gap is pinned to one and streams stay stable across numpy versions.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np


class TraceFormatError(ValueError):
    """A trace line failed to parse; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, slots=True)
class ArrivalStream:
    """A finite, time-ordered sequence of packet arrival instants (ms)."""

    arrivals: tuple[float, ...]
    horizon: float

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        prev = 0.0
        for i, t in enumerate(self.arrivals):
            if t < prev:
                raise ValueError(f"arrivals not sorted at index {i}: {t} < {prev}")
            prev = t
        if self.arrivals and self.arrivals[-1] > self.horizon:
            raise ValueError(
                f"arrival {self.arrivals[-1]} beyond horizon {self.horizon}"
            )

    def __len__(self) -> int:
        return len(self.arrivals)


def _accumulate_gaps(rng: np.random.Generator, draw, rate: float,
                     horizon: float) -> list[float]:
    # Draw in chunks until the running sum passes the horizon.
    out: list[float] = []
    t = 0.0
    chunk = max(int(rate * horizon * 1.05) + 16, 64)
    while True:
        ts = t + np.cumsum(draw(rng, chunk))
        cut = int(np.searchsorted(ts, horizon, side="right"))
        out.extend(ts[:cut].tolist())
        if cut < len(ts):
            return out
        t = float(ts[-1])
        chunk = max(chunk // 4, 64)


def gen_poisson(rate: float, horizon: float, seed: int) -> ArrivalStream:
    """Poisson arrivals: i.i.d. exponential gaps with mean ``1/rate`` ms."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    rng = np.random.default_rng(seed)
    scale = 1.0 / rate
    arr = _accumulate_gaps(rng, lambda r, n: r.exponential(scale, n), rate, horizon)
    return ArrivalStream(tuple(arr), horizon)


def gen_pareto(rate: float, shape: float, horizon: float, seed: int) -> ArrivalStream:
    """Pareto-renewal arrivals with the scale chosen so the mean gap is 1/rate.

    Requires ``shape > 1`` (finite mean); the scale is
    ``x_m = (shape - 1) / (shape * rate)``.  Shapes at or below 1 have an
    infinite mean gap and are rejected.
    """
    if shape <= 1.0:
        raise ValueError(f"shape must be > 1 for a finite mean, got {shape}")
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    rng = np.random.default_rng(seed)
    x_m = (shape - 1.0) / (shape * rate)
    inv = -1.0 / shape

    def draw(r: np.random.Generator, n: int) -> np.ndarray:
        # 1 - U is in (0, 1], so the power stays finite.
        return x_m * (1.0 - r.random(n)) ** inv

    arr = _accumulate_gaps(rng, draw, rate, horizon)
    return ArrivalStream(tuple(arr), horizon)


def gen_schedule(segments: Iterable[tuple[float, float]], seed: int) -> ArrivalStream:
    """Piecewise-constant-rate Poisson arrivals.

    ``segments`` is a sequence of (duration ms, rate packets/ms).  Each
    segment draws fresh exponential gaps from its start; by memorylessness
    this is an exact construction of the piecewise-homogeneous process.
    """
    rng = np.random.default_rng(seed)
    out: list[float] = []
    t0 = 0.0
    for dur, rate in segments:
        if dur <= 0:
            raise ValueError(f"segment duration must be > 0, got {dur}")
        if rate <= 0:
            raise ValueError(f"segment rate must be > 0, got {rate}")
        end = t0 + dur
        t = t0
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= end:
                break
            out.append(t)
        t0 = end
    return ArrivalStream(tuple(out), t0)


def load_trace(source: str | bytes | IO) -> ArrivalStream:
    """Parse a plain-text arrival trace.

    One arrival per line: ``timestamp_ms`` optionally followed by
    ``,size_bytes``.  Lines starting with ``#`` and blank lines are skipped.
    Timestamps are decimal milliseconds and must be nondecreasing.  The size
    column is accepted and ignored (service is one PSF per packet regardless).
    The stream horizon is the last timestamp; empty input gives an empty
    stream with horizon 0.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw

    arrivals: list[float] = []
    prev = 0.0
    for lineno, line in enumerate(io.StringIO(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split(",")
        if len(fields) > 2:
            raise TraceFormatError(
                f"expected 'timestamp[,size]', got {len(fields)} fields", lineno
            )
        try:
            ts = float(fields[0])
        except ValueError:
            raise TraceFormatError(
                f"bad timestamp {fields[0]!r}", lineno
            ) from None
        if len(fields) == 2:
            try:
                int(fields[1])
            except ValueError:
                raise TraceFormatError(
                    f"bad size field {fields[1]!r}", lineno
                ) from None
        if not math.isfinite(ts) or ts < 0:
            raise TraceFormatError(f"timestamp out of range: {ts}", lineno)
        if ts < prev:
            raise TraceFormatError(
                f"timestamps must be nondecreasing ({ts} after {prev})", lineno
            )
        arrivals.append(ts)
        prev = ts
    horizon = arrivals[-1] if arrivals else 0.0
    return ArrivalStream(tuple(arrivals), horizon)


def serialize_trace(stream: ArrivalStream) -> str:
    """Inverse of ``load_trace`` for valid streams (timestamps only)."""
    return "".join(f"{t!r}\n" for t in stream.arrivals)
