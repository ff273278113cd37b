"""Traffic kinds: arrival-process generation and trace ingestion.

Each traffic kind is a frozen value type that checks its parameters once,
when it is built (every number finite, rates and durations > 0, a Pareto
shape > 1), draws its own stream, ``kind.arrivals(horizon, seed)``, and
reports the rows of its grid point, ``kind.report(horizon)``.
Draws are pure functions of (parameters, seed) backed by numpy's PCG64
generator, so identical inputs always reproduce identical streams, across
platforms.  The Pareto sampler uses plain inverse-transform sampling on the
generator's 64-bit uniforms (``gap = x_m * (1 - U) ** (-1/shape)``), kept
explicit here rather than through ``numpy.random.pareto`` so the draw count
per gap is pinned to one and streams stay stable across numpy versions.

A stream's arrivals are checked once, when its ``ArrivalStream`` is built
(``check_arrivals``: one comparison pass accepts a good stream, and only a
bad one is searched for the index to name); ``engine.simulate`` builds one
for any other input.  Poisson, Pareto and schedule streams come from one
renewal drawer (``_renewal``): it draws base variates in blocks and uses
them in order, one per gap, and each arrival instant is the in-order
running sum of the gaps from its segment's start (``np.cumsum`` adds in
order, like a scalar loop).  So a stream does not depend on the block size
or the horizon: drawn to a later horizon, it starts with the same instants.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class TraceFormatError(ValueError):
    """A trace line failed to parse; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def check_arrivals(arrivals: np.ndarray) -> None:
    """Raise ``ValueError`` unless the instants are finite and nondecreasing
    from 0 (so the first one is >= 0); errors name the first bad index."""
    if arrivals.ndim == 1 and (not len(arrivals) or (
            arrivals[0] >= 0.0 and arrivals[-1] < math.inf
            and (arrivals[1:] >= arrivals[:-1]).all())):
        return
    if arrivals.ndim != 1:
        raise ValueError(f"arrivals must be one-dimensional, got shape "
                         f"{arrivals.shape}")
    bad = ~np.isfinite(arrivals)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"arrival at index {i} is not finite: {arrivals[i]}")
    down = np.diff(arrivals, prepend=0.0) < 0.0
    if down.any():
        i = int(down.argmax())
        prev = arrivals[i - 1] if i else 0.0
        raise ValueError(
            f"arrivals not sorted at index {i}: {arrivals[i]} < {prev}")


@dataclass(frozen=True, slots=True, eq=False)
class ArrivalStream:
    """A finite, time-ordered sequence of packet arrival instants (ms).

    ``arrivals`` may be given as any sequence of floats; the stream keeps a
    read-only float64 ndarray copy of it.  A read-only float64 array that
    owns its data (as the traffic kinds draw) is kept without a copy.  The
    run that reads it drops the arrivals at or after its horizon.
    """

    arrivals: np.ndarray

    def __post_init__(self) -> None:
        arr = self.arrivals
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64
                and arr.flags.owndata and not arr.flags.writeable):
            arr = np.array(arr, dtype=np.float64)
        check_arrivals(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "arrivals", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArrivalStream):
            return NotImplemented
        return np.array_equal(self.arrivals, other.arrivals)

    def __len__(self) -> int:
        return len(self.arrivals)


def _running_sum(start: float, d: Sequence[float] | np.ndarray) -> float:
    # ``start + d[0] + d[1] + ...`` in order, as ``+=`` would add them;
    # never Python's ``sum``, which is compensated from CPython 3.12 on.
    return float(np.add.accumulate(np.concatenate(([start], d)))[-1])


def _check_above(name: str, value: float, low: float) -> None:
    # A real ``low < value < inf``, which NaN and strings fail too.
    if not (isinstance(value, numbers.Real) and low < value < math.inf):
        raise ValueError(f"{name} must be finite and > {low:g}, got {value!r}")


# ``kind.report``: the whole-run row's label and rate, and the windows
# (start, end, rate) that get rows of their own.
Report = tuple[str, float, list[tuple[float, float, float]]]


def _renewal(draw, segments) -> ArrivalStream:
    # A renewal stream over consecutive segments (end, rate, gaps), the
    # first starting at 0.  ``draw(n)`` gives n base variates; ``gaps``
    # turns them into gaps.  A segment's arrivals are the running sums of
    # its gaps from its start, before its end; the draw that crosses the
    # end is spent, and the next segment goes on from the one after it.
    parts: list[np.ndarray] = []
    pool = np.empty(0)
    t = 0.0
    for end, rate, gaps in segments:
        while True:
            if not len(pool):
                pool = draw(int(rate * (end - t) * 1.05) + 16)
            ts = gaps(pool)
            ts[0] += t
            np.cumsum(ts, out=ts)
            cut = int(np.searchsorted(ts, end, side="left"))
            parts.append(ts[:cut])
            pool = pool[cut + 1:]
            if cut < len(ts):
                break
            t = float(ts[-1])
        t = end
    # Free the last block before the copy below: kept live, it makes glibc
    # map fresh pages for the copy (about 100 page faults per dense draw).
    del pool
    arr = np.concatenate(parts)  # new and read-only: kept without a copy
    arr.flags.writeable = False
    return ArrivalStream(arr)


@dataclass(frozen=True, slots=True)
class PoissonTraffic:
    """Poisson arrivals: i.i.d. exponential gaps with mean ``1/rate`` ms."""

    rate: float

    def __post_init__(self) -> None:
        _check_above("rate", self.rate, 0.0)

    def arrivals(self, horizon: float, seed: int) -> ArrivalStream:
        _check_above("horizon", horizon, 0.0)
        gaps = functools.partial(np.multiply, 1.0 / self.rate)
        return _renewal(np.random.default_rng(seed).standard_exponential,
                        [(horizon, self.rate, gaps)])

    def report(self, horizon: float) -> Report:
        return "poisson", self.rate, []


@dataclass(frozen=True, slots=True)
class ParetoTraffic:
    """Pareto-renewal arrivals with the scale chosen so the mean gap is 1/rate.

    The shape must exceed 1 (a finite mean); the scale is
    ``x_m = (shape - 1) / (shape * rate)``.
    """

    rate: float
    shape: float

    def __post_init__(self) -> None:
        _check_above("rate", self.rate, 0.0)
        _check_above("shape", self.shape, 1.0)

    def arrivals(self, horizon: float, seed: int) -> ArrivalStream:
        _check_above("horizon", horizon, 0.0)
        x_m = (self.shape - 1.0) / (self.shape * self.rate)
        inv = -1.0 / self.shape

        def gaps(u: np.ndarray) -> np.ndarray:
            # 1 - U is in (0, 1], so the power stays finite.
            return x_m * (1.0 - u) ** inv

        return _renewal(np.random.default_rng(seed).random,
                        [(horizon, self.rate, gaps)])

    def report(self, horizon: float) -> Report:
        return f"pareto({self.shape!r})", self.rate, []


@dataclass(frozen=True, slots=True)
class TraceTraffic:
    """A recorded arrival file, parsed once per version (path, mtime, size)
    and shared by the runs; the stream spans it, whatever horizon and seed."""

    path: str

    def arrivals(self, horizon: float, seed: int) -> ArrivalStream:
        try:
            st = os.stat(self.path)
        except OSError:
            raise FileNotFoundError(
                f"trace file not found: {self.path}") from None
        return _read_trace(self.path, st.st_mtime_ns, st.st_size)

    def report(self, horizon: float) -> Report:
        """The rate is the file's arrivals before ``horizon`` per ms."""
        _check_above("horizon", horizon, 0.0)
        n = np.searchsorted(self.arrivals(horizon, 0).arrivals, horizon,
                            side="left")
        return f"trace:{os.path.basename(self.path)}", int(n) / horizon, []


@dataclass(frozen=True, slots=True)
class ScheduleTraffic:
    """Piecewise-constant-rate Poisson arrivals: ((duration ms, rate), ...).

    Each segment draws fresh exponential gaps from its start; by
    memorylessness this is an exact construction of the
    piecewise-homogeneous process.
    """

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        for dur, rate in self.segments:
            _check_above("segment duration", dur, 0.0)
            _check_above("segment rate", rate, 0.0)

    def arrivals(self, horizon: float, seed: int) -> ArrivalStream:
        """The whole schedule's stream, whatever ``horizon``."""
        segments = []
        end = 0.0
        for dur, rate in self.segments:
            end += dur
            segments.append((end, rate, functools.partial(np.multiply,
                                                          1.0 / rate)))
        return _renewal(np.random.default_rng(seed).standard_exponential,
                        segments)

    def report(self, horizon: float) -> Report:
        """One window per segment before ``horizon``, the last ending the
        run, and their mean rate.  A segment shorter than the float spacing
        at its start adds no time and gets no window."""
        _check_above("horizon", horizon, 0.0)
        windows = []
        start = 0.0
        for dur, rate in self.segments:
            if start >= horizon:
                break
            end = min(start + dur, horizon)
            if end > start:
                windows.append((start, end, rate))
                start = end
        end = windows[-1][1]
        rate = _running_sum(0.0, [(e - s) * r for s, e, r in windows]) / end
        return "schedule:overall", rate, windows


TrafficKind = PoissonTraffic | ParetoTraffic | TraceTraffic | ScheduleTraffic


@functools.lru_cache(maxsize=8)
def _read_trace(path: str, mtime_ns: int, size: int) -> ArrivalStream:
    with open(path, encoding="utf-8") as fh:
        return load_trace(fh.read())


def load_trace(text: str) -> ArrivalStream:
    """Parse the text of an arrival trace.

    One arrival per line: ``timestamp_ms`` optionally followed by
    ``,size_bytes``.  Lines starting with ``#`` and blank lines are skipped.
    Timestamps are decimal milliseconds, ASCII digits with at most one
    ``.``, and must be nondecreasing.  The size column, ASCII digits only,
    is checked and ignored (service is one PSF per packet regardless).
    Empty input gives an empty stream.
    """
    arrivals: list[float] = []
    prev = 0.0
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split(",")
        if len(fields) > 2:
            raise TraceFormatError(
                f"expected 'timestamp[,size]', got {len(fields)} fields", lineno
            )
        if not (fields[0].isascii()
                and fields[0].replace(".", "", 1).isdigit()):
            raise TraceFormatError(f"bad timestamp {fields[0]!r}", lineno)
        ts = float(fields[0])
        if len(fields) == 2 and not (
                fields[1].isascii() and fields[1].isdigit()):
            raise TraceFormatError(f"bad size field {fields[1]!r}", lineno)
        if not math.isfinite(ts) or ts < 0:
            raise TraceFormatError(f"timestamp out of range: {ts}", lineno)
        if ts < prev:
            raise TraceFormatError(
                f"timestamps must be nondecreasing ({ts} after {prev})", lineno
            )
        arrivals.append(ts)
        prev = ts
    return ArrivalStream(arrivals)
