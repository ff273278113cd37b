"""Sweep benchmark for drxsim: time of replicated sweeps, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload static_dense --seed 1 --seconds 20 --trace 0

Each workload is an experiment spec generated from the workload seed.  A run
drives the public sweep API (``cli.parse_spec`` -> ``cli.run_experiment(spec,
jobs=1)`` -> ``cli.emit_csv``) repeatedly, in this one process, for
``--seconds`` seconds, checks every grid point of every sweep, and prints one
JSON object as the last line of standard output.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates plain and traced sweeps and
reports the per-layer metrics.  Times are rescaled to a nominal host speed
measured by a calibration loop (see CAL_NOMINAL_S).  A fuller record
(environment, raw host times, per-point digest, per-function timings, notes)
goes to ``perfbench/results/``.
``--workload all`` runs every workload in turn and exits non-zero if any
grid point of any of them fails the output check.

See ``perfbench/NOTES.md`` for why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
RESULTS_DIR = BENCH_DIR / "results"

REFERENCE_SEED = 1
SETUP_PROBES = 5
MIN_TIMED_SWEEPS = 3
# Host speed drifts by up to 1.5x over seconds to minutes on a shared VM.  A
# fixed pure-Python loop, timed just before every sweep and around every
# set-up probe, measures that speed.  Each sweep's times are rescaled to a
# nominal host on which the loop takes CAL_NOMINAL_S, its typical time on the
# 2-vCPU x86-64 VM the benchmark was sized on.  Raw host times stay in the
# record.
CAL_NOMINAL_S = 0.0075
CAL_REPEATS = 3
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
REL_TOL = 1e-12  # golden tolerance for simulated floats
MAX_ERRORS = 5  # kept per failed grid point
LAYER_MODULES = ("traffic", "engine", "controller", "cli")

# Policies are listed in the order cli.parse_spec emits them: standard,
# then fixed thresholds, then adaptive (w_star, w_max) pairs.  Sizes keep a
# sweep near 0.3 s, so the calibration before it matches its host speed.
# ``tail`` is the percentile the run size is meant to give; a run goes on past
# --seconds until it has 10 samples beyond it.
WORKLOADS = {
    "static_dense": dict(
        kind="poisson", rates=(0.5, 0.6, 0.7, 0.8, 0.9),
        policies=(("standard",), ("fixed", 8), ("fixed", 32), ("fixed", 128)),
        horizon=25000.0, seeds=2, tail=99.0),
    "static_sparse": dict(
        kind="poisson", rates=(0.05, 0.1, 0.15, 0.2),
        policies=(("standard",), ("fixed", 2), ("fixed", 4), ("fixed", 8)),
        horizon=100000.0, seeds=2, tail=99.0),
    "adaptive_heavytail": dict(
        kind="pareto", shape=1.5, rates=(0.1, 0.3, 0.5, 0.7, 0.9),
        policies=(("adaptive", 64, 128), ("adaptive", 512, 1024)),
        horizon=25000.0, seeds=2, tail=99.0),
    "dynamic_detail": dict(
        kind="schedule", segments=((10000.0, 0.1), (10000.0, 0.2), (10000.0, 0.4),
                                   (10000.0, 0.2), (10000.0, 0.1)),
        policies=(("adaptive", 64, 128), ("adaptive", 512, 1024)),
        seeds=5, tail=95.0),
}

END_TO_END_UNITS = {
    "wall_s": "s", "pkts_per_s": "1/s", "run_ms_p50": "ms", "run_ms_tail": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "points_ok": "ratio",
}

PER_LAYER_UNITS = {
    "traffic.gen_s": "s", "traffic.validate_s": "s", "traffic.arrivals": "count",
    "traffic.ns_per_arrival": "ns", "traffic.ema_s": "s",
    "traffic.ema_calls": "count",
    "engine.simulate_s": "s", "engine.loop_self_s": "s",
    "engine.ns_per_packet": "ns", "engine.packets": "count",
    "engine.cycles": "count", "engine.packets_per_cycle": "count",
    "engine.ci_s": "s", "engine.slice_s": "s",
    "controller.updates": "count", "controller.clamp_low": "count",
    "controller.clamp_high": "count", "controller.s": "s",
    "cli.parse_s": "s", "cli.aggregate_s": "s", "cli.emit_s": "s",
    "cli.points": "count", "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no drxsim sources)."""


# --------------------------------------------------------------------------
# Workload definition


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    scale: float
    kind: str
    policies: tuple
    rates: tuple | None
    shape: float | None
    segments: tuple | None
    horizon: float
    run_seeds: tuple[int, ...]
    tail: float

    def spec_text(self) -> str:
        lines = ["[run]", f"horizon = {self.horizon!r}", "psf = 1",
                 "seeds = " + " ".join(map(str, self.run_seeds)),
                 "confidence = 0.95", "", "[traffic]", f"kind = {self.kind}"]
        if self.rates is not None:
            lines.append("rates = " + " ".join(map(repr, self.rates)))
        if self.shape is not None:
            lines.append(f"shape = {self.shape!r}")
        if self.segments is not None:
            lines.append("segments = " + " ".join(
                f"{d!r}:{r!r}" for d, r in self.segments))
        lines += ["", "[policies]"]
        fixed = [p[1] for p in self.policies if p[0] == "fixed"]
        adaptive = [p[1:] for p in self.policies if p[0] == "adaptive"]
        if ("standard",) in self.policies:
            lines.append("standard = on")
        if fixed:
            lines.append("fixed = " + " ".join(map(repr, fixed)))
        if adaptive:
            lines.append("adaptive = " + " ".join(f"{w}:{m}" for w, m in adaptive))
        return "\n".join(lines) + "\n"

    def grid(self) -> list[tuple[tuple, float | None]]:
        """Grid points in the order run_experiment executes them."""
        if self.rates is None:
            return [(p, None) for p in self.policies]
        return [(p, r) for p in self.policies for r in self.rates]

    def rows_per_point(self) -> int:
        return 1 if self.segments is None else len(self.segments) + 1


def make_workload(name: str, seed: int, scale: float = 1.0) -> Workload:
    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    w = WORKLOADS[name]
    rng = random.Random(seed)
    run_seeds = tuple(rng.sample(range(1, 2**31 - 1), w["seeds"]))
    segments = None
    if "segments" in w:
        segments = tuple((d * scale, r) for d, r in w["segments"])
        horizon = sum(d for d, _ in segments)
    else:
        horizon = w["horizon"] * scale
    return Workload(name=name, seed=seed, scale=scale, kind=w["kind"],
                    policies=w["policies"], rates=w.get("rates"),
                    shape=w.get("shape"), segments=segments, horizon=horizon,
                    run_seeds=run_seeds, tail=w["tail"])


# --------------------------------------------------------------------------
# Wrapping module-level functions of drxsim from outside


def _drxsim_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "drxsim" or n.startswith("drxsim."))]


class Patches:
    """Replace a function by a wrapper in every drxsim namespace that holds it.

    cli imports several engine functions by name, so patching only the
    defining module would miss those calls.
    """

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, wrapper) -> None:
        for mod in _drxsim_modules():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, fn))

    def restore(self) -> None:
        while self._undo:
            mod, name, fn = self._undo.pop()
            setattr(mod, name, fn)


def _run_stats(result) -> tuple:
    """(served, arrivals, cycles, mean_delay, sleep_frac, mean_q_w) of a run."""
    m = getattr(result, "metrics", result)
    return (m.packets_served, m.arrivals, len(m.per_cycle), m.mean_delay,
            m.sleep_fraction, m.mean_q_w)


class RunRecorder:
    """Times each (grid point, seed) run: one timer around engine.run and
    engine.run_detailed, the public per-run entry points.  This is the only
    wrapper present during untraced sweeps."""

    def __init__(self, engine, patches: Patches):
        self.samples: list[tuple[float, tuple]] = []
        for name in ("run", "run_detailed"):
            fn = getattr(engine, name, None)
            if fn is None:
                raise BenchError(f"drxsim.engine.{name} not found: the "
                                 "benchmark times runs through it")
            patches.wrap(fn, self._wrapper(fn))

    def _wrapper(self, fn):
        samples = self.samples
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed_run(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            samples.append((dt, _run_stats(out)))
            return out
        return timed_run


class Tracer:
    """Wraps every module-level function of the layer modules with a span.

    Spans nest through a stack, so each function gets calls, total time and
    self time (total minus time in wrapped callees).  A few observers add
    counts read from return values.  A hook that a later version of drxsim
    no longer has is reported as absent, never as an error.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.stack: list[float] = []
        self.stats: dict[str, list] = {}   # key -> [calls, total_s, child_s]
        self.counts: dict[str, float] = {}
        self.notes: list[str] = []

    def reset(self) -> None:
        self.stack.clear()
        for s in self.stats.values():
            s[0] = 0
            s[1] = s[2] = 0.0
        self.counts = {k: 0 for k in ("arrivals", "validate_s", "packets",
                                      "cycles", "clamp_low", "clamp_high")}

    def install(self, patches: Patches) -> None:
        seen: set[int] = set()
        for short, mod in self.modules.items():
            for name, fn in list(vars(mod).items()):
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or id(fn) in seen):
                    continue
                seen.add(id(fn))
                key = f"{short}.{name}"
                self.stats.setdefault(key, [0, 0.0, 0.0])
                observer = self._observers.get(key)
                patches.wrap(fn, self._wrapper(fn, key, observer))
        self.reset()

    def _wrapper(self, fn, key, observer):
        stat = self.stats[key]
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += child
            if observer is not None:
                observer(tracer, out)
            return out
        return span

    def _note_once(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def _observe_arrivals(self, stream) -> None:
        try:
            self.counts["arrivals"] += len(stream)
            # Validation cost: rebuild the stream from its own fields, which
            # reruns the checks in its constructor.  Runs outside the
            # make_arrivals span.
            t0 = time.perf_counter()
            dataclasses.replace(stream)
            self.counts["validate_s"] += time.perf_counter() - t0
        except (TypeError, AttributeError) as exc:
            self.counts["validate_s"] = math.nan
            self._note_once(f"traffic.validate_s: cannot rebuild the arrival "
                            f"stream ({exc})")

    def _observe_simulate(self, result) -> None:
        try:
            served, _, cycles, *_ = _run_stats(result)
        except (TypeError, AttributeError) as exc:
            self.counts["packets"] = self.counts["cycles"] = math.nan
            self._note_once(f"engine.packets/cycles: unreadable result ({exc})")
            return
        self.counts["packets"] += served
        self.counts["cycles"] += cycles

    def _observe_update(self, state) -> None:
        try:
            q_w, q_max = state.q_w, state.q_max
        except AttributeError as exc:
            self.counts["clamp_low"] = self.counts["clamp_high"] = math.nan
            self._note_once(f"controller.clamp_*: unreadable state ({exc})")
            return
        self.counts["clamp_low"] += q_w == 1.0
        self.counts["clamp_high"] += q_w == q_max

    _observers = {
        "engine.make_arrivals": _observe_arrivals,
        "engine.simulate": _observe_simulate,
        "controller.update_threshold": _observe_update,
    }

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}


def layer_values(snap: dict, points: int) -> tuple[dict, dict]:
    """Named per-layer metrics of one traced sweep; absent ones get a note."""
    stats, counts = snap["stats"], snap["counts"]
    values: dict[str, float] = {}
    absent: dict[str, str] = {}

    def total(key):
        return stats[key][1] if key in stats else None

    def need(names, *keys):
        missing = [k for k in keys if k not in stats]
        if missing:
            for n in names:
                absent[n] = f"hook drxsim.{missing[0]} not found"
        return not missing

    if need(("traffic.gen_s", "traffic.validate_s", "traffic.arrivals",
             "traffic.ns_per_arrival"), "engine.make_arrivals"):
        values["traffic.gen_s"] = total("engine.make_arrivals")
        values["traffic.validate_s"] = counts["validate_s"]
        values["traffic.arrivals"] = counts["arrivals"]
        if counts["arrivals"]:
            values["traffic.ns_per_arrival"] = (
                1e9 * values["traffic.gen_s"] / counts["arrivals"])
        else:
            absent["traffic.ns_per_arrival"] = "no arrivals generated"
    if need(("traffic.ema_s", "traffic.ema_calls"), "engine._lambda_hat_series"):
        values["traffic.ema_s"] = total("engine._lambda_hat_series")
        values["traffic.ema_calls"] = stats["engine._lambda_hat_series"][0]
    if need(("engine.simulate_s", "engine.loop_self_s", "engine.ns_per_packet",
             "engine.packets", "engine.cycles", "engine.packets_per_cycle"),
            "engine.simulate"):
        calls, sim_total, sim_child = stats["engine.simulate"]
        values["engine.simulate_s"] = sim_total
        values["engine.loop_self_s"] = sim_total - sim_child
        values["engine.packets"] = counts["packets"]
        values["engine.cycles"] = counts["cycles"]
        if counts["packets"]:
            values["engine.ns_per_packet"] = 1e9 * sim_total / counts["packets"]
        else:
            absent["engine.ns_per_packet"] = "no packets served"
        if counts["cycles"]:
            values["engine.packets_per_cycle"] = counts["packets"] / counts["cycles"]
        else:
            absent["engine.packets_per_cycle"] = "no coalescing cycles"
    if need(("engine.ci_s",), "engine.confidence_interval"):
        values["engine.ci_s"] = total("engine.confidence_interval")
    if need(("engine.slice_s",), "engine.slice_stats"):
        values["engine.slice_s"] = total("engine.slice_stats")
    if need(("controller.updates", "controller.clamp_low",
             "controller.clamp_high", "controller.s"),
            "controller.update_threshold"):
        values["controller.updates"] = stats["controller.update_threshold"][0]
        values["controller.clamp_low"] = counts["clamp_low"]
        values["controller.clamp_high"] = counts["clamp_high"]
        values["controller.s"] = total("controller.update_threshold")
    if need(("cli.parse_s",), "cli.parse_spec"):
        values["cli.parse_s"] = total("cli.parse_spec")
    if need(("cli.aggregate_s",), "cli.run_experiment"):
        inner = sum(values.get(k, 0.0) for k in (
            "traffic.gen_s", "traffic.validate_s", "engine.simulate_s",
            "engine.ci_s", "engine.slice_s"))
        values["cli.aggregate_s"] = total("cli.run_experiment") - inner
    if need(("cli.emit_s",), "cli.emit_csv"):
        values["cli.emit_s"] = total("cli.emit_csv")
    values["cli.points"] = points
    for k, v in list(values.items()):
        if isinstance(v, float) and math.isnan(v):
            del values[k]
            absent.setdefault(k, "observer failed; see notes")
    return values, absent


# --------------------------------------------------------------------------
# Output check


def _point_key(point) -> str:
    policy, rate = point
    return ":".join(map(str, policy)) + (f"@{rate!r}" if rate is not None else "")


def _row_tuple(row) -> list:
    return [row.scenario, row.policy, row.rate, row.q_w, row.w_star,
            row.mean_delay_ms, row.ci_delay_ms, row.sleep_frac, row.ci_sleep,
            row.mean_qw, row.ci_qw, row.saturated]


def point_records(wl: Workload, rows, runs) -> list[dict]:
    """Group one sweep's rows and per-run stats by grid point."""
    grid = wl.grid()
    n_seeds = len(wl.run_seeds)
    per_rows = wl.rows_per_point()
    if len(runs) != len(grid) * n_seeds or len(rows) != len(grid) * per_rows:
        raise BenchError(f"sweep shape: {len(rows)} rows and {len(runs)} runs "
                         f"for {len(grid)} points x {n_seeds} seeds")
    out = []
    for i, point in enumerate(grid):
        out.append({
            "point": _point_key(point),
            "runs": [list(s) for s in runs[i * n_seeds:(i + 1) * n_seeds]],
            "rows": [_row_tuple(r) for r in rows[i * per_rows:(i + 1) * per_rows]],
        })
    return out


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    return a == b


def check_point(wl: Workload, point, rec: dict, ref: dict | None) -> list[str]:
    """Invariants of one grid point, plus the stored reference if given."""
    policy, _ = point
    errors = []
    if policy[0] == "adaptive":
        q_lo, q_hi = 1.0, float(policy[2])  # q_max = w_max / psf, psf = 1
    else:
        q_lo = q_hi = float(policy[1]) if policy[0] == "fixed" else 1.0

    def q_ok(q):
        return (q_lo * (1 - REL_TOL) <= q <= q_hi * (1 + REL_TOL))

    for served, arrivals, _cycles, delay, sleep, qw in rec["runs"]:
        if served > arrivals:
            errors.append(f"served {served} > arrivals {arrivals}")
        if not 0.0 <= sleep <= 1.0:
            errors.append(f"run sleep_frac {sleep} outside [0, 1]")
        if not (math.isfinite(delay) and delay >= 0.0):
            errors.append(f"run mean delay {delay} not finite and >= 0")
        if not q_ok(qw):
            errors.append(f"run mean_qw {qw} outside [{q_lo}, {q_hi}]")
    for row in rec["rows"]:
        delay, sleep, qw = row[5], row[7], row[9]
        if row[1] != policy[0]:
            errors.append(f"row policy {row[1]!r}, expected {policy[0]!r}")
        if not 0.0 <= sleep <= 1.0:
            errors.append(f"row sleep_frac {sleep} outside [0, 1]")
        if not (math.isfinite(delay) and delay >= 0.0):
            errors.append(f"row mean delay {delay} not finite and >= 0")
        if not q_ok(qw):
            errors.append(f"row mean_qw {qw} outside [{q_lo}, {q_hi}]")
    if ref is not None:
        if ref["point"] != rec["point"]:
            errors.append(f"reference point {ref['point']} != {rec['point']}")
        if len(rec["runs"]) != len(ref["runs"]):
            errors.append("seed count differs from reference")
        for got, want in zip(rec["runs"], ref["runs"]):
            if got[:3] != want[:3]:
                errors.append(f"served/arrivals/cycles {got[:3]} != "
                              f"reference {want[:3]}")
            if not all(_close(a, b) for a, b in zip(got[3:], want[3:])):
                errors.append(f"run stats {got[3:]} != reference {want[3:]}")
        if len(rec["rows"]) != len(ref["rows"]):
            errors.append("row count differs from reference")
        for got, want in zip(rec["rows"], ref["rows"]):
            if not all(_close(a, b) for a, b in zip(got, want)):
                errors.append(f"row {got} != reference {want}")
    return errors


def digest(records: list[dict]) -> str:
    text = json.dumps(records, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def reference_path(wl: Workload) -> Path:
    return REFERENCE_DIR / f"{wl.name}.json"


def load_reference(wl: Workload) -> dict | None:
    if wl.seed != REFERENCE_SEED or wl.scale != 1.0:
        return None
    path = reference_path(wl)
    if not path.exists():
        raise BenchError(f"reference {path} is missing")
    return json.loads(path.read_text())


# --------------------------------------------------------------------------
# Measurement


_SETUP_PROBE = """\
import sys
from drxsim import cli
cli.parse_spec(sys.stdin.read())
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def calibrate() -> float:
    """Host seconds for a fixed pure-Python loop that runs no drxsim code."""
    t0 = time.perf_counter()
    acc, values, slots = 0.0, [], {}
    for i in range(40000):
        acc = acc * 0.999 + i
        if acc > 1e6:
            acc -= 1e6
        values.append(acc)
        slots[i & 255] = acc
    return time.perf_counter() - t0


def calibration() -> float:
    """Current host speed: mean of CAL_REPEATS calibration loops."""
    return statistics.mean(calibrate() for _ in range(CAL_REPEATS))


def measure_setup(spec_text: str, probes: int) -> tuple[list[float], list[float]]:
    """Fresh-process time to the first run: interpreter start, imports, parse.

    Returns the probe times and, for each probe, the mean of the
    calibrations taken just before and just after it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    times, cal = [], []
    for _ in range(probes):
        before = calibration()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _SETUP_PROBE], cwd=ROOT,
                                env=env, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        try:
            proc.stdin.write(spec_text)
            proc.stdin.close()
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up probe failed (exit {code})")
        times.append(dt)
        cal.append((before + calibration()) / 2.0)
    return times, cal


class Sweeper:
    """One sweep = parse, run_experiment(jobs=1), emit_csv, then the check."""

    def __init__(self, wl: Workload, mods: dict, recorder: RunRecorder,
                 reference: dict | None):
        self.wl = wl
        self.cli = mods["cli"]
        self.recorder = recorder
        self.reference = reference
        self.spec_text = wl.spec_text()
        self.failed: dict[str, list[str]] = {}
        self.first_records: list[dict] | None = None
        self.first_digest: str | None = None
        self.run_ms: list[list[float]] = []  # per sweep, per run
        self.packets_per_sweep: int | None = None
        self.cal: list[float] = []  # calibration just before each sweep

    def sweep(self) -> float:
        """Run one sweep; return host seconds from parsed spec to CSV."""
        cli = self.cli
        self.recorder.samples.clear()
        gc.collect()
        self.cal.append(calibration())
        spec = cli.parse_spec(self.spec_text)
        try:
            t0 = time.perf_counter()
            rows = cli.run_experiment(spec, jobs=1)
            buf = io.StringIO()
            cli.emit_csv(rows, buf)
            wall = time.perf_counter() - t0
        except Exception as exc:  # any raise fails every point of the sweep
            self.fail_all(f"sweep raised {type(exc).__name__}: {exc}")
            raise
        samples = list(self.recorder.samples)
        self.check([s for _, s in samples], rows)
        self.run_ms.append([1000.0 * dt for dt, _ in samples])
        self.packets_per_sweep = sum(s[0] for _, s in samples)
        return wall

    def fail_all(self, why: str) -> None:
        for point in self.wl.grid():
            errors = self.failed.setdefault(_point_key(point), [])
            if len(errors) < MAX_ERRORS:
                errors.append(why)

    def check(self, runs, rows) -> None:
        grid = self.wl.grid()
        try:
            records = point_records(self.wl, rows, runs)
        except BenchError as exc:
            self.fail_all(str(exc))
            return
        ref_points = self.reference["points"] if self.reference else None
        if ref_points is not None and len(ref_points) != len(grid):
            self.fail_all(f"reference has {len(ref_points)} points")
            return
        for i, (point, rec) in enumerate(zip(grid, records)):
            ref = ref_points[i] if ref_points is not None else None
            errors = check_point(self.wl, point, rec, ref)
            if errors:
                kept = self.failed.setdefault(rec["point"], [])
                kept.extend(errors[:MAX_ERRORS - len(kept)])
        d = digest(records)
        if self.first_digest is None:
            self.first_records, self.first_digest = records, d
        elif d != self.first_digest:
            self.fail_all("statistics differ between sweeps of one run")


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least 10 samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def environment(seed: int) -> dict:
    import numpy
    import scipy
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": sha,
        "workload_seed": seed,
    }


def import_layers() -> dict:
    if not (SRC / "drxsim" / "__init__.py").exists():
        raise BenchError(f"drxsim sources not found under {SRC}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))
    return {m: importlib.import_module(f"drxsim.{m}") for m in LAYER_MODULES}


def run_benchmark(args) -> tuple[dict, dict]:
    wl = make_workload(args.workload, args.seed, args.scale)
    mods = import_layers()
    setup_times, setup_cal = (measure_setup(wl.spec_text(), SETUP_PROBES)
                              if not args.trace else ([], []))
    patches = Patches()
    recorder = RunRecorder(mods["engine"], patches)
    reference = None if args.write_reference else load_reference(wl)
    sweeper = Sweeper(wl, mods, recorder, reference)
    tracer = Tracer(mods)

    def traced_sweep() -> tuple[float, dict]:
        layer = Patches()
        tracer.install(layer)
        try:
            wall = sweeper.sweep()
        finally:
            layer.restore()
        return wall, tracer.snapshot()

    # (host seconds, scale to nominal seconds) per timed sweep
    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    snaps: list[dict] = []
    try:
        sweeper.sweep()  # warm-up: lazy imports and first-call costs
        sweeper.run_ms.clear()
        sweeper.cal.clear()
        t_start = time.perf_counter()
        while True:
            wall = sweeper.sweep()
            plain.append((wall, CAL_NOMINAL_S / sweeper.cal[-1]))
            if args.trace:
                wall, snap = traced_sweep()
                traced.append((wall, CAL_NOMINAL_S / sweeper.cal[-1]))
                snaps.append(snap)
            elapsed = time.perf_counter() - t_start
            runs = sum(map(len, sweeper.run_ms))
            enough = (len(plain) >= 2 if args.trace else
                      len(plain) >= MIN_TIMED_SWEEPS
                      and runs * (1.0 - wl.tail / 100.0) >= 10.0)
            if (enough and elapsed >= args.seconds) or elapsed >= 3 * args.seconds:
                break
    except Exception:
        if not sweeper.failed:
            raise
    finally:
        patches.restore()

    points = len(wl.grid())
    failed = len(sweeper.failed)
    result = {"correct": failed == 0, "attempted": points, "failed": failed}
    record = {
        "workload": wl.name, "seed": wl.seed, "scale": wl.scale,
        "trace": args.trace, "seconds": args.seconds,
        "environment": environment(wl.seed),
        "spec": wl.spec_text(),
        "points_failed": failed / points,
        "failures": sweeper.failed,
        "reference_checked": reference is not None,
        "digest": sweeper.first_digest,
        "sweeps": len(plain), "wall_s_all": [w for w, _ in plain],
        "scale_all": [k for _, k in plain],
    }
    if args.write_reference and sweeper.first_records is not None and not failed:
        REFERENCE_DIR.mkdir(exist_ok=True)
        reference_path(wl).write_text(json.dumps(
            {"workload": wl.name, "seed": wl.seed, "spec": wl.spec_text(),
             "digest": sweeper.first_digest, "points": sweeper.first_records},
            indent=1) + "\n")

    metrics: dict[str, dict] = {}
    if not plain or (args.trace and not snaps):
        return {**result, "metrics": metrics}, record

    def nominal_median(pairs):
        return statistics.median(w * k for w, k in pairs)

    record["speed_factor"] = statistics.median(k for _, k in plain)
    if not args.trace:
        run_ms = [x for sweep in sweeper.run_ms for x in sweep]
        scaled = [x * k for sweep, (_, k) in zip(sweeper.run_ms, plain)
                  for x in sweep]
        n = len(run_ms)
        tail_p = tail_percentile(n)
        setup = statistics.median(t * CAL_NOMINAL_S / c
                                  for t, c in zip(setup_times, setup_cal))
        wall = nominal_median(plain)
        values = {
            "wall_s": wall,
            "pkts_per_s": sweeper.packets_per_sweep / wall,
            "run_ms_p50": percentile(scaled, 50.0),
            "run_ms_tail": percentile(scaled, tail_p),
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "points_ok": (points - failed) / points,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        record.update(
            host_times={"wall_s": statistics.median(w for w, _ in plain),
                        "run_ms_p50": percentile(run_ms, 50.0),
                        "run_ms_tail": percentile(run_ms, tail_p),
                        "setup_s": statistics.median(setup_times)},
            run_samples=n, run_ms_tail_percentile=tail_p,
            setup_s_all=setup_times, setup_calibration_s_all=setup_cal,
            run_ms_by_sweep=sweeper.run_ms)
    else:
        per_sweep = [layer_values(s, points) for s in snaps]
        absent = per_sweep[0][1]
        for name, unit in PER_LAYER_UNITS.items():
            if name == "trace.overhead_s":
                v = nominal_median(traced) - nominal_median(plain)
            elif name in per_sweep[0][0]:
                timed = unit in ("s", "ns")
                v = statistics.median(vals[name] * (k if timed else 1)
                                      for (vals, _), (_, k)
                                      in zip(per_sweep, traced))
            else:
                metrics[name] = {"value": None, "unit": unit,
                                 "note": absent.get(name, "not measured")}
                continue
            metrics[name] = {"value": v, "unit": unit}
        last = snaps[-1]["stats"]
        record.update(
            traced_sweeps=len(snaps),
            traced_wall_s_all=[w for w, _ in traced],
            tracer_notes=tracer.notes,
            functions={k: {"calls": c, "total_s": t, "self_s": t - ch}
                       for k, (c, t, ch) in sorted(last.items()) if c})
    return {**result, "metrics": metrics}, record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help=f"one of {', '.join(WORKLOADS)}, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply horizons by this (smoke test only)")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's per-point statistics as the "
                         "reference (seed 1, scale 1)")
    args = ap.parse_args(argv)
    if args.scale <= 0:
        ap.error("--scale must be > 0")
    if args.workload == "all":
        # Each workload in its own process, so set-up and memory stay apart.
        flags = [f"--seed={args.seed}", f"--seconds={args.seconds}",
                 f"--trace={args.trace}", f"--scale={args.scale}"]
        if args.write_reference:
            flags.append("--write-reference")
        return max(subprocess.run([sys.executable, __file__, "--workload", w,
                                   *flags], cwd=ROOT).returncode
                   for w in WORKLOADS)
    try:
        result, record = run_benchmark(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record["metrics"] = result["metrics"]
    record["points_attempted"] = result["attempted"]
    out.write_text(json.dumps(record, indent=1, allow_nan=True) + "\n")

    for name, m in result["metrics"].items():
        shown = "absent: " + m["note"] if m["value"] is None else f"{m['value']:.6g}"
        print(f"{args.workload:20s} {name:26s} {shown} {m['unit']}")
    print(f"{args.workload:20s} {'points_failed':26s} "
          f"{record['points_failed']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} grid points)")
    if "speed_factor" in record:
        print(f"{args.workload:20s} times are nominal seconds: host seconds x "
              f"{record['speed_factor']:.4f}, the median over sweeps (calibration "
              f"loop {CAL_NOMINAL_S / record['speed_factor'] * 1e3:.3f} ms here, "
              f"{CAL_NOMINAL_S * 1e3:g} ms nominal)")
    if "host_times" in record:
        host = ", ".join(f"{k} {v:.6g}" for k, v in record["host_times"].items())
        print(f"{args.workload:20s} host times: {host}")
        print(f"{args.workload:20s} run_ms_tail is p{record['run_ms_tail_percentile']:g}"
              f" of {record['run_samples']} runs; {record['sweeps']} sweeps")
    print(f"{args.workload:20s} digest {record['digest']}  record {out.relative_to(ROOT)}")
    for point, errors in sorted(record["failures"].items()):
        print(f"FAILED {point}: {errors[0]}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
