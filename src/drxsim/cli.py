"""Experiment configuration, sweep orchestration and CSV emission.

Experiments are described by flat key = value files with section headers so
a whole study can be archived and reproduced byte-for-byte.  Example:

    [drx]
    t_in = 10
    t_on = 2
    t_short = 32
    t_long = 32
    n_short = 0

    [run]
    horizon = 100000
    psf = 1
    seeds = 1 2 3 4 5 6 7 8 9 10
    confidence = 0.95
    output = results.csv

    [traffic]
    kind = poisson
    rates = 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9

    [policies]
    standard = on
    fixed = 8 32 128
    adaptive = 64:128 512:1024

The [drx] and [run] sections may be omitted entirely (the defaults above
apply).  Traffic kinds: ``poisson`` and ``pareto`` sweep over ``rates``
(pareto also needs ``shape``), ``trace`` replays a recorded arrival file,
``schedule`` drives a piecewise-constant rate given as ``duration:rate``
segments and reports one row per segment plus a whole-run row.  Unknown
sections or keys are rejected, with the offending line named.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import math
import os
import sys
from dataclasses import dataclass, replace

from . import analytic
from .drx import DrxConfig, Policy, PolicyKind
from .engine import (
    Metrics,
    ParetoTraffic,
    PoissonTraffic,
    Scenario,
    ScheduleTraffic,
    TraceTraffic,
    replicate,
    run_detailed,
    slice_stats,
    summarize,
)

CSV_COLUMNS = (
    "scenario", "policy", "rate", "q_w", "w_star",
    "mean_delay_ms", "ci_delay_ms", "sleep_frac", "ci_sleep",
    "mean_qw", "ci_qw", "saturated",
)

_DEFAULT_CFG = dict(t_in=10.0, t_on=2.0, t_short=32.0, t_long=32.0, n_short=0)
_DEFAULT_SEEDS = tuple(range(1, 11))

_SECTIONS = {
    "drx": {"t_in", "t_on", "t_short", "t_long", "n_short"},
    "run": {"horizon", "psf", "seeds", "confidence", "output"},
    "traffic": {"kind", "rates", "shape", "trace", "segments"},
    "policies": {"standard", "fixed", "adaptive"},
}


class SpecError(ValueError):
    """A spec file failed validation; names the key and line involved."""

    def __init__(self, message: str, line: int | None = None,
                 key: str | None = None):
        loc = []
        if key is not None:
            loc.append(f"key {key!r}")
        if line is not None:
            loc.append(f"line {line}")
        prefix = f"{', '.join(loc)}: " if loc else ""
        super().__init__(f"{prefix}{message}")
        self.line = line
        self.key = key


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    cfg: DrxConfig
    horizon: float
    psf: float
    seeds: tuple[int, ...]
    confidence: float
    output: str | None
    kind: str
    policies: tuple[Policy, ...]
    rates: tuple[float, ...] | None = None
    shape: float | None = None
    trace: str | None = None
    schedule: ScheduleTraffic | None = None


@dataclass(frozen=True, slots=True)
class ResultRow:
    scenario: str
    policy: str
    rate: float | None
    q_w: float | None
    w_star: float | None
    mean_delay_ms: float
    ci_delay_ms: float
    sleep_frac: float
    ci_sleep: float
    mean_qw: float
    ci_qw: float
    saturated: bool


def _scan(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    out: dict[str, dict[str, tuple[str, int]]] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SpecError("malformed section header", lineno)
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise SpecError(f"unknown section [{section}]", lineno)
            out.setdefault(section, {})
            continue
        if "=" not in line:
            raise SpecError("expected 'key = value'", lineno)
        if section is None:
            raise SpecError("key outside any section", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SECTIONS[section]:
            raise SpecError(f"unknown key in [{section}]", lineno, key)
        if key in out[section]:
            raise SpecError("duplicate key", lineno, key)
        out[section][key] = (value, lineno)
    return out


def _get(scanned, section: str, key: str, default=None):
    return scanned.get(section, {}).get(key, (default, None))


def _as_float(value: str, line: int, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise SpecError(f"expected a number, got {value!r}", line, key) from None


def _as_floats(value: str, line: int, key: str) -> tuple[float, ...]:
    items = value.split()
    if not items:
        raise SpecError("expected a nonempty list", line, key)
    return tuple(_as_float(v, line, key) for v in items)


def _as_int(value: str, line: int, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise SpecError(f"expected an integer, got {value!r}", line, key) from None


def parse_spec(text: str) -> ExperimentSpec:
    """Parse and fully validate an experiment spec document."""
    scanned = _scan(text)

    cfg_kw = dict(_DEFAULT_CFG)
    cfg_line = None
    for key in _SECTIONS["drx"]:
        value, line = _get(scanned, "drx", key)
        if value is not None:
            cfg_line = line
            cfg_kw[key] = (_as_int(value, line, key) if key == "n_short"
                           else _as_float(value, line, key))
    try:
        cfg = DrxConfig(**cfg_kw)
    except ValueError as e:
        raise SpecError(str(e), cfg_line, "[drx]") from None

    value, line = _get(scanned, "run", "horizon")
    horizon = _as_float(value, line, "horizon") if value is not None else 100000.0
    if horizon <= 0:
        raise SpecError("horizon must be > 0", line, "horizon")
    value, line = _get(scanned, "run", "psf")
    psf = _as_float(value, line, "psf") if value is not None else 1.0
    if psf <= 0:
        raise SpecError("psf must be > 0", line, "psf")
    value, line = _get(scanned, "run", "seeds")
    if value is not None:
        seeds = tuple(_as_int(v, line, "seeds") for v in value.split())
        if not seeds:
            raise SpecError("expected a nonempty list", line, "seeds")
        if len(set(seeds)) != len(seeds):
            raise SpecError("seeds must be distinct", line, "seeds")
    else:
        seeds = _DEFAULT_SEEDS
    value, line = _get(scanned, "run", "confidence")
    confidence = _as_float(value, line, "confidence") if value is not None else 0.95
    if not (0.0 < confidence < 1.0):
        raise SpecError("confidence must be in (0, 1)", line, "confidence")
    output, _ = _get(scanned, "run", "output")

    value, kind_line = _get(scanned, "traffic", "kind")
    if value is None:
        raise SpecError("missing required key", kind_line, "kind")
    kind = value.lower()
    if kind not in ("poisson", "pareto", "trace", "schedule"):
        raise SpecError(f"unknown traffic kind {value!r}", kind_line, "kind")

    rates = shape = trace = schedule = None
    if kind in ("poisson", "pareto"):
        value, line = _get(scanned, "traffic", "rates")
        if value is None:
            raise SpecError("missing required key", line, "rates")
        rates = _as_floats(value, line, "rates")
        if any(r <= 0 for r in rates):
            raise SpecError("rates must be > 0", line, "rates")
    if kind == "pareto":
        value, line = _get(scanned, "traffic", "shape")
        if value is None:
            raise SpecError("missing required key", line, "shape")
        shape = _as_float(value, line, "shape")
        if shape <= 1.0:
            raise SpecError("shape must be > 1 (finite mean)", line, "shape")
    if kind == "trace":
        trace, line = _get(scanned, "traffic", "trace")
        if trace is None:
            raise SpecError("missing required key", line, "trace")
    if kind == "schedule":
        value, line = _get(scanned, "traffic", "segments")
        if value is None:
            raise SpecError("missing required key", line, "segments")
        segs = []
        for item in value.split():
            dur, sep, rate = item.partition(":")
            if not sep:
                raise SpecError(
                    f"expected 'duration:rate', got {item!r}", line, "segments"
                )
            segs.append((_as_float(dur, line, "segments"),
                         _as_float(rate, line, "segments")))
        try:
            schedule = ScheduleTraffic(tuple(segs))
        except ValueError as e:
            raise SpecError(str(e), line, "segments") from None

    policies: list[Policy] = []
    value, line = _get(scanned, "policies", "standard")
    if value is not None:
        flag = value.lower()
        if flag not in ("on", "off", "true", "false", "yes", "no"):
            raise SpecError(f"expected on/off, got {value!r}", line, "standard")
        if flag in ("on", "true", "yes"):
            policies.append(Policy.standard())
    value, line = _get(scanned, "policies", "fixed")
    if value is not None:
        for q in _as_floats(value, line, "fixed"):
            if q < 1:
                raise SpecError("fixed thresholds must be >= 1", line, "fixed")
            policies.append(Policy.fixed(q))
    value, line = _get(scanned, "policies", "adaptive")
    if value is not None:
        for item in value.split():
            w_star, sep, w_max = item.partition(":")
            if not sep:
                raise SpecError(
                    f"expected 'w_star:w_max', got {item!r}", line, "adaptive"
                )
            try:
                policies.append(Policy.adaptive(
                    _as_float(w_star, line, "adaptive"),
                    _as_float(w_max, line, "adaptive"),
                ))
            except ValueError as e:
                raise SpecError(str(e), line, "adaptive") from None
    if not policies:
        raise SpecError("no policy enabled in [policies]", None, "[policies]")

    return ExperimentSpec(
        cfg=cfg, horizon=horizon, psf=psf, seeds=seeds, confidence=confidence,
        output=output, kind=kind, policies=tuple(policies), rates=rates,
        shape=shape, trace=trace, schedule=schedule,
    )


def _policy_label(p: Policy) -> str:
    return {PolicyKind.STANDARD: "standard",
            PolicyKind.FIXED_COALESCING: "fixed",
            PolicyKind.ADAPTIVE_COALESCING: "adaptive"}[p.kind]


def _policy_columns(p: Policy) -> tuple[float | None, float | None]:
    # (q_w column, w_star column)
    if p.kind is PolicyKind.FIXED_COALESCING:
        return p.q_w, None
    if p.kind is PolicyKind.STANDARD:
        return 1.0, None
    return None, p.w_star


def _row(spec: ExperimentSpec, scenario_id: str, policy: Policy,
         rate: float | None, per_seed: list[tuple[float, float, float]],
         saturated: bool) -> ResultRow:
    delay, sleep, qw = summarize(per_seed, spec.confidence)
    q_col, w_col = _policy_columns(policy)
    return ResultRow(
        scenario_id, _policy_label(policy), rate, q_col, w_col,
        delay.mean, delay.ci_half_width, sleep.mean, sleep.ci_half_width,
        qw.mean, qw.ci_half_width, saturated,
    )


def _overall(spec: ExperimentSpec, scenario_id: str, policy: Policy,
             rate: float, metrics: list[Metrics]) -> ResultRow:
    per_seed = [(m.mean_delay, m.sleep_fraction, m.mean_q_w) for m in metrics]
    return _row(spec, scenario_id, policy, rate, per_seed,
                any(m.saturated for m in metrics))


def _sweep_rows(spec: ExperimentSpec, policy: Policy,
                rate: float | None) -> list[ResultRow]:
    if spec.kind == "poisson":
        traffic = PoissonTraffic(rate)
        scenario_id = "poisson"
    elif spec.kind == "pareto":
        traffic = ParetoTraffic(rate, spec.shape)
        scenario_id = f"pareto({spec.shape!r})"
    elif spec.kind == "trace":
        traffic = TraceTraffic(spec.trace)
        scenario_id = f"trace:{os.path.basename(spec.trace)}"
    else:
        return _schedule_rows(spec, policy)

    scenario = Scenario(spec.cfg, policy, traffic, spec.horizon, spec.psf)
    metrics = replicate(scenario, spec.seeds)
    if rate is None:
        rate = metrics[0].arrivals / spec.horizon  # empirical, trace replay
    return [_overall(spec, scenario_id, policy, rate, metrics)]


def _schedule_rows(spec: ExperimentSpec, policy: Policy) -> list[ResultRow]:
    sched = spec.schedule
    horizon = min(spec.horizon, sched.total_duration)
    scenario = Scenario(spec.cfg, policy, sched, horizon, spec.psf)
    results = [run_detailed(scenario, s) for s in spec.seeds]
    metrics = [r.metrics for r in results]
    saturated = any(m.saturated for m in metrics)

    rows: list[ResultRow] = []
    start = 0.0
    for idx, (dur, rate) in enumerate(sched.segments):
        end = min(start + dur, horizon)
        if end <= start:
            break
        per_seed = [slice_stats(r, spec.cfg, start, end)[:3] for r in results]
        rows.append(_row(
            spec, f"schedule[{idx}]:{start / 1000.0:g}-{end / 1000.0:g}s",
            policy, rate, per_seed, saturated,
        ))
        start = end
    rows.append(_overall(spec, "schedule:overall", policy, sched.mean_rate,
                         metrics))
    return rows


def _grid(spec: ExperimentSpec) -> list[tuple[Policy, float | None]]:
    if spec.kind in ("poisson", "pareto"):
        return [(p, r) for p in spec.policies for r in spec.rates]
    return [(p, None) for p in spec.policies]


def _grid_point(args: tuple[ExperimentSpec, Policy, float | None]
                ) -> list[ResultRow]:
    spec, policy, rate = args
    return _sweep_rows(spec, policy, rate)


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[ResultRow]:
    """Execute the full sweep and return one row per grid point (in grid order).

    Schedules produce one row per segment plus a whole-run row per policy.
    A missing trace file fails here, before any run starts.
    """
    if spec.kind == "trace" and not os.path.exists(spec.trace):
        raise FileNotFoundError(f"trace file not found: {spec.trace}")
    grid = _grid(spec)
    if jobs <= 1 or len(grid) <= 1:
        results = [_grid_point((spec, p, r)) for p, r in grid]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(
                _grid_point, [(spec, p, r) for p, r in grid]
            ))
    return [row for rows in results for row in rows]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(rows: list[ResultRow], destination) -> None:
    """Write the result table: a header line, then one row per grid point.

    Plain decimal-point formatting; floats are written with ``repr`` so a
    round-trip through ``float()`` recovers them exactly.
    """
    if not rows:
        raise ValueError("refusing to emit an empty result table")
    writer = csv.writer(destination, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            _cell(row.scenario), _cell(row.policy), _cell(row.rate),
            _cell(row.q_w), _cell(row.w_star),
            _cell(row.mean_delay_ms), _cell(row.ci_delay_ms),
            _cell(row.sleep_frac), _cell(row.ci_sleep),
            _cell(row.mean_qw), _cell(row.ci_qw), _cell(row.saturated),
        ])


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = parse_spec(fh.read())
    if args.seeds is not None:
        if args.seeds < 2:
            raise SpecError("--seeds must be >= 2")
        spec = replace(spec, seeds=tuple(range(1, args.seeds + 1)))
    rows = run_experiment(spec, jobs=args.jobs)
    for row in rows:
        if math.isnan(row.mean_delay_ms):
            setting = (f"q_w={_cell(row.q_w)}" if row.w_star is None
                       else f"w_star={_cell(row.w_star)}")
            print(f"warning: nan delay, a seed served no packet: scenario "
                  f"{row.scenario}, policy {row.policy} {setting}, rate "
                  f"{_cell(row.rate)}", file=sys.stderr)
    out_path = args.out or spec.output
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            emit_csv(rows, fh)
        print(f"{len(rows)} rows -> {out_path}")
    else:
        buf = io.StringIO()
        emit_csv(rows, buf)
        sys.stdout.write(buf.getvalue())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = parse_spec(fh.read())
    if spec.kind == "trace" and not os.path.exists(spec.trace):
        raise FileNotFoundError(f"trace file not found: {spec.trace}")
    grid = _grid(spec)
    print(f"OK: {len(grid)} grid points x {len(spec.seeds)} seeds")
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    cfg = DrxConfig(t_in=args.t_in, t_on=args.t_on,
                    t_short=args.t_cycle, t_long=args.t_cycle)
    t_w = analytic.extra_wait_tw(cfg.t_short, cfg.t_on)
    gamma = analytic.gamma_poisson(args.rate, cfg.t_in)
    wait = analytic.mean_wait_poisson(args.rate, args.mu, args.var_s,
                                      args.q_w, cfg)
    slope = analytic.dmean_wait_dq(args.rate, args.q_w, t_w, gamma)
    gain = 2.0 * args.rate * slope
    print(f"t_w         = {t_w:.6g} ms")
    print(f"gamma       = {gamma:.6g}")
    print(f"mean_wait   = {wait:.6g} ms")
    print(f"d_wait/d_qw = {slope:.6g} ms/packet")
    print(f"loop_gain   = {gain:.6g} (2 lam d_wait/d_qw)")
    verdict = ("the threshold does not move the delay (DRX is never enabled)"
               if gain == 0.0 else "stable" if 0.0 < gain < 2.0 else "unstable")
    print(f"stability   = {verdict}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="drxsim",
        description="DRX packet-coalescing simulator and delay model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec, emit CSV")
    p_run.add_argument("spec", help="path to the experiment spec file")
    p_run.add_argument("--out", help="CSV output path (default: spec's "
                                     "output key, else stdout)")
    p_run.add_argument("--seeds", type=int,
                       help="replace the seed list with 1..N")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker processes for grid points")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="parse and validate a spec file")
    p_val.add_argument("spec", help="path to the experiment spec file")
    p_val.set_defaults(func=_cmd_validate)

    p_mod = sub.add_parser(
        "model",
        help="print the analytic mean wait, its slope and the loop gain",
    )
    p_mod.add_argument("--rate", type=float, required=True,
                       help="arrival rate, packets/ms")
    p_mod.add_argument("--q-w", type=float, required=True, dest="q_w",
                       help="queue threshold, packets")
    p_mod.add_argument("--t-in", type=float, default=10.0, dest="t_in")
    p_mod.add_argument("--t-on", type=float, default=2.0, dest="t_on")
    p_mod.add_argument("--t-cycle", type=float, default=32.0, dest="t_cycle",
                       help="DRX cycle length (equal short and long)")
    p_mod.add_argument("--mu", type=float, default=1.0,
                       help="service rate, packets/ms")
    p_mod.add_argument("--var-s", type=float, default=0.0, dest="var_s",
                       help="service-time variance, ms^2")
    p_mod.set_defaults(func=_cmd_model)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
