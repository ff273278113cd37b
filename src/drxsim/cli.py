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
(pareto also needs ``shape``), ``trace`` replays a recorded arrival file
(a relative path is taken from the working directory, not the spec's),
``schedule`` drives a piecewise-constant rate given as ``duration:rate``
segments and reports one row per segment plus a whole-run row, whose rate
is the mean over the segments the run covered (a horizon shorter than the
schedule cuts it); each kind reports its own rows (``kind.report``).
``seeds`` needs at least two distinct values >= 0, and each ``adaptive``
pair a threshold cap ``w_max / psf`` of at least 1.
Numbers must be finite: ``nan`` and ``inf`` are rejected, as are unknown
sections and keys.  Every error names the key at fault and its line (a
missing key has no line, a bad section header no key).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import math
import sys
from dataclasses import dataclass, fields, replace
from itertools import repeat

from . import analytic
from . import controller as ctrl
from .drx import DrxConfig, Policy, PolicyKind
from .engine import Scenario, confidence_interval, run_detailed, slice_stats
from .traffic import (
    ParetoTraffic,
    PoissonTraffic,
    Report,
    ScheduleTraffic,
    TraceTraffic,
    TrafficKind,
    _check_above,
)

# Every key of each section, with the text it reads as when absent; a key
# without a default (None) is an error to read when absent.
_SECTIONS = {
    "drx": dict(t_in="10", t_on="2", t_short="32", t_long="32", n_short="0"),
    "run": dict(horizon="100000", psf="1", seeds="1 2 3 4 5 6 7 8 9 10",
                confidence="0.95", output=None),
    "traffic": dict.fromkeys(("kind", "rates", "shape", "trace", "segments")),
    "policies": dict(standard="off", fixed=None, adaptive=None),
}
# The [traffic] keys each kind reads besides ``kind``; any other is an error.
_TRAFFIC_KEYS = {"poisson": {"rates"}, "pareto": {"rates", "shape"},
                 "trace": {"trace"}, "schedule": {"segments"}}


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
    policies: tuple[Policy, ...]
    # One value per swept rate (poisson, pareto), else the one trace or
    # schedule.
    traffic: tuple[TrafficKind, ...]


@dataclass(frozen=True, slots=True)
class ResultRow:
    scenario: str
    policy: str
    rate: float
    q_w: float | None
    w_star: float | None
    mean_delay_ms: float
    ci_delay_ms: float
    sleep_frac: float
    ci_sleep: float
    mean_qw: float
    ci_qw: float
    saturated: bool


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass(frozen=True, slots=True)
class _Item:
    """One ``key = value`` of a spec, with its line (None for a default).

    Each reader returns the value as the type its key needs, or raises a
    ``SpecError`` that names the key and line.
    """

    text: str
    line: int | None
    key: str

    def error(self, message: str) -> SpecError:
        return SpecError(message, self.line, self.key)

    def number(self, word: str | None = None) -> float:
        """The value, or one word of it, as a finite float."""
        word = self.text if word is None else word
        try:
            value = float(word)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise self.error(f"expected a finite number, got {word!r}")
        return value

    def integer(self, word: str | None = None) -> int:
        word = self.text if word is None else word
        try:
            return int(word)
        except ValueError:
            raise self.error(f"expected an integer, got {word!r}") from None

    def words(self) -> list[str]:
        words = self.text.split()
        if not words:
            raise self.error("expected a nonempty list")
        return words

    def pairs(self, form: str) -> list[tuple[float, float]]:
        """The value's ``a:b`` words, as pairs of finite floats."""
        out = []
        for word in self.words():
            a, sep, b = word.partition(":")
            if not sep:
                raise self.error(f"expected {form!r}, got {word!r}")
            out.append((self.number(a), self.number(b)))
        return out

    def build(self, make, *args, **kwargs):
        """``make(*args, **kwargs)``, its ``ValueError`` reported here."""
        try:
            return make(*args, **kwargs)
        except ValueError as e:
            raise self.error(str(e)) from None


class _Section(dict):
    """A section's keys in file order, then its defaults; reading any other
    key is a missing-key error."""

    def __missing__(self, key: str) -> _Item:
        raise SpecError("missing required key", None, key)


def _scan(text: str) -> dict[str, _Section]:
    out = {section: _Section() for section in _SECTIONS}
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
            continue
        if "=" not in line:
            raise SpecError("expected 'key = value'", lineno)
        if section is None:
            raise SpecError("key outside any section", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SECTIONS[section]:
            raise SpecError(f"unknown key in [{section}]", lineno, key)
        if key in out[section]:
            raise SpecError("duplicate key", lineno, key)
        out[section][key] = _Item(value.strip(), lineno, key)
    for section, defaults in _SECTIONS.items():
        for key, default in defaults.items():
            if default is not None:
                out[section].setdefault(key, _Item(default, None, key))
    return out


def parse_spec(text: str) -> ExperimentSpec:
    """Parse and fully validate an experiment spec document."""
    drx, run, traf, pol = _scan(text).values()  # in _SECTIONS order

    # A bad timer geometry is reported at the first [drx] key in the file.
    cfg = _Item("", next(iter(drx.values())).line, "[drx]").build(
        DrxConfig, **{key: item.integer() if key == "n_short"
                      else item.number() for key, item in drx.items()})

    horizon, psf = run["horizon"].number(), run["psf"].number()
    for key, value in (("horizon", horizon), ("psf", psf)):
        run[key].build(_check_above, key, value, 0.0)
    item = run["seeds"]
    seeds = tuple(item.integer(w) for w in item.words())
    if len(seeds) < 2:
        raise item.error("need at least 2 seeds")
    if min(seeds) < 0:
        raise item.error("seeds must be >= 0")
    if len(set(seeds)) != len(seeds):
        raise item.error("seeds must be distinct")
    confidence = run["confidence"].number()
    if not (0.0 < confidence < 1.0):
        raise run["confidence"].error("confidence must be in (0, 1)")
    output = run["output"].text if "output" in run else None

    item = traf["kind"]
    kind = item.text.lower()
    if kind not in _TRAFFIC_KEYS:
        raise item.error(f"unknown traffic kind {item.text!r}")
    for key, item in traf.items():
        if key != "kind" and key not in _TRAFFIC_KEYS[kind]:
            raise item.error(f"not used by traffic kind {kind!r}")
    if kind in ("poisson", "pareto"):
        item = traf["rates"]
        traffic = tuple(item.build(PoissonTraffic, item.number(w))
                        for w in item.words())
    if kind == "pareto":
        # The rates passed as Poisson rates, so any error left is the shape's.
        item = traf["shape"]
        traffic = tuple(item.build(ParetoTraffic, t.rate, item.number())
                        for t in traffic)
    if kind == "trace":
        traffic = (TraceTraffic(traf["trace"].text),)
    if kind == "schedule":
        item = traf["segments"]
        traffic = (item.build(ScheduleTraffic,
                              tuple(item.pairs("duration:rate"))),)

    item = pol["standard"]
    flag = item.text.lower()
    if flag not in ("on", "off", "true", "false", "yes", "no"):
        raise item.error(f"expected on/off, got {item.text!r}")
    policies = [Policy.standard()] if flag in ("on", "true", "yes") else []
    if item := pol.get("fixed"):
        policies += [item.build(Policy.fixed, item.number(w))
                     for w in item.words()]
    if item := pol.get("adaptive"):
        for w_star, w_max in item.pairs("w_star:w_max"):
            policies.append(item.build(Policy.adaptive, w_star, w_max))
            # The run's threshold cap must admit one packet.
            item.build(ctrl.initial_state, w_star,
                       ctrl.q_max_from_bound(w_max, psf))
    if not policies:
        raise SpecError("no policy enabled in [policies]", None, "[policies]")

    return ExperimentSpec(
        cfg=cfg, horizon=horizon, psf=psf, seeds=seeds, confidence=confidence,
        output=output, policies=tuple(policies), traffic=traffic,
    )


def _point_rows(spec: ExperimentSpec, policy: Policy, traffic: TrafficKind,
                report: Report) -> list[ResultRow]:
    """The rows of one grid point: one per window its traffic reports (the
    last ends the run), then the whole run's.  Each seed's run is read for
    every row before the next seed runs.  A row is saturated when its own
    rate is at least one packet per service time, the load at which the
    model's queue is unstable (``analytic.TrafficMoments``)."""
    label, overall_rate, windows = report
    horizon = windows[-1][1] if windows else spec.horizon
    scenario = Scenario(spec.cfg, policy, traffic, horizon, spec.psf)

    # Per-seed (delay, sleep, q_w) of each row: the windows', then the run's.
    per_row: list[list[tuple]] = [[] for _ in range(len(windows) + 1)]
    for seed in spec.seeds:
        result = run_detailed(scenario, seed)
        for out, (start, end, _) in zip(per_row, windows):
            out.append(slice_stats(result, start, end)[:3])
        m = result.metrics
        per_row[-1].append((m.mean_delay, m.sleep_fraction, m.mean_q_w))
        del result  # one run's output at a time: not alive during the next
    q_col = (None if policy.kind is PolicyKind.ADAPTIVE_COALESCING
             else policy.q_w)
    heads = [(f"schedule[{i}]:{start / 1000.0:g}-{end / 1000.0:g}s", rate)
             for i, (start, end, rate) in enumerate(windows)]
    heads.append((label, overall_rate))
    rows = []
    for (scenario_id, rate), per_seed in zip(heads, per_row):
        delay, sleep, qw = (confidence_interval(col, spec.confidence)
                            for col in zip(*per_seed))
        rows.append(ResultRow(
            scenario_id, policy.kind.value, rate, q_col, policy.w_star,
            delay.mean, delay.ci_half_width, sleep.mean, sleep.ci_half_width,
            qw.mean, qw.ci_half_width, rate * spec.psf >= 1.0,
        ))
    return rows


def _reports(spec: ExperimentSpec) -> list[Report]:
    return [t.report(spec.horizon) for t in spec.traffic]


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[ResultRow]:
    """Execute the full sweep and return one row per grid point (in grid order).

    A missing or malformed trace file fails here, before any run starts.
    Every process that simulates keeps freed heap between runs, as
    importing ``engine`` set (``engine._keep_freed_heap``).
    """
    reported = list(zip(spec.traffic, _reports(spec)))
    points = [(p, t, r) for p in spec.policies for t, r in reported]
    policies, traffics, reports = zip(*points)
    if jobs <= 1 or len(points) <= 1:
        results = map(_point_rows, repeat(spec), policies, traffics, reports)
    else:
        # A fork pool starts every worker up front, so none beyond the points.
        workers = min(jobs, len(points))
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            results = list(pool.map(_point_rows, repeat(spec), policies,
                                    traffics, reports))
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
        writer.writerow([_cell(getattr(row, c)) for c in CSV_COLUMNS])


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = parse_spec(fh.read())
    if args.seeds is not None:
        if args.seeds < 2:
            raise SpecError("--seeds must be >= 2")
        spec = replace(spec, seeds=tuple(range(1, args.seeds + 1)))
    if args.jobs < 1:
        raise SpecError("--jobs must be >= 1")
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
    _reports(spec)
    points = len(spec.policies) * len(spec.traffic)
    print(f"OK: {points} grid points x {len(spec.seeds)} seeds")
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, "
                             f"got {value}")
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
