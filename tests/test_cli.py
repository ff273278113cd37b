"""Unit tests for spec parsing, sweep orchestration and CSV emission."""

from __future__ import annotations

import functools
import io
import math
import operator
import os
import platform
import subprocess
import sys

import pytest

from drxsim import cli, engine, traffic
from drxsim.cli import (
    CSV_COLUMNS,
    SpecError,
    emit_csv,
    main,
    parse_spec,
    run_experiment,
)
from drxsim.drx import PolicyKind
from drxsim.traffic import ScheduleTraffic

MINIMAL = """
[traffic]
kind = poisson
rates = 0.2 0.5

[policies]
standard = on
"""

POLICIES = "\n[policies]\nstandard = on\n"
PARETO = "[traffic]\nkind = pareto\n"

FULL = """
[drx]
t_in = 10
t_on = 2
t_short = 32
t_long = 32
n_short = 0

[run]
horizon = 4000
psf = 1
seeds = 1 2 3
confidence = 0.95

[traffic]
kind = poisson
rates = 0.2 0.5

[policies]
standard = on
fixed = 4
"""


class TestParsing:
    def test_minimal_spec_gets_defaults(self):
        spec = parse_spec(MINIMAL)
        assert spec.cfg.t_in == 10 and spec.cfg.t_on == 2
        assert spec.cfg.t_short == spec.cfg.t_long == 32
        assert spec.cfg.n_short == 0
        assert spec.horizon == 100000.0 and spec.psf == 1.0
        assert spec.seeds == tuple(range(1, 11))
        assert spec.confidence == 0.95
        assert len(spec.policies) == 1

    def test_unknown_key_names_key_and_line(self):
        bad = "[traffic]\nkind = poisson\nrtaes = 0.1\n\n[policies]\nstandard = on\n"
        with pytest.raises(SpecError) as err:
            parse_spec(bad)
        assert err.value.key == "rtaes"
        assert err.value.line == 3

    def test_unknown_section(self):
        with pytest.raises(SpecError):
            parse_spec("[traffick]\nkind = poisson\n")

    def test_duplicate_key(self):
        bad = "[traffic]\nkind = poisson\nkind = pareto\n"
        with pytest.raises(SpecError) as err:
            parse_spec(bad)
        assert "duplicate" in str(err.value)

    def test_invalid_drx_geometry(self):
        bad = "[drx]\nt_on = 40\n" + MINIMAL
        with pytest.raises(SpecError) as err:
            parse_spec(bad)
        assert "t_on" in str(err.value)

    def test_duplicate_seeds_rejected(self):
        for seeds in ("1 2 2", "1", "-1 2"):
            bad = MINIMAL + f"\n[run]\nseeds = {seeds}\n"
            with pytest.raises(SpecError) as err:
                parse_spec(bad)
            assert err.value.key == "seeds"
            assert err.value.line == 10

    @pytest.mark.parametrize("kind, needed, extra", [
        ("poisson", "rates = 0.1", "shape = 0.5"),
        ("poisson", "rates = 0.1", "segments = 1:x"),
        ("trace", "trace = t.trace", "rates = 0.1"),
    ])
    def test_key_unused_by_kind_rejected(self, kind, needed, extra):
        # Before, such a key parsed and silently did nothing.
        text = (f"[traffic]\nkind = {kind}\n{needed}\n{extra}\n"
                "\n[policies]\nstandard = on\n")
        with pytest.raises(SpecError) as err:
            parse_spec(text)
        assert err.value.key == extra.split()[0]
        assert err.value.line == 4

    @pytest.mark.parametrize("text, key, line", [
        ("[run]\nhorizon = inf\n" + MINIMAL, "horizon", 2),
        ("[run]\npsf = inf\n" + MINIMAL, "psf", 2),
        ("[drx]\nt_long = inf\n" + MINIMAL, "t_long", 2),
        ("[traffic]\nkind = poisson\nrates = nan\n" + POLICIES, "rates", 3),
        ("[traffic]\nkind = pareto\nrates = 0.1\nshape = inf\n" + POLICIES,
         "shape", 4),
        ("[traffic]\nkind = schedule\nsegments = 1000:inf\n" + POLICIES,
         "segments", 3),
        (MINIMAL + "fixed = inf\n", "fixed", 8),
        (MINIMAL + "adaptive = 64:inf\n", "adaptive", 8),
    ], ids=["horizon", "psf", "t_long", "rates", "shape", "segments", "fixed",
            "adaptive"])
    def test_non_finite_number_rejected(self, text, key, line):
        # A non-finite number would pass validate and overflow in the run.
        with pytest.raises(SpecError) as err:
            parse_spec(text)
        assert err.value.key == key
        assert err.value.line == line
        assert "finite" in str(err.value)

    def test_missing_kind(self):
        with pytest.raises(SpecError):
            parse_spec("[traffic]\nrates = 0.1\n\n[policies]\nstandard = on\n")

    def test_pareto_needs_valid_shape(self):
        base = "[traffic]\nkind = pareto\nrates = 0.1\n"
        pol = "\n[policies]\nstandard = on\n"
        with pytest.raises(SpecError):
            parse_spec(base + pol)
        with pytest.raises(SpecError):
            parse_spec(base + "shape = 1.0\n" + pol)
        parse_spec(base + "shape = 1.5\n" + pol)

    def test_schedule_segments(self):
        text = ("[traffic]\nkind = schedule\nsegments = 1000:0.1 2000:0.4\n"
                "\n[policies]\nadaptive = 64:128\n")
        spec = parse_spec(text)
        (schedule,) = spec.traffic
        assert schedule.segments == ((1000.0, 0.1), (2000.0, 0.4))
        assert functools.reduce(operator.add,
                                (d for d, _ in schedule.segments)) == 3000.0

    def test_malformed_segment(self):
        text = ("[traffic]\nkind = schedule\nsegments = 1000-0.1\n"
                "\n[policies]\nstandard = on\n")
        with pytest.raises(SpecError):
            parse_spec(text)

    def test_adaptive_pair_validation(self):
        text = ("[traffic]\nkind = poisson\nrates = 0.1\n"
                "\n[policies]\nadaptive = 512:256\n")
        with pytest.raises(SpecError):
            parse_spec(text)

    @pytest.mark.parametrize("run, pairs", [
        ("", "64:128 0.2:0.5"), ("psf = 200\n", "64:128"),
    ], ids=["psf1", "psf200"])
    def test_adaptive_cap_below_one_packet(self, run, pairs):
        # w_max / psf < 1 used to pass validate and fail the run at its
        # first adaptive grid point.
        text = (f"[run]\n{run}[traffic]\nkind = poisson\nrates = 0.1\n"
                f"\n[policies]\nadaptive = {pairs}\n")
        with pytest.raises(SpecError, match="q_max must be >= 1") as err:
            parse_spec(text)
        assert err.value.key == "adaptive"
        assert err.value.line == text.count("\n")

    @pytest.mark.parametrize("text, key, line", [
        (PARETO + "rates = 0.1 -0.2\nshape = 1.5\n" + POLICIES, "rates", 3),
        (PARETO + "rates = 0.1 0\nshape = 1.5\n" + POLICIES, "rates", 3),
        (PARETO + "rates = 0.1\nshape = 0.5\n" + POLICIES, "shape", 4),
        ("[run]\nhorizon = 0\n" + MINIMAL, "horizon", 2),
        ("[run]\nhorizon = -1\n" + MINIMAL, "horizon", 2),
        ("[run]\npsf = 0\n" + MINIMAL, "psf", 2),
    ], ids=["negative_rate", "zero_rate", "shape", "horizon_zero",
            "horizon_negative", "psf_zero"])
    def test_traffic_range_error_names_key(self, text, key, line):
        # [run] numbers share the traffic kinds' range rule and wording.
        with pytest.raises(SpecError, match="must be finite and >") as err:
            parse_spec(text)
        assert (err.value.key, err.value.line) == (key, line)

    def test_no_policies(self):
        text = "[traffic]\nkind = poisson\nrates = 0.1\n\n[policies]\nstandard = off\n"
        with pytest.raises(SpecError):
            parse_spec(text)

    def test_policy_order_preserved(self):
        spec = parse_spec(
            "[traffic]\nkind = poisson\nrates = 0.1\n\n"
            "[policies]\nstandard = on\nfixed = 8 32\nadaptive = 64:128\n"
        )
        kinds = [p.kind for p in spec.policies]
        assert kinds == [PolicyKind.STANDARD, PolicyKind.FIXED_COALESCING,
                         PolicyKind.FIXED_COALESCING,
                         PolicyKind.ADAPTIVE_COALESCING]

    def test_rate_schedule_invariants(self):
        with pytest.raises(ValueError):
            ScheduleTraffic(())
        with pytest.raises(ValueError):
            ScheduleTraffic(((0.0, 0.1),))
        with pytest.raises(ValueError):
            ScheduleTraffic(((100.0, -0.1),))


class TestRunExperiment:
    def test_row_count_and_order(self):
        spec = parse_spec(FULL)
        rows = run_experiment(spec)
        assert len(rows) == 4  # 2 policies x 2 rates
        assert [(r.policy, r.rate) for r in rows] == [
            ("standard", 0.2), ("standard", 0.5),
            ("fixed", 0.2), ("fixed", 0.5),
        ]
        fixed_row = rows[2]
        assert fixed_row.q_w == 4.0 and fixed_row.w_star is None

    def test_schedule_rows(self):
        text = ("[run]\nhorizon = 3000\nseeds = 1 2\n\n"
                "[traffic]\nkind = schedule\nsegments = 1500:0.2 1500:0.5\n\n"
                "[policies]\nadaptive = 64:128\nstandard = on\n")
        rows = run_experiment(parse_spec(text))
        # per policy: 2 segment rows + 1 overall row
        assert len(rows) == 6
        assert rows[0].scenario.startswith("schedule[0]")
        assert rows[2].scenario == "schedule:overall"
        assert rows[2].rate == pytest.approx(0.35)

    def test_overall_rate_covers_the_run_horizon(self):
        # The run stops 10 s into the second segment, so the whole-run row
        # averages 20 s at 0.1 and 10 s at 0.2, not the full schedule.
        text = ("[run]\nhorizon = 30000\nseeds = 1 2\n\n[traffic]\n"
                "kind = schedule\nsegments = 20000:0.1 20000:0.2 20000:0.4 "
                "20000:0.2 20000:0.1\n\n[policies]\nadaptive = 64:128\n")
        rows = run_experiment(parse_spec(text))
        assert [r.scenario for r in rows] == [
            "schedule[0]:0-20s", "schedule[1]:20-30s", "schedule:overall"]
        assert [r.rate for r in rows[:2]] == [0.1, 0.2]
        assert rows[2].rate == (20000 * 0.1 + 10000 * 0.2) / 30000

    def test_missing_trace_fails_before_running(self):
        text = ("[traffic]\nkind = trace\ntrace = /nonexistent/x.trace\n\n"
                "[policies]\nstandard = on\n")
        with pytest.raises(FileNotFoundError):
            run_experiment(parse_spec(text))

    def test_trace_parsed_once_per_sweep(self, tmp_path, monkeypatch):
        # fig8's shape: one trace under three policies, several seeds.
        trace = tmp_path / "t.trace"
        trace.write_text("".join(f"{7.5 * k}\n" for k in range(400)))
        spec = parse_spec(f"[run]\nhorizon = 3000\nseeds = 1 2 3\n\n"
                          f"[traffic]\nkind = trace\ntrace = {trace}\n\n"
                          "[policies]\nstandard = on\n"
                          "adaptive = 64:128 512:1024\n")
        parses = []
        real = traffic.load_trace
        monkeypatch.setattr(traffic, "load_trace",
                            lambda fh: parses.append(fh) or real(fh))
        assert len(run_experiment(spec)) == 3
        assert len(parses) == 1

    @pytest.mark.parametrize("text,points", [
        (FULL, 4),
        ("[run]\nhorizon = 3000\nseeds = 1 2 3\n\n[traffic]\nkind = schedule\n"
         "segments = 1500:0.2 1500:0.5\n\n[policies]\nadaptive = 64:128\n"
         "standard = on\n", 2),
    ], ids=["poisson", "schedule"])
    def test_every_seed_runs_through_run_detailed(self, text, points,
                                                  monkeypatch):
        # One run path for every traffic kind: each (grid point, seed) is
        # one run_detailed call, and no sweep calls engine.run (the
        # benchmark's per-run timer wraps both and must not nest).
        calls = {"run_detailed": 0, "run": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(cli, "run_detailed",
                            counted("run_detailed", cli.run_detailed))
        monkeypatch.setattr(engine, "run", counted("run", engine.run))
        spec = parse_spec(text)
        run_experiment(spec)
        assert calls == {"run_detailed": points * len(spec.seeds), "run": 0}

    def test_segment_without_drx_reports_threshold_in_effect(self):
        # At 0.95 packets/ms DRX is never enabled in the middle segment of
        # some seeds; its rows report the threshold in effect, not NaN.
        text = ("[run]\nhorizon = 15000\nseeds = 1 2 3\n\n[traffic]\n"
                "kind = schedule\nsegments = 5000:0.1 5000:0.95 5000:0.1\n\n"
                "[policies]\nfixed = 8\nadaptive = 64:128\n")
        rows = run_experiment(parse_spec(text))
        fixed, adaptive = rows[1], rows[5]
        assert fixed.scenario == adaptive.scenario == "schedule[1]:5-10s"
        assert (fixed.mean_qw, fixed.ci_qw) == (8.0, 0.0)
        assert 1.0 <= adaptive.mean_qw <= 128.0
        assert all(math.isfinite(r.mean_qw) and math.isfinite(r.ci_qw)
                   for r in rows)

    def test_saturation_flag(self):
        text = ("[run]\nhorizon = 5000\nseeds = 1 2\n\n[traffic]\n"
                "kind = poisson\nrates = 1.2 0.5\n\n[policies]\n"
                "standard = on\n")
        assert [(r.rate, r.saturated)
                for r in run_experiment(parse_spec(text))] == [
            (1.2, True), (0.5, False)]

    def test_saturated_segment_reads_its_own_rate(self):
        # Each row's flag is its own rate's: only the rate-1.2 segment is
        # saturated, not the whole run or the segments around it.
        text = ("[run]\nhorizon = 15000\nseeds = 1 2\n\n[traffic]\n"
                "kind = schedule\nsegments = 5000:0.1 5000:1.2 5000:0.1\n\n"
                "[policies]\nfixed = 8\n")
        rows = run_experiment(parse_spec(text))
        assert [(r.scenario, r.saturated) for r in rows] == [
            ("schedule[0]:0-5s", False), ("schedule[1]:5-10s", True),
            ("schedule[2]:10-15s", False), ("schedule:overall", False)]

    def test_parallel_jobs_match_serial(self):
        schedule = ("[run]\nhorizon = 3000\nseeds = 1 2\n\n[traffic]\n"
                    "kind = schedule\nsegments = 1500:0.2 1500:0.5\n\n"
                    "[policies]\nadaptive = 64:128\nstandard = on\n")
        for text in (FULL, schedule):
            spec = parse_spec(text)
            assert run_experiment(spec, jobs=2) == run_experiment(spec, jobs=1)

    def test_workers_capped_at_points(self, monkeypatch):
        # A stand-in pool records its size and maps in this process, so no
        # worker starts.
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                            Pool)
        spec = parse_spec(MINIMAL)  # two points
        serial = run_experiment(spec, jobs=1)
        assert run_experiment(spec, jobs=8) == serial
        assert run_experiment(spec, jobs=2) == serial
        assert sizes == [2, 2]


class TestCsv:
    def _rows(self):
        return run_experiment(parse_spec(FULL))

    def test_header_and_shape(self):
        buf = io.StringIO()
        emit_csv(self._rows()[:1], buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_full_precision_roundtrip(self):
        rows = self._rows()
        buf = io.StringIO()
        emit_csv(rows, buf)
        parsed = buf.getvalue().splitlines()[1:]
        for row, line in zip(rows, parsed):
            cells = line.split(",")
            assert float(cells[5]) == row.mean_delay_ms
            assert float(cells[6]) == row.ci_delay_ms
            assert float(cells[7]) == row.sleep_frac
            assert cells[11] == ("true" if row.saturated else "false")

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            emit_csv([], io.StringIO())

    def test_deterministic_replay(self):
        a, b = io.StringIO(), io.StringIO()
        emit_csv(run_experiment(parse_spec(FULL)), a)
        emit_csv(run_experiment(parse_spec(FULL)), b)
        assert a.getvalue() == b.getvalue()


class TestMain:
    def _write(self, tmp_path, text, name="exp.spec"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", self._write(tmp_path, FULL)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_spec(self, tmp_path, capsys):
        path = self._write(tmp_path, "[traffic]\nkind = warp\n")
        assert main(["validate", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_validate_rejects_infinite_horizon(self, tmp_path, capsys):
        # validate must fail where run would, with an error, not a traceback.
        path = self._write(tmp_path, "[run]\nhorizon = inf\n" + MINIMAL)
        assert main(["validate", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_drx_error_line_ignores_hash_seed(self, tmp_path):
        # A bad geometry names the first [drx] key in the file, under every
        # hash seed, so the message does not depend on set iteration order.
        path = self._write(tmp_path, "[drx]\nt_in = 10\nt_on = 40\n"
                           "t_short = 32\n" + MINIMAL)
        for seed in range(1, 7):
            proc = subprocess.run(
                [sys.executable, "-m", "drxsim.cli", "validate", path],
                env=_src_env(PYTHONHASHSEED=str(seed)), capture_output=True,
                text=True)
            assert proc.returncode == 2
            assert "key '[drx]', line 2:" in proc.stderr, (seed, proc.stderr)

    def test_validate_missing_trace(self, tmp_path, capsys):
        path = self._write(tmp_path, "[traffic]\nkind = trace\n"
                           "trace = /nonexistent/x.trace\n\n"
                           "[policies]\nstandard = on\n")
        assert main(["validate", path]) == 2
        assert "trace file not found" in capsys.readouterr().err

    def test_validate_malformed_trace(self, tmp_path, capsys):
        # validate reads the trace, so it fails where run would.
        trace = self._write(tmp_path, "1.0\n0.5\n", "bad.trace")
        path = self._write(tmp_path, f"[traffic]\nkind = trace\n"
                           f"trace = {trace}\n\n[policies]\nstandard = on\n")
        assert main(["validate", path]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("content, message", [
        (None, "trace file not found"), ("1.0\n0.5\n", "line 2")],
        ids=["missing", "malformed"])
    def test_bad_trace_fails_before_any_run(self, tmp_path, capsys,
                                            monkeypatch, command, content,
                                            message):
        trace = tmp_path / "t.trace"
        if content is not None:
            trace.write_text(content)
        path = self._write(tmp_path, f"[traffic]\nkind = trace\n"
                           f"trace = {trace}\n\n[policies]\nstandard = on\n")
        runs = []
        monkeypatch.setattr(engine, "simulate",
                            lambda *args, **kw: runs.append(args))
        for _ in range(2):  # a failed read is not cached
            assert main([command, path]) == 2
            assert message in capsys.readouterr().err
        assert runs == []

    def test_run_writes_csv(self, tmp_path):
        out = str(tmp_path / "r.csv")
        assert main(["run", self._write(tmp_path, FULL), "--out", out]) == 0
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5

    def test_run_stdout_and_seed_override(self, tmp_path, capsys):
        assert main(["run", self._write(tmp_path, FULL), "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 5

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_run_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        assert main(["run", self._write(tmp_path, FULL), "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert "--jobs" in captured.err and captured.out == ""

    def test_run_warns_on_nan_row(self, tmp_path, capsys):
        # Threshold 64 never fills at rate 0.01 in 1 s, so nothing is
        # served; the row stays in the table and the exit code is 0.
        spec = FULL.replace("horizon = 4000", "horizon = 1000").replace(
            "rates = 0.2 0.5", "rates = 0.01 0.5").replace(
            "standard = on\nfixed = 4", "fixed = 64")
        assert main(["run", self._write(tmp_path, spec)]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: nan delay, a seed served no packet: scenario poisson, "
            "policy fixed q_w=64.0, rate 0.01"
        ]
        rows = captured.out.splitlines()
        assert len(rows) == 3
        assert rows[1].startswith("poisson,fixed,0.01,64.0,,nan,")
        assert "nan" not in rows[2]

    def test_model_subcommand(self, capsys):
        assert main(["model", "--rate", "0.1", "--q-w", "8"]) == 0
        out = capsys.readouterr().out
        assert "mean_wait" in out and "36.2268" in out
        assert "loop_gain   = 0.950895" in out
        assert "stability   = stable" in out

    @pytest.mark.parametrize("rate,gain", [("0.1", "0.642775"),
                                           ("0.5", "0.0942716")])
    def test_model_threshold_one_is_stable(self, capsys, rate, gain):
        # The loop gain 2 lam * slope is below 1 at threshold 1 as well.
        assert main(["model", "--rate", rate, "--q-w", "1"]) == 0
        out = capsys.readouterr().out
        assert f"loop_gain   = {gain} " in out
        assert "stability   = stable\n" in out

    def test_model_never_sleeping(self, capsys):
        # gamma overflows to inf: DRX is never enabled, the gain is 0.
        assert main(["model", "--rate", "0.1", "--q-w", "8",
                     "--t-in", "1e6"]) == 0
        out = capsys.readouterr().out
        assert "gamma       = inf" in out
        assert "loop_gain   = 0 " in out
        assert ("stability   = the threshold does not move the delay "
                "(DRX is never enabled)") in out

    def test_model_rejects_unstable(self, capsys):
        assert main(["model", "--rate", "1.5", "--q-w", "8"]) == 2
        assert "unstable" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, name", [
        (["--rate", "nan"], "--rate"), (["--q-w", "inf"], "--q-w"),
        (["--t-in", "nan"], "--t-in"), (["--var-s", "nan"], "--var-s"),
    ], ids=["rate", "q_w", "t_in", "var_s"])
    def test_model_rejects_non_finite(self, capsys, extra, name):
        # These used to print a verdict for a NaN wait and exit 0.  A
        # repeated option takes its last value.
        assert main(["model", "--rate", "0.1", "--q-w", "8", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {name} must be finite" in captured.err

    def test_missing_spec_file(self, capsys):
        assert main(["run", "/nonexistent.spec"]) == 2


class TestBundledExperiments:
    """The archived experiment specs stay parseable and correctly sized."""

    @pytest.mark.parametrize("name,points", [
        ("fig4.spec", 36), ("fig5.spec", 27), ("fig6.spec", 2),
        ("fig7.spec", 27), ("fig8.spec", 3),
    ])
    def test_spec_grid(self, name, points):
        root = os.path.join(os.path.dirname(__file__), "..", "experiments")
        path = os.path.join(root, name)
        with open(path) as fh:
            spec = parse_spec(fh.read())
        assert len(spec.policies) * len(spec.traffic) == points

    @pytest.mark.parametrize("name", ["fig4", "fig5", "fig6", "fig7", "fig8"])
    def test_golden_spec_matches_experiment(self, name):
        # A golden spec shortens its experiment: only the horizon, the
        # seeds, the output file and the segment durations may differ.
        root = os.path.join(os.path.dirname(__file__), "..")

        def read(*parts):
            with open(os.path.join(root, *parts)) as fh:
                spec = parse_spec(fh.read())
            traffic = tuple(
                (type(t), tuple(r for _, r in t.segments))
                if isinstance(t, ScheduleTraffic) else t
                for t in spec.traffic)
            return (spec.cfg, spec.psf, spec.confidence, spec.policies,
                    traffic)

        assert (read("tests", "golden", f"{name}.spec")
                == read("experiments", f"{name}.spec"))


def _src_env(**extra: str) -> dict[str, str]:
    """This environment for a child Python that imports drxsim from src/."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))), **extra)


def test_import_loads_no_scipy():
    # Importing scipy.stats alone takes over a second, most of a cold
    # start; the command line needs numpy and the standard library only.
    code = ("import drxsim.cli, sys; print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


_GLIBC = platform.libc_ver()[0] == "glibc"


# A child process that sweeps a small spec and prints how often importing
# drxsim called ``ctypes.CDLL`` and whether the heap policy takes, then the
# CSV.  ``patch`` runs before drxsim is imported (numpy is already).
_CHILD_SWEEP = """\
import ctypes, io
import numpy
loads = []
{patch}
from drxsim import engine
from drxsim.cli import emit_csv, parse_spec, run_experiment
at_import = len(loads)
buf = io.StringIO()
emit_csv(run_experiment(parse_spec({spec!r})), buf)
print(at_import, engine._keep_freed_heap())
print(buf.getvalue(), end="")
"""
_FAKE_CDLL = """\
def fake(name, *args, **kwargs):
    loads.append(name)
    {body}
ctypes.CDLL = fake
"""


@functools.lru_cache(maxsize=None)
def _child_sweep(patch: str) -> tuple[str, str]:
    spec = "[run]\nhorizon = 2000\n\n" + MINIMAL
    out = subprocess.run(
        [sys.executable, "-c", _CHILD_SWEEP.format(patch=patch, spec=spec)],
        env=_src_env(), check=True, capture_output=True, text=True).stdout
    status, csv_text = out.split("\n", 1)
    return status, csv_text


class TestKeepFreedHeap:
    @pytest.mark.skipif(not _GLIBC, reason="mallopt is glibc's")
    def test_glibc_takes_both_settings(self):
        # mallopt returns 0 for a setting it rejects, such as parameter 1
        # (M_MXFAST, a dropped minus sign) at 64 MiB.
        assert engine._keep_freed_heap() is True

    @pytest.mark.parametrize("body", [
        pytest.param("raise OSError(f'cannot load {name!r}')", id="no-handle"),
        pytest.param("return object()", id="no-mallopt"),
    ])
    def test_sweep_runs_without_mallopt(self, body):
        # A C library without mallopt, from before drxsim is imported: the
        # import-time call finds none, sets nothing, and the sweep's CSV is
        # the one a normal process writes.
        status, csv_text = _child_sweep(_FAKE_CDLL.format(body=body))
        assert status == "1 False"
        assert csv_text == _child_sweep("")[1]

    @pytest.mark.skipif(not _GLIBC, reason="mallopt is glibc's")
    def test_repeated_sweep_does_not_fault_its_heap_back_in(self):
        # Each run frees about 1 MB.  Under glibc's default trim the kernel
        # takes it back, and this sweep faults it in again: 1,300-2,400
        # minor page faults.  Kept, a repeated sweep takes a handful.
        text = ("[run]\nhorizon = 25000\nseeds = 1 2\n\n[traffic]\n"
                "kind = poisson\nrates = 0.7 0.9\n\n[policies]\n"
                "standard = on\nfixed = 32\n")
        code = ("import resource\n"
                "from drxsim.cli import parse_spec, run_experiment\n"
                f"spec = parse_spec({text!r})\n"
                "run_experiment(spec)\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "run_experiment(spec)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt"
                " - before)\n")
        out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                             check=True, capture_output=True, text=True).stdout
        assert int(out) < 400

    @pytest.mark.skipif(not _GLIBC, reason="mallopt is glibc's")
    def test_library_runs_do_not_fault_their_heap_back_in(self):
        # Importing the engine sets the heap policy, so a library caller
        # outside any sweep keeps it too: without it these four runs take
        # over 1,000 minor page faults, with it a few dozen.
        code = ("import resource\n"
                "from drxsim import (DrxConfig, Policy, PoissonTraffic,"
                " Scenario, run)\n"
                "sc = Scenario(DrxConfig(10, 2, 32, 32), Policy.standard(),"
                " PoissonTraffic(0.9), 25000.0)\n"
                "run(sc, 1)\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "for seed in (1, 2, 3, 4):\n"
                "    run(sc, seed)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt"
                " - before)\n")
        out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                             check=True, capture_output=True, text=True).stdout
        assert int(out) < 400


def test_readme_quickstart_runs():
    # The README's library quickstart, as written.  No sweep calls run, so
    # this is the check on that documented path.
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    (code,) = [block.split("\n", 1)[1] for block in text.split("```")[1::2]
               if block.startswith("python\n")]
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "ms (95% CI)" in proc.stdout
