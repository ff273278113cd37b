"""Unit tests for spec parsing, sweep orchestration and CSV emission."""

from __future__ import annotations

import io
import os

import pytest

from drxsim.cli import (
    CSV_COLUMNS,
    SpecError,
    emit_csv,
    main,
    parse_spec,
    run_experiment,
)
from drxsim.drx import PolicyKind
from drxsim.engine import ScheduleTraffic

MINIMAL = """
[traffic]
kind = poisson
rates = 0.2 0.5

[policies]
standard = on
"""

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
        bad = MINIMAL + "\n[run]\nseeds = 1 2 2\n"
        with pytest.raises(SpecError) as err:
            parse_spec(bad)
        assert err.value.key == "seeds"

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
        assert spec.schedule.segments == ((1000.0, 0.1), (2000.0, 0.4))
        assert spec.schedule.total_duration == 3000.0
        assert spec.schedule.mean_rate == pytest.approx(0.3)

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

    def test_missing_trace_fails_before_running(self):
        text = ("[traffic]\nkind = trace\ntrace = /nonexistent/x.trace\n\n"
                "[policies]\nstandard = on\n")
        with pytest.raises(FileNotFoundError):
            run_experiment(parse_spec(text))

    def test_parallel_jobs_match_serial(self):
        spec = parse_spec(FULL)
        assert run_experiment(spec, jobs=2) == run_experiment(spec, jobs=1)


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
        if spec.kind in ("poisson", "pareto"):
            grid = len(spec.policies) * len(spec.rates)
        else:
            grid = len(spec.policies)
        assert grid == points
