"""Tests for experiment configuration, slope fitting, CSV output, and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from circspec import (
    BandWindow,
    CoeffVec,
    ConfigError,
    ConvergenceReport,
    DiffOpSpec,
    ExperimentConfig,
    SolveError,
    diff_norm,
    emit_csv,
    fit_slope,
    harness,
    run_experiment,
    solve_ode_windows,
)
from circspec.cli import main_convergence, main_solve_ode, main_solve_rhp, main_spectrum


def small_ode3(tmp_path, **over):
    raw = {"experiment": "ode3", "N_list": [24, 32, 48, 64], "N_ref": 201,
           "output_path": str(tmp_path / "out.csv")}
    raw.update(over)
    return ExperimentConfig.from_dict(raw)


# valid configurations whose reference computation overflows
overflowing_configs = pytest.mark.parametrize("raw", [
    {"experiment": "spectrum2", "N_list": [17, 33], "N_ref": 65, "g_scale": 1e300},
    {"experiment": "spectrum3", "N_list": [17, 33], "N_ref": 65, "g_scale": 1e300},
    {"experiment": "rhp", "N_list": [16], "N_ref": 65, "epsilon": 1e308},
], ids=["spectrum2-overflow", "spectrum3-overflow", "rhp-jump-not-finite"])


class TestFitSlope:
    def test_two_point_slope(self):
        assert fit_slope([(10, 1e-2), (100, 1e-4)]) == pytest.approx(-2.0)

    def test_constant_error(self):
        assert fit_slope([(10, 0.5), (100, 0.5), (1000, 0.5)]) == pytest.approx(0.0)

    def test_exact_powerlaw(self):
        rows = [(n, 7.0 * n ** -3.5) for n in (10, 20, 40, 80, 160, 320)]
        assert fit_slope(rows) == pytest.approx(-3.5, abs=1e-12)

    def test_rejects_too_few_usable(self):
        with pytest.raises(ValueError):
            fit_slope([(10, 1e-2), (100, 0.0)])

    def test_floor_exclusion(self):
        rows = [(10, 1e-2), (100, 1e-4), (1000, 1e-15)]
        assert fit_slope(rows) == pytest.approx(-2.0)

    @pytest.mark.parametrize("rows, match", [
        ([(10, 1e-3), (10, 2e-3)], "need at least 2 rows at distinct N"),
        ([(0, 1e-3), (10, 2e-3)], "N must be positive and finite"),
        ([(10, float("inf")), (20, 1e-3)], "the error finite"),
        ([(10, float("nan")), (20, 1e-3), (40, 1e-4)], "the error finite"),
    ], ids=["one-distinct-N", "zero-N", "infinite-error", "nan-error"])
    def test_rejects_degenerate_rows(self, rows, match, capfd):
        with pytest.raises(ValueError, match=match):
            fit_slope(rows)
        assert capfd.readouterr().err == ""


class TestExperimentConfig:
    def test_defaults_fill_in(self):
        cfg = ExperimentConfig.from_dict({"experiment": "ode3"})
        assert cfg.alpha == 1.51 and cfg.s == 0.0
        assert cfg.N_ref == 2001 and cfg.N_list[0] == 40 and cfg.N_list[-1] == 400
        assert cfg.mode == "finite_section"

    def test_rhp_defaults(self):
        cfg = ExperimentConfig.from_dict({"experiment": "rhp"})
        assert cfg.epsilon == 0.01 and cfg.s == 0.25 and cfg.N_ref == 2000

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            ExperimentConfig.from_dict({"experiment": "ode3", "alhpa": 2.0})
        # t was a field that nothing read; a config that still sets it is rejected
        with pytest.raises(ConfigError, match=r"unknown configuration keys: \['t'\]"):
            ExperimentConfig.from_dict({"experiment": "rhp", "t": 1.0})

    @pytest.mark.parametrize("raw", [
        {"experiment": "ode3", "epsilon": 0.5},
        {"experiment": "rhp", "g_scale": 2.0},
        {"experiment": "spectrum2", "s": 1.0},
    ], ids=["ode3-epsilon", "rhp-g_scale", "spectrum2-s"])
    def test_key_the_experiment_does_not_read_rejected(self, raw):
        (key,) = set(raw) - {"experiment"}
        with pytest.raises(ConfigError, match=rf"unknown configuration keys: \['{key}'\]; {raw['experiment']} reads"):
            ExperimentConfig.from_dict(raw)

    def test_non_string_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown configuration keys: \[1, 'a'\]"):
            ExperimentConfig.from_dict({"experiment": "ode3", 1: 2, "a": 3})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "heat"})

    def test_reference_must_exceed_sweep(self):
        with pytest.raises(ConfigError, match="N_ref"):
            ExperimentConfig.from_dict({"experiment": "ode3", "N_list": [40, 80], "N_ref": 80})

    def test_descending_list_rejected(self):
        with pytest.raises(ConfigError, match="ascending"):
            ExperimentConfig.from_dict({"experiment": "ode3", "N_list": [80, 40], "N_ref": 200})

    def test_largest_windows_accepted(self):
        assert ExperimentConfig.from_dict({"experiment": "ode3", "N_ref": 2 ** 20}).N_ref == 2 ** 20
        assert ExperimentConfig.from_dict({"experiment": "spectrum3", "N_ref": 4096}).N_ref == 4096

    def test_spectrum_rejects_collocation(self):
        # the spectrum studies read no mode, so setting it, even to the one they use, is rejected
        for mode in ("collocation", "finite_section"):
            with pytest.raises(ConfigError, match=r"unknown configuration keys: \['mode'\]; spectrum2 reads"):
                ExperimentConfig.from_dict({"experiment": "spectrum2", "mode": mode})

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            ExperimentConfig.from_json_file(str(p))

    def test_whole_floats_coerced_fractions_rejected(self):
        cfg = ExperimentConfig.from_dict({"experiment": "ode3", "N_list": [16.0, 24.0], "N_ref": 65.0})
        assert cfg.N_list == [16, 24] and cfg.N_ref == 65
        with pytest.raises(ConfigError, match="integers"):
            ExperimentConfig.from_dict({"experiment": "ode3", "N_list": [16.5], "N_ref": 65})


class TestEmitCsv:
    def test_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(ConvergenceReport(rows=[], fitted_slope=None, fit_range=[]), str(path))
        text = path.read_text()
        assert text.startswith("N,error\n")
        assert "# slope=undefined" in text
        assert text.endswith("\n")

    def test_round_trip(self, tmp_path):
        rows = [(10, 0.1), (20, 0.025), (40, 0.00625)]
        rep = ConvergenceReport(rows=rows, fitted_slope=-2.0, fit_range=[0, 1, 2])
        path = tmp_path / "rt.csv"
        emit_csv(rep, str(path))
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "N,error"
        parsed = [(int(a), float(b)) for a, b in (l.split(",") for l in lines[1:])]
        assert parsed == rows

    def test_spectrum_schema(self, tmp_path):
        rep = ConvergenceReport(rows=[(41, 1e-8)], fitted_slope=None, fit_range=[],
                                eigen_rows=[(41, 1.0, 1e-8, 2e-5)])
        path = tmp_path / "spec.csv"
        emit_csv(rep, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "N,lambda,d,r"
        assert lines[1].startswith("41,1.0,")

    def test_unwritable_path(self):
        rep = ConvergenceReport(rows=[], fitted_slope=None, fit_range=[])
        with pytest.raises(OSError):
            emit_csv(rep, "/nonexistent-dir/x.csv")


class TestRunExperiment:
    def test_small_ode3_slope(self, tmp_path):
        rep = run_experiment(small_ode3(tmp_path))
        assert len(rep.rows) == 4
        assert rep.fitted_slope < -3.0

    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_determinism_byte_identical(self, tmp_path, mode):
        cfg = small_ode3(tmp_path, mode=mode)
        outs = []
        for name in ("a.csv", "b.csv"):
            rep = run_experiment(cfg)
            path = tmp_path / name
            emit_csv(rep, str(path))
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_spectrum_determinism_byte_identical(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "experiment": "spectrum2", "N_list": [17, 33], "N_ref": 129,
            "output_path": str(tmp_path / "s.csv"),
        })
        outs = []
        for name in ("sa.csv", "sb.csv"):
            rep = run_experiment(cfg)
            path = tmp_path / name
            emit_csv(rep, str(path))
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_rhp_determinism_byte_identical(self, tmp_path, mode):
        cfg = ExperimentConfig.from_dict({
            "experiment": "rhp", "N_list": [24, 32, 48, 64], "N_ref": 200, "mode": mode,
            "output_path": str(tmp_path / "r.csv"),
        })
        outs = []
        for name in ("ra.csv", "rb.csv"):
            rep = run_experiment(cfg)
            path = tmp_path / name
            emit_csv(rep, str(path))
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_spectrum_zero_coupling_slope_undefined(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "experiment": "spectrum2", "N_list": [17, 33], "N_ref": 65,
            "g_scale": 0.0, "output_path": str(tmp_path / "s.csv"),
        })
        rep = run_experiment(cfg)
        assert all(e == 0.0 for _, e in rep.rows)
        assert rep.fitted_slope is None
        assert any("undefined" in note for note in rep.notes)
        emit_csv(rep, cfg.output_path)
        assert "# slope=undefined" in (tmp_path / "s.csv").read_text()

    def test_spectrum_rows_and_eigen_rows(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "experiment": "spectrum2", "N_list": [17, 33], "N_ref": 129,
            "output_path": str(tmp_path / "s.csv"),
        })
        rep = run_experiment(cfg)
        assert {n for n, *_ in rep.eigen_rows} == {17, 33}
        assert len([r for r in rep.eigen_rows if r[0] == 17]) == 17
        assert any("floor" in note for note in rep.notes)

    def test_solver_failure_names_window(self, tmp_path):
        # zero coupling leaves the third-derivative symbol dead at mode 0
        # while the data is nonzero there; the reference solve fails first
        from circspec import SolveError
        cfg = small_ode3(tmp_path, N_list=[16], N_ref=65, g_scale=0.0)
        with pytest.raises(SolveError, match="N=65"):
            run_experiment(cfg)

    @overflowing_configs
    def test_overflow_is_a_solve_error(self, tmp_path, raw):
        # pytest turns warnings into errors, so a numpy overflow warning would escape as RuntimeWarning
        from circspec import SolveError
        cfg = ExperimentConfig.from_dict({**raw, "output_path": str(tmp_path / "o.csv")})
        with pytest.raises(SolveError, match="reference failed at N=65"):
            run_experiment(cfg)

    def test_overflowing_error_norm_is_a_solve_error(self, tmp_path):
        # the weights (1+|j|)^400 overflow in the measurement, which runs under the solve's guard
        from circspec import SolveError
        cfg = small_ode3(tmp_path, N_list=[16, 24], N_ref=65, s=400)
        with pytest.raises(SolveError, match="ode3 failed at N=16: overflow encountered in power"):
            run_experiment(cfg)

    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    def test_stacked_sweep_fails_as_the_window_by_window_sweep(self, tmp_path, monkeypatch, mode):
        # -d^2 + 100 vanishes at m = +-10, where the data is nonzero, so every window
        # from N = 20 on fails; in both modes N = 20 lies in a stack whose first
        # five windows solve.  That stack is solved again N by N, so the
        # stacked sweep reports what the N-by-N sweep reports.  The reference is
        # stubbed out, as it holds mode 10 too.
        spec = DiffOpSpec.from_orders({2: 1.0, 0: 100.0})
        f = CoeffVec.from_dict({m: 1.0 + 0.1j * m for m in range(-12, 13)})
        cfg = small_ode3(tmp_path, N_list=[12, 16, 17, 18, 19, 20, 24, 32], N_ref=129, mode=mode)
        stacks = harness._stacks(cfg)
        assert stacks == [cfg.N_list]

        def solve(p, ns):
            if ns == [cfg.N_ref]:
                return [CoeffVec(0, np.ones(1))]
            return solve_ode_windows(*p, [BandWindow(n) for n in ns], mode=mode)

        messages = []
        for runs in (stacks, [[n] for n in cfg.N_list]):
            monkeypatch.setattr(harness, "_stacks", lambda cfg: runs)
            with pytest.raises(SolveError) as failure:
                harness._sweep(lambda: (spec, f), solve, lambda u, ref: diff_norm(ref, u, 0.0), cfg)
            messages.append(str(failure.value))
        assert messages[0] == messages[1] == (
            f"ode3 failed at N=20: {mode} solve at N=20: condition estimate inf "
            "(symbol vanishes at mode -10 with nonzero data)")

    def test_reference_insensitivity(self, tmp_path):
        # moving the reference from 2001 to 1501 must not materially change
        # the reported errors anywhere in the sweep range
        errs = {}
        for n_ref in (1501, 2001):
            cfg = small_ode3(tmp_path, N_list=[100, 200, 400], N_ref=n_ref)
            errs[n_ref] = [e for _, e in run_experiment(cfg).rows]
        for a, b in zip(errs[1501], errs[2001]):
            assert abs(a - b) / b < 0.05


class TestStacks:
    @pytest.mark.parametrize("mode", ["finite_section", "collocation"])
    @pytest.mark.parametrize("experiment", ["ode3", "rhp"])
    def test_stacks_fill_the_budget(self, tmp_path, experiment, mode):
        # below N_ref 4096 a stack may hold one 4096-mode window's modes and circulant
        # entries (8 windows of circulant length 1024); from 4096 on, the reference's
        def stacks(**raw):
            return harness._stacks(ExperimentConfig.from_dict(
                {"experiment": experiment, "mode": mode, "output_path": str(tmp_path / "o.csv"), **raw}))

        assert stacks(N_list=list(range(32, 513, 32)), N_ref=641) == [
            list(range(32, 257, 32)), list(range(288, 513, 32))]
        shipped = ExperimentConfig.from_json_file(str(ROOT / "configs" / f"{experiment}.json"))
        assert stacks(N_list=shipped.N_list, N_ref=shipped.N_ref) == [
            list(range(40, 241, 20)), list(range(260, 401, 20))]
        assert stacks(N_list=[131073, 163840, 196608, 229376, 262144], N_ref=2 ** 20) == [
            [131073, 163840, 196608, 229376], [262144]]

    @pytest.mark.parametrize("experiment", ["spectrum2", "spectrum3"])
    def test_spectrum_takes_the_solvers_stacks(self, tmp_path, experiment):
        # the spectra stack as the solvers do; the shipped windows, of four circulant lengths, are one stack
        def stacks(**raw):
            return harness._stacks(ExperimentConfig.from_dict(
                {"experiment": experiment, "output_path": str(tmp_path / "o.csv"), **raw}))

        assert stacks(N_list=list(range(32, 513, 32)), N_ref=641) == [
            list(range(32, 257, 32)), list(range(288, 513, 32))]
        shipped = ExperimentConfig.from_json_file(str(ROOT / "configs" / f"{experiment}.json"))
        assert stacks(N_list=shipped.N_list, N_ref=shipped.N_ref) == [[41, 81, 161, 321]]


class TestCli:
    def write_cfg(self, tmp_path, raw):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        return str(p)

    def test_ode_command_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "ode.csv"
        cfg = self.write_cfg(tmp_path, {"experiment": "ode3", "N_list": [24, 32, 48],
                                        "N_ref": 101, "output_path": str(out)})
        assert main_solve_ode(["--config", cfg]) == 0
        assert out.exists()
        assert "slope=" in capsys.readouterr().out

    def test_output_override(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"experiment": "rhp", "N_list": [16, 24],
                                        "N_ref": 65, "output_path": str(tmp_path / "x.csv")})
        override = tmp_path / "y.csv"
        assert main_solve_rhp(["--config", cfg, "--output", str(override)]) == 0
        assert override.exists()
        assert not (tmp_path / "x.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"experiment": "ode3", "bogus": 1})
        assert main_solve_ode(["--config", cfg]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_wrong_experiment_for_command(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"experiment": "ode3", "N_list": [16], "N_ref": 65,
                                        "output_path": str(tmp_path / "o.csv")})
        assert main_spectrum(["--config", cfg]) == 2

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        # zero coupling makes the third-derivative system singular at mode 0
        # with data there, so the solver fails
        cfg = self.write_cfg(tmp_path, {"experiment": "ode3", "N_list": [16], "N_ref": 65,
                                        "g_scale": 0.0, "output_path": str(tmp_path / "o.csv")})
        assert main_solve_ode(["--config", cfg]) == 1
        assert "solver failure" in capsys.readouterr().err

    def test_convergence_accepts_any(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"experiment": "spectrum2", "N_list": [17, 33],
                                        "N_ref": 129, "output_path": str(tmp_path / "s.csv")})
        assert main_convergence(["--config", cfg]) == 0
        text = (tmp_path / "s.csv").read_text()
        assert text.startswith("N,lambda,d,r")

    def test_excluded_rows_printed(self, tmp_path, capsys):
        # the N=81 distance of this spectrum3 sweep is below the floor; stdout lists it after the slope
        cfg = self.write_cfg(tmp_path, {"experiment": "spectrum3", "N_list": [41, 81], "N_ref": 161,
                                        "output_path": str(tmp_path / "s.csv")})
        assert main_spectrum(["--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        excluded = run_experiment(ExperimentConfig.from_json_file(cfg)).excluded
        assert [n for n, _, _ in excluded] == [81]
        at = next(i for i, line in enumerate(lines) if line.startswith("slope="))
        assert lines[at + 1:at + 1 + len(excluded)] == [
            f"excluded: N={n} error={e:.6e} ({reason})" for n, e, reason in excluded]

    def test_large_reference_solves(self, tmp_path, capsys):
        # the regulated estimate stays near 1 at N_ref 20001, far below the 1e12 cap
        cfg = self.write_cfg(tmp_path, {"experiment": "ode3", "N_list": [40, 80], "N_ref": 20001,
                                        "output_path": str(tmp_path / "o.csv")})
        assert main_solve_ode(["--config", cfg]) == 0

    def test_nul_output_override_exits_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"experiment": "rhp", "N_list": [16, 24],
                                        "N_ref": 65, "output_path": str(tmp_path / "x.csv")})
        assert main_solve_rhp(["--config", cfg, "--output", "o\0.csv"]) == 2
        assert "NUL" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main_convergence(["--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("override", [
        {"alpha": float("nan")},
        {"s": "abc"},
        {"N_list": "abc"},
        {"N_ref": float("inf")},
        {"lambda_cap": float("nan")},
        {"output_path": "missing-dir/out.csv"},
        {"N_ref": 2 ** 20 + 1},
        {"experiment": "spectrum2", "N_ref": 4097},
        {"alpha": 10 ** 400},
        {"experiment": "spectrum2", "lambda_cap": float("nan")},
        {"experiment": "spectrum2", "lambda_cap": 0},
        {"output_path": "o\u0000.csv"},
        {"output_path": 5},
        {"mode": "nodal"},
        {"N_list": []},
    ], ids=["alpha-nan", "s-string", "N_list-string", "N_ref-inf", "lambda_cap-nan", "unwritable-output",
            "N_ref-solver-too-large", "N_ref-spectrum-too-large", "alpha-beyond-float",
            "spectrum-lambda_cap-nan", "spectrum-lambda_cap-zero", "output-nul", "output-not-string",
            "mode-unknown", "N_list-empty"])
    def test_bad_input_exits_2(self, tmp_path, monkeypatch, capsys, override):
        monkeypatch.chdir(tmp_path)
        raw = {"experiment": "ode3", "N_list": [16, 24], "N_ref": 65, "output_path": "o.csv", **override}
        cfg = self.write_cfg(tmp_path, raw)  # json writes NaN and Infinity literals
        assert main_convergence(["--config", cfg]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        # json.load raises RecursionError, not ValueError, on 100000 nested arrays
        cfg = tmp_path / "nested.json"
        cfg.write_text("[" * 100000 + "]" * 100000)
        assert main_convergence(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "invalid JSON" in err
        assert "Traceback" not in err


ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, *, code=""):
    """Run `code`, then main_convergence(args), in a fresh interpreter that imports circspec from src."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    script = f"import sys\nfrom circspec.cli import main_convergence\nrc = main_convergence(sys.argv[1:])\n{code}\nsys.exit(rc)"
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env)


class TestCliProcess:
    """The CLI in a fresh process, outside pytest's warnings-as-errors filter:
    overflow still exits 1 with a message and no numpy warning."""

    @overflowing_configs
    def test_overflowing_input_is_a_solver_failure(self, tmp_path, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        proc = run_cli(["--config", str(cfg), "--output", str(tmp_path / "o.csv")])
        assert proc.returncode == 1, proc.stderr
        assert "solver failure" in proc.stderr and "reference failed at N=65" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_overflowing_error_norm_is_a_solver_failure(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "ode3", "N_list": [16, 24], "N_ref": 65, "s": 400}))
        proc = run_cli(["--config", str(cfg), "--output", str(tmp_path / "o.csv")])
        assert proc.returncode == 1, proc.stderr
        assert "solver failure: ode3 failed at N=16: overflow encountered in power" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("name", ["ode3", "rhp", "spectrum2", "spectrum3"])
    def test_shipped_config_runs_without_scipy(self, tmp_path, name):
        proc = run_cli(["--config", str(ROOT / "configs" / f"{name}.json"), "--output", str(tmp_path / "o.csv")],
                       code="assert 'scipy' not in sys.modules, 'scipy was imported'")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o.csv").exists()
