"""Tests for experiment configuration, slope fitting, CSV output, and the CLI."""

import json

import pytest

from circspec import (
    ConfigError,
    ConvergenceReport,
    ExperimentConfig,
    emit_csv,
    fit_slope,
    run_experiment,
)
from circspec.cli import main_convergence, main_solve_ode, main_solve_rhp, main_spectrum


def small_ode3(tmp_path, **over):
    raw = {"experiment": "ode3", "N_list": [24, 32, 48, 64], "N_ref": 201,
           "output_path": str(tmp_path / "out.csv")}
    raw.update(over)
    return ExperimentConfig.from_dict(raw)


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


class TestExperimentConfig:
    def test_defaults_fill_in(self):
        cfg = ExperimentConfig.from_dict({"experiment": "ode3"})
        assert cfg.alpha == 1.51 and cfg.t == 1.0 and cfg.s == 0.0
        assert cfg.N_ref == 2001 and cfg.N_list[0] == 40 and cfg.N_list[-1] == 400
        assert cfg.mode == "finite_section"

    def test_rhp_defaults(self):
        cfg = ExperimentConfig.from_dict({"experiment": "rhp"})
        assert cfg.epsilon == 0.01 and cfg.s == 0.25 and cfg.N_ref == 2000

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            ExperimentConfig.from_dict({"experiment": "ode3", "alhpa": 2.0})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "heat"})

    def test_reference_must_exceed_sweep(self):
        with pytest.raises(ConfigError, match="N_ref"):
            ExperimentConfig.from_dict({"experiment": "ode3", "N_list": [40, 80], "N_ref": 80})

    def test_descending_list_rejected(self):
        with pytest.raises(ConfigError, match="ascending"):
            ExperimentConfig.from_dict({"experiment": "ode3", "N_list": [80, 40], "N_ref": 200})

    def test_spectrum_rejects_collocation(self):
        with pytest.raises(ConfigError, match="finite_section"):
            ExperimentConfig.from_dict({"experiment": "spectrum2", "mode": "collocation"})

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

    def test_determinism_byte_identical(self, tmp_path):
        cfg = small_ode3(tmp_path)
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

    def test_reference_insensitivity(self, tmp_path):
        # moving the reference from 2001 to 1501 must not materially change
        # the reported errors anywhere in the sweep range
        errs = {}
        for n_ref in (1501, 2001):
            cfg = small_ode3(tmp_path, N_list=[100, 200, 400], N_ref=n_ref)
            errs[n_ref] = [e for _, e in run_experiment(cfg).rows]
        for a, b in zip(errs[1501], errs[2001]):
            assert abs(a - b) / b < 0.05


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

    def test_missing_config_file(self, tmp_path, capsys):
        assert main_convergence(["--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("override", [
        {"alpha": float("nan")},
        {"s": "abc"},
        {"N_list": "abc"},
        {"N_ref": float("inf")},
        {"lambda_cap": float("nan")},
        {"output_path": "missing-dir/out.csv"},
    ], ids=["alpha-nan", "s-string", "N_list-string", "N_ref-inf", "lambda_cap-nan", "unwritable-output"])
    def test_bad_input_exits_2(self, tmp_path, monkeypatch, capsys, override):
        monkeypatch.chdir(tmp_path)
        raw = {"experiment": "ode3", "N_list": [16, 24], "N_ref": 65, "output_path": "o.csv", **override}
        cfg = self.write_cfg(tmp_path, raw)  # json writes NaN and Infinity literals
        assert main_convergence(["--config", cfg]) == 2
        assert "configuration error" in capsys.readouterr().err
