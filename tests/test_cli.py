"""Command-line surface tests: exit codes, config parsing, run artifacts."""

import json

import numpy as np
import pytest

from dirac_soliton.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
)

TINY = """
[grid]
L = 20.0
N = 16

[run]
dt = 0.05
T = 1.0
sample_every = 0.25
snapshots = 2

[initial]
type = soliton
v = 0.3 0.0 0.0
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_simulate_run_directory(tmp_path, capsys):
    cfg = _write(tmp_path, TINY)
    out = tmp_path / "run"
    assert main(["--config", cfg, "--out", str(out), "simulate"]) == EXIT_OK
    report = _json_out(capsys)
    assert abs(report["final_q"][0] - 0.3) < 1e-3
    assert report["hamiltonian_drift"] < 1e-4
    for name in ("manifest.json", "particle.csv", "report.json",
                 "field_0000.raw"):
        assert (out / name).is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["grid_N"] == 16
    assert "snapshot_format" in manifest


def test_simulate_rerun_is_bit_identical(tmp_path, capsys):
    cfg = _write(tmp_path, TINY)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(a), "simulate"]) == EXIT_OK
    assert main(["--config", cfg, "--out", str(b), "simulate"]) == EXIT_OK
    capsys.readouterr()
    assert (a / "particle.csv").read_bytes() == (b / "particle.csv").read_bytes()
    assert (a / "field_0000.raw").read_bytes() == (b / "field_0000.raw").read_bytes()


def test_soliton_subcommand_passes_check(tmp_path, capsys):
    cfg = _write(tmp_path, TINY)
    assert main(["--config", cfg, "--check", "soliton"]) == EXIT_OK
    report = _json_out(capsys)
    assert report["force_balance"] <= 1e-8
    assert report["velocity_drift"] <= 1e-4


def test_project_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path, TINY + "\nepsilon = 0.05\n")
    text = cfg  # keep tiny config, switch initial type
    ini = (tmp_path / "run.ini").read_text().replace("type = soliton",
                                                     "type = perturbed")
    (tmp_path / "run.ini").write_text(ini)
    assert main(["--config", text, "--seed", "4", "--check",
                 "project"]) == EXIT_OK
    report = _json_out(capsys)
    assert report["max_residual"] <= 1e-10
    assert report["converged"] is True


def test_project_far_state_aborts(tmp_path, capsys):
    cfg = _write(tmp_path, """
[grid]
L = 20.0
N = 16

[initial]
type = packet
packet_amplitude = 6.0
""")
    assert main(["--config", cfg, "project"]) == EXIT_NUMERIC
    capsys.readouterr()


def test_spectral_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path, """
[initial]
v = 0.6 0.0 0.0

[spectral]
omega_max = 1.5
samples = 7
""")
    out = tmp_path / "spec"
    assert main(["--config", cfg, "--out", str(out), "--check",
                 "spectral"]) == EXIT_OK
    summary = _json_out(capsys)
    assert summary["max_det_relative_gap"] <= 1e-10
    assert summary["f_zero_max"] == 0.0
    assert summary["min_abs_det_outside_exclusion"] > 0
    rows = (out / "spectral.csv").read_text().strip().splitlines()
    assert rows[0].startswith("omega,F11_re")
    assert len(rows) == 8
    assert json.loads((out / "spectral.json").read_text()) == summary


def test_spectral_writes_to_the_configured_output_directory(tmp_path,
                                                            capsys):
    out = tmp_path / "from_config"
    cfg = _write(tmp_path, f"""
[initial]
v = 0.6 0.0 0.0

[spectral]
omega_max = 1.5
samples = 7

[output]
directory = {out}
""")
    assert main(["--config", cfg, "spectral"]) == EXIT_OK
    summary = _json_out(capsys)
    rows = (out / "spectral.csv").read_text().strip().splitlines()
    assert rows[0].startswith("omega,F11_re")
    assert len(rows) == 8
    assert json.loads((out / "spectral.json").read_text()) == summary


def test_decay_check_failure_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, """
[grid]
L = 24.0
N = 24

[initial]
packet_width = 1.2

[fit]
t_min = 0.5
t_max = 2.4
""")
    assert main(["--config", cfg, "--check", "decay"]) == EXIT_CHECK
    capsys.readouterr()


def test_scatter_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path, """
[grid]
L = 20.0
N = 16

[run]
dt = 0.05
T = 1.5
sample_every = 0.25
snapshots = 3

[initial]
type = perturbed
v = 0.3 0.0 0.0
epsilon = 0.05
""")
    assert main(["--config", cfg, "--seed", "1", "scatter"]) == EXIT_OK
    report = _json_out(capsys)
    assert report["captured"] is True
    assert len(report["phi_cauchy"]) == len(report["phi_times"]) - 1


def test_scatter_check_names_a_fit_window_too_short_to_fit(tmp_path,
                                                           capsys, caplog):
    # T = 1.5 sampled every 0.25 leaves 5 samples in [0.5, 2.4]: the
    # transversal fit is refused, and the report and the check say why
    cfg = _write(tmp_path, """
[grid]
L = 20.0
N = 16

[run]
dt = 0.05
T = 1.5
sample_every = 0.25
snapshots = 3

[initial]
type = perturbed
v = 0.3 0.0 0.0
epsilon = 0.05

[fit]
t_min = 0.5
t_max = 2.4
""")
    out = tmp_path / "run"
    assert main(["--config", cfg, "--seed", "1", "--out", str(out), "--check",
                 "scatter"]) == EXIT_CHECK
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["z_fit"] is None
    assert "holds 5 samples" in report["z_fit_error"]
    assert json.loads((out / "report.json").read_text()) == report
    assert "no transversal decay fit" in captured.err
    assert "holds 5 samples" in captured.err
    assert "exponent above" not in captured.err
    assert any("holds 5 samples" in r.getMessage() for r in caplog.records
               if r.levelname == "WARNING")


def test_fit_subcommand(tmp_path, capsys):
    t = np.linspace(2.0, 30.0, 60)
    lines = ["t,value"] + [f"{float(a)!r},{float(b)!r}"
                           for a, b in zip(t, t ** -1.5)]
    path = tmp_path / "series.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--input", str(path), "--window", "2", "30"]) == EXIT_OK
    report = _json_out(capsys)
    assert abs(report["fit"]["exponent"] + 1.5) < 1e-10
    assert main(["fit", "--input", str(path), "--window", "40",
                 "50"]) == EXIT_CONFIG
    assert main(["fit", "--input", str(tmp_path / "nope.csv")]) == EXIT_CONFIG
    capsys.readouterr()


def test_config_validation_exit_codes(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.ini"),
                 "decay"]) == EXIT_CONFIG
    bad_section = _write(tmp_path, "[warp]\nspeed = 9\n", "a.ini")
    assert main(["--config", bad_section, "decay"]) == EXIT_CONFIG
    bad_key = _write(tmp_path, "[grid]\nM = 32\n", "b.ini")
    assert main(["--config", bad_key, "decay"]) == EXIT_CONFIG
    bad_value = _write(tmp_path, "[grid]\nL = -4\nN = 16\n", "c.ini")
    assert main(["--config", bad_value, "decay"]) == EXIT_CONFIG
    bad_vec = _write(tmp_path, "[initial]\nv = 0.1 0.2\n", "d.ini")
    assert main(["--config", bad_vec, "decay"]) == EXIT_CONFIG
    assert main(["--threads", "0", "fit", "--input", "x.csv"]) == EXIT_CONFIG
    capsys.readouterr()


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["orbit"])
    assert exc.value.code == 2


def test_t_off_the_step_grid_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, TINY.replace("N = 16", "N = 8")
                 .replace("dt = 0.05", "dt = 0.3"))
    assert main(["--config", cfg, "simulate"]) == EXIT_CONFIG
    assert "whole multiple" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [("T = 1.0", "T = inf"),
                                      ("v = 0.3 0.0 0.0", "v = nan 0 0")])
def test_non_finite_config_value_exits_two(tmp_path, capsys, old, new):
    cfg = _write(tmp_path, TINY.replace(old, new))
    assert main(["--config", cfg, "simulate"]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("omega_max", "nan"),
                                        ("samples", "0"),
                                        ("exclude", "5.0")])
def test_spectral_sweep_is_validated_before_any_quadrature(
        tmp_path, capsys, monkeypatch, key, value):
    from dirac_soliton import linearized_spectral

    def refuse(*args, **kwargs):
        raise AssertionError("spectral_matrices ran on an invalid sweep")

    monkeypatch.setattr(linearized_spectral, "spectral_matrices", refuse)
    cfg = _write(tmp_path, f"[spectral]\n{key} = {value}\n")
    assert main(["--config", cfg, "spectral"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert key in err


def test_simulate_of_a_non_finite_field_exits_three(tmp_path, capsys,
                                                    monkeypatch):
    from dirac_soliton import experiments
    from dirac_soliton.field_grid import FOURIER, SpinorField
    from dirac_soliton.phase_space import PhaseState

    build = experiments.initial_state

    def with_a_nan(cfg):
        Y, sigma = build(cfg)
        Y = Y.to_fourier()
        data = Y.psi.data.copy()
        data[2, 1, 2, 3] = np.nan
        return PhaseState(SpinorField(Y.grid, data, FOURIER), Y.q, Y.p), sigma

    monkeypatch.setattr(experiments, "initial_state", with_a_nan)
    cfg = _write(tmp_path, TINY)
    assert main(["--config", cfg, "simulate"]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numerical abort" in err and "psi" in err and "t=0" in err


def test_fit_keeps_a_headerless_first_row_in_scientific_notation(tmp_path,
                                                                 capsys):
    t = np.linspace(2.0, 30.0, 20)
    path = tmp_path / "series.csv"
    path.write_text("".join(f"{a:e},{b:e}\n" for a, b in zip(t, t ** -1.5)))
    assert main(["fit", "--input", str(path)]) == EXIT_OK
    report = _json_out(capsys)
    assert report["samples"] == 20
    assert report["fit"]["window"] == [2.0, 30.0]


CONTRACT = """
[grid]
L = 20.0
N = 16

[run]
dt = 0.05
T = 1.0
sample_every = 0.25
snapshots = 2

[initial]
type = perturbed
v = 0.3 0.0 0.0
epsilon = 0.05

[fit]
t_min = 0.5
t_max = 2.4

[spectral]
omega_max = 1.5
samples = 7
"""


@pytest.mark.parametrize("command", ["simulate", "soliton", "project",
                                     "spectral", "decay", "scatter"])
def test_every_subcommand_writes_one_run_directory_contract(tmp_path, capsys,
                                                            command):
    from dirac_soliton.experiments import RunConfig

    out = tmp_path / "run"
    cfg = _write(tmp_path, CONTRACT)
    assert main(["--config", cfg, "--out", str(out), "--seed", "2",
                 command]) == EXIT_OK
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    others = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert others and manifest["files"] == others
    expected = RunConfig(kind=command, grid_L=20.0, grid_N=16, dt=0.05,
                         t_final=1.0, sample_every=0.25, snapshots=2,
                         initial="perturbed", v=(0.3, 0.0, 0.0),
                         epsilon=0.05, window=(0.5, 2.4), seed=2,
                         out_dir=str(out))
    assert manifest["config"] == expected.as_dict()
