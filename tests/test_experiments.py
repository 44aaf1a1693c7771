"""Tests for the experiment drivers, the power-law fitter, the
perturbation family, and run persistence."""

import json

import numpy as np
import pytest

from dirac_soliton import experiments
from dirac_soliton.experiments import (
    ConfigError,
    RunConfig,
    decay_validity_time,
    fit_power_law,
    free_decay_series,
    initial_state,
    perturbed_soliton,
    run_free_decay,
    run_scattering,
    run_soliton_persistence,
    scattering_validity_time,
)
from dirac_soliton.field_grid import GridSpec
from dirac_soliton.soliton_manifold import SolitonParams, soliton_state, tangent_basis
from dirac_soliton.spinor_algebra import ChargeDensity
from dirac_soliton.symplectic_geometry import ProjectionError, omega

RHO = ChargeDensity()


def _tiny(**kw):
    base = dict(kind="soliton", grid_L=20.0, grid_N=16, dt=0.05, t_final=1.0,
                sample_every=0.25, snapshots=2, v=(0.3, 0.0, 0.0))
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# fit_power_law
# ---------------------------------------------------------------------------

def test_fit_exact_power_law():
    t = np.linspace(2.0, 20.0, 40)
    fit = fit_power_law(t, t ** -1.5)
    assert abs(fit.exponent + 1.5) < 1e-12
    assert fit.residual < 1e-10


def test_fit_modulated_power_law():
    t = np.linspace(2.0, 30.0, 80)
    fit = fit_power_law(t, t ** -1.5 * (1.0 + 0.1 * np.sin(t)))
    assert abs(fit.exponent + 1.5) < 0.05


def test_fit_constant_series():
    t = np.linspace(1.0, 10.0, 30)
    fit = fit_power_law(t, np.full_like(t, 2.5))
    assert abs(fit.exponent) < 1e-12
    assert abs(fit.intercept - np.log(2.5)) < 1e-12


def test_fit_window_restriction():
    t = np.linspace(1.0, 40.0, 200)
    y = t ** -2.0
    y[t > 20] = y[t > 20] * 5.0       # corrupt the tail
    fit = fit_power_law(t, y, window=(1.0, 20.0))
    assert abs(fit.exponent + 2.0) < 1e-10
    assert fit.window == (1.0, 20.0)


def test_fit_validation_errors():
    t = np.linspace(1.0, 10.0, 30)
    with pytest.raises(ValueError, match="at least 10"):
        fit_power_law(t[:5], t[:5] ** -1.0)
    with pytest.raises(ValueError, match="positive"):
        fit_power_law(t, np.linspace(-1.0, 1.0, 30))
    with pytest.raises(ValueError, match="t_min < t_max"):
        fit_power_law(t, t, window=(5.0, 2.0))


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(kind="warp")
    with pytest.raises(ConfigError):
        RunConfig(initial="vortex")
    with pytest.raises(ConfigError):
        RunConfig(grid_N=15)
    with pytest.raises(ConfigError):
        RunConfig(dt=-0.1)
    with pytest.raises(ConfigError):
        RunConfig(dt=0.5, sample_every=0.1)
    with pytest.raises(ConfigError):
        RunConfig(v=(1.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        RunConfig(window=(5.0, 2.0))
    with pytest.raises(ConfigError):
        RunConfig(seed=-1)


def test_run_config_serializes():
    cfg = _tiny(window=(1.0, 2.0), out_dir="/tmp/x")
    d = cfg.as_dict()
    text = json.dumps(d)
    assert json.loads(text)["grid_L"] == 20.0
    assert d["v"] == [0.3, 0.0, 0.0]
    assert cfg.grid == GridSpec(20.0, 16)
    assert cfg.rho == ChargeDensity(1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# free decay
# ---------------------------------------------------------------------------

def test_decay_validity_window_guard():
    cfg = RunConfig(kind="decay", grid_L=20.0, grid_N=16,
                    window=(5.0, 25.0))
    assert decay_validity_time(cfg) == pytest.approx(4.0)
    with pytest.raises(ConfigError, match="enlarge L"):
        free_decay_series(cfg)


def test_decay_zero_weight_is_charge_conservation():
    cfg = RunConfig(kind="decay", grid_L=24.0, grid_N=24, nu=0.0,
                    window=(2.0, 6.0), packet_width=1.2)
    _, norms = free_decay_series(cfg, n_samples=11)
    assert np.max(norms) / np.min(norms) - 1.0 < 1e-12


def test_decay_small_box_exponent_band():
    # coarse early-window variant of the production experiment; the
    # asymptotic -3/2 emerges only partially this early
    cfg = RunConfig(kind="decay", grid_L=24.0, grid_N=24, nu=3.0,
                    window=(2.0, 6.5), packet_width=1.2)
    fit = run_free_decay(cfg)
    assert -1.9 < fit.exponent < -0.9


def test_decay_writes_outputs(tmp_path):
    cfg = RunConfig(kind="decay", grid_L=24.0, grid_N=24, nu=3.0,
                    window=(2.0, 6.5), packet_width=1.2,
                    out_dir=str(tmp_path))
    fit = run_free_decay(cfg)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"] == cfg.as_dict()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["fit"]["exponent"] == fit.exponent
    rows = (tmp_path / "decay.csv").read_text().strip().splitlines()
    assert rows[0] == "t,weighted_norm"
    assert len(rows) == 42


# ---------------------------------------------------------------------------
# perturbation family and persistence
# ---------------------------------------------------------------------------

def test_perturbed_soliton_is_transversal():
    grid = GridSpec(20.0, 16)
    params = SolitonParams(np.array([0.4, -0.2, 0.1]),
                           np.array([0.3, 0.0, 0.0]))
    Y0 = perturbed_soliton(params, RHO, grid, 0.05, seed=3)
    Z0 = Y0 - soliton_state(params, RHO, grid)
    assert Z0.energy_norm() > 0.05
    tb = tangent_basis(params.v, RHO, grid)
    rows = [omega(Z0, tb.phase_state(j, b=params.b)) for j in range(6)]
    assert np.max(np.abs(rows)) < 1e-12


def test_perturbed_soliton_zero_epsilon_is_exact():
    grid = GridSpec(20.0, 16)
    params = SolitonParams(np.zeros(3), np.array([0.3, 0.0, 0.0]))
    Y0 = perturbed_soliton(params, RHO, grid, 0.0, seed=9)
    assert (Y0 - soliton_state(params, RHO, grid)).energy_norm() == 0.0


def test_initial_state_kinds():
    cfg = _tiny(initial="packet", b=(0.5, 0.0, 0.0))
    Y, sigma = initial_state(cfg)
    assert sigma is None
    assert np.array_equal(Y.q, [0.5, 0.0, 0.0])
    assert np.all(Y.p == 0.0)
    Y2, sigma2 = initial_state(_tiny(initial="soliton"))
    assert sigma2 is not None
    assert (Y2 - soliton_state(sigma2, RHO, cfg.grid)).energy_norm() == 0.0


def test_soliton_persistence_small_grid():
    report = run_soliton_persistence(_tiny())
    assert report.velocity_drift < 5e-4
    assert report.max_field_error < 5e-3
    assert report.max_z_norm < 5e-3
    assert report.field_errors.size == len(report.field_error_times)


def test_persistence_outputs_reproduce_bitwise(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_soliton_persistence(_tiny(out_dir=str(a)))
    run_soliton_persistence(_tiny(out_dir=str(b)))
    assert (a / "particle.csv").read_bytes() == (b / "particle.csv").read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma["config"].pop("out_dir"), mb["config"].pop("out_dir")
    assert ma == mb
    header = (a / "particle.csv").read_text().splitlines()[0]
    assert header == ("t,q1,q2,q3,p1,p2,p3,vmod1,vmod2,vmod3,znorm,majorant")


def test_snapshot_layout_roundtrip(tmp_path):
    cfg = _tiny(out_dir=str(tmp_path))
    report = run_soliton_persistence(cfg)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "field_0000.raw" in manifest["files"]
    assert manifest["snapshot_times"] == [float(t) for t
                                          in report.field_error_times]
    raw = np.fromfile(tmp_path / "field_0000.raw", dtype="<c16")
    N = cfg.grid_N
    back = raw.reshape(N, N, N, 4).transpose(3, 0, 1, 2)
    expect = report.trajectory.fields[0].to_position().data
    assert np.array_equal(back, expect)


# ---------------------------------------------------------------------------
# scattering
# ---------------------------------------------------------------------------

def _scatter_config(**kw):
    base = dict(kind="scatter", grid_L=20.0, grid_N=16, dt=0.05,
                t_final=1.5, sample_every=0.25, snapshots=3,
                initial="perturbed", v=(0.3, 0.0, 0.0), epsilon=0.05,
                seed=1)
    base.update(kw)
    return RunConfig(**base)


def test_scattering_perturbed_run():
    rep = run_scattering(_scatter_config())
    assert rep.captured
    assert rep.tracking_failed_at is None
    assert np.all(np.diff(rep.phi_times) > 0)
    assert rep.phi_cauchy.size == rep.phi_times.size - 1
    assert np.isfinite(rep.remainder)
    assert np.linalg.norm(rep.v_plus) < 1.0


def test_scattering_zero_perturbation_recovers_soliton():
    rep = run_scattering(_scatter_config(epsilon=0.0, b=(0.2, 0.0, 0.0)))
    assert np.linalg.norm(rep.v_plus - [0.3, 0.0, 0.0]) < 1e-3
    assert np.linalg.norm(rep.a_plus - [0.2, 0.0, 0.0]) < 1e-3


def test_scattering_writes_report(tmp_path):
    rep = run_scattering(_scatter_config(out_dir=str(tmp_path)))
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["captured"] is True
    assert report["v_plus"] == [float(x) for x in rep.v_plus]
    assert (tmp_path / "particle.csv").is_file()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["epsilon"] == 0.05


def test_run_config_rejects_t_off_the_step_grid():
    with pytest.raises(ConfigError, match="whole multiple"):
        RunConfig(dt=0.3, t_final=1.0)


def test_scattering_validity_time():
    assert scattering_validity_time(_scatter_config()) == pytest.approx(
        10.0 - 1.5 * np.sqrt(3.0) - 4.8)
    assert scattering_validity_time(_scatter_config(b=(0.0, 3.0, 4.0))) \
        == pytest.approx(10.0 - 5.0 - 1.5 * np.sqrt(3.0) - 4.8)


def test_scattering_past_wrap_around_warns_and_records(tmp_path, caplog):
    # L = 16 leaves 8 - 7.40 = 0.60 before the bump's radiation re-enters
    cfg = _scatter_config(grid_L=16.0, out_dir=str(tmp_path))
    with caplog.at_level("WARNING", logger="dirac_soliton.experiments"):
        rep = run_scattering(cfg)
    assert rep.validity_time == pytest.approx(0.60, abs=0.01)
    assert rep.validity_time == scattering_validity_time(cfg)
    assert any("wrap-around" in r.getMessage() for r in caplog.records)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["validity_time"] == rep.validity_time


def test_scattering_inside_wrap_around_does_not_warn(caplog):
    with caplog.at_level("WARNING", logger="dirac_soliton.experiments"):
        rep = run_scattering(_scatter_config())
    assert rep.validity_time == pytest.approx(2.60, abs=0.01)
    assert not caplog.records


def test_scattering_records_dropped_phi_plus(tmp_path, monkeypatch):
    real = experiments.project_to_manifold
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise ProjectionError("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "project_to_manifold", fail_once)
    rep = run_scattering(_scatter_config(out_dir=str(tmp_path)))
    assert rep.phi_dropped.tolist() == [0.0]
    assert 0.0 not in rep.phi_times
    assert rep.phi_times.size == len(calls) - 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["phi_dropped"] == [0.0]
