"""Quick tests of the benchmark itself, at tiny grids.

They show that every correctness check passes on the program's real
output and fails on a deliberately wrong one, and that the tracer's
counts agree with counts read off the program's outputs.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import run, tracer as tracing, workloads as W  # noqa: E402
from dirac_soliton import coupled_dynamics, experiments  # noqa: E402
from dirac_soliton.soliton_manifold import (  # noqa: E402
    SolitonParams, soliton_state)


def failing(checks) -> set:
    return {name for name, c in checks.items() if not c.ok}


# -- evolve ------------------------------------------------------------------

def _evolve_inputs():
    # at N=32 the position-space energy quadrature is converged to 1e-11
    return W.evolve_setup(3, n=32, n_steps=10, sample_every=0.1)


@pytest.fixture(scope="module")
def evolve(tmp_path_factory):
    out = tmp_path_factory.mktemp("evolve")
    inp = _evolve_inputs()
    return inp, W.evolve_round(inp, out), out


def test_evolve_checks_pass_on_the_real_output(evolve):
    assert failing(W.evolve_check(*evolve)) == set()


def test_evolve_checks_catch_a_soliton_advanced_with_the_wrong_v(
        evolve, tmp_path):
    inp, _, _ = evolve
    wrong_start = soliton_state(SolitonParams(inp.b, 1.01 * inp.v), W.RHO,
                                inp.grid)
    res = W.evolve_round(dataclasses.replace(inp, initial=wrong_start),
                         tmp_path)
    assert {"motion.q", "motion.qdot", "final_field.relative_l2",
            "snapshots.relative_l2"} <= failing(
        W.evolve_check(inp, res, tmp_path))


def test_evolve_checks_catch_energy_drift(evolve):
    inp, traj, out = evolve
    bad = dataclasses.replace(traj, final_state=traj.final_state * 1.001)
    assert "energy.drift" in failing(W.evolve_check(inp, bad, out))


def test_evolve_checks_catch_a_wrong_k_space_energy(evolve, monkeypatch):
    original = coupled_dynamics.hamiltonian
    monkeypatch.setattr(coupled_dynamics, "hamiltonian",
                        lambda Y, rho: original(Y, rho) * (1 + 1e-8))
    assert {"energy.real_split_gap.t0", "energy.real_split_gap.T"} <= \
        failing(W.evolve_check(*evolve))


def test_evolve_checks_catch_a_dropped_snapshot(evolve, tmp_path):
    inp, traj, out = evolve
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    sorted(copy.glob("field_*.raw"))[1].unlink()
    assert "snapshots.missing" in failing(W.evolve_check(inp, traj, copy))


def test_evolve_checks_catch_a_rescaled_snapshot(evolve, tmp_path):
    inp, traj, out = evolve
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = sorted(copy.glob("field_*.raw"))[-1]
    (np.fromfile(path, dtype="<c16") * (1 + 1e-6)).tofile(path)
    assert failing(W.evolve_check(inp, traj, copy)) == {"snapshots.parseval"}


# -- scatter -----------------------------------------------------------------

def _scatter_inputs():
    return W.scatter_setup(5, n=16, t_final=0.4, sample_every=0.1,
                           snapshots=2)


@pytest.fixture(scope="module")
def scatter(tmp_path_factory):
    out = tmp_path_factory.mktemp("scatter")
    inp = _scatter_inputs()
    return inp, W.scatter_round(inp, out), out


def _with_trajectory(report, **changes):
    traj = dataclasses.replace(report.trajectory, **changes)
    return dataclasses.replace(report, trajectory=traj)


def test_scatter_checks_pass_on_the_real_output(scatter):
    assert failing(W.scatter_check(*scatter)) == set()


def test_scatter_checks_catch_a_dropped_phi_plus_estimate(scatter):
    inp, report, out = scatter
    bad = dataclasses.replace(report, phi_times=report.phi_times[:-1])
    assert "phi_plus.dropped" in failing(W.scatter_check(inp, bad, out))


def test_scatter_checks_catch_lost_tracking(scatter):
    inp, report, out = scatter
    traj = report.trajectory
    bad = _with_trajectory(report, tracking_failed_at=0.2,
                           sample_times=traj.sample_times[:2],
                           sigma_b=traj.sigma_b[:2],
                           sigma_v=traj.sigma_v[:2],
                           z_norms=traj.z_norms[:2],
                           majorant=traj.majorant[:2])
    assert {"projection.untracked_samples", "omega.orthogonality",
            "covariance.b"} <= failing(W.scatter_check(inp, bad, out))


def test_scatter_checks_catch_energy_drift(scatter):
    inp, report, out = scatter
    traj = report.trajectory
    bad = _with_trajectory(report, final_state=traj.final_state * 1.001)
    assert "energy.drift" in failing(W.scatter_check(inp, bad, out))


def test_scatter_checks_catch_leaving_the_tube(scatter):
    inp, report, out = scatter
    traj = report.trajectory
    bad = _with_trajectory(report, sigma_v=traj.sigma_v + [0.01, 0.0, 0.0],
                           z_norms=10.0 * traj.z_norms,
                           majorant=10.0 * traj.majorant)
    assert {"tube.velocity", "tube.transversal"} <= failing(
        W.scatter_check(inp, bad, out))


def test_scatter_checks_catch_a_wrong_manifold_point(scatter):
    inp, report, out = scatter
    sigma_b = report.trajectory.sigma_b.copy()
    sigma_b[-1] += 1e-4
    bad = _with_trajectory(report, sigma_b=sigma_b)
    assert {"omega.orthogonality", "covariance.b"} <= failing(
        W.scatter_check(inp, bad, out))


# -- spectral ----------------------------------------------------------------

@pytest.fixture(scope="module")
def spectral():
    inp = W.spectral_setup(7, n_omega=9)
    return inp, W.spectral_round(inp, None)


def test_spectral_checks_pass_on_the_real_output(spectral):
    inp, res = spectral
    assert failing(W.spectral_check(inp, res, None)) == set()


def test_spectral_checks_catch_a_perturbed_determinant(spectral):
    inp, res = spectral
    det = res.det_direct.copy()
    det[2] *= 1 + 1e-8
    bad = dataclasses.replace(res, det_direct=det)
    assert failing(W.spectral_check(inp, bad, None)) == {
        "det.factorization_gap"}


def test_spectral_checks_catch_a_wrong_inverse_block(spectral):
    inp, res = spectral
    blocks = list(res.blocks)
    blocks[1] = dataclasses.replace(blocks[1], M12=blocks[1].M12 * 1.001)
    bad = dataclasses.replace(res, blocks=blocks)
    assert failing(W.spectral_check(inp, bad, None)) == {"inverse.identity"}


def test_spectral_checks_catch_a_wrong_L(spectral):
    inp, res = spectral
    mats = dataclasses.replace(inp.mats, L=inp.mats.L * (1 + 1e-6))
    bad = dataclasses.replace(inp, mats=mats)
    assert "L.e1_vs_trapezoid" in failing(W.spectral_check(bad, res, None))


def test_spectral_checks_catch_a_wrong_curvature(spectral):
    inp, res = spectral
    curvature = dataclasses.replace(
        res.curvature, curvature_fd=res.curvature.curvature_fd * 1.01)
    bad = dataclasses.replace(res, curvature=curvature)
    assert failing(W.spectral_check(inp, bad, None)) == {
        "F.curvature_vs_2K"}


def test_spectral_checks_catch_a_vanishing_determinant(spectral):
    inp, res = spectral
    det = res.det_factorized.copy()
    det[0] = 0.0
    bad = dataclasses.replace(res, det_factorized=det)
    assert "det.min_outside_exclusion" in failing(
        W.spectral_check(inp, bad, None))


# -- tracer ------------------------------------------------------------------

@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_tracer_wraps_every_binding_and_uninstalls():
    original = coupled_dynamics.simulate
    assert experiments._simulate is original
    t = tracing.Tracer()
    t.install()
    try:
        assert coupled_dynamics.simulate is not original
        assert experiments._simulate is coupled_dynamics.simulate
    finally:
        t.uninstall()
    assert coupled_dynamics.simulate is original
    assert experiments._simulate is original


def test_traced_step_count_matches_the_trajectory(tracer, tmp_path):
    inp = _evolve_inputs()
    with tracer.recording("round-0"):
        traj = W.evolve_round(inp, tmp_path)
    extras = W.evolve_extras(inp, traj, tmp_path)
    m = tracing.layer_metrics(tracer.spans, {"round-0"}, extras)
    steps = traj.times.size - 1
    assert m["coupled_dynamics.step.calls"] == steps
    assert m["coupled_dynamics.force.calls"] == 4 * steps
    assert m["field_grid.free_propagate.calls"] == 2 * steps
    assert m["experiments.output.bytes"] > 0


def test_traced_projection_counts_match_the_report(tracer, tmp_path):
    inp = _scatter_inputs()
    with tracer.recording("round-0"):
        report = W.scatter_round(inp, tmp_path)
    extras = W.scatter_extras(inp, report, tmp_path)
    m = tracing.layer_metrics(tracer.spans, {"round-0"}, extras)
    projections = (m["symplectic_geometry.project.warm.calls"]
                   + m["symplectic_geometry.project.cold.calls"])
    assert projections == (report.trajectory.sample_times.size
                           + m["experiments.phi_plus.attempted"])
    assert m["symplectic_geometry.project.cold.calls"] == \
        m["experiments.phi_plus.attempted"]
    assert m["symplectic_geometry.project.failed"] == 0
    assert set(m) | {"trace.overhead_s"} == set(tracing.UNITS)


def test_self_time_excludes_children():
    sim, step = "coupled_dynamics.simulate", "coupled_dynamics.step"
    spans = [[sim, 0, 10_000, -1, "r", None],
             [step, 2_000, 5_000, 0, "r", None],
             [step, 6_000, 7_000, 0, "r", None],
             [sim, 20_000, 21_000, -1, "other", None]]
    extras = {"phi_attempted": 0, "phi_kept": 0, "output_bytes": 0,
              "n_omega": 0}
    m = tracing.layer_metrics(spans, {"r"}, extras)
    assert m["coupled_dynamics.simulate.self_s"] == pytest.approx(6e-6)
    assert m["coupled_dynamics.step.self_s"] == pytest.approx(4e-6)
    assert m["coupled_dynamics.step.calls"] == 2


# -- the benchmark definition ------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(W.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "run_s", "peak_rss_mb"}


def test_benchmark_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evolve_n64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
