"""Command-line entry point.

Subcommands
-----------
simulate   integrate the configured initial data, write the run directory
soliton    persistence run from exact soliton data, with drift report
project    build the configured state and project it onto the manifold
spectral   tabulate det M(i w), F_jj and the inverse-block relations
decay      free weighted-decay experiment with a power-law fit
scatter    perturbed-soliton scattering run with asymptotics
fit        fit a power law to a two-column CSV series

Global flags: --config PATH (INI file, sections [grid] [charge] [run]
[initial] [fit] [output] [spectral]), --out DIR, --threads N, --seed U64,
--check (exit 4 when the command's acceptance band is violated).

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
abort, 4 acceptance-check failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def _parse_vector(text: str):
    parts = text.replace(",", " ").split()
    if len(parts) != 3:
        raise ValueError(f"expected 3 components, got {text!r}")
    return tuple(float(p) for p in parts)


# INI schema: (section, key) -> (parser, RunConfig field, or None for the
# [fit] and [spectral] keys, which _run_config and spectral read directly)
_KEYS = {
    ("grid", "L"): (float, "grid_L"), ("grid", "N"): (int, "grid_N"),
    ("charge", "amplitude"): (float, "amplitude"),
    ("charge", "sigma"): (float, "sigma"), ("charge", "mass"): (float, "mass"),
    ("run", "dt"): (float, "dt"), ("run", "T"): (float, "t_final"),
    ("run", "nu"): (float, "nu"), ("run", "seed"): (int, "seed"),
    ("run", "sample_every"): (float, "sample_every"),
    ("run", "snapshots"): (int, "snapshots"),
    ("initial", "type"): (str, "initial"),
    ("initial", "v"): (_parse_vector, "v"),
    ("initial", "b"): (_parse_vector, "b"),
    ("initial", "epsilon"): (float, "epsilon"),
    ("initial", "packet_width"): (float, "packet_width"),
    ("initial", "packet_center"): (_parse_vector, "packet_center"),
    ("initial", "packet_amplitude"): (float, "packet_amplitude"),
    ("fit", "t_min"): (float, None), ("fit", "t_max"): (float, None),
    ("output", "directory"): (str, "out_dir"),
    ("spectral", "omega_max"): (float, None),
    ("spectral", "samples"): (int, None),
    ("spectral", "exclude"): (float, None),
}


class CheckFailure(Exception):
    """An acceptance band requested with --check was violated."""


def _read_ini(path: Path | None) -> dict:
    """INI file -> {section: {key: parsed value}}, validated against the
    schema so typos fail fast."""
    from .experiments import ConfigError

    if path is None:
        return {}
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    cp.optionxform = str          # keys are case-sensitive (L, N, T)
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    out: dict = {}
    for section in cp.sections():
        if section not in {sec for sec, _ in _KEYS}:
            raise ConfigError(f"unknown config section [{section}]")
        out[section] = {}
        for key, raw in cp.items(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            try:
                out[section][key] = _KEYS[section, key][0](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key!r} in [{section}]: {exc}") from exc
    return out


def _run_config(kind: str, args, sections: dict):
    from .experiments import RunConfig

    kwargs = {"kind": kind}
    for (sec, key), (_, field) in _KEYS.items():
        if field is not None and key in sections.get(sec, {}):
            kwargs[field] = sections[sec][key]
    fit = sections.get("fit", {})
    if "t_min" in fit or "t_max" in fit:
        kwargs["window"] = (fit.get("t_min", 5.0), fit.get("t_max", 25.0))
    if args.out is not None:
        kwargs["out_dir"] = str(args.out)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return RunConfig(**kwargs)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _require(condition: bool, message: str, check: bool) -> None:
    if check and not condition:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _cmd_simulate(args, sections) -> int:
    import numpy as np

    from .coupled_dynamics import hamiltonian, simulate
    from .experiments import (initial_state, simulation_config,
                              write_run_directory)

    cfg = _run_config("simulate", args, sections)
    Y0, sigma0 = initial_state(cfg)
    h0 = hamiltonian(Y0, cfg.rho)
    traj = simulate(Y0, cfg.rho, simulation_config(cfg, sigma_guess=sigma0))
    h1 = hamiltonian(traj.final_state, cfg.rho)
    final = {
        "final_q": list(map(float, traj.final_state.q)),
        "final_p": list(map(float, traj.final_state.p)),
        "hamiltonian_drift": abs(h1 - h0) / abs(h0),
        "tracking_failed_at": traj.tracking_failed_at,
    }
    write_run_directory(cfg, {**final, "hamiltonian_initial": h0,
                              "hamiltonian_final": h1}, trajectory=traj)
    _emit({
        **final,
        "samples": int(traj.sample_times.size),
        "snapshots": len(traj.fields),
        "max_z_norm": (float(np.max(traj.z_norms))
                       if traj.z_norms.size else None),
    })
    return EXIT_OK


def _cmd_soliton(args, sections) -> int:
    import numpy as np

    from .coupled_dynamics import force
    from .experiments import run_soliton_persistence
    from .soliton_manifold import (SolitonParams, soliton_state,
                                   stationary_residual)

    cfg = _run_config("soliton", args, sections)
    residual = stationary_residual(cfg.v_vec, cfg.rho, cfg.grid)
    # the stepper's force on the lab-frame soliton S(b, v)
    S = soliton_state(SolitonParams(cfg.b_vec, cfg.v_vec), cfg.rho, cfg.grid)
    balance = float(np.linalg.norm(force(S.psi.data, cfg.grid, cfg.rho, S.q)))
    report = run_soliton_persistence(cfg)
    _emit({
        "stationary_residual": residual,
        "force_balance": balance,
        "velocity_drift": report.velocity_drift,
        "max_field_error": report.max_field_error,
        "max_z_norm": report.max_z_norm,
    })
    _require(balance <= 1e-8, f"force balance {balance:.3e} > 1e-8",
             args.check)
    _require(report.velocity_drift <= 1e-4,
             f"velocity drift {report.velocity_drift:.3e} > 1e-4",
             args.check)
    return EXIT_OK


def _cmd_project(args, sections) -> int:
    import numpy as np

    from .experiments import initial_state, write_run_directory
    from .field_grid import weighted_norm
    from .symplectic_geometry import project_to_manifold

    cfg = _run_config("project", args, sections)
    Y0, sigma0 = initial_state(cfg)
    res = project_to_manifold(Y0, cfg.rho, sigma_guess=sigma0)
    max_residual = float(np.max(np.abs(res.residuals)))
    report = {
        "b": list(map(float, res.params.b)),
        "v": list(map(float, res.params.v)),
        "iterations": res.iterations,
        "converged": res.converged,
        "max_residual": max_residual,
        "z_energy_norm": res.Z.energy_norm(),
        "z_weighted_norm": weighted_norm(res.Z.psi, -cfg.nu),
    }
    write_run_directory(cfg, report)
    _emit(report)
    _require(max_residual <= 1e-10,
             f"projection residual {max_residual:.3e} > 1e-10", args.check)
    return EXIT_OK


def _cmd_spectral(args, sections) -> int:
    import numpy as np

    from .experiments import ConfigError, write_run_directory
    from .linearized_spectral import f_jj_checks, spectral_matrices

    cfg = _run_config("spectral", args, sections)
    sweep = sections.get("spectral", {})
    omega_max = sweep.get("omega_max", 3.0)
    samples = sweep.get("samples", 121)
    exclude = sweep.get("exclude", 0.05)
    if not (math.isfinite(omega_max) and omega_max > 0.0):
        raise ConfigError(f"[spectral] omega_max = {omega_max} must be "
                          "finite and > 0")
    if samples < 1:
        raise ConfigError(f"[spectral] samples = {samples} must be >= 1")
    if not (math.isfinite(exclude) and 0.0 <= exclude <= omega_max):
        raise ConfigError(f"[spectral] exclude = {exclude} must lie in "
                          f"[0, omega_max = {omega_max}]")

    mats = spectral_matrices(cfg.v_vec, cfg.rho)
    Bv_inv = np.linalg.inv(mats.Bv)
    omegas = np.linspace(-omega_max, omega_max, samples)
    rows, det_rel, blk_diag, blk_coup, dets = [], [], [], [], []
    for w in omegas:
        F = mats.F(w)
        dd = mats.det_M_direct(w)
        df = mats.det_M_factorized(w)
        rel = abs(dd - df) / max(abs(dd), 1e-300)
        blk = mats.minv_blocks(w)
        r_diag = float(np.max(np.abs(blk.M22 - blk.M11)))
        r_coup = float(np.max(np.abs(blk.M11 - 1j * blk.M12 @ Bv_inv)))
        det_rel.append(rel)
        blk_diag.append(r_diag)
        blk_coup.append(r_coup)
        if abs(w) >= exclude:
            dets.append(abs(df))
        rows.append([w, F[0].real, F[0].imag, F[1].real, F[1].imag,
                     F[2].real, F[2].imag, dd.real, dd.imag, df.real,
                     df.imag, rel, r_diag, r_coup])

    chk = f_jj_checks(mats)
    summary = {
        "speed": mats.speed,
        "L_diag": list(map(float, np.diag(mats.L))),
        "K_diag": list(map(float, mats.k_diag)),
        "f_zero_max": float(np.max(np.abs(chk.f_zero))),
        "f_slope_max": float(np.max(np.abs(chk.slope))),
        "curvature_relative_error": chk.max_relative_curvature_error(),
        "max_det_relative_gap": float(np.max(det_rel)),
        "max_block_diag_residual": float(np.max(blk_diag)),
        "max_block_coupling_residual": float(np.max(blk_coup)),
        "min_abs_det_outside_exclusion": float(np.min(dets)),
        "omega_max": omega_max,
        "samples": samples,
        "exclude": exclude,
    }
    header = ("omega", "F11_re", "F11_im", "F22_re", "F22_im", "F33_re",
              "F33_im", "det_direct_re", "det_direct_im", "det_fact_re",
              "det_fact_im", "det_rel_gap", "block_diag_residual",
              "block_coupling_residual")
    write_run_directory(cfg, summary, series=("spectral.csv", header, rows),
                        report_name="spectral.json")
    _emit(summary)
    _require(summary["max_det_relative_gap"] <= 1e-10,
             "determinant factorization gap exceeds 1e-10", args.check)
    _require(max(summary["max_block_diag_residual"],
                 summary["max_block_coupling_residual"]) <= 1e-10,
             "inverse-block relations exceed 1e-10", args.check)
    _require(summary["min_abs_det_outside_exclusion"] > 0,
             "det M vanished outside the exclusion window", args.check)
    return EXIT_OK


def _cmd_decay(args, sections) -> int:
    from .experiments import run_free_decay

    cfg = _run_config("decay", args, sections)
    fit = run_free_decay(cfg)
    _emit({"fit": asdict(fit), "nu": cfg.nu,
           "v": list(map(float, cfg.v_vec))})
    _require(abs(fit.exponent + 1.5) <= 0.2,
             f"decay exponent {fit.exponent:.3f} outside -1.5 +- 0.2",
             args.check)
    return EXIT_OK


def _cmd_scatter(args, sections) -> int:
    cfg = _run_config("scatter", args, sections)
    from .experiments import run_scattering

    rep = run_scattering(cfg)
    _emit(rep.summary())
    _require(rep.captured, "state left the modulation tube (no capture)",
             args.check)
    _require(rep.z_fit is not None,
             f"no transversal decay fit: {rep.z_fit_error}", args.check)
    _require(rep.z_fit is None or rep.z_fit.exponent <= -1.0,
             "transversal decay exponent above -1.0", args.check)
    if rep.phi_cauchy.size >= 2:
        _require(rep.phi_cauchy[-1] < rep.phi_cauchy[0],
                 "outgoing-field Cauchy differences are not decreasing",
                 args.check)
    return EXIT_OK


def _cmd_fit(args, sections) -> int:
    import numpy as np

    from .experiments import fit_power_law

    path = Path(args.input)
    if not path.is_file():
        raise ValueError(f"input file not found: {path}")
    with open(path) as fh:
        first = fh.readline().split(",")
    try:                          # a header is a line that is not all floats
        [float(f) for f in first]
        skip = 0
    except ValueError:
        skip = 1
    data = np.loadtxt(path, delimiter=",", skiprows=skip,
                      usecols=(args.t_column, args.value_column), ndmin=2)
    window = tuple(args.window) if args.window else None
    fit = fit_power_law(data[:, 0], data[:, 1], window)
    _emit({"fit": asdict(fit), "samples": int(data.shape[0]),
           "input": str(path)})
    return EXIT_OK


_HANDLERS = {
    "simulate": _cmd_simulate,
    "soliton": _cmd_soliton,
    "project": _cmd_project,
    "spectral": _cmd_spectral,
    "decay": _cmd_decay,
    "scatter": _cmd_scatter,
    "fit": _cmd_fit,
}


def _add_common_flags(p, suppress: bool) -> None:
    """The shared flags, accepted both before and after the subcommand.

    On the subparsers the defaults are SUPPRESS so a flag given only at the
    top level is not overwritten by the subparser's default.
    """
    d = argparse.SUPPRESS if suppress else None
    p.add_argument("--config", type=Path,
                   default=d, help="INI configuration file")
    p.add_argument("--out", type=Path, default=d,
                   help="run output directory (overrides [output])")
    p.add_argument("--threads", type=int, default=d,
                   help="BLAS/OpenMP thread count (set before numpy loads)")
    p.add_argument("--seed", type=int, default=d,
                   help="seed override (unsigned 64-bit)")
    p.add_argument("--check", action="store_true",
                   default=argparse.SUPPRESS if suppress else False,
                   help="exit 4 when the command's acceptance band fails")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dirac-soliton",
        description="Soliton dynamics and spectral-analysis experiments "
                    "for a Dirac field coupled to a relativistic particle.")
    _add_common_flags(p, suppress=False)
    sub = p.add_subparsers(dest="command", required=True)
    for name, blurb in (
            ("simulate", "integrate the configured initial data"),
            ("soliton", "soliton persistence run"),
            ("project", "symplectic projection of the configured state"),
            ("spectral", "tabulate the matrix symbols over an omega grid"),
            ("decay", "free weighted-decay experiment"),
            ("scatter", "perturbed-soliton scattering run")):
        _add_common_flags(sub.add_parser(name, help=blurb), suppress=True)
    fp = sub.add_parser("fit", help="power-law fit of a CSV series")
    _add_common_flags(fp, suppress=True)
    fp.add_argument("--input", required=True, help="CSV with t and value")
    fp.add_argument("--t-column", type=int, default=0)
    fp.add_argument("--value-column", type=int, default=1)
    fp.add_argument("--window", type=float, nargs=2, default=None,
                    metavar=("T_MIN", "T_MAX"))
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("--threads must be >= 1", file=sys.stderr)
            return EXIT_CONFIG
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)
    if args.seed is not None and args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return EXIT_CONFIG

    # numpy and the package modules load only now, after the thread setup
    from .coupled_dynamics import IntegratorError
    from .experiments import ConfigError
    from .symplectic_geometry import ProjectionError

    try:
        sections = _read_ini(args.config)
        return _HANDLERS[args.command](args, sections)
    except CheckFailure as exc:
        print(f"acceptance check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegratorError, ProjectionError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
