"""Outside-in tracer for the dirac_soliton package.

The tracer wraps the package's public functions from outside, without
editing the package: a wrapped function is replaced in every module
namespace that bound it by name (``coupled_dynamics.free_propagate`` and
``experiments._simulate``, which is ``simulate`` under another name, are
both replaced), and ``GridSpec.phase_shift`` and the ``SpinorField``
transforms are replaced on their classes.

Each call made while recording becomes a span: name, start, end, parent
span and a few attributes. Spans stay in memory and are written out at
the end of the run. A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "dirac_soliton"

# (module, function, span name) for every wrapped module-level function.
FUNCTIONS = (
    ("coupled_dynamics", "simulate", "coupled_dynamics.simulate"),
    ("coupled_dynamics", "step", "coupled_dynamics.step"),
    ("coupled_dynamics", "force", "coupled_dynamics.force"),
    ("field_grid", "free_propagate", "field_grid.free_propagate"),
    ("field_grid", "weighted_norm", "field_grid.weighted_norm"),
    ("soliton_manifold", "soliton_field_hat",
     "soliton_manifold.soliton_field_hat"),
    ("soliton_manifold", "tangent_basis", "soliton_manifold.tangent_basis"),
    ("soliton_manifold", "soliton_state", "soliton_manifold.soliton_state"),
    ("symplectic_geometry", "project_to_manifold",
     "symplectic_geometry.project"),
    ("symplectic_geometry", "omega_matrix_grid",
     "symplectic_geometry.omega_matrix_grid"),
    ("experiments", "write_particle_csv", "experiments.write_particle_csv"),
    ("experiments", "write_snapshots", "experiments.write_snapshots"),
    ("linearized_spectral", "spectral_matrices",
     "linearized_spectral.spectral_matrices"),
    ("linearized_spectral", "matrix_H_on_axis",
     "linearized_spectral.matrix_H_on_axis"),
    ("quadrature", "gauss_panels_1d", "quadrature.gauss_panels_1d"),
    ("quadrature", "tensor_trapezoid_3d", "quadrature.tensor_trapezoid_3d"),
)

# The per-layer metrics: (name, unit, better). Counts, self times and
# per-call times cover the set-up plus one traced round of the workload.
PER_LAYER = (
    ("coupled_dynamics.step.calls", "count", "lower"),
    ("coupled_dynamics.step.median_ms", "ms", "lower"),
    ("coupled_dynamics.step.p90_ms", "ms", "lower"),
    ("coupled_dynamics.step.self_s", "s", "lower"),
    ("coupled_dynamics.force.calls", "count", "lower"),
    ("coupled_dynamics.force.self_s", "s", "lower"),
    ("coupled_dynamics.simulate.self_s", "s", "lower"),
    ("field_grid.free_propagate.calls", "count", "lower"),
    ("field_grid.free_propagate.median_ms", "ms", "lower"),
    ("field_grid.free_propagate.self_s", "s", "lower"),
    ("field_grid.phase_shift.calls", "count", "lower"),
    ("field_grid.phase_shift.self_s", "s", "lower"),
    ("field_grid.fft.calls", "count", "lower"),
    ("field_grid.fft.self_s", "s", "lower"),
    ("field_grid.weighted_norm.self_s", "s", "lower"),
    ("soliton_manifold.soliton_field_hat.calls", "count", "lower"),
    ("soliton_manifold.soliton_field_hat.self_s", "s", "lower"),
    ("soliton_manifold.soliton_field_hat.per_projection",
     "calls/projection", "lower"),
    ("soliton_manifold.tangent_basis.calls", "count", "lower"),
    ("soliton_manifold.tangent_basis.self_s", "s", "lower"),
    ("soliton_manifold.tangent_basis.bytes_computed", "bytes", "lower"),
    ("soliton_manifold.soliton_state.calls", "count", "lower"),
    ("symplectic_geometry.project.warm.calls", "count", "lower"),
    ("symplectic_geometry.project.warm.median_ms", "ms", "lower"),
    ("symplectic_geometry.project.cold.calls", "count", "lower"),
    ("symplectic_geometry.project.cold.median_ms", "ms", "lower"),
    ("symplectic_geometry.project.newton_iterations", "count", "lower"),
    ("symplectic_geometry.project.failed", "count", "lower"),
    ("symplectic_geometry.omega_matrix_grid.calls", "count", "lower"),
    ("symplectic_geometry.omega_matrix_grid.self_s", "s", "lower"),
    ("experiments.phi_plus.attempted", "count", "lower"),
    ("experiments.phi_plus.kept", "count", "higher"),
    ("experiments.write_particle_csv.self_s", "s", "lower"),
    ("experiments.write_snapshots.self_s", "s", "lower"),
    ("experiments.output.bytes", "bytes", "lower"),
    ("linearized_spectral.spectral_matrices.self_s", "s", "lower"),
    ("linearized_spectral.matrix_H_on_axis.calls", "count", "lower"),
    ("linearized_spectral.matrix_H_on_axis.per_omega", "calls/omega",
     "lower"),
    ("linearized_spectral.matrix_H_on_axis.median_ms", "ms", "lower"),
    ("quadrature.gauss_panels_1d.calls", "count", "lower"),
    ("quadrature.gauss_panels_1d.self_s", "s", "lower"),
    ("quadrature.tensor_trapezoid_3d.calls", "count", "lower"),
    ("quadrature.tensor_trapezoid_3d.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}

# Bytes of one (6, 4, N, N, N) complex128 tangent array per N^3.
_TANGENT_BYTES_PER_POINT = 6 * 4 * 16


def _argument(args, kwargs, position, name):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


def _project_attrs(args, kwargs, result, error):
    attrs = {"cold": _argument(args, kwargs, 2, "sigma_guess") is None}
    if error is not None:
        attrs["failed"] = True
    else:
        attrs["iterations"] = int(result.iterations)
        attrs["failed"] = not result.converged
    return attrs


def _tangent_attrs(args, kwargs, result, error):
    grid = _argument(args, kwargs, 2, "grid")
    return {"bytes": _TANGENT_BYTES_PER_POINT * grid.N ** 3}


_ATTRS = {
    "symplectic_geometry.project": _project_attrs,
    "soliton_manifold.tangent_basis": _tangent_attrs,
}


class Tracer:
    """Records spans for calls into the package while ``recording``.

    A span is ``[name, start_ns, end_ns, parent_index, phase, attrs]``.
    Calls made while not recording go straight to the original function.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._phase: str | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def recording(self, phase: str):
        """Record every wrapped call made inside the block under phase."""
        if self._phase is not None:
            raise RuntimeError("already recording")
        self._phase = phase
        self._stack = []
        try:
            yield self
        finally:
            self._phase = None

    def call(self, name, fn, args, kwargs):
        if self._phase is None:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter_ns(), 0, parent, self._phase, None]
        self.spans.append(span)
        self._stack.append(index)
        annotate = _ATTRS.get(name)
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
            if annotate is not None:
                span[5] = annotate(args, kwargs, result, error)
            elif error is not None:
                span[5] = {"failed": True}

    # -- installing the wrappers -------------------------------------------

    def install(self) -> None:
        """Wrap every target in every package module that bound it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for module_name, attr, span_name in FUNCTIONS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)

        field_grid = sys.modules[f"{PACKAGE}.field_grid"]
        grid_cls, field_cls = field_grid.GridSpec, field_grid.SpinorField
        self._replace(grid_cls, "phase_shift",
                      self._wrap("field_grid.phase_shift",
                                 grid_cls.phase_shift))
        for method, target in (("to_fourier", field_grid.FOURIER),
                               ("to_position", field_grid.POSITION)):
            self._replace(field_cls, method,
                          self._wrap_transform(getattr(field_cls, method),
                                               target))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _replace(self, owner, key, wrapper) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def _wrap_transform(self, fn, target_space):
        # A transform into the space the field is already in returns the
        # field itself; only real transforms become spans.
        @functools.wraps(fn)
        def wrapper(field):
            if field.space == target_space:
                return fn(field)
            return self.call("field_grid.fft", fn, (field,), {})
        return wrapper

    # -- output --------------------------------------------------------------

    def write(self, path: Path, meta: dict) -> None:
        payload = dict(meta)
        payload["span_fields"] = ["name", "start_ns", "end_ns", "parent",
                                  "phase", "attrs"]
        payload["spans"] = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")


def _quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list (0 for an empty list)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def layer_metrics(spans, phases, extras) -> dict[str, float]:
    """Per-layer metrics from the spans of the given phases.

    extras holds what the spans cannot see: the workload's phi_+ counts,
    the bytes it wrote and the number of omega samples it swept.
    """
    chosen = [(i, s) for i, s in enumerate(spans) if s[4] in phases]
    child_ns = {}
    for _, s in chosen:
        if s[3] >= 0:
            child_ns[s[3]] = child_ns.get(s[3], 0) + (s[2] - s[1])
    calls, self_ns, durations = {}, {}, {}
    for i, s in chosen:
        name = s[0]
        duration = s[2] - s[1]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + duration - child_ns.get(i, 0)
        durations.setdefault(name, []).append(duration)
    for values in durations.values():
        values.sort()

    def count(name):
        return float(calls.get(name, 0))

    def self_s(name):
        return self_ns.get(name, 0) / 1e9

    def ms(name, q):
        return _quantile(durations.get(name, []), q) / 1e6

    projects = [s for _, s in chosen if s[0] == "symplectic_geometry.project"]
    warm = sorted(s[2] - s[1] for s in projects if not s[5]["cold"])
    cold = sorted(s[2] - s[1] for s in projects if s[5]["cold"])
    n_projections = len(projects)
    n_omega = extras["n_omega"]

    cd, fg = "coupled_dynamics", "field_grid"
    sm, sg = "soliton_manifold", "symplectic_geometry"
    ls, qd = "linearized_spectral", "quadrature"
    out = {
        f"{cd}.step.calls": count(f"{cd}.step"),
        f"{cd}.step.median_ms": ms(f"{cd}.step", 0.5),
        f"{cd}.step.p90_ms": ms(f"{cd}.step", 0.9),
        f"{cd}.step.self_s": self_s(f"{cd}.step"),
        f"{cd}.force.calls": count(f"{cd}.force"),
        f"{cd}.force.self_s": self_s(f"{cd}.force"),
        f"{cd}.simulate.self_s": self_s(f"{cd}.simulate"),
        f"{fg}.free_propagate.calls": count(f"{fg}.free_propagate"),
        f"{fg}.free_propagate.median_ms": ms(f"{fg}.free_propagate", 0.5),
        f"{fg}.free_propagate.self_s": self_s(f"{fg}.free_propagate"),
        f"{fg}.phase_shift.calls": count(f"{fg}.phase_shift"),
        f"{fg}.phase_shift.self_s": self_s(f"{fg}.phase_shift"),
        f"{fg}.fft.calls": count(f"{fg}.fft"),
        f"{fg}.fft.self_s": self_s(f"{fg}.fft"),
        f"{fg}.weighted_norm.self_s": self_s(f"{fg}.weighted_norm"),
        f"{sm}.soliton_field_hat.calls": count(f"{sm}.soliton_field_hat"),
        f"{sm}.soliton_field_hat.self_s": self_s(f"{sm}.soliton_field_hat"),
        f"{sm}.soliton_field_hat.per_projection":
            (count(f"{sm}.soliton_field_hat") / n_projections
             if n_projections else 0.0),
        f"{sm}.tangent_basis.calls": count(f"{sm}.tangent_basis"),
        f"{sm}.tangent_basis.self_s": self_s(f"{sm}.tangent_basis"),
        f"{sm}.tangent_basis.bytes_computed": float(sum(
            s[5]["bytes"] for _, s in chosen
            if s[0] == f"{sm}.tangent_basis")),
        f"{sm}.soliton_state.calls": count(f"{sm}.soliton_state"),
        f"{sg}.project.warm.calls": float(len(warm)),
        f"{sg}.project.warm.median_ms": _quantile(warm, 0.5) / 1e6,
        f"{sg}.project.cold.calls": float(len(cold)),
        f"{sg}.project.cold.median_ms": _quantile(cold, 0.5) / 1e6,
        f"{sg}.project.newton_iterations": float(sum(
            s[5].get("iterations", 0) for s in projects)),
        f"{sg}.project.failed": float(sum(
            1 for s in projects if s[5]["failed"])),
        f"{sg}.omega_matrix_grid.calls": count(f"{sg}.omega_matrix_grid"),
        f"{sg}.omega_matrix_grid.self_s": self_s(f"{sg}.omega_matrix_grid"),
        "experiments.phi_plus.attempted": float(extras["phi_attempted"]),
        "experiments.phi_plus.kept": float(extras["phi_kept"]),
        "experiments.write_particle_csv.self_s":
            self_s("experiments.write_particle_csv"),
        "experiments.write_snapshots.self_s":
            self_s("experiments.write_snapshots"),
        "experiments.output.bytes": float(extras["output_bytes"]),
        f"{ls}.spectral_matrices.self_s": self_s(f"{ls}.spectral_matrices"),
        f"{ls}.matrix_H_on_axis.calls": count(f"{ls}.matrix_H_on_axis"),
        f"{ls}.matrix_H_on_axis.per_omega":
            (count(f"{ls}.matrix_H_on_axis") / n_omega if n_omega else 0.0),
        f"{ls}.matrix_H_on_axis.median_ms": ms(f"{ls}.matrix_H_on_axis", 0.5),
        f"{qd}.gauss_panels_1d.calls": count(f"{qd}.gauss_panels_1d"),
        f"{qd}.gauss_panels_1d.self_s": self_s(f"{qd}.gauss_panels_1d"),
        f"{qd}.tensor_trapezoid_3d.calls": count(f"{qd}.tensor_trapezoid_3d"),
        f"{qd}.tensor_trapezoid_3d.self_s": self_s(f"{qd}.tensor_trapezoid_3d"),
    }
    return out
