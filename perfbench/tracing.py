"""Spans around the calls into each fractalheat layer, for the traced run.

`install` replaces the module attributes and methods that the program looks
up at call time with wrappers that record one span per call (name, start,
end, parent id, operation) and the exact counts of the work done.  Spans stay
in memory until the run ends.  Only the traced child process imports this
module, so untraced runs execute the program unchanged.

Span names are the per-layer metric names without their `_s` suffix; a
layer's time is the self time of its spans (duration minus child spans).
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict

MIB = 2.0 ** 20


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(lambda: defaultdict(float))   # op -> name -> value
        self.op: int | None = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, time.perf_counter(), float("nan"), parent, self.op))
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[self.op][name] += value

    def wrap(self, name: str, fn, on_result=None):
        """fn inside a span; on_result(result, args) records counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if on_result is not None:
                on_result(result, args)
            return result
        return wrapper

    def counting(self, name: str, fn):
        """fn counted per call, without a span (called per quadrature node)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name, 1)
            return fn(*args, **kwargs)
        return wrapper

    def op_layers(self, op: int) -> dict:
        """Self time and call count per span name, plus the counts, of one op."""
        spans = [s for s in self.spans if s.op == op]
        child_time = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = defaultdict(float)
        for s in spans:
            out[s.name + "_s"] += s.end - s.start - child_time[s.id]
            out[s.name + "_calls"] += 1
        out.update(self.counts[op])
        return dict(out)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of geometry, kernel, measure, paramint,
    solver and cli where the program looks them up."""
    import fractalheat.cli as cli
    import fractalheat.geometry as geometry
    import fractalheat.kernel as kernel
    import fractalheat.measure as measure
    import fractalheat.paramint as paramint
    import fractalheat.solver as solver

    def patch(owner, attr, name, on_result=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result))

    def vertices(vs, args):
        tracer.add("geometry.n_vertices", vs.n_vertices)

    def generator_bytes(gen, args):
        tracer.add("kernel.generator_mb", gen.matrix.nbytes / MIB)

    def factor_bytes(_, args):
        hk = args[0]
        arrays = [a for a in (hk.B, hk.eigenvalues) if a is not None]
        tracer.add("kernel.factor_mb", sum(a.nbytes for a in arrays) / MIB)

    def cells(real, args):
        tracer.add("measure.cells", sum(len(lv[-1]) for lv in real.component_levels))

    def h_flops(_, args):
        tracer.add("paramint.h_matrix_gflop", 2.0 * args[0].kernel.n_vertices ** 3 / 1e9)

    def sweeps(sol, args):
        tracer.add("solver.sweeps", sol.iterations)

    for owner in (geometry, solver):
        patch(owner, "vertex_set", "geometry.vertex_set", vertices)
    patch(geometry, "check_assumption1", "geometry.check_assumption1")

    for owner in (kernel, solver):
        patch(owner, "build_generator", "kernel.build_generator", generator_bytes)
    patch(kernel.HeatKernel, "__init__", "kernel.factorize", factor_bytes)
    for method in ("diag_density", "density_rows", "apply"):
        patch(kernel.HeatKernel, method, f"kernel.{method}")
    patch(kernel, "estimate_spectral_dimension", "kernel.estimate_ds")
    for fn in ("verify_holder", "fit_subgaussian"):
        patch(kernel, fn, f"kernel.{fn}")

    for owner in (measure, solver):
        patch(owner, "realize", "measure.realize", cells)

    patch(paramint, "h_matrix", "paramint.h_matrix", h_flops)
    patch(paramint.HFunction, "snap_ids", "paramint.snap_ids")
    for owner in (paramint, solver):
        patch(owner, "eval_eta", "paramint.eval_eta")

    patch(solver, "prepare", "solver.prepare")
    patch(solver, "assumption_gate", "solver.gate")
    patch(solver, "picard_solve", "solver.picard", sweeps)

    # the user-supplied f and sigma, as the presets hand them to the program
    def counted_f(*args, **kwargs):
        f = f_preset(*args, **kwargs)
        return dataclasses.replace(f, fn=tracer.counting("solver.f_calls", f.fn))

    def counted_sigma(*args, **kwargs):
        sigma = sigma_preset(*args, **kwargs)
        return dataclasses.replace(sigma, fn=tracer.counting("paramint.sigma_calls", sigma.fn))

    f_preset, sigma_preset = solver.f_preset, paramint.sigma_preset
    solver.f_preset = counted_f
    paramint.sigma_preset = counted_sigma
    solver.sigma_preset = counted_sigma

    # artifact writers
    for owner in (solver.SolutionField, paramint.EtaEvaluation):
        for method in ("to_csv", "diagnostics_csv"):
            patch(owner, method, "cli.write")
    patch(measure, "write_realization", "cli.write")
    patch(cli, "_echo_config", "cli.write")
    patch(cli, "_write_manifest", "cli.write")
