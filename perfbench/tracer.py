"""Span recording around the public functions of each schroflat module.

The package imports names directly (``from .smoothing import
boundary_trace``), so a function is wrapped where its caller looks it up:
``cli.boundary_trace`` and ``beam.boundary_trace`` are two bindings of one
function, and patching only ``smoothing.boundary_trace`` would record
nothing.  A binding that no longer exists is reported as absent; the run
goes on without that span.

Spans are kept in memory as [name, start_ns, end_ns, parent, work]
and turned into per-layer metrics once the run has ended.  A span's layer
is the part of its name before the first dot.
"""
import collections
import dataclasses
import functools
import importlib
import statistics
import time

# points per Gauss-Kronrod panel: the integrand sees 15 nodes per panel
GK_POINTS = 15


def _size(x):
    return int(getattr(x, "size", 1))


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _cell_steps(pos):
    # a march advances Nx-1 interior unknowns through Nt steps
    def count(args, kwargs):
        cfg = _arg(args, kwargs, pos, "cfg")
        return (cfg.Nx - 1) * cfg.Nt

    return count


# (module, attribute, span name, work count).  The work count is taken from
# the call's arguments: kernel points, trace samples, march cell-steps.
BINDINGS = (
    ("cli", "synthesize_control", "cli.synthesize_control", None),
    ("cli", "beam_controls", "beam.beam_controls", None),
    ("cli", "write_control_csv", "cli.artifacts", None),
    ("cli", "write_field_csv", "cli.artifacts", None),
    ("cli", "write_norms_csv", "cli.artifacts", None),
    ("cli", "write_beam_field_csv", "cli.artifacts", None),
    ("cli", "write_energy_csv", "cli.artifacts", None),
    ("cli", "write_report", "cli.artifacts", None),
    ("cli", "boundary_trace", "smoothing.boundary_trace",
     lambda a, k: _size(_arg(a, k, 1, "t_grid"))),
    ("beam", "boundary_trace", "smoothing.boundary_trace",
     lambda a, k: _size(_arg(a, k, 1, "t_grid"))),
    ("cli", "flat_coefficients", "smoothing.flat_coefficients", None),
    ("beam", "flat_coefficients", "smoothing.flat_coefficients", None),
    ("beam", "convolution_integral", "smoothing.convolution_integral", None),
    ("smoothing", "convolution_integral", "smoothing.convolution_integral", None),
    ("smoothing", "PiecewiseProfile.__call__", "smoothing.datum", None),
    ("beam", "ExtendedDatum.__call__", "smoothing.datum", None),
    ("smoothing", "odd_kernel", "kernel.odd_kernel",
     lambda a, k: _size(_arg(a, k, 2, "y"))),
    ("smoothing", "kernel_derivative", "kernel.kernel_derivative",
     lambda a, k: _size(_arg(a, k, 1, "x"))),
    ("cli", "control_trace", "flatness.control_trace", None),
    ("beam", "control_trace", "flatness.control_trace", None),
    ("cli", "control_series", "flatness.control_series", None),
    ("beam", "control_series", "flatness.control_series", None),
    ("flatness", "control_series", "flatness.control_series", None),
    ("flatness", "step_jet", "gevrey.step_jet", None),
    ("cli", "simulate", "schrodinger_sim.simulate", _cell_steps(2)),
    ("beam", "lift_initial_data", "beam.lift_initial_data", None),
    ("cli", "beam_simulate", "beam.beam_simulate", _cell_steps(3)),
)

NAME, START, END, PARENT, WORK = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.absent = []

    def wrap(self, name, fn, work=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1,
                   work(args, kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def wrap_integrate(self, fn):
        spans, stack = self.spans, self.stack
        traced_integrate = self.wrap("quadrature.integrate", fn)

        def counted(integrand):
            traced = self.wrap("smoothing.integrand", integrand)

            def integrand_with_panels(x):
                if stack and spans[stack[-1]][NAME] == "quadrature.integrate":
                    spans[stack[-1]][WORK] += _size(x) // GK_POINTS
                return traced(x)

            return integrand_with_panels

        @functools.wraps(fn)
        def integrate(problem, *args, **kwargs):
            try:
                problem = dataclasses.replace(
                    problem, integrand=counted(problem.integrand))
            except (TypeError, AttributeError):
                pass  # not an IntegrationProblem any more: span without panels
            return traced_integrate(problem, *args, **kwargs)

        return integrate

    def _patch(self, module, attr, make):
        try:
            owner = importlib.import_module(f"schroflat.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{attr}")
            return
        setattr(owner, leaf, make(original))

    def install(self):
        for module, attr, name, work in BINDINGS:
            self._patch(module, attr, lambda fn, n=name, w=work: self.wrap(n, fn, w))
        # integrate also traces its integrand and counts the panels
        self._patch("smoothing", "integrate", self.wrap_integrate)
        return self


# ------------------------------------------------------------- aggregation

def _dur(rec):
    return (rec[END] - rec[START]) * 1e-9


def _outermost(spans, names):
    """Spans named in names with no ancestor named in names."""
    out = []
    for rec in spans:
        if rec[NAME] not in names:
            continue
        p = rec[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            out.append(rec)
    return out


def _self_time(spans, layer):
    """Time in spans of the layer not covered by their direct children."""
    child = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    prefix = layer + "."
    return sum(rec[END] - rec[START] - child[i] for i, rec in enumerate(spans)
               if rec[NAME].startswith(prefix)) * 1e-9


# name -> unit; the order is the order of the printed table
LAYER_UNITS = {
    "kernel.calls": "count", "kernel.points": "count",
    "kernel.busy_s": "s", "kernel.ns_per_point": "ns",
    "quadrature.integrals": "count", "quadrature.panels": "count",
    "quadrature.panels_per_integral_p50": "count",
    "quadrature.panels_per_integral_max": "count",
    "quadrature.self_s": "s",
    "smoothing.datum_s": "s", "smoothing.trace_s": "s",
    "smoothing.trace_samples": "count", "smoothing.seed_s": "s",
    "gevrey.step_jet_calls": "count", "gevrey.step_jet_s": "s",
    "flatness.series_s": "s", "flatness.series_samples": "count",
    "flatness.self_s": "s",
    "schrodinger_sim.march_s": "s", "schrodinger_sim.cell_steps": "count",
    "schrodinger_sim.ns_per_cell_step": "ns",
    "beam.lift_s": "s", "beam.controls_s": "s", "beam.march_s": "s",
    "beam.cell_steps": "count",
    "cli.synthesis_s": "s", "cli.artifacts_s": "s", "cli.artifact_bytes": "count",
}

# counts that depend only on the inputs: two traced runs must agree exactly
DETERMINISTIC = ("kernel.points", "quadrature.integrals", "quadrature.panels",
                 "gevrey.step_jet_calls", "schrodinger_sim.cell_steps",
                 "beam.cell_steps")


def span_counts(spans):
    return dict(collections.Counter(rec[NAME] for rec in spans))


def layer_metrics(spans, artifact_bytes):
    """Per-layer metrics of one traced run."""
    by = {}
    for rec in spans:
        by.setdefault(rec[NAME], []).append(rec)

    def total(*names):
        return sum(_dur(r) for r in _outermost(spans, set(names)))

    def work(name):
        return sum(r[WORK] for r in by.get(name, ()))

    def calls(name):
        return len(by.get(name, ()))

    kernel = ("kernel.odd_kernel", "kernel.kernel_derivative")
    points = sum(work(n) for n in kernel)
    busy = total(*kernel)
    panels = [r[WORK] for r in by.get("quadrature.integrate", ())]
    march = total("schrodinger_sim.simulate")
    cells = work("schrodinger_sim.simulate")
    return {
        "kernel.calls": sum(calls(n) for n in kernel),
        "kernel.points": points,
        "kernel.busy_s": busy,
        "kernel.ns_per_point": busy / points * 1e9 if points else 0.0,
        "quadrature.integrals": len(panels),
        "quadrature.panels": sum(panels),
        "quadrature.panels_per_integral_p50": statistics.median(panels) if panels else 0,
        "quadrature.panels_per_integral_max": max(panels, default=0),
        "quadrature.self_s": _self_time(spans, "quadrature"),
        "smoothing.datum_s": total("smoothing.datum"),
        "smoothing.trace_s": total("smoothing.boundary_trace"),
        "smoothing.trace_samples": work("smoothing.boundary_trace"),
        "smoothing.seed_s": total("smoothing.flat_coefficients"),
        "gevrey.step_jet_calls": calls("gevrey.step_jet"),
        "gevrey.step_jet_s": total("gevrey.step_jet"),
        "flatness.series_s": total("flatness.control_trace", "flatness.control_series"),
        "flatness.series_samples": calls("flatness.control_series"),
        "flatness.self_s": _self_time(spans, "flatness"),
        "schrodinger_sim.march_s": march,
        "schrodinger_sim.cell_steps": cells,
        "schrodinger_sim.ns_per_cell_step": march / cells * 1e9 if cells else 0.0,
        "beam.lift_s": total("beam.lift_initial_data"),
        "beam.controls_s": total("beam.beam_controls"),
        "beam.march_s": total("beam.beam_simulate"),
        "beam.cell_steps": work("beam.beam_simulate"),
        "cli.synthesis_s": total("cli.synthesize_control", "beam.beam_controls"),
        "cli.artifacts_s": total("cli.artifacts"),
        "cli.artifact_bytes": artifact_bytes,
    }
