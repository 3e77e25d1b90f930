"""Spans around the public functions of the six skewflow modules.

The program is left as it is: `Tracer.install` swaps each public function of
diffgeo, membrane, filament, sphereprod, validate and cli for a wrapper in
every place the package refers to it (module globals, names imported from
another module, and the function tables `cli.RUNNERS` and `validate.CHECKS`),
and `Tracer.uninstall` puts the originals back.  Each wrapped call appends one
span (name, start, end, parent, attributes) to an in-memory list; the list is
reduced to per-layer metrics once the traced round has ended.
"""

import inspect
import os
import statistics
import time

MODULES = ("diffgeo", "membrane", "filament", "sphereprod", "validate", "cli")

# The acceptance checks, in the order `skewflow validate` runs them.
CHECK_IDS = (
    "1-collapse-time", "2-closed-forms", "3-conservation", "4-willmore-2d",
    "5-willmore-1d", "6-hasimoto-square", "7-willmore-gradient", "8-continuity",
    "9-energy-identity", "10-momentum", "11-normal-curvature", "12-nls-invariants",
)

# (name, unit) of every per-layer metric, in the order they are reported.
LAYER_METRICS = (
    ("diffgeo.shape_field.calls", "count"),
    ("diffgeo.shape_field.self_s", "s"),
    ("diffgeo.shape_field.points_per_s", "1/s"),
    ("diffgeo.normal_frame.self_s", "s"),
    ("diffgeo.project_normal.calls", "count"),
    ("diffgeo.project_normal.self_s", "s"),
    ("diffgeo.stencil.calls", "count"),
    ("diffgeo.stencil.self_s", "s"),
    ("diffgeo.torsion_form.calls", "count"),
    ("diffgeo.torsion_form.s", "s"),
    ("diffgeo.save_immersion.s", "s"),
    ("diffgeo.save_immersion.bytes", "B"),
    ("diffgeo.load_immersion.s", "s"),
    ("membrane.evolve_membrane.s", "s"),
    ("membrane.smc_rhs.calls", "count"),
    ("membrane.smc_rhs.s", "s"),
    ("membrane.stability_limit.calls", "count"),
    ("membrane.stability_limit.s", "s"),
    ("membrane.diagnostics.s", "s"),
    ("membrane.residuals.s", "s"),
    ("membrane.shape_field_per_stage", "calls/stage"),
    ("membrane.torsion_form_per_residual", "calls/triple"),
    ("filament.evolve_filament.s", "s"),
    ("filament.derivative.calls", "count"),
    ("filament.derivative.self_s", "s"),
    ("filament.derivative_per_step", "calls/step"),
    ("filament.arclength_resample.calls", "count"),
    ("filament.arclength_resample.self_s", "s"),
    ("filament.min_nonneighbor_distance.calls", "count"),
    ("filament.min_nonneighbor_distance.self_s", "s"),
    ("filament.darios_evolve.s", "s"),
    ("filament.fluid_evolve.s", "s"),
    ("filament.nls_evolve.s", "s"),
    ("sphereprod.run_to_collapse.s", "s"),
    ("sphereprod.evolve_numeric.s", "s"),
    ("cli.write_csv.calls", "count"),
    ("cli.write_csv.s", "s"),
    ("cli.write_csv.bytes", "B"),
    ("cli.self_s", "s"),
) + tuple((f"validate.{cid}.s", "s") for cid in CHECK_IDS) + (
    ("trace.overhead_s", "s"),
    ("trace.outside_s", "s"),
)

RESIDUALS = ("membrane.continuity_residual", "membrane.momentum_residual",
             "membrane.energy_identity_check")


def _file_bytes(args, kwargs, path_index):
    path = kwargs.get("path", args[path_index] if len(args) > path_index else None)
    return {"bytes": os.path.getsize(path)}


def _grid_points(args, kwargs):
    imm = kwargs.get("imm", args[0])
    return {"points": imm.points.size // imm.points.shape[-1]}


def _filament_steps(args, kwargs):
    dt = kwargs.get("dt", args[1])
    t_final = kwargs.get("t_final", args[2])
    return {"steps": int(round(t_final / dt))}


# attributes recorded on a span after its call returns
ATTRIBUTES = {
    "diffgeo.shape_field": _grid_points,
    "diffgeo.save_immersion": lambda a, k: _file_bytes(a, k, 1),
    "cli.write_csv": lambda a, k: _file_bytes(a, k, 0),
    "filament.evolve_filament": _filament_steps,
}


class Tracer:
    """Records spans of the wrapped calls of one process."""

    def __init__(self, package):
        self.package = package
        self.spans = []          # [name, start, end, parent index, attributes]
        self._stack = []
        self._swaps = []         # (container, key, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        attributes = ATTRIBUTES.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attributes is not None:
                span[4] = attributes(args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Wrap every public function of the six modules wherever it is referenced."""
        modules = [getattr(self.package, m) for m in MODULES]
        wrappers = {}   # id(original) -> (original, wrapper)
        for mod in modules:
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{mod.__name__.split('.')[-1]}.{attr}", fn))

        def wrapper_of(value):
            original, wrapper = wrappers.get(id(value), (None, None))
            return wrapper if original is value else None

        for mod in modules:
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if wrapper_of(value):
                    self._swap(namespace, attr, wrapper_of(value))
                elif isinstance(value, dict):          # cli.RUNNERS
                    for key, item in list(value.items()):
                        if wrapper_of(item):
                            self._swap(value, key, wrapper_of(item))
                elif isinstance(value, list):          # validate.CHECKS
                    for pos, item in enumerate(value):
                        if isinstance(item, tuple) and any(map(wrapper_of, item)):
                            self._swap(value, pos, tuple(wrapper_of(x) or x for x in item))

    def _swap(self, container, key, new):
        self._swaps.append((container, key, container[key]))
        container[key] = new

    def uninstall(self):
        for container, key, original in reversed(self._swaps):
            container[key] = original
        self._swaps.clear()


def _checks_by_function(package):
    return {f"validate.{fn.__name__}": cid for cid, _, fn in package.validate.CHECKS}


def reduce_spans(spans, check_names):
    """Per-layer totals of one traced round: calls, inclusive and self time,
    summed attributes, and the ratios named in LAYER_METRICS."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def under(index, ancestor):
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    calls, incl, self_s, attrs = {}, {}, {}, {}
    for i, (name, start, end, parent, extra) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])
        for key, value in (extra or {}).items():
            attrs[(name, key)] = attrs.get((name, key), 0) + value

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return incl.get(name, 0.0)

    def own(name):
        return self_s.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    in_diagnostics = [i for i, sp in enumerate(spans) if sp[0] == "diffgeo.torsion_form"
                      and under(i, "membrane.diagnostics")]
    triples = sum(1 for i, sp in enumerate(spans) if sp[0] == "membrane.continuity_residual"
                  and under(i, "membrane.diagnostics"))
    filament_derivatives = sum(1 for i, sp in enumerate(spans) if sp[0] == "filament.derivative"
                               and under(i, "filament.evolve_filament"))

    out = {
        "diffgeo.shape_field.calls": n("diffgeo.shape_field"),
        "diffgeo.shape_field.self_s": own("diffgeo.shape_field"),
        "diffgeo.shape_field.points_per_s": ratio(
            attrs.get(("diffgeo.shape_field", "points"), 0), s("diffgeo.shape_field")),
        "diffgeo.normal_frame.self_s": own("diffgeo.normal_frame"),
        "diffgeo.project_normal.calls": n("diffgeo.project_normal"),
        "diffgeo.project_normal.self_s": own("diffgeo.project_normal"),
        "diffgeo.stencil.calls": n("diffgeo.diff") + n("diffgeo.diff2"),
        "diffgeo.stencil.self_s": own("diffgeo.diff") + own("diffgeo.diff2"),
        "diffgeo.torsion_form.calls": n("diffgeo.torsion_form"),
        "diffgeo.torsion_form.s": s("diffgeo.torsion_form"),
        "diffgeo.save_immersion.s": s("diffgeo.save_immersion"),
        "diffgeo.save_immersion.bytes": attrs.get(("diffgeo.save_immersion", "bytes"), 0),
        "diffgeo.load_immersion.s": s("diffgeo.load_immersion"),
        "membrane.evolve_membrane.s": s("membrane.evolve_membrane"),
        "membrane.smc_rhs.calls": n("membrane.smc_rhs"),
        "membrane.smc_rhs.s": s("membrane.smc_rhs"),
        "membrane.stability_limit.calls": n("membrane.stability_limit"),
        "membrane.stability_limit.s": s("membrane.stability_limit"),
        "membrane.diagnostics.s": s("membrane.diagnostics"),
        "membrane.residuals.s": sum(s(r) for r in RESIDUALS),
        "membrane.shape_field_per_stage": ratio(n("diffgeo.shape_field"), n("membrane.smc_rhs")),
        "membrane.torsion_form_per_residual": ratio(len(in_diagnostics), triples),
        "filament.evolve_filament.s": s("filament.evolve_filament"),
        "filament.derivative.calls": n("filament.derivative"),
        "filament.derivative.self_s": own("filament.derivative"),
        "filament.derivative_per_step": ratio(
            filament_derivatives, attrs.get(("filament.evolve_filament", "steps"), 0)),
        "filament.arclength_resample.calls": n("filament.arclength_resample"),
        "filament.arclength_resample.self_s": own("filament.arclength_resample"),
        "filament.min_nonneighbor_distance.calls": n("filament.min_nonneighbor_distance"),
        "filament.min_nonneighbor_distance.self_s": own("filament.min_nonneighbor_distance"),
        "filament.darios_evolve.s": s("filament.darios_evolve"),
        "filament.fluid_evolve.s": s("filament.fluid_evolve"),
        "filament.nls_evolve.s": s("filament.nls_evolve"),
        "sphereprod.run_to_collapse.s": s("sphereprod.run_to_collapse"),
        "sphereprod.evolve_numeric.s": s("sphereprod.evolve_numeric"),
        "cli.write_csv.calls": n("cli.write_csv"),
        "cli.write_csv.s": s("cli.write_csv"),
        "cli.write_csv.bytes": attrs.get(("cli.write_csv", "bytes"), 0),
        "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
    }
    by_id = {cid: s(name) for name, cid in check_names.items()}
    for cid in CHECK_IDS:
        out[f"validate.{cid}.s"] = by_id.get(cid, 0.0)
    root_time = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    return out, root_time


def span_cost(calls=4000, blocks=5):
    """Extra time one recorded span adds to a call, from a wrapped no-op: the
    median over alternating blocks of bare and wrapped calls, since a single
    block now and then reads several times too high."""
    def noop():
        return None

    tracer = Tracer(None)
    wrapped = tracer._wrap("noop", noop)
    costs = []
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / calls)
        tracer.spans.clear()
    return max(0.0, statistics.median(costs))


def layer_metrics(package, spans, cli_s):
    """Per-layer metrics of one traced round, plus the tracing overhead (spans
    recorded times the cost of one span) and the part of the round's CLI time
    outside any span."""
    metrics, root_time = reduce_spans(spans, _checks_by_function(package))
    metrics["trace.overhead_s"] = span_cost() * len(spans)
    metrics["trace.outside_s"] = cli_s - root_time
    return metrics
