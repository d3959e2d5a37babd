"""Per-layer timing and counting from outside the program.

``Tracer.install`` replaces every public module-level function of the
nevlab modules with a timing wrapper at every place a caller looks it up
(the defining module, each module that imported the name, and the package
namespace), so ``nevanlinna.exppoly_zeros`` and ``zeros.exppoly_zeros`` are
the same traced callable.  A few methods get wrappers on their class: hot
dunder methods get counters only, with no span.  ``uninstall`` restores
every original.

A span's self time is its duration minus the time of its direct child
spans, credited to the span's module; the root span is ``cli.main``, so the
module self times add up to the traced op time.  Work done in callbacks
that one layer hands another is credited to the layer that runs the
callback: the quadrature spans include the nevanlinna integrands, and the
zeros spans include ``ExpPoly.__call__``.  Spans are aggregated per
function as they close rather than kept one by one, because the exact
workloads open millions of them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("fields", "hpoly", "expfunc", "linalg", "resultant", "filtration", "bounds",
           "quadrature", "zeros", "nevanlinna", "parsing", "cli", "mrat", "acceptance")
LAYERS = MODULES[:12]           # the modules the benchmark's commands run


def _on_quad(counts, res):
    counts["quadrature.samples"] += res.samples
    counts["quadrature.unconverged"] += not res.converged


def _on_divisor(counts, div):
    counts["zeros.zeros_found"] += sum(m for _, m in div.points)
    counts["zeros.boundary_nudged"] += bool(div.boundary_nudged)


def _on_admissible(counts, rep):
    counts["resultant.points_tried"] += rep.points_tried


def _on_row(counts, grew):
    counts["linalg.useful_rows"] += bool(grew)


RESULT_HOOKS = {"quadrature.circle_average": _on_quad,
                "zeros.exppoly_zeros": _on_divisor,
                "resultant.is_admissible": _on_admissible,
                "linalg.RowReducer.add": _on_row}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()          # span name -> calls
        self.total: dict = defaultdict(float)    # span name -> time, outermost calls only
        self.self_time: dict = defaultdict(float)  # module -> self time
        self.layer_time: dict = defaultdict(float)  # module -> time, outermost spans only
        self.counts: Counter = Counter()         # counters, including result hooks
        self._stack: list = []                   # child time of each open span
        self._depth: Counter = Counter()         # open calls per span name and module
        self._patches: list = []

    def _span(self, module: str, name: str, fn):
        calls, total, self_time, layer_time, stack, depth = (
            self.calls, self.total, self.self_time, self.layer_time, self._stack, self._depth)
        hook = RESULT_HOOKS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            outer, layer_outer = depth[name] == 0, depth[module] == 0
            depth[name] += 1
            depth[module] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                depth[module] -= 1
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                if outer:
                    total[name] += dt
                if layer_outer:
                    layer_time[module] += dt
                self_time[module] += dt - child[0]
            if hook is not None:
                hook(counts, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import nevlab
        mods = {m: importlib.import_module(f"nevlab.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(val)):
                    wrappers[val] = self._span(short, f"{short}.{attr}", val)
        for mod in (nevlab, *mods.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        reducer = mods["linalg"].RowReducer
        expoly = mods["expfunc"].ExpPoly
        self._patch(reducer, "add", self._span("linalg", "linalg.RowReducer.add",
                                               reducer.add))
        self._patch(expoly, "__call__", self._counter("expfunc.evals", expoly.__call__))
        self._patch(expoly, "derivative", self._counter("expfunc.derivative_calls",
                                                        expoly.derivative))
        gauss = mods["fields"].GaussRat
        self._patch(gauss, "__complex__", self._counter("fields.complex_conversions",
                                                        gauss.__complex__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self, untraced_wall: float, traced_wall: float) -> dict:
        """Every per-layer metric, in the order the benchmark declares them."""
        t, c, n = self.total, self.calls, self.counts
        root = t["cli.main"]
        zeros_found = n["zeros.zeros_found"]
        samples = n["quadrature.samples"]
        quad_s = t["quadrature.circle_average"]
        rows = c["linalg.RowReducer.add"]
        out = {
            "zeros.exppoly_zeros_s": t["zeros.exppoly_zeros"],
            "zeros.exppoly_zeros_calls": c["zeros.exppoly_zeros"],
            "zeros.zpoly_zeros_s": t["zeros.zpoly_zeros"],
            "zeros.zeros_found": zeros_found,
            "zeros.boundary_nudged": n["zeros.boundary_nudged"],
            "expfunc.evals": n["expfunc.evals"],
            "expfunc.derivative_calls": n["expfunc.derivative_calls"],
            "expfunc.evals_per_zero": n["expfunc.evals"] / zeros_found if zeros_found else 0.0,
            "fields.complex_conversions": n["fields.complex_conversions"],
            "fields.zpoly_gcd_calls": c["fields.zpoly_gcd"],
            "fields.zpoly_gcd_s": t["fields.zpoly_gcd"],
            "quadrature.circle_average_s": quad_s,
            "quadrature.circle_average_calls": c["quadrature.circle_average"],
            "quadrature.samples": samples,
            "quadrature.samples_per_s": samples / quad_s if quad_s else 0.0,
            "quadrature.unconverged": n["quadrature.unconverged"],
            "linalg.rows_added": rows,
            "linalg.useful_row_frac": n["linalg.useful_rows"] / rows if rows else 0.0,
            "linalg.row_add_s": t["linalg.RowReducer.add"],
            "linalg.det_sparse_s": t["linalg.det_sparse"],
            "filtration.build_filtration_s": t["filtration.build_filtration"],
            "filtration.quotient_dim_s": t["filtration.quotient_dim"],
            "filtration.quotient_dim_calls": c["filtration.quotient_dim"],
            "resultant.is_admissible_s": t["resultant.is_admissible"],
            "resultant.points_tried": n["resultant.points_tried"],
            "resultant.macaulay_resultant_s": t["resultant.macaulay_resultant"],
            "resultant.macaulay_resultant_calls": c["resultant.macaulay_resultant"],
            "resultant.power_certificate_s": t["resultant.power_certificate"],
            "bounds.compute_truncation_levels_s": t["bounds.compute_truncation_levels"],
            "bounds.certified_floor_calls": c["bounds.certified_floor"],
            "nevanlinna.smt_verify_s": t["nevanlinna.smt_verify"],
            "nevanlinna.nondegeneracy_check_s": t["nevanlinna.nondegeneracy_check"],
            "nevanlinna.characteristic_calls": c["nevanlinna.characteristic"],
            "parsing.load_s": self.layer_time["parsing"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_time[layer]
        for layer in LAYERS:
            out[f"{layer}.self_share"] = self.self_time[layer] / root if root else 0.0
        share = lambda *layers: sum(out[f"{m}.self_share"] for m in layers)
        out["split.zeros_expfunc"] = share("zeros", "expfunc")
        out["split.quadrature"] = share("quadrature")
        out["split.filtration_linalg_fields"] = share("filtration", "linalg", "fields")
        out["trace.untraced_wall_s"] = untraced_wall
        out["trace.traced_wall_s"] = traced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        return out

    def table(self) -> list:
        """Per-span rows (name, calls, outermost time) for the run record."""
        return sorted(([k, self.calls[k], round(self.total[k], 6)] for k in self.calls),
                      key=lambda row: -row[2])
