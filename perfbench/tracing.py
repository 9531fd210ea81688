"""Spans around dalg's public functions, recorded from outside the package.

``install`` wraps every public function of the traced modules and
``Poly.__mul__`` (also bound as ``__rmul__``), and rebinds each wrapper at
every place the original is bound: its defining module, each dalg module
that imported it by name, and the package namespace.  Per-monomial helpers
(``mono_*``) are left alone; they run millions of times per elimination and
their wrappers would cost more than the work.

A span is ``[function id, parent span, case id, outermost, start, end]``,
kept in memory and written out when the run ends.  Start and end are CPU
seconds of the process (``time.process_time``), the clock the worker
times its cases on.  A span's self time is
its duration minus the durations of its direct children; a layer's self
time is the sum over the spans of its functions.  Counters that need a
function's arguments or result are taken by small hooks after the call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import process_time

LAYERS = ("cli", "parser", "closure", "groebner", "ansatz", "poly", "diffpoly",
          "render")
PER_MONOMIAL = {"mono_mul", "mono_div", "mono_divides", "mono_lcm",
                "mono_degree", "mono_from_var"}
CLOSURE_OPS = {"closure.unary_dalg", "closure.arithmetic_dalg",
               "closure.compose_dalg", "closure.diff_dalg", "closure.inv_dalg",
               "closure.ddfinite_to_dalg"}
MUL = "poly.Poly.__mul__"
CASE = "bench.case"

# function id, parent, case, outermost, start, end
FID, PARENT, CASE_ID, OUTER, START, END = range(6)


def _terms(polys):
    return sum(p.num_terms() for p in polys)


def _hook_buchberger(t, args, result, ok):
    c = t.counters
    c["groebner.input_terms"] += _terms(args[0])
    if not ok:
        c["groebner.aborted"] += 1
        return
    gens = result.generators
    c["groebner.basis_max"] = max(c["groebner.basis_max"], len(gens))
    c["groebner.basis_terms_max"] = max(c["groebner.basis_terms_max"],
                                        max(g.num_terms() for g in gens))
    bits = max(max(abs(q.numerator).bit_length(), q.denominator.bit_length())
               for g in gens for q in g.terms.values())
    c["groebner.coeff_bits_max"] = max(c["groebner.coeff_bits_max"], bits)


def _hook_eliminate(t, args, result, ok):
    c = t.counters
    c["closure.system_terms"] = max(c["closure.system_terms"], _terms(args[0]))


def _hook_assemble(t, args, result, ok):
    if ok and result is not None:
        t.counters["ansatz.hits"] += 1


def _hook_solve(t, args, result, ok):
    c = t.counters
    system = args[0]
    c["ansatz.rows_max"] = max(c["ansatz.rows_max"], len(system.rows))
    c["ansatz.unknowns_max"] = max(c["ansatz.unknowns_max"], len(system.unknowns))


HOOKS = {
    "groebner.buchberger": _hook_buchberger,
    "groebner.eliminate": _hook_eliminate,
    "ansatz.assemble_and_solve": _hook_assemble,
    "ansatz.solve_linear_ratfunc": _hook_solve,
}


class Tracer:
    def __init__(self):
        self.on = False
        self.names: list = []
        self.layer: list = []
        self.spans: list = []
        self.stack: list = []
        self.depth: list = []
        self.case = -1
        self.counters = dict.fromkeys(
            ["groebner.input_terms", "groebner.aborted", "groebner.basis_max",
             "groebner.basis_terms_max", "groebner.coeff_bits_max",
             "closure.system_terms", "ansatz.hits", "ansatz.rows_max",
             "ansatz.unknowns_max"], 0)
        self.case_fid = self.function_id(CASE, "bench")

    def function_id(self, name, layer):
        self.names.append(name)
        self.layer.append(layer)
        self.depth.append(0)
        return len(self.names) - 1

    def wrap(self, fn, name, layer):
        fid = self.function_id(name, layer)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack, depth = tracer.stack, tracer.depth
            span = [fid, stack[-1] if stack else -1, tracer.case, not depth[fid],
                    0.0, None]
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            depth[fid] += 1
            ok, result = False, None
            span[START] = process_time()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                span[END] = process_time()
                stack.pop()
                depth[fid] -= 1
                if hook is not None:
                    hook(tracer, args, result, ok)

        return traced

    def begin_case(self, case_id):
        """Open the root span of one case."""
        self.case = case_id
        self.stack.clear()
        self.depth = [0] * len(self.depth)
        self.stack.append(len(self.spans))
        self.spans.append([self.case_fid, -1, case_id, True, process_time(), None])

    def end_case(self):
        """Close the case's root span and every span a deadline left open;
        the spans of one case are the last ones recorded."""
        now = process_time()
        for span in reversed(self.spans):
            if span[CASE_ID] != self.case:
                break
            if span[END] is None:
                span[START] = span[START] or now
                span[END] = now
        self.stack.clear()
        self.depth = [0] * len(self.depth)

    # -- derived metrics ----------------------------------------------------

    def metrics(self, traced_wall_s, untraced_wall_s):
        names, spans = self.names, self.spans
        self_s = [s[END] - s[START] for s in spans]
        for s in spans:
            if s[PARENT] >= 0:
                self_s[s[PARENT]] -= s[END] - s[START]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        inclusive: dict = {}
        calls: dict = {}
        outer_calls: dict = {}
        for i, s in enumerate(spans):
            name, layer = names[s[FID]], self.layer[s[FID]]
            if layer in layer_self:
                layer_self[layer] += self_s[i]
            calls[name] = calls.get(name, 0) + 1
            if s[OUTER]:
                inclusive[name] = inclusive.get(name, 0.0) + s[END] - s[START]
            parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
            if parent is None or self.layer[parent[FID]] != layer:
                outer_calls[layer] = outer_calls.get(layer, 0) + 1
        c = self.counters
        ops = sum(calls.get(n, 0) for n in CLOSURE_OPS)
        elim_parents = {s[PARENT] for s in spans
                        if names[s[FID]] == "groebner.eliminate"}
        candidates = calls.get("ansatz.assemble_and_solve", 0)
        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        out.update({
            "groebner.calls": calls.get("groebner.buchberger", 0),
            "groebner.input_terms": c["groebner.input_terms"],
            "groebner.basis_max": c["groebner.basis_max"],
            "groebner.basis_terms_max": c["groebner.basis_terms_max"],
            "groebner.coeff_bits_max": c["groebner.coeff_bits_max"],
            "groebner.aborted": c["groebner.aborted"],
            "closure.ops": ops,
            "closure.eliminations_per_op":
                calls.get("groebner.eliminate", 0) / len(elim_parents)
                if elim_parents else 0.0,
            "closure.system_terms": c["closure.system_terms"],
            "closure.select_output_s": inclusive.get("closure.select_output", 0.0),
            "ansatz.closure_s": inclusive.get("ansatz.derivative_closure", 0.0),
            "ansatz.solve_s": inclusive.get("ansatz.solve_linear_ratfunc", 0.0),
            "ansatz.candidates": candidates,
            "ansatz.hit_ratio": c["ansatz.hits"] / candidates if candidates else 0.0,
            "ansatz.rows_max": c["ansatz.rows_max"],
            "ansatz.unknowns_max": c["ansatz.unknowns_max"],
            "poly.gcd_s": inclusive.get("poly.poly_gcd", 0.0),
            "poly.gcd_calls": calls.get("poly.poly_gcd", 0),
            "poly.pseudo_divide_s": inclusive.get("poly.pseudo_divide", 0.0),
            "poly.exact_divide_s": inclusive.get("poly.try_exact_divide", 0.0),
            "poly.mul_s": inclusive.get(MUL, 0.0),
            "poly.mul_calls": calls.get(MUL, 0),
            "diffpoly.total_derivative_calls":
                calls.get("diffpoly.total_derivative", 0),
            "parser.calls": outer_calls.get("parser", 0),
            "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
        })
        unattributed = sum(self_s[i] for i, s in enumerate(spans)
                           if self.layer[s[FID]] not in layer_self)
        return out, unattributed

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tfunction\tlayer\tcase\tparent\tstart_s\tend_s\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[s[FID]]}\t{self.layer[s[FID]]}\t"
                         f"{s[CASE_ID]}\t{s[PARENT]}\t{s[START]!r}\t{s[END]!r}\n")


def install(tracer: Tracer):
    """Wrap the traced functions everywhere they are bound; returns a
    callable that restores the originals."""
    wrappers: dict = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"dalg.{layer}")
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or name in PER_MONOMIAL
                    or not inspect.isfunction(obj) or obj.__module__ != mod.__name__):
                continue
            wrappers[id(obj)] = (obj, tracer.wrap(obj, f"{layer}.{name}", layer))
    from dalg.poly import Poly

    mul = Poly.__mul__
    wrapped_mul = tracer.wrap(mul, MUL, "poly")
    restore = [(Poly, "__mul__", mul), (Poly, "__rmul__", Poly.__rmul__)]
    Poly.__mul__ = Poly.__rmul__ = wrapped_mul
    modules = [m for n, m in list(sys.modules.items())
               if n == "dalg" or n.startswith("dalg.")]
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                restore.append((mod, attr, val))
                setattr(mod, attr, hit[1])

    def uninstall():
        for owner, attr, val in restore:
            setattr(owner, attr, val)

    return uninstall
