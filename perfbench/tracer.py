"""In-memory tracing of hopfdeform's layer boundaries, installed from outside.

The tracer replaces each boundary function with a timing wrapper in every
place inside the package that holds it: module namespaces (``cli`` imports
the hopf functions by name), module-level dicts (``cli.HANDLERS``), class
dicts (methods and operators) and function defaults (``is_action`` binds
``translate`` as a default argument).  ``restore`` puts every original back
and checks each place by identity.

Coarse calls are recorded as spans with parent links.  Hot calls (scalar and
element arithmetic, ``dim_classifying``) only update per-boundary call
counts and self-time sums, because they run millions of times.  A
boundary's self time is its duration minus that of the wrapped calls made
inside it, so the self times of one verdict add up to the root span.
"""

from __future__ import annotations

import sys
import time
import types
from dataclasses import dataclass

# (stat key, module, qualified name, record a span, workload it dominates).
# The workload is where the benchmark checks that the boundary was reached;
# None marks a boundary that no CLI command reaches.
TARGETS = (
    ("cli.main", "cli", "main", True, "pipeline"),
    ("cli.run_verify", "cli", "run_verify", True, "pipeline"),
    ("cli.run_dual", "cli", "run_dual", True, "pipeline"),
    ("cli.run_quotient", "cli", "run_quotient", True, "pipeline"),
    ("cli.run_cohomology_table", "cli", "run_cohomology_table", True, "tables"),
    ("cli.run_jump", "cli", "run_jump", True, "tables"),
    ("cli.run_free_locus", "cli", "run_free_locus", True, "free-locus"),
    ("cli.render", "cli", "render", True, "tables"),
    ("hopf.verify_axioms", "hopf", "verify_axioms", True, "pipeline"),
    ("hopf.exhibit_isomorphism", "hopf", "exhibit_isomorphism", True, "pipeline"),
    ("hopf.cartier_dual", "hopf", "cartier_dual", True, "pipeline"),
    ("hopf.hopf_quotient", "hopf", "hopf_quotient", True, "pipeline"),
    ("hopf.specialize_hopf", "hopf", "specialize_hopf", True, "pipeline"),
    ("hopf.deformation_hopf", "hopf", "deformation_hopf", True, "pipeline"),
    ("hopf.catalog_build", "hopf", "catalog_build", True, "pipeline"),
    ("hopf.square_mult", "hopf", "HopfAlgebra.square_mult", True, "pipeline"),
    ("hopf.vec_mult", "hopf", "HopfAlgebra.vec_mult", True, "pipeline"),
    ("algebra.algebra_hom", "algebra", "algebra_hom", True, "pipeline"),
    ("algebra.invert_unit", "algebra", "invert_unit", True, "pipeline"),
    ("algebra.linear_apply", "algebra", "LinearMap.apply", True, "pipeline"),
    ("algebra.inverse", "algebra", "LinearMap.inverse", True, "pipeline"),
    # reached only through hopf.primitive_space, which no command calls
    ("algebra.null_space", "algebra", "null_space", True, None),
    ("algebra.elem_mul", "algebra", "AlgebraElement.__mul__", False, "free-locus"),
    ("algebra.elem_add", "algebra", "AlgebraElement.__add__", False, "free-locus"),
    ("algebra.elem_sub", "algebra", "AlgebraElement.__sub__", False, "free-locus"),
    ("algebra.parent_eq", "algebra", "MonomialQuotientAlgebra.__eq__", False, "free-locus"),
    ("rings.poly_mul", "rings", "UnivariatePoly.__mul__", False, "pipeline"),
    ("rings.poly_divmod", "rings", "UnivariatePoly.divmod", False, "pipeline"),
    ("rings.poly_gcd", "rings", "poly_gcd", False, "pipeline"),
    ("rings.fraction_add", "rings", "_PolyFraction.__add__", False, "pipeline"),
    ("rings.fraction_sub", "rings", "_PolyFraction.__sub__", False, "pipeline"),
    ("rings.fraction_mul", "rings", "_PolyFraction.__mul__", False, "pipeline"),
    ("rings.fraction_neg", "rings", "_PolyFraction.__neg__", False, "pipeline"),
    ("rings.fraction_div", "rings", "_PolyFraction.__truediv__", False, "pipeline"),
    ("rings.fp_add", "rings", "FpElement.__add__", False, "free-locus"),
    # no command subtracts or divides in F_p
    ("rings.fp_sub", "rings", "FpElement.__sub__", False, None),
    ("rings.fp_mul", "rings", "FpElement.__mul__", False, "free-locus"),
    ("rings.fp_neg", "rings", "FpElement.__neg__", False, "free-locus"),
    ("rings.fp_div", "rings", "FpElement.__truediv__", False, None),
    ("rings.fp_invert", "rings", "FpElement.invert", False, "pipeline"),
    ("action.is_action", "action", "is_action", True, "free-locus"),
    ("action.free_locus", "action", "free_locus_hyperplane_check", True, "free-locus"),
    ("action.translate", "action", "translate", False, "free-locus"),
    ("action.symbolic", "action", "universal_leading_coefficient_identity", True,
     "free-locus"),
    ("cohomology.crosscheck", "cohomology", "verify_binomial_vs_kunneth", True, "tables"),
    ("cohomology.kunneth", "cohomology", "kunneth", True, "tables"),
    ("cohomology.dimension_table", "cohomology", "dimension_table", True, "tables"),
    ("cohomology.jump_scan", "cohomology", "minimal_n_for_jump", True, "tables"),
    ("cohomology.dim_classifying", "cohomology", "dim_classifying", False, "tables"),
)

FRACTION_OPS = ("rings.fraction_add", "rings.fraction_sub", "rings.fraction_mul",
                "rings.fraction_neg", "rings.fraction_div")


@dataclass
class _Slot:
    """One place that holds a boundary function: a dict key, a class attribute
    or a position in a function's defaults."""

    kind: str
    owner: object
    key: object

    def get(self):
        if self.kind == "dict":
            return self.owner[self.key]
        if self.kind == "attr":
            return self.owner.__dict__[self.key]
        return self.owner.__defaults__[self.key]

    def set(self, value):
        if self.kind == "dict":
            self.owner[self.key] = value
        elif self.kind == "attr":
            setattr(self.owner, self.key, value)
        else:
            defaults = list(self.owner.__defaults__)
            defaults[self.key] = value
            self.owner.__defaults__ = tuple(defaults)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "hopfdeform" or name.startswith("hopfdeform.")]


def _functions_and_classes(module):
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, types.FunctionType):
            yield value, None
        elif isinstance(value, type):
            yield None, value
            for member in vars(value).values():
                if isinstance(member, types.FunctionType):
                    yield member, None


def find_slots(original, modules) -> list[_Slot]:
    """Every place in the given modules that holds ``original``."""
    slots = []
    for module in modules:
        namespace = vars(module)
        for key, value in namespace.items():
            if value is original:
                slots.append(_Slot("dict", namespace, key))
            elif isinstance(value, dict):
                slots.extend(_Slot("dict", value, k) for k, v in value.items()
                             if v is original)
        for fn, cls in _functions_and_classes(module):
            if cls is not None:
                slots.extend(_Slot("attr", cls, k) for k, v in vars(cls).items()
                             if v is original)
            elif fn.__defaults__:
                slots.extend(_Slot("defaults", fn, i) for i, v in enumerate(fn.__defaults__)
                             if v is original)
    return slots


def _resolve(module_name: str, qualname: str):
    obj = sys.modules[f"hopfdeform.{module_name}"]
    for part in qualname.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


class Tracer:
    """Wraps the boundaries in TARGETS and accumulates what the wrappers see."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters = {"cli.render.bytes": 0, "rings.gcd.reducing": 0,
                         "rings.fraction_den1": 0, "rings.max_t_degree": 0,
                         "action.candidates": 0, "action.points": 0,
                         "action.nonzero_pairs": 0, "action.full_translates": 0,
                         "cohomology.crosscheck_cells": 0}
        self.spans: list[tuple] = []
        self._stack = [[0.0]]        # per active call: time spent in wrapped children
        self._span_ids = [None]      # innermost active span, for parent links
        self._in_free_locus = 0
        self._installed: list[tuple[_Slot, object]] = []

    # -- hooks that turn arguments and results into counters --------------

    def _before(self, key, args):
        c = self.counters
        if key in FRACTION_OPS:
            if all(getattr(a, "den", None) is not None and a.den.degree == 0
                   for a in args[:2]):
                c["rings.fraction_den1"] += 1
        elif key == "action.free_locus":
            self._in_free_locus += 1
        elif key == "action.translate" and self._in_free_locus:
            c["action.full_translates"] += 1

    def _after(self, key, result):
        if key == "action.free_locus":
            self._in_free_locus -= 1
        if result is None:  # the call raised
            return
        c = self.counters
        if key == "cli.render":
            c["cli.render.bytes"] += len(result.encode())
        elif key == "rings.poly_mul":
            c["rings.max_t_degree"] = max(c["rings.max_t_degree"], result.degree)
        elif key == "rings.poly_gcd":
            c["rings.gcd.reducing"] += result.degree > 0
        elif key == "action.free_locus":
            c["action.candidates"] += result.trials
            c["action.points"] += result.points
            c["action.nonzero_pairs"] += result.trials * (result.points - 1)
        elif key == "cohomology.crosscheck":
            c["cohomology.crosscheck_cells"] += len(result.entries)

    _BEFORE = frozenset(FRACTION_OPS) | {"action.free_locus", "action.translate"}
    _AFTER = frozenset({"cli.render", "rings.poly_mul", "rings.poly_gcd",
                        "action.free_locus", "cohomology.crosscheck"})

    def _wrap(self, key, fn, record_span):
        calls, self_s, stack, span_ids, spans = (
            self.calls, self.self_s, self._stack, self._span_ids, self.spans)
        calls[key] = 0
        self_s[key] = 0.0
        before = self._before if key in self._BEFORE else None
        after = self._after if key in self._AFTER else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(key, args)
            frame = [0.0]
            stack.append(frame)
            if record_span:
                span_id = len(spans)
                spans.append(None)
                span_ids.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                calls[key] += 1
                self_s[key] += duration - frame[0]
                if record_span:
                    span_ids.pop()
                    spans[span_id] = (span_id, span_ids[-1], key, start, end)
                if after is not None:
                    after(key, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target in every place that holds it."""
        modules = _package_modules()
        # Find every slot before setting any: once a function is replaced by
        # its wrapper, its defaults would no longer be scanned.
        plan = []
        for key, module, qualname, record_span, _ in TARGETS:
            original = _resolve(module, qualname)
            slots = find_slots(original, modules)
            if not slots:
                raise RuntimeError(f"no place holds {module}.{qualname}")
            plan.append((key, original, record_span, slots))
        for key, original, record_span, slots in plan:
            wrapper = self._wrap(key, original, record_span)
            for slot in slots:
                slot.set(wrapper)
                self._installed.append((slot, original))

    def restore(self) -> list[str]:
        """Put every original back; return the places that failed the identity check."""
        for slot, original in reversed(self._installed):
            slot.set(original)
        bad = [f"{slot.kind}:{slot.key}" for slot, original in self._installed
               if slot.get() is not original]
        self._installed.clear()
        return bad

    def report(self) -> dict:
        # The bottom frame collects the durations of the outermost calls.
        return {"calls": self.calls, "self_s": self.self_s, "counters": self.counters,
                "root_s": self._stack[0][0], "spans": self.spans}
