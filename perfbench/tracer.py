"""Span tracing and per-layer counters, patched in from outside ``src/``.

Each wrapped public name records a span (name, start, end, parent, op)
in memory.  Modules import each other's names with ``from .x import y``,
so a name is replaced in its defining module and in every module that
imported it.  Scalar arithmetic on ``PadicNumber`` is counted, not
spanned, because it runs millions of times per operation.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (defining module, attribute) -> span name; wrapped wherever imported.
FUNCTIONS = {
    ("matrices", "qr"): "matrices.qr",
    ("matrices", "svd"): "matrices.svd",
    ("matrices", "nullspace_mod_pN"): "matrices.nullspace_mod_pN",
    ("matrices", "solve"): "matrices.solve",
    ("matrices", "hessenberg"): "matrices.hessenberg",
    ("eigen", "eigvecs"): "eigen.eigvecs",
    ("eigen", "power_iteration_decomposition"): "eigen.power_iteration",
    ("eigen", "qr_iteration"): "eigen.qr_iteration",
    ("eigen", "block_schur_form"): "eigen.block_schur_form",
    ("eigen", "classical_eigen"): "eigen.classical_eigen",
    ("eigen", "eigenvalue_valuations"): "eigen.eigenvalue_valuations",
    ("solver", "macaulay_matrix"): "solver.macaulay_matrix",
    ("solver", "cokernel"): "solver.cokernel",
    ("solver", "select_basis"): "solver.select_basis",
    ("solver", "multiplication_matrices"): "solver.multiplication_matrices",
    ("solver", "solve_system"): "solver.solve_system",
    ("residue", "charpoly_residue"): "residue.charpoly_residue",
    ("residue", "linear_roots_with_multiplicity"): "residue.linear_roots",
    ("mpoly", "parse_system"): "mpoly.parse_system",
    ("cli", "main"): "cli.main",
}
# (module, class, method) -> span name
METHODS = {
    ("matrices", "PadicMatrix", "__matmul__"): "matrices.matmul",
    ("mpoly", "MultiPoly", "evaluate"): "mpoly.evaluate",
}
# matrices-layer entry points whose input precision shows eigen's working budget
_WORK_PRECISION = {"matrices.nullspace_mod_pN", "matrices.hessenberg",
                   "matrices.qr", "matrices.svd"}


class Tracer:
    """Holds the spans and counters of one traced run."""

    def __init__(self, package):
        self.package = package      # the imported padicnla package
        self.spans = []             # [name, start, end, parent, op, extra]
        self.stack = []
        self.op = None              # index of the traced execution
        self.scales = []            # per execution: seconds -> reference seconds
        self.counts = defaultdict(int)
        self._saved = []

    # -- patching --------------------------------------------------------

    def _modules(self):
        names = ("padics", "residue", "matrices", "mpoly", "eigen", "solver", "cli")
        return {n: importlib.import_module(f"{self.package}.{n}") for n in names}

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            if name in _WORK_PRECISION:
                span[5] = args[0].flat_precision
            elif name == "eigen.eigvecs":
                span[5] = 0     # unresolved dimension; 0 if the call raises
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if name == "eigen.eigvecs":
                span[5] = sum(b.operator.nrows for b in result.unresolved)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        mods = self._modules()
        for (home, attr), name in FUNCTIONS.items():
            original = getattr(mods[home], attr)
            wrapped = self._span(name, original)
            for mod in mods.values():
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)
        for (home, cls, attr), name in METHODS.items():
            klass = getattr(mods[home], cls)
            self._patch(klass, attr, self._span(name, getattr(klass, attr)))
        self._count_scalars(mods["padics"].PadicNumber)

    def _count_scalars(self, cls):
        counts = self.counts
        mul, add, div, init = cls.__mul__, cls.__add__, cls.__truediv__, cls.__init__

        def counted_mul(a, b):
            counts["padics.mul_calls"] += 1
            counts["padics.mul_digits"] += a.precision + b.precision
            return mul(a, b)

        def counted_add(a, b):
            counts["padics.add_calls"] += 1
            return add(a, b)

        def counted_div(a, b):
            counts["padics.div_calls"] += 1
            return div(a, b)

        def counted_init(self_, *args):
            counts["padics.new_objects"] += 1
            init(self_, *args)

        self._patch(cls, "__mul__", counted_mul)
        self._patch(cls, "__add__", counted_add)
        self._patch(cls, "__truediv__", counted_div)
        self._patch(cls, "__init__", counted_init)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "extra": extra}))
                fh.write("\n")


def layer_totals(spans, scales=None):
    """Per-layer sums over spans: inclusive time of outermost spans of each
    name, call counts, self time, and the derived eigen/solver figures.
    ``scales[op]`` converts the durations of execution ``op``."""
    out = defaultdict(float)
    child_time = defaultdict(float)

    def duration(span):
        return (span[2] - span[1]) * (scales[span[4]] if scales else 1.0)

    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += duration(span)
    for idx, span in enumerate(spans):
        name, _, _, parent, _, extra = span
        dur = duration(span)
        out[name + "_calls"] += 1
        out[name + "_self_s"] += dur - child_time[idx]
        if name == "cli.main":
            out["cli.self_s"] += dur - child_time[idx]
        ancestors = []
        a = parent
        while a >= 0:
            ancestors.append(spans[a][0])
            a = spans[a][3]
        if name not in ancestors:
            out[name + "_s"] += dur
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "eigen.eigvecs":
            if parent_name == "solver.solve_system":
                out["solver.eigvecs_s"] += dur
            if name not in ancestors:
                out["eigen.unresolved_dim"] += extra
        if name == "eigen.classical_eigen" and any(x.startswith("eigen.") for x in ancestors):
            out["eigen.classical_fallbacks"] += 1
        if name == "residue.charpoly_residue" and parent_name == "solver.solve_system":
            out["solver.l_draws"] += 1
        if name in _WORK_PRECISION and any(x.startswith("eigen.") for x in ancestors):
            out["eigen.work_precision_max"] = max(out["eigen.work_precision_max"], extra)
    return out
