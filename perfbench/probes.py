"""Which homstab functions the traced run wraps, and the per-layer metrics.

Every layer is one module of ``src/homstab``.  ``install`` wraps the
listed public functions and methods at run time (``Tracer.restore``
undoes it); ``layer_metrics`` folds the recorded spans, folded calls and
counters into the per-layer metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import weakref

from tracer import COUNT, FOLD, SPAN, Tracer

PACKAGE = "homstab"

# (module, attribute path, kind); the span name is "<module>.<path>"
WRAPPED = [
    ("exact_linalg", "span_columns", SPAN),
    ("exact_linalg", "kernel_columns", SPAN),
    ("exact_linalg", "smith_normal_form", SPAN),
    ("exact_linalg", "homology_of_pair", SPAN),
    ("exact_linalg", "induced_matrix", SPAN),
    ("exact_linalg", "classify_induced", SPAN),
    ("kernels", "span_batch_int64", SPAN),
    ("homology_engine", "BarComplex.__init__", SPAN),
    ("homology_engine", "BarComplex.boundary", SPAN),
    ("homology_engine", "BarComplex.homology", SPAN),
    ("homology_engine", "MappingCone.boundary", SPAN),
    ("homology_engine", "MappingCone.homology", SPAN),
    ("homology_engine", "presented_subquotient", SPAN),
    ("homology_engine", "stabilization_status", SPAN),
    ("homology_engine", "relative_homology", SPAN),
    ("homology_engine", "les_exact_at_rel", SPAN),
    ("homology_engine", "coinvariants", SPAN),
    ("homology_engine", "StabilizationSetup.verify", SPAN),
    ("bracket", "BracketCategory.canonicalize", FOLD),
    ("bracket", "BracketCategory.compose", FOLD),
    ("bracket", "BracketCategory.post_compose", FOLD),
    ("bracket", "BracketCategory.hom_set", SPAN),
    ("bracket", "BracketCategory.verify_homogeneity", SPAN),
    ("bracket", "BracketCategory.verify_prebraid", SPAN),
    ("bracket", "BracketCategory.verify_local_standardness", SPAN),
    ("groups", "perm_mul", COUNT),
    ("groups", "mat_mul_mod", COUNT),
    ("groups", "symmetric_group", SPAN),
    ("groups", "general_linear_group", SPAN),
    ("groups", "wreath_group", SPAN),
    ("groupoids", "verify_groupoid_axioms", SPAN),
    ("simplicial", "build_W", SPAN),
    ("simplicial", "build_S", SPAN),
    ("simplicial", "lift_profile", SPAN),
    ("simplicial", "connectivity_certificate", SPAN),
    ("simplicial", "ChainComplex.reduced_homology", SPAN),
    ("pi1", "two_skeleton_from_semisimplicial", SPAN),
    ("pi1", "pi1_triviality", SPAN),
    ("pi1", "todd_coxeter_trivial", SPAN),
    ("coeffsys", "standard_system", SPAN),
    ("coeffsys", "tensor_power", SPAN),
    ("coeffsys", "constant_system", SPAN),
    ("coeffsys", "degree_profile", SPAN),
    ("coeffsys", "split_degree_profile", SPAN),
    ("coeffsys", "split_witness", SPAN),
    ("coeffsys", "CoefficientSystem.verify", SPAN),
    ("coeffsys", "CoefficientSystem.stabilization_setup", SPAN),
    ("verifier", "build_instance", SPAN),
    ("verifier", "build_system", SPAN),
    ("verifier", "run_axioms", SPAN),
    ("verifier", "run_connectivity", SPAN),
    ("verifier", "run_stability", SPAN),
    ("verifier", "report_emit", SPAN),
]

LAYERS = ["exact_linalg", "kernels", "homology_engine", "bracket", "groups",
          "groupoids", "simplicial", "pi1", "coeffsys", "verifier"]

# the per-layer metrics, in report order: name -> unit
PER_LAYER = {
    "exact_linalg.span_s": "s",
    "exact_linalg.span_calls": "count",
    "exact_linalg.span_cols": "count",
    "exact_linalg.span_rank": "count",
    "exact_linalg.span_yield": "ratio",
    "exact_linalg.kernel_s": "s",
    "exact_linalg.snf_s": "s",
    "exact_linalg.snf_entries": "count",
    "exact_linalg.induced_s": "s",
    "kernels.batch_s": "s",
    "kernels.batch_calls": "count",
    "kernels.overflow_escalations": "count",
    "homology_engine.bar_complexes": "count",
    "homology_engine.boundaries_built": "count",
    "homology_engine.boundaries_distinct": "count",
    "homology_engine.boundary_cols": "count",
    "homology_engine.boundary_s": "s",
    "homology_engine.subquotients": "count",
    "homology_engine.subquotient_s": "s",
    "homology_engine.stabilization_s": "s",
    "homology_engine.relative_s": "s",
    "homology_engine.les_s": "s",
    "homology_engine.coinvariants_s": "s",
    "bracket.canonicalize_s": "s",
    "bracket.canonicalize_calls": "count",
    "bracket.hom_set_s": "s",
    "bracket.morphisms": "count",
    "bracket.verify_s": "s",
    "groups.mul_calls": "count",
    "groups.enumerate_s": "s",
    "groups.elements": "count",
    "groupoids.axioms_s": "s",
    "simplicial.build_W_s": "s",
    "simplicial.simplices": "count",
    "simplicial.homology_s": "s",
    "pi1.triviality_s": "s",
    "pi1.todd_coxeter_calls": "count",
    "pi1.cosets": "count",
    "coeffsys.build_s": "s",
    "coeffsys.degree_s": "s",
    "coeffsys.split_s": "s",
    "coeffsys.setup_verify_s": "s",
    "verifier.cell_s": "s",
    "verifier.cell_max_s": "s",
    "verifier.emit_s": "s",
    "verifier.cpu_s": "s",
    "trace.overhead_s": "s",
}
PER_LAYER.update({f"{layer}.self_s": "s" for layer in LAYERS})


def _resolve(module, path):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class _Hooks:
    """Counters read from a call's arguments before it runs and from its
    result after it returns."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.lock = threading.Lock()
        self.boundaries = weakref.WeakKeyDictionary()   # complex -> levels
        self.seen = set()
        self.w_cells = weakref.WeakKeyDictionary()      # W -> cell

    def first(self, key) -> bool:
        """True the first time key is seen."""
        with self.lock:
            fresh = key not in self.seen
            self.seen.add(key)
        return fresh

    def span_cols(self, args):
        mat = args[0]
        self.t.add("span_cols", mat.ncols if hasattr(mat, "ncols")
                   else len(mat))

    def span_rank(self, args, span):
        self.t.add("span_rank", span.rank())

    def smith_normal_form(self, args, snf):
        self.t.add("snf_entries", snf.nrows * snf.ncols)

    def span_batch_int64(self, args, out):
        if out is None:
            self.t.add("overflow_escalations")

    def boundary_before(self, args):
        cx, i = args[0], args[1]
        with self.lock:
            levels = self.boundaries.setdefault(cx, set())
            built = i in levels
            levels.add(i)
        if built:
            return
        self.t.add("boundaries_built")
        if self.first(("boundary", cx.M.content_hash(), i)):
            self.t.add("boundaries_distinct")

    def boundary(self, args, d):
        self.t.maximum("boundary_cols", d.ncols)

    def hom_set(self, args, homs):
        if self.first(("hom_set", id(args[0]), args[1], args[2])):
            self.t.add("morphisms", len(homs))

    def group(self, args, grp):
        self.t.add("elements", grp.order)

    def build_W(self, args, W):
        self.w_cells[W] = ("n", args[3])
        self.t.add("simplices", sum(W.level_sizes()))

    def pi1_triviality(self, args, result):
        detail = result[1]
        self.t.add("cosets", detail.get("cosets", detail.get(
            "group_order", detail.get("rows", 0))))

    def w_cell(self, args):
        return self.w_cells.get(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every function in WRAPPED, the group multiplications and the
    verifier's thread pool.  Undo with ``tracer.restore()``."""
    hooks = _Hooks(tracer)
    after = {
        "exact_linalg.span_columns": hooks.span_rank,
        "exact_linalg.smith_normal_form": hooks.smith_normal_form,
        "kernels.span_batch_int64": hooks.span_batch_int64,
        "homology_engine.BarComplex.boundary": hooks.boundary,
        "bracket.BracketCategory.hom_set": hooks.hom_set,
        "groups.symmetric_group": hooks.group,
        "groups.general_linear_group": hooks.group,
        "groups.wreath_group": hooks.group,
        "simplicial.build_W": hooks.build_W,
        "pi1.pi1_triviality": hooks.pi1_triviality,
    }
    before = {
        "exact_linalg.span_columns": hooks.span_cols,
        "homology_engine.BarComplex.boundary": hooks.boundary_before,
    }
    cells = {
        "simplicial.build_W": lambda args: ("n", args[3]),
        "simplicial.build_S": hooks.w_cell,
        "simplicial.lift_profile": hooks.w_cell,
        "simplicial.connectivity_certificate": hooks.w_cell,
        "groupoids.verify_groupoid_axioms": lambda args: ("groupoid",),
        "bracket.BracketCategory.verify_homogeneity":
            lambda args: ("homogeneity", args[1], args[2]),
        "bracket.BracketCategory.verify_prebraid":
            lambda args: ("prebraid",),
        "bracket.BracketCategory.verify_local_standardness":
            lambda args: ("local standardness",),
    }
    for mod_name, path, kind in WRAPPED:
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        owner, attr = _resolve(module, path)
        name = f"{mod_name}.{path}"
        fn = getattr(owner, attr)
        wrapped = tracer.wrapper(name, fn, kind, cell_of=cells.get(name),
                                 before=before.get(name),
                                 after=after.get(name))
        tracer.patch(owner, attr, wrapped, PACKAGE)

    groups = importlib.import_module(f"{PACKAGE}.groups")
    make_mul = groups.wreath_mul

    def wreath_mul(base):
        return tracer.wrapper("groups.wreath_mul", make_mul(base), COUNT)
    tracer.patch(groups, "wreath_mul", wreath_mul, PACKAGE)

    verifier = importlib.import_module(f"{PACKAGE}.verifier")
    tracer.patch(verifier, "ThreadPoolExecutor",
                 traced_pool(tracer, verifier.ThreadPoolExecutor), PACKAGE)


def traced_pool(tracer: Tracer, base):
    """A subclass of the pool class ``base`` whose ``map`` runs inside a
    ``verifier.pool_map`` span and records one ``verifier.cell`` span per
    task, linked to it, on the worker thread that ran the task."""

    class TracedPool(base):
        def map(self, fn, *iterables, **kwargs):
            def run_all():
                parent = tracer.current_span()

                def cell(*args):
                    key = args[0] if len(args) == 1 else args
                    return tracer.span("verifier.cell", fn, args, {},
                                       cell=key, parent=parent)
                return list(base.map(self, cell, *iterables, **kwargs))
            return iter(tracer.span("verifier.pool_map", run_all, (), {}))

    return TracedPool


def layer_metrics(tracer: Tracer, untraced_run_s: float, traced_run_s: float,
                  cpu_s: float) -> dict[str, float]:
    """The PER_LAYER metrics from one traced call."""
    totals = tracer.totals()
    c = tracer.counters

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names)

    def calls(*names):
        return sum(totals.get(n, (0, 0.0))[0] for n in names)

    cells = [s.duration for s in tracer.spans() if s.name == "verifier.cell"]
    if not cells:
        cells = _cell_durations(tracer)
    span_cols = c.get("span_cols", 0)
    m = {
        "exact_linalg.span_s": self_s("exact_linalg.span_columns"),
        "exact_linalg.span_calls": calls("exact_linalg.span_columns"),
        "exact_linalg.span_cols": span_cols,
        "exact_linalg.span_rank": c.get("span_rank", 0),
        "exact_linalg.span_yield":
            c.get("span_rank", 0) / span_cols if span_cols else 0.0,
        "exact_linalg.kernel_s": self_s("exact_linalg.kernel_columns"),
        "exact_linalg.snf_s": self_s("exact_linalg.smith_normal_form"),
        "exact_linalg.snf_entries": c.get("snf_entries", 0),
        "exact_linalg.induced_s": self_s("exact_linalg.induced_matrix",
                                         "exact_linalg.classify_induced"),
        "kernels.batch_s": self_s("kernels.span_batch_int64"),
        "kernels.batch_calls": calls("kernels.span_batch_int64"),
        "kernels.overflow_escalations": c.get("overflow_escalations", 0),
        "homology_engine.bar_complexes":
            calls("homology_engine.BarComplex.__init__"),
        "homology_engine.boundaries_built": c.get("boundaries_built", 0),
        "homology_engine.boundaries_distinct":
            c.get("boundaries_distinct", 0),
        "homology_engine.boundary_cols": c.get("boundary_cols", 0),
        "homology_engine.boundary_s": self_s(
            "homology_engine.BarComplex.boundary",
            "homology_engine.MappingCone.boundary"),
        "homology_engine.subquotients":
            calls("homology_engine.presented_subquotient"),
        "homology_engine.subquotient_s": self_s(
            "homology_engine.presented_subquotient",
            "homology_engine.BarComplex.homology",
            "homology_engine.MappingCone.homology"),
        "homology_engine.stabilization_s":
            self_s("homology_engine.stabilization_status"),
        "homology_engine.relative_s":
            self_s("homology_engine.relative_homology"),
        "homology_engine.les_s": self_s("homology_engine.les_exact_at_rel"),
        "homology_engine.coinvariants_s":
            self_s("homology_engine.coinvariants"),
        "bracket.canonicalize_s":
            self_s("bracket.BracketCategory.canonicalize"),
        "bracket.canonicalize_calls":
            calls("bracket.BracketCategory.canonicalize"),
        "bracket.hom_set_s": self_s("bracket.BracketCategory.hom_set"),
        "bracket.morphisms": c.get("morphisms", 0),
        "bracket.verify_s": self_s(
            "bracket.BracketCategory.verify_homogeneity",
            "bracket.BracketCategory.verify_prebraid",
            "bracket.BracketCategory.verify_local_standardness"),
        "groups.mul_calls": calls("groups.perm_mul", "groups.mat_mul_mod",
                                  "groups.wreath_mul"),
        "groups.enumerate_s": self_s("groups.symmetric_group",
                                     "groups.general_linear_group",
                                     "groups.wreath_group"),
        "groups.elements": c.get("elements", 0),
        "groupoids.axioms_s": self_s("groupoids.verify_groupoid_axioms"),
        "simplicial.build_W_s": self_s("simplicial.build_W"),
        "simplicial.simplices": c.get("simplices", 0),
        "simplicial.homology_s":
            self_s("simplicial.ChainComplex.reduced_homology"),
        "pi1.triviality_s": self_s("pi1.pi1_triviality",
                                   "pi1.todd_coxeter_trivial"),
        "pi1.todd_coxeter_calls": calls("pi1.todd_coxeter_trivial"),
        "pi1.cosets": c.get("cosets", 0),
        "coeffsys.build_s": self_s("coeffsys.standard_system",
                                   "coeffsys.tensor_power",
                                   "coeffsys.constant_system"),
        "coeffsys.degree_s": self_s("coeffsys.degree_profile",
                                    "coeffsys.split_degree_profile"),
        "coeffsys.split_s": self_s("coeffsys.split_witness"),
        "coeffsys.setup_verify_s": self_s(
            "coeffsys.CoefficientSystem.verify",
            "coeffsys.CoefficientSystem.stabilization_setup",
            "homology_engine.StabilizationSetup.verify"),
        "verifier.cell_s": statistics.median(cells) if cells else 0.0,
        "verifier.cell_max_s": max(cells, default=0.0),
        "verifier.emit_s": self_s("verifier.report_emit"),
        "verifier.cpu_s": cpu_s,
        "trace.overhead_s": traced_run_s - untraced_run_s,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            t[1] for name, t in totals.items()
            if name.split(".", 1)[0] == layer)
    return {name: m[name] for name in PER_LAYER}


def _cell_durations(tracer: Tracer) -> list[float]:
    """Wall time per grid cell for runs without a cell pool: the summed
    duration of the outermost spans tagged with each cell."""
    spans = tracer.spans()
    by_id = {s.id: s for s in spans}
    per_cell: dict[object, float] = {}
    for s in spans:
        if s.cell is None:
            continue
        parent = by_id.get(s.parent)
        if parent is not None and parent.cell == s.cell:
            continue
        per_cell[s.cell] = per_cell.get(s.cell, 0.0) + s.duration
    return list(per_cell.values())
