"""Per-layer tracing from outside the library.

``install`` replaces public functions and methods of mvcrystals with
wrappers that record a span (name, start, end, parent) per call.  A
function is patched under every name any loaded ``mvcrystals`` module bound
it to at import (``cli.enumerate_ls``, ``verify.sample_ytilde``, ...), and
``check_reach`` fails a run in which a wrapper a workload must reach was
never called, so a missed binding cannot silently report zero.  Spans stay
in memory until ``write``.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, class or None, attribute, span name)
TARGETS = [
    ("mvcrystals.rootdata", None, "build_root_datum", "rootdata.build_root_datum"),
    ("mvcrystals.rootdata", "RootDatum", "weyl_elements", "rootdata.weyl_elements"),
    ("mvcrystals.rootdata", "RootDatum", "enumerate_reduced_words",
     "rootdata.enumerate_reduced_words"),
    ("mvcrystals.rootdata", "RootDatum", "reduced_word", "rootdata.reduced_word"),
    ("mvcrystals.rootdata", "RootDatum", "dominant_conjugate", "rootdata.dominant_conjugate"),
    ("mvcrystals.affine", None, "build_gallery_type", "affine.build_gallery_type"),
    ("mvcrystals.affine", None, "minimal_word", "affine.minimal_word"),
    ("mvcrystals.affine", None, "face_vertices", "affine.face_vertices"),
    ("mvcrystals.affine", None, "phi_plus_aff", "affine.phi_plus_aff"),
    ("mvcrystals.gallery", None, "enumerate_ls", "gallery.enumerate_ls"),
    ("mvcrystals.gallery", None, "root_e", "gallery.root_e"),
    ("mvcrystals.gallery", None, "root_f", "gallery.root_f"),
    ("mvcrystals.gallery", None, "is_ls", "gallery.is_ls"),
    ("mvcrystals.gallery", None, "dimension", "gallery.dimension"),
    ("mvcrystals.crystal", None, "validate_axioms", "crystal.validate_axioms"),
    ("mvcrystals.crystal", None, "expected_character", "crystal.freudenthal"),
    ("mvcrystals.crystal", None, "string_parameters", "crystal.string_parameters"),
    ("mvcrystals.crystal", None, "crystal_isomorphic", "crystal.crystal_isomorphic"),
    ("mvcrystals.trails", None, "string_cone_inequalities",
     "trails.string_cone_inequalities"),
    ("mvcrystals.trails", None, "in_string_cone", "trails.in_string_cone"),
    ("mvcrystals.looplab.series", "LaurentMatrix", "__mul__", "looplab.series.matrix_mul"),
    ("mvcrystals.looplab.series", "LaurentMatrix", "inverse", "looplab.series.matrix_inverse"),
    ("mvcrystals.looplab.series", "LaurentMatrix", "minor_det", "looplab.series.minor_det"),
    ("mvcrystals.looplab.series", "LaurentSeries", "inverse", "looplab.series.series_inverse"),
] + [
    ("mvcrystals.looplab.groups", "LoopGroup", m, f"looplab.groups.{m}")
    for m in ("y_product", "mu_plus", "mu_minus", "orbit_coweight",
              "gauss_decompose", "factor_y", "factor_z", "z_of")
] + [
    ("mvcrystals.looplab.sampling", None, f, f"looplab.sampling.{f}")
    for f in ("sample_ytilde", "sample_cell", "crystal_op_sample", "trop_eval")
] + [
    ("mvcrystals.looplab.series", None, "set_default_rel_prec", "looplab.set_default_rel_prec"),
    ("mvcrystals.verify", None, "run_criterion", "verify.run_criterion"),
]

# Spans every workload must reach, so a wrapper that is never called
# (a binding patched in the wrong place) fails the run instead of reading 0.
_COMBINATORIAL = ["rootdata.build_root_datum", "rootdata.weyl_elements",
                  "affine.build_gallery_type",
                  "affine.face_vertices", "affine.phi_plus_aff",
                  "gallery.enumerate_ls", "gallery.root_e", "gallery.root_f",
                  "gallery.is_ls", "gallery.dimension"]
_MATRIX = ["looplab.series.matrix_mul", "looplab.series.matrix_inverse",
           "looplab.series.minor_det", "looplab.series.series_inverse",
           "looplab.groups.y_product"]
_TROPICAL = _MATRIX + ["looplab.groups.gauss_decompose", "looplab.groups.factor_y",
                       "looplab.groups.factor_z", "looplab.groups.z_of",
                       "looplab.sampling.trop_eval", "looplab.set_default_rel_prec"]
MUST_REACH = {
    "verify": [t[3] for t in TARGETS
               if t[3] not in ("rootdata.enumerate_reduced_words", "verify.run_criterion")]
    + [f"verify.crit_{k}" for k in range(1, 13)],
    "crystals": _COMBINATORIAL + ["rootdata.dominant_conjugate", "crystal.validate_axioms",
                                  "crystal.freudenthal", "crystal.string_parameters",
                                  "trails.string_cone_inequalities"],
    "loopgroup": _MATRIX + ["looplab.groups.mu_plus", "looplab.groups.mu_minus",
                            "looplab.groups.orbit_coweight", "looplab.groups.factor_y"],
    "tropical": _TROPICAL,
    "cli": _COMBINATORIAL + ["crystal.string_parameters",
                             "trails.string_cone_inequalities",
                             "looplab.sampling.sample_ytilde",
                             "looplab.sampling.trop_eval"],
}
# Layers a workload must never enter: its prediction for them is "no change".
MUST_NOT_REACH = {
    "crystals": "looplab.",
    "loopgroup": "gallery.",
    "tropical": "gallery.",
}


class Tracer:
    def __init__(self):
        self.names = []
        self._index = {}
        self.spans = []  # [name index, start, end, parent span or -1]
        self._stack = []
        self.counts = Counter()
        self._prec_log = None  # set_default_rel_prec values inside trop_eval

    def _name(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name, fn, on_result=None):
        idx = self._name(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [idx, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(sid)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        return traced

    # -- hooks that read results into counters ------------------------------------

    def _hooks(self):
        c = self.counts

        def root_f(args, kwargs, out):
            if out is not None:
                c["gallery.root_f.defined"] += 1

        def enumerate_ls(args, kwargs, graph):
            c["gallery.ls_nodes"] += len(graph.nodes)
            c["gallery.new_nodes"] += len(graph.nodes) - 1

        def cone(args, kwargs, out):
            c["trails.itrails"] += len(out[1])

        def set_prec(args, kwargs, out):
            if self._prec_log is not None:
                self._prec_log.append(args[0] if args else kwargs["n"])

        return {"gallery.root_f": root_f, "gallery.enumerate_ls": enumerate_ls,
                "trails.string_cone_inequalities": cone,
                "looplab.set_default_rel_prec": set_prec}

    def _trop_eval(self, fn):
        """trop_eval keeps its retries to itself: count evaluator calls by
        wrapping the evaluator, and read attempts off the precision it sets at
        the start of each attempt (plus one restore in its ``finally``)."""
        c = self.counts

        @functools.wraps(fn)
        def traced(func, m, trials=3, *args, **kwargs):
            def counted(ps):
                c["looplab.sampling.trop_eval.evals"] += 1
                return func(ps)

            outer, self._prec_log = self._prec_log, []
            try:
                out = fn(counted, m, trials, *args, **kwargs)
                c["looplab.trop.useful_evals"] += trials
                return out
            finally:
                log, self._prec_log = self._prec_log, outer
                attempts = log[:-1]
                ups = sum(1 for a, b in zip(attempts, attempts[1:]) if b > a)
                c["looplab.prec_escalations"] += ups
                c["looplab.genericity_retries"] += max(len(attempts) - 1 - ups, 0)

        return self.wrap("looplab.sampling.trop_eval", traced)

    def _run_criterion(self, fn):
        wrapped = {}

        @functools.wraps(fn)
        def traced(cid):
            if cid not in wrapped:
                wrapped[cid] = self.wrap(f"verify.crit_{cid}", fn)
            return wrapped[cid](cid)

        return traced

    # -- patching -------------------------------------------------------------------

    def install(self):
        """Patch every target, functions under every module binding."""
        for mod in ("mvcrystals", "mvcrystals.cli", "mvcrystals.verify"):
            importlib.import_module(mod)
        loaded = [m for name, m in sorted(sys.modules.items())
                  if name == "mvcrystals" or name.startswith("mvcrystals.")]
        hooks = self._hooks()
        for modname, clsname, attr, name in TARGETS:
            owner = sys.modules[modname]
            if clsname is not None:
                cls = getattr(owner, clsname)
                setattr(cls, attr, self.wrap(name, cls.__dict__[attr], hooks.get(name)))
                continue
            orig = getattr(owner, attr)
            if name == "looplab.sampling.trop_eval":
                new = self._trop_eval(orig)
            elif name == "verify.run_criterion":
                new = self._run_criterion(orig)
            else:
                new = self.wrap(name, orig, hooks.get(name))
            for mod in loaded:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, new)

    # -- results --------------------------------------------------------------------

    def layer_stats(self):
        """Per span name: calls, self seconds (span minus its child spans)
        and total seconds."""
        child = [0.0] * len(self.spans)
        for idx, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = Counter()
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for sid, (idx, t0, t1, parent) in enumerate(self.spans):
            name = self.names[idx]
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[sid]
            total_s[name] += t1 - t0
        return {"calls": dict(calls), "self_s": dict(self_s),
                "total_s": dict(total_s), "counts": dict(self.counts)}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": dict(self.counts)}, fh, separators=(",", ":"))


def merge_stats(stats_list):
    """Sum per-layer stats from several traced processes (the cli workload)."""
    out = {"calls": Counter(), "self_s": Counter(), "total_s": Counter(), "counts": Counter()}
    for st in stats_list:
        for key in out:
            out[key].update(st[key])
    return {key: dict(val) for key, val in out.items()}


def per_layer_metrics(stats, extra):
    """The per-layer metrics of BENCHMARK.json from merged span stats.
    ``extra`` supplies the ones that are not spans (cli timings, overhead)."""
    calls = Counter(stats["calls"])
    self_s = Counter(stats["self_s"])
    total_s = Counter(stats["total_s"])
    counts = Counter(stats["counts"])
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def layer(prefix):
        return [n for n in set(calls) | set(self_s) if n.startswith(prefix)]

    def ratio(num, den):
        return num / den if den else 0.0

    put("rootdata.calls", sum(calls[n] for n in layer("rootdata.")), "count")
    put("rootdata.self_s", sum(self_s[n] for n in layer("rootdata.")), "s")
    put("affine.build_gallery_type.self_s", self_s["affine.build_gallery_type"], "s")
    put("affine.face_vertices.calls", calls["affine.face_vertices"], "count")
    put("affine.phi_plus_aff.calls", calls["affine.phi_plus_aff"], "count")
    put("affine.self_s", sum(self_s[n] for n in layer("affine.")), "s")
    put("gallery.enumerate_ls.self_s", self_s["gallery.enumerate_ls"], "s")
    put("gallery.root_op.calls", calls["gallery.root_e"] + calls["gallery.root_f"], "count")
    put("gallery.root_op.self_s", self_s["gallery.root_e"] + self_s["gallery.root_f"], "s")
    put("gallery.is_ls.calls", calls["gallery.is_ls"], "count")
    put("gallery.is_ls.self_s", self_s["gallery.is_ls"], "s")
    put("gallery.dimension.calls", calls["gallery.dimension"], "count")
    put("gallery.ls_nodes", counts["gallery.ls_nodes"], "count")
    put("gallery.useful_ratio",
        ratio(counts["gallery.new_nodes"], counts["gallery.root_f.defined"]), "ratio")
    put("crystal.validate_axioms.self_s", self_s["crystal.validate_axioms"], "s")
    put("crystal.freudenthal.self_s", self_s["crystal.freudenthal"], "s")
    put("crystal.string_parameters.calls", calls["crystal.string_parameters"], "count")
    put("crystal.string_parameters.self_s", self_s["crystal.string_parameters"], "s")
    put("crystal.crystal_isomorphic.self_s", self_s["crystal.crystal_isomorphic"], "s")
    put("trails.string_cone_inequalities.self_s",
        self_s["trails.string_cone_inequalities"], "s")
    put("trails.itrails", counts["trails.itrails"], "count")
    put("trails.in_string_cone.calls", calls["trails.in_string_cone"], "count")
    for op in ("matrix_mul", "matrix_inverse", "minor_det", "series_inverse"):
        put(f"looplab.series.{op}.calls", calls[f"looplab.series.{op}"], "count")
        put(f"looplab.series.{op}.self_s", self_s[f"looplab.series.{op}"], "s")
    for op in ("y_product", "mu_plus", "mu_minus", "orbit_coweight",
               "gauss_decompose", "factor_y", "factor_z", "z_of"):
        put(f"looplab.groups.{op}.calls", calls[f"looplab.groups.{op}"], "count")
        put(f"looplab.groups.{op}.self_s", self_s[f"looplab.groups.{op}"], "s")
    put("looplab.sampling.trop_eval.calls", calls["looplab.sampling.trop_eval"], "count")
    put("looplab.sampling.trop_eval.evals", counts["looplab.sampling.trop_eval.evals"], "count")
    put("looplab.trop.useful_ratio",
        ratio(counts["looplab.trop.useful_evals"], counts["looplab.sampling.trop_eval.evals"]),
        "ratio")
    put("looplab.prec_escalations", counts["looplab.prec_escalations"], "count")
    put("looplab.genericity_retries", counts["looplab.genericity_retries"], "count")
    for op in ("sample_ytilde", "sample_cell", "crystal_op_sample"):
        put(f"looplab.sampling.{op}.self_s", self_s[f"looplab.sampling.{op}"], "s")
    for name in ("cli.spawn_s", "cli.import_s", "cli.main_s"):
        put(name, extra.get(name, 0.0), "s")
    for k in range(1, 13):
        put(f"verify.crit_{k}_s", total_s[f"verify.crit_{k}"], "s")
    put("trace.overhead_s", extra.get("trace.overhead_s", 0.0), "s")
    return m


def check_reach(workload, calls):
    calls = Counter(calls)
    missing = [n for n in MUST_REACH.get(workload, []) if not calls[n]]
    if missing:
        raise RuntimeError(f"{workload}: traced names never reached: {missing}")
    prefix = MUST_NOT_REACH.get(workload)
    if prefix:
        hit = sorted(n for n in calls if n.startswith(prefix) and calls[n])
        if hit:
            raise RuntimeError(f"{workload}: entered a layer it must bypass: {hit}")
