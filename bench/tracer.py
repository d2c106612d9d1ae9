"""Outside-in span tracer for the seqcm benchmark.

The tracer never edits the package: it replaces each traced function, in
every ``seqcm.*`` namespace that holds it, by a wrapper that records a span
(name, start, end, parent span, item id).  Replacing by identity catches
re-bindings such as ``from .linalg import rank`` in ``simplicial`` and
``oracles``.  Methods are replaced on their class.  Spans stay in memory and
are written as JSON lines at the end of a run.

Besides spans the wrappers keep exact counts computed from arguments and
return values only, so they repeat exactly between runs of the same inputs.
"""

import json
import sys
import time

# Traced functions, "<module>.<function>" or "<module>.<Class>.<method>".
TRACED = (
    "cli.main",
    "decide.theorem41_check",
    "decide.main_theorem_check",
    "decide.is_sequentially_cm",
    "decide.is_componentwise_linear",
    "decide.conclusive_table_comparison",
    "groebner.gin",
    "groebner.initial_ideal",
    "groebner.buchberger",
    "groebner.normal_form",
    "groebner.saturation",
    "groebner.GinCache.get",
    "groebner.GinCache.put",
    "rings.apply_coordinate_change",
    "rings.RationalMatrix.random_invertible",
    "rings.RationalMatrix.inverse",
    "rings.parse_polynomial",
    "linalg.rank",
    "linalg.det",
    "linalg.invert",
    "simplicial.hochster_betti",
    "simplicial.reduced_homology",
    "simplicial.local_cohomology_face_ring",
    "simplicial.shifted_complex",
    "simplicial.alexander_dual",
    "simplicial.stanley_reisner_ideal",
    "simplicial.complex_of",
    "oracles.cech_local_cohomology",
    "oracles.koszul_betti",
    "oracles.depth_and_dim",
    "monomial.local_cohomology_strongly_stable",
    "monomial.dimension_filtration",
    "monomial.hilbert_function",
    "monomial.is_strongly_stable",
)

GIN = "groebner.gin"
RANK = "linalg.rank"
CECH = "oracles.cech_local_cohomology"
HOCHSTER = "simplicial.hochster_betti"
CHECKS = ("decide.theorem41_check", "decide.main_theorem_check")


def _generators(ideal):
    gens = getattr(ideal, "generators", None)
    return gens if gens is not None else getattr(ideal, "gens", ())


class Tracer:
    """Spans and exact counts for one run; one thread, so one span stack."""

    def __init__(self):
        self.spans = []       # (id, name, parent id, item, start, end)
        self.stack = []       # [span id, name, start, child time]
        self.active = {}      # name -> number of open spans
        self.self_s = {}
        self.total_s = {}     # outermost spans only, so recursion counts once
        self.calls = {}
        self.counts = {}
        self.gin_keys = set()
        self.item = None
        self.absent = []

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap each traced function; names that no longer exist are absent."""
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if m is not None and (k == "seqcm" or k.startswith("seqcm."))]
        for name in TRACED:
            parts = name.split(".")
            owner = sys.modules.get("seqcm." + parts[0])
            for part in parts[1:-1]:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(parts[-1])
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
                setattr(owner, parts[-1], wrapped)
            elif callable(raw):
                wrapper = self._wrap(name, raw)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is raw:
                            setattr(ns, attr, wrapper)
                if isinstance(owner, type):
                    setattr(owner, parts[-1], wrapper)
            else:
                self.absent.append(name)
                continue
            self.calls[name] = 0

    def _wrap(self, name, func):
        tracer = self
        clock = time.perf_counter
        on_return = _HOOKS.get(name)

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            sid = len(tracer.spans)
            tracer.spans.append(None)
            active = tracer.active
            active[name] = active.get(name, 0) + 1
            frame = [sid, name, clock(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - frame[2]
                tracer.spans[sid] = (sid, name, parent, tracer.item,
                                     frame[2], end)
                if stack:
                    stack[-1][3] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + dur - frame[3]
                if not active[name]:
                    tracer.total_s[name] = tracer.total_s.get(name, 0.0) + dur
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    # -- counts -------------------------------------------------------------

    def add(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def inside(self, name):
        return self.active.get(name, 0) > 0

    # -- results --------------------------------------------------------------

    def layer_metrics(self, run_s):
        """Per-layer metrics of this run, keyed by the BENCHMARK.json names."""
        c = self.counts
        out = {}
        for name in TRACED:
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".self_s"] = self.self_s.get(name, 0.0)
            out[name + ".self_share"] = self.self_s.get(name, 0.0) / run_s
        out["groebner.gin.run_share"] = self.total_s.get(GIN, 0.0) / run_s
        out["linalg.rank.run_share"] = self.total_s.get(RANK, 0.0) / run_s
        misses = c.get("gin.misses", 0)
        gins = self.calls.get(GIN, 0)
        out["groebner.gin.repeat_share"] = _ratio(gins - misses, gins)
        out["groebner.gin.bases_per_miss"] = _ratio(
            c.get("gin.initial_ideal", 0), misses)
        out["groebner.buchberger.basis_len"] = c.get("buchberger.basis_len", 0)
        out["linalg.rank.entries"] = c.get("rank.entries", 0)
        out["oracles.cech_local_cohomology.patterns"] = c.get("cech.patterns", 0)
        out["simplicial.hochster_betti.homology_per_mask"] = _ratio(
            c.get("hochster.homology", 0), c.get("hochster.masks", 0))
        out["decide.cech_per_check"] = _ratio(
            c.get("check.cech", 0), c.get("check.calls", 0))
        out["groebner.GinCache.get.hit_share"] = _ratio(
            c.get("cache.hits", 0), self.calls.get("groebner.GinCache.get", 0))
        return out

    def exact_counts(self):
        """Every count the tracer keeps; equal inputs must give equal counts."""
        out = dict(self.counts)
        out.update(("calls:" + k, v) for k, v in self.calls.items())
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, parent, item, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "item": item, "start": start, "end": end},
                                    separators=(",", ":")) + "\n")


def _ratio(a, b):
    return a / b if b else 0.0


# Hooks run after the traced call returns; they read arguments and results
# only, never the package's internals.

def _on_gin(tracer, args, kwargs, result):
    ideal = args[0] if args else kwargs["ideal"]
    seed = args[1] if len(args) > 1 else kwargs["seed"]
    key = (ideal.n, tuple(sorted(str(g) for g in _generators(ideal))), int(seed))
    if key not in tracer.gin_keys:
        tracer.gin_keys.add(key)
        tracer.add("gin.misses")


def _on_initial_ideal(tracer, args, kwargs, result):
    if tracer.inside(GIN):
        tracer.add("gin.initial_ideal")


def _on_buchberger(tracer, args, kwargs, result):
    tracer.add("buchberger.basis_len", len(result))


def _on_rank(tracer, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    if matrix and matrix[0]:
        tracer.add("rank.entries", len(matrix) * len(matrix[0]))


def _on_cech(tracer, args, kwargs, result):
    ideal = args[0] if args else kwargs["ideal"]
    patterns = 1
    for k in range(ideal.n):
        patterns *= 1 + max((g.exponents[k] for g in ideal.gens), default=0)
    tracer.add("cech.patterns", patterns)
    if any(tracer.inside(name) for name in CHECKS):
        tracer.add("check.cech")


def _on_check(tracer, args, kwargs, result):
    if not any(tracer.inside(name) for name in CHECKS):
        tracer.add("check.calls")


def _on_hochster(tracer, args, kwargs, result):
    cx = args[0] if args else kwargs["cx"]
    tracer.add("hochster.masks", (1 << cx.n) - 1)


def _on_reduced_homology(tracer, args, kwargs, result):
    if tracer.inside(HOCHSTER):
        tracer.add("hochster.homology")


def _on_cache_get(tracer, args, kwargs, result):
    if result is not None:
        tracer.add("cache.hits")


_HOOKS = {
    GIN: _on_gin,
    "groebner.initial_ideal": _on_initial_ideal,
    "groebner.buchberger": _on_buchberger,
    RANK: _on_rank,
    CECH: _on_cech,
    "decide.theorem41_check": _on_check,
    "decide.main_theorem_check": _on_check,
    HOCHSTER: _on_hochster,
    "simplicial.reduced_homology": _on_reduced_homology,
    "groebner.GinCache.get": _on_cache_get,
}
