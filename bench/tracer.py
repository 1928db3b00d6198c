"""Spans around calls into reflektor's public functions, recorded from the
benchmark's side so no file of the package changes.

Each span keeps, per name, its call count, its inclusive time and its self
time (its duration minus the time covered by the spans it caused).  Spans
are aggregated in memory and written out once, when the traced run ends.

A function imported by name into another module (`from .engine import
closure`) or aliased inside its class (`__rmul__ = __mul__`) is found by
identity and replaced everywhere it is looked up.
"""

import sys
import time

# (module, attribute path, span name); engine.closure is split below
SPANS = [
    ("upoly", "UPoly.__divmod__", "upoly.divmod"),
    ("upoly", "UPoly.__mul__", "upoly.mul"),
    ("identities", "check_identity", "identities.check_identity"),
    ("identities", "theta_v_check", "identities.theta_v_check"),
    ("identities", "factorization_check", "identities.factorization_check"),
    ("cyclo", "FieldCtx.__init__", "cyclo.field_ctx_init"),
    ("cyclo", "CycloElem.inverse", "cyclo.elem_inverse"),
    ("cyclo", "CycloElem.__mul__", "cyclo.elem_mul"),
    ("cyclo", "power_basis_coords", "cyclo.power_basis_coords"),
    ("cyclo", "classification_search", "cyclo.classification_search"),
    ("mpoly", "MPoly.__mul__", "mpoly.mul"),
    ("mpoly", "prem", "mpoly.prem"),
    ("sympoly", "verify_power_formulas", "sympoly.verify_power_formulas"),
    ("sympoly", "verify_reflection_formulas",
     "sympoly.verify_reflection_formulas"),
    ("sympoly", "verify_C_generic", "sympoly.verify_C_generic"),
    ("sympoly", "verify_C_conjugates", "sympoly.verify_C_conjugates"),
    ("sympoly", "verify_half_turns", "sympoly.verify_half_turns"),
    ("sympoly", "verify_half_turn_pairs", "sympoly.verify_half_turn_pairs"),
    ("sympoly", "verify_charpoly_catalog", "sympoly.verify_charpoly_catalog"),
    ("sympoly", "verify_charpoly_even_order",
     "sympoly.verify_charpoly_even_order"),
    ("matrices", "SquareMat.__mul__", "matrices.mul"),
    ("matrices", "SquareMat.char_poly", "matrices.char_poly"),
    ("reflrep", "preset", "reflrep.preset"),
    ("engine", "center_order", "engine.center_order"),
    ("engine", "element_order", "engine.element_order"),
    ("engine", "check_relation", "engine.check_relation"),
]
CLOSURE_PARTS = ("engine.closure.finite", "engine.closure.capped")
SPAN_NAMES = [name for _, _, name in SPANS] + list(CLOSURE_PARTS)

# the suite ids of `reflektor verify --all`, in run order
SUITE_IDS = ("s1_identities", "s1_roots", "s1_theta", "s1_classification",
             "s2_matrices", "s2_C", "s2_charpoly", "s3_theorem6", "s3_cor9",
             "s3_h3", "s3_h4", "s4_affine", "s4_gnn3", "s4_g24", "s4_g27")

# lru caches whose hit ratio is reported (module, function)
CACHES = [("upoly", "u_poly"), ("upoly", "v_poly"),
          ("upoly", "cyclotomic_poly")]


class Tracer:
    def __init__(self):
        self.stats = {}    # name -> [calls, inclusive_s, self_s]
        self.closure = {part: {"elements": 0, "computed_bytes": 0}
                        for part in CLOSURE_PARTS}
        self.overflow_errors = 0
        self._stack = []   # child time accumulated by each open span

    def _record(self, name, elapsed, child):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += elapsed
        st[2] += elapsed - child
        if self._stack:
            self._stack[-1][0] += elapsed

    def span(self, name, fn):
        """fn wrapped in a span; name may be a function of fn's result
        (None when fn raised), called when the span closes."""
        stack, clock, record = self._stack, time.perf_counter, self._record
        name_of = name if callable(name) else (lambda result: name)

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                record(name_of(result), elapsed, frame[0])
        return traced

    def closure_span(self, fn):
        """engine.closure, split by outcome: .finite when it returns an
        order, .capped when it stops at the cap or raises."""
        def part(result):
            if result is not None and not result.cap_exceeded:
                return CLOSURE_PARTS[0]
            return CLOSURE_PARTS[1]

        def counted(gens, *args, **kwargs):
            try:
                result = fn(gens, *args, **kwargs)
            except OverflowError:
                self.overflow_errors += 1
                raise
            # one int64 array of shape (n, n, d) per element found and
            # generator applied, computed from shapes
            g = gens[0]
            acc = self.closure[part(result)]
            acc["elements"] += result.order
            acc["computed_bytes"] += result.order * len(gens) * g.n * g.n \
                * g.rows[0][0].ctx.degree * 8
            return result
        return self.span(part, counted)

    def install(self):
        """Replace every reference to each traced function inside the
        reflektor package; raise if any target is missing."""
        import reflektor.cli  # noqa: F401  (loads every module)
        from reflektor import engine, suites
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "reflektor" or n.startswith("reflektor.")]
        targets = [(mod, path, self.span(name, _resolve(mod, path)))
                   for mod, path, name in SPANS]
        targets.append(("engine", "closure",
                        self.closure_span(engine.closure)))
        for mod, path, wrapper in targets:
            orig = _resolve(mod, path)
            hits = _replace_everywhere(mods, orig, wrapper)
            if not hits:
                raise RuntimeError("no reference to %s.%s found"
                                   % (mod, path))
        for sid in SUITE_IDS:
            suites.SUITES[sid] = self.span("suites." + sid,
                                           suites.SUITES[sid])

    def metrics(self):
        out = {}
        for name in SPAN_NAMES:
            calls, _, self_s = self.stats.get(name, (0, 0.0, 0.0))
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        for part in CLOSURE_PARTS:
            inclusive = self.stats.get(part, (0, 0.0, 0.0))[1]
            acc = self.closure[part]
            out[part + ".elements"] = acc["elements"]
            out[part + ".elements_per_s"] = \
                acc["elements"] / inclusive if inclusive else 0.0
            out[part + ".computed_bytes"] = acc["computed_bytes"]
        out["engine.overflow_errors"] = self.overflow_errors
        for sid in SUITE_IDS:
            out["suites.%s.s" % sid] = \
                self.stats.get("suites." + sid, (0, 0.0, 0.0))[1]
        return out


def _resolve(mod, path):
    obj = sys.modules["reflektor." + mod]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _replace_everywhere(mods, orig, wrapper):
    """Swap orig for wrapper in every module namespace and every class of
    the package that holds it; return how many references were swapped."""
    hits = 0
    for mod in mods:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)
                hits += 1
            elif isinstance(val, type) and val.__module__ == mod.__name__:
                for attr, member in list(vars(val).items()):
                    if member is orig:
                        setattr(val, attr, wrapper)
                        hits += 1
    return hits


def cache_ratios():
    """Hit ratio of each lru cache listed in CACHES."""
    out = {}
    for mod, fn in CACHES:
        info = getattr(sys.modules["reflektor." + mod], fn).cache_info()
        looked = info.hits + info.misses
        out["%s.%s.cache_hit_ratio" % (mod, fn)] = \
            info.hits / looked if looked else 0.0
    return out
