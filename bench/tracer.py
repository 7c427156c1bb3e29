"""Outside-in call tracer for the ``ofa`` package.

The tracer replaces, from outside the program, every public function and
method of each module in ``src/ofa`` with a wrapper that counts calls,
``None`` results, self time and inclusive time.  A layer is one module.
It also wraps:

* subclass overrides, because each class's own ``__dict__`` is walked
  (``ZMod.mul``, ``PolyQuotient.mul`` and ``Product.mul`` shadow
  ``RingSpec.mul``);
* ``__init__`` of classes that are not value types (a value type defines
  ``__eq__``; element types are built inline by their algebra and their
  construction counts to the caller), so solver and table builds show;
* the private functions named in ``PRIVATE``, which a metric needs.

Names imported by value (``from .odd_form_param import member``) are
rebound to the wrappers in every module.  Counts and self time are
aggregated per function; an individual span is kept only for a layer's
top-level call (no other call of that layer open) lasting at least
``SPAN_MIN_S``.  Generator functions are counted per call; the time spent
iterating them goes to the consumer.
"""

import functools
import importlib
import inspect
import pkgutil
import time

SPAN_MIN_S = 1e-3
PRIVATE = {"odd_form_param._fold_residue"}

# Per-function amounts taken from arguments or results: key -> fn(args, out).
EXTRA = {
    "odd_form_param.axioms_check":
        lambda args, out: sum(row["tuples"] for row in out["axioms"]),
    "odd_form_param.special_check": lambda args, out: out["checked"],
    "unitary.enumerate_unitary": lambda args, out: len(out),
    "batch_delta.BatchOps.dmul": lambda args, out: args[1].shape[0],
}


class FnStat:
    __slots__ = ("calls", "nones", "self_s", "incl_s", "active", "extra")

    def __init__(self):
        self.calls = 0
        self.nones = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.active = 0
        self.extra = 0


class Tracer:
    """Wrappers, per-function statistics and spans for one process."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.job = None
        self._child = [0.0]
        self._open = [None]
        self._depth = {}

    def install(self, package):
        modules = {}
        for info in pkgutil.iter_modules(package.__path__):
            modules[info.name] = importlib.import_module(
                "%s.%s" % (package.__name__, info.name))
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and self._wanted(layer, name):
                    if obj not in wrapped:
                        wrapped[obj] = self._wrap(obj, layer, name)
                    setattr(mod, name, wrapped[obj])
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

    @staticmethod
    def _wanted(layer, name):
        return not name.startswith("_") or "%s.%s" % (layer, name) in PRIVATE

    def _wrap_class(self, cls, layer):
        own = vars(cls)
        for name, attr in list(own.items()):
            if name == "__init__":
                if "__eq__" in own:
                    continue
            elif name.startswith("_"):
                continue
            if inspect.isfunction(attr):
                qual = "%s.%s" % (cls.__name__, name)
                setattr(cls, name, self._wrap(attr, layer, qual))

    def _wrap(self, fn, layer, qual):
        key = "%s.%s" % (layer, qual)
        st = self.stats[key] = FnStat()
        depth = self._depth.setdefault(layer, [0])
        extra = EXTRA.get(key)
        child = self._child
        opened = self._open
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            opened.append(layer)
            st.active += 1
            depth[0] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] -= 1
                st.active -= 1
                opened.pop()
                inner = child.pop()
                child[-1] += dt
                st.calls += 1
                st.self_s += dt - inner
                if not st.active:
                    st.incl_s += dt
                if not depth[0] and dt >= SPAN_MIN_S:
                    spans.append((tracer.job, layer, qual, opened[-1], t0, dt))
            if out is None:
                st.nones += 1
            if extra is not None:
                st.extra += extra(args, out)
            return out

        return wrapper

    def counts(self):
        """Exact per-function counts; two runs on one seed must agree."""
        return {k: [s.calls, s.nones, s.extra] for k, s in self.stats.items()
                if s.calls}

    def layer_metrics(self):
        """Per-layer metrics by name, as listed in BENCHMARK.json."""
        st = self.stats

        def pick(layer, test):
            return [s for k, s in st.items()
                    if k.startswith(layer + ".") and test(k[len(layer) + 1:])]

        def method(layer, name):
            return pick(layer, lambda q: "." in q and q.rsplit(".", 1)[1] == name)

        def fn(layer, qual):
            return pick(layer, lambda q: q == qual)

        def calls(sel):
            return sum(s.calls for s in sel)

        def ratio(num, den):
            return num / den if den else 0.0

        def none_ratio(sel):
            return ratio(sum(s.nones for s in sel), calls(sel))

        def incl(sel):
            return sum(s.incl_s for s in sel)

        def extra(sel):
            return sum(s.extra for s in sel)

        m = {}
        for layer in sorted(self._depth):
            sel = pick(layer, lambda q: True)
            if layer != "cli":
                m[layer + ".calls"] = calls(sel)
            m[layer + ".self_s"] = sum(s.self_s for s in sel)

        inv = method("coeff_ring", "try_invert")
        m["coeff_ring.mul_calls"] = calls(method("coeff_ring", "mul"))
        m["coeff_ring.add_calls"] = calls(method("coeff_ring", "add"))
        m["coeff_ring.try_invert_calls"] = calls(inv)
        m["coeff_ring.try_invert_none_ratio"] = none_ratio(inv)

        kinv = fn("linalg", "k_mat_inv")
        m["linalg.k_mat_inv_calls"] = calls(kinv)
        m["linalg.k_mat_inv_none_ratio"] = none_ratio(kinv)
        m["linalg.solver_builds"] = calls(method("linalg", "__init__"))

        m["form_ring.mul_calls"] = calls(method("form_ring", "mul"))
        m["form_ring.conj_calls"] = calls(method("form_ring", "conj"))

        mem = fn("odd_form_param", "member")
        ax = fn("odd_form_param", "axioms_check")
        sp = fn("odd_form_param", "special_check")
        m["odd_form_param.to_pair_calls"] = calls(fn("odd_form_param", "to_pair"))
        m["odd_form_param.member_calls"] = calls(mem)
        m["odd_form_param.member_none_ratio"] = none_ratio(mem)
        m["odd_form_param.fold_residue_calls"] = calls(
            fn("odd_form_param", "_fold_residue"))
        m["odd_form_param.axiom_tuples"] = extra(ax)
        m["odd_form_param.axiom_tuples_per_s"] = ratio(extra(ax), incl(ax))
        m["odd_form_param.special_elems_per_s"] = ratio(extra(sp), incl(sp))

        dmul = method("batch_delta", "dmul")
        m["batch_delta.dmul_calls"] = calls(dmul)
        m["batch_delta.dmul_rows"] = extra(dmul)
        m["batch_delta.evaluate_calls"] = calls(method("batch_delta", "evaluate"))

        enum = fn("unitary", "enumerate_unitary")
        utry = fn("unitary", "u_try")
        m["unitary.enumerate_calls"] = calls(enum)
        m["unitary.enumerate_s"] = incl(enum)
        m["unitary.u_try_calls"] = calls(utry)
        m["unitary.u_try_hit_ratio"] = 1.0 - none_ratio(utry) if calls(utry) else 0.0
        m["unitary.u_mul_calls"] = calls(fn("unitary", "u_mul"))
        m["unitary.u_inv_calls"] = calls(fn("unitary", "u_inv"))
        m["unitary.elements_per_s"] = ratio(extra(enum), incl(enum))

        m["quad_module.compare_s"] = incl(fn("quad_module", "naive_canon_check"))
        m["quad_module.hdet_s"] = incl(fn("quad_module", "hdet"))
        m["nilpotent2.descent_s"] = incl(fn("nilpotent2", "descent_roundtrip"))
        m["clifford.mul_calls"] = calls(method("clifford", "mul"))
        m["clifford.spin_s"] = incl(fn("clifford", "spin_group"))
        return m
