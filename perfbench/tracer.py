"""Span tracer that instruments weylmod from outside the package.

``Tracer.install`` replaces each function named in ``SPANS`` by a timing
wrapper on its defining module and on every other loaded ``weylmod`` module
that rebound it with ``from .x import y``; methods are wrapped on their
class.  ``Tracer.uninstall`` puts the originals back.

Spans are not stored one by one.  They are folded into an in-memory call
tree keyed by the caller chain, so a node holds the number of calls, the
inclusive time and the time covered by its direct children; self time is
the difference.  A generator is timed only inside ``__next__``, under
whichever span is consuming it at that moment.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


class Node:
    __slots__ = ("name", "children", "calls", "total", "child_time")

    def __init__(self, name):
        self.name = name
        self.children = {}
        self.calls = 0
        self.total = 0.0
        self.child_time = 0.0

    def child(self, name):
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def to_json(self):
        return {
            "name": self.name,
            "calls": self.calls,
            "s": self.total,
            "self_s": self.total - self.child_time,
            "children": [c.to_json() for c in self.children.values()],
        }


# -- counters fed by the wrappers ---------------------------------------------

def _count_len(key):
    def hook(tracer, args, kwargs, result):
        tracer.add(key, len(result))
    return hook


def _sym_ad_max_n(tracer, args, kwargs):
    n = kwargs["n_max"] if "n_max" in kwargs else args[1]
    tracer.maximum("graded_sym.sym_ad_graded.max_n", n)
    return args, kwargs


def _nullspace_shape(tracer, args, kwargs):
    rows = kwargs.pop("rows") if "rows" in kwargs else args[0]
    ncols = kwargs.pop("ncols") if "ncols" in kwargs else args[1]
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)  # do not consume an iterator the callee needs
    tracer.add("linalg.nullspace.rows", len(rows))
    tracer.add("linalg.nullspace.cols", ncols)
    tracer.add("linalg.nullspace.nnz", sum(1 for r in rows for x in r if x))
    return (rows, ncols), kwargs


def _basis_dim(tracer, args, kwargs, result):
    tracer.add("explicit_module.basis_dim", result.dim)


# (module, attribute path, span name, before hook, after hook).  A before
# hook may replace the arguments; its time is charged to no span.
SPANS = (
    ("root_system", "enumerate_root_lattice_ball",
     "root_system.enumerate_root_lattice_ball", None,
     "root_system.enumerate_root_lattice_ball.points"),
    ("affine_numerics", "kostant_bound_C", "affine_numerics.kostant_bound_C", None, None),
    ("affine_numerics", "exhaustive_level_bound",
     "affine_numerics.exhaustive_level_bound", None, None),
    ("affine_numerics", "candidate_pairs", "affine_numerics.candidate_pairs", None,
     _count_len("affine_numerics.candidate_pairs.pairs")),
    ("affine_numerics", "in_X_lambda", "affine_numerics.in_X_lambda", None, None),
    ("affine_numerics", "irreducibility_certificate",
     "affine_numerics.irreducibility_certificate", None, None),
    ("affine_numerics", "delta_upper_bound", "affine_numerics.delta_upper_bound",
     None, None),
    ("graded_sym", "sym_ad_graded", "graded_sym.sym_ad_graded", _sym_ad_max_n, None),
    ("graded_sym", "weyl_level_decomposition", "graded_sym.weyl_level_decomposition",
     None, None),
    ("finite_rep", "irrep_character", "finite_rep.irrep_character", None, None),
    ("finite_rep", "tensor_decompose", "finite_rep.tensor_decompose", None, None),
    ("finite_rep", "decompose_character", "finite_rep.decompose_character", None, None),
    ("finite_rep", "weyl_dimension", "finite_rep.weyl_dimension", None, None),
    ("finite_rep", "Character.dimension", "finite_rep.Character.dimension", None, None),
    ("chevalley", "chevalley_basis", "chevalley.chevalley_basis", None, None),
    ("chevalley", "rep_from_hw", "chevalley.rep_from_hw", None, None),
    ("explicit_module", "build_truncated", "explicit_module.build_truncated",
     None, _basis_dim),
    ("explicit_module", "act", "explicit_module.act", None, None),
    ("explicit_module", "sugawara_l0", "explicit_module.sugawara_l0", None, None),
    ("explicit_module", "virasoro_commutation_check",
     "explicit_module.virasoro_commutation_check", None, None),
    ("explicit_module", "singular_vectors", "explicit_module.singular_vectors",
     None, None),
    ("explicit_module", "annihilator_level", "explicit_module.annihilator_level",
     None, None),
    ("explicit_module", "check_kl_exact_sequence",
     "explicit_module.check_kl_exact_sequence", None, None),
    ("explicit_module", "module_json_dict", "explicit_module.module_json_dict",
     None, None),
    ("linalg", "nullspace", "linalg.nullspace", _nullspace_shape, None),
    ("linalg", "rank", "linalg.rank", None, None),
    ("linalg", "SpanBuilder.add", "linalg.SpanBuilder.add", None, None),
    ("cli", "_emit", "cli.emit", None, None),
    ("cli", "main", "cli", None, None),
)

# lru_cache'd functions whose cache misses are reported
CACHES = (
    ("graded_sym", "sym_ad_graded", "graded_sym.sym_ad_graded.misses"),
    ("finite_rep", "irrep_character", "finite_rep.irrep_character.misses"),
)


class _TracedGenerator:
    """Iterator proxy that times each ``__next__`` as a span."""

    __slots__ = ("_tracer", "_name", "_gen", "_points")

    def __init__(self, tracer, name, gen, points):
        self._tracer = tracer
        self._name = name
        self._gen = gen
        self._points = points

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        parent = tracer.stack[-1]
        node = parent.child(self._name)
        tracer.stack.append(node)
        t0 = tracer.clock()
        try:
            item = next(self._gen)
        finally:
            dt = tracer.clock() - t0
            tracer.stack.pop()
            node.total += dt
            parent.child_time += dt
        if self._points is not None:
            tracer.add(self._points, 1)
        return item


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.root = Node("")
        self.stack = [self.root]
        self.counters = {}
        self._patches = []

    # -- counters -------------------------------------------------------------

    def add(self, key, k):
        self.counters[key] = self.counters.get(key, 0) + k

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """Return a wrapper of fn that records a span called name.

        after is either a hook called with the result or, for functions
        returning a sized collection or a generator, the counter key that
        receives the number of items.
        """
        tracer = self
        stack = self.stack
        clock = self.clock
        points = after if isinstance(after, str) else None
        if points is not None:
            after = _count_len(points)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if before is not None:
                h0 = clock()
                args, kwargs = before(tracer, args, kwargs)
                parent.child_time += clock() - h0
            node = parent.child(name)
            stack.append(node)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                node.calls += 1
                node.total += dt
                parent.child_time += dt
            if inspect.isgenerator(result):
                return _TracedGenerator(tracer, name, result, points)
            if after is not None:
                h0 = clock()
                after(tracer, args, kwargs, result)
                parent.child_time += clock() - h0
            return result

        return traced

    def patch(self, modules, module_name, path, span, before=None, after=None):
        """Wrap module_name.path wherever the loaded modules bind it."""
        owner = modules[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if outer:  # a method: wrap it on its class only
            original = owner.__dict__[attr]
            self._set(owner, attr, self.wrap(span, original, before, after))
            return
        original = getattr(owner, attr)
        wrapper = self.wrap(span, original, before, after)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {
            name.rpartition(".")[2] if name != "weylmod" else "": mod
            for name, mod in list(sys.modules.items())
            if name == "weylmod" or name.startswith("weylmod.")
        }
        self._caches = [
            (getattr(modules[m], attr), key) for m, attr, key in CACHES
        ]
        self._misses0 = [fn.cache_info().misses for fn, _ in self._caches]
        for module_name, path, span, before, after in SPANS:
            self.patch(modules, module_name, path, span, before, after)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def cache_misses(self):
        return {
            key: fn.cache_info().misses - m0
            for (fn, key), m0 in zip(self._caches, self._misses0)
        }

    def summary(self):
        """Per span name: calls, inclusive s (outermost activations) and self_s."""
        stats = {}

        def walk(node, active):
            for child in node.children.values():
                st = stats.setdefault(child.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                st["calls"] += child.calls
                st["self_s"] += child.total - child.child_time
                if child.name not in active:
                    st["s"] += child.total
                walk(child, active | {child.name})

        walk(self.root, frozenset())
        return stats
