"""Per-layer tracing from outside the program.

The tracer replaces the functions named in :data:`LAYERS` with wrappers, in
every ``hptools`` module namespace that holds them, and restores them on
:meth:`Tracer.uninstall`.  A span is one call of a wrapped function, or one
resumption of a wrapped generator.  A layer's self time is its spans minus
the spans of wrapped functions they called.  Unwrapped helpers (``bits``,
``mask_of``, ``part_masks``, ``k_submasks``, ``_find_placed_copy``, ...) run
inside their caller's span, so their cost stays in the caller's self time.

A predicate handed to ``enumerate_labeled`` is timed as a span of the
function that handed it over (``count_hrv``): the membership test is that
layer's work, the scan that calls it is the graphs layer's.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# module -> functions wrapped at its boundary
LAYERS = {
    "cli": ("main",),
    "graphs": ("enumerate_labeled", "max_clique", "induced_subgraph",
               "graph6_decode", "graph6_encode"),
    "universal": ("shatters",),
    "hereditary": ("load_property", "colouring_number", "valid_hrv_patterns",
                   "enumerate_property", "count_hrv", "speed"),
    "freeness": ("find_uk_copy", "count_uk_free_bipartite"),
    "regularity": ("min_intra_edges_parts", "toy_bbs_parts",
                   "toy_szemeredi_partition", "is_epsilon_regular"),
    "structure": ("decompose", "max_bad_set", "alpha_adjust",
                  "extract_universal_packing", "verify_decomposition",
                  "verify_packing_report", "verify_packing_maximality"),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# deterministic counters; every one must repeat exactly across traced passes
COUNTERS = ("calls", "raised", "yielded", "scanned", "tests", "accepted",
            "found", "pieces", "patterns")


class Stat:
    __slots__ = ("self_s", "span_s") + COUNTERS

    def __init__(self):
        self.self_s = self.span_s = 0.0
        for name in COUNTERS:
            setattr(self, name, 0)

    def counters(self) -> dict:
        return {name: getattr(self, name) for name in COUNTERS}


class Tracer:
    def __init__(self):
        self.stats = {q: Stat() for q in FUNCTIONS}
        self._stack: list[list] = []  # frames: [child seconds, Stat]
        self._patched: list[tuple] = []

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.__init__()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every function of :data:`LAYERS` in the loaded ``hptools``."""
        modules = {m: sys.modules[f"hptools.{m}"] for m in LAYERS}
        wrappers = {}
        for q in FUNCTIONS:
            mod, fn = q.split(".")
            orig = getattr(modules[mod], fn)
            wrappers[id(orig)] = (orig, self._wrap(q, orig))
        for name, module in list(sys.modules.items()):
            if name != "hptools" and not name.startswith("hptools."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, q: str, fn):
        stack = self._stack
        stat = self.stats[q]
        before = getattr(self, "_before_" + q.replace(".", "_"), None)
        after = getattr(self, "_after_" + q.replace(".", "_"), None)

        if inspect.isgeneratorfunction(fn):
            signature = inspect.signature(fn)

            def wrapper(*a, **kw):
                if before is not None:
                    a, kw = before(stat, signature.bind(*a, **kw))
                stat.calls += 1
                return resumed(stat, fn(*a, **kw))

            def resumed(stat, gen):
                while True:
                    frame = [0.0, stat]
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        stack.pop()
                        stat.span_s += dt
                        stat.self_s += dt - frame[0]
                        if stack:
                            stack[-1][0] += dt
                    stat.yielded += 1
                    yield item
        else:
            def wrapper(*a, **kw):
                stat.calls += 1
                frame = [0.0, stat]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*a, **kw)
                except BaseException:
                    stat.raised += 1
                    raise
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    stat.span_s += dt
                    stat.self_s += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
                if after is not None:
                    after(stat, fn, a, kw, result)
                return result

        return functools.update_wrapper(wrapper, fn)

    # -- per-function counters ------------------------------------------------

    def _before_graphs_enumerate_labeled(self, stat, bound):
        """Count every graph scanned, and time the predicate as a span of the
        layer that supplied it."""
        stack = self._stack
        owner = stack[-1][1] if stack else stat
        predicate = bound.arguments.get("predicate")

        def scanned(G):
            stat.scanned += 1
            owner.tests += 1
            if predicate is None:
                return True
            frame = [0.0, owner]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return predicate(G)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                owner.self_s += dt - frame[0]
                stack[-1][0] += dt

        bound.arguments["predicate"] = scanned
        return bound.args, bound.kwargs

    @staticmethod
    def _after_hereditary_count_hrv(stat, fn, a, kw, result):
        stat.accepted += result

    @staticmethod
    def _after_freeness_find_uk_copy(stat, fn, a, kw, result):
        stat.found += result is not None

    @staticmethod
    def _after_universal_shatters(stat, fn, a, kw, result):
        stat.found += result is not None

    @staticmethod
    def _after_structure_extract_universal_packing(stat, fn, a, kw, result):
        stat.pieces += len(result.pieces)

    @staticmethod
    def _after_freeness_count_uk_free_bipartite(stat, fn, a, kw, result):
        # every labeled cross-edge pattern on A x B is covered by the count
        bound = inspect.signature(fn).bind(*a, **kw).arguments
        stat.patterns += 1 << (bound["m"] * bound["n"])

    # -- results ---------------------------------------------------------------

    def counters(self) -> dict:
        return {q: s.counters() for q, s in self.stats.items()}

    def value(self, metric: str) -> float:
        """A per-layer metric by name: ``<module>.self_s`` or
        ``<module>.<function>.<stat>``."""
        parts = metric.split(".")
        if len(parts) == 2:
            mod, stat = parts
            if stat != "self_s" or mod not in LAYERS:
                raise KeyError(metric)
            return sum(self.stats[f"{mod}.{fn}"].self_s for fn in LAYERS[mod])
        s = self.stats[".".join(parts[:2])]
        stat = parts[2]
        if stat == "failed":
            return s.raised
        if stat == "found_ratio":
            return s.found / s.calls if s.calls else 0.0
        if stat == "accept_ratio":
            return s.accepted / s.tests if s.tests else 0.0
        if stat == "patterns_per_s":
            return s.patterns / s.span_s if s.span_s else 0.0
        if stat in ("self_s",) + COUNTERS:
            return getattr(s, stat)
        raise KeyError(metric)
