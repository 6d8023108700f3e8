"""Times calls into the quiddity modules from outside the package.

``Tracer.install`` wraps every public function of the library modules (and
``cli.main``) at run time and rebinds the wrapper in every quiddity module
namespace that imported the function, so calls between modules and
recursive calls go through it too.  Per-multiply helpers such as
``mat_mul`` stay unwrapped: a wrapper would cost more than their work.

Each wrapped function keeps a count-and-time aggregate: calls, busy time
(outermost calls only, so recursion is not counted twice) and self time
(its time minus the time of the wrapped calls it made).  Coarse calls also
record a span ``[id, parent id, name, start, end]``.  Everything stays in
memory until ``report``.
"""

from __future__ import annotations

import functools
import inspect
import time

MODULES = ("modmat", "solutions", "enumeration", "monomial", "dissections")
SKIP = {"check_modulus", "residue", "generator", "mat_mul", "mat_det", "pm_identity_sign"}
SPANS = {"cli.main", "enumeration.classify", "enumeration.verify_expected",
         "enumeration.evidence_scan", "monomial.monomial_theorem_report",
         "dissections.build_dissection", "dissections.triangulate",
         "dissections.eliminate_quads"}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}    # name -> [calls, busy_s, self_s]
        self.counters: dict[str, int] = {}  # outcome counts named like metrics
        self.spans: list[list] = []
        self._child = [0.0]   # time of wrapped callees, one slot per open call
        self._open = [None]   # span ids of the open coarse calls
        self._observers = {
            "enumeration.enumerate_solutions": self._count_enumeration,
            "enumeration.classify": self._count_classes,
            "solutions.is_irreducible": self._count_true,
            "solutions.find_decomposition": self._count_found,
        }

    def _add(self, name: str, amount: int):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _count_enumeration(self, fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        n_mod, size = bound.arguments["n_mod"], bound.arguments["size"]
        alphabet = bound.arguments.get("alphabet")
        letters = n_mod if alphabet is None else len({a % n_mod for a in alphabet})
        self._add("enumeration.prefixes", letters ** (size - 2))
        self._add("enumeration.tuples", len(result))

    def _count_classes(self, fn, args, kwargs, result):
        self._add("enumeration.classes", sum(
            s.total_classes if s.total_classes is not None else len(s.irreducible)
            for s in result.sizes))

    def _count_true(self, fn, args, kwargs, result):
        self._add("solutions.is_irreducible.true", result is True)

    def _count_found(self, fn, args, kwargs, result):
        self._add("solutions.find_decomposition.found", result is not None)

    def _wrap(self, name: str, fn):
        stats = self.stats[name] = [0, 0.0, 0.0]
        depth = [0]
        child, open_spans, spans = self._child, self._open, self.spans
        observe = self._observers.get(name)
        is_span = name in SPANS
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            depth[0] += 1
            if is_span:
                span = [len(spans), open_spans[-1], name, 0.0, 0.0]
                spans.append(span)
                open_spans.append(span[0])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] -= 1
                inner = child.pop()
                child[-1] += dt
                stats[0] += 1
                stats[2] += dt - inner
                if not depth[0]:
                    stats[1] += dt
                if is_span:
                    open_spans.pop()
                    span[3], span[4] = t0, t0 + dt
            if observe is not None:
                observe(fn, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        import quiddity.cli
        modules = [getattr(quiddity, short) for short in MODULES]
        wrappers = {}
        for short, mod in zip(MODULES, modules):
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                        and attr not in SKIP:
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        wrappers[quiddity.cli.main] = self._wrap("cli.main", quiddity.cli.main)
        for mod in modules + [quiddity.cli, quiddity]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

    def report(self) -> dict:
        return {"stats": self.stats, "counters": self.counters, "spans": self.spans}
