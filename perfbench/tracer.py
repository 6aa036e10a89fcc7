"""Layer spans recorded from outside the package.

The tracer wraps public functions of the layer modules in place: the
defining module's attribute and every package module that imported the
same function object under the same name (so a call from ``cli`` into
``serialization.load_frame`` is caught in ``cli``'s namespace). Each
wrapped call is a span: name, start, end, parent span, op id and sizes.
Spans stay in memory; ``write`` saves them as JSON lines at the end.

Functions marked ``leaf`` are called too often (grade and fuzzy-set
operations) to keep one record each: their calls and self time are only
accumulated, but they still count as children of the enclosing span, so
the enclosing layer's self time excludes them.

Counters are taken at the same boundaries. ``grades.compares`` counts
every rich comparison between two ``Fraction`` values made while a layer
span is open; it is a count only, because timing each comparison would cost
more than the comparison.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from collections import Counter
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

LAYERS = ("grades", "fuzzy_sets", "spaces", "frames", "systems", "functors",
          "logic.parser", "logic.semantics", "serialization", "cli")

CLI_VERBS = ("check", "functor", "eval", "consequence", "theorem2", "spatiality")

_COMPARISONS = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")


def _n(frame) -> int:
    return len(frame.carrier)


def ast_nodes(value: Any) -> int:
    """Nodes of a parsed formula: every syntax dataclass instance, terms
    included."""
    if isinstance(value, tuple):
        return sum(ast_nodes(v) for v in value)
    if not is_dataclass(value):
        return 0
    return 1 + sum(ast_nodes(getattr(value, f.name)) for f in fields(value))


class Tracer:
    """Install with ``install()``, run ops with ``op_id`` set, then
    ``uninstall()``. ``self_ns`` and ``calls`` are per span name, ``counts``
    per counter name."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, name, start, child ns]
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._fm_s_depth = 0

    # --- spans --------------------------------------------------------

    def _wrap(self, func: Callable, name: str, leaf: bool,
              sizes: Callable | None, after: Callable | None) -> Callable:
        stack, self_ns, calls, spans, ids = self.stack, self.self_ns, self.calls, self.spans, self._ids
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            size = sizes(*args, **kwargs) if sizes is not None else None
            parent = stack[-1][0] if stack else None
            entry = [next(ids), name, clock(), 0]
            stack.append(entry)
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - entry[2]
                self_ns[name] += elapsed - entry[3]
                calls[name] += 1
                if stack:
                    stack[-1][3] += elapsed
                if not leaf:
                    spans.append((entry[0], name, entry[2], end, parent, self.op_id, size))
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _bind(self, module, attr: str, wrapper_of: Callable, cross_module_only: bool = False) -> None:
        """Replace module.attr by wrapper_of(module.attr) wherever the package
        binds that function object. A missing attribute raises, so a renamed
        function fails the traced run instead of reading as zero."""
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for mod in list(sys.modules.values()):
            if not (getattr(mod, "__name__", "") or "").startswith("graded_topos"):
                continue
            if cross_module_only and mod is module:
                continue
            if getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapper)

    def wrap_function(self, module, attr: str, name: str, leaf: bool = False,
                      sizes: Callable | None = None, after: Callable | None = None,
                      cross_module_only: bool = False) -> None:
        self._bind(module, attr, lambda func: self._wrap(func, name, leaf, sizes, after),
                   cross_module_only)

    # --- installation --------------------------------------------------

    def install(self) -> None:
        import graded_topos.checks as checks
        import graded_topos.cli as cli
        import graded_topos.frames as frames
        import graded_topos.functors as functors
        import graded_topos.fuzzy_sets as fuzzy_sets
        import graded_topos.grades as grades
        import graded_topos.logic.parser as parser
        import graded_topos.logic.semantics as semantics
        import graded_topos.logic.syntax as syntax
        import graded_topos.serialization as serialization
        import graded_topos.spaces as spaces
        import graded_topos.systems as systems

        counts = self.counts
        wrap = self.wrap_function

        for attr in ("grade", "format_grade", "meet", "join", "godel_arrow", "inf", "sup"):
            wrap(grades, attr, f"grades.{attr}", leaf=True)
        for attr in ("union", "intersection", "graded_inclusion", "preimage", "image",
                     "empty_set", "full_set", "compose_point_maps"):
            wrap(fuzzy_sets, attr, f"fuzzy_sets.{attr}", leaf=True)

        def opens_after(result, *args, **kwargs):
            counts["spaces.opens"] += len(result)

        wrap(spaces, "generate_topology", "spaces.generate_topology",
             sizes=lambda universe, generators, *a, **k: {"points": len(universe),
                                                          "generators": len(generators)},
             after=opens_after)
        wrap(spaces, "check_space", "spaces.check_space")
        wrap(spaces, "check_continuous", "spaces.check_continuous")
        wrap(spaces, "canonical_opens", "spaces.canonical_opens", leaf=True)

        def joins_counted(frame_list):
            # count subset joins a checker evaluates through the frames' join_fn
            originals = []
            for frame in frame_list:
                fn = frame.join_fn
                if getattr(fn, "_perfbench", False):
                    continue

                def counted(subset, _fn=fn):
                    counts["frames.masks"] += 1
                    return _fn(subset)

                counted._perfbench = True
                object.__setattr__(frame, "join_fn", counted)
                originals.append((frame, fn))
            return originals

        def frame_check(func: Callable, frames_of: Callable) -> Callable:
            def run(*args, **kwargs):
                originals = joins_counted(frames_of(*args, **kwargs))
                try:
                    return func(*args, **kwargs)
                finally:
                    for frame, fn in originals:
                        object.__setattr__(frame, "join_fn", fn)
            return run

        def check_frame_sizes(frame, *a, **k):
            n = _n(frame)
            counts["frames.checked"] += 1
            if checks.subset_regime(n) != "exhaustive":
                counts["frames.sampled"] += 1
            return {"n": n}

        for attr, frames_of, sizes in (
            ("check_frame", lambda frame, *a, **k: [frame], check_frame_sizes),
            ("check_frame_hom", lambda h, *a, **k: [h.source, h.target],
             lambda h, *a, **k: {"n": _n(h.source), "m": _n(h.target)}),
        ):
            self._bind(frames, attr, lambda func, frames_of=frames_of, sizes=sizes, attr=attr:
                       self._wrap(frame_check(func, frames_of), f"frames.{attr}", False, sizes, None))

        wrap(frames, "frame_from_space", "frames.frame_from_space",
             sizes=lambda space, *a, **k: {"n": len(space.opens), "points": len(space.universe)})
        for attr in ("chain_frame", "compose_frame_hom", "finite_meet"):
            wrap(frames, attr, f"frames.{attr}")

        for attr in ("check_system", "check_system_morphism", "check_spatial",
                     "compose_system_morphisms", "system_iso_check"):
            wrap(systems, attr, f"systems.{attr}")

        def enumerate_sizes(frame, values, *a, **k):
            n = _n(frame)
            candidates = len(values) ** (n - 2) if n >= 2 else 0
            counts["functors.hom_candidates"] += candidates
            if self._fm_s_depth:
                counts["functors.enumerations_in_fm_s_triangles"] += 1
            return {"n": n, "L": len(values), "candidates": candidates}

        def enumerate_after(result, *args, **kwargs):
            counts["functors.homs_found"] += len(result)

        wrap(functors, "enumerate_point_homs", "functors.enumerate_point_homs",
             sizes=enumerate_sizes, after=enumerate_after)
        def triangles(func: Callable) -> Callable:
            def run(adjunction, *args, **kwargs):
                fm_s = adjunction == "fm-s"
                self._fm_s_depth += fm_s
                try:
                    return func(adjunction, *args, **kwargs)
                finally:
                    self._fm_s_depth -= fm_s
            return run

        def triangle_sizes(adjunction, *a, **k):
            counts["functors.fm_s_triangle_checks"] += adjunction == "fm-s"
            return {"adjunction": adjunction}

        self._bind(functors, "check_triangle_identities",
                   lambda func: self._wrap(triangles(func), "functors.check_triangle_identities",
                                           False, triangle_sizes, None))
        for attr in ("s_object", "s_morphism", "j_object", "j_morphism", "ext_object",
                     "counit", "unit_system", "check_naturality"):
            wrap(functors, attr, f"functors.{attr}")

        def parse_after(result, *args, **kwargs):
            counts["logic.parser.nodes"] += ast_nodes(result)

        wrap(parser, "parse_formula", "logic.parser.parse_formula", after=parse_after)

        def theorem2_sizes(interp, pool, *a, **k):
            variables = frozenset().union(*(syntax.free_variables(f) for f in pool))
            assignments = len(interp.domain) ** (len(variables) + 1)
            counts["logic.semantics.assignments"] += assignments
            return {"domain": len(interp.domain), "vars": len(variables), "pool": len(pool)}

        wrap(semantics, "theorem2_suite", "logic.semantics.theorem2_suite", sizes=theorem2_sizes)
        wrap(semantics, "sequent_grade", "logic.semantics.sequent_grade")
        # sat_grade recurses through its own module global; only the entry
        # from other modules (the CLI's eval) is a layer boundary
        wrap(semantics, "sat_grade", "logic.semantics.sat_grade", cross_module_only=True)

        def read_sizes(path, *a, **k):
            size = os.path.getsize(path)
            counts["serialization.bytes_read"] += size
            return {"bytes": size}

        def written(result, obj, path, *a, **k):
            counts["serialization.bytes_written"] += os.path.getsize(path)

        for attr in dir(serialization):
            if attr.startswith("load_"):
                wrap(serialization, attr, "serialization.load", sizes=read_sizes)
            elif attr.startswith("save_"):
                wrap(serialization, attr, "serialization.save", after=written)

        def verb_main(argv=None):
            return verb_wrappers.get(argv[0] if argv else "", plain)(argv)

        plain = self._wrap(cli.main, "cli.other", False, None, None)
        verb_wrappers = {verb: self._wrap(cli.main, f"cli.{verb}", False, None, None)
                         for verb in CLI_VERBS}
        self._patch(cli, "main", verb_main)

        stack = self.stack
        tally = itertools.count()
        self._tally = tally
        for attr in _COMPARISONS:
            compare = getattr(Fraction, attr)

            def counted(a, b, _compare=compare, _stack=stack, _tick=tally.__next__):
                if _stack:
                    _tick()
                return _compare(a, b)

            self._patch(Fraction, attr, counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
        # the comparison tally is read once the wrappers are gone
        self.counts["grades.compares"] += next(self._tally)

    # --- results -------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for span_id, name, start, end, parent, op, size in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent, "op": op,
                                      "sizes": size}) + "\n")
            out.write(json.dumps({"self_ns": dict(self.self_ns), "calls": dict(self.calls),
                                  "counts": dict(self.counts)}) + "\n")


def layer_of(name: str) -> str:
    """The layer a span name belongs to (the longest matching module path)."""
    for layer in sorted(LAYERS, key=len, reverse=True):
        if name.startswith(layer + "."):
            return layer
    raise ValueError(name)
