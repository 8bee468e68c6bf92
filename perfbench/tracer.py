"""Span tracer that wraps the package's public functions from outside.

``Tracer.install`` finds every binding of each listed function in the
namespaces of the ``affgebra`` modules and of the classes they define,
rebinds it to a timing wrapper, and ``Tracer.uninstall`` puts the
original objects back.  Because bindings are found by object identity,
a function imported under another name in another module (for example
``classes.contains`` as ``checks.class_contains``) is traced under its
one layer name.

Each call becomes a span ``(name, start, end, parent, case)``.  Spans
stay in memory until the caller writes them out; the per-name call
count and self time (span time minus the time covered by its direct
child spans) are kept as running totals.
"""
from __future__ import annotations

import functools
import sys
import time

# layer metric name -> (module, owner, attribute).  Owner None means a
# module-level function; "Field+" means the method on every subclass of
# scalars.Field that defines it.
LAYER_FUNCTIONS = {
    "scalars.parse": ("scalars", "Field+", "parse"),
    "scalars.format": ("scalars", "Field+", "format"),
    "scalars.sample": ("scalars", "Field+", "sample"),
    "matrix.matmul": ("matrix", "Matrix", "__matmul__"),
    "matrix.eq": ("matrix", "Matrix", "__eq__"),
    "matrix.widen": ("matrix", "Matrix", "widen"),
    "matrix.inverse": ("matrix", "Matrix", "inverse"),
    "matrix.commutator_shift": ("matrix", None, "commutator_shift"),
    "matrix.from_wire": ("matrix", None, "matrix_from_wire"),
    "matrix.to_wire": ("matrix", None, "matrix_to_wire"),
    "affine.heap": ("affine", None, "heap"),
    "affine.heap5": ("affine", None, "heap5"),
    "affine.action": ("affine", None, "action"),
    "affine.bracket": ("affine", None, "bracket"),
    "affine.lie_retract_bracket": ("affine", None, "lie_retract_bracket"),
    "classes.draw_element": ("classes", None, "draw_element"),
    "classes.contains": ("classes", None, "contains"),
    "classes.subspace": ("classes", None, "subspace"),
    "classes.base_point": ("classes", None, "base_point"),
    "solve.solve_affine_system": ("solve", None, "solve_affine_system"),
    "transforms.to_block": ("transforms", None, "to_block"),
    "transforms.from_block": ("transforms", None, "from_block"),
    "transforms.block_target": ("transforms", None, "block_target"),
    "transforms.BlockTarget.contains": ("transforms", "BlockTarget", "contains"),
    "transforms.BlockTarget.sample": ("transforms", "BlockTarget", "sample"),
    "transforms.evaluate_theorem_case": ("transforms", None, "evaluate_theorem_case"),
    "transforms.verify_theorem": ("transforms", None, "verify_theorem"),
    "checks.run_check": ("checks", None, "run_check"),
    "checks.run_corollary": ("checks", None, "run_corollary"),
    "checks.replay": ("checks", None, "replay"),
    "report.to_wire": ("report", "CheckReport", "to_wire"),
    "cli.main": ("cli", None, "main"),
    "cli.build_parser": ("cli", None, "build_parser"),
}

PACKAGE = "affgebra"

# calls whose returned report adds to ``checks.trials``; only the
# outermost one on the stack counts, so nested checks are not counted twice
TRIAL_SOURCES = ("checks.run_check", "checks.run_corollary", "checks.replay", "transforms.verify_theorem")


def resolve_targets() -> dict[str, list]:
    """Layer name -> the original function objects it covers."""
    targets = {}
    for name, (module, owner, attr) in LAYER_FUNCTIONS.items():
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if owner is None:
            objs = [vars(mod)[attr]]
        elif owner == "Field+":
            objs = [vars(cls)[attr] for cls in _subclasses(mod.Field) if attr in vars(cls)]
        else:
            objs = [vars(getattr(mod, owner))[attr]]
        targets[name] = objs
    return targets


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def namespaces():
    """Every module of the package and every class those modules define."""
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod_name:
                yield value


class Tracer:
    """Spans and per-name totals for one traced pass.

    Create one, ``install`` it, run the cases (setting ``case_id`` before
    each), then ``uninstall``; ``verify_restored`` proves the package is
    back to its original objects.
    """

    def __init__(self, names):
        self.names = list(names)
        self._index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.trials = 0
        self.case_id = None
        self.spans: list = []
        self._stack: list[int] = []  # span indices of the open calls
        self._child_s: list[float] = []  # time covered by each open call's children
        self._trial_ids = {self._index[n] for n in TRIAL_SOURCES if n in self._index}
        self._open_trial_sources = 0
        self._rebound: list[tuple] = []  # (namespace, attribute, original)

    def wrap(self, name: str, fn):
        """A traced stand-in for ``fn`` recorded under ``name``."""
        nid = self._index[name]
        counts_trials = nid in self._trial_ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(nid, counts_trials, fn, args, kwargs)

        traced.__perfbench_original__ = fn
        return traced

    def _call(self, nid, counts_trials, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        stack.append(idx)
        self._child_s.append(0.0)
        outermost_trials = counts_trials and self._open_trial_sources == 0
        if counts_trials:
            self._open_trial_sources += 1
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            child = self._child_s.pop()
            duration = end - start
            self.calls[nid] += 1
            self.self_s[nid] += duration - child
            if self._child_s:
                self._child_s[-1] += duration
            self.spans[idx] = (nid, start, end, parent, self.case_id)
            if counts_trials:
                self._open_trial_sources -= 1
                if outermost_trials:
                    self.trials += getattr(result, "trials", 0)

    def install(self, targets: dict[str, list]) -> int:
        """Rebind every binding of every target; returns how many."""
        by_id = {}
        for name, objs in targets.items():
            for obj in objs:
                by_id[id(obj)] = (self.wrap(name, obj), obj)
        for ns in namespaces():
            for attr, value in list(vars(ns).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[1] is value:
                    setattr(ns, attr, hit[0])
                    self._rebound.append((ns, attr, value))
        return len(self._rebound)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._rebound):
            setattr(ns, attr, original)

    def verify_restored(self) -> list[str]:
        """Names of bindings that are not the original object again
        (empty when the package is fully restored)."""
        bad = [
            f"{getattr(ns, '__name__', ns)}.{attr}"
            for ns, attr, original in self._rebound
            if vars(ns).get(attr) is not original
        ]
        for ns in namespaces():
            for attr, value in vars(ns).items():
                if hasattr(value, "__perfbench_original__"):
                    bad.append(f"{getattr(ns, '__name__', ns)}.{attr}")
        return bad

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        return {name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.names)}
