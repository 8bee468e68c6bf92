"""Count who reaches each function of ``src/affgebra`` during a test run.

A pytest plugin, stdlib only and not part of the tier-1 suite:

    PYTHONPATH=src python -m pytest -q -p tools.callreach --callreach=all
    PYTHONPATH=src python -m pytest -q -p tools.callreach \\
        --callreach=scalars.Field.inv_int,transforms.block_target

``--callreach`` takes ``all`` (every named function and method of the
package) or a comma-separated list of ``module.qualname`` names.  A
``sys.settrace`` hook sees each call of a named function and walks the
stack outward from it.  The call is counted under two keys:

* its origin: where the outermost frame of the checkout on the stack
  lives, ``tests``, ``perfbench``, ``tools`` or ``src`` (``src`` when
  no frame outside the package called in, and when the package makes
  the call while it loads: the hook is installed before the package is
  imported, and the walk stops at a module body of the package);
* its chain: the package frames between the target and the nearest
  frame outside the package, written as the function that was entered
  first and the package modules in calling order.  A call straight
  from a test has an empty chain, ``direct``.

So a call that a test makes through ``transforms.block_target`` and
``scalars.Field.inv_int`` counts as ``tests via
transforms.block_target [transforms > scalars]``, not as a call from
``scalars``, which is all an immediate-caller count would show.  At the
end of the session each target prints one line per (origin, chain)
with its count, and then the targets that no package function calls:
every call direct, or no call at all.
"""
from __future__ import annotations

import importlib
import os
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "affgebra"
_PROJECT_DIRS = {"tests", "perfbench", "tools"}

_targets: dict[int, tuple[str, object]] = {}  # id(code) -> (name, code), which keeps the id unique
_counts: dict[str, Counter] = {}
_kinds: dict[str, str | None] = {}  # co_filename -> "src:<module>", a project dir, or None
_last: list = [None, None]  # the last caller frame and its (origin, chain)
_loading: dict[int, tuple[object, Counter]] = {}  # id(code) -> (code, counts) of calls while the package loads


def _kind(filename: str) -> str | None:
    if filename not in _kinds:
        path = Path(os.path.realpath(filename))
        if path.parent == PACKAGE:
            _kinds[filename] = "src:" + path.stem
        elif ROOT in path.parents and path.relative_to(ROOT).parts[0] in _PROJECT_DIRS:
            _kinds[filename] = path.relative_to(ROOT).parts[0]
        else:
            _kinds[filename] = None
    return _kinds[filename]


def _reach(caller) -> tuple[str, str]:
    """(origin, chain) of a call made from the frame ``caller``."""
    modules, entry, frame, origin = [], None, caller, None
    while frame is not None:
        kind = _kind(frame.f_code.co_filename)
        if kind is not None and kind.startswith("src:"):
            if origin is None:
                entry = frame.f_code
                if not modules or modules[-1] != kind[4:]:
                    modules.append(kind[4:])
                if entry.co_name == "<module>":
                    origin = "src"  # the package loading, whoever imported it
                    break
            else:
                origin = "src"  # a package frame outside the project frame that called in
        elif kind is not None:
            origin = kind
        frame = frame.f_back
    if origin is None:
        origin = "src"
    if entry is None:
        return origin, "direct"
    name = getattr(entry, "co_qualname", entry.co_name)
    return origin, f"via {modules[-1]}.{name} [{' > '.join(reversed(modules))}]"


def _trace_load(frame, event, arg):
    # before the targets are known: count every call of package code, by code
    code = frame.f_code
    kind = _kind(code.co_filename)
    if kind is not None and kind.startswith("src:"):
        _loading.setdefault(id(code), (code, Counter()))[1][_reach(frame.f_back)] += 1
    return None


def _trace_calls(frame, event, arg):
    target = _targets.get(id(frame.f_code))
    if target is not None:
        caller = frame.f_back
        if caller is not _last[0]:
            _last[0], _last[1] = caller, _reach(caller)
        _counts[target[0]][_last[1]] += 1
    return None


def _functions(module):
    """(qualified name, code) of every named function and method that
    ``module`` defines, nested ones included."""
    prefix = module.__name__.rsplit(".", 1)[-1]
    seen = set()

    def codes(code):
        if code in seen or code.co_filename != module.__file__ or code.co_name.startswith("<"):
            return
        seen.add(code)
        yield f"{prefix}.{getattr(code, 'co_qualname', code.co_name)}", code
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                yield from codes(const)

    def members(namespace):
        for value in list(vars(namespace).values()):
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            value = getattr(value, "__wrapped__", value)  # under functools.cache and lru_cache
            if isinstance(value, property):
                for accessor in (value.fget, value.fset, value.fdel):
                    if accessor is not None:
                        yield from codes(accessor.__code__)
            elif isinstance(value, type) and value.__module__ == module.__name__:
                yield from members(value)
            elif hasattr(value, "__code__"):
                yield from codes(value.__code__)

    yield from members(module)


def _resolve(spec: str) -> dict[str, object]:
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "affgebra" if path.stem == "__init__" else f"affgebra.{path.stem}"
        found.update(_functions(importlib.import_module(name)))
    if spec == "all":
        return found
    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = [name for name in names if name not in found]
    if unknown:
        raise ValueError(f"callreach: no package function named {', '.join(unknown)}")
    return {name: found[name] for name in names}


def pytest_addoption(parser):
    parser.addoption("--callreach", default="all", help="'all', or module.qualname names separated by commas")


def pytest_configure(config):
    try:
        from hypothesis import HealthCheck, settings
    except ImportError:
        pass
    else:
        # the stack walks slow the tests down; timing limits would misfire
        settings.register_profile("callreach", deadline=None, suppress_health_check=[HealthCheck.too_slow])
        settings.load_profile("callreach")
    sys.settrace(_trace_load)
    try:
        targets = _resolve(config.getoption("callreach"))
    finally:
        sys.settrace(None)
    for name, code in targets.items():
        _targets[id(code)] = (name, code)
        _counts[name] = _loading[id(code)][1] if id(code) in _loading else Counter()
    _loading.clear()
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    write = terminalreporter.write_line
    unreached = []
    for name in sorted(_counts):
        counts = _counts[name]
        if all(chain == "direct" for _, chain in counts):
            unreached.append(name)
        for (origin, chain), n in sorted(counts.items()):
            write(f"{name}  {n}  {origin} {chain}")
        if not counts:
            write(f"{name}  0")
    write(f"callreach: {len(unreached)} of {len(_counts)} functions have no package caller")
    for name in unreached:
        write(f"  {name}")
