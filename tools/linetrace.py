"""List the function-body lines of ``src/affgebra`` that a test run never executes.

A pytest plugin, stdlib only and not part of the tier-1 suite:

    PYTHONPATH=src python -m pytest -q -p tools.linetrace --ignore=tests/test_acceptance.py

``sys.settrace`` records every line the package's functions execute.  At
the end of the session each module's never-run lines are printed as
``module.py:line  source``, then the count of never-run lines against all
function-body lines.  A function-body line is a line that starts code in
a function, lambda or comprehension, the ``def`` line itself excluded;
module and class bodies run at import and are not counted.
"""
from __future__ import annotations

import dis
import os
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "affgebra"
_CO_OPTIMIZED = 0x1  # set on function code objects, clear on module and class bodies

_seen: set[tuple[str, int]] = set()
_in_package: dict[str, str | None] = {}  # co_filename -> resolved path, or None outside


def _package_path(filename: str) -> str | None:
    if filename not in _in_package:
        path = os.path.realpath(filename)
        _in_package[filename] = path if Path(path).parent == PACKAGE else None
    return _in_package[filename]


def _trace_lines(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    return _trace_lines if _package_path(frame.f_code.co_filename) else None


def body_lines(code) -> set[int]:
    """The function-body lines of a module's code object."""
    lines = set()
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= body_lines(const)
    if code.co_flags & _CO_OPTIMIZED:
        starts = {line for _, line in dis.findlinestarts(code) if line is not None}
        if not code.co_name.startswith("<"):
            starts.discard(code.co_firstlineno)  # the def line runs in the enclosing body
        lines |= starts
    return lines


def pytest_configure(config):
    try:
        from hypothesis import HealthCheck, settings
    except ImportError:
        pass
    else:
        # tracing slows every test several times over; timing limits would misfire
        settings.register_profile("linetrace", deadline=None, suppress_health_check=[HealthCheck.too_slow])
        settings.load_profile("linetrace")
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    run = {(_package_path(f), line) for f, line in _seen}
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = body_lines(compile(source, str(path), "exec"))
        never = sorted(line for line in lines if (os.path.realpath(path), line) not in run)
        text = source.splitlines()
        for line in never:
            terminalreporter.write_line(f"{path.name}:{line}  {text[line - 1].strip()}")
        total += len(lines)
        missed += len(never)
    terminalreporter.write_line(f"linetrace: {missed} of {total} function-body lines never run")
