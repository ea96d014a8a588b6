"""Report the lines of `src/taskinfer` that no in-process tier-1 test runs.

Run from the repository root:

    PYTHONPATH=src python tests/reach.py

It traces every line run inside `src/taskinfer` while pytest runs `tests`,
then compares them with the lines the modules compile to.  Each line never
run is printed as `path:line`, and the exit status is non-zero when any line
is unreached or any test fails.  Lines run only in a child process (the
`python -m taskinfer` tests) do not count.  Pytest does not collect this
file.  Tracing roughly doubles the suite's run time.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "taskinfer"

_reached: dict = defaultdict(set)   # resolved file -> lines run
_ours: dict = {}                    # co_filename -> resolved file, or None


def _resolve(filename: str):
    path = Path(filename).resolve()
    return str(path) if path.parent == PACKAGE else None


def _local(frame, event, arg):
    if event == "line":
        _reached[_ours[frame.f_code.co_filename]].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename not in _ours:
        _ours[filename] = _resolve(filename)
    if _ours[filename] is None:
        return None
    _reached[_ours[filename]].add(frame.f_lineno)
    return _local


def _code_lines(code) -> set:
    """Every line `code` and its nested code objects compile to.  Line 0 is
    the module's entry, which no source line holds."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def main() -> int:
    # Installed before pytest imports any test module, so module bodies count.
    threading.settrace(_global)
    sys.settrace(_global)
    import pytest

    status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    sys.settrace(None)
    threading.settrace(None)

    unreached = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = _code_lines(compile(path.read_text(), str(path), "exec"))
        total += len(lines)
        missed = sorted(lines - _reached[str(path)])
        unreached += len(missed)
        for line in missed:
            print(f"{path.relative_to(PACKAGE.parents[1])}:{line}")
    print(f"{unreached} of {total} lines in src/taskinfer unreached; pytest exit {int(status)}")
    return 1 if unreached or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
