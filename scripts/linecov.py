#!/usr/bin/env python3
"""Line-coverage survey: which statements of src/headswap does in-process tier-1 never run?

A ``sys.settrace`` tracer (and ``threading.settrace``, for the image
writer thread) records every line executed in the package while pytest
runs in this process.  A statement is a line that a code object of the
package's sources starts an instruction on.  Subprocess tests are not
followed, so what only they run is reported unreached.

    python3 scripts/linecov.py              # all of tier-1
    python3 scripts/linecov.py tests/test_cli.py -k Ablate

Prints each unreached statement as ``path:line: source`` and a total line.
Exits with pytest's exit code.  Tracing makes tier-1 about twice as slow.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "headswap"


def statements(path: Path) -> set[int]:
    """The line numbers that the code objects compiled from ``path`` start instructions on."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # a module's first instruction sits on line 0, which no statement does
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [const for const in code.co_consts if hasattr(const, "co_lines")]
    return lines


def main() -> int:
    os.chdir(ROOT)  # where pytest finds its configuration and test paths
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(PACKAGE)
    reached: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        # only the package's frames get a line tracer
        if frame.f_code.co_filename.startswith(prefix):
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        wanted = statements(path)
        unreached = sorted(line for line in wanted if (str(path), line) not in reached)
        total += len(wanted)
        missed += len(unreached)
        for line in unreached:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{total - missed} of {total} statements reached, {missed} unreached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
