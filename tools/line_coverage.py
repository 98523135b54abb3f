"""Print the lines of src/liquidrank that no tier-1 test reaches.

A standard-library line collector: it runs the tier-1 suite in this process
under ``sys.settrace`` and prints, per module, the executable lines that
never ran.  Code that runs only in a child process, such as ``cli.run``,
counts as unreached, and tracing slows the wall-clock gates.  Arguments
go to pytest in place of the tests directory, so a subset can be run.

    python tools/line_coverage.py [pytest args]
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = str(ROOT / "src" / "liquidrank")
reached: set[tuple[str, int]] = set()


def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(PACKAGE):
        return None
    reached.add((frame.f_code.co_filename, frame.f_lineno))
    return trace


def executable_lines(path: Path) -> set[int]:
    lines, todo = set(), [compile(path.read_bytes(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [const for const in code.co_consts if hasattr(const, "co_lines")]
    return lines


def main() -> int:
    args = sys.argv[1:] or [str(ROOT / "tests")]
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(Path(PACKAGE).glob("*.py")):
        missed = executable_lines(path) - {line for name, line in reached if name == str(path)}
        if missed:
            print(f"{path.relative_to(ROOT)}: {' '.join(map(str, sorted(missed)))}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
