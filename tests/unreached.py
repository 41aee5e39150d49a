"""Report the lines of src/systolic/ that the tests under tests/ never run.

    python tests/unreached.py [extra pytest arguments]

Runs pytest over tests/ in this process under the standard library's line
tracer, `sys.settrace`.  Then prints each executable line of src/systolic/
that no test reached, as `path:line: source`, and their count.  Module-level and
class-body lines run on import, so they are left out.  The exit status is
pytest's.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "systolic"


def executable_lines(path: Path) -> set[int]:
    """Lines of the functions in one source file, each function's own
    `def` line (or first decorator line) left out, as it runs on import."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:    # a function, not a module or class body
            lines.update(line for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno)
    return lines


def reached_lines(run) -> set[tuple[str, int]]:
    """The (file, line) pairs of src/systolic/ that run() runs, from
    sys.settrace line events in the frames of src/systolic/ only."""
    prefix = str(PACKAGE)
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return seen


def unreached(seen: set[tuple[str, int]]) -> list[tuple[Path, int]]:
    """Executable lines of src/systolic/ missing from seen, in file order."""
    return [(path, line) for path in sorted(PACKAGE.glob("*.py"))
            for line in sorted(executable_lines(path))
            if (str(path), line) not in seen]


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    status = []
    seen = reached_lines(lambda: status.append(
        pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])))
    missing = unreached(seen)
    for path, line in missing:
        source = path.read_text().splitlines()[line - 1].strip()
        print(f"{path.relative_to(ROOT)}:{line}: {source}")
    print(f"{len(missing)} unreached lines in {PACKAGE.relative_to(ROOT)}/")
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
