"""Line coverage of the `alphasched` package under the tier-1 suite.

Runs pytest in this process with a line tracer on every thread, then prints,
for each module of `src/alphasched`, the executable lines that never ran.
A line is executable if the compiled module maps some instruction to it
(`co_lines()` over every code object).  Uses the standard library only; it
is not a test module, so the suite does not collect it.  Tracing slows the
suite several-fold.

    python tests/line_coverage.py            # the tier-1 command
    python tests/line_coverage.py tests/test_model.py -k Rational
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "alphasched"
TIER1_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests")]


def executable_lines(path: Path) -> set[int]:
    """The lines some instruction of the compiled module maps to."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run in each package module."""
    ran: dict[str, set[int]] = {str(path): set() for path in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename not in ran:
            return None
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def ranges(lines: list[int]) -> str:
    """1, 3, 4, 5 as "1, 3–5"."""
    parts, start = [], None
    for k, line in enumerate(lines):
        if start is None:
            start = line
        if k + 1 == len(lines) or lines[k + 1] != line + 1:
            parts.append(str(start) if start == line else f"{start}–{line}")
            start = None
    return ", ".join(parts)


def main(argv: list[str]) -> int:
    code, ran = run_traced(argv or TIER1_ARGS)
    print("\n| module | executable | never run | lines never run |")
    print("|---|---:|---:|---|")
    for name in sorted(ran):
        path = Path(name)
        missed = sorted(executable_lines(path) - ran[name])
        print(f"| `{path.name}` | {len(executable_lines(path))} | {len(missed)} | {ranges(missed)} |")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
