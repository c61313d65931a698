"""An opt-in pytest plugin that lists the lines of ``src/adamftrl`` no test reaches.

Run it by name; it is not loaded otherwise, as tracing about doubles the suite's time:

    PYTHONPATH=tests python -m pytest -p covtrace

It uses only ``sys.settrace`` (the ``coverage`` package is not needed).  Tracing starts when
pytest imports the plugin, before the package is imported, so module-level lines count as
reached.  A line is executable if its module's compiled code holds an instruction on it.  Lines
run only in a subprocess (the benchmark's and the CLI's own processes) are not seen.  At the end
of the session it prints, for each module, its unreached lines.
"""

import sys
import threading
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "adamftrl"
_prefix = str(SOURCE) + "/"
_reached: dict[str, set[int]] = {}


def _lines(frame, event, arg):
    _reached[frame.f_code.co_filename].add(frame.f_lineno)
    return _lines


def _calls(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(_prefix):
        return None
    _reached.setdefault(filename, set()).add(frame.f_lineno)
    return _lines


sys.settrace(_calls)
threading.settrace(_calls)


def _executable(path: Path) -> set[int]:
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)   # 0: no source line
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def _spans(lines: list[int]) -> str:
    """``3-5, 9`` for ``[3, 4, 5, 9]``: runs of consecutive line numbers."""
    spans, start = [], None
    for i, line in enumerate(lines):
        start = line if start is None else start
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            spans.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(spans)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("lines of src/adamftrl no test reached")
    total = unreached = 0
    for path in sorted(SOURCE.glob("*.py")):
        lines = _executable(path)
        missed = sorted(lines - _reached.get(str(path), set()))
        total, unreached = total + len(lines), unreached + len(missed)
        terminalreporter.write_line(f"{path.name}: {len(missed)} of {len(lines)}"
                                    + (f": {_spans(missed)}" if missed else ""))
    terminalreporter.write_line(f"total: {unreached} of {total} executable lines not reached")
