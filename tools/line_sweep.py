"""List the lines of src/fcunits/ that the tier-1 suite never runs.

Run from the repository root:

    python3 tools/line_sweep.py [extra pytest arguments]

The suite runs in this process under a `sys.settrace` and
`threading.settrace` tracer that records every line run in a module of
src/fcunits/.  The executable lines of a module are the lines its
compiled code objects name in `co_lines()`.  The sweep prints, per
module, the executable lines that never ran, as ranges, then the totals.
Tests that fail under the tracer (a timing test, say) run to the end and
are named in the output, never skipped; the lines they reached count as
run.  Code that runs only in a subprocess the suite starts is not traced.
Apart from pytest, the suite's own runner, it uses the standard library
alone, and it measures and gates nothing.
"""

import collections
import os
import pathlib
import sys
import threading
import time
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fcunits"


def executable_lines(path):
    """The line numbers of every code object compiled from path."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


def ranges(lines):
    """'3-5, 9' for [3, 4, 5, 9]."""
    spans = []
    for n in sorted(lines):
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in spans)


class Failures:
    """A pytest plugin that keeps the node id of every failed report."""

    def __init__(self):
        self.nodeids = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.nodeids.append(report.nodeid)

    pytest_collectreport = pytest_runtest_logreport


def run_traced(args):
    """Run the suite under the tracer: ({filename: lines run}, failures)."""
    import pytest

    ran = collections.defaultdict(set)
    prefix = str(SRC) + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    failures = Failures()
    # the tier-1 environment: src/ on the path, here and in subprocesses
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *args],
                    plugins=[failures])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    import fcunits
    if pathlib.Path(fcunits.__file__).resolve().parent != SRC:
        sys.exit(f"the suite imported fcunits from {fcunits.__file__}, "
                 f"not from {SRC}")
    return ran, failures.nodeids


def main(args):
    start = time.perf_counter()
    ran, failed = run_traced(args)
    total = unrun = 0
    print()
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        missed = lines - ran[str(path)]
        total, unrun = total + len(lines), unrun + len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} unrun: "
                  f"{ranges(missed)}")
    print(f"{unrun} of {total} executable lines never ran "
          f"({100 * (total - unrun) / total:.1f} % ran), "
          f"{time.perf_counter() - start:.0f} s")
    print("failed under the tracer:", " ".join(failed) or "none")


if __name__ == "__main__":
    main(sys.argv[1:])
