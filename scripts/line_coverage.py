"""Which lines of the library no test reaches, with the standard library only.

Runs pytest in this process under ``sys.settrace`` (and ``threading.settrace``
for the threads the tests start), records every line of ``src/steklov/``
that runs, and prints each executable line that did not run as
``path:line: source``, then their count.  A line is executable when the
compiled module, or a function, class or comprehension in it, starts an
instruction on it.  Lines run only in subprocesses that the tests start
(the CLI and script tests) are not seen.  Arguments after the options go
to pytest unchanged; the exit code is pytest's.  Usage:

    PYTHONPATH=src python scripts/line_coverage.py -- -q tests
"""

import argparse
import dis
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def executable_lines(path):
    """The line numbers on which the compiled ``path`` starts an instruction."""
    lines = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def traced_run(files, pytest_args):
    """pytest's exit code and the ``{path: lines run}`` of ``files`` over the run."""
    reached = {path: set() for path in files}
    owner = {}  # co_filename -> its set in ``reached``, or None for other files

    def local(frame, event, arg):
        if event == "line":
            owner[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owner:
            owner[name] = reached.get(Path(os.path.realpath(name)))
        if owner[name] is None:
            return None
        owner[name].add(frame.f_code.co_firstlineno)
        return local

    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), reached


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--src",
        type=Path,
        default=ROOT / "src" / "steklov",
        help="package directory whose *.py lines are counted (default: src/steklov)",
    )
    ap.add_argument("pytest_args", nargs="*", help="arguments for pytest (put them after --)")
    args = ap.parse_args()

    files = sorted(path.resolve() for path in args.src.glob("*.py"))
    if any(name.split(".")[0] == args.src.name for name in sys.modules):
        ap.error(f"{args.src.name} is already imported; its module lines would not be seen")
    status, reached = traced_run(files, args.pytest_args)

    missed = 0
    for path in files:
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - reached[path]):
            print(f"{os.path.relpath(path)}:{line}: {source[line - 1].strip()}")
            missed += 1
    total = sum(len(executable_lines(path)) for path in files)
    print(f"{missed} of {total} executable lines of {os.path.relpath(args.src)} not reached")
    return status


if __name__ == "__main__":
    sys.exit(main())
