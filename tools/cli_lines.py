"""List the lines of su11kit that no digest invocation runs.

    python tools/cli_lines.py [SRC_ROOT] > unrun.txt

Runs every argv of ``stdout_digest.invocations()`` in this one interpreter
through ``su11kit.cli.main``, with the output discarded, under a
``sys.settrace`` line tracer, and prints each statement line of a function
in ``SRC_ROOT/src/su11kit`` (default: this checkout) that none of them ran,
as ``path:line: function: source``, where ``function`` is the qualified name
of the outermost function that holds the line. A statement line is one that
carries bytecode in a function, method, lambda or comprehension; the lines
that run at import (module and class bodies and the comprehensions in them)
are left out, so the list does not depend on whether su11kit was imported
before tracing began. Only numpy and the standard library are needed.

Since the argv list is the digest's, no line of ``tools/stdout_digest.py``
output depends on a line listed here. ``tools/unreached.txt`` lists, by
path, function and source text, each line that may stay unrun, and why; the
tests fail on an unrun line it does not list.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import sys
import types
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

import stdout_digest  # noqa: E402


def statement_lines(path: Path) -> dict[int, str]:
    """Lines of ``path`` that carry bytecode in a function body, outside
    the code that runs at import, each with the qualified name of the
    outermost function that holds it, whichever code nested in that
    function carries the line."""
    lines, todo = {}, [(compile(path.read_text(), str(path), "exec"), None)]
    while todo:
        code, outermost = todo.pop()
        # Module and class bodies have no fast locals; functions, lambdas and
        # comprehensions do, and a comprehension runs where it is written.
        if outermost is None and (code.co_flags & inspect.CO_OPTIMIZED and code.co_name
                                  not in ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")):
            outermost = getattr(code, "co_qualname", code.co_name)
        if outermost is not None:
            for _, _, line in code.co_lines():
                if line is not None:
                    lines.setdefault(line, outermost)
        todo.extend((c, outermost) for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def unrun_lines(argvs: list[list[str]]) -> dict[Path, dict[int, str]]:
    """For each module of the imported su11kit, its statement lines that no
    ``su11kit.cli.main(argv)`` of ``argvs`` runs, ascending, each with the
    function that holds it."""
    import su11kit
    from su11kit import cli

    package = Path(su11kit.__file__).parent
    files = {str(path): path for path in sorted(package.glob("*.py"))}
    ran: set[tuple[str, int]] = set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for argv in argvs:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cli.main(argv)
    finally:
        sys.settrace(previous)
    return {path: {line: function for line, function in sorted(statement_lines(path).items())
                   if (name, line) not in ran}
            for name, path in files.items()}


def main(argv: list[str]) -> int:
    src_root = Path(argv[0]).resolve() if argv else REPO
    sys.path.insert(0, str(src_root / "src"))
    for path, lines in unrun_lines(stdout_digest.invocations()).items():
        text = path.read_text().splitlines()
        for line, function in lines.items():
            print(f"{path.relative_to(src_root)}:{line}: {function}: {text[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
