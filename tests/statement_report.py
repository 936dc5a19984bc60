"""A pytest plugin that lists the statements of ``src/zscomb`` that no test runs.

Load it by name: ``python -m pytest -q -p tests.statement_report``.  It traces
only frames whose code lives in the package, and at the end of the session
prints each statement that never ran in the pytest process.  Statements are
counted from the AST, leaving out docstrings, ``def``/``class`` lines and
imports; code that runs only in a subprocess is not seen, so such statements
stay on the list.  The list is a progress number, not a gate.
"""

import ast
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src", "zscomb")
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)

# co_filename -> line numbers that ran, or None for code outside the package
_lines: dict[str, set[int] | None] = {}


def _line(frame, event, arg):
    if event == "line":
        _lines[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _lines:
        _lines[name] = set() if os.path.realpath(name).startswith(PACKAGE + os.sep) else None
    return None if _lines[name] is None else _line


def pytest_load_initial_conftests(early_config, parser, args):
    # before any conftest or test module can import the package
    sys.settrace(_call)


def _statements(tree):
    """(first line, last line) of each counted statement; a compound statement
    spans its header and the first line of its body."""
    scopes = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    nodes = list(ast.walk(tree))
    docstrings = {
        id(node.body[0])
        for node in nodes
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None
    }
    for node in nodes:
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or id(node) in docstrings:
            continue
        body = getattr(node, "body", None)
        yield node.lineno, body[0].lineno if body else node.end_lineno


def missed_statements():
    """(file name, line, source line) of each statement that never ran, and the
    number of statements counted."""
    ran: dict[str, set[int]] = {}
    for name, lines in _lines.items():
        if lines is not None:
            ran.setdefault(os.path.realpath(name), set()).update(lines)
    missed, total = [], 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        lines, text = ran.get(path, set()), source.splitlines()
        for first, last in sorted(_statements(ast.parse(source))):
            total += 1
            if lines.isdisjoint(range(first, last + 1)):
                missed.append((name, first, text[first - 1].strip()))
    return missed, total


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    missed, total = missed_statements()
    terminalreporter.section("statements never run in process")
    terminalreporter.write_line(f"{len(missed)} of {total} statements in src/zscomb never ran")
    for name, line, text in missed:
        terminalreporter.write_line(f"src/zscomb/{name}:{line}: {text}")
