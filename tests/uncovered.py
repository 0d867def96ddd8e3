"""Lists the statements of ``src/segstack`` that the test suite never runs.

    python3 tests/uncovered.py [PYTEST_ARGS ...]

Runs pytest in this process, by default with the Tier-1 command's
arguments on ``tests/``, under ``sys.settrace`` and ``threading.settrace``,
and records the lines executed in frames whose code lies in
``src/segstack``. A forked child (a prediction worker, or a test that
forks) appends each line that it runs and its parent had not run at the
fork to a file of its own, which this process reads at the end. Commands that the tests start with
``subprocess`` are not traced.

It then prints, grouped by module and function, every statement inside a
function body that never ran. A statement ran if any line it spans ran;
a compound statement (``if``, ``for``, ``with``, ``try`` ...) spans its
blocks too. Docstrings and ``global``/``nonlocal`` statements, which
compile to no line event, are never listed. Statements at module or
class level are not listed either: they run on import.

The script imports only the standard library and pytest, so numpy loads
after ``tests/conftest.py`` has pinned BLAS, as in a plain pytest run.
It exits with pytest's exit code. Pytest does not collect this file.
"""

import ast
import os
import shutil
import sys
import tempfile
import threading
from types import SimpleNamespace

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "segstack")
sys.path.insert(0, os.path.dirname(SRC))

import pytest  # noqa: E402

TIER1_ARGS = ["-q", "--continue-on-collection-errors", "-p",
              "no:cacheprovider", os.path.join(REPO, "tests")]

_seen: "set[tuple[str, int]]" = set()
_traced: "dict[str, bool]" = {}  # co_filename -> lies in src/segstack
# a forked child writes the lines it reaches first to ``fd``, a file in ``dir``
_child = SimpleNamespace(dir=None, fd=None)


def _local(frame, event, arg):
    if event == "line":
        key = (frame.f_code.co_filename, frame.f_lineno)
        if key not in _seen:
            _seen.add(key)
            if _child.fd is not None:
                os.write(_child.fd, f"{key[0]}\t{key[1]}\n".encode())
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    traced = _traced.get(name)
    if traced is None:
        traced = _traced[name] = (os.path.dirname(os.path.realpath(name))
                                  == os.path.realpath(SRC))
    return _local if traced else None


def _after_fork_in_child():
    _child.fd = os.open(os.path.join(_child.dir, f"{os.getpid()}.lines"),
                        os.O_WRONLY | os.O_CREAT | os.O_APPEND)


def run_traced(args) -> int:
    """Run pytest with ``args`` under the tracer; fill ``_seen`` with the
    lines this process and its forked children ran."""
    _child.dir = tempfile.mkdtemp(prefix="uncovered-")
    os.register_at_fork(after_in_child=_after_fork_in_child)
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for entry in os.listdir(_child.dir):
        with open(os.path.join(_child.dir, entry)) as fh:
            for line in fh:
                name, lineno = line.rstrip("\n").rsplit("\t", 1)
                _seen.add((name, int(lineno)))
    shutil.rmtree(_child.dir)
    return int(code)


def _statements(node):
    """Statements in ``node``'s blocks, nested blocks included, except the
    bodies of functions defined inside it (they are listed under their
    own names)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from _statements(child)
        elif isinstance(child, (ast.excepthandler, ast.match_case)):
            yield from _statements(child)


def _functions(node, prefix=""):
    """(qualified name, def node) of every function in ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def _is_docstring(fn, stmt) -> bool:
    return (stmt is fn.body[0] and isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def never_ran(path, ran: "set[int]"):
    """(qualified name, [(line, source)]) of each function in ``path`` with
    statements none of whose lines are in ``ran``."""
    with open(path) as fh:
        text = fh.read()
    source = text.splitlines()
    for qualname, fn in _functions(ast.parse(text)):
        missed = []
        for stmt in _statements(fn):
            if (_is_docstring(fn, stmt)
                    or isinstance(stmt, (ast.Global, ast.Nonlocal))):
                continue
            first = min([stmt.lineno] + [d.lineno for d in getattr(
                stmt, "decorator_list", [])])
            if ran.isdisjoint(range(first, stmt.end_lineno + 1)):
                missed.append((stmt.lineno, source[stmt.lineno - 1].strip()))
        if missed:
            yield qualname, sorted(missed)


def main(argv) -> int:
    code = run_traced(argv or TIER1_ARGS)
    by_file: "dict[str, set[int]]" = {}
    for name, lineno in _seen:
        by_file.setdefault(os.path.realpath(name), set()).add(lineno)
    total = 0
    print("\nStatements in src/segstack functions that never ran:")
    for module in sorted(os.listdir(SRC)):
        if not module.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(SRC, module))
        found = list(never_ran(path, by_file.get(path, set())))
        if found:
            print(f"segstack/{module}")
        for qualname, missed in found:
            print(f"  {qualname}")
            for lineno, text in missed:
                print(f"    {lineno:4d}  {text}")
            total += len(missed)
    print(f"{total} statements never ran")
    if code:
        print(f"pytest exited with code {code}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
