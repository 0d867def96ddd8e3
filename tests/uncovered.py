"""Lists the statements of ``src/segstack`` that the test suite, or the
command-line session and the demos, never run.

    python3 tests/uncovered.py [PYTEST_ARGS ...]
    python3 tests/uncovered.py --traffic

Runs pytest in this process, by default with the Tier-1 command's
arguments on ``tests/``, under ``sys.settrace`` and ``threading.settrace``,
and records the lines executed in frames whose code lies in
``src/segstack``. With ``--traffic`` it runs, in place of pytest, what a
user runs: every step of ``tests/cli_session.py``'s ``SESSION`` through
``segstack.cli.main`` in a temporary directory, then the six demos, with
BLAS pinned to one thread. So it lists the code that no command and no
demo reaches. A forked child (a prediction worker, or a test that
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
It exits with pytest's exit code; with ``--traffic``, with 0 if every
session step exited with the code ``SESSION`` expects and every demo ran
through, and 1 otherwise. Pytest does not collect this file.
"""

import ast
import contextlib
import glob
import io
import os
import runpy
import shutil
import sys
import tempfile
import threading
import traceback
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


def _quietly(name, fn) -> bool:
    """Run ``fn``, which returns whether it did what was expected, with
    its output captured; print one line for it, and the output if not."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            ok = fn()
    except (Exception, SystemExit):
        ok = False
        out.write(traceback.format_exc())
    print(f"{name}: {'ok' if ok else 'FAILED'}")
    if not ok:
        print(out.getvalue().rstrip())
    return ok


def _run_demo(path) -> bool:
    runpy.run_path(path, run_name="__main__")
    return True


def traffic() -> int:
    """``tests/cli_session.py``'s SESSION through ``segstack.cli.main``,
    then every demo, in a temporary directory that is then removed."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads, as cli_session does
    sys.path.insert(0, os.path.join(REPO, "tests"))
    from cli_session import SESSION
    from segstack.cli import main as cli_main

    work, cwd = tempfile.mkdtemp(prefix="uncovered-traffic-"), os.getcwd()
    os.chdir(work)
    tempfile.tempdir = work  # the demos write their runs under it
    try:
        ok = [_quietly(name, lambda: cli_main(args) == want)
              for name, args, want in SESSION]
        for path in sorted(glob.glob(os.path.join(REPO, "demos", "*.py"))):
            ok.append(_quietly(os.path.relpath(path, REPO),
                               lambda: _run_demo(path)))
    finally:
        tempfile.tempdir = None
        os.chdir(cwd)
        shutil.rmtree(work)
    return 0 if all(ok) else 1


def run_traced(run) -> int:
    """Call ``run`` under the tracer and return its exit code; fill
    ``_seen`` with the lines this process and its forked children ran."""
    _child.dir = tempfile.mkdtemp(prefix="uncovered-")
    os.register_at_fork(after_in_child=_after_fork_in_child)
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        code = run()
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
    if argv == ["--traffic"]:
        code = run_traced(traffic)
    else:
        code = run_traced(lambda: pytest.main(argv or TIER1_ARGS))
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
        print(f"{'traffic' if argv == ['--traffic'] else 'pytest'} exited "
              f"with code {code}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
