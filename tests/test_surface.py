"""Ratchets on the surface and size of ``src/segstack``.

* Settable values: defaulted parameters in its signatures, defaulted
  dataclass fields there, and the command-line flags other than
  ``--config``. A change that adds a setting raises SETTABLE_VALUES_CAP in
  its own diff.
* Lines: the ``wc -l`` total of ``src/segstack/*.py``. A change that adds
  lines raises SRC_LINES_CAP in its own diff.
* The package namespace holds exactly the names its callers use: the
  README, the demos and ``perfbench``'s ``ss.<name>`` accesses. Every
  other name imports from its own module.
* Every ``raise`` names a ``SegstackError`` subclass or re-raises, so the
  CLI maps each error onto its exit code.
"""

import ast
import pathlib
import re

import segstack
from segstack import errors
from segstack.cli import build_parser

SETTABLE_VALUES_CAP = 98
SRC_LINES_CAP = 3577

SRC = pathlib.Path(segstack.__file__).parent
REPO = pathlib.Path(__file__).resolve().parents[1]
README = (REPO / "README.md").read_text()


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def source_counts() -> "tuple[int, int]":
    """(defaulted parameters, defaulted dataclass fields) in the package."""
    params = fields = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                params += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(s, ast.AnnAssign)
                              and s.value is not None for s in node.body)
    return params, fields


def cli_flags() -> int:
    _, registry = build_parser()
    return sum(1 for sub in registry.values() for a in sub._actions
               if a.option_strings and a.dest not in ("config", "help"))


def test_settable_values_do_not_grow():
    params, fields = source_counts()
    flags = cli_flags()
    total = params + fields + flags
    assert total <= SETTABLE_VALUES_CAP, (
        f"{total} settable values ({params} defaulted parameters, {fields} "
        f"defaulted dataclass fields, {flags} CLI flags), cap "
        f"{SETTABLE_VALUES_CAP}")


def test_src_lines_do_not_grow():
    lines = sum(p.read_bytes().count(b"\n") for p in SRC.glob("*.py"))
    assert lines <= SRC_LINES_CAP, (
        f"src/segstack has {lines} lines, cap {SRC_LINES_CAP}")


def caller_names() -> "set[str]":
    """Names that the README's code blocks and the demos import from
    ``segstack``, and that ``perfbench/*.py`` reads as ``ss.<name>``."""
    sources = re.findall(r"```python\n(.*?)```", README, re.S)
    sources += [p.read_text() for p in sorted((REPO / "demos").glob("*.py"))]
    names = set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module == "segstack":
                names.update(a.name for a in node.names)
    for p in sorted((REPO / "perfbench").glob("*.py")):
        names.update(re.findall(r"\bss\.(\w+)", p.read_text()))
    return names


def test_every_caller_name_resolves_on_the_package():
    names = caller_names()
    assert {"Tensor", "train_segnet", "synth_dataset", "training"} <= names
    missing = sorted(n for n in names if not hasattr(segstack, n))
    assert not missing, f"used by callers, missing from segstack: {missing}"


def test_package_exports_only_names_its_callers_use():
    used = caller_names()
    unused = sorted(n for n in segstack.__all__ if n not in used and not
                    re.search(rf"(?<![\w.]){n}\b", README))
    assert not unused, (
        f"exported, but no README text, demo or perfbench access uses "
        f"them: {unused}")


# argparse reports a type function's ValueError as a usage error
PLAIN_RAISES = {("cli.py", "nonnegative")}


def untyped_raises() -> "list[str]":
    """``file:line`` of each ``raise`` in a package function that neither
    names a ``SegstackError`` subclass nor re-raises: a bare ``raise``, or
    one of a name its function binds (an ``except ... as`` name or a
    variable)."""
    typed = {name for name, obj in vars(errors).items() if
             isinstance(obj, type) and issubclass(obj, errors.SegstackError)}
    found = set()  # a nested function's raises are walked twice
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Store)}
            bound |= {h.name for h in ast.walk(fn)
                      if isinstance(h, ast.ExceptHandler) and h.name}
            for node in ast.walk(fn):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                elif isinstance(exc, ast.Name) and exc.id in bound:
                    continue
                if not (isinstance(exc, ast.Name) and exc.id in typed) and \
                        (path.name, fn.name) not in PLAIN_RAISES:
                    found.add(f"{path.name}:{node.lineno}")
    return sorted(found)


def test_every_raise_is_a_segstack_error():
    untyped = untyped_raises()
    assert not untyped, (
        f"raises that name no SegstackError subclass: {untyped}")
