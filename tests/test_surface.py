"""Ratchet on the settable surface: defaulted parameters in the
signatures of ``src/segstack``, defaulted dataclass fields there, and the
command-line flags other than ``--config``. A change that adds a setting
raises SETTABLE_VALUES_CAP in its own diff."""

import ast
import pathlib

import segstack
from segstack.cli import build_parser

SETTABLE_VALUES_CAP = 132

SRC = pathlib.Path(segstack.__file__).parent


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
