"""Same bits: the fixed-seed session of ``cli_session.py`` must write the
bytes, exit codes, stdout and stderr recorded in ``golden/same_bits.txt``.

The golden file's first line fingerprints the environment that wrote it:
numpy, its BLAS, the OpenBLAS core it picked and Python. Float results
may differ on another of any of these, so there the test skips and names
the field that differs. A change that keeps every bit passes unedited; a
change that moves bits on purpose regenerates the file with

    python3 tests/test_same_bits.py --write

and says in its description which lines changed and why.
"""

import ctypes
import glob
import json
import os
import platform
import sys
import tempfile

import numpy as np
import pytest

import cli_session

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "same_bits.txt")


def _openblas_core() -> str:
    """The core name numpy's bundled OpenBLAS picked at load time."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_",
                     "scipy_openblas_get_corename", "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "core": _openblas_core(),
            "python": platform.python_version()}


def session_lines() -> "list[str]":
    with tempfile.TemporaryDirectory() as out_dir:
        lines, ok = cli_session.run_session(out_dir)
    assert ok, "a session command exited with an unexpected code"
    return lines


def _keyed(lines):
    """{file path or command name: line}."""
    return {(line.split("  ", 1)[1] if "  " in line else line.split()[0]):
            line for line in lines}


def test_session_writes_the_golden_bits():
    with open(GOLDEN) as fh:
        env_line, *want = fh.read().splitlines()
    golden_env, here = json.loads(env_line), fingerprint()
    for field, value in golden_env.items():
        if here.get(field) != value:
            pytest.skip(f"golden bits are for {field} {value!r}, this "
                        f"environment has {here.get(field)!r}")
    got = session_lines()
    want_by, got_by = _keyed(want), _keyed(got)
    changed = sorted(k for k in want_by.keys() | got_by.keys()
                     if want_by.get(k) != got_by.get(k))
    assert not changed, (f"bits changed in {len(changed)} files or "
                         f"commands: {', '.join(changed[:20])}"
                         f"{', ...' if len(changed) > 20 else ''}")
    assert got == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 tests/test_same_bits.py --write")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    lines = session_lines()
    with open(GOLDEN, "w") as fh:
        fh.write("\n".join([json.dumps(fingerprint()), *lines]) + "\n")
    print(f"wrote {len(lines)} lines to {GOLDEN}")
