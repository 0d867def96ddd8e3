"""The benchmark's tracer (``perfbench/tracing.py``) wraps library
functions at the module attributes where their callers look them up. Its
hook raises as soon as ``src/`` drops or moves one of those names."""

import pathlib
import types

import segstack

TRACING = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
           / "tracing.py")


def _load_tracing() -> types.ModuleType:
    # exec the source rather than import it, so nothing is written next to it
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_install_wraps_and_restores_every_name():
    tracing = _load_tracing()
    original = segstack.training.softmax_channels
    with tracing.install(tracing.Tracer(), segstack):
        assert segstack.training.softmax_channels is not original
    assert segstack.training.softmax_channels is original
