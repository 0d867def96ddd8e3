"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy float array.  Every operation that consumes
tensors with ``requires_grad`` set (while gradients are enabled) records
a backward closure on its output; ``backward(loss)`` walks that tape
once, writes ``grad`` buffers on the leaves (or, inside
``leaf_grads_to``, hands them to a sink), and frees the tape as it goes.
Calling ``backward`` a second time on the same graph raises
``StaleTapeError``. ``pending_steps`` holds in-place updates back.

Public 4-D activations are (batch, channels, height, width). Inside
the network they are channels-last (batch, height, width, channels):
``nnops.to_nhwc`` and ``nnops.to_nchw`` convert at the network's input
and outputs.
The class itself accepts any rank so that scalar losses and parameter
vectors ride the same machinery.

The tape is confined to a single thread: ops are pure given their
inputs, but no cross-thread guarantees are made for a graph in flight.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ShapeError, StaleTapeError

_FLOAT_DTYPES = (np.float32, np.float64)

# The tape's modes, each set for a block by ``_mode``: grad (ops record),
# sink (``backward`` hands it leaf gradients) and pending (``hold_step``
# holds steps ``a -= s * v`` back in it, keyed id(a) -> (a, s, v)).
_modes = SimpleNamespace(grad=True, sink=None, pending=None)


@contextmanager
def _mode(field: str, value) -> Iterator[None]:
    """Set one field of ``_modes`` inside the block, and restore it after."""
    prev = getattr(_modes, field)
    setattr(_modes, field, value)
    try:
        yield
    finally:
        setattr(_modes, field, prev)


def no_grad():
    """Disable tape recording inside the block (used by inference paths)."""
    return _mode("grad", False)


def leaf_grads_to(sink: Callable[["Tensor", np.ndarray], None]):
    """Inside the block, ``backward`` calls ``sink(leaf, grad)`` with each
    leaf's finished gradient instead of storing it on ``leaf.grad``."""
    return _mode("sink", sink)


@contextmanager
def pending_steps(steps: dict) -> Iterator[None]:
    """Inside the block ``hold_step`` holds updates back in ``steps``,
    whose owner applies or drops them; the block's end applies the rest."""
    try:
        with _mode("pending", steps):
            yield
    finally:
        apply_steps(steps)


def apply_steps(steps: dict) -> None:
    """Apply every held step in place, ``a -= s * v``, and forget it."""
    for a, s, v in steps.values():
        a -= s * v
    steps.clear()


def hold_step(a: np.ndarray, s: float, v: np.ndarray) -> bool:
    """Inside ``pending_steps``, hold ``a -= s * v`` back (``v`` must not
    change until then) and return True; elsewhere return False."""
    if _modes.pending is not None:
        _modes.pending[id(a)] = (a, s, v)
    return _modes.pending is not None


def value(a: np.ndarray) -> np.ndarray:
    """``a``, or a fresh ``a - s * v`` while ``a`` has a pending step: the
    bits ``a`` will hold once the step is applied."""
    step = None if _modes.pending is None else _modes.pending.get(id(a))
    if step is None:
        return a
    out = np.multiply(step[2], step[1])  # s * v, then reused for the result
    return np.subtract(a, out, out=out)


class Tensor:
    """A numpy-backed value node with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_consumed", "_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], tuple]] = None
        self._consumed = False
        self._op = ""

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = f", op={self._op!r}" if self._op else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{tag})"


def recording(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` records a backward closure."""
    return _modes.grad and any(p.requires_grad for p in parents)


def _record(out: Tensor, parents: Sequence[Tensor], fn, op: str) -> Tensor:
    """Attach a backward closure to ``out`` if recording applies."""
    if recording(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = fn
        out._op = op
    return out


def _post_order(loss: Tensor) -> list[Tensor]:
    """Depth-first post-order of the recorded graph under ``loss``
    (iterative; graphs can be deep), skipping tensors that take no
    gradient. Parents are pushed last-first, so a node's first parent
    (its activation) finishes its subtree before the node's leaves are
    appended: read from the end, each leaf follows its last consumer."""
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in reversed(node._parents):
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return topo


def backward(loss: Tensor) -> None:
    """Hand every leaf (a requires_grad tensor no op produced) reachable
    from ``loss`` its gradient: stored on ``leaf.grad``, or passed to the
    sink of an enclosing ``leaf_grads_to``. Intermediate nodes keep
    ``grad`` None.

    The walk is a reverse topological order in which each leaf comes
    right after the last node that consumes it, so a sink sees a weight's
    gradient as soon as its layer's backward has run, before any earlier
    layer's. Each node drops its closure and its parents once its
    gradient is passed on, so activations are freed during the walk and
    a repeated call without a fresh forward pass fails.

    ``loss`` must hold a single element.
    """
    if loss._consumed:
        raise StaleTapeError(
            "backward() called twice on the same graph; run a new forward pass")
    if loss.data.size != 1:
        raise ShapeError(
            f"backward: loss must be a scalar node, got shape {loss.shape}")

    sink = _modes.sink
    topo = _post_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    while topo:
        node = topo.pop()
        g = grads.pop(id(node))
        if node._backward is None:
            if not node.requires_grad:
                continue
            if sink is None:
                node.grad = g
            else:
                sink(node, g)
            continue
        parent_grads = node._backward(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            if acc is None:
                grads[id(parent)] = pg
            else:
                acc += pg
        node._backward = None
        node._parents = ()
        node._consumed = True
    loss._consumed = True


# ---------------------------------------------------------------------------
# Elementwise / structural primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: operand shapes {a.shape} and {b.shape} differ")
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), lambda g: (g.copy(), g.copy()), "add")


def add_n(tensors: Sequence[Tensor]) -> Tensor:
    """Elementwise sum of an arbitrary number of same-shape tensors."""
    acc = tensors[0].data.copy()
    for t in tensors[1:]:
        acc += t.data
    out = Tensor(acc)
    return _record(out, tensors, lambda g: tuple(g.copy() for _ in tensors), "add_n")


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * a.data.dtype.type(s))
    return _record(out, (a,), lambda g: (g * a.data.dtype.type(s),), "scale")


def mean_n(tensors: Sequence[Tensor]) -> Tensor:
    """Arithmetic mean of same-shape tensors (fixed left-to-right order)."""
    return scale(add_n(tensors), 1.0 / len(tensors))


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0))

    def fn(g):
        # subgradient at 0 is 0
        return (g * (a.data > 0),)

    return _record(out, (a,), fn, "relu")


def concat_channels(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate 4-D tensors along the channel axis."""
    out = Tensor(np.concatenate([t.data for t in tensors], axis=1))
    widths = [t.shape[1] for t in tensors]
    bounds = np.cumsum([0] + widths)

    def fn(g):
        return tuple(
            np.ascontiguousarray(g[:, bounds[i]:bounds[i + 1]])
            for i in range(len(widths)))

    return _record(out, tensors, fn, "concat")

