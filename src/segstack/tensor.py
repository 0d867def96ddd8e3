"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy float array.  Every operation that consumes
tensors with ``requires_grad`` set (while gradients are enabled) records
a backward closure on its output; ``backward(loss)`` walks that tape
once, writes ``grad`` buffers on the leaves, and frees the tape. Calling
``backward`` a second time on the same graph raises ``StaleTapeError``.

Public 4-D activations are (batch, channels, height, width). Inside
the network they are channels-last (batch, height, width, channels):
``permute`` converts once at the network input and once at its outputs.
The class itself accepts any rank so that scalar losses and parameter
vectors ride the same machinery.

The tape is confined to a single thread: ops are pure given their
inputs, but no cross-thread guarantees are made for a graph in flight.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ShapeError, StaleTapeError

_FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable tape recording inside the block (used by inference paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


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
    return _grad_enabled and any(p.requires_grad for p in parents)


def _record(out: Tensor, parents: Sequence[Tensor], fn, op: str) -> Tensor:
    """Attach a backward closure to ``out`` if recording applies."""
    if recording(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = fn
        out._op = op
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf (a requires_grad tensor no op
    produced) reachable from ``loss``; intermediate nodes keep ``grad``
    None, so their gradients are freed as soon as they are consumed.

    ``loss`` must hold a single element.  The tape is freed as it is
    consumed, so a repeated call without a fresh forward pass fails.
    """
    if loss._consumed:
        raise StaleTapeError(
            "backward() called twice on the same graph; run a new forward pass")
    if loss.data.size != 1:
        raise ShapeError(
            f"backward: loss must be a scalar node, got shape {loss.shape}")

    # post-order over the recorded graph (iterative; graphs can be deep)
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
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.requires_grad:
                node.grad = g
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


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: operand shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), lambda g: (g.copy(), g.copy()), "add")


def add_n(tensors: Sequence[Tensor]) -> Tensor:
    """Elementwise sum of an arbitrary number of same-shape tensors."""
    if not tensors:
        raise ValueError("add_n: empty operand list")
    for t in tensors[1:]:
        _check_same_shape(tensors[0], t, "add_n")
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


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Contiguous copy of ``a`` with its axes reordered."""
    inverse = tuple(np.argsort(axes))
    out = Tensor(np.ascontiguousarray(a.data.transpose(axes)))
    return _record(out, (a,), lambda g: (np.ascontiguousarray(
        g.transpose(inverse)),), "permute")


def concat_channels(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate 4-D tensors along the channel axis."""
    if not tensors:
        raise ValueError("concat_channels: empty operand list")
    for t in tensors:
        if t.ndim != 4:
            raise ShapeError(
                f"concat_channels: operands must be 4-D, got shape {t.shape}")
    ref = tensors[0]
    for t in tensors[1:]:
        if (t.shape[0], t.shape[2], t.shape[3]) != (ref.shape[0], ref.shape[2], ref.shape[3]):
            raise ShapeError(
                f"concat_channels: non-channel axes differ, {ref.shape} vs {t.shape}")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=1))
    widths = [t.shape[1] for t in tensors]
    bounds = np.cumsum([0] + widths)

    def fn(g):
        return tuple(
            np.ascontiguousarray(g[:, bounds[i]:bounds[i + 1]])
            for i in range(len(widths)))

    return _record(out, tensors, fn, "concat")

