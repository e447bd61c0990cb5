"""Tensor values and the tape that records primitive applications.

Values are 64-bit numpy arrays. Each primitive evaluates eagerly and, when a
Tape is recording, appends a record holding the inputs, the output and a
closure mapping the output cotangent to input cotangents. Records land in
execution order, which is a valid topological order by construction, so
backward is a single reverse sweep that pops every record off the tape,
runs its vjp once and drops it: the sweep consumes the tape, and each
record's arrays are freed as soon as its vjp has run. Only leaves (tensors
built with ``requires_grad=True``) own a gradient buffer; cotangents of
primitive outputs live in the sweep alone.
The active tape lives in thread-local state, so tapes on different threads
record side by side. A tape may be used by one thread at a time: exited on
one thread, it can be re-entered and extended on another, and
backpropagated once.
"""

from __future__ import annotations

import threading

import numpy as np


class ShapeError(ValueError):
    """Input shapes do not conform to a primitive's signature."""


class NumericError(RuntimeError):
    """A computation produced non-finite values where finite ones are required."""


_TLS = threading.local()


def _tape_stack() -> list:
    stack = getattr(_TLS, "tapes", None)
    if stack is None:
        stack = []
        _TLS.tapes = stack
    return stack


def active_tape():
    """Innermost tape currently recording on this thread, or None."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class TapeRecord:
    """One primitive application: op name, inputs, output, and its vjp."""

    __slots__ = ("op", "inputs", "output", "vjp")

    def __init__(self, op, inputs, output, vjp):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


class Tape:
    """Execution-ordered record of primitive applications.

    Use as a context manager around a forward pass; a fresh tape is built for
    every pass, and ``backward`` empties it. Outside any tape, primitives
    evaluate without recording and their outputs do not require gradients.
    """

    def __init__(self):
        self.records: list[TapeRecord] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted; tapes must unwind in LIFO order")
        return False

    def __len__(self) -> int:
        return len(self.records)

    def record(self, op: str, inputs, output: Tensor, vjp) -> None:
        """Append one primitive application."""
        self.records.append(TapeRecord(op, tuple(inputs), output, vjp))


class Tensor:
    """A float64 n-dimensional value, optionally tracked for gradients.

    A leaf, built with ``requires_grad=True``, gets a zero-filled ``grad``
    that accumulates contributions from every consumer across backward passes
    until its owner zeroes it (training fills ``AdamState.grad_vec``). Primitive
    outputs on a tape are tracked too, but their ``grad`` stays None: backward
    hands their cotangents from record to record and drops each once consumed.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def backward(root: Tensor, tape: Tape | None = None) -> None:
    """Accumulate d(root)/d(leaf) into ``grad`` for every leaf on ``tape``,
    consuming the tape.

    ``root`` must be a tracked single-element tensor recorded on ``tape``
    (default: the currently active tape). Leaves add their cotangent into
    their own buffer in place, and leaves the root does not depend on keep
    their gradient. Other tracked tensors get no buffer: their cotangents
    wait in a table keyed by tensor identity until the sweep reaches the
    record that produced them, which consumes and drops them. vjps may
    return one array for two inputs or a read-only view, so a pending
    cotangent is never updated in place.

    The sweep pops each record off ``tape.records`` before running its vjp,
    so the record and the arrays its vjp keeps are freed when the vjp
    returns, and the tape is empty afterwards. Read the records before
    calling backward. A second backward over the consumed tape, or any
    backward of a tracked non-leaf root over an empty tape, raises
    RuntimeError rather than leave every gradient untouched.
    """
    if tape is None:
        tape = active_tape()
    if tape is None:
        raise RuntimeError("backward needs a tape; call inside `with Tape() as t:` or pass one")
    if root.data.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        raise RuntimeError("backward root is not tracked; it was not produced on a recording tape")
    if root.grad is None and not tape.records:
        raise RuntimeError("backward over an empty tape; backward consumes a tape, so run it once")
    pending: dict[int, np.ndarray] = {}

    def accumulate(tensor: Tensor, grad: np.ndarray) -> None:
        if tensor.grad is not None:
            tensor.grad += grad
            return
        prev = pending.get(id(tensor))
        pending[id(tensor)] = grad if prev is None else prev + grad

    def run(rec: TapeRecord) -> None:
        cotangent = pending.pop(id(rec.output), None)
        if cotangent is None:
            return
        for tensor, grad in zip(rec.inputs, rec.vjp(cotangent)):
            if grad is not None and tensor.requires_grad:
                accumulate(tensor, grad)

    accumulate(root, np.ones_like(root.data))
    records = tape.records
    while records:
        run(records.pop())  # dropped, with the arrays its vjp keeps, when run returns
