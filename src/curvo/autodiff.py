"""Tape-based reverse-mode differentiation over dense float64 matrices.

Deliberately minimal: the engine is ``Tape``, ``Value``, ``fused``,
``backward``, ``ParamStore`` and ``adam_step``. Values are handles into an
append-only Tape; the tape is rebuilt for every forward pass
(define-by-run), while long-lived parameters and their Adam state live in a
ParamStore's four flat vectors and are re-attached to each new tape as leaves.

A tape node is its forward array, its parents' node ids and one VJP callable
that maps the node's adjoint to one contribution per parent. The tape holds
no Value, and no VJP captures one, so a tape is freed as soon as its last
Value is dropped, without waiting for the cycle collector. Every operation is
a kernel computed off-tape and recorded by ``fused`` with its hand-written
VJP: a training step records the parameter leaves, one node for the whole
LSTM sequence (the forward and its BPTT) and one for the training objective.
VJPs run only in ``backward``, so a forward pass computes no derivatives.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatchError(ValueError):
    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")
        self.shapes = shapes


class NonScalarLossError(ValueError):
    """backward() was given a Value that is not 1x1."""


class Value:
    """Handle to one tape node; ``data`` is the forward result."""

    __slots__ = ("tape", "node_id", "data")

    def __init__(self, tape: "Tape", node_id: int, data: np.ndarray):
        self.tape = tape
        self.node_id = node_id
        self.data = data

    @property
    def grad(self) -> np.ndarray | None:
        grads = self.tape._grads
        return grads[self.node_id] if self.node_id < len(grads) else None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])


class Tape:
    """Append-only record of one forward computation, one list entry per node."""

    def __init__(self):
        self._data: list[np.ndarray] = []
        self._parents: list[tuple[int, ...]] = []
        self._vjps: list = []  # adjoint -> one contribution per parent
        self._owners: dict[int, tuple] = {}  # (ParamStore, name) of watched leaves
        self._grads: list[np.ndarray] = []  # filled by backward
        self._param_leaves: dict[tuple[int, str], int] = {}  # -> node id

    def __len__(self) -> int:
        return len(self._data)

    def _record(self, data: np.ndarray, parents=(), vjp=None) -> Value:
        node_id = len(self._data)
        self._data.append(data)
        self._parents.append(parents)
        self._vjps.append(vjp)
        return Value(self, node_id, data)

    def leaf(self, data, owner=None) -> Value:
        value = self._record(np.asarray(data, dtype=np.float64))
        if owner is not None:
            self._owners[value.node_id] = owner
        return value


def fused(inputs, data, vjp) -> Value:
    """Node for a kernel computed off-tape, with its hand-written VJP.

    ``data`` is the kernel's forward result; ``vjp(g)`` maps the node's
    adjoint to one contribution per input, each shaped like that input. The
    VJP runs only during ``backward``.
    """
    tape = inputs[0].tape
    if any(v.tape is not tape for v in inputs):
        raise ValueError("fused: values belong to different tapes")
    return tape._record(
        np.asarray(data, dtype=np.float64), tuple(v.node_id for v in inputs), vjp
    )


def backward(loss: Value) -> None:
    """Reverse sweep from a scalar loss; fills grads and ParamStore.grads.

    Every node touched by the sweep gets its adjoint; all remaining nodes get
    an explicit zero gradient.
    """
    if loss.data.shape != (1, 1):
        raise NonScalarLossError(f"loss must be 1x1, got {loss.data.shape}")
    tape = loss.tape
    data, parents_of, vjps, owners = tape._data, tape._parents, tape._vjps, tape._owners
    adjoint: list[np.ndarray | None] = [None] * len(data)
    adjoint[loss.node_id] = np.ones((1, 1))

    grads: list[np.ndarray] = [None] * len(data)
    for node_id in range(len(data) - 1, -1, -1):
        g = adjoint[node_id]
        if g is None:
            grads[node_id] = np.zeros_like(data[node_id])
            continue
        grads[node_id] = g
        parents = parents_of[node_id]
        if parents:
            for parent_id, contribution in zip(parents, vjps[node_id](g)):
                acc = adjoint[parent_id]
                adjoint[parent_id] = contribution.copy() if acc is None else acc + contribution
        owner = owners.get(node_id)
        if owner is not None:
            store, name = owner
            store.grads[name] += g
    tape._grads = grads


# --- parameters, Adam, checkpointing -----------------------------------------

_CHECKPOINT_MAGIC = "CURVO-CHECKPOINT 1"


def _views(vector: np.ndarray, shapes: dict) -> dict[str, np.ndarray]:
    """Consecutive named views into ``vector``, one per (name, shape), in order."""
    views, start = {}, 0
    for name, (rows, cols) in shapes.items():
        views[name] = vector[start : start + rows * cols].reshape(rows, cols)
        start += rows * cols
    return views


class ParamStore:
    """Named trainable matrices with Adam state, in four flat float64 vectors.

    ``params[name]`` and ``grads[name]`` are views into the parameter and
    gradient vectors, so Adam, ``scale_grads`` and ``zero_grads`` are whole-vector
    calls, and an entry written through a view is what they, ``grad_norm`` and
    ``save`` see. ``leaf`` re-registers the views on a fresh tape each step
    without copying; ``add`` moves the values into new vectors and rebuilds every view.
    """

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._flat = self._moment1 = self._moment2 = self._grad_flat = np.zeros(0)
        self.step_count = 0

    def add(self, name: str, array) -> None:
        if name in self.params:
            raise ValueError(f"parameter {name!r} already exists")
        arr = np.array(array, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"parameter {name!r} must be 2-D, got shape {arr.shape}")
        shapes = {**{n: p.shape for n, p in self.params.items()}, name: arr.shape}
        vectors = (self._flat, self._grad_flat, self._moment1, self._moment2)
        parts = (arr.reshape(-1),) + (np.zeros(arr.size),) * 3
        self._flat, self._grad_flat, self._moment1, self._moment2 = (
            np.concatenate(pair) for pair in zip(vectors, parts))
        self.params, self.grads = _views(self._flat, shapes), _views(self._grad_flat, shapes)

    def names(self):
        return list(self.params)

    def leaf(self, tape: Tape, name: str) -> Value:
        key = (id(self), name)
        if key not in tape._param_leaves:
            tape._param_leaves[key] = tape.leaf(self.params[name], owner=(self, name)).node_id
        node_id = tape._param_leaves[key]
        return Value(tape, node_id, tape._data[node_id])

    def zero_grads(self) -> None:
        self._grad_flat.fill(0.0)

    def grad_norm(self) -> float:
        """The Euclidean norm of every gradient entry: one dot of the flat vector."""
        return float(np.sqrt(np.dot(self._grad_flat, self._grad_flat)))

    def scale_grads(self, factor: float) -> None:
        self._grad_flat *= factor

    def params_copy(self) -> "ParamStore":
        """Copies of the parameters alone, without gradients or Adam state."""
        copy = ParamStore()
        copy._flat = self._flat.copy()
        copy.params = _views(copy._flat, {name: p.shape for name, p in self.params.items()})
        return copy

    def save(self, path) -> None:
        """Textual checkpoint: magic header, then name/shape/row-major values."""
        with open(path, "w") as f:
            f.write(f"{_CHECKPOINT_MAGIC}\n")
            f.write(f"params {len(self.params)}\n")
            for name in self.params:
                arr = self.params[name]
                f.write(f"{name} {arr.shape[0]} {arr.shape[1]}\n")
                f.write(" ".join(map(repr, arr.reshape(-1).tolist())))
                f.write("\n")

    @classmethod
    def load(cls, path) -> "ParamStore":
        store = cls()
        with open(path) as f:
            if f.readline().strip() != _CHECKPOINT_MAGIC:
                raise ValueError(f"{path}: not a recognized checkpoint file")
            count = int(f.readline().split()[1])
            for _ in range(count):
                name, rows, cols = f.readline().split()
                values = np.array([float(v) for v in f.readline().split()])
                store.add(name, values.reshape(int(rows), int(cols)))
        return store


def adam_step(store: ParamStore, lr: float, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    """Standard bias-corrected Adam update over the flat vectors, elementwise as
    per parameter; zeroes the gradients afterwards."""
    store.step_count += 1
    t = store.step_count
    g, m, v = store._grad_flat, store._moment1, store._moment2
    m[...] = beta1 * m + (1.0 - beta1) * g
    v[...] = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    store._flat -= lr * m_hat / (np.sqrt(v_hat) + eps)
    store.zero_grads()
