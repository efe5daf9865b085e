"""Reverse-mode automatic differentiation on numpy arrays.

The GRANITE paper implements its models in TensorFlow 1.x with DeepMind's
Graph Nets library.  Neither is available in this environment, so this module
provides the minimal tensor runtime the reproduction needs: a
:class:`Tensor` that records the operations applied to it and can compute
gradients of a scalar loss with respect to every tensor that participated in
its computation.

The design is the classic define-by-run tape: every operation creates a new
tensor whose ``_backward`` closure knows how to propagate the output gradient
to the inputs.  :meth:`Tensor.backward` performs a topological sort of the
recorded graph and runs the closures in reverse order.

Only the operations required by the models in this repository are
implemented (dense layers, layer normalisation, embeddings, LSTMs, graph
segment aggregations and the paper's loss functions), but they are
implemented with full broadcasting support so they compose freely.

Inference fast path
-------------------

Allocating a :class:`Tensor` wrapper (and, when gradients are enabled, a
backward closure) per operation is pure overhead during inference.  The
module-level functional operations below (:func:`matmul`,
:func:`gather_rows`, :func:`segment_sum`, :func:`relu`, ...) therefore
run plain numpy code whenever no operand is a :class:`Tensor` — no tape,
no closures, no wrapper allocations.  Layers switch their outputs to raw
arrays inside :class:`no_grad` (see :func:`fast_path_active`), so a whole
model forward stays on numpy end to end during inference.  Model code written
against the functional API transparently accepts and returns either
representation, which is what makes the batched prediction service fast.

Compute dtype
-------------

The fast path is additionally dtype-configurable: inside a
``compute_dtype("float32")`` context, :func:`raw` coerces operands to
``float32`` and every fast-path op preserves that dtype, so a whole no-grad
forward runs in single precision (roughly halving the Dense/LayerNorm
matmul cost on BLAS backends).  Reductions that are numerically delicate
(:func:`segment_sum` via ``bincount``, LayerNorm statistics in
``repro.nn.layers``) still accumulate in ``float64`` and cast the result
back.  The tape path is unaffected: differentiable :class:`Tensor` data is
always ``float64`` — master weights and training never run in reduced
precision, only inference does (see
``repro.models.base.ThroughputModel.predict``).

Execution mode
--------------

Three settings decide how an operation runs: whether gradients are recorded
(:class:`no_grad`), whether no-grad code takes the numpy fast path
(:class:`use_fast_path`), and the fast path's compute dtype
(:class:`compute_dtype`).  They live in one per-thread execution-mode
object, and each context manager saves and restores only its own field of
the calling thread's mode.  The serving stack predicts on several threads
at once, and a trainer may share the process: one thread's ``no_grad``
never switches gradients off for another, however their enter and exit
calls interleave.

Every layer has two paths:

* **no-grad numpy** — when gradients are off and the fast path is on
  (:func:`fast_path_active`, the inference default): raw arrays, no tape;
* **tape** — otherwise.  The hot composites are **fused** tape ops with
  hand-written backwards (:mod:`repro.nn.fused`): one node per Dense layer
  (matmul + bias + activation), one per LayerNorm and one per LSTM time
  step.  Under ``no_grad`` the tape path computes the same values without
  recording (``use_fast_path(False)``, the reference the fast path is
  checked against).

The tape's scatters are vectorized too:

* a :func:`scatter_rows` primitive whose backward is an O(N) gather
  re-packs the Ithemal model's instruction embeddings;
* every scatter-add (embedding / :meth:`Tensor.gather_rows` /
  :meth:`Tensor.segment_sum` / integer-array ``__getitem__``) runs on
  flattened ``np.bincount`` rather than ``np.add.at`` (roughly an order of
  magnitude faster for 2-D feature matrices), and basic-index slices
  accumulate in place into the parent's gradient region;
* gradients accumulate into preallocated per-tensor buffers (reused across
  steps for long-lived tensors such as :class:`repro.nn.module.Parameter`),
  and ``repro.nn.optim.Adam`` applies its update through one flat slab over
  all parameters.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "use_fast_path",
    "fast_path_active",
    "compute_dtype",
    "active_dtype",
    "resolve_dtype",
    "SUPPORTED_DTYPES",
    "raw",
    "matmul",
    "gather_rows",
    "scatter_rows",
    "segment_sum",
    "segment_mean",
    "relu",
    "tanh",
    "sigmoid",
    "stack",
    "concatenate",
    "where",
]

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

#: Dtype names accepted by :func:`resolve_dtype` / inference configurations.
SUPPORTED_DTYPES = ("float64", "float32")


class _ExecutionMode(threading.local):
    """The calling thread's execution mode (see "Execution mode" above).

    Thread-local because the serving stack runs predicts on several threads
    at once (async dispatcher, flush pool, client threads), possibly next to
    a training loop or a service of another precision: each thread's
    forward must see only its own contexts, or a predict could switch
    another thread's gradients off, or compute (and cache) float32 values
    for a float64 model.
    """

    def __init__(self) -> None:
        self.grad = True
        self.fast_path = True
        self.dtype = np.dtype(np.float64)


_MODE = _ExecutionMode()


class _ModeContext:
    """Sets one field of the calling thread's mode; restores it on exit."""

    _field = ""

    def __init__(self, value) -> None:
        self._value = value

    def __enter__(self):
        self._previous = getattr(_MODE, self._field)
        setattr(_MODE, self._field, self._value)
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        setattr(_MODE, self._field, self._previous)


def resolve_dtype(dtype: Union[str, np.dtype, type]) -> np.dtype:
    """Normalises a dtype spec (``"float32"``, ``np.float32``, ...) to a dtype.

    Raises:
        ValueError: If the dtype is not one of :data:`SUPPORTED_DTYPES`.
    """
    resolved = np.dtype(dtype)
    if resolved.name not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported compute dtype {dtype!r}; expected one of {SUPPORTED_DTYPES}"
        )
    return resolved


def active_dtype() -> np.dtype:
    """The dtype fast-path operations compute in (``float64`` by default).

    Per-thread: see :class:`compute_dtype`.
    """
    return _MODE.dtype


class compute_dtype(_ModeContext):
    """Context manager selecting the no-grad fast path's compute dtype.

    Only the raw-numpy fast path honours it: tape :class:`Tensor` data stays
    ``float64`` regardless, so gradients and master weights keep full
    precision.  Typical use is ``with no_grad(), compute_dtype("float32"):``
    around an inference forward — which is exactly what
    ``ThroughputModel.predict`` does when its ``inference_dtype`` says so.

    The state is per-thread, so concurrent predicts in different precisions
    (e.g. a float32 worker service next to a float64 model, or the async
    dispatcher flushing while a client thread predicts) never leak their
    dtype into each other's forwards.
    """

    _field = "dtype"

    def __init__(self, dtype: Union[str, np.dtype, type] = np.float64) -> None:
        super().__init__(resolve_dtype(dtype))


class use_fast_path(_ModeContext):
    """Context manager toggling the no-grad numpy fast path (per thread).

    The fast path is on by default; disabling it makes ``no_grad`` inference
    run through the tape path's :class:`Tensor` wrappers without recording,
    which is the reference the fast path is checked against and the
    throughput benchmarks' baseline ("seed path").
    """

    _field = "fast_path"

    def __init__(self, enabled: bool = True) -> None:
        super().__init__(bool(enabled))


def fast_path_active() -> bool:
    """True when ops should dispatch to raw numpy (no-grad fast path)."""
    mode = _MODE
    return not mode.grad and mode.fast_path


class no_grad(_ModeContext):
    """Context manager that disables gradient recording (per thread).

    Used during evaluation and inference to avoid building the autodiff
    graph, which keeps memory usage flat and inference fast.
    """

    _field = "grad"

    def __init__(self) -> None:
        super().__init__(False)


def is_grad_enabled() -> bool:
    """Returns True when operations on this thread record gradients."""
    return _MODE.grad


def _unbroadcast(gradient: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sums ``gradient`` down to ``shape`` to undo numpy broadcasting."""
    if gradient.shape == shape:
        return gradient
    # Sum over leading axes that were added by broadcasting.
    while gradient.ndim > len(shape):
        gradient = gradient.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and gradient.shape[axis] != 1:
            gradient = gradient.sum(axis=axis, keepdims=True)
    return gradient.reshape(shape)


def _row_scatter_add(target: np.ndarray, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``target[indices] += values`` with duplicate indices summed, in O(N).

    The 1-D/2-D cases run on flattened ``np.bincount`` (a single C loop over
    the value buffer) instead of ``np.add.at``, whose generalised-ufunc
    fallback is roughly an order of magnitude slower for the row-shaped
    scatters the training backwards perform.  Higher-rank values, which
    bincount cannot express, fall back to ``np.add.at``; no training hot
    path produces them.
    """
    if indices.size and int(indices.min()) < 0:
        # bincount rejects negative ids; wrap them exactly like numpy
        # indexing does (any index the forward accepted is in [-n, n)).
        indices = indices % target.shape[0]
    if values.ndim == 2 and target.ndim == 2:
        num_rows, num_features = target.shape
        flat_ids = indices[:, None] * num_features + np.arange(num_features, dtype=np.int64)
        target += np.bincount(
            flat_ids.ravel(), weights=values.ravel(), minlength=num_rows * num_features
        ).reshape(num_rows, num_features)
    elif values.ndim == 1 and target.ndim == 1:
        target += np.bincount(indices, weights=values, minlength=target.shape[0])
    else:
        np.add.at(target, indices, values)
    return target


def _is_basic_index(key) -> bool:
    """True for keys that select a *region* (no duplicates possible).

    Basic numpy indexing — integers, slices, ``None``/``Ellipsis`` and
    tuples thereof — addresses each output element exactly once, so the
    gradient can accumulate with a plain in-place ``+=`` on the parent's
    gradient region instead of a scatter-add.
    """
    basic_types = (int, np.integer, slice, type(None), type(Ellipsis))
    if isinstance(key, tuple):
        return all(isinstance(part, basic_types) for part in key)
    return isinstance(key, basic_types)


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff.

    Attributes:
        data: The underlying ``numpy.ndarray`` (always ``float64`` for
            differentiable tensors).
        grad: Accumulated gradient, populated by :meth:`backward`.  The
            array is a per-tensor buffer *reused across backward passes*
            (``zero_grad`` keeps it): a later backward on the same tensor
            overwrites it in place, so snapshot with ``grad.copy()`` when
            keeping gradients across steps.
        requires_grad: Whether gradients should flow into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name", "_grad_buffer")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data, dtype=np.float64)
        self.data: np.ndarray = array
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and _MODE.grad
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name
        # Preallocated gradient buffer, reused across backward passes for
        # long-lived tensors (parameters): zero_grad() drops self.grad but
        # keeps the buffer, so the next backward writes into the same
        # allocation instead of re-allocating per step.
        self._grad_buffer: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Basic properties.
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """Returns the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Returns the underlying numpy array (not a copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Returns a tensor sharing data but cut off from the autodiff graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Clears the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"

    # ------------------------------------------------------------------ #
    # Graph construction helpers.
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires_grad = _MODE.grad and any(parent.requires_grad for parent in parents)
        result = Tensor(data, requires_grad=requires_grad)
        if requires_grad:
            result._parents = tuple(parents)
            result._backward = backward
        return result

    def _accumulate(self, gradient: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            buffer = self._grad_buffer
            if buffer is not None and buffer.shape == np.shape(gradient):
                np.copyto(buffer, gradient)
                self.grad = buffer
            else:
                self.grad = np.array(gradient, dtype=np.float64, copy=True)
                self._grad_buffer = self.grad
        else:
            self.grad += gradient

    def _ensure_grad(self) -> np.ndarray:
        """Returns ``self.grad``, allocating (or reusing) a zeroed buffer.

        Used by backwards that accumulate *into a region* of the gradient
        (slice and scatter backwards) rather than adding a full-size array;
        they need the full-shape gradient to exist first.
        """
        if self.grad is None:
            buffer = self._grad_buffer
            if buffer is not None and buffer.shape == self.data.shape:
                buffer.fill(0.0)
            else:
                buffer = np.zeros(self.data.shape, dtype=np.float64)
                self._grad_buffer = buffer
            self.grad = buffer
        return self.grad

    def backward(self, gradient: Optional[np.ndarray] = None) -> None:
        """Backpropagates from this tensor to all ancestors.

        Args:
            gradient: Gradient of the final objective with respect to this
                tensor.  Defaults to ones, which is the usual choice when
                this tensor is a scalar loss.
        """
        if gradient is None:
            gradient = np.ones_like(self.data)
        else:
            gradient = np.asarray(gradient, dtype=np.float64)

        # Topological order via iterative depth-first search.
        order: List[Tensor] = []
        visited: set[int] = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(gradient)
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic.
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data + other.data

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(_unbroadcast(gradient, self.shape))
            other._accumulate(_unbroadcast(gradient, other.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(-gradient)

        return Tensor._make(data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data * other.data

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(_unbroadcast(gradient * other.data, self.shape))
            other._accumulate(_unbroadcast(gradient * self.data, other.shape))

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data / other.data

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(_unbroadcast(gradient / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-gradient * self.data / (other.data ** 2), other.shape)
            )

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        data = self.data ** exponent

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * exponent * self.data ** (exponent - 1.0))

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Matrix operations and shape manipulation.
    # ------------------------------------------------------------------ #
    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product ``self @ other`` for 2-D (or batched) operands."""
        other = as_tensor(other)
        data = self.data @ other.data

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(_unbroadcast(gradient @ np.swapaxes(other.data, -1, -2), self.shape))
            other._accumulate(_unbroadcast(np.swapaxes(self.data, -1, -2) @ gradient, other.shape))

        return Tensor._make(data, (self, other), backward)

    __matmul__ = matmul

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        """Permutes the axes of the tensor."""
        data = np.transpose(self.data, axes)

        def backward(gradient: np.ndarray) -> None:
            if axes is None:
                self._accumulate(np.transpose(gradient))
            else:
                inverse = np.argsort(axes)
                self._accumulate(np.transpose(gradient, inverse))

        return Tensor._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape: int) -> "Tensor":
        """Reshapes the tensor."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.shape
        data = self.data.reshape(shape)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient.reshape(original_shape))

        return Tensor._make(data, (self,), backward)

    def concatenate(self, others: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        """Concatenates ``[self, *others]`` along ``axis``."""
        tensors = [self] + [as_tensor(other) for other in others]
        data = np.concatenate([tensor.data for tensor in tensors], axis=axis)
        sizes = [tensor.data.shape[axis] for tensor in tensors]

        def backward(gradient: np.ndarray) -> None:
            offsets = np.cumsum([0] + sizes)
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                slices = [slice(None)] * gradient.ndim
                slices[axis] = slice(start, stop)
                tensor._accumulate(gradient[tuple(slices)])

        return Tensor._make(data, tuple(tensors), backward)

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]
        basic = _is_basic_index(key)

        def backward(gradient: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if basic:
                # Region accumulate: basic indexing cannot alias, so add the
                # gradient straight into the parent's gradient slice instead
                # of materialising a full-size zeros array per time step.
                self._ensure_grad()[key] += gradient
                return
            if isinstance(key, np.ndarray) and key.ndim == 1 and key.dtype.kind in "iu":
                _row_scatter_add(self._ensure_grad(), key, np.asarray(gradient))
                return
            full = np.zeros_like(self.data)
            np.add.at(full, key, gradient)
            self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions.
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sums over ``axis`` (all elements by default)."""
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(gradient: np.ndarray) -> None:
            grad = np.asarray(gradient)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis`` (all elements by default)."""
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; gradient flows to the arg-max entries."""
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(gradient: np.ndarray) -> None:
            grad = np.asarray(gradient)
            expanded = data
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
                expanded = np.expand_dims(data, axis=axis)
            mask = (self.data == expanded).astype(np.float64)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * grad)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Elementwise non-linearities.
    # ------------------------------------------------------------------ #
    def relu(self) -> "Tensor":
        """Rectified linear unit."""
        data = np.maximum(self.data, 0.0)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * (self.data > 0.0))

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * (1.0 - data ** 2))

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient / self.data)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * 0.5 / np.maximum(data, 1e-12))

        return Tensor._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        """Absolute value; the gradient at zero is defined as zero."""
        data = np.abs(self.data)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * np.sign(self.data))

        return Tensor._make(data, (self,), backward)

    def softplus(self) -> "Tensor":
        """Numerically stable ``log(1 + exp(x))``."""
        data = np.logaddexp(0.0, self.data)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient / (1.0 + np.exp(-self.data)))

        return Tensor._make(data, (self,), backward)

    def clip(self, minimum: float, maximum: float) -> "Tensor":
        """Clamps values; gradient is passed through inside the range only."""
        data = np.clip(self.data, minimum, maximum)

        def backward(gradient: np.ndarray) -> None:
            mask = (self.data >= minimum) & (self.data <= maximum)
            self._accumulate(gradient * mask)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Gather / scatter operations used by embeddings and graph networks.
    # ------------------------------------------------------------------ #
    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Selects rows by integer index (embedding lookup).

        Args:
            indices: Integer array of row indices; output row ``i`` is
                ``self[indices[i]]``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        data = self.data[indices]

        def backward(gradient: np.ndarray) -> None:
            if not self.requires_grad:
                return
            # O(N) bincount scatter-add into the (reused) grad buffer.
            rows = np.asarray(gradient).reshape((-1,) + self.data.shape[1:])
            _row_scatter_add(self._ensure_grad(), indices.reshape(-1), rows)

        return Tensor._make(data, (self,), backward)

    def scatter_rows(self, indices: np.ndarray, num_rows: int) -> "Tensor":
        """Writes row ``i`` of this tensor to row ``indices[i]`` of a zeros
        output with ``num_rows`` rows (the inverse of :meth:`gather_rows`).

        ``indices`` must be unique — each output row is written at most once;
        rows never referenced stay zero.  The backward is an O(N) gather,
        which is what makes this the scatter primitive for re-packing padded
        batches (see ``IthemalModel.embed_batch``), replacing a quadratic
        permutation-matrix matmul.
        """
        indices = np.asarray(indices, dtype=np.int64)
        output_shape = (num_rows,) + self.data.shape[1:]
        data = np.zeros(output_shape, dtype=np.float64)
        data[indices] = self.data

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient[indices])

        return Tensor._make(data, (self,), backward)

    def segment_sum(self, segment_ids: np.ndarray, num_segments: int) -> "Tensor":
        """Sums rows into ``num_segments`` buckets (scatter-add).

        This is the aggregation primitive of the graph network: edge features
        are summed per receiving node, node features are summed per graph.
        The forward runs on flattened ``np.bincount`` (see
        :func:`_row_scatter_add`).
        """
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        output_shape = (num_segments,) + self.data.shape[1:]
        data = _row_scatter_add(np.zeros(output_shape, dtype=np.float64), segment_ids, self.data)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient[segment_ids])

        return Tensor._make(data, (self,), backward)

    def segment_mean(self, segment_ids: np.ndarray, num_segments: int) -> "Tensor":
        """Averages rows per segment; empty segments produce zeros."""
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
        counts = np.maximum(counts, 1.0).reshape((num_segments,) + (1,) * (self.data.ndim - 1))
        summed = self.segment_sum(segment_ids, num_segments)
        return summed * Tensor(1.0 / counts)

    # ------------------------------------------------------------------ #
    # Comparisons (non-differentiable, return numpy arrays).
    # ------------------------------------------------------------------ #
    def greater(self, other: ArrayLike) -> np.ndarray:
        other = as_tensor(other)
        return self.data > other.data


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerces ``value`` to a :class:`Tensor` (no copy for tensors)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stacks tensors along a new axis (raw numpy under :class:`no_grad`)."""
    if not any(isinstance(tensor, Tensor) for tensor in tensors):
        return np.stack([raw(tensor) for tensor in tensors], axis=axis)
    tensors = [as_tensor(tensor) for tensor in tensors]
    data = np.stack([tensor.data for tensor in tensors], axis=axis)

    def backward(gradient: np.ndarray) -> None:
        pieces = np.split(gradient, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(data, tuple(tensors), backward)


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenates tensors along an existing axis (numpy under no_grad)."""
    if not any(isinstance(tensor, Tensor) for tensor in tensors):
        arrays = [raw(tensor) for tensor in tensors]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=axis)
    tensors = [as_tensor(tensor) for tensor in tensors]
    if len(tensors) == 1:
        return tensors[0]
    return tensors[0].concatenate(tensors[1:], axis=axis)


def where(condition: np.ndarray, on_true: Tensor, on_false: Tensor) -> Tensor:
    """Elementwise selection; ``condition`` is a boolean numpy array."""
    condition = np.asarray(condition, dtype=bool)
    if not isinstance(on_true, Tensor) and not isinstance(on_false, Tensor):
        return np.where(condition, raw(on_true), raw(on_false))
    on_true = as_tensor(on_true)
    on_false = as_tensor(on_false)
    data = np.where(condition, on_true.data, on_false.data)

    def backward(gradient: np.ndarray) -> None:
        on_true._accumulate(_unbroadcast(gradient * condition, on_true.shape))
        on_false._accumulate(_unbroadcast(gradient * (~condition), on_false.shape))

    return Tensor._make(data, (on_true, on_false), backward)


# ---------------------------------------------------------------------- #
# Functional operations with a no-grad numpy fast path.
#
# Model code (layers, GN blocks, decoders) calls these instead of Tensor
# methods so that, under ``no_grad``, the whole forward pass runs on raw
# numpy arrays without allocating a Tensor wrapper per operation.
# ---------------------------------------------------------------------- #
def raw(value: ArrayLike) -> np.ndarray:
    """Unwraps ``value`` to a ``numpy.ndarray`` of the active compute dtype.

    Under the default ``float64`` compute dtype this is the identity for
    tensor data and float64 arrays; inside a ``compute_dtype("float32")``
    context it casts (once, at the fast path's entry points — the fast-path
    ops themselves preserve dtype, so whole forwards cast each input a
    single time).
    """
    dtype = _MODE.dtype
    if isinstance(value, Tensor):
        data = value.data
    elif isinstance(value, np.ndarray):
        data = value
    else:
        return np.asarray(value, dtype=dtype)
    if data.dtype == dtype:
        return data
    return data.astype(dtype)


def matmul(left: ArrayLike, right: ArrayLike) -> Tensor:
    """Matrix product; runs on raw numpy when neither operand is a Tensor."""
    if not isinstance(left, Tensor) and not isinstance(right, Tensor):
        return raw(left) @ raw(right)
    return as_tensor(left) @ as_tensor(right)


def gather_rows(values: ArrayLike, indices: np.ndarray) -> Tensor:
    """Row gather (embedding lookup) with a raw-numpy fast path."""
    if not isinstance(values, Tensor):
        return raw(values)[np.asarray(indices, dtype=np.int64)]
    return values.gather_rows(indices)


def scatter_rows(values: ArrayLike, indices: np.ndarray, num_rows: int) -> Tensor:
    """Inverse row gather: ``out[indices[i]] = values[i]`` into ``num_rows`` rows.

    ``indices`` must be unique; unreferenced rows stay zero.  Raw-numpy fast
    path under ``no_grad``; on the tape the backward is an O(N) gather (see
    :meth:`Tensor.scatter_rows`).
    """
    if not isinstance(values, Tensor):
        array = raw(values)
        indices = np.asarray(indices, dtype=np.int64)
        output = np.zeros((num_rows,) + array.shape[1:], dtype=array.dtype)
        output[indices] = array
        return output
    return values.scatter_rows(indices, num_rows)


def segment_sum(values: ArrayLike, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Scatter-add of rows into segments with a raw-numpy fast path.

    The fast path uses a flattened ``np.bincount`` instead of ``np.add.at``,
    which is ~2.5x faster for the 2-D feature matrices the graph network
    aggregates (``add.at`` falls back to a slow element-wise ufunc loop).
    ``bincount`` accumulates in float64 whatever the compute dtype, so the
    float32 inference mode keeps full-precision sums and only the stored
    result is cast back.
    """
    if not isinstance(values, Tensor):
        array = raw(values)
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        if array.ndim == 2:
            num_features = array.shape[1]
            flat_ids = segment_ids[:, None] * num_features + np.arange(num_features, dtype=np.int64)
            summed = np.bincount(
                flat_ids.ravel(),
                weights=array.ravel(),
                minlength=num_segments * num_features,
            ).reshape(num_segments, num_features)
            return summed.astype(array.dtype, copy=False)
        if array.ndim == 1:
            summed = np.bincount(segment_ids, weights=array, minlength=num_segments)
            return summed.astype(array.dtype, copy=False)
        output = np.zeros((num_segments,) + array.shape[1:], dtype=np.float64)
        np.add.at(output, segment_ids, array)
        return output.astype(array.dtype, copy=False)
    return values.segment_sum(segment_ids, num_segments)


def segment_mean(values: ArrayLike, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Per-segment mean of rows with a raw-numpy fast path."""
    if not isinstance(values, Tensor):
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        summed = segment_sum(values, segment_ids, num_segments)
        counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
        counts = np.maximum(counts, 1.0).reshape((num_segments,) + (1,) * (summed.ndim - 1))
        summed /= counts
        return summed
    return values.segment_mean(segment_ids, num_segments)


def relu(value: ArrayLike) -> Tensor:
    """Rectified linear unit with a raw-numpy fast path."""
    if not isinstance(value, Tensor):
        return np.maximum(raw(value), 0.0)
    return value.relu()


def tanh(value: ArrayLike) -> Tensor:
    """Hyperbolic tangent with a raw-numpy fast path."""
    if not isinstance(value, Tensor):
        return np.tanh(raw(value))
    return value.tanh()


def sigmoid(value: ArrayLike) -> Tensor:
    """Logistic sigmoid with a raw-numpy fast path."""
    if not isinstance(value, Tensor):
        array = raw(value)
        return 1.0 / (1.0 + np.exp(-array))
    return value.sigmoid()
