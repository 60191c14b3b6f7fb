"""Dense float64 tensors with tape-based reverse-mode differentiation.

The carrier for every numeric value in the library. Design points that the
rest of the package leans on:

* All storage is 64-bit, row-major. Desk-scale sizes make memory irrelevant
  and tight gradient tolerances possible.
* A ``Tape`` records operations only while active (``with Tape() as t:``)
  and only for results that depend on a tensor with ``requires_grad``.
  Without an active tape every op is a plain numpy computation, so
  evaluation paths carry no autodiff overhead.
* Backward computes only the products that reach a ``requires_grad`` leaf:
  each closure is told which of its inputs need a gradient and skips the
  others, so a frozen weight, an input image or a constant costs nothing.
  A node's first gradient piece is kept without a copy when its closure
  allocated it (a weight product, say); a piece that is the upstream
  gradient or a view of it is copied, so no two nodes' gradients alias.
* ``set_sum`` / ``set_max`` reduce over the leading axis in a canonical
  (value-sorted) accumulation order, which makes reductions over an
  unordered set bit-stable under reordering of the rows. ``reduce_sum``
  keeps numpy's layout-order accumulation and is the general-purpose op.
* The graph is acyclic in memory: a tape holds its tensors and backward
  closures, and no tensor refers back to a tape. A step's whole graph is
  therefore freed by reference counting as soon as its tape is dropped
  (in training, when the next step's ``Tape()`` replaces it), with no
  wait for a cyclic garbage collection.
* ``matmul_rows`` computes each output row as its own [1,K] @ [K,P]
  product in one stacked numpy call: a row's bits then cannot depend on
  where it sits in the stack (plain gemm does not guarantee that).
* ``gru_cell`` is one GRU step over a batch of rows as a single primitive
  with a hand-derived backward, bit-identical to the same step spelled out
  in primitives, so a recurrent step costs one tape entry however many sets
  it advances. ``take_rows`` gathers rows by index and ``stack_rows``
  concatenates row blocks, which is all a packed recurrence needs.
* ``finite_diff_grad`` is the independent gradient oracle; it never touches
  the tape machinery.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, NumericOverflowError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "matmul",
    "matmul_rows",
    "ew_binary",
    "sigmoid",
    "relu",
    "softmax_set",
    "reduce_sum",
    "set_sum",
    "set_max",
    "add_rowvec",
    "repeat_cols",
    "reshape",
    "take_rows",
    "stack_rows",
    "gru_cell",
    "bce_loss",
    "backward",
    "finite_diff_grad",
]


class Tensor:
    """Dense float64 array, optionally holding a gradient of the same size."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def values(self) -> np.ndarray:
        """Flat row-major view of the stored values."""
        return self.data.reshape(-1)

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={list(self.shape)}, requires_grad={self.requires_grad})"

    # Arithmetic sugar over the two elementwise ops. Scalars are allowed.
    def __add__(self, other):
        return ew_binary("add", self, _as_tensor(other))

    def __radd__(self, other):
        return ew_binary("add", _as_tensor(other), self)

    def __mul__(self, other):
        return ew_binary("mul", self, _as_tensor(other))

    def __rmul__(self, other):
        return ew_binary("mul", _as_tensor(other), self)

    def __sub__(self, other):
        return ew_binary("add", self, ew_binary("mul", _as_tensor(other), _const(-1.0)))

    def __rsub__(self, other):
        return ew_binary("add", _as_tensor(other), ew_binary("mul", self, _const(-1.0)))

    def __neg__(self):
        return ew_binary("mul", self, _const(-1.0))


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _const(v: float) -> Tensor:
    return Tensor(np.float64(v))


class Tape:
    """Ordered record of operations for one reverse pass.

    Entries are appended in execution order, so inputs always precede the
    op that consumes them; the reverse sweep visits each entry exactly once.
    A tape can be consumed by ``backward`` at most once.

    A tensor becomes a node only when it leads to a ``requires_grad`` leaf:
    such a leaf itself, or the output of an op with at least one such input.
    Being a node is that flag, so an op whose inputs are all non-nodes is
    not recorded, and an entry's non-node inputs get no id and no gradient.
    Node ids live only in the tape's ``_ids`` map, keyed by ``id(tensor)``,
    and stay valid because ``tensors`` keeps every node alive.
    """

    _active: "Tape | None" = None

    def __init__(self):
        self.entries: list[tuple[int, tuple[int | None, ...], tuple[bool, ...], Callable]] = []
        self.tensors: list[Tensor] = []
        self._ids: dict[int, int] = {}
        self.consumed = False

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise ContractError("a tape is already active; nested tapes are not supported")
        Tape._active = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        Tape._active = None

    def needs(self, t: Tensor) -> bool:
        """Whether ``t`` leads to a ``requires_grad`` leaf."""
        return t.requires_grad or id(t) in self._ids

    def node(self, t: Tensor) -> int:
        nid = self._ids.get(id(t))
        if nid is None:
            nid = len(self.tensors)
            self._ids[id(t)] = nid
            self.tensors.append(t)
        return nid

    def record(self, out: Tensor, inputs: Sequence[Tensor], need: tuple[bool, ...],
               backward_fn: Callable) -> None:
        in_ids = tuple(self.node(t) if n else None for t, n in zip(inputs, need))
        out_id = self.node(out)
        self.entries.append((out_id, in_ids, need, backward_fn))

    def backward(self, loss: Tensor) -> None:
        if self.consumed:
            raise ContractError("tape already consumed; rerun the forward pass before backward")
        if loss.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {list(loss.shape)}")
        lid = self._ids.get(id(loss))
        if lid is None:
            raise ContractError("loss tensor was not recorded on this tape")
        self.consumed = True

        grads: list[np.ndarray | None] = [None] * len(self.tensors)
        grads[lid] = np.ones_like(loss.data)
        for out_id, in_ids, need, backward_fn in reversed(self.entries):
            g = grads[out_id]
            if g is None:
                continue
            for nid, piece in zip(in_ids, backward_fn(g, need)):
                if nid is None or piece is None:
                    continue
                if grads[nid] is None:
                    # A piece the closure allocated is kept as it is; g or a
                    # view of g is copied, so no two nodes share storage.
                    grads[nid] = piece if piece.base is None and piece is not g else piece.copy()
                else:
                    grads[nid] += piece
        for t, g in zip(self.tensors, grads):
            if t.requires_grad and g is not None:
                t.grad = g.reshape(-1)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every recorded tensor that requires one, from
    the active tape."""
    if Tape._active is None:
        raise ContractError("backward needs an active tape")
    Tape._active.backward(loss)


def _record(out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """Record ``out`` if some input leads to a ``requires_grad`` leaf.

    ``backward_fn(g, need)`` returns one gradient (or None) per input.
    ``need[i]`` says whether input ``i`` leads to a ``requires_grad`` leaf;
    a closure returns None where it does not, rather than computing a
    product nobody reads (backward drops such a piece either way).
    Each piece is ``g`` itself, a view of ``g``, or an array the closure
    allocated for that input alone: backward keeps the last kind without a
    copy and accumulates later pieces into it in place.
    """
    tape = Tape._active
    if tape is not None:
        need = tuple(tape.needs(t) for t in inputs)
        if any(need):
            tape.record(out, inputs, need, backward_fn)
    return out


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericOverflowError(f"{op} produced a non-finite value")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a [M,K] by a [K,P] tensor."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {list(a.shape)} x {list(b.shape)}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner extents disagree: {list(a.shape)} x {list(b.shape)}")
    out = Tensor(a.data @ b.data)
    _check_finite(out.data, "matmul")

    def bwd(g, need):
        return (g @ b.data.T if need[0] else None, a.data.T @ g if need[1] else None)

    return _record(out, (a, b), bwd)


def matmul_rows(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product whose output rows are computed one at a time.

    Each row of the result is then a pure function of the matching input
    row and ``b``, independent of how the rows are stacked; reordering the
    rows of ``a`` reorders the result bit-exactly.
    """
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul_rows needs rank-2 operands, got {list(a.shape)} x {list(b.shape)}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner extents disagree: {list(a.shape)} x {list(b.shape)}")
    # One [1,K] @ [K,P] product per row, with the bits of ``a[i:i+1] @ b`` for
    # every layout of ``a``; a contiguous copy of a strided ``a`` would lose them.
    out = Tensor(np.matmul(a.data[:, None, :], b.data)[:, 0, :])
    _check_finite(out.data, "matmul_rows")

    def bwd(g, need):
        return (g @ b.data.T if need[0] else None, a.data.T @ g if need[1] else None)

    return _record(out, (a, b), bwd)


def ew_binary(op: str, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add or mul of same-shape tensors (or one scalar operand)."""
    if op not in ("add", "mul"):
        raise ContractError(f"unknown elementwise op {op!r}")
    a_scalar, b_scalar = a.size == 1, b.size == 1
    if a.shape != b.shape and not (a_scalar or b_scalar):
        raise ShapeError(f"shape mismatch for {op}: {list(a.shape)} vs {list(b.shape)}")
    if op == "add":
        out = Tensor(a.data + b.data)
    else:
        out = Tensor(a.data * b.data)
    _check_finite(out.data, op)

    def reduce_to(g, t, is_scalar):
        if is_scalar and g.shape != t.data.shape:
            return np.sum(g).reshape(t.data.shape)
        return g

    if op == "add":
        def bwd(g, need):
            return (reduce_to(g, a, a_scalar) if need[0] else None,
                    reduce_to(g, b, b_scalar) if need[1] else None)
    else:
        def bwd(g, need):
            return (reduce_to(g * b.data, a, a_scalar) if need[0] else None,
                    reduce_to(g * a.data, b, b_scalar) if need[1] else None)

    return _record(out, (a, b), bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) cannot overflow; one exp serves both branches
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a: Tensor) -> Tensor:
    """Elementwise logistic function."""
    y = _sigmoid(a.data)
    out = Tensor(y)
    _check_finite(out.data, "sigmoid")

    def bwd(g, need):
        return (g * y * (1.0 - y),)

    return _record(out, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    """Elementwise max(x, 0); the gradient at 0 is 0."""
    x = a.data
    out = Tensor(np.maximum(x, 0.0))
    _check_finite(out.data, "relu")

    def bwd(g, need):
        return (g * (x > 0.0),)

    return _record(out, (a,), bwd)


def _sorted_axis0_sum(arr: np.ndarray) -> np.ndarray:
    # Canonical accumulation order: summands sorted per slot before adding,
    # so the value of the sum cannot depend on the order of the rows.
    return np.sort(arr, axis=0).sum(axis=0)


def softmax_set(c: Tensor) -> Tensor:
    """Normalize an [N,D] stack over its set axis, independently per slot.

    Stabilized by per-slot max subtraction, which is exact at N=1 (the
    single score is exactly 1.0) and removes exp overflow for any input.
    """
    if c.data.ndim != 2:
        raise ShapeError(f"softmax_set needs an [N,D] tensor, got {list(c.shape)}")
    shifted = c.data - c.data.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    denom = _sorted_axis0_sum(e)
    s = e / denom
    out = Tensor(s)
    _check_finite(out.data, "softmax_set")

    def bwd(g, need, s=s):
        return (s * (g - (g * s).sum(axis=0, keepdims=True)),)

    return _record(out, (c,), bwd)


def reduce_sum(a: Tensor, axis: int) -> Tensor:
    """Sum over one axis, removing it. Accumulation order is fixed by the
    row-major layout, so repeated runs are bit-identical."""
    if not 0 <= axis < a.data.ndim:
        raise ShapeError(f"axis {axis} out of range for rank {a.data.ndim}")
    out = Tensor(a.data.sum(axis=axis))
    _check_finite(out.data, "reduce_sum")

    def bwd(g, need):
        return (np.repeat(np.expand_dims(g, axis), a.shape[axis], axis=axis),)

    return _record(out, (a,), bwd)


def set_sum(a: Tensor) -> Tensor:
    """Sum over the leading (set) axis in canonical value order.

    Bit-stable under any reordering of the rows; use for reductions whose
    input is semantically an unordered set.
    """
    if a.data.ndim < 1:
        raise ShapeError("set_sum needs at least rank 1")
    out = Tensor(_sorted_axis0_sum(a.data))
    _check_finite(out.data, "set_sum")

    def bwd(g, need):
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record(out, (a,), bwd)


def set_max(a: Tensor) -> Tensor:
    """Max over the leading (set) axis; subgradient routes to the first
    argmax row on ties."""
    if a.data.ndim < 1:
        raise ShapeError("set_max needs at least rank 1")
    out = Tensor(a.data.max(axis=0))
    _check_finite(out.data, "set_max")
    winners = a.data.argmax(axis=0)

    def bwd(g, need, winners=winners):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, winners[None, ...], g[None, ...], axis=0)
        return (full,)

    return _record(out, (a,), bwd)


def add_rowvec(mat: Tensor, row: Tensor) -> Tensor:
    """Add a [1,F] row vector to every row of an [N,F] matrix."""
    if mat.data.ndim != 2 or row.data.ndim != 2 or row.shape[0] != 1:
        raise ShapeError(f"add_rowvec needs [N,F] + [1,F], got {list(mat.shape)} + {list(row.shape)}")
    if mat.shape[1] != row.shape[1]:
        raise ShapeError(f"width mismatch: {list(mat.shape)} + {list(row.shape)}")
    out = Tensor(mat.data + row.data)
    _check_finite(out.data, "add_rowvec")

    def bwd(g, need):
        return (g if need[0] else None, g.sum(axis=0, keepdims=True) if need[1] else None)

    return _record(out, (mat, row), bwd)


def repeat_cols(a: Tensor, width: int) -> Tensor:
    """Broadcast an [N,1] column across ``width`` columns."""
    if a.data.ndim != 2 or a.shape[1] != 1:
        raise ShapeError(f"repeat_cols needs an [N,1] tensor, got {list(a.shape)}")
    out = Tensor(np.repeat(a.data, width, axis=1))

    def bwd(g, need):
        return (g.sum(axis=1, keepdims=True),)

    return _record(out, (a,), bwd)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    """``a`` with new extents; ``a`` itself when they are unchanged, so a
    no-op reshape records nothing on the tape."""
    shape = tuple(int(s) for s in shape)
    if shape == a.shape:
        return a
    if math.prod(shape) != a.size:
        raise ShapeError(f"cannot reshape {list(a.shape)} to {list(shape)}")
    out = Tensor(a.data.reshape(shape))

    def bwd(g, need):
        return (g.reshape(a.shape),)

    return _record(out, (a,), bwd)


def take_rows(a: Tensor, rows: Sequence[int]) -> Tensor:
    """The given distinct rows of an [N,F] matrix, in the given order, as a
    [len(rows), F] tensor."""
    if a.data.ndim != 2:
        raise ShapeError(f"take_rows needs a rank-2 tensor, got {list(a.shape)}")
    sel = np.asarray(rows, dtype=np.intp)
    distinct = np.unique(sel)
    if sel.ndim != 1 or sel.size == 0 or distinct[0] < 0 or distinct[-1] >= a.shape[0]:
        raise ShapeError(f"rows {sel.tolist()} out of range for {list(a.shape)}")
    if distinct.size != sel.size:  # a repeated row's gradient pieces would collide
        raise ContractError(f"take_rows needs distinct rows, got {sel.tolist()}")
    out = Tensor(a.data[sel])

    def bwd(g, need):
        full = np.zeros_like(a.data)
        full[sel] = g
        return (full,)

    return _record(out, (a,), bwd)


def stack_rows(tensors: Iterable[Tensor]) -> Tensor:
    """Stack rank-1 rows and [b,F] blocks, in order, into an [N,F] matrix."""
    ts = list(tensors)
    if not ts:
        raise ContractError("stack_rows needs at least one tensor")
    if any(t.data.ndim not in (1, 2) for t in ts):
        raise ShapeError("stack_rows needs rank-1 rows or rank-2 blocks")
    blocks = [t.data.reshape(1, -1) if t.data.ndim == 1 else t.data for t in ts]
    width = blocks[0].shape[1]
    if any(b.shape[1] != width for b in blocks):
        raise ShapeError("stack_rows needs equal row widths")
    out = Tensor(np.vstack(blocks))
    ends = list(accumulate(b.shape[0] for b in blocks))

    def bwd(g, need):
        return tuple(g[end - b.shape[0] : end].reshape(t.shape) if n else None
                     for t, b, end, n in zip(ts, blocks, ends, need))

    return _record(out, ts, bwd)


def gru_cell(x: Tensor, h: Tensor, Wz: Tensor, Uz: Tensor, bz: Tensor, Wr: Tensor,
             Ur: Tensor, br: Tensor, Wh: Tensor, Uh: Tensor, bh: Tensor) -> Tensor:
    """One GRU step on B rows at once, [B,D] inputs and [B,H] states, as one
    tape entry:

        z = sigmoid(x Wz + h Uz + bz)        r = sigmoid(x Wr + h Ur + br)
        c = tanh(x Wh + (r * h) Uh + bh)     h' = (1 - z) * h + z * c

    with tanh(a) = 2 sigmoid(2a) - 1. Forward and backward run the same
    numpy operations in the same order as the chain of primitives that
    spells this out (each gradient's pieces summed in that chain's reverse
    order; a weight's piece is ``matmul``'s ``rows.T @ g`` over the B rows),
    so results are bit-identical to it.
    """
    if x.data.ndim != 2 or h.data.ndim != 2 or x.shape[0] != h.shape[0]:
        raise ShapeError(f"gru_cell needs [B,D] and [B,H] rows, got {list(x.shape)}, {list(h.shape)}")
    width = h.shape[1]
    for w, rows in ((Wz, x.shape[1]), (Uz, width), (bz, 1), (Wr, x.shape[1]), (Ur, width),
                    (br, 1), (Wh, x.shape[1]), (Uh, width), (bh, 1)):
        if w.shape != (rows, width):
            raise ShapeError(f"gru_cell weight {list(w.shape)} does not fit input "
                             f"{list(x.shape)} and state {list(h.shape)}")
    # A non-finite intermediate reaches a_z, a_r, 2 a_h or the output, so
    # checking those four raises wherever the primitive chain would.
    xd, hd = x.data, h.data
    a_z = xd @ Wz.data + hd @ Uz.data + bz.data
    _check_finite(a_z, "gru_cell")
    z = _sigmoid(a_z)
    a_r = xd @ Wr.data + hd @ Ur.data + br.data
    _check_finite(a_r, "gru_cell")
    r = _sigmoid(a_r)
    rh = r * hd
    a_h2 = (xd @ Wh.data + rh @ Uh.data + bh.data) * 2.0
    _check_finite(a_h2, "gru_cell")
    s = _sigmoid(a_h2)
    cand = s * 2.0 - 1.0
    omz = 1.0 - z
    out = Tensor(omz * hd + z * cand)
    _check_finite(out.data, "gru_cell")

    def bwd(g, need):
        nx, nh, nWz, nUz, nbz, nWr, nUr, nbr, nWh, nUh, nbh = need
        need_az = nx or nh or nWz or nUz or nbz
        need_ar = nx or nh or nWr or nUr or nbr
        need_ah = need_ar or nWh or nUh or nbh  # the r path runs through a_h
        # gh and gx sum their pieces in the order the chain's reverse sweep
        # reaches them: gh from (1-z)*h, r*h, h Ur, h Uz; gx from Wh, Wr, Wz.
        # Bias pieces keep add_rowvec's row sum, which also maps -0.0 to +0.0.
        gx = gh = g_az = g_ar = g_ah = None
        if need_az:
            gz = g * cand
            gz += (g * hd) * -1.0
            g_az = gz * z * (1.0 - z)
        if nh:
            gh = g * omz
        if need_ah:
            g_ah = (((g * z) * 2.0) * s * (1.0 - s)) * 2.0
            if nx:
                gx = g_ah @ Wh.data.T
        if need_ar:
            g_rh = g_ah @ Uh.data.T
            g_ar = (g_rh * hd) * r * (1.0 - r)
            if nh:
                gh += g_rh * r
        if nh:
            gh += g_ar @ Ur.data.T
            gh += g_az @ Uz.data.T
        if nx:
            gx += g_ar @ Wr.data.T
            gx += g_az @ Wz.data.T
        return (gx, gh,
                xd.T @ g_az if nWz else None,
                hd.T @ g_az if nUz else None,
                g_az.sum(axis=0, keepdims=True) if nbz else None,
                xd.T @ g_ar if nWr else None,
                hd.T @ g_ar if nUr else None,
                g_ar.sum(axis=0, keepdims=True) if nbr else None,
                xd.T @ g_ah if nWh else None,
                rh.T @ g_ah if nUh else None,
                g_ah.sum(axis=0, keepdims=True) if nbh else None)

    return _record(out, (x, h, Wz, Uz, bz, Wr, Ur, br, Wh, Uh, bh), bwd)


_BCE_EPS = 1e-7


def bce_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean binary cross-entropy; predictions clamped to [1e-7, 1-1e-7]."""
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch: {list(pred.shape)} vs {list(target.shape)}")
    p = np.clip(pred.data, _BCE_EPS, 1.0 - _BCE_EPS)
    t = target.data
    per = -(t * np.log(p) + (1.0 - t) * np.log1p(-p))
    out = Tensor(per.mean())
    _check_finite(out.data, "bce_loss")
    n = pred.size

    def bwd(g, need, p=p, t=t, n=n):
        inside = (pred.data > _BCE_EPS) & (pred.data < 1.0 - _BCE_EPS)
        dp = (p - t) / (p * (1.0 - p)) / n * inside
        return (float(g) * dp, None)

    return _record(out, (pred, target), bwd)


def enable_fault(name: str) -> None:
    """``selftest.enable_fault``, for callers outside the package that
    reach it through this module."""
    from .selftest import enable_fault as enable
    enable(name)


def clear_faults() -> None:
    """``selftest.clear_faults``, as for ``enable_fault``."""
    from .selftest import clear_faults as clear
    clear()


def finite_diff_grad(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> Tensor:
    """Central-difference gradient of a pure scalar function of ``x``.

    Independent of the tape machinery by construction: only forward
    evaluations of ``f`` at perturbed copies of ``x``.
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    saved, Tape._active = Tape._active, None  # oracle never records
    try:
        flat = x.data.reshape(-1)
        grad = np.empty_like(flat)
        for i in range(flat.size):
            bumped = flat.copy()
            bumped[i] = flat[i] + eps
            hi = f(Tensor(bumped.reshape(x.shape))).item()
            bumped[i] = flat[i] - eps
            lo = f(Tensor(bumped.reshape(x.shape))).item()
            grad[i] = (hi - lo) / (2.0 * eps)
    finally:
        Tape._active = saved
    return Tensor(grad.reshape(x.shape))
