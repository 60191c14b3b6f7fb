"""Dense float64 tensors with tape-based reverse-mode differentiation.

The carrier for every numeric value in the library. Design points that the
rest of the package leans on:

* All storage is 64-bit, row-major. Desk-scale sizes make memory irrelevant
  and tight gradient tolerances possible.
* A ``Tape`` records operations only while active (``with Tape() as t:``)
  and only for results that depend on a tensor with ``requires_grad``.
  Without an active tape every op is a plain numpy computation, so
  evaluation paths carry no autodiff overhead.
* Every checked op is built by one constructor, ``_op``: it wraps the
  result, checks that it is finite and records it on the active tape.
  The copy ops ``reshape``, ``take_rows`` and ``stack_rows`` compute no
  value, so they skip the finite check.
* ``ew_binary`` adds or multiplies under numpy's broadcasting rule, the
  one broadcast in the core: a [1,F] bias row, an [N,1] column of scores
  and a 0-d scalar all spread over the other operand. An operand's
  gradient is the upstream piece summed (keepdims) over the leading axes
  it lacks and over each axis it was spread along from extent 1.
* ``Tape.backward``, the one reverse pass, computes only the products
  that reach a ``requires_grad`` leaf: each closure is told which of its
  inputs need a gradient and skips the others, so a frozen weight, an
  input image or a constant costs nothing.
  A node's first gradient piece is kept without a copy when its closure
  allocated it (a weight product, say); a piece that is the upstream
  gradient or a view of it is copied, so no two nodes' gradients alias.
* ``side_by_side`` runs a list of independent numpy calls at once: the
  first on the calling thread, the rest on a pool, built on first use,
  with one thread per usable CPU that the BLAS leaves free. With the BLAS
  on one thread (``OPENBLAS_NUM_THREADS=1``, as the benchmark runs) that
  is every CPU beyond the first. With the BLAS on every CPU, its default,
  it is none, and the calls run in turn on the caller. ``share_cuts`` is
  the one rule that cuts work into its shares: one share per CPU it uses,
  or fewer, so that each share keeps a floor of work. A large product in
  ``matmul`` (forward, or a backward that needs one of its two products)
  splits its output's columns into shares of at least
  ``MATMUL_SHARE_FLOOR`` multiply-adds at multiples of
  ``MATMUL_SHARE_ALIGN`` columns, each share one BLAS call that writes its
  column slice of an output the caller allocated; below either rule the
  BLAS's small-matrix path or its edge kernels can sum a column in another
  order, so the product stays one call. A matmul whose two inputs both
  need a gradient forms ``g @ b.T`` on the caller and ``a.T @ g`` on a
  worker, into an array the caller allocated. Training's Adam and the
  threshold search's counts cut their shares with ``share_cuts`` too.
  Every array or slice is written by one thread, so no bit depends on the
  CPU count.
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
* ``sigmoid`` (and ``gru_cell``, which shares its body) computes
  ``exp(min(x, 0)) / (1 + exp(-|x|))`` with one divide, the numerator in
  the output array and the denominator formed in L2-sized blocks. No
  exp can overflow, and the numerator is exactly 1 for x >= 0 and exactly
  ``exp(-|x|)`` for x < 0, so every value, signed zeros, infinities and
  subnormals included, has the bits of the two-branch formula
  ``where(x >= 0, 1 / d, e / d)``.
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
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial
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
    "reshape",
    "take_rows",
    "stack_rows",
    "gru_cell",
    "bce_loss",
    "finite_diff_grad",
    "side_by_side",
    "share_cuts",
]


class Tensor:
    """Dense float64 array, optionally holding a gradient of the same size."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
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


class Tape:
    """Ordered record of operations for one reverse pass.

    Entries are appended in execution order, so inputs always precede the
    op that consumes them; the reverse sweep visits each entry exactly once.
    A tape can be consumed by its ``backward`` at most once.

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


def _op(name: str, value: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """Wrap op ``name``'s result ``value``, check that it is finite and record it."""
    out = Tensor(value)
    _check_finite(out.data, name)
    return _record(out, inputs, backward_fn)


def _free_cpus() -> int:
    """Usable CPUs that the BLAS leaves free. The BLAS runs a product on as
    many threads as the first of its thread-count variables that is set
    says, and else on every usable CPU; the variables are those it read
    when numpy loaded it."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return cpus - min(int(value), cpus)
    return 0


# side_by_side runs calls on this many pool threads next to the calling
# thread: one per CPU beyond the first when the BLAS runs on one thread.
# A BLAS on every CPU already splits each product, and its threads spin
# between products, so a worker beside them would slow both.
CPU_WORKERS = _free_cpus()
_pool: ThreadPoolExecutor | None = None
_pool_key: tuple[int, int] | None = None  # (process id, workers) the pool was built for
_pool_lock = threading.Lock()


def _worker_pool() -> ThreadPoolExecutor:
    global _pool, _pool_key
    with _pool_lock:
        key = (os.getpid(), CPU_WORKERS)  # a forked child has no pool threads
        if _pool_key != key:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(max_workers=CPU_WORKERS, thread_name_prefix="setfusion")
            _pool_key = key
        return _pool


def side_by_side(calls: Sequence[Callable[[], object]]) -> list:
    """Run independent calls at once and return their results in order.

    The calling thread runs the first call and a pool of ``CPU_WORKERS``
    threads, built on first use, runs the rest, each under the caller's
    numpy error state (a thread does not inherit it). With no workers every
    call runs on the caller, in order. The calls must write to no shared
    array, must not call ``side_by_side`` themselves and must call numpy
    directly, never a module attribute that can be patched: the rest of the
    library runs on one thread. Only numpy's work inside a call runs
    without the GIL, and each numpy call takes it again, so a call should
    be a few large numpy calls; that is why Adam's shares walk the largest
    blocks that stay in L2 (``training.ADAM_BLOCK``). Every call has
    finished when this returns or raises, and an exception reaches the
    caller as it was raised, the first call's before a worker's.
    """
    if CPU_WORKERS < 1 or len(calls) < 2:
        return [call() for call in calls]
    errstate = np.geterr()

    def run(call):
        with np.errstate(**errstate):
            return call()

    futures = [_worker_pool().submit(run, call) for call in calls[1:]]
    try:
        first = calls[0]()
    finally:
        wait(futures)  # a worker may still be writing into the caller's arrays
    return [first] + [f.result() for f in futures]


def share_cuts(n: int, work: int, floor: int, align: int = 1) -> list[int]:
    """Cuts ``0 = c[0] < ... < c[k] = n`` of ``n`` items that carry ``work``
    evenly into ``k`` contiguous shares for ``side_by_side``: one per CPU it
    uses (``1 + CPU_WORKERS``), or fewer, so that every share carries at
    least ``floor`` of the work. Every cut, ``n`` included, is a multiple of
    ``align``; where ``n`` is not, or one share cannot reach the floor, the
    one share is ``[0, n]``."""
    units = n // align
    if n % align or work < 1:
        return [0, n]
    need = -(-floor * n // (work * align))  # units a share needs to reach the floor
    k = max(1, min(1 + CPU_WORKERS, units // max(1, need)))
    return [align * (units * i // k) for i in range(k)] + [n]


# A product splits its output's columns only into shares of at least this
# many multiply-adds, at multiples of this many columns (the last column
# included). Below the floor the BLAS's small-matrix path, and off the
# alignment its edge kernels, can sum a column in another order than the
# one-call product does ([16,512] @ [512,128] in halves, or [16,512] @
# [512,4096] cut at 1365 and 2730, lost bit equality with scipy-openblas
# 0.3.31); at and above both, every split of the default model's products
# kept the one call's bytes.
MATMUL_SHARE_FLOOR = 2**20
MATMUL_SHARE_ALIGN = 8


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` of two matrices, its columns cut by ``share_cuts`` and run
    side by side, each share one BLAS call into its slice of an output
    allocated here (a pool thread allocates from a malloc arena of its own,
    which raised peak RSS)."""
    m, k = x.shape
    cuts = share_cuts(y.shape[1], m * k * y.shape[1], MATMUL_SHARE_FLOOR, MATMUL_SHARE_ALIGN)
    if len(cuts) == 2:
        return x @ y
    out = np.empty((m, y.shape[1]))
    side_by_side([partial(np.matmul, x, y[:, lo:hi], out=out[:, lo:hi])
                  for lo, hi in zip(cuts, cuts[1:])])
    return out


def _matmul(name: str, product: Callable, a: Tensor, b: Tensor) -> Tensor:
    """``product(a, b)`` of a [M,K] by a [K,P] tensor, as op ``name``."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"{name} needs rank-2 operands, got {list(a.shape)} x {list(b.shape)}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"{name} inner extents disagree: {list(a.shape)} x {list(b.shape)}")

    def bwd(g, need):
        if need[0] and need[1]:
            # The two products side by side, each one call. The worker's
            # output is allocated here, as in _product.
            gb = np.empty((a.shape[1], g.shape[1]))
            return tuple(side_by_side((lambda: g @ b.data.T,
                                       lambda: np.matmul(a.data.T, g, out=gb))))
        return (_product(g, b.data.T) if need[0] else None,
                _product(a.data.T, g) if need[1] else None)

    return _op(name, product(a.data, b.data), (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a [M,K] by a [K,P] tensor."""
    return _matmul("matmul", _product, a, b)


def matmul_rows(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product whose output rows are computed one at a time.

    Each row of the result is then a pure function of the matching input
    row and ``b``, independent of how the rows are stacked; reordering the
    rows of ``a`` reorders the result bit-exactly.
    """
    # One [1,K] @ [K,P] product per row, with the bits of ``a[i:i+1] @ b`` for
    # every layout of ``a``; a contiguous copy of a strided ``a`` would lose them.
    return _matmul("matmul_rows", lambda x, y: np.matmul(x[:, None, :], y)[:, 0, :], a, b)


def _unbroadcast(piece: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The gradient of an operand of ``shape`` that broadcasting spread to
    ``piece``'s shape: ``piece`` summed over the leading axes the operand
    lacks and over each axis it has at extent 1 where ``piece`` does not."""
    lead = piece.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(i for i in range(lead, piece.ndim)
                                      if shape[i - lead] == 1 != piece.shape[i])
    return piece.sum(axis=axes, keepdims=True).reshape(shape) if axes else piece


def ew_binary(op: str, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add or mul of two tensors under numpy's broadcasting rule."""
    if op not in ("add", "mul"):
        raise ContractError(f"unknown elementwise op {op!r}")
    try:
        value = a.data + b.data if op == "add" else a.data * b.data
    except ValueError:
        raise ShapeError(f"{op} cannot broadcast {list(a.shape)} with {list(b.shape)}") from None

    if op == "add":
        def bwd(g, need):
            return (_unbroadcast(g, a.shape) if need[0] else None,
                    _unbroadcast(g, b.shape) if need[1] else None)
    else:
        def bwd(g, need):
            return (_unbroadcast(g * b.data, a.shape) if need[0] else None,
                    _unbroadcast(g * a.data, b.shape) if need[1] else None)

    return _op(op, value, (a, b), bwd)


# _sigmoid forms its denominator in blocks of this many elements, so each
# block stays in L2 and no second full-size buffer is allocated.
SIGMOID_BLOCK = 16384


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(min(x, 0)) / (1 + exp(-|x|)); one divide has the bits of both
    # branches of where(x >= 0, 1 / d, e / d) (module docstring)
    y = np.minimum(x, 0.0, out=np.empty(x.shape))
    np.exp(y, out=y)
    xs, ys = x.reshape(-1), y.reshape(-1)
    for lo in range(0, xs.size, SIGMOID_BLOCK):
        d = np.abs(xs[lo : lo + SIGMOID_BLOCK])
        np.negative(d, out=d)
        np.exp(d, out=d)
        d += 1.0
        ys[lo : lo + SIGMOID_BLOCK] /= d
    return y


def sigmoid(a: Tensor) -> Tensor:
    """Elementwise logistic function."""
    y = _sigmoid(a.data)

    def bwd(g, need):
        return (g * y * (1.0 - y),)

    return _op("sigmoid", y, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    """Elementwise max(x, 0); the gradient at 0 is 0."""

    def bwd(g, need):
        return (g * (a.data > 0.0),)

    return _op("relu", np.maximum(a.data, 0.0), (a,), bwd)


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

    def bwd(g, need, s=s):
        return (s * (g - (g * s).sum(axis=0, keepdims=True)),)

    return _op("softmax_set", s, (c,), bwd)


def reduce_sum(a: Tensor, axis: int) -> Tensor:
    """Sum over one axis, removing it. Accumulation order is fixed by the
    row-major layout, so repeated runs are bit-identical."""
    if not 0 <= axis < a.data.ndim:
        raise ShapeError(f"axis {axis} out of range for rank {a.data.ndim}")

    def bwd(g, need):
        return (np.repeat(np.expand_dims(g, axis), a.shape[axis], axis=axis),)

    return _op("reduce_sum", a.data.sum(axis=axis), (a,), bwd)


def set_sum(a: Tensor) -> Tensor:
    """Sum over the leading (set) axis in canonical value order.

    Bit-stable under any reordering of the rows; use for reductions whose
    input is semantically an unordered set.
    """
    if a.data.ndim < 1:
        raise ShapeError("set_sum needs at least rank 1")

    def bwd(g, need):
        return (np.broadcast_to(g, a.shape).copy(),)

    return _op("set_sum", _sorted_axis0_sum(a.data), (a,), bwd)


def set_max(a: Tensor) -> Tensor:
    """Max over the leading (set) axis; subgradient routes to the first
    argmax row on ties."""
    if a.data.ndim < 1:
        raise ShapeError("set_max needs at least rank 1")
    value = a.data.max(axis=0)
    winners = a.data.argmax(axis=0)

    def bwd(g, need, winners=winners):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, winners[None, ...], g[None, ...], axis=0)
        return (full,)

    return _op("set_max", value, (a,), bwd)


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

    def bwd(g, need):
        nx, nh, nWz, nUz, nbz, nWr, nUr, nbr, nWh, nUh, nbh = need
        need_az = nx or nh or nWz or nUz or nbz
        need_ar = nx or nh or nWr or nUr or nbr
        need_ah = need_ar or nWh or nUh or nbh  # the r path runs through a_h
        # gh and gx sum their pieces in the order the chain's reverse sweep
        # reaches them: gh from (1-z)*h, r*h, h Ur, h Uz; gx from Wh, Wr, Wz.
        # A bias piece is the sum over the B rows, as the chain's broadcast
        # add forms it for B >= 2; at B = 1 the add passes its one row
        # through, and the sum differs only in mapping -0.0 to +0.0.
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

    return _op("gru_cell", omz * hd + z * cand, (x, h, Wz, Uz, bz, Wr, Ur, br, Wh, Uh, bh), bwd)


_BCE_EPS = 1e-7


def bce_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean binary cross-entropy; predictions clamped to [1e-7, 1-1e-7]."""
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch: {list(pred.shape)} vs {list(target.shape)}")
    p = np.clip(pred.data, _BCE_EPS, 1.0 - _BCE_EPS)
    t = target.data
    per = -(t * np.log(p) + (1.0 - t) * np.log1p(-p))

    def bwd(g, need, p=p, t=t):
        inside = (pred.data > _BCE_EPS) & (pred.data < 1.0 - _BCE_EPS)
        dp = (p - t) / (p * (1.0 - p)) / pred.size * inside
        return (float(g) * dp, None)

    return _op("bce_loss", per.mean(), (pred, target), bwd)


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
