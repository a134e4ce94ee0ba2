"""Dense float64 tensors with reverse-mode differentiation.

Everything downstream (the path model, both trainers, the baselines) runs on
this engine. It is deliberately small: values are row-major float64 ndarrays,
operations build an implicit computation trace by linking output tensors to
their inputs, and ``backward`` replays that trace once in reverse topological
order. There is no broadcasting beyond the dense layer (a matrix product
plus a row-vector bias) and same-shape elementwise ops.

Finiteness is checked at four boundaries only, each raising NonFiniteValue
that names it: the inputs (``non-finite inputs``), the weights (``parameter
'<name>' is not finite``, once per walk and after each Adam step, which adds
the step; a checkpoint's raise CorruptCheckpoint), each pass's logits
(``non-finite logits``) and the training loss (``non-finite loss``). Nothing
between them is checked, a Tensor included: an inf that a ``tanh`` saturates
is caught at the boundary it came through.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    pass


class EmptyBlock(ValueError):
    pass


class IndexOutOfRange(IndexError):
    pass


class CorruptCheckpoint(ValueError):
    pass


class NonFiniteValue(ValueError):
    pass


class Tensor:
    """One node of the computation trace.

    ``data`` is always a float64 ndarray (shape ``()`` for scalars); it is
    not checked to be finite, as only the module's boundaries are (see
    above). ``_parents`` / ``_backward`` record
    how the node was produced so that :func:`backward` can route the output
    gradient to every parent exactly once. A Tensor built from data is a
    constant or, through :func:`parameters`, a parameter; both receive their
    gradient, and only a parameter's is read.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents: tuple = (), _backward: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accum(self, g: np.ndarray) -> None:
        # Out of place: a first gradient may be an array that its node also
        # hands to another parent.
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def require_finite(arr: np.ndarray, what: str) -> None:
    """Raise NonFiniteValue ``non-finite <what>`` unless every value of
    ``arr`` is finite: the check of one boundary (see the module docstring)."""
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # cheaper than .all() on small arrays
        raise NonFiniteValue(f"non-finite {what}")


def require_finite_parameters(params: dict[str, Tensor], v: np.ndarray | None = None,
                              prefix: str = "") -> None:
    """The weights' boundary: one count over the buffer of ``params`` (and
    Adam's moments ``v``); the first parameter with a non-finite value raises
    NonFiniteValue ``<prefix>parameter '<name>' is not finite``."""
    buf = next(iter(params.values())).data.base
    ok = np.isfinite(buf) if v is None else np.isfinite(buf) & np.isfinite(v)
    if np.count_nonzero(ok) != ok.size:
        at = int(np.argmin(ok))
        ends = np.cumsum([p.data.size for p in params.values()])
        name = list(params)[int(np.searchsorted(ends, at, side="right"))]
        what = "has a second moment that overflows" if np.isfinite(buf[at]) else "is not finite"
        raise NonFiniteValue(f"{prefix}parameter {name!r} {what}")


def parameters(arrays: dict[str, object]) -> dict[str, Tensor]:
    """The parameters of one network: copies of ``arrays``, in order, in one
    flat float64 buffer, as one Tensor per name whose ``data`` is a view of
    that buffer. :class:`AdamState` updates the buffer in place, so a weight
    is set by writing into its view (``data[...] = ...``), never rebound."""
    arrs = [np.asarray(a, dtype=np.float64) for a in arrays.values()]
    ends = np.cumsum([a.size for a in arrs])
    flat = np.split(np.concatenate([a.ravel() for a in arrs]), ends[:-1])
    return {name: Tensor(v.reshape(a.shape)) for name, a, v in zip(arrays, arrs, flat)}


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Dense layer ``x @ w + b`` of a [m,k] matrix, a [k,n] weight and a
    length-n bias added to every row, as one trace node."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1
            or x.data.shape[1] != w.data.shape[0] or w.data.shape[1] != b.data.shape[0]):
        raise ShapeMismatch(f"affine: {x.data.shape} @ {w.data.shape} + {b.data.shape}")
    out = Tensor(x.data @ w.data + b.data[None, :], _parents=(x, w, b))

    def bw(g):
        x._accum(g @ w.data.T)
        w._accum(x.data.T @ g)
        b._accum(g.sum(axis=0))

    out._backward = bw
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y, _parents=(a,))

    def bw(g):
        a._accum(g * (1.0 - y * y))

    out._backward = bw
    return out


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # branch-free: tanh saturates instead of overflowing, for every input
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def weighted_sum(a: Tensor, w: np.ndarray) -> Tensor:
    """Scalar ``sum(w * a)`` of a vector; the weights are constants."""
    w = np.asarray(w, dtype=np.float64)
    if a.data.ndim != 1 or w.shape != a.data.shape:
        raise ShapeMismatch(f"weighted_sum: {a.data.shape} with weights {w.shape}")
    out = Tensor(np.dot(w, a.data), _parents=(a,))

    def bw(g):
        a._accum(w * float(g))

    out._backward = bw
    return out


def _row_slots(idx: np.ndarray, k: int) -> np.ndarray:
    """The flat slots of ``[len(idx), k]`` values scattered into rows ``idx``
    of a ``[rows, k]`` matrix: ``np.bincount(slots, values.ravel(), rows * k)``
    sums them in the order of ``np.add.at`` onto zeros."""
    return (idx[:, None] * k + np.arange(k)).ravel()


def gather_rows(a: Tensor, idx: Sequence[int]) -> Tensor:
    """Select rows of a [m,n] matrix; rows may repeat. Backward scatter-adds."""
    if a.data.ndim != 2:
        raise ShapeMismatch(f"gather_rows: expected matrix, got {a.data.shape}")
    ii = np.asarray(idx, dtype=np.intp)
    if ii.size and (ii.min() < 0 or ii.max() >= a.data.shape[0]):
        raise IndexOutOfRange(f"gather_rows: index out of range for {a.data.shape}")
    out = Tensor(a.data[ii], _parents=(a,))

    def bw(g):
        rows, k = a.data.shape
        a._accum(np.bincount(_row_slots(ii, k), g.ravel(), rows * k).reshape(rows, k))

    out._backward = bw
    return out


def _check_partition(blocks: Sequence[Sequence[int]], k: int) -> None:
    seen: set[int] = set()
    for b in blocks:
        if len(b) == 0:
            raise EmptyBlock("empty block in partition")
        for i in b:
            if not 0 <= i < k:
                raise IndexOutOfRange(f"block index {i} out of range for {k} logits")
            if i in seen:
                raise ValueError(f"index {i} appears in two blocks")
            seen.add(i)
    if len(seen) != k:
        raise ValueError(f"partition covers {len(seen)} of {k} indices")


class Blocks(NamedTuple):
    """Blocks of logit entries in flat segment form: entry i is
    ``z[rows[i], cols[i]]``, and block j holds entries ``starts[j]`` to
    ``starts[j] + sizes[j]``. A block's entries share a row, and a row's
    blocks are consecutive."""

    rows: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray


def compile_blocks(blocks: Sequence[Sequence[int]], columns: Sequence[int]) -> Blocks:
    """``blocks``, a partition of the positions of ``columns``, as the
    columns of row 0, block after block. The partition is checked here,
    once: an empty block, a position out of range, an uncovered position or
    an overlap raises."""
    k = len(columns)
    _check_partition(blocks, k)
    sizes = np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
    order = np.fromiter(chain.from_iterable(blocks), dtype=np.intp, count=k)
    return Blocks(np.zeros(k, dtype=np.intp), np.asarray(columns, dtype=np.intp)[order],
                  np.cumsum(sizes) - sizes, sizes)


def stack_blocks(layouts: Sequence[Blocks], rows: Sequence[int]) -> Blocks:
    """One layout of the blocks of ``layouts[k]`` on row ``rows[k]``, in order."""
    sizes = np.concatenate([b.sizes for b in layouts])
    return Blocks(np.repeat(np.asarray(rows, dtype=np.intp), [b.cols.size for b in layouts]),
                  np.concatenate([b.cols for b in layouts]), np.cumsum(sizes) - sizes, sizes)


def gather_blocks(table: Blocks, rows: Sequence[int] | np.ndarray,
                  ids: Sequence[int] | np.ndarray) -> Blocks:
    """Block ``ids[j]`` of ``table`` on row ``rows[j]``, for every j in
    order: one ragged gather of the blocks' entries."""
    ids = np.asarray(ids, dtype=np.intp)
    sizes = table.sizes[ids]
    starts = sizes.cumsum() - sizes
    entries = (table.starts[ids] - starts).repeat(sizes) + np.arange(sizes.sum())
    return Blocks(np.asarray(rows, dtype=np.intp).repeat(sizes), table.cols[entries],
                  starts, sizes)


def _block_exp(zb: np.ndarray, blocks: Blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The segment reductions of both block-softmax forms on the entries'
    logits: each block's max, each ``exp(z - max)``, and each block's sum."""
    zmax = np.maximum.reduceat(zb, blocks.starts)
    e = np.exp(zb - zmax.repeat(blocks.sizes))
    return zmax, e, np.add.reduceat(e, blocks.starts)


def block_softmax(z: np.ndarray, blocks: Blocks) -> np.ndarray:
    """Softmax normalised independently within each competing-node block of
    the logits ``z [m, V]``.

    Returns ``[m, V]`` probabilities, 0 off the blocks' entries. Within a
    block the outputs are positive and sum to one; logits outside a block
    never influence it. Each block is stabilised by subtracting its own
    maximum before exponentiation; maxima and sums are one segment reduction
    each over all blocks, with no loop over blocks or rows. Plain arrays with
    no trace node: training scores through :func:`block_log_prob`, which is
    differentiable.
    """
    if z.ndim != 2:
        raise ShapeMismatch(f"block_softmax: expected [m, V] rows, got {z.shape}")
    _, e, sums = _block_exp(z[blocks.rows, blocks.cols], blocks)
    probs = np.zeros_like(z)
    probs[blocks.rows, blocks.cols] = e / sums.repeat(blocks.sizes)
    return probs


def block_log_prob(logits: Tensor, blocks: Blocks, targets, lanes, m: int) -> Tensor:
    """log of the block-softmax probability of each block's target within
    it, summed by lane: block j adds into entry ``lanes[j]`` of the ``[m]``
    result, in block order.

    ``logits [N,V]``, a layout with one target column per block; any number
    of blocks may read one row. Each term is
    ``log(block_softmax(z, blocks)[row, target])``, fused and stabilised as
    ``z[target] - logsumexp(z[block])``; the lane sums are one bincount, and
    the backward pass one bincount of the entries' gradients into the
    logits. Only the blocks' entries receive gradient, matching block
    independence. A target outside its block or a lane outside ``[0, m)``
    raises IndexOutOfRange.
    """
    zz = logits.data
    if zz.ndim != 2:
        raise ShapeMismatch(f"block_log_prob: expected matrix, got {zz.shape}")
    tgt, lanes = (np.asarray(a, dtype=np.intp) for a in (targets, lanes))
    if tgt.shape != blocks.sizes.shape or lanes.shape != tgt.shape:
        raise ShapeMismatch(f"block_log_prob: {tgt.size} targets and {lanes.size} lanes "
                            f"for {blocks.sizes.size} blocks")
    if lanes.size and (lanes.min() < 0 or lanes.max() >= m):
        raise IndexOutOfRange(f"block_log_prob: a lane outside [0, {m})")
    lp = np.zeros(m)
    if tgt.size:
        hit = blocks.cols == tgt.repeat(blocks.sizes)
        hits = np.add.reduceat(hit, blocks.starts)
        if not hits.all():
            raise IndexOutOfRange(f"target {tgt[hits == 0][0]} not inside its block")
        z = zz[blocks.rows, blocks.cols]
        zmax, _, sums = _block_exp(z, blocks)
        lse = zmax + np.log(sums)
        lp = np.bincount(lanes, zz[blocks.rows[blocks.starts], tgt] - lse, m)
    out = Tensor(lp, _parents=(logits,))

    def bw(g):
        if tgt.size:
            gl = g[lanes].repeat(blocks.sizes)
            ge = -np.exp(z - lse.repeat(blocks.sizes)) * gl
            ge[hit] += gl[hit]
            rows, k = zz.shape
            logits._accum(np.bincount(blocks.rows * k + blocks.cols, ge, rows * k)
                          .reshape(rows, k))

    out._backward = bw
    return out


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Binary cross-entropy of sigmoid(logits) and 0/1 targets, row sums meaned."""
    if logits.data.shape != np.asarray(targets).shape:
        raise ShapeMismatch("bce_with_logits: logits/targets shape mismatch")
    t = np.asarray(targets, dtype=np.float64)
    z, c = logits.data, 1.0 / len(logits.data)
    # max(z,0) - z*t + log(1 + exp(-|z|)), elementwise stable form
    loss = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    out = Tensor(np.asarray(loss.sum()) * c, _parents=(logits,))

    def bw(g):
        logits._accum((_stable_sigmoid(z) - t) * (float(g) * c))

    out._backward = bw
    return out


def backward(loss: Tensor) -> None:
    """Run reverse-mode differentiation from a scalar loss.

    Visits every trace node reachable from ``loss`` exactly once, in reverse
    topological order. Every leaf reachable from the loss ends up with its
    ``grad`` populated; parameters not reachable from the loss keep
    ``grad is None`` (a disconnected parameter's gradient is zero).
    """
    if loss.data.shape != ():
        raise ShapeMismatch(f"backward: loss must be scalar, got {loss.data.shape}")
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
    loss.grad = np.ones(())
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


# ---------------------------------------------------------------------------
# GRU cell
# ---------------------------------------------------------------------------

@dataclass
class GruParams:
    """Reset-before-candidate GRU: r, u gates then candidate c.

    Weights are split per input so no concatenation primitive is needed:
    ``w_*e`` consumes the token embedding, ``w_*f`` the previous state.
    """

    w_re: Tensor
    w_rf: Tensor
    b_r: Tensor
    w_ue: Tensor
    w_uf: Tensor
    b_u: Tensor
    w_ce: Tensor
    w_cf: Tensor
    b_c: Tensor


def gru_forward(p: GruParams, e: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, ...]:
    """Plain-array GRU update on [m,d]/[m,h] matrices: returns the reset gate
    ``r``, update gate ``u``, ``r*f``, candidate ``c`` and the new state
    ``f_t = (1-u) * f + u * c``.

    r = sigmoid(W_r[e,f] + b_r), u = sigmoid(W_u[e,f] + b_u),
    c = tanh(W_c[e, r*f] + b_c) (Cho et al. 2014). The decode step and the
    trace node of :func:`gru_step` both compute through here, so their values
    are equal bit for bit.
    """
    if (e.ndim != 2 or f.ndim != 2 or e.shape[0] != f.shape[0]
            or e.shape[1] != p.w_re.data.shape[0] or f.shape[1] != p.w_rf.data.shape[0]):
        raise ShapeMismatch(f"gru_forward: e {e.shape}, f {f.shape} for "
                            f"weights {p.w_re.data.shape} / {p.w_rf.data.shape}")
    # Each gate uses the expressions, in the order, of its composition from
    # one trace node per operation (tests/reference.py), so the values equal
    # that composition bit for bit.
    r = _stable_sigmoid((e @ p.w_re.data + f @ p.w_rf.data) + p.b_r.data)
    u = _stable_sigmoid((e @ p.w_ue.data + f @ p.w_uf.data) + p.b_u.data)
    rf = r * f
    c = np.tanh((e @ p.w_ce.data + rf @ p.w_cf.data) + p.b_c.data)
    return r, u, rf, c, (1.0 - u) * f + u * c


def gru_step(p: GruParams, e: Tensor, f0: Tensor, parent: Sequence[int],
             sizes: Sequence[int]) -> Tensor:
    """Steps of :func:`gru_forward` over a forest of rows, as one trace node.

    Step t's rows are the next ``sizes[t]`` rows of ``e [N,d]`` and of the
    states ``[N,h]``, and each starts from its parent's state: ``parent[i]``
    is a row of ``f0 [b,h]`` for a row of step 0 and a row of step t-1,
    counted from that step's first, for a row of step t. Its backward runs
    back through time with three products per step and one scatter of the
    step's state gradient into its parents, then one product over all rows
    per weight and for e."""
    n, m = (len(t.data) if t.data.ndim == 2 else 0 for t in (e, f0))
    parent, sizes = np.asarray(parent, dtype=np.intp), np.asarray(sizes, dtype=np.intp)
    if (not m or parent.shape != (n,) or sizes.ndim != 1 or not sizes.size
            or sizes.min() < 1 or sizes.sum() != n):
        raise ShapeMismatch(f"gru_step: e {e.data.shape}, f0 {f0.data.shape}, parents "
                            f"{parent.shape} and steps of sizes {sizes.tolist()}")
    before = np.concatenate([[m], sizes[:-1]])  # the rows each step's parents index
    if parent.min() < 0 or (parent >= before.repeat(sizes)).any():
        raise IndexOutOfRange("gru_step: a parent outside the step before its row's")
    ends = sizes.cumsum().tolist()
    spans = [slice(lo, hi) for lo, hi in zip([0] + ends[:-1], ends)]
    f, steps = f0.data, []
    for s in spans:
        f_in = f[parent[s]]
        steps.append((f_in,) + gru_forward(p, e.data[s], f_in))
        f = steps[-1][-1]
    f, r, u, rf, c, states = map(np.concatenate, zip(*steps))  # f: each row's input
    weights = (p.w_re, p.w_rf, p.b_r, p.w_ue, p.w_uf, p.b_u, p.w_ce, p.w_cf, p.b_c)
    out = Tensor(states, _parents=(e, f0) + weights)

    def bw(g):
        h = g.shape[1]
        slots = _row_slots(parent, h)  # a row's input-state gradient goes to its parent
        # per row, the derivatives of the candidate, update and reset gates'
        # pre-activations, and the share of the state its input keeps
        d_c, d_u, d_r = u * (1.0 - c * c), (c - f) * u * (1.0 - u), f * r * (1.0 - r)
        keep = 1.0 - u
        # pre-activation gradients of the reset, update and candidate gates
        g_r, g_u, g_c = (np.empty_like(g) for _ in range(3))
        g_f = None  # the gradient a step's states get from the next step's rows
        for s, rows in zip(reversed(spans), reversed(before.tolist())):
            g_t = g[s] if g_f is None else g[s] + g_f
            g_c[s] = g_t * d_c[s]
            g_u[s] = g_t * d_u[s]
            g_rf = g_c[s] @ p.w_cf.data.T
            g_r[s] = g_rf * d_r[s]
            g_in = g_t * keep[s] + g_rf * r[s] + g_r[s] @ p.w_rf.data.T + g_u[s] @ p.w_uf.data.T
            g_f = np.bincount(slots[s.start * h:s.stop * h], g_in.ravel(),
                              rows * h).reshape(rows, h)
        for pre, inp, w_e, w_f, b in ((g_r, f, p.w_re, p.w_rf, p.b_r),
                                      (g_u, f, p.w_ue, p.w_uf, p.b_u),
                                      (g_c, rf, p.w_ce, p.w_cf, p.b_c)):
            w_e._accum(e.data.T @ pre)
            w_f._accum(inp.T @ pre)
            b._accum(pre.sum(axis=0))
        e._accum(g_r @ p.w_re.data.T + g_u @ p.w_ue.data.T + g_c @ p.w_ce.data.T)
        f0._accum(g_f)

    out._backward = bw
    return out


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Adam over one :func:`parameters` buffer: a learning rate per element,
    flat first and second moments and a step count."""

    def __init__(self, params: dict[str, Tensor], lr_by_name: dict[str, float]):
        self.views = tuple(p.data for p in params.values())
        self.buffer = buf = self.views[0].base
        sizes = [v.size for v in self.views]
        if buf is None or sum(sizes) != buf.size or any(
                v.base is not buf or v.ctypes.data != buf.ctypes.data + 8 * at
                for v, at in zip(self.views, np.cumsum([0] + sizes).tolist())):
            raise ValueError("the parameters must tile one parameter buffer, in order")
        self.lr = np.repeat([float(lr_by_name[n]) for n in params], sizes)
        self.m, self.v, self.step_count = np.zeros_like(buf), np.zeros_like(buf), 0


def adam_step(state: AdamState, params: dict[str, Tensor], lr_scale: float = 1.0) -> None:
    """Bias-corrected Adam update of the state's buffer from the parameters'
    ``grad``s (None, a disconnected parameter, is zero): one elementwise step
    in place. ``params`` are the state's, each ``data`` still its view of the
    buffer, or ValueError. A weight left non-finite, or a second moment
    that overflows (a finite gradient above about 1e154 would otherwise
    freeze its weight for good), raises NonFiniteValue."""
    grads = []
    for (name, p), view in zip(params.items(), state.views, strict=True):
        if p.data is not view:
            raise ValueError(f"adam_step: parameter {name!r} is no longer a view of its buffer")
        g = np.zeros_like(view) if p.grad is None else p.grad
        if g.shape != view.shape:
            raise ShapeMismatch(f"adam_step: grad shape for {name}")
        grads.append(g.ravel())
    g = np.concatenate(grads)
    state.step_count = t = state.step_count + 1
    c1, c2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * g
    state.v *= ADAM_BETA2
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        state.v += (1.0 - ADAM_BETA2) * g * g
        state.buffer -= state.lr * lr_scale * (state.m / c1) / (np.sqrt(state.v / c2) + ADAM_EPS)
    require_finite_parameters(params, state.v, f"adam step {t}: ")


# ---------------------------------------------------------------------------
# Parameter checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"PCK1"


def save_params(path: str, params: dict[str, np.ndarray]) -> None:
    """Write parameters as the flat PCK1 binary, names in sorted order."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name], dtype="<f8")
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<I", d))
            f.write(arr.tobytes())


def load_params(path: str) -> dict[str, np.ndarray]:
    """Read a PCK1 file written by :func:`save_params`.

    Raises CorruptCheckpoint for a wrong magic, a truncated record, trailing
    bytes after the last record, a repeated parameter name or a non-finite
    payload: a checkpoint is a boundary of the weights.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _MAGIC:
        raise CorruptCheckpoint(f"{path}: not a PCK1 checkpoint")
    pos = start = 4

    def take(n: int) -> bytes:
        nonlocal pos
        if n > len(blob) - pos:
            raise CorruptCheckpoint(f"{path}: truncated record at byte {start}")
        pos += n
        return blob[pos - n:pos]

    out: dict[str, np.ndarray] = {}
    while pos < len(blob):
        start = pos
        if len(blob) - pos < 4:
            raise CorruptCheckpoint(
                f"{path}: {len(blob) - pos} trailing bytes after the last record")
        (nlen,) = struct.unpack("<I", take(4))
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptCheckpoint(f"{path}: bad parameter name at byte {start}") from None
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        arr = np.frombuffer(take(8 * math.prod(dims)), dtype="<f8").astype(np.float64)
        if name in out:
            raise CorruptCheckpoint(f"{path}: duplicate parameter {name!r}")
        if not np.all(np.isfinite(arr)):
            raise CorruptCheckpoint(f"{path}: non-finite values in parameter {name!r}")
        out[name] = arr.reshape(dims)
    return out
