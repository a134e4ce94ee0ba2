"""Reference code that only the tests run.

Composed engine ops, the masked sigmoid, one-row or one-path scorers, the
one-row decode step with its pick routines, the Tensor-built walk and the
per-row label rule serve as oracles for the fused kernels, the rows forms, the
lockstep decode and the columnar walk record in ``pathcast``; brute-force path oracles
check the path algorithms; the per-sample synthetic draw checks the
generator; the graph generators feed all of them. Nothing in
``src/`` imports this module. ``tests/test_reference.py`` runs each fast path
against its oracle.
"""

from dataclasses import dataclass, field

import numpy as np

from pathcast import numerics as nm
from pathcast.harness import _coarse_name, _group_name
from pathcast.labelgraph import LabelGraph, NodeKind, build_graph
from pathcast.model import InvalidPath, NoCandidates, Walk, Walks, step_major
from pathcast.numerics import Tensor
from pathcast.trainer import Batch

# ---------------------------------------------------------------------------
# Composed engine ops: one trace node per elementary operation
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of a [m,k] matrix with a [k,n] matrix."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise nm.ShapeMismatch(f"matmul: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, _parents=(a, b))

    def bw(g):
        a._accum(g @ b.data.T)
        b._accum(a.data.T @ g)

    out._backward = bw
    return out


def add_rowvec(a: Tensor, v: Tensor) -> Tensor:
    """Add a length-n vector to every row of a [m,n] matrix: with
    :func:`matmul`, the oracle of ``nm.affine``."""
    if a.data.ndim != 2 or v.data.ndim != 1 or a.data.shape[1] != v.data.shape[0]:
        raise nm.ShapeMismatch(f"add_rowvec: {a.data.shape} + {v.data.shape}")
    out = Tensor(a.data + v.data[None, :], _parents=(a, v))

    def bw(g):
        a._accum(g)
        v._accum(g.sum(axis=0))

    out._backward = bw
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise nm.ShapeMismatch(f"{op}: {a.data.shape} vs {b.data.shape}")


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python float; ``c`` is a constant to the differentiator."""
    c = float(c)
    out = Tensor(a.data * c, _parents=(a,))

    def bw(g):
        a._accum(g * c)

    out._backward = bw
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    out = Tensor(a.data + b.data, _parents=(a, b))

    def bw(g):
        a._accum(g)
        b._accum(g)

    out._backward = bw
    return out


def add_n(ts) -> Tensor:
    """Sum a non-empty list of same-shape tensors in one trace node."""
    if not ts:
        raise ValueError("add_n of an empty list")
    first = ts[0]
    for t in ts[1:]:
        _check_same_shape(first, t, "add_n")
    out = Tensor(sum(t.data for t in ts), _parents=tuple(ts))

    def bw(g):
        for t in ts:
            t._accum(g)

    out._backward = bw
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    out = Tensor(a.data - b.data, _parents=(a, b))

    def bw(g):
        a._accum(g)
        b._accum(-g)

    out._backward = bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product of same-shape tensors."""
    _check_same_shape(a, b, "mul")
    out = Tensor(a.data * b.data, _parents=(a, b))

    def bw(g):
        a._accum(g * b.data)
        b._accum(g * a.data)

    out._backward = bw
    return out


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data, _parents=(a,))

    def bw(g):
        a._accum(-g)

    out._backward = bw
    return out


def sigmoid(a: Tensor) -> Tensor:
    # the kernel's own sigmoid, so gru_step equals its composition bit for bit
    y = nm._stable_sigmoid(a.data)
    out = Tensor(y, _parents=(a,))

    def bw(g):
        a._accum(g * y * (1.0 - y))

    out._backward = bw
    return out


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """The sigmoid as two masked branches, each evaluated only where its
    ``exp`` cannot overflow: the oracle of the branch-free
    ``nm._stable_sigmoid``."""
    pos = x >= 0
    y = np.empty_like(x)
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(), _parents=(a,))

    def bw(g):
        a._accum(np.full_like(a.data, float(g)))

    out._backward = bw
    return out


def take_row(a: Tensor, i: int) -> Tensor:
    """Slice row i of a [m,n] matrix as a length-n vector."""
    if a.data.ndim != 2:
        raise nm.ShapeMismatch(f"take_row: expected matrix, got {a.data.shape}")
    if not 0 <= i < a.data.shape[0]:
        raise nm.IndexOutOfRange(f"take_row: row {i} of {a.data.shape}")
    out = Tensor(a.data[i], _parents=(a,))

    def bw(g):
        grad = np.zeros_like(a.data) if a.grad is None else a.grad.copy()
        grad[i] += g
        a.grad = grad

    out._backward = bw
    return out


def block_log_prob_row(logits: Tensor, block, target: int) -> Tensor:
    """One-row oracle of ``nm.block_log_prob``: the scalar
    ``z[target] - logsumexp(z[block])`` of a logits vector ``[V]``; only the
    block receives gradient."""
    if logits.data.ndim != 1:
        raise nm.ShapeMismatch(f"block_log_prob_row: expected vector, got {logits.data.shape}")
    bb = np.asarray(block, dtype=np.intp)
    if target not in block:
        raise nm.IndexOutOfRange(f"target {target} not inside its block")
    z = logits.data[bb]
    zmax = z.max()
    # summed in the order np.add.reduceat sums one segment of the rows form,
    # so the values agree bit for bit
    lse = zmax + np.log(np.add.reduceat(np.exp(z - zmax), [0])[0])
    out = Tensor(logits.data[target] - lse, _parents=(logits,))

    def bw(g):
        gz = np.zeros_like(logits.data)
        gz[bb] = -np.exp(z - lse) * g
        gz[target] += g
        logits._accum(gz)

    out._backward = bw
    return out


def row_blocks(blocks) -> nm.Blocks:
    """The layout of one block of columns per row, ``blocks[i]`` on row i;
    ``None`` leaves a row without one."""
    rows = [i for i, b in enumerate(blocks) if b is not None]
    layouts = [nm.compile_blocks([range(len(blocks[i]))], blocks[i]) for i in rows]
    return nm.stack_blocks(layouts or [nm.compile_blocks((), ())], rows or [0])


def row_log_prob(logits: Tensor, blocks: nm.Blocks, targets) -> Tensor:
    """``nm.block_log_prob`` with each block summed into the lane of its own
    row: the ``[N]`` log-probabilities of the rows of ``logits [N,V]``, 0 in
    a row without a block."""
    return nm.block_log_prob(logits, blocks, targets, blocks.rows[blocks.starts],
                             len(logits.data))


def block_softmax(z: np.ndarray, blocks) -> np.ndarray:
    """Per-block oracle of ``nm.block_softmax``, on a vector and a list of
    blocks that it checks on every call; each block is summed by ``e.sum()``."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise nm.ShapeMismatch(f"block_softmax: expected vector, got {z.shape}")
    nm._check_partition(blocks, z.shape[0])
    y = np.empty_like(z)
    for b in blocks:
        bb = np.asarray(b, dtype=np.intp)
        zb = z[bb]
        e = np.exp(zb - zb.max())
        y[bb] = e / e.sum()
    return y


def choice_cross_block(dist, rng: np.random.Generator):
    """Oracle of :func:`sample_cross_block`: each block drawn by
    ``rng.choice`` on its renormalised probabilities, in block order; the
    drawn member with the highest probability wins, ties to the lowest id."""
    best_tok, best_p = None, -1.0
    for blk in dist.blocks:
        p = dist.probs[list(blk)]
        pick = blk[int(rng.choice(len(blk), p=p / p.sum()))]
        tok, prob = dist.tokens[pick], float(dist.probs[pick])
        if prob > best_p or (prob == best_p and tok < best_tok):
            best_tok, best_p = tok, prob
    return best_tok, best_p


def composed_gru_step(p: nm.GruParams, e_t: Tensor, f_prev: Tensor) -> Tensor:
    """Reference GRU update built from one trace node per operation."""
    r = sigmoid(add_rowvec(add(matmul(e_t, p.w_re), matmul(f_prev, p.w_rf)), p.b_r))
    u = sigmoid(add_rowvec(add(matmul(e_t, p.w_ue), matmul(f_prev, p.w_uf)), p.b_u))
    c = nm.tanh(add_rowvec(add(matmul(e_t, p.w_ce), matmul(mul(r, f_prev), p.w_cf)), p.b_c))
    ones = Tensor(np.ones_like(u.data))
    return add(mul(sub(ones, u), f_prev), mul(u, c))


def stack_rows(ts) -> Tensor:
    """Matrices stacked row-wise, as one trace node."""
    out = Tensor(np.vstack([t.data for t in ts]), _parents=tuple(ts))
    ends = np.cumsum([t.data.shape[0] for t in ts])[:-1]

    def bw(g):
        for t, part in zip(ts, np.split(g, ends)):
            t._accum(part)

    out._backward = bw
    return out


def whole_steps(m: int, steps: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """``parent`` and ``sizes`` of ``nm.gru_step`` for ``steps`` whole steps
    of ``m`` lanes: row ``t*m + i`` is lane i at step t, fed by its lane one
    step back (by row i of ``f0`` at step 0)."""
    return np.tile(np.arange(m), steps), np.full(steps, m)


def chained_gru_steps(p: nm.GruParams, e: Tensor, f0: Tensor) -> Tensor:
    """Oracle of ``nm.gru_step`` over T whole steps: one one-step node per
    step, fed its rows ``t*m`` to ``t*m+m`` of ``e``, and the states of
    every step stacked in step order."""
    m = f0.data.shape[0]
    f, states = f0, []
    for t in range(e.data.shape[0] // m):
        f = nm.gru_step(p, nm.gather_rows(e, range(t * m, t * m + m)), f, *whole_steps(m))
        states.append(f)
    return stack_rows(states)


def gru_init(embed_dim: int, hidden: int, rng: np.random.Generator, prefix: str,
             out: dict) -> nm.GruParams:
    """GRU weights drawn as the path model draws its own, in the same order
    and scales, as parameters ``<prefix>.<field>`` added to ``out``."""
    drawn = {}
    for name in ("w_re", "w_rf", "b_r", "w_ue", "w_uf", "b_u", "w_ce", "w_cf", "b_c"):
        rows = embed_dim if name.endswith("e") else hidden
        drawn[f"{prefix}.{name}"] = (np.zeros(hidden) if name.startswith("b") else
                                     rng.normal(0.0, 1.0 / np.sqrt(rows), size=(rows, hidden)))
    out.update(nm.parameters(drawn))
    return nm.GruParams(*(out[name] for name in drawn))


def path_log_prob(model, x: np.ndarray, path) -> Tensor:
    """Scalar teacher-forced log-probability of one path from one input
    ``x[d]``: the one-path oracle of :func:`rescored`."""
    return sum_all(score(model, model.encode(x), [list(path)], teacher=True))


def score(model, f: Tensor, lanes, teacher) -> Tensor:
    """``model.score_lanes`` of ``lanes``, lists of target tokens, lane i
    from row i of the states ``f``: every lane fed its targets under
    ``teacher``, every lane free running otherwise."""
    return model.score_lanes(f, np.arange(len(lanes)), *step_major(lanes, max(map(len, lanes))),
                             np.full(len(lanes), teacher))


def rescored(model, x: np.ndarray, walks: Walks) -> Tensor:
    """Each walk's log-probability along its own choices, from the rows
    ``x [m, d]`` it started from: ``model.sampled_path_log_prob``'s lanes,
    scored teacher-forced over one encode."""
    m = walks.lengths.size
    return model.score_lanes(model.encode(x), np.arange(m), *model.sampled_path_log_prob(walks),
                             np.ones(m, dtype=bool))


def pooled(model, inputs: np.ndarray, lanes) -> Tensor:
    """The scored pass of ``trainer.train_epoch`` over ``lanes`` (a
    ``trainer.Lanes``, or None) of a batch's ``inputs``: one encode, one
    ``score_lanes`` from the lanes' rows and one ``weighted_sum`` of the
    totals by the lanes' weights. None for no lanes."""
    if lanes is None:
        return None
    totals = model.score_lanes(model.encode(inputs), lanes.rows, lanes.targets, lanes.lengths,
                               lanes.teacher)
    return nm.weighted_sum(totals, lanes.weights)


def lane_paths(batch: Batch) -> list:
    """Per sample of a ``trainer.Batch``, its lanes' target tokens as tuples."""
    return [[tuple(batch.targets[:batch.lengths[c], c].tolist()) for c in cols]
            for cols in batch.target_paths]


def batch_of(inputs, target_paths, labels=(), max_len: int = 8, pg_indexes=None) -> Batch:
    """A ``trainer.Batch`` of explicit target paths, a list per sample, cut
    to ``max_len``; ``pg_indexes`` defaults to the samples without one."""
    lanes = [list(p)[:max_len] for paths in target_paths for p in paths]
    counts = np.array([len(paths) for paths in target_paths], dtype=np.intp)
    if pg_indexes is None:
        pg_indexes = tuple(np.flatnonzero(counts == 0).tolist())
    return Batch(np.asarray(inputs, dtype=np.float64),
                 *step_major(lanes, max(map(len, lanes), default=0)), counts,
                 tuple(pg_indexes), tuple(labels))


def collect_grads(params: dict) -> dict:
    """Gradients per named parameter; disconnected parameters report zeros."""
    return {name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()}


@dataclass
class GroupAdamState:
    """Adam moments of one parameter group with one scalar learning rate."""

    lr: float
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def group_adam_step(state: GroupAdamState, params: dict, grads: dict,
                    lr_scale: float = 1.0) -> None:
    """Adam over one parameter group from explicit gradients: the oracle of
    ``nm.adam_step``, which steps every group at once with a learning rate
    per parameter."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - nm.ADAM_BETA1 ** t
    c2 = 1.0 - nm.ADAM_BETA2 ** t
    lr = state.lr * lr_scale
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= nm.ADAM_BETA1
        m += (1.0 - nm.ADAM_BETA1) * g
        v *= nm.ADAM_BETA2
        v += (1.0 - nm.ADAM_BETA2) * g * g
        p.data = p.data - lr * (m / c1) / (np.sqrt(v / c2) + nm.ADAM_EPS)


# ---------------------------------------------------------------------------
# One-row decode: the oracles of the lockstep engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepDistribution:
    """Candidate tokens for one decode step with their block-softmax mass.

    ``blocks`` holds index positions into ``tokens``; each block's
    probabilities sum to one and different blocks are independent.
    """

    tokens: tuple
    probs: np.ndarray
    blocks: tuple


def candidate_blocks(model, prev_token: int):
    """The candidates after ``prev_token`` as ascending tokens and blocks of
    index positions into them, read from the model's one-row layout."""
    b = model.candidates([prev_token])
    tokens = tuple(sorted(b.cols.tolist()))
    pos = {t: i for i, t in enumerate(tokens)}
    return tokens, tuple(tuple(pos[t] for t in b.cols[s:s + n].tolist())
                         for s, n in zip(b.starts.tolist(), b.sizes.tolist()))


def distribution(model, z_row: np.ndarray, prev_token: int) -> StepDistribution:
    """Block-softmax distribution over the candidates after ``prev_token``,
    taken from one row of vocabulary logits."""
    tokens, blocks = candidate_blocks(model, prev_token)
    probs = nm.block_softmax(z_row[None, :], model.candidates([prev_token]))[0]
    return StepDistribution(tokens=tokens, probs=probs[list(tokens)], blocks=blocks)


def step(model, f_prev: np.ndarray, prev_token: int):
    """One-row oracle of ``model.step``: the distribution after
    ``prev_token`` and the new state [1,h], with the same checks."""
    if not 0 <= prev_token < model.vocab_size:  # no wrap-around for a negative id
        raise nm.IndexOutOfRange(f"step: token {prev_token} outside the vocabulary")
    e = model.params["emb"].data[prev_token:prev_token + 1]
    f_t = nm.gru_forward(model.gru, e, f_prev)[-1]
    z = f_t @ model.params["out.w"].data + model.params["out.b"].data[None, :]
    nm.require_finite(z, "logits")
    return distribution(model, z[0], prev_token), f_t


def greedy_choice(dist: StepDistribution):
    """Global argmax across every candidate block; ties to lowest token id."""
    i = int(dist.probs.argmax())  # tokens ascend, argmax takes the first max
    return dist.tokens[i], float(dist.probs[i])


def sample_cross_block(dist: StepDistribution, rng: np.random.Generator):
    """One draw per block, in block order, by inverse CDF on one
    ``rng.random()``: the arithmetic of ``rng.choice(len(blk), p=p / p.sum())``.
    The drawn member with the highest probability wins, ties to the lowest
    token id."""
    best_tok, best_p = None, -1.0
    for blk in dist.blocks:
        u = rng.random()
        if len(blk) == 1:
            pick = blk[0]  # its CDF is [1.0] and u < 1
        else:
            p = dist.probs[list(blk)]
            cdf = (p / p.sum()).cumsum()
            cdf /= cdf[-1]
            pick = blk[int(cdf.searchsorted(u, side="right"))]
        tok, prob = dist.tokens[pick], float(dist.probs[pick])
        if prob > best_p or (prob == best_p and tok < best_tok):
            best_tok, best_p = tok, prob
    return best_tok, best_p


def lane_log_prob(model, f: np.ndarray, targets, teacher: bool) -> float:
    """One-lane oracle of ``model.score_lanes`` from the state ``f [1,h]``:
    the sum of the logs of the one-row :func:`step` probabilities of the
    targets along the lane's feed. Under ``teacher`` the lane is fed its
    targets, and a target that is not a candidate raises InvalidPath.
    Otherwise it is fed its :func:`greedy_choice` walk, a later target that
    is not a candidate is skipped, and the lane ends where the walk picks
    EOP or is fed a dead end."""
    total, prev = 0.0, model.start_token
    for t, target in enumerate(targets):
        try:
            dist, f = step(model, f, prev)
        except NoCandidates:
            if teacher:
                raise
            break
        probs = dict(zip(dist.tokens, dist.probs.tolist()))
        if target in probs:
            total += float(np.log(probs[target]))
        elif teacher or t == 0:
            raise InvalidPath(f"token {target} is not a candidate after {prev}")
        prev = target if teacher else greedy_choice(dist)[0]
        if prev == model.eop_token:
            break
    return total


def step_major_walk(model, xs: np.ndarray, max_len: int, choose) -> list:
    """Per-row oracle of ``model.walk``: every row of ``xs [m, d]`` walks
    with the one-row :func:`step` and ``choose(dist) -> (token, prob)``, the
    rows taking turns step after step, so that a sampling ``choose`` draws
    in the engine's step-major order. Stops as the engine does: EOP,
    ``max_len`` steps, or a dead end."""
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    f = [model.encode_values(x) for x in xs]
    prev = [model.start_token] * len(xs)
    tokens, probs = [[] for _ in xs], [[] for _ in xs]
    stop = [None] * len(xs)  # each row's stop reason, None while walking
    for _ in range(max_len):
        for i in range(len(xs)):
            if stop[i] is not None:
                continue
            try:
                dist, f[i] = step(model, f[i], prev[i])
            except NoCandidates:
                stop[i] = "dead_end"
                continue
            tok, p = choose(dist)
            probs[i].append(p)
            if tok == model.eop_token:
                stop[i] = "eop"
            else:
                tokens[i].append(tok)
                prev[i] = tok
    return [Walk(tuple(t), tuple(p), s or "max_len") for t, p, s in zip(tokens, probs, stop)]


def rows(walks: Walks) -> list:
    """Every row of a ``model.Walks`` as its ``Walk`` view, in row order."""
    return [walks.row(i) for i in range(walks.lengths.size)]


def walks_of(walk_rows, max_len: int | None = None) -> Walks:
    """The ``model.Walks`` record of ``Walk`` rows, ``max_len`` steps long
    (by default the most steps of any row): the inverse of :func:`rows`."""
    steps = max(len(w.step_probs) for w in walk_rows) if max_len is None else max_len
    tokens, n = step_major([w.tokens for w in walk_rows], steps)
    probs = np.zeros((steps, len(walk_rows)))
    for i, w in enumerate(walk_rows):
        probs[:len(w.step_probs), i] = w.step_probs
    return Walks(tokens, n, probs, np.array([w.terminated_by for w in walk_rows]))


def extract_label(graph, path):
    """Last label-kind node on a decoded path, or None when there is none:
    the per-row oracle of ``evaldecode.predicted_labels``."""
    label = None
    for node in path:
        if graph.node(node).kind is NodeKind.LABEL:
            label = node
    return label


def traced_walk(model, x: np.ndarray, max_len: int, choose) -> Walk:
    """The walk built from Tensors: ``encode``, then ``decode_logits`` and
    :func:`distribution` per step. The one-row oracle of ``model.walk`` on
    plain arrays, with the same stops: EOP, ``max_len`` steps, or a dead end."""
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    f = model.encode(x)
    prev = model.start_token
    tokens, probs = [], []
    for _ in range(max_len):
        f, z = model.decode_logits(f, [prev], *whole_steps(1))
        try:
            dist = distribution(model, z.data[0], prev)
        except NoCandidates:
            return Walk(tuple(tokens), tuple(probs), "dead_end")
        tok, p = choose(dist)
        probs.append(p)
        if tok == model.eop_token:
            return Walk(tuple(tokens), tuple(probs), "eop")
        tokens.append(tok)
        prev = tok
    return Walk(tuple(tokens), tuple(probs), "max_len")


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def finite_difference(fn, params, h=1e-5):
    """Central-difference gradients of a scalar-valued rebuild function.

    ``fn`` must rebuild the computation from the raw parameter arrays each
    call, so it stays independent of the reverse-mode path it checks.
    """
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            up = fn(params)
            flat[i] = old - h
            down = fn(params)
            flat[i] = old
            gf[i] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def max_rel_err(got, want):
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def random_partition(rng, k):
    idx = rng.permutation(k)
    blocks, i = [], 0
    while i < k:
        size = int(rng.integers(1, min(4, k - i) + 1))
        blocks.append(tuple(int(t) for t in idx[i:i + size]))
        i += size
    return blocks


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def synth_samples(spec):
    """The fine, coarse and annotated test samples of ``synth_generate(spec)``,
    each a list of (x, label, attrs), drawn one sample at a time from a label
    table rebuilt from the spec, every member pick set per sample. The
    generator calls are the data contract: one ``integers`` per sample, one
    per pick from two or more members and one ``normal`` per sample."""
    rng = np.random.default_rng(spec.seed)
    offsets = np.cumsum((spec.n_coarse,) + spec.group_sizes).tolist()
    rows = []
    for c in range(spec.n_coarse):
        cname = _coarse_name(c)
        n_wild = 0
        for i in range(spec.per_coarse):
            prof = spec.profile(i)
            base = np.zeros(spec.input_dim)
            base[c] = spec.branch_scale
            if all(m is None for m in prof):
                base[offsets[-1] + n_wild] = spec.wild_scale
                n_wild += 1
            picks = []
            for j, (m, size) in enumerate(zip(prof, spec.group_sizes)):
                choices = (range(size) if m is None
                           else m if isinstance(m, tuple) else (m,))
                key = f"{cname}-{_group_name(j)}"
                if choices:
                    picks.append((key, [f"{key}-{k}" for k in choices],
                                  [offsets[j] + k for k in choices]))
            rows.append((f"{cname}-breed-{i}", cname, base, picks))

    def draw_set(n, coarse, annotate):
        out = []
        for _ in range(n):
            name, cname, base, picks = rows[int(rng.integers(len(rows)))]
            x = base.copy()
            attrs = {}
            for key, members, cols in picks:
                k = int(rng.integers(len(cols))) if len(cols) > 1 else 0
                x[cols[k]] = 1.0
                attrs[key] = members[k]
            if spec.noise_sigma > 0:
                x = x + rng.normal(0.0, spec.noise_sigma, size=x.shape)
            out.append((x, cname if coarse else name, attrs if annotate else None))
        return out

    return (draw_set(spec.n_train_fine, False, False),
            draw_set(spec.n_train_coarse, True, False),
            draw_set(spec.n_test, False, True))


# ---------------------------------------------------------------------------
# Graph generators
# ---------------------------------------------------------------------------


def label_ids(graph):
    """The ids of the graph's label nodes, in node order."""
    return tuple(nd.id for nd in graph.nodes if nd.kind is NodeKind.LABEL)


def figure2_subgraph():
    """Root animal; cat; hair group {shorthair, longhair}; color group
    {solid-color, tabby-color, point-color}; labels british-shorthair, bengal."""
    return build_graph(
        label_sets=[("pet-a", ["british-shorthair"]), ("pet-b", ["bengal"])],
        augmented_spec=[("cat", ["animal"]),
                        ("shorthair", ["cat"]), ("longhair", ["cat"]),
                        ("solid-color", ["cat"]), ("tabby-color", ["cat"]),
                        ("point-color", ["cat"])],
        edge_spec=[("shorthair", "british-shorthair"),
                   ("solid-color", "british-shorthair"),
                   ("tabby-color", "british-shorthair"),
                   ("point-color", "british-shorthair"),
                   ("shorthair", "bengal"), ("tabby-color", "bengal")],
        group_spec=[("hair", ["shorthair", "longhair"]),
                    ("color", ["solid-color", "tabby-color", "point-color"])],
        root_name="animal")


def dead_end_graph():
    """Root with the competing group {a, b}; a leads to the label x, and the
    augmented b has no children: a walk that picks b stops at a dead end."""
    return build_graph([("d", ["x"])], [("a", ["root"]), ("b", ["root"])], [("a", "x")],
                       [("ab", ["a", "b"])])


def coarse_label_graph():
    """The coarse label ``cat`` over the grouped ``a``, ``b`` and ``x``, and
    ``x`` also under ``a``: greedy decoding picks EOP at ``cat``, although
    the lane root, cat, a, x goes on to a token that is a candidate after
    ``cat`` too."""
    return build_graph([("coarse", ["cat"]), ("fine", ["a", "b"]), ("finer", ["x"])], (),
                       [("root", "cat"), ("cat", "a"), ("cat", "b"), ("cat", "x"), ("a", "x")])


def figure2_with_back_edge():
    """figure2_subgraph plus bengal -> cat, which closes cycles; unvalidated."""
    g = figure2_subgraph()
    return LabelGraph(g.nodes, g.edges + ((g.id_of("bengal"), g.id_of("cat")),),
                      g.groups, g.root)


def random_dag(rng, max_nodes=12):
    """Random layered DAG built through build_graph; labels are the leaves."""
    n_aug = int(rng.integers(1, 5))
    n_labels = int(rng.integers(1, max(2, max_nodes - n_aug - 1)))
    aug_names = [f"mid-{i}" for i in range(n_aug)]
    augmented = []
    for i, name in enumerate(aug_names):
        parents = ["root"] + [aug_names[j] for j in range(i) if rng.random() < 0.4]
        augmented.append((name, parents))
    labels = [f"leaf-{i}" for i in range(n_labels)]
    edges = []
    for name in labels:
        k = int(rng.integers(1, n_aug + 1))
        for p in rng.choice(aug_names, size=k, replace=False):
            edges.append((str(p), name))
    return build_graph([("ds", labels)], augmented, edges, [])


def three_level_graph(rng):
    """root -> augmented layer -> labels, with random extra edges/groups."""
    n_mid = int(rng.integers(2, 5))
    n_lab = int(rng.integers(2, 5))
    augmented = [(f"mid-{i}", ["root"]) for i in range(n_mid)]
    edges = []
    for i in range(n_lab):
        for j in rng.choice(n_mid, size=int(rng.integers(1, n_mid + 1)),
                            replace=False):
            edges.append((f"mid-{j}", f"leaf-{i}"))
    return build_graph([("ds", [f"leaf-{i}" for i in range(n_lab)])],
                       augmented, edges, [])


def layered_dag(depth, rng=None, singleton=False):
    """Width-2 layered DAG with the label ``x`` under its last layer.

    Without ``rng`` both nodes of every layer are children of both nodes of
    the layer above, and ``x`` of both last ones: 2**depth paths. With
    ``rng`` every node keeps a random nonempty subset of those parents, and
    may gain one from two layers up, so that some paths skip a layer (and
    its group). Groups are one explicit singleton per node, or else implicit
    siblings; with ``rng`` each layer is made of singletons with probability
    1/2, which leaves some paths clear of every competing pair.
    """
    def some(parents, skip):
        if rng is None:
            return list(parents)
        kept = [p for p in parents if rng.random() < 0.6]
        kept = kept or [parents[int(rng.integers(len(parents)))]]
        if skip and rng.random() < 0.5:
            kept.append(skip[int(rng.integers(len(skip)))])
        return kept

    layers = [[f"a{k}", f"b{k}"] for k in range(1, depth + 1)]
    augmented, prev, above = [], ["root"], []
    for pair in layers:
        augmented += [(n, some(prev, above)) for n in pair]
        prev, above = pair, prev
    edges = [(n, "x") for n in some(prev, above)]
    alone = [pair for pair in layers
             if singleton or (rng is not None and rng.random() < 0.5)]
    groups = [(f"only-{n}", [n]) for pair in alone for n in pair]
    return build_graph([("d", ["x"])], augmented, edges, groups)


# ---------------------------------------------------------------------------
# Brute-force path oracles
# ---------------------------------------------------------------------------


def oracle_all_paths(graph, target):
    """Exhaustive DFS over adjacency only; independent of the library walk."""
    out = []

    def walk(node, path):
        if node == target:
            out.append(tuple(path))
            return
        for child in graph.children(node):
            if child not in path:
                walk(child, path + [child])

    walk(graph.root, [graph.root])
    return sorted(out)


def oracle_classify(graph, target):
    """Definition-literal pairwise check over all path pairs."""
    paths = oracle_all_paths(graph, target)
    nondet = set()
    for i, p in enumerate(paths):
        for j, q in enumerate(paths):
            if i == j:
                continue
            for u in p:
                for w in q:
                    if u != w:
                        gu = graph.group_of(u)
                        if gu is not None and w in gu.members:
                            nondet.add(i)
    det = [p for i, p in enumerate(paths) if i not in nondet]
    nd = [p for i, p in enumerate(paths) if i in nondet]
    return det, nd
