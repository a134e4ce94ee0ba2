"""Seeded differential test: each fast path in pathcast against its oracle in
``reference.py``. A new fast path adds its case here."""

import time
import warnings

import numpy as np
import pytest

from pathcast import numerics as nm
from pathcast.evaldecode import EmptyDataset, decode_rows, evaluate, greedy_decode
from pathcast.harness import SynthSpec, synth_generate
from pathcast.model import InvalidPath, LabelPathModel, step_major
from pathcast.numerics import backward, gru_forward, gru_step
from pathcast.labelgraph import build_graph
from pathcast.pathalg import all_paths_to
from pathcast.trainer import LabeledSample, Lanes, PathBook, TrainConfig, _joined, build_batch

import reference as ref
from test_model import oracle_candidates

SEEDS = range(8)
GRU_FIELDS = ("w_re", "w_rf", "b_r", "w_ue", "w_uf", "b_u", "w_ce", "w_cf", "b_c")


@pytest.mark.parametrize("seed", SEEDS)
def test_gru_step_matches_composition(seed):
    rng = np.random.default_rng(seed)
    d, hdim, m = (int(n) for n in rng.integers(1, 7, size=3))
    raw = {}
    ref.gru_init(d, hdim, rng, "g", raw)
    arrays = {k.split(".")[1]: v.data + rng.normal(0, 0.1, v.data.shape)
              for k, v in raw.items()}  # nonzero biases too
    e0, f0 = rng.normal(size=(m, d)), rng.normal(size=(m, hdim))
    upstream = rng.normal(size=(m, hdim))

    def run(step):
        ts = nm.parameters({k: arrays[k] for k in GRU_FIELDS})
        e, f = nm.Tensor(e0), nm.Tensor(f0)
        out = step(nm.GruParams(*[ts[k] for k in GRU_FIELDS]), e, f)
        backward(ref.sum_all(ref.mul(out, nm.Tensor(upstream))))
        return out.data, {**{k: t.grad for k, t in ts.items()}, "e_t": e.grad, "f_prev": f.grad}

    (fused, g_fused), (composed, g_composed) = (
        run(lambda p, e, f: gru_step(p, e, f, *ref.whole_steps(m))), run(ref.composed_gru_step))
    assert fused.tobytes() == composed.tobytes()
    for name, want in g_composed.items():
        np.testing.assert_allclose(g_fused[name], want, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("T", [1, 2, 5])
@pytest.mark.parametrize("m", [1, 7])
def test_gru_step_over_steps_matches_the_chain_of_one_step_nodes(T, m):
    rng = np.random.default_rng(10 * T + m)
    d, hdim = 3, 4
    raw = {}
    ref.gru_init(d, hdim, rng, "g", raw)
    arrays = {k.split(".")[1]: v.data + rng.normal(0, 0.1, v.data.shape)
              for k, v in raw.items()}  # nonzero biases too
    arrays.update(e=rng.normal(size=(T * m, d)), f0=rng.normal(size=(m, hdim)))
    upstream = rng.normal(size=(T * m, hdim))

    def run(unroll, a):
        ts = nm.parameters(a)
        out = unroll(nm.GruParams(*[ts[k] for k in GRU_FIELDS]), ts["e"], ts["f0"])
        return out, ref.sum_all(ref.mul(out, nm.Tensor(upstream))), ts

    def fused(p, e, f0):
        return gru_step(p, e, f0, *ref.whole_steps(m, T))

    out, loss, ts = run(fused, arrays)
    chain, chain_loss, chain_ts = run(ref.chained_gru_steps, arrays)
    assert out.shape == (T * m, hdim) and out.data.tobytes() == chain.data.tobytes()
    backward(loss)
    backward(chain_loss)
    fd = ref.finite_difference(lambda a: run(fused, a)[1].item(), arrays)
    for name in arrays:
        np.testing.assert_allclose(ts[name].grad, chain_ts[name].grad, rtol=1e-12, atol=0,
                                   err_msg=name)
        assert ref.max_rel_err(ts[name].grad, fd[name]) < 1e-4, name


# A forest of 12 rows in ragged steps of 3, 4, 2 and 3 on 3 rows of f0:
# each row's parent is a row of f0 (step 0) or of the step before, counted
# within it; parents repeat, and need not ascend.
FOREST_SIZES = (3, 4, 2, 3)
FOREST_PARENTS = (2, 0, 0, 0, 0, 1, 2, 3, 1, 0, 0, 1)


def _forest_arrays(rng, d=3, hdim=4, b=3):
    raw = {}
    ref.gru_init(d, hdim, rng, "g", raw)
    arrays = {k.split(".")[1]: v.data + rng.normal(0, 0.1, v.data.shape)
              for k, v in raw.items()}  # nonzero biases too
    arrays.update(e=rng.normal(size=(sum(FOREST_SIZES), d)), f0=rng.normal(size=(b, hdim)))
    return arrays


@pytest.mark.parametrize("seed", range(4))
def test_gru_step_over_a_forest_is_gru_forward_row_by_row(seed):
    """Each step of ``gru_step`` over a forest is ``gru_forward`` on that
    step's rows from their parents' states, byte for byte."""
    a = _forest_arrays(np.random.default_rng(seed))
    ts = nm.parameters(a)
    p = nm.GruParams(*[ts[k] for k in GRU_FIELDS])
    out = gru_step(p, ts["e"], ts["f0"], FOREST_PARENTS, FOREST_SIZES)
    f, states, lo = a["f0"], [], 0
    for size in FOREST_SIZES:
        f = gru_forward(p, a["e"][lo:lo + size], f[list(FOREST_PARENTS[lo:lo + size])])[-1]
        states.append(f)
        lo += size
    assert out.data.tobytes() == np.concatenate(states).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_gru_step_over_a_forest_matches_finite_differences(seed):
    """Over ragged steps whose rows share parents, every gradient of
    ``gru_step``, the parents' states scattered back included, matches
    central differences."""
    rng = np.random.default_rng(seed)
    arrays = _forest_arrays(rng)
    upstream = rng.normal(size=(sum(FOREST_SIZES), 4))

    def run(a):
        ts = nm.parameters(a)
        out = gru_step(nm.GruParams(*[ts[k] for k in GRU_FIELDS]), ts["e"], ts["f0"],
                       FOREST_PARENTS, FOREST_SIZES)
        return ref.sum_all(ref.mul(out, nm.Tensor(upstream))), ts

    loss, ts = run(arrays)
    backward(loss)
    fd = ref.finite_difference(lambda a: run(a)[0].item(), arrays)
    for name in arrays:
        assert ref.max_rel_err(ts[name].grad, fd[name]) < 1e-4, name


@pytest.mark.parametrize("parent, sizes, error", [
    (FOREST_PARENTS, (3, 4, 2, 2), nm.ShapeMismatch),  # sizes do not sum to the rows
    (FOREST_PARENTS, (3, 4, 0, 5), nm.ShapeMismatch),  # an empty step
    (FOREST_PARENTS[:-1], FOREST_SIZES, nm.ShapeMismatch),
    ((3,) + FOREST_PARENTS[1:], FOREST_SIZES, nm.IndexOutOfRange),  # past f0's 3 rows
    (FOREST_PARENTS[:7] + (4,) + FOREST_PARENTS[8:], FOREST_SIZES, nm.IndexOutOfRange),
    ((-1,) + FOREST_PARENTS[1:], FOREST_SIZES, nm.IndexOutOfRange)])
def test_gru_step_rejects_a_malformed_forest(parent, sizes, error):
    p = ref.gru_init(3, 4, np.random.default_rng(0), "g", {})
    with pytest.raises(error):
        gru_step(p, nm.Tensor(np.zeros((12, 3))), nm.Tensor(np.zeros((3, 4))), parent, sizes)


@pytest.mark.parametrize("seed", SEEDS)
def test_gru_forward_is_the_trace_node_value(seed):
    rng = np.random.default_rng(seed)
    d, hdim, m = (int(n) for n in rng.integers(1, 7, size=3))
    raw = {}
    p = ref.gru_init(d, hdim, rng, "g", raw)
    for t in raw.values():
        t.data[...] += rng.normal(0, 0.5, t.data.shape)
    e, f = rng.normal(size=(m, d)), rng.normal(size=(m, hdim))
    traced = gru_step(p, nm.Tensor(e), nm.Tensor(f), *ref.whole_steps(m))
    assert gru_forward(p, e, f)[-1].tobytes() == traced.data.tobytes()


@pytest.mark.parametrize("rows", (0, 1, 7, 64))
def test_affine_matches_matmul_plus_rowvec(rows):
    rng = np.random.default_rng(rows)
    x0, w0, b0 = rng.normal(size=(rows, 5)), rng.normal(size=(5, 3)), rng.normal(size=3)
    upstream = rng.normal(size=(rows, 3))

    def run(layer):
        x, w, b = (nm.Tensor(a) for a in (x0, w0, b0))
        out = layer(x, w, b)
        backward(ref.sum_all(ref.mul(out, nm.Tensor(upstream))))
        return [a.tobytes() for a in (out.data, x.grad, w.grad, b.grad)]

    assert run(nm.affine) == run(lambda x, w, b: ref.add_rowvec(ref.matmul(x, w), b))


@pytest.mark.parametrize("x, w, b", [
    ((2, 4), (3, 5), (5,)),  # inner dimensions differ
    ((2, 3), (3, 5), (4,)),  # a bias of the wrong length
    ((3,), (3, 5), (5,)),  # x is not a matrix
])
def test_affine_rejects_what_the_composition_rejects(x, w, b):
    x, w, b = (nm.Tensor(np.zeros(shape)) for shape in (x, w, b))
    with pytest.raises(nm.ShapeMismatch, match="affine"):
        nm.affine(x, w, b)
    with pytest.raises(nm.ShapeMismatch):
        ref.add_rowvec(ref.matmul(x, w), b)


def test_one_adam_step_matches_a_step_per_group():
    # one state with a learning rate per parameter against the former one
    # state per group with a scalar learning rate, on the same gradients;
    # "out.cut" is disconnected (grad None) after its first two steps
    rng = np.random.default_rng(0)
    arrays = {"enc.w": rng.normal(size=(3, 4)), "enc.b": rng.normal(size=4),
              "out.w": rng.normal(size=(4, 2)), "out.cut": rng.normal(size=2)}
    lrs = {"enc": 0.03, "out": 0.01}
    flat = nm.parameters(arrays)
    state = nm.AdamState(flat, {k: lrs[k.split(".")[0]] for k in arrays})
    grouped = nm.parameters(arrays)
    groups = [({k: t for k, t in grouped.items() if k.startswith(g)}, ref.GroupAdamState(lr=lr))
              for g, lr in lrs.items()]
    for step in range(5):
        grads = {k: rng.normal(size=v.shape) for k, v in arrays.items()
                 if k != "out.cut" or step < 2}
        for params in (flat, grouped):
            for k, t in params.items():
                t.grad = grads.get(k)
        nm.adam_step(state, flat, lr_scale=0.5)
        for params, group_state in groups:
            ref.group_adam_step(group_state, params, ref.collect_grads(params), lr_scale=0.5)
        for k in arrays:
            assert flat[k].data.tobytes() == grouped[k].data.tobytes(), (step, k)
    assert not np.array_equal(flat["out.cut"].data, arrays["out.cut"])


def test_branch_free_sigmoid_matches_masked_oracle():
    rng = np.random.default_rng(0)
    extremes = [0.0, 37.0, -37.0, 745.0, -745.0, 1000.0, -1000.0, np.inf, -np.inf]
    x = np.concatenate([rng.normal(0, s, 200_000) for s in (1, 5, 40, 400)] + [extremes])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid-value warning
        got = nm._stable_sigmoid(x)
    want = ref.masked_sigmoid(x)
    assert np.abs(got - want).max() <= 2.0 ** -52
    assert got[-2:].tolist() == [1.0, 0.0]


def _decode_graphs(rng):
    yield ref.figure2_subgraph()
    for _ in range(5):
        yield ref.random_dag(rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_plain_walk_matches_traced_walk(seed):
    rng = np.random.default_rng(seed)
    for g in _decode_graphs(rng):
        m = LabelPathModel(g, input_dim=5, embed_dim=6, hidden=8, seed=int(rng.integers(1000)))
        for t in m.params.values():  # nonzero biases, sharper distributions
            t.data[...] += rng.normal(0, 0.5, t.data.shape)
        for x in rng.normal(size=(4, 5)):
            max_len = int(rng.integers(2, 7))
            want = ref.traced_walk(m, x, max_len, ref.greedy_choice)
            assert greedy_decode(m, x, max_len) == want
            draw_seed = int(rng.integers(2**32))
            draws = np.random.default_rng(draw_seed)
            want = ref.traced_walk(m, x, max_len, lambda dist: ref.sample_cross_block(dist, draws))
            got, = ref.rows(m.sample_path(x[None, :], np.random.default_rng(draw_seed), max_len))
            assert got == want


@pytest.mark.parametrize("seed", SEEDS)
def test_plain_encoding_and_logits_are_the_traced_values(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    g = ref.figure2_subgraph() if seed % 2 == 0 else ref.random_dag(rng)
    m = LabelPathModel(g, input_dim=5, embed_dim=6, hidden=8, seed=seed)
    for t in m.params.values():
        t.data[...] += rng.normal(0, 0.5, t.data.shape)
    xs = rng.normal(size=(3, 5))
    assert m.encode_values(xs).tobytes() == m.encode(xs).data.tobytes()
    seen = []
    softmax = nm.block_softmax
    monkeypatch.setattr(nm, "block_softmax",
                        lambda z, blocks: (seen.append(z.copy()), softmax(z, blocks))[1])
    f = m.encode_values(xs[:1])
    for prev in (m.start_token, *ref.candidate_blocks(m, g.root)[0][:1], g.root):
        _, f_plain, _ = m.step(f, [prev])
        f_traced, z = m.decode_logits(nm.Tensor(f), [prev], *ref.whole_steps(1))
        assert seen.pop().tobytes() == z.data.tobytes()
        assert f_plain.tobytes() == f_traced.data.tobytes()
        f = f_plain


def test_decode_logits_over_steps_is_the_chain_of_one_step_calls():
    rng = np.random.default_rng(3)
    m = LabelPathModel(ref.figure2_subgraph(), input_dim=5, embed_dim=6, hidden=8, seed=3)
    f0 = m.encode(rng.normal(size=(4, 5)))
    tokens = rng.integers(0, m.vocab_size, size=(3, 4))
    states, z = m.decode_logits(f0, tokens.ravel(), *ref.whole_steps(4, 3))
    f = f0
    for t, row in enumerate(tokens):
        f, z_t = m.decode_logits(f, row, *ref.whole_steps(4))
        assert f.data.tobytes() == states.data[4 * t:4 * t + 4].tobytes()
        # one head product over all steps: BLAS may round it differently
        np.testing.assert_allclose(z_t.data, z.data[4 * t:4 * t + 4], rtol=1e-14, atol=1e-15)


# Batch sizes of the lockstep engine: none, one, and both sides of evaluate's
# 256-row blocks.
ENGINE_ROWS = (0, 1, 255, 256, 257, 513)
# An [m, k] product and a [1, k] product differ in their last bits (OpenBLAS),
# so step_probs of a batch are within this many ulp of the one-row walk's.
# The largest seen: 11 in these tests, 16 on the benchmark's trained models.
ENGINE_ULP = 64


def _engine_cases(rng):
    """Random models, sharpened by nonzero biases, each with a random
    ``max_len``: first on the dead-end graph with its output biases zeroed,
    so that the input decides and about half the rows stop at the dead end
    while the rest reach EOP (a ``max_len`` of 4 or more fits both), then on
    the figure-2 subgraph, whose ``longhair`` is a dead end too, and on
    random DAGs."""
    cases = ((ref.dead_end_graph(), 4, True), (ref.figure2_subgraph(), 2, False),
             (ref.random_dag(rng), 2, False), (ref.random_dag(rng), 2, False))
    for g, shortest, no_bias in cases:
        m = LabelPathModel(g, input_dim=5, embed_dim=6, hidden=8, seed=int(rng.integers(1000)))
        for t in m.params.values():
            t.data[...] += rng.normal(0, 0.5, t.data.shape)
        if no_bias:
            m.params["out.b"].data[:] = 0.0
        yield m, int(rng.integers(shortest, 7))


def _assert_same_walks(got, want):
    """The rows of the record ``got`` against the oracle's walks ``want``:
    paths and stops exact; step probabilities within ``ENGINE_ULP``."""
    got = ref.rows(got)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.tokens, a.terminated_by) == (b.tokens, b.terminated_by)
        pa, pb = np.array(a.step_probs), np.array(b.step_probs)
        assert pa.shape == pb.shape
        assert (np.abs(pa - pb) <= ENGINE_ULP * np.spacing(pb)).all()


@pytest.mark.parametrize("rows", ENGINE_ROWS)
def test_lockstep_greedy_matches_one_row_oracle(rows):
    rng = np.random.default_rng(rows)
    for case, (m, max_len) in enumerate(_engine_cases(rng)):
        xs = rng.normal(size=(rows, 5))
        want = ref.step_major_walk(m, xs, max_len, ref.greedy_choice)
        got = decode_rows(m, xs, max_len)
        _assert_same_walks(got, want)
        if case == 0 and rows > 1:  # dead ends stop among rows that walk on to EOP
            assert {"dead_end", "eop"} <= {w.terminated_by for w in want}
        labels = rng.integers(len(m.graph.nodes), size=rows)
        data = [(x, int(label)) for x, label in zip(xs, labels)]
        if not data:
            with pytest.raises(EmptyDataset):
                evaluate(m, data, max_len)
            continue
        report = evaluate(m, data, max_len)
        assert report.accuracy == np.mean([ref.extract_label(m.graph, w.tokens) == label
                                           for w, label in zip(want, labels)])


@pytest.mark.parametrize("rows", ENGINE_ROWS)
def test_lockstep_sampling_matches_step_major_oracle(rows):
    rng = np.random.default_rng(100 + rows)
    for m, max_len in _engine_cases(rng):
        xs = rng.normal(size=(rows, 5))
        draw_seed = int(rng.integers(2**32))
        got_rng, want_rng = np.random.default_rng(draw_seed), np.random.default_rng(draw_seed)
        got = m.sample_path(xs, got_rng, max_len)
        want = ref.step_major_walk(m, xs, max_len,
                                   lambda dist: ref.sample_cross_block(dist, want_rng))
        _assert_same_walks(got, want)
        assert got_rng.random() == want_rng.random()  # the same draws, in the same order


def test_walks_that_stop_at_a_dead_end_report_dead_end():
    """On the dead-end graph with its output biases zeroed, the input decides
    between ``a`` (on to ``x`` and EOP) and the dead end ``b``. A walk that
    picks ``b`` stops there after two of its ``max_len`` steps, and
    ``decode_rows``, ``greedy_decode`` and ``sample_path`` report it as
    ``dead_end``, as the oracles do; every other walk reports ``eop``."""
    rng = np.random.default_rng(0)
    g = ref.dead_end_graph()
    m = LabelPathModel(g, input_dim=5, embed_dim=6, hidden=8, seed=0)
    for t in m.params.values():
        t.data[...] += rng.normal(0, 0.5, t.data.shape)
    m.params["out.b"].data[:] = 0.0
    xs, max_len = rng.normal(size=(40, 5)), 6
    greedy = decode_rows(m, xs, max_len)
    _assert_same_walks(greedy, ref.step_major_walk(m, xs, max_len, ref.greedy_choice))
    draws = np.random.default_rng(1)
    sampled = m.sample_path(xs, np.random.default_rng(1), max_len)
    _assert_same_walks(sampled, ref.step_major_walk(
        m, xs, max_len, lambda dist: ref.sample_cross_block(dist, draws)))
    for walks in (ref.rows(greedy), ref.rows(sampled)):
        assert {w.terminated_by for w in walks} == {"dead_end", "eop"}
        for w in walks:
            at_b = w.tokens == (g.root, g.id_of("b"))
            assert (w.terminated_by == "dead_end") == at_b
            assert len(w.step_probs) == (2 if at_b else 4)
    for x, w in zip(xs, ref.rows(greedy)):
        one = greedy_decode(m, x, max_len)
        assert one == ref.traced_walk(m, x, max_len, ref.greedy_choice)
        assert one.terminated_by == w.terminated_by


def test_forced_steps_run_no_step_and_draw_as_every_step(monkeypatch):
    """On the figure-2 subgraph the steps from START (to the root), from the
    root (to ``cat``) and from a leaf label (to EOP) are forced: one
    candidate each. The greedy and sampled walks are those of the oracle
    that steps every row at every step, with the same draws, their forced
    steps have probability 1.0, and ``step`` runs only where some row still
    walking has a choice."""
    rng = np.random.default_rng(29)
    m = LabelPathModel(ref.figure2_subgraph(), input_dim=5, embed_dim=6, hidden=8, seed=29)
    for t in m.params.values():
        t.data[...] += rng.normal(0, 0.5, t.data.shape)
    fed, step = [], m.step
    monkeypatch.setattr(m, "step", lambda f, prev: (fed.append(np.array(prev)), step(f, prev))[1])
    xs = rng.normal(size=(64, 5))
    got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    greedy, sampled = decode_rows(m, xs, 6), m.sample_path(xs, got_rng, 6)
    _assert_same_walks(greedy, ref.step_major_walk(m, xs, 6, ref.greedy_choice))
    _assert_same_walks(sampled, ref.step_major_walk(
        m, xs, 6, lambda dist: ref.sample_cross_block(dist, want_rng)))
    assert got_rng.random() == want_rng.random()
    walks = ref.rows(greedy) + ref.rows(sampled)
    assert {w.terminated_by for w in walks} == {"eop", "dead_end"}
    for w in walks:
        assert w.step_probs[:2] == (1.0, 1.0)
        assert w.terminated_by != "eop" or w.step_probs[-1] == 1.0
    choice = {t: len(ref.candidate_blocks(m, t)[0]) > 1 for t in np.flatnonzero(m._has_entry)}
    assert fed and all(any(choice[t] for t in prev.tolist()) for prev in fed)


def _wide_dag(rng):
    """root -> augmented layer -> 8 to 23 labels, the first 8 under mid-0,
    the rest under one or two random mids: a mid's first-claimed children
    form one block, of 8 or more members under mid-0. The ``dead-*`` nodes
    have no children: dead ends."""
    mids = [f"mid-{i}" for i in range(int(rng.integers(2, 5)))]
    dead = [f"dead-{i}" for i in range(int(rng.integers(1, 3)))]
    labels = [f"leaf-{i}" for i in range(int(rng.integers(8, 24)))]
    edges = [("mid-0", name) for name in labels[:8]]
    for name in labels[8:]:
        edges += [(str(p), name) for p in rng.choice(mids, size=int(rng.integers(1, 3)),
                                                     replace=False)]
    return build_graph([("ds", labels)], [(n, ["root"]) for n in mids + dead], edges, [])


def _row_blocks(layout, r):
    """The blocks of row ``r`` of a layout, as tuples of token ids."""
    return [tuple(layout.cols[s0:s0 + n].tolist())
            for s0, n in zip(layout.starts, layout.sizes) if layout.rows[s0] == r]


@pytest.mark.parametrize("seed", SEEDS)
def test_table_layouts_and_draws_on_wide_blocks(seed):
    """On graphs with dead ends and blocks of 8 or more members (where numpy
    sums a vector pairwise): every token's one-row layout, and the same
    token among 257 gathered rows, hold the blocks of ``oracle_candidates``;
    and one ``_draw`` over those rows equals ``ref.sample_cross_block`` row
    after row, and leaves the same generator state."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        g = _wide_dag(rng)
        m = LabelPathModel(g, input_dim=5, embed_dim=6, hidden=8, seed=int(rng.integers(1000)))
        live = np.flatnonzero(m._has_entry)
        assert m._table.sizes.max() >= 8
        assert any(g.node(t).name.startswith("dead-") for t in set(range(m.start_token))
                   - set(live.tolist()))
        prev = rng.permutation(np.concatenate([live, rng.choice(live, 257 - live.size)]))
        rows = m.candidates(prev)
        oracle = {}
        for tok in live.tolist():
            toks, blocks = oracle_candidates(g, tok)
            oracle[tok] = toks, blocks
            want = [tuple(toks[i] for i in b) for b in blocks]
            assert _row_blocks(m.candidates([tok]), 0) == want
            for r in np.flatnonzero(prev == tok):
                assert _row_blocks(rows, r) == want
        p = nm.block_softmax(rng.normal(0, 3.0, (prev.size, m.vocab_size)), rows)
        draw_seed = int(rng.integers(2**32))
        got_rng, want_rng = np.random.default_rng(draw_seed), np.random.default_rng(draw_seed)
        dists = [ref.StepDistribution(tokens=oracle[t][0], probs=p[i, list(oracle[t][0])],
                                      blocks=oracle[t][1]) for i, t in enumerate(prev.tolist())]
        tok, top = m._draw(p, rows, got_rng)
        want = [ref.sample_cross_block(dist, want_rng) for dist in dists]
        assert list(zip(tok.tolist(), top.tolist())) == want
        assert got_rng.random() == want_rng.random()
        # draws that fall on a CDF value: an ulp of difference in a block's
        # sum or CDF changes the pick
        u = []
        for dist in dists:
            for blk in dist.blocks:
                q = dist.probs[list(blk)]
                cdf = (q / q.sum()).cumsum()
                cdf /= cdf[-1]
                inner = cdf[:-1][cdf[:-1] < 1.0]
                u.append(float(rng.choice(inner)) if inner.size else float(rng.random()))
        tok, top = m._draw(p, rows, _GivenDraws(u))
        given = _GivenDraws(u)
        assert list(zip(tok.tolist(), top.tolist())) == [ref.sample_cross_block(dist, given)
                                                         for dist in dists]


class _GivenDraws:
    """A generator stand-in whose ``random`` returns the given values in order."""

    def __init__(self, u):
        self.u = list(u)

    def random(self, size=None):
        if size is None:
            return self.u.pop(0)
        out, self.u = np.array(self.u[:size]), self.u[size:]
        return out


def _random_blocks(rng):
    """Logits over ``v`` columns and a random partition of ``k`` ascending
    columns among them, some blocks far apart in scale."""
    v = int(rng.integers(1, 30))
    k = int(rng.integers(1, v + 1))
    cols = np.sort(rng.choice(v, size=k, replace=False))
    z = rng.normal(0, float(rng.choice([0.1, 3.0, 40.0])), v)
    return z, cols, ref.random_partition(rng, k)


@pytest.mark.parametrize("seed", SEEDS)
def test_segment_block_softmax_matches_per_block_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(300):
        z, cols, blocks = _random_blocks(rng)
        seg = nm.compile_blocks(blocks, cols)
        got = nm.block_softmax(z[None, :], seg)[0]
        want = ref.block_softmax(z[cols], blocks)
        assert got[cols].argmax() == want.argmax()
        assert not np.delete(got, cols).any()  # 0 off the blocks
        # segment sums run in another order than e.sum() for blocks of 3 or more
        assert (np.abs(got[cols] - want) <= 4 * np.spacing(want)).all()
        # each row of a gathered layout is that row's own call, bit for bit
        zs = np.stack([z, *rng.normal(0, 3.0, (int(rng.integers(0, 5)), z.size))])
        nb = seg.sizes.size
        rows = nm.block_softmax(zs, nm.gather_blocks(seg, np.arange(len(zs)).repeat(nb),
                                                     np.tile(np.arange(nb), len(zs))))
        for z_row, row in zip(zs, rows):
            assert row.tobytes() == nm.block_softmax(z_row[None, :], seg)[0].tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_inverse_cdf_sampler_matches_choice_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        z, cols, blocks = _random_blocks(rng)
        dist = ref.StepDistribution(tokens=tuple(int(c) for c in cols),
                                    probs=ref.block_softmax(z[cols], blocks),
                                    blocks=tuple(blocks))
        draw_seed = int(rng.integers(2**32))
        got_rng, want_rng = np.random.default_rng(draw_seed), np.random.default_rng(draw_seed)
        got = [ref.sample_cross_block(dist, got_rng) for _ in range(40)]
        want = [ref.choice_cross_block(dist, want_rng) for _ in range(40)]
        assert got == want
        assert got_rng.random() == want_rng.random()  # the same generator state


@pytest.mark.parametrize("seed", SEEDS)
def test_rows_block_log_prob_matches_one_row_oracle(seed):
    rng = np.random.default_rng(seed)
    m, v = int(rng.integers(1, 8)), int(rng.integers(1, 13))
    z0 = rng.normal(0, 3, (m, v))
    blocks, targets = [], []
    for i in range(m):
        if i and rng.random() < 0.25:
            blocks.append(None)  # an unscored row
            targets.append(0)
            continue
        blk = [int(c) for c in rng.choice(v, size=int(rng.integers(1, v + 1)), replace=False)]
        blocks.append(blk)
        targets.append(blk[int(rng.integers(len(blk)))])
    weights = rng.normal(size=m)

    z_rows, z_one = nm.Tensor(z0), nm.Tensor(z0)
    rows = ref.row_log_prob(z_rows, ref.row_blocks(blocks),
                            [t for b, t in zip(blocks, targets) if b is not None])
    backward(nm.weighted_sum(rows, weights))
    terms = []
    for i, (blk, t) in enumerate(zip(blocks, targets)):
        if blk is None:
            assert rows.data[i] == 0.0 and not z_rows.grad[i].any()
            continue
        one = ref.block_log_prob_row(ref.take_row(z_one, i), blk, t)
        assert rows.data[i] == one.item()
        terms.append(ref.scale(one, weights[i]))
    backward(ref.add_n(terms))
    np.testing.assert_allclose(z_rows.grad, z_one.grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_rows_rescoring_matches_per_path_oracle(seed):
    rng = np.random.default_rng(seed)
    g = ref.figure2_subgraph() if seed % 2 == 0 else ref.random_dag(rng)
    m = LabelPathModel(g, input_dim=5, embed_dim=6, hidden=8, seed=seed)
    xs = rng.normal(size=(6, 5))
    # ragged: short budgets truncate some walks before EOP
    samples = [ref.rows(m.sample_path(x[None, :], rng, max_len=2 + i % 4))[0]
               for i, x in enumerate(xs)]
    weights = rng.normal(size=len(samples))

    def grads_of(loss):
        nm.zero_grads(m.params)
        backward(loss)
        return {k: v.copy() for k, v in ref.collect_grads(m.params).items()}

    rows = ref.rescored(m, xs, ref.walks_of(samples))
    singles = [ref.path_log_prob(m, x, s.tokens + ((m.eop_token,) if s.terminated_by == "eop"
                                                   else ()))
               for x, s in zip(xs, samples)]
    assert rows.data.shape == (len(samples),)
    np.testing.assert_allclose(rows.data, [s.item() for s in singles], rtol=0, atol=1e-12)
    g_rows = grads_of(nm.weighted_sum(rows, weights))
    g_singles = grads_of(ref.add_n([ref.scale(s, w) for s, w in zip(singles, weights)]))
    for name, want in g_singles.items():
        np.testing.assert_allclose(g_rows[name], want, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("seed", SEEDS)
def test_score_lanes_matches_one_lane_oracle(seed):
    """Per lane, the ``score_lanes`` totals are ``ref.lane_log_prob``'s, teacher
    forced and free running, on ragged lanes, some with later targets outside
    the vocabulary (skipped when free running). Some free-running walks stop
    inside their lanes: at EOP on the coarse label, or at the dead end ``b``,
    which its logit bias makes the pick after the root."""
    rng = np.random.default_rng(seed)
    stops = {"eop": 0, "dead_end": 0}
    for g, favoured in ((ref.figure2_subgraph(), None), (ref.dead_end_graph(), "b"),
                        (ref.coarse_label_graph(), None), (ref.random_dag(rng), None)):
        m = LabelPathModel(g, input_dim=5, embed_dim=6, hidden=8, seed=seed)
        for t in m.params.values():
            t.data[...] += rng.normal(0, 0.5, t.data.shape)
        if favoured:
            m.params["out.b"].data[g.id_of(favoured)] += 8.0
        paths = [list(p) for label in ref.label_ids(g) for p in all_paths_to(g, label)]
        lanes = [max(paths, key=len)] + [paths[i][:int(rng.integers(1, len(paths[i]) + 1))]
                                         for i in rng.integers(len(paths), size=6)]
        xs = rng.normal(size=(len(lanes) + 2, 5))
        f = m.encode(xs)
        free = lanes + [lanes[0] + [m.vocab_size], lanes[0][:1] + [-1, 2 * m.vocab_size - 1]]
        for teacher, batch in ((True, lanes), (False, free)):
            got = ref.score(m, f, batch, teacher).data
            want = [ref.lane_log_prob(m, f.data[i:i + 1], lane, teacher)
                    for i, lane in enumerate(batch)]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for lane, w in zip(lanes, ref.step_major_walk(m, xs[:len(lanes)], 8, ref.greedy_choice)):
            if w.terminated_by == "eop" and len(w.tokens) + 1 < len(lane):
                stops["eop"] += 1
            elif w.terminated_by == "dead_end" and len(w.tokens) < len(lane) <= 8:
                stops["dead_end"] += 1
    assert stops["eop"] and stops["dead_end"]


@pytest.mark.parametrize("seed", SEEDS)
def test_one_pass_of_mixed_lanes_matches_two_passes(seed):
    """Teacher-forced lanes, fed their targets or their greedy walks by the
    coin, and PG rescoring lanes, always fed their own tokens, in one
    ``score_lanes`` call with one flag per lane as ``train_epoch`` joins
    them: each lane's total is its own group's separate pass's, within
    ``ENGINE_ULP``. The lanes are of other lengths than the walks."""
    rng = np.random.default_rng(seed)
    g = ref.figure2_subgraph() if seed % 2 == 0 else ref.random_dag(rng)
    m = LabelPathModel(g, input_dim=5, embed_dim=6, hidden=8, seed=seed)
    for t in m.params.values():
        t.data[...] += rng.normal(0, 0.5, t.data.shape)
    paths = [list(p) for label in ref.label_ids(g) for p in all_paths_to(g, label)]
    lanes = [paths[i][:int(rng.integers(1, 7))] for i in rng.integers(len(paths), size=5)]
    xs = rng.normal(size=(9, 5))
    walks = m.sample_path(xs[5:], rng, 2 + seed % 5)
    f, tf, pg = m.encode(xs), step_major(lanes, max(map(len, lanes))), m.sampled_path_log_prob(walks)
    for coin in (True, False):
        joined = _joined(((Lanes(*tf, np.arange(5), np.ones(5), np.full(5, coin)), 1.0),
                          (Lanes(*pg, np.arange(5, 9), np.ones(4), np.ones(4, dtype=bool)), 1.0)))
        one = m.score_lanes(f, joined.rows, joined.targets, joined.lengths, joined.teacher).data
        two = np.concatenate([
            m.score_lanes(f, np.arange(5), *tf, np.full(5, coin)).data,
            m.score_lanes(f, np.arange(5, 9), *pg, np.ones(4, dtype=bool)).data])
        assert (np.abs(one - two) <= ENGINE_ULP * np.abs(np.spacing(two))).all(), (one, two)


@pytest.mark.parametrize("seed", SEEDS)
def test_singleton_steps_are_left_out_bit_for_bit(seed, monkeypatch):
    """``score_lanes`` leaves out of its gather and log-softmax the steps
    whose target is alone in its block, such as every lane's START -> root:
    on mixed teacher-forced and free-running lanes and PG rescoring lanes,
    the totals, the pooled loss and every gradient are those of scoring
    every step, byte for byte."""
    rng = np.random.default_rng(seed)
    g = ref.figure2_subgraph() if seed % 2 == 0 else ref.random_dag(rng)
    m = LabelPathModel(g, input_dim=5, embed_dim=6, hidden=8, seed=seed)
    for t in m.params.values():
        t.data[...] += rng.normal(0, 0.5, t.data.shape)
    paths = [list(p) for label in ref.label_ids(g) for p in all_paths_to(g, label)]
    lanes = [paths[i][:int(rng.integers(1, 7))] for i in rng.integers(len(paths), size=6)]
    xs = rng.normal(size=(10, 5))
    walks = m.sample_path(xs[6:], rng, 2 + seed % 5)
    joined = _joined(((Lanes(*step_major(lanes, max(map(len, lanes))), np.arange(6),
                             rng.normal(size=6), np.arange(6) % 2 == 0), 1.0),
                      (Lanes(*m.sampled_path_log_prob(walks), np.arange(6, 10),
                             rng.normal(size=4), np.ones(4, dtype=bool)), 0.5)))
    scored = []
    log_prob = nm.block_log_prob
    monkeypatch.setattr(nm, "block_log_prob", lambda z, blocks, *rest: (
        scored.append(blocks.sizes.size), log_prob(z, blocks, *rest))[1])

    def run():
        totals = m.score_lanes(m.encode(xs), joined.rows, joined.targets, joined.lengths,
                               joined.teacher)
        nm.zero_grads(m.params)
        loss = ref.pooled(m, xs, joined)
        backward(loss)
        return (totals.data.tobytes(), loss.data.tobytes(),
                {k: grad.tobytes() for k, grad in ref.collect_grads(m.params).items()})

    got = run()
    monkeypatch.setattr(m, "_key_choice", np.ones_like(m._key_choice))  # score every step
    assert got == run()
    assert scored[0] + joined.lengths.size <= scored[2]  # at least each START -> root


@pytest.mark.parametrize("seed", SEEDS)
def test_lanes_that_share_a_prefix_share_its_gru_rows(seed, monkeypatch):
    """Lanes of one row that share a fed prefix run one GRU row for it:
    ``score_lanes`` runs one per distinct (row, fed prefix) within the
    lanes' lengths, counted by wrapping ``nm.gru_forward``. Each row's
    lanes are adjacent and in lexicographic order, as a batch's are; some
    are prefixes of others, some repeat. The totals are those of scoring
    each lane alone within ``ENGINE_ULP``, and every gradient theirs within
    1e-12."""
    rng = np.random.default_rng(seed)
    g = ref.figure2_subgraph() if seed % 2 == 0 else ref.random_dag(rng)
    m = LabelPathModel(g, input_dim=5, embed_dim=6, hidden=8, seed=seed)
    for t in m.params.values():
        t.data[...] += rng.normal(0, 0.5, t.data.shape)
    paths = [list(p) for label in ref.label_ids(g) for p in all_paths_to(g, label)]
    rows, lanes = [], []
    for row in range(4):
        picked = [paths[i][:int(rng.integers(1, 7))] for i in rng.integers(len(paths), size=4)]
        lanes += sorted(picked)
        rows += [row] * len(picked)
    rows, weights, xs = np.array(rows), rng.normal(size=len(lanes)), rng.normal(size=(4, 5))
    target, n = step_major(lanes, max(map(len, lanes)))
    teacher = np.ones(len(lanes), dtype=bool)
    distinct = {(int(r),) + tuple(lane[:t]) for r, lane in zip(rows, lanes)
                for t in range(len(lane))}
    assert len(distinct) < target.size  # the batch shares prefixes

    ran = []
    forward = nm.gru_forward
    monkeypatch.setattr(nm, "gru_forward",
                        lambda p, e, f: (ran.append(len(e)), forward(p, e, f))[1])

    def grads_of(loss):
        nm.zero_grads(m.params)
        backward(loss)
        return {k: v.copy() for k, v in ref.collect_grads(m.params).items()}

    totals = m.score_lanes(m.encode(xs), rows, target, n, teacher)
    assert sum(ran) == len(distinct)
    g_totals = grads_of(nm.weighted_sum(totals, weights))
    alone = [m.score_lanes(m.encode(xs), rows[i:i + 1], target[:, i:i + 1], n[i:i + 1],
                           teacher[i:i + 1]) for i in range(len(lanes))]
    want = np.concatenate([a.data for a in alone])
    assert (np.abs(totals.data - want) <= ENGINE_ULP * np.abs(np.spacing(want))).all()
    g_alone = grads_of(ref.add_n([ref.scale(ref.sum_all(a), w) for a, w in zip(alone, weights)]))
    for name, want in g_alone.items():
        np.testing.assert_allclose(g_totals[name], want, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("seed", SEEDS)
def test_free_running_lanes_walk_each_row_once(seed, monkeypatch):
    """The free-running lanes of one row are fed one greedy walk, walked
    once: four lanes of one figure-2 sample walk one row, counted by
    wrapping ``walk``. The totals are those of scoring each lane alone
    within ``ENGINE_ULP``."""
    rng = np.random.default_rng(seed)
    g = ref.figure2_subgraph()
    m = LabelPathModel(g, input_dim=5, embed_dim=6, hidden=8, seed=seed)
    for t in m.params.values():
        t.data[...] += rng.normal(0, 0.5, t.data.shape)
    lanes = sorted(list(p) for label in ref.label_ids(g) for p in all_paths_to(g, label))[:4]
    target, n = step_major(lanes, max(map(len, lanes)))
    rows, teacher, xs = np.zeros(4, dtype=np.intp), np.zeros(4, dtype=bool), rng.normal(size=(1, 5))
    walked = []
    walk = m.walk
    monkeypatch.setattr(m, "walk", lambda f, *rest: (walked.append(len(f)), walk(f, *rest))[1])
    totals = m.score_lanes(m.encode(xs), rows, target, n, teacher)
    assert walked == [1]
    want = np.concatenate([m.score_lanes(m.encode(xs), rows[:1], target[:, i:i + 1],
                                         n[i:i + 1], teacher[:1]).data for i in range(4)])
    assert (np.abs(totals.data - want) <= ENGINE_ULP * np.abs(np.spacing(want))).all()


@pytest.mark.parametrize("teacher", (True, False))
def test_score_lanes_rejects_targets_outside_the_vocabulary(teacher):
    """A target at or past ``vocab_size`` or below 0 raises InvalidPath, even
    one whose ``prev * vocab_size + target`` key is a real pair's: that of
    the token after ``prev`` or the token before it. Free running checks
    the first target only."""
    g = ref.figure2_subgraph()
    m = LabelPathModel(g, input_dim=5, embed_dim=6, hidden=8, seed=1)
    v = m.vocab_size
    path = [g.id_of(n) for n in ("animal", "cat", "shorthair", "british-shorthair")]
    f = m.encode(np.zeros((1, 5)))
    rejected = 0
    for k in range(len(path) if teacher else 1):
        prev = path[k - 1] if k else m.start_token
        bad = [v, v + 3, -1, -v]
        for q, shift in ((prev + 1, v), (prev - 1, -v)):
            if 0 <= q < v and m._has_entry[q]:  # aliases the pair (q, first candidate)
                bad.append(int(m.candidates([q]).cols[0]) + shift)
        for target in bad:
            with pytest.raises(InvalidPath, match=f"token {target} is not a candidate"):
                ref.score(m, f, [path[:k] + [target]], teacher)
            rejected += 1
    assert rejected >= (20 if teacher else 4)


def _split_graphs(rng):
    yield ref.figure2_subgraph()
    for _ in range(25):
        yield ref.random_dag(rng)
    for singleton in (False, True):
        for depth in (1, 2, 3, 4, 5):
            yield ref.layered_dag(depth, singleton=singleton)
            yield ref.layered_dag(depth, rng, singleton)


@pytest.mark.parametrize("seed", SEEDS)
def test_pathbook_split_matches_pairwise_oracle(seed):
    for g in _split_graphs(np.random.default_rng(seed)):
        book = PathBook(g)
        for label in ref.label_ids(g):
            det, nd = book.split(label)
            assert (list(det), list(nd)) == ref.oracle_classify(g, label)


def _assert_counted(paths, want):
    """A counted path set against the oracle's list: its length, every index,
    negative ones too, slices with steps, iteration order, and IndexError
    just past either end."""
    n = len(want)
    assert (len(paths), bool(paths)) == (n, bool(want))
    assert [paths[k] for k in range(-n, n)] == want + want
    for cut in (slice(None), slice(1, None), slice(None, 3), slice(None, None, 2),
                slice(1, -1, 3), slice(None, None, -1), slice(-2, None, -2)):
        assert paths[cut] == want[cut], cut
    assert list(paths) == want
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            paths[k]


@pytest.mark.parametrize("seed", SEEDS)
def test_counted_paths_match_oracle(seed):
    """``all_paths_to``, with and without ``avoid``, and both halves of the
    split against the enumerating oracles."""
    rng = np.random.default_rng(seed)
    for g in _split_graphs(rng):
        book = PathBook(g)
        for label in ref.label_ids(g):
            want = ref.oracle_all_paths(g, label)
            _assert_counted(all_paths_to(g, label), want)
            on_paths = sorted({v for p in want for v in p} - {g.root, label})
            for _ in range(3):
                avoid = frozenset(v for v in on_paths if rng.random() < 0.3)
                _assert_counted(all_paths_to(g, label, avoid),
                                [p for p in want if avoid.isdisjoint(p)])
            for half, want_half in zip(book.split(label), ref.oracle_classify(g, label)):
                _assert_counted(half, want_half)


def _layered_path(g, rank, depth):
    """Closed form of the path of ``rank`` in ``ref.layered_dag(depth)``: bit
    ``depth - k`` of the rank picks the larger id of layer k."""
    pairs = [sorted(g.id_of(n) for n in (f"a{k}", f"b{k}")) for k in range(1, depth + 1)]
    return (g.root, *(pair[(rank >> (depth - k)) & 1] for k, pair in enumerate(pairs, 1)),
            g.id_of("x"))


@pytest.mark.parametrize("singleton", (False, True))
def test_million_path_split_in_polynomial_time(singleton):
    depth, n_p = 20, 4
    g = ref.layered_dag(depth, singleton=singleton)
    t0 = time.perf_counter()
    det, nd = PathBook(g).split(g.id_of("x"))
    counts, firsts = (len(det), len(nd)), (det[:n_p], nd[:n_p])
    elapsed = time.perf_counter() - t0
    assert counts == ((2 ** depth, 0) if singleton else (0, 2 ** depth))
    some = [_layered_path(g, k, depth) for k in range(n_p)]
    assert firsts == ((some, []) if singleton else ([], some))
    assert elapsed < 1.0
    ranks = (2 ** depth - 1, 2 ** 19 + 12345, 777)
    assert [(det or nd)[k] for k in ranks] == [_layered_path(g, k, depth) for k in ranks]


@pytest.mark.parametrize("seed", SEEDS)
def test_lane_table_gathers_each_targets_first_deterministic_paths(seed):
    """Each sample's lanes, gathered from the book's lane table, are its
    target's oracle ``det[:n_p]`` cut to ``max_len``, for label nodes and
    augmented targets (coarse labels) alike, over batches that add targets
    to the table; a target without a deterministic path gets none and goes
    to I_pg. Each target's paths are split once per table."""
    rng = np.random.default_rng(seed)
    for g in list(_split_graphs(rng))[::3]:
        book, split = PathBook(g), PathBook.split
        targets = [n.id for n in g.nodes if n.id != g.root]
        oracle = {v: ref.oracle_classify(g, v)[0] for v in targets}
        for n_p, max_len in ((1, 8), (4, 3), (4, 8)):
            calls = []
            book.split = lambda v: calls.append(v) or split(book, v)
            for _ in range(3):
                labels = [int(v) for v in rng.choice(targets, size=6)]
                batch = build_batch([LabeledSample(np.zeros(3), v) for v in labels],
                                    TrainConfig(n_p=n_p, max_len=max_len), book, rng)
                want = [[p[:max_len] for p in oracle[v][:n_p]] for v in labels]
                assert ref.lane_paths(batch) == want
                assert batch.pg_indexes == tuple(i for i, w in enumerate(want) if not w)
            assert len(calls) == len(set(calls))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_path_agg_draws_the_oracle_paths(seed):
    for g in _split_graphs(np.random.default_rng(seed)):
        labels = [lb for lb in ref.label_ids(g) if ref.oracle_classify(g, lb)[0]]
        samples = [LabeledSample(np.zeros(3), lb) for lb in labels * 3]
        if not samples:
            continue
        cfg = TrainConfig(path_agg="random")
        batch = build_batch(samples, cfg, PathBook(g), np.random.default_rng(seed))
        draws = np.random.default_rng(seed)
        want = []
        for s in samples:
            det = [tuple(p) for p in ref.oracle_classify(g, s.label)[0]]
            want.append([det[int(draws.integers(len(det)))][:cfg.max_len]])
        assert ref.lane_paths(batch) == want


def test_random_path_agg_draws_past_int64():
    """2^64 deterministic paths: more than ``rng.integers`` can bound, so the
    draw falls back to 64-bit words, and still reaches either half of the
    ranks (bit 63 picks layer 1's larger id)."""
    depth = 64
    g = ref.layered_dag(depth, singleton=True)
    x = g.id_of("x")
    samples = [LabeledSample(np.zeros(3), x)] * 16
    book = PathBook(g)
    assert book.split(x)[0].total == 2 ** depth
    # lanes are cut to max_len: this one keeps whole paths
    batch = build_batch(samples, TrainConfig(path_agg="random", max_len=depth + 2), book,
                        np.random.default_rng(0))
    pairs = [sorted(g.id_of(n) for n in (f"a{k}", f"b{k}")) for k in range(1, depth + 1)]
    halves = set()
    for (path,) in ref.lane_paths(batch):
        assert len(path) == depth + 2 and (path[0], path[-1]) == (g.root, x)
        assert all(node in pair for node, pair in zip(path[1:-1], pairs))
        halves.add(pairs[0].index(path[1]))
    assert halves == {0, 1}


def test_deep_chain_splits_without_recursion():
    """root -> {a, b} -> n1 -> ... -> n5000 -> x: two paths, each 5,003 nodes
    long, deeper than Python's recursion limit."""
    depth = 5000
    chain = [(f"n{k}", [f"n{k - 1}"]) for k in range(2, depth + 1)]
    g = build_graph([("d", ["x"])], [("a", ["root"]), ("b", ["root"]), ("n1", ["a", "b"])]
                    + chain, [(f"n{depth}", "x")], [("only-a", ["a"]), ("only-b", ["b"])])
    x = g.id_of("x")
    middle = tuple(g.id_of(f"n{k}") for k in range(1, depth + 1))
    want = [(g.root, g.id_of(first), *middle, x) for first in ("a", "b")]
    det, nd = PathBook(g).split(x)
    assert (len(det), len(nd)) == (2, 0)
    assert [det[0], det[1], det[-1]] == want + want[1:]
    assert det[::-1] == want[::-1] and list(det) == want
    assert list(all_paths_to(g, x)) == want


SYNTH_SPECS = {
    "default": SynthSpec(),
    # the sixth label samples every attribute, as in the pg-mixed benchmark
    "pg-mixed": SynthSpec(label_profiles=SynthSpec().label_profiles[:5] + ((None,) * 3,)),
    # fixed, subset, absent and all-None entries over five coarse categories
    "five-coarse": SynthSpec(n_fine_labels=20, n_coarse=5, group_sizes=(3, 2, 4, 2, 3),
                             label_profiles=((0, 1, 2, 0, 1), ((0, 2), (0, 1), 3, 1, None),
                                             (1, (), (1, 3), (), 0), (None,) * 5),
                             noise_sigma=0.0, n_train_fine=200, n_train_coarse=100,
                             n_test=200, seed=3),
    "noiseless": SynthSpec(noise_sigma=0.0),
    "seed-4242": SynthSpec(seed=4242),
}


@pytest.mark.parametrize("name", SYNTH_SPECS)
def test_synth_generate_draws_the_reference_samples(name):
    """The generator's fine, coarse and test sets equal the per-sample
    oracle's byte for byte: x bytes, labels, and attrs in group order."""
    spec = SYNTH_SPECS[name]
    _, *sets = synth_generate(spec)
    for ds, want in zip(sets, ref.synth_samples(spec)):
        got = [(s.x.dtype, s.x.shape, s.x.tobytes(), s.label,
                None if s.attrs is None else list(s.attrs.items())) for s in ds.samples]
        assert got == [(x.dtype, x.shape, x.tobytes(), label,
                        None if attrs is None else list(attrs.items()))
                       for x, label, attrs in want]
    sample = sets[2].samples[0]
    with pytest.raises(AttributeError):
        sample.label = "other"
