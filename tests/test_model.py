"""Decoder model: candidate masking, step distributions, path scoring and
free-running sampling."""

import hashlib
import json

import numpy as np
import pytest

from pathcast import numerics as nm
from pathcast.evaldecode import decode_rows, greedy_decode, predicted_labels
from pathcast.labelgraph import NodeKind, load_graph, save_graph, serialize
from pathcast.model import (InvalidPath, LabelPathModel, NoCandidates, Walk,
                            graph_digest, greedy_pick, load_model, read_sidecar,
                            save_model, step_major)
from pathcast.numerics import CorruptCheckpoint

from reference import (add_n, candidate_blocks, collect_grads, dead_end_graph, extract_label,
                       figure2_subgraph, greedy_choice, label_ids, path_log_prob, random_dag,
                       rescored, rows, sample_cross_block, scale, score, step, step_major_walk,
                       sum_all, walks_of)


def make_model(graph, seed=0, input_dim=5, embed_dim=6, hidden=8):
    return LabelPathModel(graph, input_dim=input_dim, embed_dim=embed_dim,
                          hidden=hidden, seed=seed)


def chain_graph():
    from pathcast.labelgraph import build_graph
    return build_graph([("d", ["x"])], augmented_spec=[("a", ["root"])],
                       edge_spec=[("a", "x")])


class TestEncode:
    def test_zero_weights_zero_feature(self):
        g = chain_graph()
        m = make_model(g)
        for name in m.encoder_param_names:
            m.params[name].data[...] = 0.0
        out = m.encode(np.ones(5))
        np.testing.assert_allclose(out.data, np.zeros((1, 8)))

    def test_deterministic(self):
        g = chain_graph()
        x = np.random.default_rng(0).normal(size=5)
        a = make_model(g, seed=3).encode(x).data
        b = make_model(g, seed=3).encode(x).data
        np.testing.assert_array_equal(a, b)

    def test_matches_scalar_oracle(self):
        g = chain_graph()
        m = make_model(g)
        x = np.random.default_rng(1).normal(size=5)
        out = m.encode(x).data[0]
        w1, b1 = m.params["enc.w1"].data, m.params["enc.b1"].data
        w2, b2 = m.params["enc.w2"].data, m.params["enc.b2"].data
        hdim = w1.shape[1]
        h = np.zeros(hdim)
        for i in range(hdim):
            h[i] = np.tanh(sum(x[k] * w1[k, i] for k in range(5)) + b1[i])
        want = np.zeros(hdim)
        for i in range(hdim):
            want[i] = sum(h[k] * w2[k, i] for k in range(hdim)) + b2[i]
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_shape_check(self):
        m = make_model(chain_graph())
        with pytest.raises(nm.ShapeMismatch):
            m.encode(np.zeros(7))


class TestStep:
    def test_start_forces_root(self):
        g = figure2_subgraph()
        m = make_model(g)
        f = m.encode(np.zeros(5)).data
        probs, _, _ = m.step(f, [m.start_token])
        assert np.flatnonzero(probs[0]).tolist() == [g.root]
        assert probs[0, g.root] == 1.0

    def test_cat_has_two_blocks_summing_to_one(self):
        g = figure2_subgraph()
        m = make_model(g, seed=5)
        f = m.encode(np.random.default_rng(2).normal(size=5)).data
        probs, _, _ = m.step(f, [g.id_of("cat")])
        names = {g.node(t).name for t in np.flatnonzero(probs[0])}
        assert names == {"shorthair", "longhair", "solid-color",
                         "tabby-color", "point-color"}
        cands = m.candidates([g.id_of("cat")])
        assert cands.sizes.size == 2
        for s0, n in zip(cands.starts, cands.sizes):
            assert abs(probs[0, cands.cols[s0:s0 + n]].sum() - 1.0) < 1e-12
        assert probs[0, m.eop_token] == 0.0  # cat is augmented here

    def test_distribution_builds_no_tensor(self, monkeypatch):
        # the block softmax is plain numpy: picking a token adds no trace node
        g = figure2_subgraph()
        m = make_model(g, seed=5)
        z_row = np.random.default_rng(4).normal(size=m.vocab_size)
        built = [0]
        init = nm.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(nm.Tensor, "__init__", counting_init)
        probs = nm.block_softmax(z_row[None, :], m.candidates([g.id_of("cat")]))
        assert built[0] == 0
        assert type(probs) is np.ndarray
        seg = nm.compile_blocks([[0, 1], [2]], range(3))
        assert type(nm.block_softmax(z_row[None, :], seg)) is np.ndarray

    def test_label_leaf_offers_eop_only(self):
        g = figure2_subgraph()
        m = make_model(g)
        f = m.encode(np.zeros(5)).data
        probs, _, _ = m.step(f, [g.id_of("british-shorthair")])
        assert np.flatnonzero(probs[0]).tolist() == [m.eop_token]
        assert probs[0, m.eop_token] == 1.0

    def test_candidates_are_graph_children_or_eop(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            g = random_dag(rng)
            m = make_model(g, seed=int(rng.integers(1000)))
            f = m.encode(rng.normal(size=5)).data
            live = []
            for tok in range(len(g.nodes)):
                try:
                    probs, _, _ = m.step(f, [tok])
                except NoCandidates:
                    continue
                live.append(tok)
                for t in np.flatnonzero(probs[0]):
                    assert t == m.eop_token or t in g.children(tok)
            # one step over every live token at once gives each row its own
            probs, _, _ = m.step(np.repeat(f, len(live), axis=0), live)
            for row, tok in zip(probs, live):
                np.testing.assert_allclose(row, m.step(f, [tok])[0][0], rtol=0, atol=1e-12)

    def test_token_outside_the_vocabulary_is_rejected(self):
        # a negative id must not wrap around to the last embedding row
        m = make_model(figure2_subgraph())
        f = m.encode(np.zeros(5)).data
        for tok in (-1, m.vocab_size):
            with pytest.raises(nm.IndexOutOfRange):
                m.step(f, [tok])
            with pytest.raises(nm.IndexOutOfRange):
                m.step(np.repeat(f, 2, axis=0), [m.start_token, tok])

    def test_mass_outside_candidates_is_zero_by_construction(self):
        g = figure2_subgraph()
        m = make_model(g, seed=1)
        f = m.encode(np.ones(5)).data
        probs, _, _ = m.step(f, [g.id_of("cat")])
        cands = m.candidates([g.id_of("cat")])
        assert set(np.flatnonzero(probs[0])) <= set(cands.cols)
        assert abs(probs.sum() - cands.sizes.size) < 1e-12


def nested_labels_graph():
    """A coarse label node ``cat`` with the grouped fine labels ``a``, ``b``
    under it, so EOP is offered next to competing children."""
    from pathcast.labelgraph import build_graph
    return build_graph([("coarse", ["cat"]), ("fine", ["a", "b"])], (),
                       [("root", "cat"), ("cat", "a"), ("cat", "b")])


def oracle_candidates(graph, prev_token):
    """Candidate tokens and blocks built on demand, one group at a time."""
    n = len(graph.nodes)
    start, eop = n, n + 1
    if prev_token == start:
        return (graph.root,), ((0,),)
    if prev_token == eop or not 0 <= prev_token < n:
        raise InvalidPath(f"token {prev_token} cannot start a decode step")
    node = graph.node(prev_token)
    toks = list(graph.children(prev_token))
    if node.kind is NodeKind.LABEL:
        toks.append(eop)
    if not toks:
        raise NoCandidates(f"node {node.name!r} has no children and no EOP")
    toks.sort()
    pos = {t: i for i, t in enumerate(toks)}
    blocks, assigned = [], set()
    for t in toks:
        if t in assigned:
            continue
        g = None if t == eop else graph.group_of(t)
        members = [t] if g is None else sorted(m for m in g.members if m in pos)
        blocks.append(tuple(pos[m] for m in members))
        assigned.update(members)
    return tuple(toks), tuple(blocks)


class TestCandidateTable:
    def graphs(self):
        rng = np.random.default_rng(11)
        return [figure2_subgraph()] + [random_dag(rng) for _ in range(15)]

    def test_matches_on_demand_oracle(self):
        dead_ends = 0
        for g in self.graphs():
            m = make_model(g)
            for tok in range(m.start_token + 1):
                try:
                    want = oracle_candidates(g, tok)
                except NoCandidates:
                    dead_ends += 1
                    with pytest.raises(NoCandidates, match=repr(g.node(tok).name)):
                        m.candidates([tok])
                    continue
                tokens, blocks = candidate_blocks(m, tok)
                assert (tokens, blocks) == want
                owner = {i: blk for blk in blocks for i in blk}
                assert sorted(owner) == list(range(len(tokens)))
                # the sorted (token, candidate) keys: each candidate's block as token ids
                keyed = m._keys // m.vocab_size == tok
                assert (m._keys[keyed] % m.vocab_size).tolist() == list(tokens)
                table = m._table
                for i, t in enumerate(tokens):
                    j = m._key_block[m._keys.searchsorted(tok * m.vocab_size + t)]
                    block = table.cols[table.starts[j]:table.starts[j] + table.sizes[j]]
                    assert tuple(block) == tuple(tokens[k] for k in owner[i])
            # every live token in one call: each row holds its token's blocks
            live = np.flatnonzero(m._has_entry)
            rows = m.candidates(live)
            for r, tok in enumerate(live):
                one = m.candidates([tok])
                mine = rows.rows == r
                assert rows.cols[mine].tolist() == one.cols.tolist()
                assert rows.sizes[rows.rows[rows.starts] == r].tolist() == one.sizes.tolist()
        # some augmented nodes are leaves: dead ends
        assert dead_ends > 0

    def test_partitions_are_checked_once_when_the_table_is_built(self, monkeypatch):
        checked = [0]
        check = nm._check_partition

        def counting_check(blocks, k):
            checked[0] += 1
            check(blocks, k)

        monkeypatch.setattr(nm, "_check_partition", counting_check)
        g = figure2_subgraph()
        m = make_model(g, seed=3)
        assert checked[0] == np.count_nonzero(m._has_entry)
        checked[0] = 0
        rng = np.random.default_rng(1)
        for x in rng.normal(size=(5, 5)):
            assert greedy_decode(m, x, 6).step_probs
            assert rows(m.sample_path(x[None, :], rng, 6))[0].step_probs
        m.sample_path(rng.normal(size=(5, 5)), rng, 6)
        m.candidates(np.flatnonzero(m._has_entry))
        assert checked[0] == 0

    def test_eop_and_out_of_range_tokens_are_invalid(self):
        for g in self.graphs():
            m = make_model(g)
            for tok in (m.eop_token, m.eop_token + 1, -1):
                with pytest.raises(InvalidPath):
                    m.candidates([tok])
                with pytest.raises(InvalidPath):
                    m.candidates([m.start_token, tok])

    def test_eop_is_a_singleton_block(self):
        offered = 0
        for g in self.graphs() + [nested_labels_graph()]:
            m = make_model(g)
            for tok in range(m.start_token + 1):
                try:
                    cands = m.candidates([tok])
                except NoCandidates:
                    continue
                if m.eop_token in cands.cols:
                    offered += 1
                    j = m._key_block[m._keys.searchsorted(tok * m.vocab_size + m.eop_token)]
                    assert m._table.sizes[j] == 1
                    assert m._table.cols[m._table.starts[j]] == m.eop_token
        assert offered > 0

    def test_closing_eop_adds_nothing_to_scores_or_gradients(self):
        # EOP's block is itself, so its log-probability is z - z = 0 with a
        # zero gradient: scoring it would change no value and no gradient
        from pathcast.pathalg import all_paths_to
        rng = np.random.default_rng(12)
        for g in self.graphs() + [nested_labels_graph()]:
            m = make_model(g, seed=int(rng.integers(1000)))
            for label in label_ids(g):
                paths = [list(p) for p in all_paths_to(g, label)[:4]]
                xs = rng.normal(size=(len(paths), 5))
                w = rng.normal(size=len(paths))
                runs = []
                for lanes in (paths, [p + [m.eop_token] for p in paths]):
                    totals = score(m, m.encode(xs), lanes, teacher=True)
                    nm.zero_grads(m.params)
                    nm.backward(nm.weighted_sum(totals, w))
                    runs.append((totals.data.copy(),
                                 {k: v.copy() for k, v in collect_grads(m.params).items()}))
                (bare, g_bare), (closed, g_closed) = runs
                np.testing.assert_array_equal(closed, bare)
                for name in m.params:
                    np.testing.assert_array_equal(g_closed[name], g_bare[name])


class TestPathLogProb:
    def test_chain_is_certain(self):
        g = chain_graph()
        m = make_model(g, seed=7)
        path = [g.root, g.id_of("a"), g.id_of("x")]
        lp = path_log_prob(m, np.random.default_rng(0).normal(size=5), path)
        assert abs(lp.item()) < 1e-12

    def test_figure2_deterministic_path_is_finite_negative(self):
        g = figure2_subgraph()
        m = make_model(g, seed=8)
        path = [g.id_of(n) for n in ("animal", "cat", "shorthair", "british-shorthair")]
        lp = path_log_prob(m, np.random.default_rng(1).normal(size=5), path).item()
        assert np.isfinite(lp)
        assert lp < 0.0
        assert 0.0 < np.exp(lp) <= 1.0

    def test_invalid_edge_rejected(self):
        g = figure2_subgraph()
        m = make_model(g)
        with pytest.raises(InvalidPath):
            path_log_prob(m, np.zeros(5), [g.root, g.id_of("shorthair")])
        with pytest.raises(InvalidPath):
            path_log_prob(m, np.zeros(5), [g.id_of("cat"), g.id_of("shorthair")])

    def test_groundtruth_paths_always_finite(self):
        rng = np.random.default_rng(4)
        from pathcast.pathalg import all_paths_to
        for _ in range(10):
            g = random_dag(rng)
            m = make_model(g, seed=int(rng.integers(1000)))
            x = rng.normal(size=5)
            for label in label_ids(g):
                for p in all_paths_to(g, label)[:4]:
                    assert np.isfinite(path_log_prob(m, x, list(p)).item())

    def test_free_running_lane_must_start_at_root(self):
        g = figure2_subgraph()
        m = make_model(g)
        cat = g.id_of("cat")
        f = m.encode(np.zeros((2, 5)))
        with pytest.raises(InvalidPath):
            score(m, f, [[g.root, cat], [cat, m.eop_token]], teacher=False)

    @pytest.mark.parametrize("token", [3.5, 3.0, None, 2**70])
    def test_lane_tokens_must_be_ints(self, token):
        # no token is truncated or wrapped into a real one (3.5 is not cat, id 3)
        g = figure2_subgraph()
        m = make_model(g)
        f = m.encode(np.zeros((1, 5)))
        for teacher in (True, False):
            with pytest.raises(TypeError):
                score(m, f, [[g.root, token]], teacher)


class TestSamplePath:
    def test_chain_is_deterministic(self):
        g = chain_graph()
        m = make_model(g, seed=9)
        for seed in range(5):
            sp, = rows(m.sample_path(np.zeros((1, 5)), np.random.default_rng(seed), max_len=6))
            assert sp.tokens == (g.root, g.id_of("a"), g.id_of("x"))
            assert sp.terminated_by == "eop"

    def test_draws_read_the_layout_of_their_step(self, monkeypatch):
        # one candidate lookup per decode step: the draw reuses the step's
        m = make_model(figure2_subgraph(), seed=3)
        calls = {"step": 0, "candidates": 0}
        for name in calls:
            method = getattr(m, name)

            def counted(*args, _name=name, _method=method):
                calls[_name] += 1
                return _method(*args)

            monkeypatch.setattr(m, name, counted)
        m.sample_path(np.random.default_rng(1).normal(size=(6, 5)), np.random.default_rng(2), 8)
        assert calls["step"] > 1 and calls["candidates"] == calls["step"]

    def test_truncation_at_max_len(self):
        g = figure2_subgraph()
        m = make_model(g, seed=10)
        sp, = rows(m.sample_path(np.zeros((1, 5)), np.random.default_rng(0), max_len=2))
        assert len(sp.tokens) <= 2
        assert sp.terminated_by == "max_len"

    def test_within_block_frequencies_match_probabilities(self):
        # Monte-Carlo check at the cat step of the figure-2 subgraph
        g = figure2_subgraph()
        m = make_model(g, seed=11)
        x = np.random.default_rng(5).normal(size=5)
        f = m.encode(x).data
        dist, _ = step(m, f, g.id_of("cat"))
        rng = np.random.default_rng(123)
        counts = {t: 0 for t in dist.tokens}
        n = 100_000
        block_hits = [0] * len(dist.blocks)
        for _ in range(n):
            for bi, blk in enumerate(dist.blocks):
                p = dist.probs[list(blk)]
                pick = blk[int(rng.choice(len(blk), p=p / p.sum()))]
                counts[dist.tokens[pick]] += 1
                block_hits[bi] += 1
        for bi, blk in enumerate(dist.blocks):
            for pos in blk:
                freq = counts[dist.tokens[pos]] / block_hits[bi]
                assert abs(freq - dist.probs[pos]) < 0.01

    def test_sampling_scoring_consistency(self):
        g = figure2_subgraph()
        m = make_model(g, seed=12)
        rng = np.random.default_rng(7)
        x = rng.normal(size=5)
        for _ in range(20):
            walks = m.sample_path(x[None, :], rng, max_len=6)
            sp, = rows(walks)
            if not sp.tokens:
                continue
            lp = rescored(m, x[None, :], walks).data[0]
            assert abs(np.exp(lp) - np.prod(sp.step_probs)) < 1e-10

    def test_rows_rescoring_matches_single_calls(self):
        g = figure2_subgraph()
        m = make_model(g, seed=14)
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(6, 5))
        # ragged: short budgets truncate some walks before EOP
        samples = [rows(m.sample_path(x[None, :], rng, max_len=2 + i % 4))[0]
                   for i, x in enumerate(xs)]
        assert {s.terminated_by for s in samples} == {"eop", "max_len"}
        w = rng.normal(size=len(samples))

        def grads_of(loss):
            nm.zero_grads(m.params)
            nm.backward(loss)
            return {k: v.copy() for k, v in collect_grads(m.params).items()}

        joined = rescored(m, xs, walks_of(samples))
        singles = [sum_all(rescored(m, x[None, :], walks_of([s]))) for x, s in zip(xs, samples)]
        assert joined.data.shape == (6,)
        np.testing.assert_allclose(joined.data, [s.item() for s in singles], rtol=0, atol=1e-12)
        g_rows = grads_of(nm.weighted_sum(joined, w))
        g_singles = grads_of(add_n([scale(s, wi) for s, wi in zip(singles, w)]))
        for name in m.params:
            np.testing.assert_allclose(g_rows[name], g_singles[name], rtol=0, atol=1e-12)

    def test_rescoring_rejects_non_candidate_tokens(self):
        g = figure2_subgraph()
        m = make_model(g, seed=13)
        skips_cat = Walk(tokens=(g.root, g.id_of("shorthair")), step_probs=(1.0, 0.5),
                         terminated_by="max_len")
        # a free-running walk is offered EOP only after a label node
        eop_after_cat = Walk(tokens=(g.root, g.id_of("cat")), step_probs=(1.0, 0.5, 0.5),
                             terminated_by="eop")
        for sampled in (skips_cat, eop_after_cat):
            with pytest.raises(InvalidPath):
                rescored(m, np.zeros((1, 5)), walks_of([sampled]))

    def test_rescoring_lanes_are_the_walks_own_tokens(self):
        # an EOP step scores exactly 0 (a singleton block), so an "eop" walk's
        # lane stops at its last node, as a teacher-forced lane does
        g = figure2_subgraph()
        m = make_model(g, seed=15)
        rng = np.random.default_rng(11)
        walks = m.sample_path(rng.normal(size=(8, 5)), rng, max_len=5)
        assert {w.terminated_by for w in rows(walks)} == {"eop", "dead_end"}
        target, n = m.sampled_path_log_prob(walks)
        assert n.tolist() == [len(w.tokens) for w in rows(walks)]
        assert len(target) == max(n)
        for i, w in enumerate(rows(walks)):
            assert tuple(target[:n[i], i].tolist()) == w.tokens
        path = tuple(g.id_of(k) for k in ("animal", "cat", "shorthair", "british-shorthair"))
        target, n = m.sampled_path_log_prob(walks_of([Walk(path, (1.0, 0.5, 0.5, 0.5, 1.0),
                                                           "eop")]))
        assert target.shape == (4, 1) and n.tolist() == [4]

    def test_sampled_paths_are_graph_valid(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_dag(rng)
            m = make_model(g, seed=int(rng.integers(1000)))
            x = rng.normal(size=5)
            sp, = rows(m.sample_path(x[None, :], rng, max_len=8))
            for a, b in zip(sp.tokens, sp.tokens[1:]):
                assert b in g.children(a)
            if sp.tokens:
                assert sp.tokens[0] == g.root


class TestWalksRecord:
    """``walk``'s one record, read through its arrays: its token matrix is
    the ``step_major`` lanes of its rows, its rows are the one-row oracle's
    walks, greedy and sampled, and ``predicted_labels`` reads each row's
    label as the ``extract_label`` oracle does."""

    @pytest.mark.parametrize("m", [1, 7])
    def test_rows_lanes_and_labels(self, m):
        # the dead-end graph with its output biases zeroed: the input picks a
        # (on to x and EOP) or the dead end b; a max_len of 3 stops at x
        rng = np.random.default_rng(m)
        g = dead_end_graph()
        model = make_model(g, seed=3)
        for t in model.params.values():
            t.data[...] += rng.normal(0, 0.5, t.data.shape)
        model.params["out.b"].data[:] = 0.0
        stops = set()
        for max_len in (3, 6) * 5:
            xs, seed = rng.normal(size=(m, 5)), int(rng.integers(2**32))
            draws = np.random.default_rng(seed)
            for walks, want in (
                    (decode_rows(model, xs, max_len),
                     step_major_walk(model, xs, max_len, greedy_choice)),
                    (model.sample_path(xs, np.random.default_rng(seed), max_len),
                     step_major_walk(model, xs, max_len, lambda d: sample_cross_block(d, draws)))):
                got = rows(walks)
                tokens, n = step_major([w.tokens for w in got], max_len)
                assert walks.tokens.tolist() == tokens.tolist()
                assert walks.lengths.tolist() == n.tolist()
                steps = n + (walks.stop == "eop")
                assert not walks.step_probs[np.arange(max_len)[:, None] >= steps].any()
                assert [(w.tokens, w.terminated_by) for w in got] == [
                    (w.tokens, w.terminated_by) for w in want]
                for a, b in zip(got, want):  # an [m, k] product may round apart
                    np.testing.assert_allclose(a.step_probs, b.step_probs, rtol=1e-13, atol=0)
                labels = [extract_label(g, w.tokens) for w in got]
                assert predicted_labels(model, walks) == [
                    None if v is None else g.node(v).name for v in labels]
                stops.update(w.terminated_by for w in got)
        assert stops == {"eop", "max_len", "dead_end"}


class TestGreedyChoice:
    def test_tie_breaks_to_lowest_token(self):
        probs = np.zeros((2, 9))
        probs[0, [3, 7]] = 0.5
        probs[1, [2, 5, 8]] = [0.25, 0.5, 0.5]
        blocks = nm.stack_blocks([nm.compile_blocks([[0, 1]], [3, 7]),
                                  nm.compile_blocks([[0], [1, 2]], [2, 5, 8])], [0, 1])
        toks, top = greedy_pick(probs, blocks)
        assert toks.tolist() == [3, 5] and top.tolist() == [0.5, 0.5]


NON_FINITE_SITES = ["enc.w1", "enc.b1", "enc.w2", "emb", "gru.w_re", "gru.w_rf", "gru.w_cf",
                    "gru.b_r", "gru.b_u", "gru.b_c", "out.w", "out.b"]


class TestNonFiniteWeights:
    """Where a non-finite weight set by hand is caught by the decode: at the
    walk's one count over the parameter buffer, which names the parameter.
    Without it a GRU infinity would decode as usual, as a gate saturates it
    (sigmoid or tanh of +-inf is finite). Only a hand-set weight can get
    there: init, ``load_params`` and ``adam_step`` are the only code that
    writes weights, and each rejects non-finite values, so the next Adam step
    stops on such a weight."""

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", NON_FINITE_SITES)
    def test_outcome(self, name, value):
        g = figure2_subgraph()
        m = make_model(g, seed=4)
        x = np.random.default_rng(6).normal(size=5)
        # one entry: the START row for the embedding, the first otherwise
        m.params[name].data[(m.start_token, 0) if name == "emb" else 0] = value
        if name.startswith("gru.") and not np.isnan(value):
            # the gates saturate the infinity: a step's logits stay finite
            probs, _, _ = m.step(m.encode_values(x), [m.start_token])
            assert np.isfinite(probs).all()
        for decode in (lambda: greedy_decode(m, x, 6),
                       lambda: m.sample_path(x[None, :], np.random.default_rng(0), 6)):
            with pytest.raises(nm.NonFiniteValue, match=f"^parameter {name!r} is not finite$"):
                decode()

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    @pytest.mark.parametrize("name", [n for n in NON_FINITE_SITES if n.startswith("gru.")])
    def test_the_next_adam_step_rejects_a_gru_infinity(self, name, value):
        m = make_model(figure2_subgraph(), seed=4)
        state = nm.AdamState(m.params, dict.fromkeys(m.params, 0.01))
        m.params[name].data[0] = value
        with pytest.raises(nm.NonFiniteValue, match=f"adam step 1: parameter {name!r}"):
            nm.adam_step(state, m.params)

    @pytest.mark.parametrize("name", ["emb", "out.b"])
    def test_forced_steps_check_what_they_skip(self, name):
        # every step of the chain is forced, so no head is computed: the
        # walk's weight check names a NaN in the head or in the leaf label
        # x's embedding row, which only its EOP step reads
        g = chain_graph()
        m = make_model(g, seed=4)
        m.params[name].data[(g.id_of("x"), 0) if name == "emb" else m.eop_token] = np.nan
        for decode in (lambda: greedy_decode(m, np.zeros(5), 6),
                       lambda: m.sample_path(np.zeros((2, 5)), np.random.default_rng(0), 6)):
            with pytest.raises(nm.NonFiniteValue, match=f"^parameter {name!r} is not finite$"):
                decode()

    def test_nan_logit_in_a_sampled_block_raises_at_step(self):
        # the sampler draws by inverse CDF, without rng.choice's own checks
        # on p: the logits are checked at step, before any block is drawn,
        # and a walk names the weight before its first step
        g = figure2_subgraph()
        m = make_model(g, seed=4)
        cat = g.id_of("cat")
        cands = m.candidates([cat])
        m.params["out.b"].data[cands.cols[cands.starts[cands.sizes > 1][0]]] = np.nan
        f = m.encode_values(np.ones(5))
        with pytest.raises(nm.NonFiniteValue, match="^non-finite logits$"):
            m.step(f, [cat])
        with pytest.raises(nm.NonFiniteValue, match="^parameter 'out.b' is not finite$"):
            m.sample_path(np.ones((1, 5)), np.random.default_rng(0), 6)


class TestFiniteBoundaries:
    """The inputs' and the scored pass's logits' boundaries (``numerics``)."""

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_input_row_names_the_inputs(self, value):
        m = make_model(figure2_subgraph(), seed=4)
        x = np.ones((2, 5))
        x[1, 0] = value
        for run in (lambda: m.encode(x), lambda: m.encode_values(x),
                    lambda: m.sample_path(x, np.random.default_rng(0), 6),
                    lambda: greedy_decode(m, x[1], 6)):
            with pytest.raises(nm.NonFiniteValue, match="^non-finite inputs$"):
                run()

    def test_an_input_infinity_that_tanh_saturates_is_caught(self):
        # the encoder's tanh maps the infinite pre-activations to +-1, so
        # nothing past the inputs would see a non-finite value
        m = make_model(figure2_subgraph(), seed=4)
        x = np.zeros(5)
        x[0] = np.inf
        p = m.params
        hidden = np.tanh(x @ p["enc.w1"].data + p["enc.b1"].data)
        assert np.isfinite(hidden).all() and np.isfinite(hidden @ p["enc.w2"].data).all()
        with pytest.raises(nm.NonFiniteValue, match="^non-finite inputs$"):
            m.encode_values(x)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_the_scored_pass_names_its_logits(self, value):
        # a teacher-forced pass walks nothing, so no weight check runs;
        # its logits are checked before they are scored
        g = figure2_subgraph()
        m = make_model(g, seed=4)
        m.params["out.b"].data[g.id_of("cat")] = value
        path = [g.id_of(n) for n in ("animal", "cat", "shorthair", "british-shorthair")]
        with pytest.raises(nm.NonFiniteValue, match="^non-finite logits$"):
            path_log_prob(m, np.ones(5), path)


class TestCheckpointRoundTrip:
    def test_save_load_preserves_outputs(self, tmp_path):
        g = figure2_subgraph()
        m = make_model(g, seed=13)
        x = np.random.default_rng(9).normal(size=5)
        from pathcast.labelgraph import save_graph
        gpath = str(tmp_path / "graph.json")
        save_graph(gpath, g)
        m.graph_file = gpath
        ckpt = str(tmp_path / "model.pck")
        save_model(ckpt, m)
        m2 = load_model(ckpt)
        np.testing.assert_array_equal(m.encode(x).data, m2.encode(x).data)
        path = [g.id_of(n) for n in ("animal", "cat", "shorthair", "british-shorthair")]
        assert path_log_prob(m, x, path).item() == path_log_prob(m2, x, path).item()

    def test_sidecar_contents(self, tmp_path):
        import json
        g = chain_graph()
        m = make_model(g)
        m.graph_file = "graph.json"
        ckpt = str(tmp_path / "m.pck")
        save_model(ckpt, m)
        side = json.load(open(ckpt + ".json"))
        assert set(side) == {"graph_file", "input_dim", "embed_dim", "hidden", "graph_sha256"}
        assert side["input_dim"] == 5
        assert side["graph_sha256"] == hashlib.sha256(serialize(g).encode("utf-8")).hexdigest()

    def test_loaded_weights_are_views_of_one_buffer_that_adam_moves(self, tmp_path):
        g = chain_graph()
        m = make_model(g, seed=5)
        ckpt = str(tmp_path / "m.pck")
        save_model(ckpt, m)
        loaded = load_model(ckpt, g)
        state = nm.AdamState(loaded.params, dict.fromkeys(loaded.params, 0.01))
        assert all(t.data.base is state.buffer for t in loaded.params.values())
        for name, t in loaded.params.items():
            assert t.data.tobytes() == m.params[name].data.tobytes()
            t.grad = np.ones_like(t.data)
        nm.adam_step(state, loaded.params)
        for name, t in loaded.params.items():
            assert not np.array_equal(t.data, m.params[name].data), name

    def test_unexpected_parameter_rejected(self, tmp_path):
        g = chain_graph()
        m = make_model(g)
        ckpt = str(tmp_path / "m.pck")
        save_model(ckpt, m)
        weights = nm.load_params(ckpt)
        weights["extra.bogus"] = np.zeros(3)
        nm.save_params(ckpt, weights)
        with pytest.raises(ValueError, match="extra.bogus"):
            load_model(ckpt, g)


SIDECAR = {"graph_file": "graph.json", "input_dim": 5, "embed_dim": 6, "hidden": 8}


class TestCorruptSidecar:

    @pytest.mark.parametrize("text, message", [
        pytest.param('{"graph_file": "graph.json" "input_dim": 5',
                     "malformed JSON: Expecting ',' delimiter", id="truncated"),
        pytest.param("[1, 2]", "not a JSON object", id="list"),
        *[pytest.param(json.dumps({k: v for k, v in SIDECAR.items() if k != key}),
                       f"missing key {key!r}", id=f"no-{key}") for key in SIDECAR],
        pytest.param(json.dumps({**SIDECAR, "graph_file": 3}),
                     "'graph_file' must be a string", id="graph_file-int"),
        pytest.param(json.dumps({**SIDECAR, "hidden": "many"}),
                     "'hidden' must be a positive int, not 'many'", id="hidden-str"),
        pytest.param(json.dumps({**SIDECAR, "input_dim": 0}),
                     "'input_dim' must be a positive int, not 0", id="input_dim-zero"),
        pytest.param(json.dumps({**SIDECAR, "embed_dim": 6.0}),
                     "'embed_dim' must be a positive int, not 6.0", id="embed_dim-float"),
        pytest.param(json.dumps({**SIDECAR, "embed_dim": True}),
                     "'embed_dim' must be a positive int, not True", id="embed_dim-bool"),
    ])
    def test_sidecar_errors_name_the_file(self, tmp_path, text, message):
        g = chain_graph()
        ckpt = str(tmp_path / "m.pck")
        save_model(ckpt, make_model(g))
        with open(ckpt + ".json", "w") as f:
            f.write(text)
        for read in (read_sidecar, lambda path: load_model(path, g)):
            with pytest.raises(CorruptCheckpoint) as err:
                read(ckpt)
            assert str(err.value).startswith(f"{ckpt}.json: {message}")

    def test_saved_sidecar_reads_back(self, tmp_path):
        ckpt = str(tmp_path / "m.pck")
        m = make_model(chain_graph())
        m.graph_file = "graph.json"
        save_model(ckpt, m)
        assert read_sidecar(ckpt) == {**SIDECAR, "graph_sha256": graph_digest(m.graph)}

    @pytest.mark.parametrize("digest, message", [
        (None, "missing key 'graph_sha256'"),
        (7, "'graph_sha256' must be 64 lowercase hex digits, not 7"),
        ("ab" * 31, "'graph_sha256' must be 64 lowercase hex digits"),
        ("AB" * 32, "'graph_sha256' must be 64 lowercase hex digits"),
        ("ag" * 32, "'graph_sha256' must be 64 lowercase hex digits"),
    ])
    def test_digest_must_be_a_sha256_hex_string(self, tmp_path, digest, message):
        # one sidecar format: a sidecar without the digest is rejected as well
        g = chain_graph()
        ckpt = str(tmp_path / "m.pck")
        save_model(ckpt, make_model(g))
        side = {**SIDECAR, "graph_sha256": digest}
        if digest is None:
            del side["graph_sha256"]
        with open(ckpt + ".json", "w") as f:
            json.dump(side, f)
        for read in (read_sidecar, lambda path: load_model(path, g)):
            with pytest.raises(CorruptCheckpoint) as err:
                read(ckpt)
            assert str(err.value).startswith(f"{ckpt}.json: {message}")


class TestGraphDigest:
    def _saved(self, tmp_path, graph_file):
        m = make_model(figure2_subgraph(), seed=2)
        m.graph_file = graph_file
        ckpt = str(tmp_path / "m.pck")
        save_model(ckpt, m)
        return m, ckpt

    def test_digest_is_of_the_canonical_graph_json(self, tmp_path):
        g = figure2_subgraph()
        gpath = str(tmp_path / "graph.json")
        save_graph(gpath, g)
        with open(gpath, "rb") as f:
            assert graph_digest(g) == hashlib.sha256(f.read()).hexdigest()
        assert graph_digest(load_graph(gpath)) == graph_digest(g)
        assert graph_digest(chain_graph()) != graph_digest(g)

    def test_given_graph_that_differs_is_rejected(self, tmp_path):
        _, ckpt = self._saved(tmp_path, "graph.json")
        with pytest.raises(CorruptCheckpoint) as err:
            load_model(ckpt, chain_graph())
        assert str(err.value).startswith(f"{ckpt}.json: the given graph has sha256 "
                                          f"{graph_digest(chain_graph())}")

    def test_graph_file_that_changed_is_rejected(self, tmp_path):
        gpath = str(tmp_path / "graph.json")
        m, ckpt = self._saved(tmp_path, gpath)
        save_graph(gpath, m.graph)
        assert load_model(ckpt).graph.nodes == m.graph.nodes
        save_graph(gpath, chain_graph())
        with pytest.raises(CorruptCheckpoint) as err:
            load_model(ckpt)
        assert str(err.value).startswith(f"{ckpt}.json: graph file {gpath} has sha256")

    def test_graph_found_by_basename_is_checked_too(self, tmp_path):
        # the recorded path is gone; the file of that name next to the
        # checkpoint is used only when its digest matches
        m, ckpt = self._saved(tmp_path, str(tmp_path / "moved" / "graph.json"))
        local = str(tmp_path / "graph.json")
        save_graph(local, m.graph)
        assert load_model(ckpt).graph.edges == m.graph.edges
        save_graph(local, chain_graph())
        with pytest.raises(CorruptCheckpoint) as err:
            load_model(ckpt)
        assert str(err.value).startswith(f"{ckpt}.json: graph file {local} has sha256")
