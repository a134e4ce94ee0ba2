"""Decoder model: candidate masking, step distributions, path scoring and
free-running sampling."""

import json

import numpy as np
import pytest

from pathcast import numerics as nm
from pathcast.labelgraph import NodeKind
from pathcast.model import (InvalidPath, LabelPathModel, NoCandidates,
                            SampledPath, greedy_choice, load_model, read_sidecar,
                            save_model)
from pathcast.numerics import CorruptCheckpoint

from test_labelgraph import figure2_subgraph, random_dag


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
            m.params[name].data = np.zeros_like(m.params[name].data)
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
        f = m.encode(np.zeros(5))
        dist, _ = m.step(f, m.start_token)
        assert dist.tokens == (g.root,)
        assert dist.probs[0] == 1.0

    def test_cat_has_two_blocks_summing_to_one(self):
        g = figure2_subgraph()
        m = make_model(g, seed=5)
        f = m.encode(np.random.default_rng(2).normal(size=5))
        dist, _ = m.step(f, g.id_of("cat"))
        names = {g.node(t).name for t in dist.tokens}
        assert names == {"shorthair", "longhair", "solid-color",
                         "tabby-color", "point-color"}
        assert len(dist.blocks) == 2
        for blk in dist.blocks:
            assert abs(dist.probs[list(blk)].sum() - 1.0) < 1e-12
        assert m.eop_token not in dist.tokens  # cat is augmented here

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
        dist = m.distribution(z_row, g.id_of("cat"))
        assert built[0] == 0
        assert type(dist.probs) is np.ndarray
        assert type(nm.block_softmax(z_row[:3], [[0, 1], [2]])) is np.ndarray

    def test_label_leaf_offers_eop_only(self):
        g = figure2_subgraph()
        m = make_model(g)
        f = m.encode(np.zeros(5))
        dist, _ = m.step(f, g.id_of("british-shorthair"))
        assert dist.tokens == (m.eop_token,)
        assert dist.probs[0] == 1.0

    def test_candidates_are_graph_children_or_eop(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            g = random_dag(rng)
            m = make_model(g, seed=int(rng.integers(1000)))
            f = m.encode(rng.normal(size=5))
            for tok in range(len(g.nodes)):
                try:
                    dist, _ = m.step(f, tok)
                except NoCandidates:
                    continue
                for t in dist.tokens:
                    assert t == m.eop_token or t in g.children(tok)

    def test_mass_outside_candidates_is_zero_by_construction(self):
        g = figure2_subgraph()
        m = make_model(g, seed=1)
        f = m.encode(np.ones(5))
        dist, _ = m.step(f, g.id_of("cat"))
        assert len(dist.tokens) == len(dist.probs)
        total = sum(dist.probs[list(b)].sum() for b in dist.blocks)
        assert abs(total - len(dist.blocks)) < 1e-12


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
                        m.candidates(tok)
                    continue
                cands = m.candidates(tok)
                assert (cands.tokens, cands.blocks) == want
                owner = {i: blk for blk in cands.blocks for i in blk}
                assert sorted(owner) == list(range(len(cands.tokens)))
                assert sorted(cands.block_of) == list(cands.tokens)
                for i, t in enumerate(cands.tokens):
                    assert cands.block_of[t] == tuple(cands.tokens[j] for j in owner[i])
        # some augmented nodes are leaves: dead ends
        assert dead_ends > 0

    def test_eop_and_out_of_range_tokens_are_invalid(self):
        for g in self.graphs():
            m = make_model(g)
            for tok in (m.eop_token, m.eop_token + 1, -1):
                with pytest.raises(InvalidPath):
                    m.candidates(tok)

    def test_eop_is_a_singleton_block(self):
        offered = 0
        for g in self.graphs() + [nested_labels_graph()]:
            m = make_model(g)
            for tok in range(m.start_token + 1):
                try:
                    cands = m.candidates(tok)
                except NoCandidates:
                    continue
                if m.eop_token in cands.tokens:
                    offered += 1
                    assert cands.block_of[m.eop_token] == (m.eop_token,)
        assert offered > 0

    def test_closing_eop_adds_nothing_to_scores_or_gradients(self):
        # EOP's block is itself, so its log-probability is z - z = 0 with a
        # zero gradient: scoring it would change no value and no gradient
        from pathcast.pathalg import enumerate_paths
        rng = np.random.default_rng(12)
        for g in self.graphs() + [nested_labels_graph()]:
            m = make_model(g, seed=int(rng.integers(1000)))
            for label in g.label_ids():
                paths = [list(p) for p in enumerate_paths(g, label)[:4]]
                xs = rng.normal(size=(len(paths), 5))
                w = rng.normal(size=len(paths))
                runs = []
                for lanes in (paths, [p + [m.eop_token] for p in paths]):
                    totals = m.score_lanes(m.encode(xs), lanes, teacher=True)
                    nm.zero_grads(m.params)
                    nm.backward(nm.weighted_sum(totals, w))
                    runs.append((totals.data.copy(),
                                 {k: v.copy() for k, v in nm.collect_grads(m.params).items()}))
                (bare, g_bare), (closed, g_closed) = runs
                np.testing.assert_array_equal(closed, bare)
                for name in m.params:
                    np.testing.assert_array_equal(g_closed[name], g_bare[name])


class TestPathLogProb:
    def test_chain_is_certain(self):
        g = chain_graph()
        m = make_model(g, seed=7)
        path = [g.root, g.id_of("a"), g.id_of("x")]
        lp = m.path_log_prob(np.random.default_rng(0).normal(size=5), path)
        assert abs(lp.item()) < 1e-12

    def test_figure2_deterministic_path_is_finite_negative(self):
        g = figure2_subgraph()
        m = make_model(g, seed=8)
        path = [g.id_of(n) for n in ("animal", "cat", "shorthair", "british-shorthair")]
        lp = m.path_log_prob(np.random.default_rng(1).normal(size=5), path).item()
        assert np.isfinite(lp)
        assert lp < 0.0
        assert 0.0 < np.exp(lp) <= 1.0

    def test_invalid_edge_rejected(self):
        g = figure2_subgraph()
        m = make_model(g)
        with pytest.raises(InvalidPath):
            m.path_log_prob(np.zeros(5), [g.root, g.id_of("shorthair")])
        with pytest.raises(InvalidPath):
            m.path_log_prob(np.zeros(5), [g.id_of("cat"), g.id_of("shorthair")])

    def test_groundtruth_paths_always_finite(self):
        rng = np.random.default_rng(4)
        from pathcast.pathalg import enumerate_paths
        for _ in range(10):
            g = random_dag(rng)
            m = make_model(g, seed=int(rng.integers(1000)))
            x = rng.normal(size=5)
            for label in g.label_ids():
                for p in enumerate_paths(g, label)[:4]:
                    assert np.isfinite(m.path_log_prob(x, list(p)).item())

    def test_free_running_lane_must_start_at_root(self):
        g = figure2_subgraph()
        m = make_model(g)
        cat = g.id_of("cat")
        f = m.encode(np.zeros((2, 5)))
        with pytest.raises(InvalidPath):
            m.score_lanes(f, [[g.root, cat], [cat, m.eop_token]], teacher=False)


class TestSamplePath:
    def test_chain_is_deterministic(self):
        g = chain_graph()
        m = make_model(g, seed=9)
        for seed in range(5):
            sp = m.sample_path(np.zeros(5), np.random.default_rng(seed), max_len=6)
            assert sp.tokens == (g.root, g.id_of("a"), g.id_of("x"))
            assert sp.ended_with_eop

    def test_truncation_at_max_len(self):
        g = figure2_subgraph()
        m = make_model(g, seed=10)
        sp = m.sample_path(np.zeros(5), np.random.default_rng(0), max_len=2)
        assert len(sp.tokens) <= 2
        assert not sp.ended_with_eop

    def test_within_block_frequencies_match_probabilities(self):
        # Monte-Carlo check at the cat step of the figure-2 subgraph
        g = figure2_subgraph()
        m = make_model(g, seed=11)
        x = np.random.default_rng(5).normal(size=5)
        f = m.encode(x)
        dist, _ = m.step(f, g.id_of("cat"))
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
            sp = m.sample_path(x, rng, max_len=6)
            if not sp.tokens:
                continue
            lp = m.sampled_path_log_prob(x, sp).item()
            assert abs(np.exp(lp) - np.prod(sp.step_probs)) < 1e-10

    def test_rows_rescoring_matches_single_calls(self):
        g = figure2_subgraph()
        m = make_model(g, seed=14)
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(6, 5))
        # ragged: short budgets truncate some walks before EOP
        samples = [m.sample_path(x, rng, max_len=2 + i % 4) for i, x in enumerate(xs)]
        assert {s.ended_with_eop for s in samples} == {True, False}
        w = rng.normal(size=len(samples))

        def grads_of(loss):
            nm.zero_grads(m.params)
            nm.backward(loss)
            return {k: v.copy() for k, v in nm.collect_grads(m.params).items()}

        rows = m.sampled_path_log_prob(xs, samples)
        singles = [m.sampled_path_log_prob(x, s) for x, s in zip(xs, samples)]
        assert rows.data.shape == (6,)
        np.testing.assert_allclose(rows.data, [s.item() for s in singles], rtol=0, atol=1e-12)
        g_rows = grads_of(nm.weighted_sum(rows, w))
        g_singles = grads_of(nm.add_n([nm.scale(s, wi) for s, wi in zip(singles, w)]))
        for name in m.params:
            np.testing.assert_allclose(g_rows[name], g_singles[name], rtol=0, atol=1e-12)

    def test_rescoring_rejects_non_candidate_tokens(self):
        g = figure2_subgraph()
        m = make_model(g, seed=13)
        skips_cat = SampledPath(tokens=(g.root, g.id_of("shorthair")),
                                step_probs=(1.0, 0.5), ended_with_eop=False)
        # a free-running walk is offered EOP only after a label node
        eop_after_cat = SampledPath(tokens=(g.root, g.id_of("cat")),
                                    step_probs=(1.0, 0.5, 0.5), ended_with_eop=True)
        for sampled in (skips_cat, eop_after_cat):
            with pytest.raises(InvalidPath):
                m.sampled_path_log_prob(np.zeros(5), sampled)

    def test_sampled_paths_are_graph_valid(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_dag(rng)
            m = make_model(g, seed=int(rng.integers(1000)))
            x = rng.normal(size=5)
            sp = m.sample_path(x, rng, max_len=8)
            for a, b in zip(sp.tokens, sp.tokens[1:]):
                assert b in g.children(a)
            if sp.tokens:
                assert sp.tokens[0] == g.root


class TestGreedyChoice:
    def test_tie_breaks_to_lowest_token(self):
        from pathcast.model import StepDistribution
        dist = StepDistribution(tokens=(3, 7), probs=np.array([0.5, 0.5]),
                                blocks=((0, 1),))
        tok, p = greedy_choice(dist)
        assert tok == 3 and p == 0.5


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
        assert m.path_log_prob(x, path).item() == m2.path_log_prob(x, path).item()

    def test_sidecar_contents(self, tmp_path):
        import json
        g = chain_graph()
        m = make_model(g)
        m.graph_file = "graph.json"
        ckpt = str(tmp_path / "m.pck")
        save_model(ckpt, m)
        side = json.load(open(ckpt + ".json"))
        assert set(side) == {"graph_file", "input_dim", "embed_dim", "hidden"}
        assert side["input_dim"] == 5

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
        assert read_sidecar(ckpt) == SIDECAR
