"""Greedy decoding, label extraction, metrics and the attribute audit."""

import itertools

import numpy as np
import pytest

from pathcast import evaldecode
from pathcast.evaldecode import (EmptyDataset, NoAuditableSamples,
                                 audit_nondeterministic, decode_rows, evaluate,
                                 greedy_decode, nondeterministic_groups, predicted_labels)
from pathcast.labelgraph import build_graph
from pathcast.model import LabelPathModel, Walk

from reference import (extract_label, figure2_subgraph, label_ids, layered_dag,
                       oracle_all_paths, oracle_classify, random_dag, rows, walks_of)


def make_model(graph, seed=0, input_dim=5):
    return LabelPathModel(graph, input_dim=input_dim, embed_dim=6, hidden=8, seed=seed)


def chain_graph():
    return build_graph([("d", ["x"])], augmented_spec=[("a", ["root"])],
                       edge_spec=[("a", "x")])


class TestGreedyDecode:
    def test_chain_decodes_unique_path(self):
        g = chain_graph()
        m = make_model(g, seed=1)
        r = greedy_decode(m, np.zeros(5), 6)
        assert r.tokens == (g.root, g.id_of("a"), g.id_of("x"))
        assert r.terminated_by == "eop"
        assert extract_label(g, r.tokens) == g.id_of("x")

    def test_a_chain_of_forced_steps_runs_no_step(self, monkeypatch):
        # START -> root -> a -> x -> EOP: every token has one candidate
        g = chain_graph()
        m = make_model(g, seed=1)
        monkeypatch.setattr(m, "step", lambda *args: pytest.fail("a forced step ran step"))
        want = Walk((g.root, g.id_of("a"), g.id_of("x")), (1.0,) * 4, "eop")
        assert greedy_decode(m, np.zeros(5), 6) == want
        rng = np.random.default_rng(2)
        assert rows(m.sample_path(np.zeros((3, 5)), rng, 6)) == [want] * 3
        drawn = np.random.default_rng(2)
        drawn.random(3 * 4)  # one draw per row and step, as if each were drawn
        assert rng.random() == drawn.random()

    @pytest.mark.parametrize("no_rows", [[], (), np.zeros((0, 5))])
    def test_no_rows_decode_to_the_empty_walks(self, no_rows):
        m = make_model(chain_graph())
        walks = decode_rows(m, no_rows, 6)
        assert walks.tokens.shape == walks.step_probs.shape == (6, 0)
        assert walks.lengths.shape == walks.stop.shape == (0,)
        assert predicted_labels(m, walks) == []

    def test_hand_set_logits_follow_preference(self):
        g = figure2_subgraph()
        m = make_model(g, seed=2)
        m.params["out.w"].data[:] = 0.0
        m.params["out.b"].data[:] = 0.0
        m.params["out.b"].data[g.id_of("shorthair")] = 4.0
        m.params["out.b"].data[g.id_of("british-shorthair")] = 4.0
        r = greedy_decode(m, np.zeros(5), 6)
        names = tuple(g.node(t).name for t in r.tokens)
        assert names == ("animal", "cat", "shorthair", "british-shorthair")
        assert r.terminated_by == "eop"

    def test_probability_tie_breaks_to_lowest_token(self):
        g = figure2_subgraph()
        m = make_model(g, seed=3)
        m.params["out.w"].data[:] = 0.0
        m.params["out.b"].data[:] = 0.0
        r = greedy_decode(m, np.zeros(5), 6)
        # every block uniform: first step root (forced), then the lowest id
        # among the highest-probability candidates at the cat step (the 2-way
        # hair block beats the 3-way color block), then onward
        hair_ids = sorted([g.id_of("shorthair"), g.id_of("longhair")])
        assert r.tokens[2] == hair_ids[0]

    def test_max_len_truncation(self):
        g = figure2_subgraph()
        m = make_model(g, seed=4)
        r = greedy_decode(m, np.zeros(5), 2)
        assert r.terminated_by == "max_len"
        assert len(r.tokens) == 2
        assert extract_label(g, r.tokens) is None  # no label node reached

    def test_decode_is_deterministic(self):
        g = figure2_subgraph()
        m = make_model(g, seed=5)
        x = np.random.default_rng(0).normal(size=5)
        a = greedy_decode(m, x, 6)
        b = greedy_decode(m, x, 6)
        assert a == b

    def test_decoded_paths_graph_valid_fuzzed(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            g = random_dag(rng)
            m = make_model(g, seed=int(rng.integers(10_000)))
            for _ in range(3):
                r = greedy_decode(m, rng.normal(size=5), 8)
                if r.tokens:
                    assert r.tokens[0] == g.root
                for a, b in zip(r.tokens, r.tokens[1:]):
                    assert b in g.children(a)


class TestExtractLabel:
    """predicted_labels: each row's last label node within its length."""

    @staticmethod
    def label(g, *paths):
        walks = walks_of([Walk(tuple(p), (1.0,) * len(p), "max_len") for p in paths], 6)
        return [None if name is None else g.id_of(name)
                for name in predicted_labels(make_model(g), walks)]

    def test_last_label_on_path(self):
        g = figure2_subgraph()
        path = (g.root, g.id_of("cat"), g.id_of("shorthair"), g.id_of("british-shorthair"))
        assert self.label(g, path) == [g.id_of("british-shorthair")]

    def test_augmented_tail_gives_none(self):
        g = figure2_subgraph()
        assert self.label(g, (g.root, g.id_of("cat"), g.id_of("longhair"))) == [None]

    def test_coarse_label_path(self):
        # a label-kind coarse node mid-graph is extractable on its own, and
        # a row's repeated last node past its length is not read
        g = build_graph(
            label_sets=[("coarse", ["cat"]), ("fine", ["tabby"])],
            edge_spec=[("root", "cat"), ("cat", "tabby")])
        assert self.label(g, (g.root, g.id_of("cat")), (g.root, g.id_of("cat"), g.id_of("tabby")),
                          (g.root,)) == [g.id_of("cat"), g.id_of("tabby"), None]

    def test_accepts_decoded_result(self):
        g = chain_graph()
        got = predicted_labels(make_model(g), decode_rows(make_model(g), np.zeros((2, 5)), 6))
        assert got == ["x"] * 2


class TestEvaluate:
    def test_oracle_model_scores_one(self):
        g = chain_graph()
        m = make_model(g, seed=7)
        data = [(np.zeros(5), g.id_of("x")) for _ in range(10)]
        rep = evaluate(m, data, 6)
        assert rep.accuracy == 1.0
        assert rep.macro_f1 == 1.0

    def test_fixed_class_predictor_on_balanced_set(self):
        # model decodes one fixed class; balanced K-class gold => accuracy 1/K
        g = figure2_subgraph()
        m = make_model(g, seed=8)
        m.params["out.w"].data[:] = 0.0
        m.params["out.b"].data[:] = 0.0
        m.params["out.b"].data[g.id_of("shorthair")] = 9.0
        m.params["out.b"].data[g.id_of("bengal")] = 9.0
        labels = [g.id_of("british-shorthair"), g.id_of("bengal")]
        data = [(np.zeros(5), labels[i % 2]) for i in range(40)]
        rep = evaluate(m, data, 6)
        assert rep.accuracy == pytest.approx(0.5)

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDataset):
            evaluate(make_model(chain_graph()), [], 6)

    def test_accuracy_matches_independent_recount(self):
        g = figure2_subgraph()
        m = make_model(g, seed=9)
        rng = np.random.default_rng(1)
        labels = [g.id_of("british-shorthair"), g.id_of("bengal")]
        data = [(rng.normal(size=5), labels[int(rng.integers(2))]) for _ in range(30)]
        rep = evaluate(m, data, 6)
        recount = np.mean([extract_label(g, greedy_decode(m, x, 6).tokens) == y
                           for x, y in data])
        assert rep.accuracy == pytest.approx(float(recount))

    def test_per_class_counts_sum_to_samples(self):
        g = figure2_subgraph()
        m = make_model(g, seed=10)
        rng = np.random.default_rng(2)
        labels = [g.id_of("british-shorthair"), g.id_of("bengal")]
        data = [(rng.normal(size=5), labels[int(rng.integers(2))]) for _ in range(25)]
        rep = evaluate(m, data, 6)
        assert sum(v["support"] for v in rep.per_class.values()) == 25

    def test_report_json_shape(self):
        import json
        g = chain_graph()
        rep = evaluate(make_model(g), [(np.zeros(5), g.id_of("x"))], 6)
        blob = json.loads(rep.to_json())
        assert set(blob) == {"accuracy", "macro_f1", "path_correctness", "per_class"}


class TestNondeterministicGroups:
    def test_figure2(self):
        g = figure2_subgraph()
        nd = nondeterministic_groups(g, g.id_of("british-shorthair"))
        assert set(nd) == {"color"}
        assert len(nd["color"]) == 3
        assert nondeterministic_groups(g, g.id_of("bengal")) == {}

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            g = random_dag(rng)
            for label in label_ids(g):
                on_paths = {n for p in oracle_all_paths(g, label) for n in p}
                want = {gr.name: set(gr.members & on_paths) for gr in g.groups
                        if len(gr.members & on_paths) >= 2}
                assert nondeterministic_groups(g, label) == want

    def test_matches_the_split_oracle(self):
        # a group is nondeterministic iff two of oracle_classify's
        # nondeterministic paths carry different members of it
        rng = np.random.default_rng(18)
        graphs = [random_dag(rng) for _ in range(40)] + [
            layered_dag(depth, rng) for depth in (1, 2, 3, 4, 5) for _ in range(8)]
        for g in graphs:
            for label in label_ids(g):
                nd = oracle_classify(g, label)[1]
                want = {}
                for gr in g.groups:
                    on = [gr.members.intersection(p) for p in nd]
                    if any(a and b and len(a | b) >= 2 for a, b in itertools.combinations(on, 2)):
                        want[gr.name] = frozenset().union(*on)
                assert nondeterministic_groups(g, label) == want


class TestDecodedGroupNodes:
    def test_beta_zero_decodes_stay_on_groundtruth_group_members(self):
        # deterministic-only task: decoded group choices always lie on some
        # groundtruth path of the predicted label
        from pathcast.harness import SynthSpec, synth_generate, resolve_samples
        from pathcast.pathalg import all_paths_to
        from pathcast.trainer import ScheduleConfig, TrainConfig, train

        spec = SynthSpec(n_fine_labels=8, n_coarse=2, group_sizes=(2, 2, 2),
                         label_profiles=((0, 0, 0), (1, 1, 1), (0, 1, 0), (1, 0, 1)),
                         n_train_fine=400, n_train_coarse=0, n_test=150, seed=0)
        graph, fine, _, test = synth_generate(spec)
        model = LabelPathModel(graph, input_dim=spec.input_dim, embed_dim=8,
                               hidden=16, seed=0)
        cfg = TrainConfig(batch_size=32, max_len=6, epochs=5, alpha=1.0, beta=0.0,
                          seed=0, schedule=ScheduleConfig("fixed", 10))
        train(model, resolve_samples(fine, graph), cfg)
        for x, gold in resolve_samples(test, graph)[:60]:
            r = greedy_decode(model, x, 6)
            label = extract_label(graph, r.tokens)
            if label is None:
                continue
            allowed = {n for p in all_paths_to(graph, label) for n in p}
            for node in r.tokens:
                if graph.group_of(node) is not None:
                    assert node in allowed

class TestAudit:
    def test_chance_level_when_attribute_independent(self):
        # one 3-way group, attrs drawn independently of x: match ~= 1/3
        g = build_graph(
            label_sets=[("d", ["leaf"])],
            augmented_spec=[("c0", ["root"]), ("c1", ["root"]), ("c2", ["root"])],
            edge_spec=[("c0", "leaf"), ("c1", "leaf"), ("c2", "leaf")],
            group_spec=[("color", ["c0", "c1", "c2"])])
        m = make_model(g, seed=11)
        rng = np.random.default_rng(3)
        members = ["c0", "c1", "c2"]
        data = [(rng.normal(size=5), g.id_of("leaf"),
                 {"color": members[int(rng.integers(3))]}) for _ in range(2400)]
        frac = audit_nondeterministic(m, data, 6)
        assert abs(frac - 1 / 3) < 0.05

    def test_given_decodes_are_audited_without_decoding(self, monkeypatch):
        g = build_graph(
            label_sets=[("d", ["leaf"])],
            augmented_spec=[("c0", ["root"]), ("c1", ["root"]), ("c2", ["root"])],
            edge_spec=[("c0", "leaf"), ("c1", "leaf"), ("c2", "leaf")],
            group_spec=[("color", ["c0", "c1", "c2"])])
        m = make_model(g, seed=11)
        rng = np.random.default_rng(4)
        data = [(rng.normal(size=5), g.id_of("leaf"),
                 {"color": f"c{int(rng.integers(3))}"}) for _ in range(60)]
        decoded = decode_rows(m, np.stack([x for x, _, _ in data]), 6)
        want = audit_nondeterministic(m, data, 6)
        monkeypatch.setattr(evaldecode, "greedy_decode", None)
        assert audit_nondeterministic(m, data, 6, decoded) == want

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_decodes_of_another_length_are_rejected(self, extra):
        # two audited rows, and one walk too few or too many
        g = figure2_subgraph()
        m = make_model(g, seed=14)
        rng = np.random.default_rng(5)
        data = [(rng.normal(size=5), g.id_of("british-shorthair"), {"color": "tabby-color"})
                for _ in range(2)]
        xs = np.stack([x for x, _, _ in data])
        decoded = decode_rows(m, xs[:extra] if extra < 0 else np.vstack([xs, xs[:extra]]), 6)
        with pytest.raises(ValueError, match=f"^{2 + extra} decoded walks for 2 samples$"):
            audit_nondeterministic(m, data, 6, decoded)

    def test_no_auditable_samples(self):
        g = chain_graph()
        m = make_model(g, seed=12)
        data = [(np.zeros(5), g.id_of("x"), {"anything": "m"})]
        with pytest.raises(NoAuditableSamples):
            audit_nondeterministic(m, data, 6)

    def test_perfectly_steered_model_audits_one(self):
        # encoder ignores x but the logits prefer c1; truth always c1
        g = build_graph(
            label_sets=[("d", ["leaf"])],
            augmented_spec=[("c0", ["root"]), ("c1", ["root"]), ("c2", ["root"])],
            edge_spec=[("c0", "leaf"), ("c1", "leaf"), ("c2", "leaf")],
            group_spec=[("color", ["c0", "c1", "c2"])])
        m = make_model(g, seed=13)
        m.params["out.w"].data[:] = 0.0
        m.params["out.b"].data[:] = 0.0
        m.params["out.b"].data[g.id_of("c1")] = 8.0
        data = [(np.zeros(5), g.id_of("leaf"), {"color": "c1"}) for _ in range(50)]
        assert audit_nondeterministic(m, data, 6) == 1.0
