"""Synthetic generation, fusion bookkeeping, baselines and graph trimming."""

import json

import numpy as np
import pytest

from pathcast.harness import (BaselineConfig, DatasetSpec, InconsistentSpec,
                              InvalidDataset, SynthSample, SynthSpec, UnresolvableLabel,
                              baseline_ffn, baseline_label_set,
                              baseline_pseudo_label, fuse, label_set_targets,
                              load_dataset, resolve_samples, save_dataset,
                              synth_generate, trim_graph)
from pathcast.labelgraph import NodeKind, stats, validate
from pathcast import harness
from pathcast import numerics as nm
from pathcast.numerics import AdamState
from pathcast.pathalg import NotALabelNode, all_paths_to
from pathcast.trainer import ScheduleConfig, TrainConfig, read_config, schedule_update

from reference import figure2_subgraph, label_ids, oracle_all_paths, random_dag


def small_spec(**kw):
    base = dict(n_train_fine=300, n_train_coarse=200, n_test=200, seed=0)
    base.update(kw)
    return SynthSpec(**base)


class TestSynthSpec:
    def test_default_is_consistent(self):
        SynthSpec()

    def test_bad_specs_rejected(self):
        with pytest.raises(InconsistentSpec):
            SynthSpec(n_fine_labels=0)
        with pytest.raises(InconsistentSpec):
            SynthSpec(n_fine_labels=13, n_coarse=2)
        with pytest.raises(InconsistentSpec):
            SynthSpec(label_profiles=((0, 0),))  # wrong arity
        with pytest.raises(InconsistentSpec):
            SynthSpec(label_profiles=((9, 0, 0),))  # member out of range
        with pytest.raises(InconsistentSpec):
            SynthSpec(label_profiles=(((), (), ()),))  # disconnected
        with pytest.raises(InconsistentSpec):
            SynthSpec(noise_sigma=-1.0)

    def test_duplicate_profiles_rejected(self):
        with pytest.raises(InconsistentSpec):
            SynthSpec(n_fine_labels=4, n_coarse=2,
                      label_profiles=((0, 0, 0), (0, 0, 0)))

    def test_a_profile_cycled_onto_two_labels_of_a_branch_is_rejected(self):
        # labels 0 and 2 of each branch both get (0, 0, 0)
        with pytest.raises(InconsistentSpec, match="appears twice"):
            SynthSpec(n_fine_labels=8, n_coarse=2, noise_sigma=0.0,
                      label_profiles=((0, 0, 0), (None, None, None)))

    def test_cycled_wildcards_are_told_apart_by_their_flags(self):
        spec = SynthSpec(n_fine_labels=8, n_coarse=2, noise_sigma=0.0, n_train_fine=200,
                         label_profiles=((None, None, None),))
        _, fine, _, _ = harness.synth_generate(spec)
        # each label's branch one-hot and wildcard flags, the x no pick sets
        ids = {}
        for s in fine.samples:
            x = np.asarray(s.x)
            ids.setdefault(s.label, set()).add(tuple(x[:2]) + tuple(x[-spec.n_wild_slots:]))
        assert len(ids) == 8 and all(len(i) == 1 for i in ids.values())
        assert len(set().union(*ids.values())) == 8

    def test_from_dict_round_trip(self):
        spec = read_config(SynthSpec, {"n_fine_labels": 4, "n_coarse": 2,
                                       "group_sizes": [2, 2, 2],
                                       "label_profiles": [[0, 0, 0], [1, None, 1]],
                                       "noise_sigma": 0.0, "seed": 7},
                           "spec", required=False, closed=True)
        assert spec.per_coarse == 2
        assert spec.label_profiles[1][1] is None

    @pytest.mark.parametrize("raw, message", [
        ({"n_coarse": 1.7}, "'n_coarse' must be an int, not 1.7"),
        ({"n_coarse": "x"}, "'n_coarse' must be an int, not 'x'"),
        ({"noise_sigma": "0.1"}, "'noise_sigma' must be a float, not '0.1'"),
        ({"group_sizes": [3, 2.5, 4]}, "'group_sizes' must be an int, not 2.5"),
        ({"group_sizes": [3, True, 4]}, "'group_sizes' must be an int, not True"),
        ({"label_profiles": [[0, 0, 1.0]]}, "'label_profiles' must be an int, not 1.0"),
        ({"label_profiles": [[0, [0, "1"], 1]]}, "'label_profiles' must be an int, not '1'"),
        ({"n_train_fien": 5}, "unknown spec key 'n_train_fien'"),
        ({"noise_sigma": float("nan")}, "'noise_sigma' must be a finite number, not nan"),
        ({"wild_scale": float("inf")}, "'wild_scale' must be a finite number, not inf"),
        ({"branch_scale": float("-inf")}, "'branch_scale' must be a finite number, not -inf"),
        ({"label_profiles": 5}, "'label_profiles' must be a list of lists, not 5"),
        ({"label_profiles": [5]}, r"'label_profiles' must be a list of lists, not \[5\]"),
        ({"label_profiles": "abc"}, "'label_profiles' must be a list of lists, not 'abc'"),
        ({"label_profiles": [{"0": 1}]},
         r"'label_profiles' must be a list of lists, not \[\{'0': 1\}\]"),
    ])
    def test_from_dict_rejects_wrong_types(self, raw, message):
        with pytest.raises(ValueError, match=message):
            read_config(SynthSpec, raw, "spec", required=False, closed=True)

    @pytest.mark.parametrize("raw, message", [
        ({"noise_sigma": -1.0}, "noise_sigma must be non-negative"),
        ({"n_test": -3}, "'n_test' must be a non-negative int, not -3"),
        ({"wild_scale": 0.0}, "'wild_scale' must be positive, not 0.0"),
        ({"wild_scale": -2.0}, "'wild_scale' must be positive, not -2.0"),
        ({"branch_scale": 0.0}, "'branch_scale' must be positive, not 0.0"),
        ({"branch_scale": -1e-9}, "'branch_scale' must be positive, not -1e-09"),
    ])
    def test_out_of_range_values_are_rejected(self, raw, message):
        with pytest.raises(ValueError, match=message):
            read_config(SynthSpec, raw, "spec", required=False, closed=True)


class TestSynthGenerate:
    def test_graph_is_valid_and_sized(self):
        graph, fine, coarse, test = synth_generate(small_spec())
        assert validate(graph) == []
        s = stats(graph)
        assert s.label_count == 12
        assert len(fine.samples) == 300
        assert len(coarse.samples) == 200
        assert len(test.samples) == 200
        assert fine.k == 12 and coarse.k == 2

    def test_coarse_categories_are_augmented_nodes(self):
        graph, _, coarse, _ = synth_generate(small_spec())
        for name in coarse.label_names():
            assert graph.node(graph.id_of(name)).kind is NodeKind.AUGMENTED

    def test_deterministic_attributes_match_deterministic_paths(self):
        graph, _, _, test = synth_generate(small_spec())
        spec = small_spec()
        # a fixed member must appear on every one of the label's paths for
        # that group; sampled groups must vary across the label's paths
        for i, prof in enumerate(spec.label_profiles):
            name = f"cat-breed-{i}"
            paths = list(all_paths_to(graph, graph.id_of(name)))
            for j, entry in enumerate(prof):
                group = graph.group_of(graph.id_of(f"cat-{['hair','color','ears'][j]}-0"))
                members_on_paths = set()
                for p in paths:
                    for node in p:
                        g = graph.group_of(node)
                        if g is not None and g.name == group.name:
                            members_on_paths.add(graph.node(node).name)
                if isinstance(entry, int):
                    assert members_on_paths == {f"cat-{['hair','color','ears'][j]}-{entry}"}

    def test_fixed_seed_bitwise_identical(self):
        a = synth_generate(small_spec())
        b = synth_generate(small_spec())
        for ds_a, ds_b in zip(a[1:], b[1:]):
            assert len(ds_a.samples) == len(ds_b.samples)
            for s, t in zip(ds_a.samples, ds_b.samples):
                assert s.label == t.label
                assert s.x.tobytes() == t.x.tobytes()

    def test_x_layout_follows_each_label_profile(self):
        # fixed, subset, absent and all-None entries, over more coarse
        # categories and groups than have built-in names (kind-4, attr-4)
        spec = SynthSpec(n_fine_labels=20, n_coarse=5, group_sizes=(3, 2, 4, 2, 3),
                         label_profiles=((0, 1, 2, 0, 1), ((0, 2), (0, 1), 3, 1, None),
                                         (1, (), (1, 3), (), 0), (None,) * 5),
                         noise_sigma=0.0, n_train_fine=200, n_train_coarse=100,
                         n_test=200, seed=3)
        _, _, _, test = synth_generate(spec)
        coarse = ["cat", "dog", "bird", "fish", "kind-4"]
        groups = ["hair", "color", "ears", "tail", "attr-4"]
        # column of each group's member 0, then of the first wildcard flag
        starts = np.cumsum([spec.n_coarse, *spec.group_sizes])
        assert len({s.label for s in test.samples}) == 20
        for s in test.samples:
            cname, i = s.label.rsplit("-breed-", 1)
            prof = spec.profile(int(i))
            want = np.zeros(spec.input_dim)
            want[coarse.index(cname)] = spec.branch_scale
            connected = [j for j, m in enumerate(prof) if m != ()]
            assert sorted(s.attrs) == sorted(f"{cname}-{groups[j]}" for j in connected)
            for j in connected:
                prefix, k = s.attrs[f"{cname}-{groups[j]}"].rsplit("-", 1)
                allowed = (range(spec.group_sizes[j]) if prof[j] is None
                           else prof[j] if isinstance(prof[j], tuple) else (prof[j],))
                assert prefix == f"{cname}-{groups[j]}" and int(k) in allowed
                want[starts[j] + int(k)] = 1.0
            if all(m is None for m in prof):
                slot = sum(all(m is None for m in spec.profile(h)) for h in range(int(i)))
                want[starts[-1] + slot] = spec.wild_scale
            np.testing.assert_array_equal(s.x, want)

    def test_sampled_attribute_marginals_uniform(self):
        spec = small_spec(n_train_fine=10_000, noise_sigma=0.0)
        graph, fine, _, _ = synth_generate(spec)
        # labels 4/5 sample their color uniformly between the two members
        counts = {0: 0, 1: 0}
        total = 0
        off = spec.n_coarse + spec.group_sizes[0]
        for s in fine.samples:
            if s.label.endswith("breed-4") or s.label.endswith("breed-5"):
                k = int(np.argmax(s.x[off:off + spec.group_sizes[1]]))
                counts[k] += 1
                total += 1
        for k, n in counts.items():
            assert abs(n / total - 0.5) < 0.02

    def test_separable_two_label_task(self):
        spec = SynthSpec(n_fine_labels=2, n_coarse=1, group_sizes=(2,),
                         label_profiles=((0,), (1,)), noise_sigma=0.0,
                         n_train_fine=120, n_train_coarse=0, n_test=80, seed=1)
        graph, fine, coarse, test = synth_generate(spec)
        assert validate(graph) == []
        cfg = BaselineConfig(hidden=8, epochs=20, batch_size=16, lr=0.05, seed=0)
        report = baseline_ffn(cfg, fine, test)
        assert report.accuracy == 1.0


class TestDatasetFiles:
    def test_jsonl_round_trip(self, tmp_path):
        _, fine, _, test = synth_generate(small_spec(n_train_fine=20, n_test=10))
        p = str(tmp_path / "fine.jsonl")
        save_dataset(p, fine)
        back = load_dataset(p)
        assert len(back.samples) == 20
        for s, t in zip(fine.samples, back.samples):
            assert s.label == t.label
            np.testing.assert_array_equal(s.x, t.x)
        # attrs only in the annotated split
        p2 = str(tmp_path / "test.jsonl")
        save_dataset(p2, test)
        line = open(p2).readline()
        assert "attrs" in json.loads(line)

    def _load_with_row(self, tmp_path, row: str):
        p = tmp_path / "bad.jsonl"
        good = json.dumps({"x": [0.0, 1.0, 2.0], "label": "a"})
        p.write_text(f"{good}\n\n{good}\n{row}\n{good}\n")
        with pytest.raises(InvalidDataset) as err:
            load_dataset(str(p))
        assert str(err.value).startswith(f"{p}:4: ")  # blank lines still count
        return str(err.value)

    def test_rejects_malformed_json(self, tmp_path):
        assert "malformed JSON" in self._load_with_row(tmp_path, '{"x": [1, 2, 3], "label":')

    @pytest.mark.parametrize("row", ['{"label": "a"}', '{"x": [1, 2, 3]}', "[1, 2, 3]"])
    def test_rejects_missing_field(self, tmp_path, row):
        assert "needs 'x' and 'label'" in self._load_with_row(tmp_path, row)

    @pytest.mark.parametrize("x", ["[]", "[[1, 2, 3]]", '[1, "2", 3]', "[1, true, 3]", "3"])
    def test_rejects_x_that_is_not_a_flat_list_of_numbers(self, tmp_path, x):
        msg = self._load_with_row(tmp_path, f'{{"x": {x}, "label": "a"}}')
        assert "non-empty flat list of numbers" in msg

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_x(self, tmp_path, value):
        msg = self._load_with_row(tmp_path, f'{{"x": [1, {value}, 3], "label": "a"}}')
        assert "non-finite" in msg

    def test_rejects_x_of_another_width(self, tmp_path):
        msg = self._load_with_row(tmp_path, '{"x": [1, 2], "label": "a"}')
        assert "'x' has 2 values, not 3" in msg

    @pytest.mark.parametrize("label", ["7", "null", '["a"]'])
    def test_rejects_label_that_is_not_a_string(self, tmp_path, label):
        msg = self._load_with_row(tmp_path, f'{{"x": [1, 2, 3], "label": {label}}}')
        assert "'label' must be a string" in msg

    @pytest.mark.parametrize("attrs", ['["cat-hair"]', '"cat-hair-0"', "7",
                                       '{"cat-hair": 0}', '{"cat-hair": null}'])
    def test_rejects_attrs_that_do_not_map_strings_to_strings(self, tmp_path, attrs):
        msg = self._load_with_row(tmp_path, f'{{"x": [1, 2, 3], "label": "a", "attrs": {attrs}}}')
        assert "'attrs' must map group names to member names" in msg

    def test_rejects_rows_not_of_the_expected_width(self, tmp_path):
        p = tmp_path / "rows.jsonl"
        p.write_text(json.dumps({"x": [0.0, 1.0, 2.0], "label": "a"}) + "\n")
        assert len(load_dataset(str(p), width=3).samples) == 1
        with pytest.raises(InvalidDataset, match=f"^{p}:1: 'x' has 3 values, not 4$"):
            load_dataset(str(p), width=4)

    def test_unknown_label_names_the_dataset_and_row(self):
        graph, fine, _, _ = synth_generate(small_spec(n_train_fine=5))
        ds = DatasetSpec("rows.jsonl", [fine.samples[0], SynthSample(np.zeros(3), "unicorn")],
                         k=2)
        for call in (lambda: resolve_samples(ds, graph), lambda: fuse(fine, ds, graph)):
            with pytest.raises(UnresolvableLabel,
                               match="^rows.jsonl: row 2: label 'unicorn' not in graph$"):
                call()

    def test_resolve_samples_rejects_unknown_label(self):
        graph, fine, _, _ = synth_generate(small_spec(n_train_fine=5))
        ds = DatasetSpec("bad",
                         [SynthSample(x=np.zeros(3), label="unicorn")], k=1)
        with pytest.raises(UnresolvableLabel):
            resolve_samples(ds, graph)


class TestFuse:
    def test_sizes_and_class_count(self):
        graph, fine, coarse, _ = synth_generate(small_spec())
        result = fuse(fine, coarse, graph)
        assert len(result.dataset.samples) == 500
        assert result.dataset.k == 12 + 2  # coarse names unseen in the fine set
        # fine's samples, then coarse's, in order
        assert list(map(id, result.dataset.samples)) == list(map(id, fine.samples + coarse.samples))

    def test_pet_fusion_arithmetic(self):
        # 37 fine classes plus 2 coarse-only classes gives 39, per the fused
        # pet bookkeeping; sizes add strictly
        fine = DatasetSpec("fine",
                           [SynthSample(np.zeros(1), f"breed-{i % 37}")
                            for i in range(100)], k=37)
        coarse = DatasetSpec("coarse",
                             [SynthSample(np.zeros(1), ["cat", "dog"][i % 2])
                              for i in range(50)], k=2)
        from pathcast.labelgraph import build_graph
        graph = build_graph(
            [("f", [f"breed-{i}" for i in range(37)])],
            augmented_spec=[("cat", ["root"]), ("dog", ["root"])],
            edge_spec=[(["cat", "dog"][i % 2], f"breed-{i}") for i in range(37)])
        result = fuse(fine, coarse, graph)
        assert result.dataset.k == 39
        assert len(result.dataset.samples) == 150

    def test_empty_coarse_is_identity(self):
        graph, fine, _, _ = synth_generate(small_spec())
        empty = DatasetSpec("none", [], k=0)
        result = fuse(fine, empty, graph)
        assert len(result.dataset.samples) == len(fine.samples)
        assert result.dataset.k == fine.k

    def test_fine_samples_untouched(self):
        graph, fine, coarse, _ = synth_generate(small_spec())
        result = fuse(fine, coarse, graph)
        for s, t in zip(fine.samples, result.dataset.samples):
            assert s.x.tobytes() == t.x.tobytes()
            assert s.label == t.label

    def test_unresolvable_label(self):
        graph, fine, _, _ = synth_generate(small_spec())
        alien = DatasetSpec("alien",
                            [SynthSample(np.zeros(3), "gryphon")], k=1)
        with pytest.raises(UnresolvableLabel):
            fuse(fine, alien, graph)


@pytest.fixture(scope="module")
def task():
    spec = small_spec(n_train_fine=400, n_train_coarse=200, n_test=200,
                      noise_sigma=0.0)
    return spec, synth_generate(spec)


class TestBaselineConfig:
    def test_defaults_and_zero_epochs_are_accepted(self):
        assert read_config(BaselineConfig, {}, "config", False, False) == BaselineConfig()
        assert read_config(BaselineConfig, {"epochs": 0}, "config", False, False).epochs == 0

    @pytest.mark.parametrize("raw, message", [
        ({"hidden": 0}, "out of range"),
        ({"batch_size": 0}, "out of range"),
        ({"epochs": -3}, "out of range"),
        ({"lr": -0.5}, "lr must be positive"),
        ({"lr": 0}, "lr must be positive"),
        ({"schedule": {"n": 0}}, "schedule n must be at least 1"),
        ({"schedule": {"kind": "nope"}}, "unknown schedule kind 'nope'"),
    ])
    def test_out_of_range_values_are_rejected(self, raw, message):
        with pytest.raises(ValueError, match=message):
            read_config(BaselineConfig, raw, "config", required=False, closed=False)

    @pytest.mark.parametrize("raw, message", [
        ({"hidden": 8.9}, "'hidden' must be an int, not 8.9"),
        ({"epochs": "2"}, "'epochs' must be an int, not '2'"),
        ({"lr": True}, "'lr' must be a float, not True"),
        ({"lr": float("nan")}, "'lr' must be a finite number, not nan"),
        ({"lr": float("inf")}, "'lr' must be a finite number, not inf"),
        ({"lr": float("-inf")}, "'lr' must be a finite number, not -inf"),
    ])
    def test_wrong_types_are_rejected(self, raw, message):
        with pytest.raises(ValueError, match=message):
            read_config(BaselineConfig, raw, "config", required=False, closed=False)


class TestBaselines:

    def test_encoder_head_parameters_are_views_of_one_buffer(self):
        net = harness._EncoderHead(4, 3, 2, seed=0)
        state = AdamState(net.params, dict.fromkeys(net.params, 0.01))
        assert list(net.params) == ["enc.w1", "enc.b1", "enc.w2", "enc.b2", "head.w", "head.b"]
        assert state.buffer.size == 4 * 3 + 3 + 3 * 3 + 3 + 3 * 2 + 2
        assert all(t.data.base is state.buffer for t in net.params.values())

    def test_encoder_head_logits_are_a_boundary(self):
        # every baseline pass, training, pseudo labelling and the report, reads them
        net = harness._EncoderHead(4, 3, 2, seed=0)
        net.params["head.b"].data[1] = np.nan
        with pytest.raises(nm.NonFiniteValue, match="^non-finite logits$"):
            net.logits(np.ones((2, 4)))

    def test_ffn_separable(self, task):
        _, (graph, fine, coarse, test) = task
        cfg = BaselineConfig(hidden=24, epochs=20, batch_size=32, lr=0.02, seed=0)
        report = baseline_ffn(cfg, fine, test)
        assert report.accuracy >= 0.99

    def test_ffn_untrained_is_chance_level(self, task):
        # shuffled gold labels decorrelate inputs from classes, so any fixed
        # predictor lands at 1/K in expectation
        _, (graph, fine, coarse, test) = task
        rng = np.random.default_rng(3)
        golds = [s.label for s in test.samples]
        rng.shuffle(golds)
        shuffled = DatasetSpec("shuffled",
                               [SynthSample(s.x, gl) for s, gl in zip(test.samples, golds)],
                               k=test.k)
        cfg = BaselineConfig(hidden=24, epochs=0, batch_size=32, lr=0.02, seed=3)
        report = baseline_ffn(cfg, fine, shuffled)
        assert abs(report.accuracy - 1 / 12) < 0.05

    def test_ffn_deterministic(self, task):
        _, (graph, fine, coarse, test) = task
        cfg = BaselineConfig(hidden=16, epochs=3, batch_size=32, lr=0.02, seed=5)
        a = baseline_ffn(cfg, fine, test)
        b = baseline_ffn(cfg, fine, test)
        assert a.accuracy == b.accuracy
        assert a.per_class == b.per_class

    def test_dynamic_schedule_reads_the_negated_epoch_loss(self, task, monkeypatch):
        _, (graph, fine, coarse, test) = task
        losses, updates = [], []
        make_loss = harness._cross_entropy

        def recording_cross_entropy(ys):
            loss_fn = make_loss(ys)

            def recorded(z, idx):
                loss = loss_fn(z, idx)
                losses.append(loss.item())
                return loss
            return recorded

        def recording_update(state, epoch, dev_metric=None):
            scale = schedule_update(state, epoch, dev_metric)
            updates.append((epoch, dev_metric, len(losses), scale))
            return scale

        monkeypatch.setattr(harness, "_cross_entropy", recording_cross_entropy)
        monkeypatch.setattr(harness, "schedule_update", recording_update)
        cfg = BaselineConfig(hidden=8, epochs=6, batch_size=64, lr=0.5,
                             schedule=ScheduleConfig("dynamic", 1), seed=0)
        baseline_ffn(cfg, fine, test)
        assert [u[0] for u in updates] == [1, 2, 3, 4, 5, 6]
        batches = -(-len(fine.samples) // cfg.batch_size)
        start = 0
        for _, metric, end, _ in updates:
            assert end - start == batches
            total = 0.0
            for loss in losses[start:end]:  # summed in training order
                total += loss
            assert metric == -total
            start = end
        assert updates[-1][3] < 1.0  # the rate was halved, so the metric drove it

    def test_label_set_targets_union_of_paths(self):
        g = figure2_subgraph()
        hot = label_set_targets(g, "british-shorthair")
        names = {g.node(i).name for i in np.flatnonzero(hot)}
        assert names == {"animal", "cat", "shorthair", "solid-color",
                         "tabby-color", "point-color", "british-shorthair"}

    def test_label_set_chain_marks_ancestors(self):
        from pathcast.labelgraph import build_graph
        g = build_graph([("d", ["x"])], augmented_spec=[("a", ["root"])],
                        edge_spec=[("a", "x")])
        hot = label_set_targets(g, "x")
        assert hot.sum() == 3.0

    def test_label_set_targets_match_enumeration_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(60):
            g = random_dag(rng)
            for label in label_ids(g):
                want = np.zeros(len(g.nodes))
                for p in oracle_all_paths(g, label):
                    want[list(p)] = 1.0
                np.testing.assert_array_equal(label_set_targets(g, g.node(label).name), want)

    def test_label_set_separable(self, task):
        _, (graph, fine, coarse, test) = task
        cfg = BaselineConfig(hidden=24, epochs=20, batch_size=32, lr=0.02, seed=0)
        report = baseline_label_set(cfg, fine, test, graph)
        assert report.accuracy >= 0.95

    def test_label_set_rejects_coarse_rows_before_training(self, task, monkeypatch):
        _, (graph, fine, coarse, test) = task
        fused = fuse(fine, coarse, graph).dataset
        trained = []
        monkeypatch.setattr(harness, "_fit_classifier", lambda *a: trained.append(a))
        cfg = BaselineConfig(hidden=8, epochs=1, batch_size=32, lr=0.02, seed=0)
        coarse_label = coarse.label_names()[0]
        with pytest.raises(NotALabelNode) as err:
            baseline_label_set(cfg, fused, test, graph)
        message = str(err.value)
        assert message.startswith(f"{fused.name}: label {coarse_label!r} ")
        assert "labelset baseline" in message
        assert not trained

    def test_pseudo_label_pipeline(self, task):
        _, (graph, fine, coarse, test) = task
        cfg = BaselineConfig(hidden=24, epochs=10, batch_size=32, lr=0.02, seed=0)
        report, info = baseline_pseudo_label(cfg, fine, coarse, test, graph)
        assert info["kept"] + info["dropped"] == len(coarse.samples)
        assert info["filtered_fraction"] == pytest.approx(
            info["dropped"] / len(coarse.samples))
        assert report.accuracy >= 0.9
        # soundness recheck: every survivor's pseudo label is a descendant of
        # its coarse label
        def descendants(node):
            out, todo = set(), [node]
            while todo:
                for c in graph.children(todo.pop()):
                    if c not in out:
                        out.add(c)
                        todo.append(c)
            return out

        for coarse_name, pseudo_name in info["survivors"]:
            assert graph.id_of(pseudo_name) in descendants(graph.id_of(coarse_name))

    def test_pseudo_label_wrong_branch_filters_everything(self, task):
        # coarse labels swapped: stage-1 pseudo labels land in the other
        # branch, the filter drops every coarse sample, and the result
        # matches the plain FFN baseline
        _, (graph, fine, coarse, test) = task
        swap = {"cat": "dog", "dog": "cat"}
        swapped = DatasetSpec("swapped",
                              [SynthSample(s.x, swap[s.label]) for s in coarse.samples],
                              k=coarse.k)
        cfg = BaselineConfig(hidden=24, epochs=6, batch_size=32, lr=0.02, seed=4)
        report, info = baseline_pseudo_label(cfg, fine, swapped, test, graph)
        assert info["kept"] == 0
        assert info["filtered_fraction"] == 1.0
        direct = baseline_ffn(cfg, fine, test)
        assert report.accuracy == direct.accuracy

    def test_pseudo_label_degenerate_filter_equals_ffn(self, task):
        _, (graph, fine, coarse, test) = task
        cfg = BaselineConfig(hidden=24, epochs=4, batch_size=32, lr=0.02, seed=1)
        empty_coarse = DatasetSpec("none", [], k=0)
        report, info = baseline_pseudo_label(cfg, fine, empty_coarse, test, graph)
        direct = baseline_ffn(cfg, fine, test)
        assert info["kept"] == 0
        assert report.accuracy == direct.accuracy


class TestTrimGraph:
    def test_trim_keeps_validity_and_labels(self):
        graph, _, _, _ = synth_generate(small_spec())
        rng = np.random.default_rng(0)
        for frac in (0.36, 0.63):
            trimmed = trim_graph(graph, frac, np.random.default_rng(5))
            assert validate(trimmed) == []
            assert stats(trimmed).label_count == stats(graph).label_count
            before = stats(graph).augmented_count
            after = stats(trimmed).augmented_count
            assert after == before - int(before * frac)
            for label in label_ids(trimmed):
                assert all_paths_to(trimmed, label)

    def test_zero_fraction_is_identity(self):
        graph, _, _, _ = synth_generate(small_spec())
        assert trim_graph(graph, 0.0, np.random.default_rng(0)) is graph

    def test_contraction_preserves_reachability(self):
        g = figure2_subgraph()
        trimmed = trim_graph(g, 0.4, np.random.default_rng(2))
        assert validate(trimmed) == []
        for label in label_ids(trimmed):
            paths = list(all_paths_to(trimmed, label))
            assert paths
            # contracted paths are never longer than the originals
            assert max(len(p) for p in paths) <= 4

    @pytest.mark.parametrize("fraction", [-0.5, 1.5])
    def test_fraction_outside_unit_interval_is_rejected(self, fraction):
        with pytest.raises(ValueError, match="not in \\[0,1\\]"):
            trim_graph(figure2_subgraph(), fraction, np.random.default_rng(0))


class TestAblate:
    @pytest.mark.parametrize("bad, message", [
        ({"aggregations": ("sum", "median")}, "unknown path aggregation 'median'"),
        ({"trim_fractions": (0.36, -0.5)}, "trim fraction -0.5 is not in"),
    ])
    def test_bad_variants_fail_before_any_training(self, task, monkeypatch, bad, message):
        _, (graph, fine, coarse, test) = task
        fits = []
        monkeypatch.setattr(harness, "fit_model", lambda *a: fits.append(a))
        with pytest.raises(ValueError, match=message):
            harness.ablate(graph, fine, test, test, TrainConfig(epochs=1), 8, 16, **bad)
        assert not fits
