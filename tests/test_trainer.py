"""Trainer mechanics: rewards, losses, schedules, baselines, determinism."""

import errno
import hashlib
import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from pathcast import model as model_module
from pathcast import numerics as nm
from pathcast.evaldecode import EmptyDataset
from pathcast.harness import BaselineConfig, SynthSpec
from pathcast.labelgraph import build_graph
from pathcast.model import LabelPathModel, greedy_pick
from pathcast.numerics import AdamState, adam_step, backward, zero_grads
from pathcast.trainer import (BaselineEstimator, EmptyRewardSet,
                              LabeledSample, PathBook, ScheduleConfig,
                              ScheduleState, TrainConfig, TrainState,
                              build_batch, descend, deterministic_loss,
                              policy_gradient_loss, reward, schedule_update,
                              read_config, train, train_epoch, typed_value)

from reference import (GroupAdamState, add_n, batch_of, collect_grads, figure2_subgraph,
                       finite_difference, group_adam_step, max_rel_err, path_log_prob, pooled,
                       rescored, rows, sample_cross_block, scale, step_major_walk, sum_all,
                       walks_of)


def bandit_graph():
    """root -> {a, b} (competing), a -> win, b -> lose."""
    return build_graph(
        label_sets=[("d", ["win", "lose"])],
        augmented_spec=[("a", ["root"]), ("b", ["root"])],
        edge_spec=[("a", "win"), ("b", "lose")])


def chain_graph():
    return build_graph([("d", ["x"])], augmented_spec=[("a", ["root"])],
                       edge_spec=[("a", "x")])


def make_model(graph, seed=0, input_dim=4):
    return LabelPathModel(graph, input_dim=input_dim, embed_dim=5, hidden=8, seed=seed)


def record_decode_steps(m, monkeypatch):
    """Wrap ``model.prefix_forest`` and ``m.decode_logits``; returns the
    lists they fill with each scored pass's steps: per step, every lane's
    fed token, and the logits of the node each lane was fed into."""
    fed: list[list[int]] = []
    logits: list[np.ndarray] = []
    nodes = []
    forest, decode = model_module.prefix_forest, m.decode_logits

    def forest_recording(feeds, rows, n):
        out = forest(feeds, rows, n)
        fed.extend(feeds.tolist())
        nodes.append(out[0])
        return out

    def recording(f, tokens, parent=None, sizes=None):
        f_t, z = decode(f, tokens, parent, sizes)
        logits.extend(z.data[nodes.pop()])
        return f_t, z

    monkeypatch.setattr(model_module, "prefix_forest", forest_recording)
    m.decode_logits = recording
    return fed, logits


class TestReward:
    def test_full_overlap(self):
        assert reward([0, 1, 2, 3], frozenset({0, 1, 2})) == 1.0

    def test_partial_overlap(self):
        assert reward([0, 1, 9], frozenset({0, 1, 5})) == pytest.approx(2 / 3)

    def test_disjoint(self):
        assert reward([7, 8], frozenset({0, 1})) == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            sampled = set(rng.integers(0, 10, size=rng.integers(1, 6)).tolist())
            members = frozenset(rng.integers(0, 10, size=rng.integers(1, 6)).tolist())
            r = reward(sorted(sampled), members)
            assert 0.0 <= r <= 1.0
            assert (r == 1.0) == (members <= sampled)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyRewardSet):
            reward([0], frozenset())


class TestBaseline:
    def test_ema_update(self):
        b = BaselineEstimator()
        b.update(1.0)
        assert b.value == pytest.approx(0.1)
        b.update(1.0)
        assert b.value == pytest.approx(0.19)

    def test_stays_in_reward_hull(self):
        rng = np.random.default_rng(1)
        b = BaselineEstimator()
        for _ in range(500):
            b.update(float(rng.uniform()))
            assert 0.0 <= b.value <= 1.0


class TestSchedules:
    def test_fixed_decay_halves_on_period(self):
        st = ScheduleState(ScheduleConfig("fixed", 10))
        lr = 0.0004
        for epoch in range(1, 31):
            schedule_update(st, epoch)
        assert lr * st.scale == pytest.approx(0.0004 / 8)

    def test_fixed_decay_epoch_10_exact(self):
        st = ScheduleState(ScheduleConfig("fixed", 10))
        for epoch in range(1, 10):
            schedule_update(st, epoch)
            assert st.scale == 1.0
        schedule_update(st, 10)
        assert 0.0004 * st.scale == pytest.approx(0.0002)

    def test_dynamic_no_reduction_while_improving(self):
        st = ScheduleState(ScheduleConfig("dynamic", 5))
        for epoch, metric in enumerate([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], start=1):
            schedule_update(st, epoch, metric)
        assert st.scale == 1.0

    def test_dynamic_five_flat_epochs_halve_once(self):
        st = ScheduleState(ScheduleConfig("dynamic", 5))
        schedule_update(st, 1, 0.5)
        for epoch in range(2, 7):
            schedule_update(st, epoch, 0.5)  # five non-improving epochs
        assert st.scale == 0.5
        schedule_update(st, 7, 0.5)
        assert st.scale == 0.5  # patience was reset by the reduction

    def test_dynamic_counter_resets_on_improvement(self):
        st = ScheduleState(ScheduleConfig("dynamic", 3))
        for epoch, metric in enumerate([0.5, 0.5, 0.5, 0.6, 0.6, 0.6], start=1):
            schedule_update(st, epoch, metric)
        # stale ran 2, reset by the improvement at epoch 4, then 2 more
        assert st.scale == 1.0

    def test_dynamic_requires_metric(self):
        st = ScheduleState(ScheduleConfig("dynamic", 5))
        with pytest.raises(ValueError):
            schedule_update(st, 1, None)


class TestTrainConfig:
    def test_validation(self):
        TrainConfig()
        with pytest.raises(ValueError):
            TrainConfig(r_tf=1.5)
        with pytest.raises(ValueError):
            TrainConfig(path_agg="median")
        with pytest.raises(ValueError):
            TrainConfig(reward_set="everything")
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(schedule=ScheduleConfig(kind="exotic"))

    @pytest.mark.parametrize("raw, message", [
        ({"n": 0}, "schedule n must be at least 1"),
        ({"kind": "nope"}, "unknown schedule kind 'nope'"),
        ({"knd": "dynamic"}, "unknown schedule key 'knd'"),
    ])
    def test_schedule_is_checked_where_it_is_read(self, raw, message):
        with pytest.raises(ValueError, match=message):
            read_config(ScheduleConfig, raw, "schedule", required=False, closed=True)
        base = {"batch_size": 32, "max_len": 8, "r_tf": 1.0, "alpha": 1.0, "beta": 1.0,
                "path_agg": "mean", "n_p": 4, "reward_set": "certain", "lr_e": 0.01,
                "lr": 0.01, "epochs": 1, "seed": 0}
        with pytest.raises(ValueError, match=message):
            read_config(TrainConfig, {**base, "schedule": raw}, "config", required=True,
                        closed=False)


CONFIGS = [ScheduleConfig, TrainConfig, BaselineConfig, SynthSpec]


class TestConfigSchema:
    @pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
    def test_defaults_round_trip_through_json(self, cls):
        raw = json.loads(json.dumps(asdict(cls())))
        assert read_config(cls, raw, "config", required=True, closed=True) == cls()

    @pytest.mark.parametrize("cls, bad, message", [
        (ScheduleConfig, {"kind": "exotic"}, "unknown schedule kind 'exotic'"),
        (TrainConfig, {"max_len": 1}, "batch_size/max_len/n_p/epochs out of range"),
        (BaselineConfig, {"lr": -0.01}, "lr must be positive"),
        (BaselineConfig, {"hidden": 0}, "hidden/batch_size/epochs out of range"),
        (SynthSpec, {"group_sizes": (3, 0, 4)}, "group sizes must be positive"),
        (TrainConfig, {"seed": -1}, "'seed' must be a non-negative int, not -1"),
        (BaselineConfig, {"seed": -1}, "'seed' must be a non-negative int, not -1"),
        (SynthSpec, {"seed": -1}, "'seed' must be a non-negative int, not -1"),
        (SynthSpec, {"n_train_fine": -1}, "'n_train_fine' must be a non-negative int, not -1"),
        (SynthSpec, {"n_train_coarse": -2},
         "'n_train_coarse' must be a non-negative int, not -2"),
        (SynthSpec, {"n_test": -3}, "'n_test' must be a non-negative int, not -3"),
    ], ids=["ScheduleConfig", "TrainConfig", "BaselineConfig-lr", "BaselineConfig-hidden",
            "SynthSpec", "TrainConfig-seed", "BaselineConfig-seed", "SynthSpec-seed",
            "SynthSpec-n_train_fine", "SynthSpec-n_train_coarse", "SynthSpec-n_test"])
    def test_an_out_of_range_value_fails_when_built(self, cls, bad, message):
        with pytest.raises(ValueError, match=message):
            cls(**bad)


class TestTypedFields:
    # epochs is an int field, lr a float field and path_agg a str field
    @pytest.mark.parametrize("key, value", [
        ("epochs", 3), ("epochs", -1), ("lr", 0.5), ("lr", 2), ("path_agg", "sum"),
    ])
    def test_json_types_are_accepted(self, key, value):
        got = typed_value(key, value, type(getattr(TrainConfig(), key)))
        assert got == value and type(got) is type(getattr(TrainConfig(), key))

    @pytest.mark.parametrize("key, value, message", [
        ("epochs", 1.9, "'epochs' must be an int, not 1.9"),
        ("epochs", 2.0, "'epochs' must be an int, not 2.0"),
        ("epochs", "2", "'epochs' must be an int, not '2'"),
        ("epochs", True, "'epochs' must be an int, not True"),
        ("epochs", None, "'epochs' must be an int, not None"),
        ("lr", "0.1", "'lr' must be a float, not '0.1'"),
        ("lr", False, "'lr' must be a float, not False"),
        ("lr", [0.1], r"'lr' must be a float, not \[0.1\]"),
        ("lr", float("nan"), "'lr' must be a finite number, not nan"),
        ("lr", float("inf"), "'lr' must be a finite number, not inf"),
        ("lr", float("-inf"), "'lr' must be a finite number, not -inf"),
        ("path_agg", 3, "'path_agg' must be a string, not 3"),
        ("path_agg", None, "'path_agg' must be a string, not None"),
    ])
    def test_other_types_are_rejected(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            typed_value(key, value, type(getattr(TrainConfig(), key)))

    def test_every_config_reads_strictly(self):
        with pytest.raises(ValueError, match="'n' must be an int, not 2.5"):
            read_config(ScheduleConfig, {"n": 2.5}, "schedule", required=False, closed=True)
        base = {"batch_size": 32, "max_len": 8, "r_tf": 1.0, "alpha": 1.0, "beta": 1.0,
                "path_agg": "mean", "n_p": 4, "reward_set": "certain", "lr_e": 0.01,
                "lr": 0.01, "epochs": 1, "seed": 0}
        assert read_config(TrainConfig, {**base, "r_tf": 1}, "config", required=True,
                           closed=False).r_tf == 1.0
        with pytest.raises(ValueError, match="'batch_size' must be an int, not 32.5"):
            read_config(TrainConfig, {**base, "batch_size": 32.5}, "config", required=True,
                        closed=False)
        for key, value in (("lr", float("nan")), ("alpha", float("inf")),
                           ("r_tf", float("-inf")), ("beta", 10 ** 400)):
            with pytest.raises(ValueError, match=f"'{key}' must be a finite number"):
                read_config(TrainConfig, {**base, key: value}, "config", required=True,
                            closed=False)


class TestDeterministicLoss:
    def test_chain_loss_is_zero(self):
        g = chain_graph()
        m = make_model(g, seed=1)
        book = PathBook(g)
        rng = np.random.default_rng(0)
        cfg = TrainConfig(max_len=6)
        batch = build_batch([LabeledSample(np.zeros(4), g.id_of("x"))], cfg, book, rng)
        loss = pooled(m, batch.inputs, deterministic_loss(batch, cfg, rng))
        assert abs(loss.item()) < 1e-12

    def test_two_way_block_uniform_init_gives_ln2(self):
        # one free binary choice per path; output head zeroed => uniform blocks
        g = bandit_graph()
        m = make_model(g, seed=2)
        m.params["out.w"].data[...] = 0.0
        m.params["out.b"].data[...] = 0.0
        book = PathBook(g)
        cfg = TrainConfig(max_len=6)
        rng = np.random.default_rng(0)
        batch = build_batch([LabeledSample(np.zeros(4), g.id_of("win"))], cfg, book, rng)
        loss = pooled(m, batch.inputs, deterministic_loss(batch, cfg, rng))
        assert loss.item() == pytest.approx(np.log(2), abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        g = figure2_subgraph()
        m = make_model(g, seed=3, input_dim=4)
        book = PathBook(g)
        cfg = TrainConfig(max_len=6, path_agg="mean", n_p=4)
        rng_x = np.random.default_rng(5)
        samples = [LabeledSample(rng_x.normal(size=4), g.id_of("british-shorthair")),
                   LabeledSample(rng_x.normal(size=4), g.id_of("bengal"))]
        batch = build_batch(samples, cfg, book, np.random.default_rng(1))
        raw = {k: v.data.copy() for k, v in m.params.items()}

        def rebuild(p):
            m2 = make_model(g, seed=3, input_dim=4)
            for k, t in m2.params.items():
                t.data[...] = p[k]
            return pooled(m2, batch.inputs,
                          deterministic_loss(batch, cfg, np.random.default_rng(2))).item()

        loss = pooled(m, batch.inputs, deterministic_loss(batch, cfg, np.random.default_rng(2)))
        zero_grads(m.params)
        backward(loss)
        grads = collect_grads(m.params)
        fd = finite_difference(rebuild, raw)
        # restrict to a representative subset of coordinates for speed
        for name in ("out.w", "emb", "gru.w_cf", "enc.w1", "out.b"):
            assert max_rel_err(grads[name], fd[name]) < 1e-4

    def test_single_lane_equals_path_log_prob(self):
        # one sample, one teacher-forced path: the loss is exactly its NLL
        g = figure2_subgraph()
        m = make_model(g, seed=6, input_dim=4)
        path = tuple(g.id_of(n) for n in ("animal", "cat", "shorthair", "british-shorthair"))
        x = np.random.default_rng(3).normal(size=4)
        batch = batch_of(np.stack([x]), [[path]], labels=(path[-1],))
        loss = pooled(m, batch.inputs, deterministic_loss(batch, TrainConfig(max_len=8, r_tf=1.0),
                                                          np.random.default_rng(0)))
        assert -loss.item() == path_log_prob(m, x, path).item()

    def test_padding_steps_do_not_contribute(self):
        # mixing a short and a long path: the short lane stops at its EOP
        g = figure2_subgraph()
        m = make_model(g, seed=4, input_dim=4)
        cfg = TrainConfig(max_len=8)
        x = np.zeros(4)
        short = batch_of(np.stack([x]), [[(0, g.id_of("cat"))]], labels=(g.id_of("cat"),))
        longer = batch_of(
            np.stack([x, x]),
            [[(0, g.id_of("cat"))], [(0, g.id_of("cat"), g.id_of("shorthair"), g.id_of("bengal"))]],
            labels=(g.id_of("cat"), g.id_of("bengal")))
        only_long = batch_of(np.stack([x]),
                             [[(0, g.id_of("cat"), g.id_of("shorthair"), g.id_of("bengal"))]],
                             labels=(g.id_of("bengal"),))
        a, both, b = (pooled(m, bt.inputs, deterministic_loss(bt, cfg, np.random.default_rng(0)))
                      .item() for bt in (short, longer, only_long))
        assert both == pytest.approx((a + b) / 2, abs=1e-12)

    def test_teacher_forcing_rate_changes_input_streams(self, monkeypatch):
        g = figure2_subgraph()
        m = make_model(g, seed=5, input_dim=4)
        # skew the output head so the model argmax disagrees with groundtruth
        m.params["out.b"].data[g.id_of("longhair")] = 5.0
        cfg_tf = TrainConfig(max_len=6, r_tf=1.0)
        cfg_fr = TrainConfig(max_len=6, r_tf=0.0)
        batch = batch_of(
            np.zeros((1, 4)),
            [[(0, g.id_of("cat"), g.id_of("shorthair"), g.id_of("british-shorthair"))]],
            labels=(g.id_of("british-shorthair"),))
        fed, _ = record_decode_steps(m, monkeypatch)
        pooled(m, batch.inputs, deterministic_loss(batch, cfg_tf, np.random.default_rng(0)))
        trace_tf = [step[0] for step in fed]
        fed.clear()
        pooled(m, batch.inputs, deterministic_loss(batch, cfg_fr, np.random.default_rng(0)))
        trace_fr = [step[0] for step in fed]
        # four steps, none after the lane's end; EOP is not offered at root or cat
        assert len(trace_tf) == len(trace_fr) == 4
        assert trace_tf != trace_fr
        assert trace_tf[:2] == trace_fr[:2]  # START and root agree

    def test_free_running_feeds_the_greedy_token_of_each_step(self, monkeypatch):
        # every fed token after START is the one-row oracle's greedy_choice
        # over distribution of the logits that lane saw one step earlier, up
        # to the lane's last target; after an EOP pick the lane stays frozen
        # on its token. In the second graph cat is a label with grouped
        # children, where greedy decoding picks EOP, so its lane freezes one
        # step before its end.
        from reference import distribution, greedy_choice
        coarse = build_graph([("coarse", ["cat"]), ("fine", ["a", "b"]), ("finer", ["x"])],
                             (), [("root", "cat"), ("cat", "a"), ("cat", "b"), ("a", "x")], ())
        f2 = figure2_subgraph()
        cases = [(f2, [f2.id_of("british-shorthair"), f2.id_of("bengal")]),
                 (coarse, [coarse.id_of("x")])]
        eop_picks = 0
        for g, labels in cases:
            book = PathBook(g)
            for seed in range(4):
                m = make_model(g, seed=seed, input_dim=4)
                fed, logits = record_decode_steps(m, monkeypatch)
                rows = np.random.default_rng(seed).normal(size=(len(labels), 4))
                paths = [list(book.split(lb)[0]) + list(book.split(lb)[1]) for lb in labels]
                batch = batch_of(rows, paths, labels, max_len=6)
                lanes = [p[:6] for ps in paths for p in ps]
                loss = pooled(m, batch.inputs, deterministic_loss(
                    batch, TrainConfig(max_len=6, r_tf=0.0), np.random.default_rng(0)))
                assert loss is not None and len(fed) == max(map(len, lanes))
                for li, targets in enumerate(lanes):
                    assert fed[0][li] == m.start_token
                    for t in range(1, len(targets)):
                        dist = distribution(m, logits[t - 1][li], fed[t - 1][li])
                        pick = greedy_choice(dist)[0]
                        if pick == m.eop_token:
                            eop_picks += 1
                            assert all(step[li] == fed[t - 1][li] for step in fed[t:])
                            break
                        assert fed[t][li] == pick
        assert eop_picks == 4  # the coarse lane, once per seed

    @pytest.mark.parametrize("r_tf", [1.0, 0.0])
    def test_lanes_carry_no_closing_eop(self, r_tf, monkeypatch):
        # one decode step per target node: the longest lane has 4 nodes, so
        # the loss runs 4 GRU steps and never a fifth for EOP; the 2-node
        # lane alone runs 2
        g = figure2_subgraph()
        m = make_model(g, seed=2, input_dim=4)
        cat = g.id_of("cat")
        longest = (0, cat, g.id_of("shorthair"), g.id_of("british-shorthair"))
        batch = batch_of(np.zeros((2, 4)), [[longest], [(0, cat)]], labels=(longest[-1], cat))
        short = batch_of(np.zeros((1, 4)), [[(0, cat)]], labels=(cat,))
        fed, _ = record_decode_steps(m, monkeypatch)
        cfg = TrainConfig(max_len=8, r_tf=r_tf)
        assert pooled(m, batch.inputs,
                      deterministic_loss(batch, cfg, np.random.default_rng(0))) is not None
        assert len(fed) == 4
        fed.clear()
        assert pooled(m, short.inputs,
                      deterministic_loss(short, cfg, np.random.default_rng(0))) is not None
        assert len(fed) == 2

    def test_returns_none_without_lanes(self):
        g = chain_graph()
        m = make_model(g)
        cfg = TrainConfig()
        batch = batch_of(np.zeros((1, 4)), [[]], labels=(g.id_of("x"),))
        assert deterministic_loss(batch, cfg, np.random.default_rng(0)) is None

    @pytest.mark.parametrize("r_tf", [1.0, 0.0])
    def test_trace_nodes_do_not_grow_with_lanes(self, monkeypatch, r_tf):
        # the loss builds a fixed number of trace nodes per decode step,
        # however many lanes share the step, teacher-forced or free-running
        g = figure2_subgraph()
        m = make_model(g, seed=7, input_dim=4)
        book = PathBook(g)
        labels = [g.id_of("british-shorthair"), g.id_of("bengal")]
        built = [0]
        init = nm.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(nm.Tensor, "__init__", counting_init)

        def count(n_samples):
            samples = [LabeledSample(np.full(4, 0.1 * i), labels[i % 2])
                       for i in range(n_samples)]
            cfg = TrainConfig(max_len=6, r_tf=r_tf, n_p=4)
            batch = build_batch(samples, cfg, book, np.random.default_rng(0))
            built[0] = 0
            assert pooled(m, batch.inputs,
                      deterministic_loss(batch, cfg, np.random.default_rng(0))) is not None
            return built[0], sum(len(p) for p in batch.target_paths)

        nodes, lanes = count(2)
        nodes2, lanes2 = count(4)
        assert lanes2 == 2 * lanes
        assert nodes2 == nodes


class TestPolicyGradientLoss:
    def test_zero_gradient_when_reward_equals_baseline(self):
        g = bandit_graph()
        m = make_model(g, seed=6)
        book = PathBook(g)
        cfg = TrainConfig(reward_set="certain")
        baseline = BaselineEstimator(value=1.0)  # happens to match r
        batch = batch_of(np.zeros((1, 4)), [[]], labels=(g.id_of("win"),))
        # force the sampler down the rewarded arm by biasing the logits
        m.params["out.b"].data[g.id_of("a")] = 50.0
        lanes, rewards = policy_gradient_loss(m, batch, baseline, cfg,
                                              np.random.default_rng(0), book)
        loss = pooled(m, batch.inputs, lanes)
        assert rewards == [1.0]
        zero_grads(m.params)
        backward(loss)
        for gr in collect_grads(m.params).values():
            np.testing.assert_allclose(gr, 0.0, atol=1e-15)

    def test_surrogate_zero_on_forced_chain(self):
        g = chain_graph()
        m = make_model(g, seed=7)
        book = PathBook(g)
        cfg = TrainConfig()
        baseline = BaselineEstimator()
        batch = batch_of(np.zeros((1, 4)), [[]], labels=(g.id_of("x"),))
        lanes, rewards = policy_gradient_loss(m, batch, baseline, cfg,
                                              np.random.default_rng(0), book)
        loss = pooled(m, batch.inputs, lanes)
        assert abs(loss.item()) < 1e-12  # all probabilities along the chain are 1

    def test_baseline_updated_after_use(self):
        g = chain_graph()
        m = make_model(g, seed=8)
        book = PathBook(g)
        cfg = TrainConfig()
        baseline = BaselineEstimator()
        batch = batch_of(np.zeros((1, 4)), [[]], labels=(g.id_of("x"),))
        policy_gradient_loss(m, batch, baseline, cfg, np.random.default_rng(0), book)
        assert baseline.value == pytest.approx(0.1)  # 0.9*0 + 0.1*1.0

    def test_gradient_matches_finite_differences(self):
        g = bandit_graph()
        m = make_model(g, seed=9)
        x = np.random.default_rng(3).normal(size=4)
        sampled = m.sample_path(x[None, :], np.random.default_rng(1), max_len=6)
        weight = -(1.0 - 0.4)  # frozen (r - b)
        raw = {k: v.data.copy() for k, v in m.params.items()}

        def rebuild(p):
            m2 = make_model(g, seed=9)
            for k, t in m2.params.items():
                t.data[...] = p[k]
            return scale(sum_all(rescored(m2, x[None, :], sampled)), weight).item()

        loss = scale(sum_all(rescored(m, x[None, :], sampled)), weight)
        zero_grads(m.params)
        backward(loss)
        grads = collect_grads(m.params)
        fd = finite_difference(rebuild, raw)
        for name in ("out.w", "emb", "gru.w_uf", "enc.w2"):
            assert max_rel_err(grads[name], fd[name]) < 1e-4

    def test_constant_rewards_give_zero_mean_gradient(self):
        # score-function estimator: E[grad log p] = 0 when (r - b) is constant.
        # Both arms reach the label, so every sampled path earns reward 1.
        g = build_graph(
            label_sets=[("d", ["win"])],
            augmented_spec=[("a", ["root"]), ("b", ["root"])],
            edge_spec=[("a", "win"), ("b", "win")])
        m = make_model(g, seed=10)
        book = PathBook(g)
        cfg = TrainConfig(reward_set="certain")
        batch = batch_of(np.zeros((1, 4)), [[]], labels=(g.id_of("win"),))
        rng = np.random.default_rng(42)
        samples_a = []
        samples_b = []
        trials = 4000
        for _ in range(trials):
            baseline = BaselineEstimator(value=0.5)  # fixed across trials
            lanes, rewards = policy_gradient_loss(m, batch, baseline, cfg, rng, book)
            assert rewards == [1.0]
            zero_grads(m.params)
            backward(pooled(m, batch.inputs, lanes))
            samples_a.append(float(m.params["out.b"].grad[g.id_of("a")]))
            samples_b.append(float(m.params["out.b"].grad[g.id_of("b")]))
        for vals in (samples_a, samples_b):
            arr = np.asarray(vals)
            se = arr.std(ddof=1) / np.sqrt(trials)
            assert abs(arr.mean()) <= 3 * se

    def test_matches_per_sample_composition(self):
        def per_sample_loss(m, batch, baseline, cfg, rng, book):
            # one-row walks drawing step-major, as the lockstep sampler does;
            # then one encode, one rescoring and one scale per sample, pooled
            b = baseline.value
            terms, rewards = [], []
            walks = step_major_walk(m, batch.inputs[list(batch.pg_indexes)], cfg.max_len,
                                    lambda dist: sample_cross_block(dist, rng))
            for i, sampled in zip(batch.pg_indexes, walks):
                r = reward(sampled.tokens, book.reward_members(batch.labels[i], cfg.reward_set))
                rewards.append(r)
                logp = sum_all(rescored(m, batch.inputs[i][None, :], walks_of([sampled])))
                terms.append(scale(logp, -(r - b)))
            baseline.update(float(np.mean(rewards)))
            return scale(add_n(terms), 1.0 / len(batch.pg_indexes)), rewards

        def batched_loss(m, batch, baseline, cfg, rng, book):
            lanes, rewards = policy_gradient_loss(m, batch, baseline, cfg, rng, book)
            return pooled(m, batch.inputs, lanes), rewards

        g = bandit_graph()
        labels = (g.id_of("win"), g.id_of("lose"))
        cfg = TrainConfig(max_len=6)
        inputs = np.random.default_rng(16).normal(size=(8, 4))
        batch = batch_of(inputs, [[]] * 8, tuple(labels[i % 2] for i in range(8)),
                         pg_indexes=(1, 2, 4, 5, 6, 7))
        results = []
        for loss_fn in (batched_loss, per_sample_loss):
            m = make_model(g, seed=15)
            baseline = BaselineEstimator(value=0.3)
            loss, rewards = loss_fn(m, batch, baseline, cfg, np.random.default_rng(17),
                                    PathBook(g))
            zero_grads(m.params)
            backward(loss)
            results.append((loss.item(), rewards, baseline.value, collect_grads(m.params)))
        (loss, rewards, b, grads), (ref_loss, ref_rewards, ref_b, ref_grads) = results
        assert len(set(rewards)) > 1  # the weights differ between samples
        assert rewards == ref_rewards and b == ref_b
        assert abs(loss - ref_loss) <= 1e-12
        for name, gr in grads.items():
            np.testing.assert_allclose(gr, ref_grads[name], rtol=0, atol=1e-12)

    def test_walks_ending_in_eop_after_four_nodes_score_four_steps(self, monkeypatch):
        # root -> c -> {a, b} (competing) -> x: every walk is four nodes and
        # then EOP, the only candidate after the leaf label x
        g = build_graph([("d", ["x"])], augmented_spec=[("c", ["root"]), ("a", ["c"]),
                                                        ("b", ["c"])],
                        edge_spec=[("a", "x"), ("b", "x")])
        m = make_model(g, seed=11)
        walks, steps = [], []
        sample_path, score_lanes = m.sample_path, m.score_lanes

        def sampling(*args):
            out = sample_path(*args)
            walks.extend(rows(out))
            return out

        def scoring(f, rows, target, n, teacher):
            steps.append((len(target), n.tolist(), teacher.tolist()))
            return score_lanes(f, rows, target, n, teacher)

        monkeypatch.setattr(m, "sample_path", sampling)
        monkeypatch.setattr(m, "score_lanes", scoring)
        samples = [LabeledSample(x, g.id_of("x"))
                   for x in np.random.default_rng(12).normal(size=(6, 4))]
        train_epoch(m, samples, TrainConfig(batch_size=3, max_len=6),
                    TrainState.init(m, TrainConfig()))
        assert len(walks) == 6
        assert {(len(w.tokens), w.terminated_by) for w in walks} == {(4, "eop")}
        assert steps == [(4, [4, 4, 4], [True] * 3)] * 2

    def test_empty_pg_set(self):
        g = chain_graph()
        m = make_model(g)
        book = PathBook(g)
        lanes, rewards = policy_gradient_loss(
            m, batch_of(np.zeros((1, 4)), [[(0, g.id_of("a"), g.id_of("x"))]],
                        labels=(g.id_of("x"),)),
            BaselineEstimator(), TrainConfig(), np.random.default_rng(0), book)
        assert lanes is None and rewards == []


class TestBandit:
    def test_policy_gradient_converges_on_rewarded_member(self):
        # reward 1 for the arm reaching the labelled node, 0 otherwise
        wins = 0
        for seed in range(10):
            g = bandit_graph()
            m = make_model(g, seed=seed)
            book = PathBook(g)
            cfg = TrainConfig(reward_set="label_only", max_len=6)
            baseline = BaselineEstimator()
            adam = AdamState(m.params, dict.fromkeys(m.params, 0.05))
            x = np.zeros(4)
            batch = batch_of(np.stack([x]), [[]], labels=(g.id_of("win"),))
            rng = np.random.default_rng(1000 + seed)
            for _ in range(500):
                lanes, _ = policy_gradient_loss(m, batch, baseline, cfg, rng, book)
                if lanes is None:
                    continue
                zero_grads(m.params)
                backward(pooled(m, batch.inputs, lanes))
                adam_step(adam, m.params)
            f = m.encode(x).data
            probs, _, _ = m.step(f, [g.root])
            p_win = probs[0, g.id_of("a")]
            wins += p_win >= 0.95
        assert wins >= 9

    def test_alpha_only_matches_deterministic_gradients(self):
        g = figure2_subgraph()
        cfg = TrainConfig(alpha=1.0, beta=0.0, max_len=6, seed=11)
        samples = [LabeledSample(np.random.default_rng(0).normal(size=4),
                                 g.id_of("british-shorthair"))]
        m1 = make_model(g, seed=11, input_dim=4)
        state = TrainState.init(m1, cfg)
        train_epoch(m1, samples, cfg, state)
        m2 = make_model(g, seed=11, input_dim=4)
        book = PathBook(g)
        enc = {k: v for k, v in m2.params.items() if k in m2.encoder_param_names}
        rest = {k: v for k, v in m2.params.items() if k not in m2.encoder_param_names}
        a_enc, a_rest = GroupAdamState(lr=cfg.lr_e), GroupAdamState(lr=cfg.lr)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=11, spawn_key=(1, 0)))
        batch = build_batch(samples, cfg, book, rng)
        loss = pooled(m2, batch.inputs, deterministic_loss(batch, cfg, rng))
        zero_grads(m2.params)
        backward(loss)
        grads = collect_grads(m2.params)
        group_adam_step(a_enc, enc, grads)
        group_adam_step(a_rest, rest, grads)
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name].data, m2.params[name].data)


class TestOnePassIdentity:
    """A batch's teacher-forced lanes and PG trajectories share one scored
    pass. Its losses may differ from two passes in their last bits, but the
    rewards drawn in a short seeded run, and the greedy paths its model then
    decodes, are those of two passes, pinned here by digest: with PG lanes in
    the pass at each teacher-forcing rate, and with either branch off."""

    @pytest.mark.parametrize("r_tf, alpha, beta, digest, n_rewards", [
        (1.0, 1.0, 1.0, "89bdb6e78a409cd6", 14),
        (0.5, 1.0, 1.0, "d298da9d236bf32a", 14),
        (0.0, 1.0, 1.0, "984853b370e53e2e", 14),
        (1.0, 0.0, 1.0, "c4ffe77c323bea9d", 14),
        (0.5, 1.0, 0.0, "c57f8eb48adef5ed", 0),
    ])
    def test_rewards_and_decoded_paths_are_pinned(self, monkeypatch, r_tf, alpha, beta, digest,
                                                  n_rewards):
        from pathcast import trainer
        from pathcast.harness import fuse, resolve_samples, synth_generate
        # the sixth label samples every attribute: it trains by REINFORCE
        spec = SynthSpec(seed=7, n_train_fine=48, n_train_coarse=24, n_test=24,
                         label_profiles=SynthSpec().label_profiles[:5] + ((None, None, None),))
        graph, fine, coarse, test = synth_generate(spec)
        model = LabelPathModel(graph, spec.input_dim, embed_dim=6, hidden=8, seed=7)
        cfg = TrainConfig(batch_size=8, max_len=6, epochs=2, r_tf=r_tf, alpha=alpha, beta=beta,
                          seed=7, n_p=2)
        rewards, pg_lanes = [], trainer.policy_gradient_loss

        def recording(*args):
            out = pg_lanes(*args)
            rewards.extend(out[1])
            return out

        monkeypatch.setattr(trainer, "policy_gradient_loss", recording)
        train(model, resolve_samples(fuse(fine, coarse, graph).dataset, graph), cfg)
        xs = np.stack([s.x for s in resolve_samples(test, graph)])
        walks = model.walk(model.encode_values(xs), 6, greedy_pick)
        paths = [list(w.tokens) for w in rows(walks)]
        got = hashlib.sha256(json.dumps([rewards, paths]).encode()).hexdigest()[:16]
        assert (got, len(rewards)) == (digest, n_rewards)


class TestTrainEpochDeterminism:
    @pytest.mark.parametrize("r_tf", [1.0, 0.5, 0.0])
    def test_identical_seeds_bitwise_identical_parameters(self, r_tf):
        g = figure2_subgraph()
        rng = np.random.default_rng(0)
        samples = [LabeledSample(rng.normal(size=4),
                                 g.id_of(["british-shorthair", "bengal"][i % 2]))
                   for i in range(12)]

        def run():
            m = make_model(g, seed=21, input_dim=4)
            cfg = TrainConfig(batch_size=4, max_len=6, seed=21, r_tf=r_tf)
            state = TrainState.init(m, cfg)
            train_epoch(m, samples, cfg, state)
            return {k: v.data.tobytes() for k, v in m.params.items()}

        assert run() == run()


class TestDescend:
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_a_non_finite_loss_stops_before_backward(self, bad):
        # the loss is a boundary: no gradient is taken and no step made
        p = nm.parameters({"w": [1.0, 2.0]})
        adam = AdamState(p, {"w": 0.1})
        with pytest.raises(nm.NonFiniteValue, match="^non-finite loss$"):
            descend(nm.weighted_sum(p["w"], [bad, 0.0]), p, adam, 1.0)
        assert p["w"].grad is None and adam.step_count == 0
        np.testing.assert_array_equal(p["w"].data, [1.0, 2.0])


class TestTrain:
    @pytest.mark.parametrize("kind", ["fixed", "dynamic"])
    def test_empty_dev_set_is_rejected_before_training(self, tmp_path, kind):
        g = chain_graph()
        m = make_model(g)
        before = {k: v.data.copy() for k, v in m.params.items()}
        cfg = TrainConfig(max_len=4, epochs=2, schedule=ScheduleConfig(kind, 2))
        metrics = tmp_path / "m.metrics.jsonl"
        with pytest.raises(EmptyDataset):
            train(m, [LabeledSample(np.zeros(4), g.id_of("x"))], cfg, dev_set=[],
                  metrics_path=str(metrics))
        assert not metrics.exists()
        assert all(np.array_equal(v.data, before[k]) for k, v in m.params.items())


class _FullDisk:
    """A text file whose flush, or only its close, fails as a full disk does."""

    def __init__(self, f, fail_flush):
        self.f, self.fail_flush = f, fail_flush

    def write(self, text):
        return self.f.write(text)

    def flush(self):
        if self.fail_flush:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def close(self):
        self.f.close()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestWritten:
    @pytest.mark.parametrize("fail_flush", [True, False])
    def test_a_failed_write_or_close_names_the_file_and_removes_it(self, tmp_path, monkeypatch,
                                                                   fail_flush):
        import builtins

        from pathcast import trainer
        path = tmp_path / "out.jsonl"
        monkeypatch.setattr(trainer, "open", lambda *a, **k: _FullDisk(builtins.open(*a, **k),
                                                                      fail_flush),
                            raising=False)
        with pytest.raises(OSError) as info:
            with trainer.written(str(path)) as write:
                write("line\n")
        assert str(info.value) == f"{path}: No space left on device"
        assert not path.exists()

    def test_lines_are_written_and_kept(self, tmp_path):
        from pathcast.trainer import written
        path = tmp_path / "out.jsonl"
        with written(str(path)) as write:
            write("a\n")
            assert path.read_text() == "a\n"  # flushed as it is written
            write("b\n")
        assert path.read_text() == "a\nb\n"
        with written(None) as write:
            assert write is None
