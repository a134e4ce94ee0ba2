"""Trainer mechanics: rewards, losses, schedules, baselines, determinism."""

import numpy as np
import pytest

from pathcast import numerics as nm
from pathcast.evaldecode import EmptyDataset
from pathcast.labelgraph import build_graph
from pathcast.model import LabelPathModel
from pathcast.numerics import AdamState, adam_step, backward, collect_grads, zero_grads
from pathcast.trainer import (Batch, BaselineEstimator, EmptyRewardSet,
                              LabeledSample, PathBook, ScheduleConfig,
                              ScheduleState, TrainConfig, TrainState,
                              build_batch, deterministic_loss,
                              policy_gradient_loss, reward, schedule_update,
                              train, train_epoch)

from test_labelgraph import figure2_subgraph


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


def record_decode_steps(m):
    """Wrap ``m.decode_logits``; returns the lists it fills with each decode
    step's fed tokens (one per lane) and the logits that step produced."""
    fed: list[list[int]] = []
    logits: list[np.ndarray] = []
    decode = m.decode_logits

    def recording(f, tokens):
        f_t, z = decode(f, tokens)
        fed.append(list(tokens))  # score_lanes reuses its list across steps
        logits.append(z.data.copy())
        return f_t, z

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
        b = BaselineEstimator(decay=0.9)
        b.update(1.0)
        assert b.value == pytest.approx(0.1)
        b.update(1.0)
        assert b.value == pytest.approx(0.19)

    def test_stays_in_reward_hull(self):
        rng = np.random.default_rng(1)
        b = BaselineEstimator(decay=0.9)
        for _ in range(500):
            b.update(float(rng.uniform()))
            assert 0.0 <= b.value <= 1.0


class TestSchedules:
    def test_fixed_decay_halves_on_period(self):
        st = ScheduleState(kind="fixed", n=10)
        lr = 0.0004
        for epoch in range(1, 31):
            schedule_update(st, epoch)
        assert lr * st.scale == pytest.approx(0.0004 / 8)

    def test_fixed_decay_epoch_10_exact(self):
        st = ScheduleState(kind="fixed", n=10)
        for epoch in range(1, 10):
            schedule_update(st, epoch)
            assert st.scale == 1.0
        schedule_update(st, 10)
        assert 0.0004 * st.scale == pytest.approx(0.0002)

    def test_dynamic_no_reduction_while_improving(self):
        st = ScheduleState(kind="dynamic", n=5)
        for epoch, metric in enumerate([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], start=1):
            schedule_update(st, epoch, metric)
        assert st.scale == 1.0

    def test_dynamic_five_flat_epochs_halve_once(self):
        st = ScheduleState(kind="dynamic", n=5)
        schedule_update(st, 1, 0.5)
        for epoch in range(2, 7):
            schedule_update(st, epoch, 0.5)  # five non-improving epochs
        assert st.scale == 0.5
        schedule_update(st, 7, 0.5)
        assert st.scale == 0.5  # patience was reset by the reduction

    def test_dynamic_counter_resets_on_improvement(self):
        st = ScheduleState(kind="dynamic", n=3)
        for epoch, metric in enumerate([0.5, 0.5, 0.5, 0.6, 0.6, 0.6], start=1):
            schedule_update(st, epoch, metric)
        # stale ran 2, reset by the improvement at epoch 4, then 2 more
        assert st.scale == 1.0

    def test_dynamic_requires_metric(self):
        st = ScheduleState(kind="dynamic", n=5)
        with pytest.raises(ValueError):
            schedule_update(st, 1, None)


class TestTrainConfig:
    def test_validation(self):
        TrainConfig().validate()
        with pytest.raises(ValueError):
            TrainConfig(r_tf=1.5).validate()
        with pytest.raises(ValueError):
            TrainConfig(path_agg="median").validate()
        with pytest.raises(ValueError):
            TrainConfig(reward_set="everything").validate()
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(schedule=ScheduleConfig(kind="exotic")).validate()

    @pytest.mark.parametrize("raw, message", [
        ({"n": 0}, "schedule n must be at least 1"),
        ({"kind": "nope"}, "unknown schedule kind 'nope'"),
    ])
    def test_schedule_is_checked_where_it_is_read(self, raw, message):
        with pytest.raises(ValueError, match=message):
            ScheduleConfig.from_dict(raw)
        base = {"batch_size": 32, "max_len": 8, "r_tf": 1.0, "alpha": 1.0, "beta": 1.0,
                "path_agg": "mean", "n_p": 4, "reward_set": "certain", "lr_e": 0.01,
                "lr": 0.01, "epochs": 1, "seed": 0}
        with pytest.raises(ValueError, match=message):
            TrainConfig.from_dict({**base, "schedule": raw})


class TestDeterministicLoss:
    def test_chain_loss_is_zero(self):
        g = chain_graph()
        m = make_model(g, seed=1)
        book = PathBook(g)
        rng = np.random.default_rng(0)
        cfg = TrainConfig(max_len=6)
        batch = build_batch([LabeledSample(np.zeros(4), g.id_of("x"))], cfg, book, rng)
        loss = deterministic_loss(m, batch, cfg, rng)
        assert abs(loss.item()) < 1e-12

    def test_two_way_block_uniform_init_gives_ln2(self):
        # one free binary choice per path; output head zeroed => uniform blocks
        g = bandit_graph()
        m = make_model(g, seed=2)
        m.params["out.w"].data = np.zeros_like(m.params["out.w"].data)
        m.params["out.b"].data = np.zeros_like(m.params["out.b"].data)
        book = PathBook(g)
        cfg = TrainConfig(max_len=6)
        rng = np.random.default_rng(0)
        batch = build_batch([LabeledSample(np.zeros(4), g.id_of("win"))], cfg, book, rng)
        loss = deterministic_loss(m, batch, cfg, rng)
        assert loss.item() == pytest.approx(np.log(2), abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        from test_numerics import finite_difference, max_rel_err
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
                t.data = p[k]
            return deterministic_loss(m2, batch, cfg, np.random.default_rng(2)).item()

        loss = deterministic_loss(m, batch, cfg, np.random.default_rng(2))
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
        batch = Batch(inputs=np.stack([x]), target_paths=[[path]], pg_indexes=(),
                      labels=(path[-1],))
        loss = deterministic_loss(m, batch, TrainConfig(max_len=8, r_tf=1.0),
                                  np.random.default_rng(0))
        assert -loss.item() == m.path_log_prob(x, path).item()

    def test_padding_steps_do_not_contribute(self):
        # mixing a short and a long path: the short lane stops at its EOP
        g = figure2_subgraph()
        m = make_model(g, seed=4, input_dim=4)
        cfg = TrainConfig(max_len=8)
        x = np.zeros(4)
        short = Batch(inputs=np.stack([x]), target_paths=[[(0, g.id_of("cat"))]],
                      pg_indexes=(), labels=(g.id_of("cat"),))
        longer = Batch(
            inputs=np.stack([x, x]),
            target_paths=[[(0, g.id_of("cat"))],
                          [(0, g.id_of("cat"), g.id_of("shorthair"), g.id_of("bengal"))]],
            pg_indexes=(), labels=(g.id_of("cat"), g.id_of("bengal")))
        rng = np.random.default_rng(0)
        a = deterministic_loss(m, short, cfg, np.random.default_rng(0)).item()
        both = deterministic_loss(m, longer, cfg, np.random.default_rng(0)).item()
        rng = np.random.default_rng(0)
        only_long = Batch(inputs=np.stack([x]),
                          target_paths=[[(0, g.id_of("cat"), g.id_of("shorthair"),
                                          g.id_of("bengal"))]],
                          pg_indexes=(), labels=(g.id_of("bengal"),))
        b = deterministic_loss(m, only_long, cfg, np.random.default_rng(0)).item()
        assert both == pytest.approx((a + b) / 2, abs=1e-12)

    def test_teacher_forcing_rate_changes_input_streams(self):
        g = figure2_subgraph()
        m = make_model(g, seed=5, input_dim=4)
        # skew the output head so the model argmax disagrees with groundtruth
        m.params["out.b"].data[g.id_of("longhair")] = 5.0
        cfg_tf = TrainConfig(max_len=6, r_tf=1.0)
        cfg_fr = TrainConfig(max_len=6, r_tf=0.0)
        batch = Batch(
            inputs=np.zeros((1, 4)),
            target_paths=[[(0, g.id_of("cat"), g.id_of("shorthair"),
                            g.id_of("british-shorthair"))]],
            pg_indexes=(), labels=(g.id_of("british-shorthair"),))
        fed, _ = record_decode_steps(m)
        deterministic_loss(m, batch, cfg_tf, np.random.default_rng(0))
        trace_tf = [step[0] for step in fed]
        fed.clear()
        deterministic_loss(m, batch, cfg_fr, np.random.default_rng(0))
        trace_fr = [step[0] for step in fed]
        # four steps, none after the lane's end; EOP is not offered at root or cat
        assert len(trace_tf) == len(trace_fr) == 4
        assert trace_tf != trace_fr
        assert trace_tf[:2] == trace_fr[:2]  # START and root agree

    def test_free_running_feeds_the_greedy_token_of_each_step(self):
        # every fed token after START is greedy_choice over model.distribution
        # of the logits that lane saw one step earlier, up to the lane's last
        # target; after an EOP pick the lane stays frozen on its token. In the
        # second graph cat is a label with grouped children, where greedy
        # decoding picks EOP, so its lane freezes one step before its end.
        from pathcast.model import greedy_choice
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
                fed, logits = record_decode_steps(m)
                rows = np.random.default_rng(seed).normal(size=(len(labels), 4))
                batch = Batch(inputs=rows,
                              target_paths=[list(book.split(lb)[0]) + list(book.split(lb)[1])
                                            for lb in labels],
                              pg_indexes=(), labels=tuple(labels))
                lanes = [p[:6] for paths in batch.target_paths for p in paths]
                loss = deterministic_loss(m, batch, TrainConfig(max_len=6, r_tf=0.0),
                                          np.random.default_rng(0))
                assert loss is not None and len(fed) == max(map(len, lanes))
                for li, targets in enumerate(lanes):
                    assert fed[0][li] == m.start_token
                    for t in range(1, len(targets)):
                        dist = m.distribution(logits[t - 1][li], fed[t - 1][li])
                        pick = greedy_choice(dist)[0]
                        if pick == m.eop_token:
                            eop_picks += 1
                            assert all(step[li] == fed[t - 1][li] for step in fed[t:])
                            break
                        assert fed[t][li] == pick
        assert eop_picks == 4  # the coarse lane, once per seed

    @pytest.mark.parametrize("r_tf", [1.0, 0.0])
    def test_lanes_carry_no_closing_eop(self, r_tf):
        # one decode step per target node: the longest lane has 4 nodes, so
        # the loss runs 4 GRU steps and never a fifth for EOP; the 2-node
        # lane alone runs 2
        g = figure2_subgraph()
        m = make_model(g, seed=2, input_dim=4)
        cat = g.id_of("cat")
        longest = (0, cat, g.id_of("shorthair"), g.id_of("british-shorthair"))
        batch = Batch(inputs=np.zeros((2, 4)), target_paths=[[longest], [(0, cat)]],
                      pg_indexes=(), labels=(longest[-1], cat))
        short = Batch(inputs=np.zeros((1, 4)), target_paths=[[(0, cat)]],
                      pg_indexes=(), labels=(cat,))
        fed, _ = record_decode_steps(m)
        cfg = TrainConfig(max_len=8, r_tf=r_tf)
        assert deterministic_loss(m, batch, cfg, np.random.default_rng(0)) is not None
        assert len(fed) == 4
        fed.clear()
        assert deterministic_loss(m, short, cfg, np.random.default_rng(0)) is not None
        assert len(fed) == 2

    def test_returns_none_without_lanes(self):
        g = chain_graph()
        m = make_model(g)
        cfg = TrainConfig()
        batch = Batch(inputs=np.zeros((1, 4)), target_paths=[[]], pg_indexes=(0,),
                      labels=(g.id_of("x"),))
        assert deterministic_loss(m, batch, cfg, np.random.default_rng(0)) is None

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
            assert deterministic_loss(m, batch, cfg, np.random.default_rng(0)) is not None
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
        baseline = BaselineEstimator(decay=0.9, value=1.0)  # happens to match r
        batch = Batch(inputs=np.zeros((1, 4)), target_paths=[[]], pg_indexes=(0,),
                      labels=(g.id_of("win"),))
        # force the sampler down the rewarded arm by biasing the logits
        m.params["out.b"].data[g.id_of("a")] = 50.0
        loss, rewards = policy_gradient_loss(m, batch, baseline, cfg,
                                             np.random.default_rng(0), book)
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
        batch = Batch(inputs=np.zeros((1, 4)), target_paths=[[]], pg_indexes=(0,),
                      labels=(g.id_of("x"),))
        loss, rewards = policy_gradient_loss(m, batch, baseline, cfg,
                                             np.random.default_rng(0), book)
        assert abs(loss.item()) < 1e-12  # all probabilities along the chain are 1

    def test_baseline_updated_after_use(self):
        g = chain_graph()
        m = make_model(g, seed=8)
        book = PathBook(g)
        cfg = TrainConfig()
        baseline = BaselineEstimator(decay=0.9)
        batch = Batch(inputs=np.zeros((1, 4)), target_paths=[[]], pg_indexes=(0,),
                      labels=(g.id_of("x"),))
        policy_gradient_loss(m, batch, baseline, cfg, np.random.default_rng(0), book)
        assert baseline.value == pytest.approx(0.1)  # 0.9*0 + 0.1*1.0

    def test_gradient_matches_finite_differences(self):
        from test_numerics import finite_difference, max_rel_err
        g = bandit_graph()
        m = make_model(g, seed=9)
        x = np.random.default_rng(3).normal(size=4)
        sampled = m.sample_path(x, np.random.default_rng(1), max_len=6)
        weight = -(1.0 - 0.4)  # frozen (r - b)
        raw = {k: v.data.copy() for k, v in m.params.items()}

        def rebuild(p):
            m2 = make_model(g, seed=9)
            for k, t in m2.params.items():
                t.data = p[k]
            return nm.scale(m2.sampled_path_log_prob(x, sampled), weight).item()

        loss = nm.scale(m.sampled_path_log_prob(x, sampled), weight)
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
        batch = Batch(inputs=np.zeros((1, 4)), target_paths=[[]], pg_indexes=(0,),
                      labels=(g.id_of("win"),))
        rng = np.random.default_rng(42)
        samples_a = []
        samples_b = []
        trials = 4000
        for _ in range(trials):
            baseline = BaselineEstimator(decay=0.9, value=0.5)  # fixed across trials
            loss, rewards = policy_gradient_loss(m, batch, baseline, cfg, rng, book)
            assert rewards == [1.0]
            zero_grads(m.params)
            backward(loss)
            samples_a.append(float(m.params["out.b"].grad[g.id_of("a")]))
            samples_b.append(float(m.params["out.b"].grad[g.id_of("b")]))
        for vals in (samples_a, samples_b):
            arr = np.asarray(vals)
            se = arr.std(ddof=1) / np.sqrt(trials)
            assert abs(arr.mean()) <= 3 * se

    def test_matches_per_sample_composition(self):
        def per_sample_loss(m, batch, baseline, cfg, rng, book):
            # one encode, one rescoring and one scale per sample, then pooled
            b = baseline.value
            terms, rewards = [], []
            for i in batch.pg_indexes:
                sampled = m.sample_path(batch.inputs[i], rng, cfg.max_len)
                r = reward(sampled, book.reward_members(batch.labels[i], cfg.reward_set))
                rewards.append(r)
                logp = m.sampled_path_log_prob(batch.inputs[i], sampled)
                terms.append(nm.scale(logp, -(r - b)))
            baseline.update(float(np.mean(rewards)))
            return nm.scale(nm.add_n(terms), 1.0 / len(batch.pg_indexes)), rewards

        g = bandit_graph()
        labels = (g.id_of("win"), g.id_of("lose"))
        cfg = TrainConfig(max_len=6)
        inputs = np.random.default_rng(16).normal(size=(8, 4))
        batch = Batch(inputs=inputs, target_paths=[[]] * 8, pg_indexes=(1, 2, 4, 5, 6, 7),
                      labels=tuple(labels[i % 2] for i in range(8)))
        results = []
        for loss_fn in (policy_gradient_loss, per_sample_loss):
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

    def test_empty_pg_set(self):
        g = chain_graph()
        m = make_model(g)
        book = PathBook(g)
        loss, rewards = policy_gradient_loss(
            m, Batch(inputs=np.zeros((1, 4)), target_paths=[[(0, g.id_of("a"), g.id_of("x"))]],
                     pg_indexes=(), labels=(g.id_of("x"),)),
            BaselineEstimator(), TrainConfig(), np.random.default_rng(0), book)
        assert loss is None and rewards == []


class TestBandit:
    def test_policy_gradient_converges_on_rewarded_member(self):
        # reward 1 for the arm reaching the labelled node, 0 otherwise
        wins = 0
        for seed in range(10):
            g = bandit_graph()
            m = make_model(g, seed=seed)
            book = PathBook(g)
            cfg = TrainConfig(reward_set="label_only", max_len=6)
            baseline = BaselineEstimator(decay=0.9)
            adam = AdamState(lr=0.05)
            x = np.zeros(4)
            batch = Batch(inputs=np.stack([x]), target_paths=[[]], pg_indexes=(0,),
                          labels=(g.id_of("win"),))
            rng = np.random.default_rng(1000 + seed)
            for _ in range(500):
                loss, _ = policy_gradient_loss(m, batch, baseline, cfg, rng, book)
                if loss is None:
                    continue
                zero_grads(m.params)
                backward(loss)
                adam_step(adam, m.params, collect_grads(m.params))
            f = m.encode(x)
            dist, _ = m.step(f, g.root)
            p_win = dist.probs[dist.tokens.index(g.id_of("a"))]
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
        a_enc, a_rest = AdamState(lr=cfg.lr_e), AdamState(lr=cfg.lr)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=11, spawn_key=(1, 0)))
        batch = build_batch(samples, cfg, book, rng)
        loss = deterministic_loss(m2, batch, cfg, rng)
        zero_grads(m2.params)
        backward(loss)
        grads = collect_grads(m2.params)
        adam_step(a_enc, enc, grads)
        adam_step(a_rest, rest, grads)
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name].data, m2.params[name].data)


class TestTrainEpochDeterminism:
    def test_identical_seeds_bitwise_identical_parameters(self):
        g = figure2_subgraph()
        rng = np.random.default_rng(0)
        samples = [LabeledSample(rng.normal(size=4),
                                 g.id_of(["british-shorthair", "bengal"][i % 2]))
                   for i in range(12)]

        def run():
            m = make_model(g, seed=21, input_dim=4)
            cfg = TrainConfig(batch_size=4, max_len=6, seed=21)
            state = TrainState.init(m, cfg)
            train_epoch(m, samples, cfg, state)
            return {k: v.data.tobytes() for k, v in m.params.items()}

        assert run() == run()


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
