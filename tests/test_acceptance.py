"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from pathcast import numerics as nm
from pathcast.evaldecode import audit_nondeterministic, evaluate
from pathcast.harness import SynthSpec, fuse, resolve_samples, synth_generate
from pathcast.labelgraph import build_graph
from pathcast.model import LabelPathModel
from pathcast.numerics import AdamState, adam_step, backward, block_softmax, compile_blocks
from pathcast.pathalg import _split_paths, all_paths_to
from pathcast.trainer import (BaselineEstimator, LabeledSample, PathBook,
                              ScheduleConfig, ScheduleState, TrainConfig,
                              build_batch, deterministic_loss,
                              policy_gradient_loss, schedule_update, train)

from reference import (batch_of, collect_grads, figure2_subgraph, label_ids, oracle_all_paths,
                       oracle_classify, pooled, random_dag, random_partition, rescored, rows,
                       scale, sum_all, three_level_graph)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def trained_default():
    """One default-spec training run shared by the end-to-end criteria."""
    spec = SynthSpec()  # sigma = 0.1, 2000/2000/2000, K = 12
    graph, fine, coarse, test = synth_generate(spec)
    model = LabelPathModel(graph, input_dim=spec.input_dim, embed_dim=16,
                           hidden=32, seed=0)
    cfg = TrainConfig(batch_size=32, max_len=6, epochs=15, lr=0.01, lr_e=0.01,
                      seed=0, schedule=ScheduleConfig("fixed", 10))
    t0 = time.time()
    train(model, resolve_samples(fine, graph), cfg)
    return spec, graph, model, test, time.time() - t0


def test_block_softmax_sums_and_independence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_sum = 0.0
    worst_cross = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 12))
        blocks = random_partition(rng, k)
        z = rng.normal(0, 4, k)
        y = block_softmax(z[None, :], compile_blocks(blocks, range(k)))[0]
        for b in blocks:
            worst_sum = max(worst_sum, abs(y[list(b)].sum() - 1.0))
        target = blocks[int(rng.integers(len(blocks)))]
        z2 = z.copy()
        out = [i for i in range(k) if i not in target]
        if out:
            z2[out] += rng.normal(0, 6, len(out))
        y2 = block_softmax(z2[None, :], compile_blocks(blocks, range(k)))[0]
        worst_cross = max(worst_cross, np.abs(y2[list(target)] - y[list(target)]).max())
    elapsed = time.time() - t0
    report("block softmax", worst_sum < 1e-12 and worst_cross < 1e-12 and elapsed < 5,
           f"sum err {worst_sum:.2e}, cross err {worst_cross:.2e}, {elapsed:.2f}s")


def test_gradient_fidelity_20_seeds():
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g = three_level_graph(rng)
        labels = list(label_ids(g))
        model = LabelPathModel(g, input_dim=6, embed_dim=8, hidden=16, seed=seed)
        book = PathBook(g)
        cfg = TrainConfig(max_len=6, path_agg="mean", n_p=4, seed=seed)
        xs = rng.normal(size=(2, 6))
        det_labels = [l for l in labels if book.split(l)[0]] or labels
        samples = [LabeledSample(xs[i], det_labels[int(rng.integers(len(det_labels)))])
                   for i in range(2)]
        batch = build_batch(samples, cfg, book, np.random.default_rng(seed))
        raw = {k: v.data.copy() for k, v in model.params.items()}

        def rebuild_model(p):
            m2 = LabelPathModel(g, input_dim=6, embed_dim=8, hidden=16, seed=seed)
            for k, t in m2.params.items():
                t.data[...] = p[k]
            return m2

        # deterministic branch (teacher-forced likelihood)
        loss = pooled(model, batch.inputs, deterministic_loss(batch, cfg, np.random.default_rng(1)))
        if loss is not None:
            def ld(p):
                return pooled(rebuild_model(p), batch.inputs,
                              deterministic_loss(batch, cfg, np.random.default_rng(1))).item()

            nm.zero_grads(model.params)
            backward(loss)
            grads = collect_grads(model.params)
            worst = max(worst, _sampled_fd_err(ld, raw, grads, rng, coords=6))

        # policy-gradient surrogate on a frozen sampled trajectory
        sampled = model.sample_path(xs[:1], np.random.default_rng(seed + 1), 6)
        if not rows(sampled)[0].tokens:
            continue
        weight = -(1.0 - 0.4)  # (r - b) is a constant to the differentiator

        def lpg(p):
            return scale(sum_all(rescored(rebuild_model(p), xs[:1], sampled)), weight).item()

        loss_pg = scale(sum_all(rescored(model, xs[:1], sampled)), weight)
        nm.zero_grads(model.params)
        backward(loss_pg)
        grads_pg = collect_grads(model.params)
        worst = max(worst, _sampled_fd_err(lpg, raw, grads_pg, rng, coords=6))
    elapsed = time.time() - t0
    report("gradient fidelity", worst < 1e-4 and elapsed < 60,
           f"worst rel err {worst:.2e} over 20 seeds, {elapsed:.1f}s")


def _sampled_fd_err(fn, params, grads, rng, coords=6, h=1e-5):
    """Central-difference check on a random coordinate subset per tensor."""
    worst = 0.0
    for name, arr in params.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in rng.choice(flat.size, size=min(coords, flat.size), replace=False):
            old = flat[idx]
            flat[idx] = old + h
            up = fn(params)
            flat[idx] = old - h
            down = fn(params)
            flat[idx] = old
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - gflat[idx]) / max(1.0, abs(fd)))
    return worst


def test_path_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        g = random_dag(rng, max_nodes=12)
        for label in label_ids(g):
            assert list(all_paths_to(g, label)) == oracle_all_paths(g, label)
            det, nd = _split_paths(g, label)
            assert (sorted(det), sorted(nd)) == oracle_classify(g, label)
            checked += 1
    g = figure2_subgraph()
    det, nd = _split_paths(g, g.id_of("british-shorthair"))
    elapsed = time.time() - t0
    ok = (len(det), len(nd)) == (1, 3) and elapsed < 30
    report("path oracle equivalence", ok,
           f"{checked} labels on 200 random DAGs; figure-2 split "
           f"{len(det)}+{len(nd)}, {elapsed:.1f}s")


def test_bandit_convergence():
    t0 = time.time()
    wins = 0
    for seed in range(10):
        g = build_graph(label_sets=[("d", ["win", "lose"])],
                        augmented_spec=[("a", ["root"]), ("b", ["root"])],
                        edge_spec=[("a", "win"), ("b", "lose")])
        model = LabelPathModel(g, input_dim=4, embed_dim=5, hidden=8, seed=seed)
        book = PathBook(g)
        cfg = TrainConfig(reward_set="label_only", max_len=6)
        baseline = BaselineEstimator()
        adam = AdamState(model.params, dict.fromkeys(model.params, 0.05))
        batch = batch_of(np.zeros((1, 4)), [[]], labels=(g.id_of("win"),))
        rng = np.random.default_rng(500 + seed)
        for _ in range(500):
            lanes, _ = policy_gradient_loss(model, batch, baseline, cfg, rng, book)
            if lanes is None:
                continue
            nm.zero_grads(model.params)
            backward(pooled(model, batch.inputs, lanes))
            adam_step(adam, model.params)
        probs, _, _ = model.step(model.encode(np.zeros(4)).data, [g.root])
        p_win = float(probs[0, g.id_of("a")])
        wins += p_win >= 0.95
    elapsed = time.time() - t0
    report("bandit convergence", wins >= 9 and elapsed < 60,
           f"{wins}/10 seeds reached p >= 0.95 within 500 steps, {elapsed:.1f}s")


def test_end_to_end_learning(trained_default):
    spec, graph, model, test, train_time = trained_default
    t0 = time.time()
    rep = evaluate(model, resolve_samples(test, graph), 6)
    elapsed = train_time + (time.time() - t0)
    report("end-to-end learning", rep.accuracy >= 0.95 and elapsed < 300,
           f"accuracy {rep.accuracy:.4f} within 15 epochs, {elapsed:.0f}s")


def test_path_correctness_audit(trained_default):
    spec, graph, model, test, train_time = trained_default
    t0 = time.time()
    triples = [(s.x, graph.id_of(s.label), s.attrs) for s in test.samples]
    frac = audit_nondeterministic(model, triples, 6)
    elapsed = train_time + (time.time() - t0)
    report("path-correctness audit", frac >= 0.85 and elapsed < 300,
           f"nondeterministic attribute choices correct {frac:.4f}, {elapsed:.0f}s")


def test_fusion_direction():
    t0 = time.time()

    def run(seed, fused):
        spec = SynthSpec(n_train_fine=500, n_train_coarse=2000, n_test=600,
                         seed=seed, branch_scale=0.25)
        graph, fine, coarse, test = synth_generate(spec)
        train_ds = fuse(fine, coarse, graph).dataset if fused else fine
        model = LabelPathModel(graph, input_dim=spec.input_dim, embed_dim=16,
                               hidden=32, seed=seed)
        cfg = TrainConfig(batch_size=32, max_len=6, epochs=12, lr=0.01,
                          lr_e=0.01, seed=seed, schedule=ScheduleConfig("fixed", 10))
        train(model, resolve_samples(train_ds, graph), cfg)
        return evaluate(model, resolve_samples(test, graph), 6).accuracy

    deltas = [run(seed, True) - run(seed, False) for seed in range(5)]
    elapsed = time.time() - t0
    mean = float(np.mean(deltas))
    report("fusion direction", mean > 0 and elapsed < 900,
           f"mean fused-minus-fine delta {mean:+.4f} over 5 seeds "
           f"({', '.join(f'{d:+.3f}' for d in deltas)}), {elapsed:.0f}s")


@pytest.mark.parametrize("r_tf, profiles, audited", [
    (1.0, None, False),
    # the sixth label samples every attribute, so REINFORCE trains it, and
    # about half the batches feed their lanes greedy walks
    (0.5, SynthSpec().label_profiles[:5] + ((None, None, None),), True),
], ids=["teacher-forced", "free-running-and-pg"])
def test_determinism_of_cli_runs(tmp_path, r_tf, profiles, audited):
    spec_path = tmp_path / "spec.json"
    spec = {"n_train_fine": 120, "n_train_coarse": 40, "n_test": 60, "seed": 5}
    if profiles is not None:
        spec["label_profiles"] = profiles
    spec_path.write_text(json.dumps(spec))
    subprocess.run([sys.executable, "-m", "pathcast", "synth", "--spec",
                    str(spec_path), "--out-dir", str(tmp_path)],
                   check=True, capture_output=True)
    cfg = {"graph": str(tmp_path / "graph.json"), "train": str(tmp_path / "fine.jsonl"),
           "dev": str(tmp_path / "test.jsonl"), "batch_size": 32, "max_len": 6,
           "r_tf": r_tf, "alpha": 1.0, "beta": 1.0, "path_agg": "mean", "n_p": 4,
           "reward_set": "certain", "lr_e": 0.01, "lr": 0.01,
           "schedule": {"kind": "fixed", "n": 10}, "epochs": 2, "seed": 5,
           "embed_dim": 8, "hidden": 16}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    outs = []
    evals = []
    dumps = []
    for name in ("a", "b"):
        ck = tmp_path / f"{name}.pck"
        dump = tmp_path / f"{name}.paths.jsonl"
        audit_args = ("--audit", "--dump-paths", str(dump)) if audited else ()
        subprocess.run([sys.executable, "-m", "pathcast", "train", "--config",
                        str(cfg_path), "--out", str(ck)], check=True,
                       capture_output=True)
        outs.append(open(str(ck) + ".metrics.jsonl", "rb").read())
        proc = subprocess.run([sys.executable, "-m", "pathcast", "eval", "--ckpt",
                               str(ck), "--data", str(tmp_path / "test.jsonl"),
                               "--max-len", "6", *audit_args],
                              check=True, capture_output=True)
        evals.append(proc.stdout)
        dumps.append(dump.read_bytes() if audited else b"")
    ok = outs[0] == outs[1] and evals[0] == evals[1] and dumps[0] == dumps[1]
    report("determinism", ok,
           f"train metrics identical: {outs[0] == outs[1]}, "
           f"eval reports identical: {evals[0] == evals[1]}, "
           f"path dumps identical: {dumps[0] == dumps[1]}")


def test_schedules_on_scripted_traces():
    fixed = ScheduleState(ScheduleConfig("fixed", 10))
    lr0 = 0.0004
    halvings = []
    for epoch in range(1, 31):
        before = fixed.scale
        schedule_update(fixed, epoch)
        if fixed.scale != before:
            halvings.append(epoch)
    ok_fixed = halvings == [10, 20, 30] and lr0 * fixed.scale == pytest.approx(0.00005)

    dyn = ScheduleState(ScheduleConfig("dynamic", 5))
    trace = [0.50, 0.60, 0.60, 0.60, 0.60, 0.60, 0.60]  # 5 flat epochs after a peak
    reduced_at = []
    for epoch, metric in enumerate(trace, start=1):
        before = dyn.scale
        schedule_update(dyn, epoch, metric)
        if dyn.scale != before:
            reduced_at.append(epoch)
    ok_dyn = reduced_at == [7] and dyn.scale == 0.5
    report("schedules", ok_fixed and ok_dyn,
           f"fixed halvings at {halvings}; dynamic reduced at {reduced_at}")
