"""One repeat of a pathcast benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload tf-fused --seed 1 --trace 0

Runs the workload's phases (setup, train, checkpoint, eval, taxonomy) through
pathcast's public functions, checks the outputs, and prints one JSON object.
``run.py`` starts one of these per repeat and aggregates them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import tempfile
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (after the path set-up above)

SETUPS = 3          # set-ups per repeat; setup_s is their median
MAX_LEN = 6
EMBED, HIDDEN = 16, 32
# Lowest test accuracy after one epoch that still counts as learning.
ACCURACY_FLOOR = {"tf-fused": 0.90, "pg-mixed": 0.70}
# Taxonomy flavour and depth per workload: explicit singleton groups make
# every path deterministic (the quadratic split); implicit sibling groups
# make every path nondeterministic.
TAXONOMY = {"tf-fused": ("singleton", 10), "pg-mixed": ("implicit", 14)}


# Phase times are scaled to the speed at which reference_s() takes this long.
# On a shared 2-core VM, the machine's speed drifted by a third within
# minutes. The reference loop is timed around every phase, and the scaling
# cancels that drift.
REF_NOMINAL_S = 0.035
_REF_X = np.random.default_rng(0).normal(size=(8, 32))
_REF_W = np.random.default_rng(1).normal(size=(32, 32))


def reference_s() -> float:
    """Seconds for a fixed loop of small numpy ops and Python object work.

    pathcast spends its time on operations of the same kinds. The loop shares
    no code with pathcast, so only the machine's speed moves this number.
    """
    t0 = perf_counter()
    for i in range(3000):
        z = np.tanh(_REF_X @ _REF_W)
        np.all(np.isfinite(z))
        sorted({(i, j) for j in range(8)})
    return perf_counter() - t0


class Clock:
    """Time per phase, as raw wall seconds and scaled to the reference speed.

    The clock also tells the tracer which phase is running.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.wall: dict[str, float] = defaultdict(float)
        self.scaled: dict[str, float] = defaultdict(float)

    @contextmanager
    def phase(self, name: str):
        took = [0.0]  # seconds at the reference speed, set on exit
        before = reference_s()
        if self.tracer:
            self.tracer.phase = name
        t0 = perf_counter()
        try:
            yield took
        finally:
            raw = perf_counter() - t0
            if self.tracer:
                self.tracer.phase = "none"
            took[0] = raw * REF_NOMINAL_S * 2 / (before + reference_s())
            self.wall[name] += raw
            self.scaled[name] += took[0]


def synth_spec(workload: str, seed: int):
    from pathcast.harness import SynthSpec

    profiles = SynthSpec().label_profiles
    if workload == "pg-mixed":
        # the sixth label samples every attribute: its labels train by REINFORCE
        profiles = profiles[:5] + ((None, None, None),)
    return SynthSpec(seed=seed, label_profiles=profiles)


def layered_dag(flavour: str, depth: int, seed: int):
    """Width-2 layered DAG with one label under both nodes of every layer.

    Both nodes of layer k are children of both nodes of layer k-1, so the
    label at depth k has 2**k root paths. The seed only permutes names, and
    so node ids; the closed forms checked in ``taxonomy_checks`` hold for
    every seed.
    """
    from pathcast import labelgraph

    rng = random.Random(seed)
    ids = iter(rng.sample(range(10 ** 6), 3 * depth))
    layers, augmented, prev = [], [], ["root"]
    for k in range(1, depth + 1):
        pair = [f"n{next(ids):06d}-{k}", f"n{next(ids):06d}-{k}"]
        augmented += [(n, prev) for n in pair]
        layers.append(pair)
        prev = pair
    labels = [f"t{next(ids):06d}-{k}" for k in range(1, depth + 1)]
    edges = [(n, label) for pair, label in zip(layers, labels) for n in pair]
    groups = ([(f"only-{n}", [n]) for pair in layers for n in pair]
              if flavour == "singleton" else [])
    graph = labelgraph.build_graph([("taxonomy", labels)], augmented, edges, groups)
    return (graph, [frozenset(graph.id_of(n) for n in pair) for pair in layers],
            [graph.id_of(label) for label in labels])


def taxonomy_checks(flavour, graph, layers, labels, results):
    """Closed forms per label at depth k: 2**k paths, all deterministic under
    singleton groups and all nondeterministic under implicit ones; certain set
    {root, label}; one nondeterministic group per layer above the label."""
    bad = defaultdict(list)
    for k, (label, (n_det, n_nd, certain, groups)) in enumerate(zip(labels, results), 1):
        want = (2 ** k, 0) if flavour == "singleton" else (0, 2 ** k)
        if (n_det, n_nd) != want:
            bad["split"].append(k)
        if set(certain) != {graph.root, label}:
            bad["certain"].append(k)
        want_groups = [] if flavour == "singleton" else sorted(map(sorted, layers[:k]))
        if sorted(map(sorted, groups.values())) != want_groups:
            bad["groups"].append(k)
    return [(f"taxonomy-{what}", not bad[what], f"wrong at depths {bad[what]}")
            for what in ("split", "certain", "groups")]


def run(workload: str, seed: int, tracer) -> dict:
    from pathcast import evaldecode, harness, trainer
    from pathcast import model as model_mod

    clock = Clock(tracer)
    checks: list[tuple[str, bool, str]] = []
    ops = 0
    spec = synth_spec(workload, seed)
    flavour, depth = TAXONOMY[workload]

    setup_s = []
    for _ in range(SETUPS):
        with clock.phase("setup") as t:
            graph, fine, coarse, test = harness.synth_generate(spec)
            train_ds = (harness.fuse(fine, coarse, graph).dataset
                        if workload == "tf-fused" else fine)
            train_set = harness.resolve_samples(train_ds, graph)
            test_set = harness.resolve_samples(test, graph)
            dag, layers, labels = layered_dag(flavour, depth, seed)
        setup_s.append(t[0])
        ops += 1

    with clock.phase("train") as t:
        net = model_mod.LabelPathModel(graph, input_dim=spec.input_dim, embed_dim=EMBED,
                                       hidden=HIDDEN, seed=seed)
        cfg = trainer.TrainConfig(batch_size=32, max_len=MAX_LEN, epochs=1, lr=0.01,
                                  lr_e=0.01, seed=seed,
                                  schedule=trainer.ScheduleConfig("fixed", 10))
        records = trainer.train(net, train_set, cfg)
    train_s = t[0]
    ops += 1

    if workload == "tf-fused":
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            path = os.path.join(tmp, "run.pck")
            with clock.phase("checkpoint"):
                model_mod.save_model(path, net)
                loaded = model_mod.load_model(path, graph)
        ops += 2
        same = (sorted(loaded.params) == sorted(net.params)
                and all(loaded.params[k].data.tobytes() == v.data.tobytes()
                        for k, v in net.params.items()))
        checks.append(("checkpoint-bytes", same, f"{len(net.params)} parameters"))
        net = loaded

    triples = [(s.x, s.label, raw.attrs) for s, raw in zip(test_set, test.samples)]
    # Timed as two calls, so that each gets its own reference timing.
    with clock.phase("eval") as t:
        report = evaldecode.evaluate(net, test_set, MAX_LEN)
    eval_s = t[0]
    with clock.phase("eval") as t:
        try:
            audit = evaldecode.audit_nondeterministic(net, triples, MAX_LEN)
        except evaldecode.NoAuditableSamples:
            audit = None
    eval_s += t[0]
    ops += 2
    floor = ACCURACY_FLOOR[workload]
    checks.append(("accuracy-floor", report.accuracy >= floor,
                   f"{report.accuracy:.4f} >= {floor}"))
    if workload == "pg-mixed":
        # Its REINFORCE-only labels have no deterministic path, so greedy
        # decodes must route through their groups. Under teacher forcing
        # alone (tf-fused) a model may avoid every audited group.
        checks.append(("audit-has-samples", audit is not None, f"audit {audit}"))

    results = []
    with clock.phase("taxonomy") as t:
        for label in labels:
            book = trainer.PathBook(dag)
            det, nd = book.split(label)
            certain = book.reward_members(label, "certain")
            groups = evaldecode.nondeterministic_groups(dag, label)
            results.append((len(det), len(nd), certain, groups))
    taxonomy_s = t[0]
    ops += 3 * len(labels)
    checks += taxonomy_checks(flavour, dag, layers, labels, results)

    if tracer:
        checks += spans.check_expectations(tracer, workload)
    last = records[-1]
    return {
        "metrics": {
            "setup_s": statistics.median(setup_s),
            "train_samples_per_s": len(train_set) * cfg.epochs / train_s,
            "eval_samples_per_s": len(test_set) / eval_s,
            "labels_per_s": len(labels) / taxonomy_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "quality": {"test_accuracy": report.accuracy, "audit_accuracy": audit,
                    "macro_f1": report.macro_f1, "final_loss_d": last["loss_d"],
                    "pg_mean_reward": last["mean_reward"]},
        "records": records,
        "phase_wall": dict(clock.wall),
        "phase_scaled": dict(clock.scaled),
        "checks": checks,
        "ops": ops,
        "numpy": np.__version__,
        "trace": spans.summarize(tracer, clock.wall, report.accuracy, audit,
                                 last["loss_d"]) if tracer else None,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(TAXONOMY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # Wrap before the workload looks up any pathcast name.
    tracer = spans.install() if args.trace else None
    out = run(args.workload, args.seed, tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
