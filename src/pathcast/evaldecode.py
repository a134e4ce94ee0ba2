"""Greedy decoding and evaluation: accuracy, macro-F1, and the audit of
nondeterministic attribute choices against per-instance ground truth."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .labelgraph import LabelGraph, NodeKind
from .model import LabelPathModel, Walk, greedy_pick
from .pathalg import _tainted


# Rows decoded in lockstep per walk by evaluate. Decoding every row at once
# is no faster and holds the whole dataset's decode state in memory.
DECODE_ROWS = 256


class EmptyDataset(ValueError):
    pass


class NoAuditableSamples(ValueError):
    pass


@dataclass
class MetricsReport:
    accuracy: float
    macro_f1: float
    path_correctness: float | None = None
    per_class: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "path_correctness": self.path_correctness,
            "per_class": {k: self.per_class[k] for k in sorted(self.per_class)},
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def decode_rows(model: LabelPathModel, x: np.ndarray, max_len: int) -> list[Walk]:
    """Walk the graph from START for every row of ``x [m, d]`` in lockstep,
    taking the most probable candidate each step: the global maximum across
    the candidate blocks, ties going to the lowest token id. A row stops at
    EOP, after ``max_len`` steps, or at a dead end (see :class:`Walk`)."""
    return model.walk(model.encode_values(x), max_len, greedy_pick)


def greedy_decode(model: LabelPathModel, x: np.ndarray, max_len: int) -> Walk:
    """:func:`decode_rows` of one input ``x [d]``."""
    return decode_rows(model, np.reshape(x, (1, -1)), max_len)[0]


def extract_label(graph: LabelGraph, path: Sequence[int]) -> int | None:
    """Last label-kind node on a decoded path, or None when there is none."""
    label = None
    for node in path:
        if graph.node(node).kind is NodeKind.LABEL:
            label = node
    return label


def classification_report(gold_names: Sequence[str],
                          pred_names: Sequence[str | None]) -> MetricsReport:
    """Exact-match accuracy and macro-F1 of predicted class names.

    A None prediction counts as incorrect. Macro-F1 averages per-class F1
    over the classes present in the gold labels; the per-class tp/fp/fn/
    support table also records predictions that fall outside that set so
    micro-F1 stays recomputable.
    """
    if not gold_names:
        raise EmptyDataset("cannot evaluate an empty dataset")
    counts: dict[str, dict[str, int]] = {}

    def cell(name: str) -> dict[str, int]:
        return counts.setdefault(name, {"tp": 0, "fp": 0, "fn": 0, "support": 0})

    correct = 0
    for gold, pred in zip(gold_names, pred_names):
        cell(gold)["support"] += 1
        if pred == gold:
            correct += 1
            cell(gold)["tp"] += 1
        else:
            cell(gold)["fn"] += 1
            if pred is not None:
                cell(pred)["fp"] += 1
    f1s = []
    for v in counts.values():
        if v["support"] > 0:
            denom = 2 * v["tp"] + v["fp"] + v["fn"]
            f1s.append(2 * v["tp"] / denom if denom else 0.0)
    return MetricsReport(accuracy=correct / len(gold_names),
                         macro_f1=float(np.mean(f1s)) if f1s else 0.0,
                         per_class=counts)


def evaluate(model: LabelPathModel, dataset: Sequence, max_len: int,
             decoded: list[Walk] | None = None) -> MetricsReport:
    """:func:`classification_report` of greedily decoded labels over a dataset,
    decoded in lockstep blocks of ``DECODE_ROWS`` rows.

    ``dataset`` yields (x, label_id) pairs. A decode without any label node
    counts as incorrect. ``decoded`` (when given) collects each sample's
    :class:`Walk`, in dataset order.
    """
    graph = model.graph
    pairs = list(dataset)
    gold, pred = [], []
    for i in range(0, len(pairs), DECODE_ROWS):
        block = pairs[i:i + DECODE_ROWS]
        for (_, label), w in zip(block, decode_rows(model, np.stack([x for x, _ in block]),
                                                    max_len)):
            if decoded is not None:
                decoded.append(w)
            gold.append(graph.node(label).name)
            got = extract_label(graph, w.tokens)
            pred.append(graph.node(got).name if got is not None else None)
    return classification_report(gold, pred)


def nondeterministic_groups(graph: LabelGraph, label: int) -> Mapping[str, frozenset[int]]:
    """Groups whose member choice is not fixed by the label, each with its
    members on the label's paths: the groups that taint the label's split
    (``pathalg._tainted``), read-only and kept on the graph, so the audit
    and training agree on what is nondeterministic."""
    return _tainted(graph, label)


def audit_nondeterministic(model: LabelPathModel, dataset: Sequence, max_len: int,
                           decoded: Sequence[Walk] | None = None) -> float:
    """Fraction of decoded nondeterministic attribute choices that match the
    instance's true attribute.

    ``dataset`` yields (x, label_id, attrs) triples where ``attrs`` maps a
    group name to the true member node name. Only decode steps through a
    group that is nondeterministic for the sample's label are audited.
    ``decoded`` (when given) holds each sample's decode, in dataset order,
    and is used instead of decoding again; one of another length than the
    dataset raises ValueError.
    """
    if decoded is not None and len(decoded) != len(dataset):
        raise ValueError(f"{len(decoded)} decoded walks for {len(dataset)} samples")
    graph = model.graph
    nd_cache: dict[int, Mapping[str, frozenset[int]]] = {}
    audited = matches = 0
    for i, (x, gold, attrs) in enumerate(dataset):
        if not attrs:
            continue
        if gold not in nd_cache:
            nd_cache[gold] = nondeterministic_groups(graph, gold)
        nd_groups = nd_cache[gold]
        if not nd_groups:
            continue
        w = decoded[i] if decoded is not None else greedy_decode(model, x, max_len)
        for node in w.tokens:
            g = graph.group_of(node)
            if g is None or g.name not in nd_groups:
                continue
            true_member = attrs.get(g.name)
            if true_member is None:
                continue
            audited += 1
            if graph.node(node).name == true_member:
                matches += 1
    if audited == 0:
        raise NoAuditableSamples("no decoded nondeterministic group traversals")
    return matches / audited
