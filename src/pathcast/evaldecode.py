"""Greedy decoding and evaluation: accuracy, macro-F1, and the audit of
nondeterministic attribute choices against per-instance ground truth."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from .labelgraph import LabelGraph, canonical_name
from .model import LabelPathModel, Walk, Walks, greedy_pick
from .pathalg import _tainted


# Rows decoded in lockstep per walk by decode_rows. Decoding every row at once
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


def decode_rows(model: LabelPathModel, x: Sequence | np.ndarray, max_len: int) -> Walks:
    """The greedy :class:`Walks` of the rows of ``x [m, d]``, walked in
    lockstep blocks of ``DECODE_ROWS`` rows: each step takes the global
    maximum across the candidate blocks, ties to the lowest token id."""
    x = x if len(x) else np.zeros((0, model.input_dim))  # an empty list has no width
    parts = [model.walk(model.encode_values(x[i:i + DECODE_ROWS]), max_len, greedy_pick)
             for i in range(0, max(len(x), 1), DECODE_ROWS)]  # no rows: one empty walk
    return Walks(*(np.concatenate([getattr(p, f.name) for p in parts], axis=-1)
                   for f in fields(Walks)))


def greedy_decode(model: LabelPathModel, x: np.ndarray, max_len: int) -> Walk:
    """The greedy walk of one input ``x [d]``, as its one-row view."""
    return model.walk(model.encode_values(x), max_len, greedy_pick).row(0)


def predicted_labels(model: LabelPathModel, walks: Walks) -> list[str | None]:
    """Each row's label name: its last label node (None for none), one masked
    max down its column (whose padding adds no node) of the EOP-offering flag."""
    t = np.arange(len(walks.tokens))[:, None]
    at = np.where(model._offers_eop[walks.tokens], t, -1).max(axis=0)
    names = [nd.name for nd in model.graph.nodes]
    return [names[v] if a >= 0 else None
            for a, v in zip(at.tolist(), walks.tokens[at, np.arange(at.size)].tolist())]


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
             decoded: Walks | None = None) -> MetricsReport:
    """:func:`classification_report` of the :func:`predicted_labels` of a
    dataset's (x, label_id) pairs; a decode without a label node counts as
    incorrect. ``decoded`` (when given) is the pairs' :func:`decode_rows`,
    read in place of decoding them."""
    pairs = list(dataset)
    if not pairs:
        raise EmptyDataset("cannot evaluate an empty dataset")
    if decoded is None:
        decoded = decode_rows(model, [x for x, _ in pairs], max_len)
    return classification_report([model.graph.node(label).name for _, label in pairs],
                                 predicted_labels(model, decoded))


def nondeterministic_groups(graph: LabelGraph, label: int) -> Mapping[str, frozenset[int]]:
    """Groups whose member choice is not fixed by the label, each with its
    members on the label's paths: the groups that taint the label's split
    (``pathalg._tainted``), read-only and kept on the graph, so the audit
    and training agree on what is nondeterministic."""
    return _tainted(graph, label)


def audit_nondeterministic(model: LabelPathModel, dataset: Sequence, max_len: int,
                           decoded: Walks | None = None) -> float:
    """Fraction of decoded nondeterministic attribute choices that match the
    instance's true attribute.

    ``dataset`` yields (x, label_id, attrs) triples where ``attrs`` maps a
    group name to the true member node name, both read in canonical form
    (``labelgraph.canonical_name``), as labels are. Only decode steps through a
    group that is nondeterministic for the sample's label are audited.
    ``decoded`` (when given) holds each sample's decode, in dataset order,
    and is used instead of decoding again; one of another length than the
    dataset raises ValueError.
    """
    if decoded is not None and decoded.lengths.size != len(dataset):
        raise ValueError(f"{decoded.lengths.size} decoded walks for {len(dataset)} samples")
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
        attrs = {canonical_name(k): canonical_name(v) for k, v in attrs.items()}
        w = decoded.row(i) if decoded is not None else greedy_decode(model, x, max_len)
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
