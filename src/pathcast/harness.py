"""Synthetic data generation, dataset fusion, reference baselines and the
ablation driver.

The synthetic task is a desk-scale stand-in for the pet-style setup: a root,
a few coarse categories, per-category attribute groups, and fine labels that
connect either to a fixed member of a group (a deterministic attribute) or to
several members (the instance's attribute is sampled per example). Inputs are
noisy one-hot encodings of the instance's true attributes; a label's identity
is carried by its fixed-attribute combination, so attribute choices stay
recoverable from the features without a separate identity shortcut.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import numerics as nm
from .labelgraph import LabelGraph, NodeKind, _closure, build_graph, validate
from .model import LabelPathModel
from .numerics import AdamState, Tensor
from .pathalg import NotALabelNode, _path_counts, _require_label
from .trainer import (LabeledSample, ScheduleConfig, ScheduleState, TrainConfig,
                      descend, minibatches, require_non_negative, schedule_update,
                      train, typed_value, written)
from .evaldecode import EmptyDataset, MetricsReport, classification_report, evaluate


class InconsistentSpec(ValueError):
    pass


class UnresolvableLabel(ValueError):
    pass


class InvalidDataset(ValueError):
    """A dataset row that cannot be used; the message starts ``<path>:<line>:``."""


_COARSE_NAMES = ("cat", "dog", "bird", "fish")
_GROUP_NAMES = ("hair", "color", "ears", "tail")


def _member_choices(entry, size: int) -> tuple[int, ...]:
    """Members of a group a profile entry connects a label to."""
    if entry is None:
        return tuple(range(size))
    if isinstance(entry, (tuple, list)):
        return tuple(int(k) for k in entry)
    return (int(entry),)


def _read_profiles(key: str, raw) -> tuple[tuple, ...]:
    """``label_profiles`` read from JSON: a list of profiles, each a list of
    entries, each null, an int or a list of ints. Anything else raises
    ValueError naming ``key``."""
    if not isinstance(raw, list) or not all(isinstance(p, list) for p in raw):
        raise ValueError(f"{key!r} must be a list of lists, not {raw!r}")
    def entry(m):
        if m is None:
            return None
        if isinstance(m, list):
            return tuple(typed_value(key, k, int) for k in m)
        return typed_value(key, m, int)
    return tuple(tuple(entry(m) for m in p) for p in raw)


class SynthSample(NamedTuple):
    x: np.ndarray
    label: str
    attrs: dict[str, str] | None = None


@dataclass
class DatasetSpec:
    name: str
    samples: list[SynthSample]
    k: int

    def label_names(self) -> list[str]:
        return sorted({s.label for s in self.samples})

    @property
    def input_dim(self) -> int:
        """Feature width; raises EmptyDataset when there are no samples."""
        if not self.samples:
            raise EmptyDataset(f"dataset {self.name!r} has no samples")
        return len(self.samples[0].x)


@dataclass(frozen=True)
class SynthSpec:
    """Layout and sampling knobs for the synthetic pet-style task."""

    n_fine_labels: int = 12
    n_coarse: int = 2
    group_sizes: tuple[int, ...] = (3, 2, 4)
    # Per label (cyclic within each coarse branch), one entry per group:
    #   int         fixed member (a deterministic attribute)
    #   None        sampled uniformly over every member per instance
    #   (a, b, ..)  sampled uniformly over a member subset
    #   ()          absent: no edges to the group, zero features
    # Defaults: labels 0-3 fix all three attributes, so every member of every
    # block is a teacher-forcing target in several contexts (no block is left
    # for the policy gradient to capture input-independently). Labels 4-5
    # sample their color per instance: the audited mixed classes, identified
    # by their (hair, ears) pair, whose color routing must generalise from
    # the fixed-color breeds. The color group is deliberately the smallest:
    # its block saturates highest, so greedy decoding keeps routing through
    # the audited choice. Every label keeps a deterministic path, like the
    # hand-built pet graph; nondeterministic-only labels (trained purely by
    # policy gradient) arise from custom profiles such as subset-sampled
    # ones, or all-None wildcards identified by a flag dimension.
    label_profiles: tuple[tuple, ...] = field(default=(
        (0, 0, 0), (1, 1, 1), (2, 0, 2), (0, 1, 3),
        (1, None, 0), (2, None, 1)), metadata={"read": _read_profiles})
    noise_sigma: float = 0.1
    wild_scale: float = 2.0
    # Scale of the coarse-category one-hot in x. Shrinking it makes the
    # branch decision the statistical bottleneck, which extra coarsely
    # labelled data then genuinely improves (the fusion effect).
    branch_scale: float = 1.0
    n_train_fine: int = 2000
    n_train_coarse: int = 2000
    n_test: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.n_fine_labels < 1 or self.n_coarse < 1:
            raise InconsistentSpec("need at least one fine label and one coarse category")
        if self.n_fine_labels % self.n_coarse:
            raise InconsistentSpec("n_fine_labels must divide evenly across coarse categories")
        if not self.group_sizes or any(s < 1 for s in self.group_sizes):
            raise InconsistentSpec("group sizes must be positive")
        if self.noise_sigma < 0:
            raise InconsistentSpec("noise_sigma must be non-negative")
        for key in ("wild_scale", "branch_scale"):  # at 0, two labels would draw the same x
            if getattr(self, key) <= 0:
                raise InconsistentSpec(f"{key!r} must be positive, not {getattr(self, key)!r}")
        require_non_negative(self, "n_train_fine", "n_train_coarse", "n_test", "seed")
        if not self.label_profiles:
            raise InconsistentSpec("label_profiles must not be empty")
        seen: set[tuple] = set()
        for prof in self.label_profiles:
            if len(prof) != len(self.group_sizes):
                raise InconsistentSpec("profile length must match the group count")
            connected = False
            for j, m in enumerate(prof):
                choices = _member_choices(m, self.group_sizes[j])
                if any(not 0 <= k < self.group_sizes[j] for k in choices):
                    raise InconsistentSpec(f"member out of range for group {j}: {m!r}")
                connected = connected or bool(choices)
            if not connected:
                raise InconsistentSpec("a label must connect to at least one group")
        # what each label of a branch gets; a wildcard label has its own flag
        for prof in map(self.profile, range(self.per_coarse)):
            if prof in seen and any(m is not None for m in prof):
                raise InconsistentSpec(
                    f"profile {prof} appears twice; its labels would be indistinguishable")
            seen.add(prof)

    @property
    def per_coarse(self) -> int:
        return self.n_fine_labels // self.n_coarse

    def profile(self, i: int) -> tuple[int | None, ...]:
        return self.label_profiles[i % len(self.label_profiles)]

    @property
    def n_wild_slots(self) -> int:
        return sum(1 for i in range(self.per_coarse)
                   if all(m is None for m in self.profile(i)))

    @property
    def input_dim(self) -> int:
        # coarse one-hot + attribute one-hots + wildcard-class flags
        return self.n_coarse + sum(self.group_sizes) + self.n_wild_slots


@dataclass
class FusionResult:
    dataset: DatasetSpec


def _coarse_name(i: int) -> str:
    return _COARSE_NAMES[i] if i < len(_COARSE_NAMES) else f"kind-{i}"


def _group_name(j: int) -> str:
    return _GROUP_NAMES[j] if j < len(_GROUP_NAMES) else f"attr-{j}"


def synth_generate(spec: SynthSpec) -> tuple[LabelGraph, DatasetSpec, DatasetSpec, DatasetSpec]:
    """Build the synthetic graph plus fine/coarse train and annotated test sets.

    Attribute groups are instantiated once per coarse branch (so a cat path
    can never route through a dog attribute). Fixed attributes are assigned
    cyclically; sampled ones are drawn uniformly per instance. Fully seeded:
    the same spec always produces byte-identical datasets.
    """
    rng = np.random.default_rng(spec.seed)
    input_dim = spec.input_dim  # read once: the property rescans the label profiles
    # column in x of each group's first member, then of the first wildcard flag
    offsets = np.cumsum((spec.n_coarse,) + spec.group_sizes).tolist()
    coarse_names = [_coarse_name(i) for i in range(spec.n_coarse)]

    augmented: list[tuple[str, list[str]]] = []
    groups: list[tuple[str, list[str]]] = []
    edges: list[tuple[str, str]] = []
    # One row per fine label: (name, coarse name, x with its fixed members
    # set, for each sampled group (attribute key, member names, x columns) of
    # its choices, and its attributes with each sampled one None, in group
    # order). Wildcard labels (every group sampled) get a dedicated identity
    # flag; all other labels are identified by their fixed-attribute combination.
    rows: list[tuple[str, str, np.ndarray, list[tuple], dict]] = []
    for c, cname in enumerate(coarse_names):
        augmented.append((cname, ["root"]))
        keys = [f"{cname}-{_group_name(j)}" for j in range(len(spec.group_sizes))]
        for key, size in zip(keys, spec.group_sizes):
            members = [f"{key}-{k}" for k in range(size)]
            augmented.extend((m, [cname]) for m in members)
            groups.append((key, members))
        breeds = [f"{cname}-breed-{i}" for i in range(spec.per_coarse)]
        # All breeds of a branch are mutually exclusive: one curated group
        # under their shared ancestor, like the hand-built pet graph. Left
        # implicit they would split by first shared parent and stop competing
        # with each other.
        if len(breeds) >= 2:
            groups.append((f"{cname}-breeds", breeds))
        n_wild = 0
        for i, name in enumerate(breeds):
            prof = spec.profile(i)
            base = np.zeros(input_dim)
            base[c] = spec.branch_scale
            if all(m is None for m in prof):
                base[offsets[-1] + n_wild] = spec.wild_scale
                n_wild += 1
            picks, attrs = [], {}
            for j, (key, size) in enumerate(zip(keys, spec.group_sizes)):
                choices = _member_choices(prof[j], size)
                members = [f"{key}-{k}" for k in choices]
                edges.extend((m, name) for m in members)
                if len(choices) == 1:
                    base[offsets[j] + choices[0]] = 1.0
                    attrs[key] = members[0]
                elif choices:
                    picks.append((key, members, [offsets[j] + k for k in choices]))
                    attrs[key] = None
            rows.append((name, cname, base, picks, attrs))

    graph = build_graph([("synth-fine", [row[0] for row in rows])], augmented, edges, groups)

    def draw_set(n: int, coarse: bool, annotate: bool) -> list[SynthSample]:
        # The generator calls and their order are the data contract: one
        # integers per sample, one per pick from two or more members, one
        # normal per sample.
        integers, normal, sigma = rng.integers, rng.normal, spec.noise_sigma
        out = []
        for _ in range(n):
            name, cname, base, picks, fixed = rows[int(integers(len(rows)))]
            x = base.copy()
            attrs = dict(fixed) if annotate else None
            for key, members, cols in picks:
                k = int(integers(len(cols)))
                x[cols[k]] = 1.0
                if annotate:
                    attrs[key] = members[k]
            if sigma > 0:
                x += normal(0.0, sigma, input_dim)
            out.append(SynthSample(x, cname if coarse else name, attrs))
        return out

    fine = DatasetSpec("synth-fine", draw_set(spec.n_train_fine, False, False), k=len(rows))
    coarse = DatasetSpec("synth-coarse", draw_set(spec.n_train_coarse, True, False),
                         k=len(coarse_names))
    test = DatasetSpec("synth-test", draw_set(spec.n_test, False, True), k=len(rows))
    return graph, fine, coarse, test


# ---------------------------------------------------------------------------
# Dataset files (JSON lines)
# ---------------------------------------------------------------------------

def save_dataset(path: str, ds: DatasetSpec) -> None:
    with written(path) as write:
        for s in ds.samples:
            rec: dict = {"x": [float(v) for v in s.x], "label": s.label}
            if s.attrs is not None:
                rec["attrs"] = {k: s.attrs[k] for k in sorted(s.attrs)}
            write(json.dumps(rec) + "\n")


def load_dataset(path: str, name: str | None = None, width: int | None = None) -> DatasetSpec:
    """Read JSONL rows ``{"x": [numbers], "label": str}``, with an optional
    ``"attrs": {str: str}``. A row that breaks this, or whose ``x`` is empty,
    non-finite or not ``width`` values wide (by default, as wide as the first
    row's), raises :class:`InvalidDataset` naming the file and line."""
    samples: list[SynthSample] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}:"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InvalidDataset(f"{where} malformed JSON: {exc.msg}") from None
            if not isinstance(rec, dict) or "x" not in rec or "label" not in rec:
                raise InvalidDataset(f"{where} a row needs 'x' and 'label'")
            if not (isinstance(rec["x"], list) and rec["x"] and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in rec["x"])):
                raise InvalidDataset(f"{where} 'x' must be a non-empty flat list of numbers")
            x = np.asarray(rec["x"], dtype=np.float64)
            if not np.all(np.isfinite(x)):
                raise InvalidDataset(f"{where} 'x' has a non-finite value")
            width = x.size if width is None else width
            if x.size != width:
                raise InvalidDataset(f"{where} 'x' has {x.size} values, not {width}")
            if not isinstance(rec["label"], str):
                raise InvalidDataset(f"{where} 'label' must be a string")
            attrs = rec.get("attrs")
            if attrs is not None and not (isinstance(attrs, dict) and all(
                    isinstance(v, str) for v in attrs.values())):
                raise InvalidDataset(f"{where} 'attrs' must map group names to member names")
            samples.append(SynthSample(x=x, label=rec["label"], attrs=attrs))
    labels = {s.label for s in samples}
    return DatasetSpec(name or path, samples, k=len(labels))


def resolve_samples(ds: DatasetSpec, graph: LabelGraph) -> list[LabeledSample]:
    """Map label names onto graph node ids for the trainer/evaluator."""
    return [LabeledSample(s.x, i) for s, i in zip(ds.samples, _label_ids(ds, graph))]


def _label_ids(ds: DatasetSpec, graph: LabelGraph) -> list[int]:
    """Each sample's label as a graph node id, each distinct name looked up
    once; one not in the graph raises UnresolvableLabel naming the dataset
    (its file, when loaded) and its first row."""
    ids: dict[str, int] = {}
    for row, s in enumerate(ds.samples, 1):
        if s.label not in ids:
            if not graph.has_name(s.label):
                raise UnresolvableLabel(f"{ds.name}: row {row}: label {s.label!r} not in graph")
            ids[s.label] = graph.id_of(s.label)
    return [ids[s.label] for s in ds.samples]


def fuse(fine: DatasetSpec, coarse: DatasetSpec, graph: LabelGraph) -> FusionResult:
    """Concatenate fine and coarse training sets over a shared graph.

    Every label must resolve in the graph; the fused class count is the fine
    class count plus the coarse labels not already present in the fine set.
    """
    for ds in (fine, coarse):
        _label_ids(ds, graph)
    fine_labels = set(fine.label_names())
    extra = [n for n in coarse.label_names() if n not in fine_labels]
    samples = list(fine.samples) + list(coarse.samples)
    return FusionResult(DatasetSpec(f"{fine.name}+{coarse.name}", samples, fine.k + len(extra)))


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaselineConfig:
    hidden: int = 32
    epochs: int = 15
    batch_size: int = 32
    lr: float = 0.01
    schedule: ScheduleConfig = ScheduleConfig()
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 1 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("hidden/batch_size/epochs out of range")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        require_non_negative(self, "seed")


class _EncoderHead:
    """Encoder MLP plus a linear head, trained with Adam like the main model."""

    def __init__(self, input_dim: int, hidden: int, out_dim: int, seed: int):
        rng = np.random.default_rng(seed)
        d, h, k = input_dim, hidden, out_dim
        self.params = nm.parameters({  # drawn in this order
            "enc.w1": rng.normal(0, 1 / np.sqrt(d), (d, h)), "enc.b1": np.zeros(h),
            "enc.w2": rng.normal(0, 1 / np.sqrt(h), (h, h)), "enc.b2": np.zeros(h),
            "head.w": rng.normal(0, 1 / np.sqrt(h), (h, k)), "head.b": np.zeros(k),
        })

    def logits(self, x: np.ndarray) -> Tensor:
        p = self.params
        h = nm.tanh(nm.affine(Tensor(x), p["enc.w1"], p["enc.b1"]))
        h = nm.tanh(nm.affine(h, p["enc.w2"], p["enc.b2"]))
        z = nm.affine(h, p["head.w"], p["head.b"])
        nm.require_finite(z.data, "logits")
        return z


def _fit_classifier(cfg: BaselineConfig, xs: np.ndarray, out_dim: int,
                    loss_fn: Callable) -> _EncoderHead:
    """An encoder-head network with ``out_dim`` outputs, trained with Adam on
    the rows ``xs`` against ``loss_fn(logits, sample indexes)``."""
    net = _EncoderHead(xs.shape[1], cfg.hidden, out_dim, cfg.seed)
    adam = AdamState(net.params, dict.fromkeys(net.params, cfg.lr))
    sched = ScheduleState(cfg.schedule)
    for epoch in range(1, cfg.epochs + 1):
        epoch_loss = 0.0
        for _, idx in minibatches(len(xs), cfg.batch_size, cfg.seed, epoch):
            loss = loss_fn(net.logits(xs[idx]), idx)
            descend(loss, net.params, adam, sched.scale)
            epoch_loss += loss.item()
        # dev metric for the dynamic schedule: negated train loss (improves upward)
        schedule_update(sched, epoch, -epoch_loss)
    return net


def _report(net: _EncoderHead, test_ds: DatasetSpec, classes: Sequence[str],
            columns: Sequence[int] | None = None) -> MetricsReport:
    """Report on ``test_ds`` when each row predicts its highest-scoring class;
    class ``i`` scores output ``columns[i]``, or output ``i`` by default."""
    z = net.logits(np.stack([s.x for s in test_ds.samples])).data
    scores = z if columns is None else z[:, columns]
    pred = [classes[int(i)] for i in np.argmax(scores, axis=1)]
    return classification_report([s.label for s in test_ds.samples], pred)


def _cross_entropy(ys: np.ndarray) -> Callable:
    """Batch-mean cross-entropy of the logits rows against the class ids
    ``ys[idx]``: one ``block_log_prob`` with one block of all classes per
    row, each row its own lane."""
    def loss_fn(z: Tensor, idx: np.ndarray) -> Tensor:
        rows, k = np.arange(len(idx)), z.data.shape[1]
        every = nm.Blocks(rows.repeat(k), np.tile(np.arange(k), rows.size), rows * k,
                          np.full(rows.size, k))
        lp = nm.block_log_prob(z, every, ys[idx], rows, rows.size)
        return nm.weighted_sum(lp, np.full(len(idx), -1.0 / len(idx)))
    return loss_fn


def baseline_ffn(cfg: BaselineConfig, train_ds: DatasetSpec,
                 test_ds: DatasetSpec) -> MetricsReport:
    """Encoder plus one softmax over the fine labels, cross-entropy trained."""
    classes = train_ds.label_names()
    cls_index = {c: i for i, c in enumerate(classes)}
    xs = np.stack([s.x for s in train_ds.samples])
    ys = np.array([cls_index[s.label] for s in train_ds.samples])
    net = _fit_classifier(cfg, xs, len(classes), _cross_entropy(ys))
    return _report(net, test_ds, classes)


def label_set_targets(graph: LabelGraph, label_name: str) -> np.ndarray:
    """Multi-hot over graph nodes: the union of all groundtruth paths."""
    nid = graph.id_of(label_name)
    _require_label(graph, nid)
    hot = np.zeros(len(graph.nodes))
    hot[list(_path_counts(graph, nid)[0])] = 1.0
    return hot


def baseline_label_set(cfg: BaselineConfig, train_ds: DatasetSpec,
                       test_ds: DatasetSpec, graph: LabelGraph) -> MetricsReport:
    """Flatten each groundtruth path set into a multi-label target vector.

    Independent per-node logistic outputs trained with binary cross-entropy;
    prediction picks the fine label whose node scores highest.
    """
    classes = train_ds.label_names()
    class_nodes = [graph.id_of(c) for c in classes]
    for c, nid in zip(classes, class_nodes):
        if graph.node(nid).kind is not NodeKind.LABEL:
            raise NotALabelNode(f"{train_ds.name}: label {c!r} is not a label node; the "
                                "labelset baseline trains on fine labels only")
    targets = {c: label_set_targets(graph, c) for c in classes}
    xs = np.stack([s.x for s in train_ds.samples])
    tmat = np.stack([targets[s.label] for s in train_ds.samples])
    net = _fit_classifier(cfg, xs, len(graph.nodes),
                          lambda z, idx: nm.bce_with_logits(z, tmat[idx]))
    return _report(net, test_ds, classes, class_nodes)


def baseline_pseudo_label(cfg: BaselineConfig, fine: DatasetSpec, coarse: DatasetSpec,
                          test_ds: DatasetSpec, graph: LabelGraph
                          ) -> tuple[MetricsReport, dict]:
    """Weakly-supervised pseudo labelling with coarse-consistency filtering.

    Stage 1 trains an FFN on the fine set; stage 2 pseudo-labels every coarse
    sample and drops those whose predicted fine label is not a graph
    descendant of the sample's coarse label; stage 3 retrains from scratch on
    the fine set plus the survivors.
    """
    classes = fine.label_names()
    cls_index = {c: i for i, c in enumerate(classes)}
    xs = np.stack([s.x for s in fine.samples])
    ys = np.array([cls_index[s.label] for s in fine.samples])
    net = _fit_classifier(cfg, xs, len(classes), _cross_entropy(ys))

    descendants = {c: _closure(graph, graph.id_of(c)) - {graph.id_of(c)}
                   for c in coarse.label_names()}
    survivors: list[tuple[np.ndarray, int]] = []
    survivor_labels: list[tuple[str, str]] = []  # (coarse label, pseudo label)
    dropped = 0
    if coarse.samples:
        z = net.logits(np.stack([s.x for s in coarse.samples]))
        for s, row in zip(coarse.samples, z.data):
            pseudo = classes[int(np.argmax(row))]
            if graph.id_of(pseudo) in descendants[s.label]:
                survivors.append((s.x, cls_index[pseudo]))
                survivor_labels.append((s.label, pseudo))
            else:
                dropped += 1

    xs2 = np.concatenate([xs] + [s[0][None, :] for s in survivors])
    ys2 = np.concatenate([ys, np.array([s[1] for s in survivors], dtype=ys.dtype)])
    net2 = _fit_classifier(cfg, xs2, len(classes), _cross_entropy(ys2))
    report = _report(net2, test_ds, classes)
    n_coarse = len(coarse.samples)
    info = {"kept": len(survivors), "dropped": dropped,
            "filtered_fraction": dropped / n_coarse if n_coarse else 0.0,
            "survivors": survivor_labels}
    return report, info


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

def trim_graph(graph: LabelGraph, fraction: float, rng: np.random.Generator) -> LabelGraph:
    """Contract away floor(fraction * augmented_count) augmented nodes.

    Contraction rewires every (parent, removed) / (removed, child) pair into
    (parent, child), so label reachability is preserved. Groups lose removed
    members; groups left with fewer than two members no longer encode any
    competition and are dropped; implicit sibling groups are re-derived.
    Victims whose removal would break a graph invariant (for example the
    only remaining shared ancestor of a curated group) are skipped, so the
    result always validates; if too many candidates are skipped the trim
    removes fewer nodes than asked.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"trim fraction {fraction} is not in [0,1]")
    aug = [nd.name for nd in graph.nodes if nd.kind is NodeKind.AUGMENTED]
    n_remove = int(len(aug) * fraction)
    if n_remove == 0:
        return graph
    order = [str(x) for x in rng.permutation(aug)]
    current = graph
    removed = 0
    for victim in order:
        if removed == n_remove:
            break
        candidate = _contract_node(current, victim)
        if not validate(candidate):
            current = candidate
            removed += 1
    return current


def _contract_node(graph: LabelGraph, victim: str) -> LabelGraph:
    """Remove one node by name, rewiring its parents to its children."""
    from .labelgraph import (GraphNode, Group, IMPLICIT_GROUP_PREFIX,
                             _materialize_implicit_groups)

    names = [nd.name for nd in graph.nodes]
    kinds = {nd.name: nd.kind for nd in graph.nodes}
    tags = {nd.name: nd.tags for nd in graph.nodes}
    edges = {(names[a], names[b]) for a, b in graph.edges}
    parents = [p for p, c in edges if c == victim]
    children = [c for p, c in edges if p == victim]
    edges = {(p, c) for p, c in edges if victim not in (p, c)}
    edges.update((p, c) for p in parents for c in children)
    names.remove(victim)

    new_nodes = [GraphNode(i, n, kinds[n], tags[n]) for i, n in enumerate(names)]
    index = {n: i for i, n in enumerate(names)}
    new_edges = sorted((index[p], index[c]) for p, c in edges)
    new_groups = []
    for g in graph.groups:
        if g.name.startswith(IMPLICIT_GROUP_PREFIX):
            continue  # re-derived below
        members = frozenset(index[graph.node(m).name] for m in g.members
                            if graph.node(m).name != victim)
        if len(members) >= 2:
            new_groups.append(Group(g.name, members))
    out = LabelGraph(new_nodes, new_edges, new_groups)
    return _materialize_implicit_groups(out)


def fit_model(graph: LabelGraph, train_ds: DatasetSpec, dev_ds: DatasetSpec | None,
              cfg: TrainConfig, embed_dim: int, hidden: int, graph_file: str = "",
              metrics_path: str | None = None) -> LabelPathModel:
    """A path model over ``graph``, seeded with ``cfg.seed`` and trained on
    ``train_ds`` (with ``dev_ds`` as the dev set when given)."""
    model = LabelPathModel(graph, input_dim=train_ds.input_dim, embed_dim=embed_dim,
                           hidden=hidden, seed=cfg.seed, graph_file=graph_file)
    train(model, resolve_samples(train_ds, graph), cfg,
          dev_set=resolve_samples(dev_ds, graph) if dev_ds is not None else None,
          metrics_path=metrics_path)
    return model


def ablate(graph: LabelGraph, train_ds: DatasetSpec, dev_ds: DatasetSpec,
           test_ds: DatasetSpec, base_cfg: TrainConfig, embed_dim: int, hidden: int,
           trim_fractions: Sequence[float] = (0.36, 0.63),
           aggregations: Sequence[str] = ("sum", "random")) -> list[dict]:
    """Train/eval the full setup, trimmed graphs and other path aggregations.

    Every variant shares the base config's seed; rows report accuracy and its
    delta against the full configuration. Graphs are trimmed and configs
    built, and so checked, before any variant trains.
    """
    from dataclasses import replace

    variants = [("full", graph, base_cfg)]
    for frac in trim_fractions:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=base_cfg.seed,
                                                           spawn_key=(7001,)))
        variants.append((f"trim-{int(frac * 100)}", trim_graph(graph, frac, rng), base_cfg))
    variants += [(f"agg-{agg}", graph, replace(base_cfg, path_agg=agg))
                 for agg in aggregations if agg != base_cfg.path_agg]
    rows: list[dict] = []
    for name, g, cfg in variants:
        model = fit_model(g, train_ds, dev_ds, cfg, embed_dim, hidden)
        acc = evaluate(model, resolve_samples(test_ds, g), cfg.max_len).accuracy
        full_acc = rows[0]["accuracy"] if rows else acc
        rows.append({"variant": name, "accuracy": acc, "delta": acc - full_acc,
                     "seed": base_cfg.seed})
    return rows
