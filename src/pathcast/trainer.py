"""Training loop: teacher-forced likelihood on deterministic paths plus
REINFORCE with a moving-average baseline on nondeterministic ones.

Per batch the two branches are combined as ``alpha * L_d + beta * L_nd`` and
one Adam step is taken, with a separate learning rate for the encoder
parameters. Samples whose label has at least one deterministic groundtruth
path are trained by teacher forcing over up to ``n_p`` of those paths
(mean/sum pooled, or one random path); samples whose label only has
nondeterministic paths are collected into the policy-gradient index set.
Both branches build lanes, which one ``score_lanes`` pass scores.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, is_dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import numerics as nm
from .evaldecode import EmptyDataset, evaluate
from .labelgraph import LabelGraph
from .model import LabelPathModel, step_major
from .numerics import AdamState, NonFiniteValue, Tensor, adam_step, written
from .pathalg import Paths, _certain_members, _split_paths


class EmptyRewardSet(ValueError):
    pass


class LabeledSample(NamedTuple):
    x: np.ndarray
    label: int


PATH_AGGS = ("mean", "sum", "random")
_TYPE_NAMES = {int: "an int", float: "a float", str: "a string"}


def typed_value(key: str, value, kind: type):
    """``value`` as a ``kind`` (int, float or str), read strictly from JSON: an
    int takes an integer, a float an integer or a float within the float
    range (``json`` reads ``NaN`` and ``Infinity``), a str a string; a bool
    is none of them. Anything else raises ValueError naming ``key``."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{key!r} must be {_TYPE_NAMES[kind]}, not {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:  # false for NaN
        raise ValueError(f"{key!r} must be a finite number, not {value!r}")
    return kind(value)


def require_non_negative(cfg, *keys: str) -> None:
    """Raise ValueError naming the first int field of ``cfg`` in ``keys``
    that is negative."""
    for key in keys:
        if getattr(cfg, key) < 0:
            raise ValueError(f"{key!r} must be a non-negative int, not {getattr(cfg, key)!r}")


def read_config(cls, raw, what: str, required: bool, closed: bool):
    """The dataclass ``cls`` built from ``raw``, a ``what`` object read from JSON.

    Each field is read as the type of its default through :func:`typed_value`;
    a tuple default as a list of its first item's type; a dataclass default
    as a closed object of that dataclass; a field whose metadata has a
    ``read`` function through ``read(key, value)``. A missing key raises
    KeyError when ``required`` and otherwise keeps its default, as a missing
    dataclass-valued key always does. A key that is no field raises
    ValueError when ``closed``. ``cls`` checks its ranges when it is built.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be an object, not {raw!r}")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if closed and unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r}")
    defaults, args = cls(), {}
    for f in fields(cls):
        default = getattr(defaults, f.name)
        if f.name not in raw:
            if required and not is_dataclass(default):
                raise KeyError(f.name)
            continue
        value = raw[f.name]
        if "read" in f.metadata:
            args[f.name] = f.metadata["read"](f.name, value)
        elif is_dataclass(default):
            args[f.name] = read_config(type(default), value, f.name, required=False, closed=True)
        elif isinstance(default, tuple):
            if not isinstance(value, list):
                raise ValueError(f"{f.name!r} must be a list, not {value!r}")
            args[f.name] = tuple(typed_value(f.name, v, type(default[0])) for v in value)
        else:
            args[f.name] = typed_value(f.name, value, type(default))
    return cls(**args)


@dataclass(frozen=True)
class ScheduleConfig:
    kind: str = "fixed"  # "fixed" (decay period) or "dynamic" (patience)
    n: int = 10

    def __post_init__(self):
        if self.kind not in ("fixed", "dynamic"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("schedule n must be at least 1")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    max_len: int = 8
    r_tf: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0
    path_agg: str = "mean"  # mean | sum | random
    n_p: int = 4
    reward_set: str = "certain"  # certain | label_only
    lr_e: float = 0.01
    lr: float = 0.01
    schedule: ScheduleConfig = ScheduleConfig()
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.max_len < 2 or self.n_p < 1 or self.epochs < 0:
            raise ValueError("batch_size/max_len/n_p/epochs out of range")
        if not 0.0 <= self.r_tf <= 1.0:
            raise ValueError("r_tf must lie in [0,1]")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.lr <= 0 or self.lr_e <= 0:
            raise ValueError("learning rates must be positive")
        if self.path_agg not in PATH_AGGS:
            raise ValueError(f"unknown path aggregation {self.path_agg!r}")
        if self.reward_set not in ("certain", "label_only"):
            raise ValueError(f"unknown reward set {self.reward_set!r}")
        require_non_negative(self, "seed")


@dataclass
class Batch:
    """Assembled minibatch: inputs, PG sample indexes, and the samples' target
    paths cut to ``max_len``, ``counts[i]`` for sample i, in sample order, one
    a column of the step-major ``targets`` with its length in ``lengths``."""

    inputs: np.ndarray
    targets: np.ndarray
    lengths: np.ndarray
    counts: np.ndarray
    pg_indexes: tuple[int, ...]
    labels: tuple[int, ...] = ()

    @property
    def target_paths(self) -> list[np.ndarray]:
        """Per sample, the columns of ``targets`` that hold its lanes."""
        return np.split(np.arange(self.lengths.size), self.counts.cumsum()[:-1])


class Lanes(NamedTuple):
    """Lanes as ``score_lanes`` takes them, with each one's input row and pooling weight."""

    targets: np.ndarray
    lengths: np.ndarray
    rows: np.ndarray
    weights: np.ndarray
    teacher: np.ndarray


BASELINE_DECAY = 0.9


@dataclass
class BaselineEstimator:
    """Exponential moving average of observed rewards."""

    value: float = 0.0

    def update(self, mean_reward: float) -> float:
        self.value = BASELINE_DECAY * self.value + (1.0 - BASELINE_DECAY) * mean_reward
        return self.value


class PathBook:
    """Lane tables of a graph's targets, over their counted split; the split
    and the reward sets are read from the graph's memo, so every book on a
    graph shares them. Works for any target node so coarse fusion targets
    (which may be augmented nodes) get the same treatment as label nodes.
    """

    def __init__(self, graph: LabelGraph):
        self.graph = graph
        # (n_p, max_len) -> lane targets, lengths, each node's first lane and count (-1: unbuilt)
        self._tables: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}

    def split(self, node: int) -> tuple[Paths, Paths]:
        """The node's deterministic and nondeterministic paths, counted; a
        path is built only when it is indexed or iterated."""
        return _split_paths(self.graph, node)

    def lanes(self, nodes: np.ndarray, n_p: int, max_len: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(targets, lengths, counts)`` of a ``Batch`` whose labels are
        ``nodes``: each node's ``det[:n_p]`` cut to ``max_len``, in one gather
        from the lane table, where a node's lanes go when first asked for."""
        key, size = (n_p, max_len), len(self.graph.nodes)
        if key not in self._tables:
            self._tables[key] = (np.zeros((max_len, 0), dtype=np.intp), np.zeros(0, dtype=np.intp),
                                 np.zeros(size, dtype=np.intp), np.full(size, -1))
        tokens, lengths, first, count = self._tables[key]
        if count[nodes].min(initial=0) < 0:
            new = sorted(set(nodes[count[nodes] < 0].tolist()))
            paths = [self.split(v)[0][:n_p] for v in new]
            n = np.fromiter(map(len, paths), dtype=np.intp, count=len(paths))
            more, more_lengths = step_major([p[:max_len] for ps in paths for p in ps], max_len)
            first[new], count[new] = lengths.size + n.cumsum() - n, n
            tokens, lengths = np.hstack([tokens, more]), np.append(lengths, more_lengths)
            self._tables[key] = tokens, lengths, first, count
        n = count[nodes]
        cols = (first[nodes] + n - n.cumsum()).repeat(n) + np.arange(n.sum())
        lengths = lengths[cols]
        return tokens.take(cols, axis=1)[:lengths.max(initial=0)], lengths, n

    def reward_members(self, node: int, reward_set: str) -> frozenset[int]:
        if reward_set == "label_only":
            return frozenset({node})
        return _certain_members(self.graph, node)


def reward(tokens: Sequence[int], members: frozenset[int]) -> float:
    """Fraction of the certain-node set covered by the sampled path's tokens."""
    if not members:
        raise EmptyRewardSet("reward set is empty")
    return len(set(tokens) & members) / len(members)


# ---------------------------------------------------------------------------
# Deterministic branch (teacher forcing)
# ---------------------------------------------------------------------------

def deterministic_loss(batch: Batch, cfg: TrainConfig,
                       rng: np.random.Generator) -> Lanes | None:
    """The batch's teacher-forced lanes, or None when it has none; pooled,
    their totals are the batch-mean negative log-likelihood of the target
    paths, each sample's lanes meaned or summed. One coin per batch, drawn
    here, feeds every lane its targets when ``coin <= r_tf``, else its greedy
    walk (``score_lanes``). A lane has no closing EOP: EOP is a singleton
    block, so its log-probability is exactly 0 wherever it is offered."""
    m, counts = batch.lengths.size, batch.counts
    if not m:
        return None
    teacher = float(rng.uniform()) <= cfg.r_tf
    share = counts.repeat(counts) if cfg.path_agg == "mean" else np.ones(m, dtype=np.intp)
    return Lanes(batch.targets, batch.lengths, np.arange(counts.size).repeat(counts),
                 -1.0 / (share * np.count_nonzero(counts)), np.full(m, teacher))


# ---------------------------------------------------------------------------
# Policy-gradient branch (REINFORCE with baseline)
# ---------------------------------------------------------------------------

def policy_gradient_loss(model: LabelPathModel, batch: Batch,
                         baseline: BaselineEstimator, cfg: TrainConfig,
                         rng: np.random.Generator, book: PathBook
                         ) -> tuple[Lanes | None, list[float]]:
    """The lanes of the batch's I_pg and their rewards, ``(None, [])`` for
    none; pooled, their totals are -(r - b) * sum_t log p(chosen_t), meaned.
    Each sample free-runs one trajectory from START, all of them in one
    lockstep ``sample_path`` with step-major draws, rewarded by its coverage
    of the certain nodes; its lane rescores its choices. The baseline is
    updated with the batch-mean reward after its value has been used."""
    if not batch.pg_indexes:
        return None, []
    pg = np.array(batch.pg_indexes)
    samples = model.sample_path(batch.inputs[pg], rng, cfg.max_len)
    rewards = [reward(tokens[:n], book.reward_members(batch.labels[i], cfg.reward_set))
               for i, tokens, n in zip(batch.pg_indexes, samples.tokens.T, samples.lengths)]
    b = baseline.value
    baseline.update(float(np.mean(rewards)))
    return Lanes(*model.sampled_path_log_prob(samples), pg, -(np.array(rewards) - b) / pg.size,
                 np.ones(pg.size, dtype=bool)), rewards


def _joined(parts: Sequence[tuple[Lanes | None, float]]) -> Lanes:
    """The lanes of ``parts`` that are not None side by side, weights times
    their part's scale; a part's targets are padded by repeating its last step."""
    parts = [(p, c) for p, c in parts if p is not None]
    steps = np.arange(max(len(p.targets) for p, _ in parts))
    return Lanes(np.hstack([p.targets[np.minimum(steps, len(p.targets) - 1)] for p, _ in parts]),
                 *map(np.concatenate, zip(*((p.lengths, p.rows, c * p.weights, p.teacher)
                                            for p, c in parts))))


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

@dataclass
class ScheduleState:
    """Learning-rate halving state; ``scale`` multiplies both initial rates."""

    config: ScheduleConfig
    scale: float = 1.0
    best: float | None = None
    stale: int = 0


def schedule_update(state: ScheduleState, epoch: int,
                    dev_metric: float | None = None) -> float:
    """Advance the schedule after ``epoch`` (1-based); returns the new scale.

    fixed(p): halve every p epochs. dynamic(n): halve once the dev metric
    (higher is better) has not improved for n consecutive epochs; the patience
    counter resets on improvement and on each reduction.
    """
    if state.config.kind == "fixed":
        if epoch % state.config.n == 0:
            state.scale *= 0.5
    elif dev_metric is None:
        raise ValueError("DynamicReduce requires a dev metric")
    elif state.best is None or dev_metric > state.best:
        state.best = dev_metric
        state.stale = 0
    else:
        state.stale += 1
        if state.stale >= state.config.n:
            state.scale *= 0.5
            state.stale = 0
    return state.scale


# ---------------------------------------------------------------------------
# Epoch loop
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    adam: AdamState  # lr_e for the encoder parameters, lr for the rest
    baseline: BaselineEstimator
    schedule: ScheduleState
    book: PathBook
    epoch: int = 0

    @staticmethod
    def init(model: LabelPathModel, cfg: TrainConfig) -> "TrainState":
        lr = {k: cfg.lr_e if k in model.encoder_param_names else cfg.lr for k in model.params}
        return TrainState(
            adam=AdamState(model.params, lr),
            baseline=BaselineEstimator(),
            schedule=ScheduleState(cfg.schedule),
            book=PathBook(model.graph),
        )


def minibatches(n: int, batch_size: int, seed: int, epoch: int) -> Iterator[tuple[int, np.ndarray]]:
    """``(batch index, sample indexes)`` for each minibatch of ``epoch`` over
    ``n`` samples, in that epoch's seeded order."""
    order = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(epoch,))).permutation(n)
    for bi, start in enumerate(range(0, n, batch_size)):
        yield bi, order[start:start + batch_size]


def descend(loss: Tensor, params: dict[str, Tensor], adam: AdamState, lr_scale: float) -> None:
    """One optimiser step on ``loss``: backpropagate into ``params``, then one
    Adam step over all of them. A non-finite loss raises NonFiniteValue first."""
    nm.require_finite(loss.data, "loss")
    nm.zero_grads(params)
    nm.backward(loss)
    adam_step(adam, params, lr_scale)


def _batch_rng(seed: int, epoch: int, batch_idx: int) -> np.random.Generator:
    # Stream-split per batch, so a batch's draws do not depend on how many
    # draws earlier batches made.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(epoch, batch_idx)))


def _uniform_rank(n: int, rng: np.random.Generator) -> int:
    """A uniform draw from ``range(n)``: ``rng.integers(n)`` while ``n`` fits
    its int64 bound, else rejection sampling over whole 64-bit words, cut
    to the bit length of ``n - 1``."""
    if n <= 2 ** 63:
        return int(rng.integers(n))
    bits = (n - 1).bit_length()
    words = -(-bits // 64)
    while True:
        k = int.from_bytes(rng.bytes(8 * words), "little") >> (64 * words - bits)
        if k < n:
            return k


def build_batch(samples: Sequence[LabeledSample], cfg: TrainConfig,
                book: PathBook, rng: np.random.Generator) -> Batch:
    """Each sample's lanes, ``det[:n_p]`` of its label from the book's lane
    table, or one path drawn from all of ``det`` under ``path_agg="random"``;
    nondeterministic-only labels go to I_pg."""
    inputs = np.stack([np.asarray(s.x, dtype=np.float64) for s in samples])
    labels = tuple(s.label for s in samples)
    if cfg.path_agg == "random":
        dets = [book.split(s.label)[0] for s in samples]
        lanes = [d[_uniform_rank(d.total, rng)][:cfg.max_len] for d in dets if d]
        targets, lengths = step_major(lanes, max(map(len, lanes), default=0))
        counts = np.array([bool(d) for d in dets], dtype=np.intp)
    else:
        targets, lengths, counts = book.lanes(np.array(labels), cfg.n_p, cfg.max_len)
    return Batch(inputs, targets, lengths, counts, tuple(np.flatnonzero(counts == 0).tolist()),
                 labels)


def train_epoch(model: LabelPathModel, dataset: Sequence[LabeledSample],
                cfg: TrainConfig, state: TrainState) -> dict:
    """One pass over the dataset; one Adam step per batch. Returns metrics.
    A batch's NonFiniteValue is raised again naming its epoch and batch."""
    state.epoch += 1
    epoch = state.epoch
    loss_d_sum = loss_pg_sum = 0.0
    n_d = n_pg = 0
    reward_sum, reward_n = 0.0, 0
    for bi, idx in minibatches(len(dataset), cfg.batch_size, cfg.seed, epoch):
        try:
            # an overflow is left to the boundary checks (logits, loss, Adam), which raise
            with np.errstate(over="ignore", invalid="ignore"):
                rng = _batch_rng(cfg.seed, epoch, bi)
                batch = build_batch([dataset[j] for j in idx], cfg, state.book, rng)
                tf = deterministic_loss(batch, cfg, rng)  # draws the coin, even at alpha 0
                tf = tf if cfg.alpha != 0.0 else None
                pg, rewards = (policy_gradient_loss(model, batch, state.baseline, cfg, rng,
                                                    state.book) if cfg.beta != 0.0 else (None, []))
                reward_sum += sum(rewards)
                reward_n += len(rewards)
                if tf is not None or pg is not None:
                    lanes = _joined(((tf, cfg.alpha), (pg, cfg.beta)))
                    totals = model.score_lanes(model.encode(batch.inputs), lanes.rows,
                                               lanes.targets, lanes.lengths, lanes.teacher)
                    if tf is not None:  # the records read the one pass's totals
                        loss_d_sum += float(np.dot(tf.weights, totals.data[:len(tf.rows)]))
                        n_d += 1
                    if pg is not None:
                        loss_pg_sum += float(np.dot(pg.weights, totals.data[-len(pg.rows):]))
                        n_pg += 1
                    descend(nm.weighted_sum(totals, lanes.weights), model.params, state.adam,
                            state.schedule.scale)
        except NonFiniteValue as exc:
            raise NonFiniteValue(f"epoch {epoch}, batch {bi + 1}: {exc}") from None

    return {
        "epoch": epoch,
        "loss_d": loss_d_sum / n_d if n_d else 0.0,
        "loss_pg": loss_pg_sum / n_pg if n_pg else 0.0,
        "mean_reward": reward_sum / reward_n if reward_n else None,
        "baseline": state.baseline.value,
        "lr": cfg.lr * state.schedule.scale,
        "lr_e": cfg.lr_e * state.schedule.scale,
    }


def train(model: LabelPathModel, train_set: Sequence[LabeledSample],
          cfg: TrainConfig, dev_set: Sequence[LabeledSample] | None = None,
          metrics_path: str | None = None) -> list[dict]:
    """Full training run; appends one JSON line of metrics per epoch. A run
    that raises removes the metrics file it opened."""
    if dev_set is not None and not dev_set:
        raise EmptyDataset("dev set has no samples")
    if cfg.schedule.kind == "dynamic" and dev_set is None:
        raise ValueError("DynamicReduce schedule needs a dev set")
    state = TrainState.init(model, cfg)
    records = []
    with written(metrics_path or None) as write:
        for _ in range(cfg.epochs):
            rec = train_epoch(model, train_set, cfg, state)
            dev_acc = None
            if dev_set:
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        dev_acc = evaluate(model, dev_set, cfg.max_len).accuracy
                except NonFiniteValue as exc:
                    raise NonFiniteValue(f"epoch {state.epoch}, dev evaluation: {exc}") from None
            rec["dev_accuracy"] = dev_acc
            schedule_update(state.schedule, state.epoch, dev_acc)
            rec["next_lr"] = cfg.lr * state.schedule.scale
            records.append(rec)
            if write is not None:
                write(json.dumps(rec, sort_keys=True) + "\n")
    return records
