"""Encoder-decoder path prediction model.

A small tanh MLP encodes the input feature vector; its output initialises the
hidden state of a GRU decoder that walks the label graph one node per step.
At every step the output projection produces logits over the whole vocabulary,
which are masked down to the graph children of the previous token and
normalised with a block softmax over the competing groups present among the
candidates. START and EOP are decoder vocabulary sentinels, never graph nodes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import numerics as nm
from .labelgraph import LabelGraph, NodeKind, load_graph
from .numerics import CorruptCheckpoint, Tensor


class InvalidPath(ValueError):
    pass


class NoCandidates(RuntimeError):
    """A non-label leaf was reached; valid graphs never produce this."""


class Candidates(NamedTuple):
    """Candidates after one token: ``tokens`` ascend, ``blocks`` hold index
    positions into them, ``block_of`` maps each to its block as token ids."""

    tokens: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    block_of: dict[int, tuple[int, ...]]


@dataclass(frozen=True)
class StepDistribution:
    """Candidate tokens for one decode step with their block-softmax mass.

    ``blocks`` holds index positions into ``tokens``; each block's
    probabilities sum to one and different blocks are independent.
    """

    tokens: tuple[int, ...]
    probs: np.ndarray
    blocks: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SampledPath:
    """One free-running walk: visited graph nodes plus the chosen-step probs."""

    tokens: tuple[int, ...]
    step_probs: tuple[float, ...]
    ended_with_eop: bool


class LabelPathModel:
    """Parameters plus the candidate table for one label graph.

    Token ids: graph node ids, then START (= node count) and EOP (= START+1).
    The candidate table is built with the model: per token, the graph
    children partitioned into their groups restricted to the candidate set,
    singleton blocks for ungrouped children, and an EOP singleton when the
    token is a label node.
    """

    def __init__(self, graph: LabelGraph, input_dim: int, embed_dim: int,
                 hidden: int, seed: int = 0, graph_file: str = ""):
        self.graph = graph
        self.input_dim = int(input_dim)
        self.embed_dim = int(embed_dim)
        self.hidden = int(hidden)
        self.graph_file = graph_file
        n = len(graph.nodes)
        self.start_token = n
        self.eop_token = n + 1
        self.vocab_size = n + 2

        rng = np.random.default_rng(seed)
        p: dict[str, Tensor] = {}

        def w(name, rows, cols):
            p[name] = nm.parameter(rng.normal(0.0, 1.0 / np.sqrt(rows), size=(rows, cols)))

        def b(name, size):
            p[name] = nm.parameter(np.zeros(size))

        w("enc.w1", self.input_dim, hidden)
        b("enc.b1", hidden)
        w("enc.w2", hidden, hidden)
        b("enc.b2", hidden)
        p["emb"] = nm.parameter(rng.normal(0.0, 0.1, size=(self.vocab_size, embed_dim)))
        self.gru = nm.GruParams.init(embed_dim, hidden, rng, "gru", p)
        w("out.w", hidden, self.vocab_size)
        b("out.b", self.vocab_size)
        self.params = p

        self._table = self._candidate_table()

    @property
    def encoder_param_names(self) -> tuple[str, ...]:
        return ("enc.w1", "enc.b1", "enc.w2", "enc.b2")

    # -- candidate sets -------------------------------------------------------

    def _candidate_table(self) -> dict[int, Candidates]:
        root, eop = self.graph.root, self.eop_token
        table = {self.start_token: Candidates((root,), ((0,),), {root: (root,)})}
        for node in self.graph.nodes:
            toks = self.graph.children(node.id)
            if node.kind is NodeKind.LABEL:
                toks += (eop,)  # the largest id, so toks still ascend
            groups: dict[object, list[int]] = {}
            for i, t in enumerate(toks):
                g = self.graph.group_of(t)
                groups.setdefault(t if g is None else g, []).append(i)
            if groups:
                blocks = tuple(map(tuple, groups.values()))
                block_of = {toks[i]: tuple(toks[j] for j in b) for b in blocks for i in b}
                table[node.id] = Candidates(toks, blocks, block_of)
        return table

    def candidates(self, prev_token: int) -> Candidates:
        """Candidate tokens and their blocks after ``prev_token``."""
        hit = self._table.get(prev_token)
        if hit is not None:
            return hit
        if 0 <= prev_token < len(self.graph.nodes):
            name = self.graph.node(prev_token).name
            raise NoCandidates(f"node {name!r} has no children and no EOP")
        raise InvalidPath(f"token {prev_token} cannot start a decode step")

    # -- forward passes -------------------------------------------------------

    def encode(self, x: np.ndarray) -> Tensor:
        """Feature matrix [m, hidden] for inputs [m, input_dim] (or one row)."""
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.input_dim:
            raise nm.ShapeMismatch(f"encode: expected [m,{self.input_dim}], got {arr.shape}")
        p = self.params
        h = nm.tanh(nm.add_rowvec(nm.matmul(nm.constant(arr), p["enc.w1"]), p["enc.b1"]))
        return nm.add_rowvec(nm.matmul(h, p["enc.w2"]), p["enc.b2"])

    def decode_logits(self, f_state: Tensor, tokens_in: list[int]) -> tuple[Tensor, Tensor]:
        """One batched GRU step: new state [m,h] and logits [m, vocab]."""
        e = nm.gather_rows(self.params["emb"], tokens_in)
        f_t = nm.gru_step(self.gru, e, f_state)
        z = nm.add_rowvec(nm.matmul(f_t, self.params["out.w"]), self.params["out.b"])
        return f_t, z

    def distribution(self, z_row: np.ndarray, prev_token: int) -> StepDistribution:
        """Block-softmax distribution over the candidates after ``prev_token``,
        taken from one row of vocabulary logits."""
        toks, blocks, _ = self.candidates(prev_token)
        probs = nm.block_softmax(z_row[list(toks)], blocks)
        return StepDistribution(tokens=toks, probs=probs, blocks=blocks)

    def step(self, f_prev: Tensor, prev_token: int) -> tuple[StepDistribution, Tensor]:
        """Single-sample decode step: next-token distribution plus new state."""
        f_t, z = self.decode_logits(f_prev, [prev_token])
        return self.distribution(z.data[0], prev_token), f_t

    def score_lanes(self, f: Tensor, lanes: Sequence[Sequence[int]], teacher: bool) -> Tensor:
        """Differentiable summed log-probability of each lane's target tokens.

        ``f`` holds one decoder state per lane; every lane is fed START first,
        and an empty lane or a first target that is not a candidate after
        START raises InvalidPath. Under ``teacher`` a lane is fed its previous
        target, and any target that is not a candidate raises InvalidPath.
        Otherwise a lane is fed the model's greedy token, a later step whose
        target is not a candidate after that token is skipped, and the lane
        stops at EOP or at a token without candidates. Returns the per-lane
        totals as one ``[lanes]`` Tensor, built from one rows-form
        ``block_log_prob`` per step.
        """
        if not all(lanes):
            raise InvalidPath("empty lane")
        fed = [self.start_token] * len(lanes)
        alive = [True] * len(lanes)  # feeding still on a usable token
        steps: list[Tensor] = []
        for t in range(max(map(len, lanes))):
            f, z = self.decode_logits(f, fed)
            step_blocks: list[tuple[int, ...] | None] = [None] * len(lanes)
            step_targets = [0] * len(lanes)
            for li, targets in enumerate(lanes):
                if t >= len(targets) or not alive[li]:
                    continue
                prev, target = fed[li], targets[t]
                try:
                    block = self.candidates(prev).block_of.get(target)
                except NoCandidates:
                    if teacher:
                        raise
                    alive[li] = False
                    continue
                if block is not None:
                    step_blocks[li] = block
                    step_targets[li] = target
                elif teacher or t == 0:
                    raise InvalidPath(f"token {target} is not a candidate after {prev}")
                # candidates(prev) succeeded above, so this pick cannot fail
                nxt = target if teacher else greedy_choice(self.distribution(z.data[li], prev))[0]
                if not teacher and nxt == self.eop_token:
                    alive[li] = False  # frozen on prev; no further loss from this lane
                else:
                    fed[li] = nxt
            steps.append(nm.block_log_prob(z, step_blocks, step_targets))
        return nm.add_n(steps)

    def path_log_prob(self, x: np.ndarray, path: list[int] | tuple[int, ...]) -> Tensor:
        """Teacher-forced log-probability of a graph path starting at root.

        Conditions each step on the groundtruth prefix. The closing EOP is not
        scored: EOP is a singleton block, so wherever it is offered its
        log-probability is exactly 0, and the path may end at a non-label
        node (a coarse fusion target) where EOP is not offered.
        """
        return nm.sum_all(self.score_lanes(self.encode(x), [list(path)], teacher=True))

    def walk(self, x: np.ndarray, max_len: int,
             choose: Callable[[StepDistribution], tuple[int, float]]) -> SampledPath:
        """Free-run the decoder from START; ``choose`` picks each step's token
        and its probability. Stops at EOP, after ``max_len`` steps, or at a
        dead-end augmented node (possible on subgraphs; the walk truncates).
        """
        if max_len < 2:
            raise ValueError("max_len must be at least 2")
        f = self.encode(x)
        prev = self.start_token
        tokens: list[int] = []
        probs: list[float] = []
        for _ in range(max_len):
            try:
                dist, f = self.step(f, prev)
            except NoCandidates:
                break
            tok, p = choose(dist)
            probs.append(p)
            if tok == self.eop_token:
                return SampledPath(tuple(tokens), tuple(probs), ended_with_eop=True)
            tokens.append(tok)
            prev = tok
        return SampledPath(tuple(tokens), tuple(probs), ended_with_eop=False)

    def sample_path(self, x: np.ndarray, rng: np.random.Generator,
                    max_len: int) -> SampledPath:
        """Ancestral sample from the decoder, free-running from START.

        Within each candidate block one member is drawn from the block's
        distribution; across blocks the drawn member with the highest
        probability wins (ties to the lowest token id).
        """
        return self.walk(x, max_len, lambda dist: _sample_cross_block(dist, rng))

    def sampled_path_log_prob(self, x: np.ndarray,
                              sampled: SampledPath | Sequence[SampledPath]) -> Tensor:
        """Differentiable re-scoring of sampled trajectories (same choices).

        One input ``x[d]`` with one SampledPath gives a scalar; rows
        ``x[m, d]`` with m paths give their ``[m]`` totals from one
        teacher-forced ``score_lanes`` pass over one ``encode``.
        """
        single = np.ndim(x) == 1
        paths = [sampled] if single else sampled
        lanes = [list(s.tokens) + ([self.eop_token] if s.ended_with_eop else [])
                 for s in paths]
        totals = self.score_lanes(self.encode(x), lanes, teacher=True)
        return nm.sum_all(totals) if single else totals


def _sample_cross_block(dist: StepDistribution, rng: np.random.Generator) -> tuple[int, float]:
    best_tok, best_p = None, -1.0
    for blk in dist.blocks:
        p = dist.probs[list(blk)]
        pick = blk[int(rng.choice(len(blk), p=p / p.sum()))]
        tok, prob = dist.tokens[pick], float(dist.probs[pick])
        if prob > best_p or (prob == best_p and tok < best_tok):
            best_tok, best_p = tok, prob
    return best_tok, best_p


def greedy_choice(dist: StepDistribution) -> tuple[int, float]:
    """Global argmax across every candidate block; ties to lowest token id."""
    i = int(np.argmax(dist.probs))  # tokens ascend, argmax takes the first max
    return dist.tokens[i], float(dist.probs[i])


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_model(path: str, model: LabelPathModel) -> None:
    """Write the PCK1 parameter file plus the ``<path>.json`` sidecar."""
    nm.save_params(path, {k: v.data for k, v in model.params.items()})
    sidecar = {"graph_file": model.graph_file, "input_dim": model.input_dim,
               "embed_dim": model.embed_dim, "hidden": model.hidden}
    with open(path + ".json", "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2)
        f.write("\n")


def read_sidecar(path: str) -> dict:
    """The ``<path>.json`` sidecar. Raises CorruptCheckpoint naming that file
    when it is not a JSON object with a string ``graph_file`` and positive
    int ``input_dim``, ``embed_dim`` and ``hidden``."""
    where = path + ".json"
    with open(where, "r", encoding="utf-8") as f:
        try:
            side = json.load(f)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise CorruptCheckpoint(f"{where}: malformed JSON: {exc}") from None
    if not isinstance(side, dict):
        raise CorruptCheckpoint(f"{where}: not a JSON object")
    for key in ("graph_file", "input_dim", "embed_dim", "hidden"):
        if key not in side:
            raise CorruptCheckpoint(f"{where}: missing key {key!r}")
    if not isinstance(side["graph_file"], str):
        raise CorruptCheckpoint(f"{where}: 'graph_file' must be a string")
    for key in ("input_dim", "embed_dim", "hidden"):
        if type(side[key]) is not int or side[key] < 1:
            raise CorruptCheckpoint(f"{where}: {key!r} must be a positive int, not {side[key]!r}")
    return side


def load_model(path: str, graph: LabelGraph | None = None) -> LabelPathModel:
    side = read_sidecar(path)
    if graph is None:
        gpath = side["graph_file"]
        if not os.path.exists(gpath):
            local = os.path.join(os.path.dirname(os.path.abspath(path)),
                                 os.path.basename(gpath))
            if os.path.exists(local):
                gpath = local
        graph = load_graph(gpath)
    model = LabelPathModel(graph, side["input_dim"], side["embed_dim"],
                           side["hidden"], graph_file=side["graph_file"])
    weights = nm.load_params(path)
    unexpected = sorted(set(weights) - set(model.params))
    if unexpected:
        raise ValueError(f"checkpoint has unexpected parameter {unexpected[0]!r}")
    for name, tensor in model.params.items():
        if name not in weights:
            raise ValueError(f"checkpoint missing parameter {name!r}")
        if weights[name].shape != tensor.data.shape:
            raise ValueError(f"checkpoint shape mismatch for {name!r}")
        tensor.data = weights[name]
    return model
