"""Encoder-decoder path prediction model.

A small tanh MLP encodes the input feature vector; its output initialises the
hidden state of a GRU decoder that walks the label graph one node per step.
At every step the output projection produces logits over the whole vocabulary,
which are masked down to the graph children of the previous token and
normalised with a block softmax over the competing groups present among the
candidates. START and EOP are decoder vocabulary sentinels, never graph nodes.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
from dataclasses import dataclass, fields
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from . import numerics as nm
from .labelgraph import LabelGraph, NodeKind, load_graph, serialize
from .numerics import CorruptCheckpoint, Tensor


class InvalidPath(ValueError):
    pass


class NoCandidates(RuntimeError):
    """A non-label leaf was reached; valid graphs never produce this."""


@dataclass(frozen=True)
class Walk:
    """One row of :class:`Walks`: its nodes, its picks' probabilities and its stop."""

    tokens: tuple[int, ...]
    step_probs: tuple[float, ...]
    terminated_by: str


@dataclass(frozen=True, eq=False)
class Walks:
    """Free-running walks of ``m`` rows, step-major: ``tokens [T, m]`` has each
    row's visited graph nodes as a column, the last repeated past its end (a
    :func:`step_major` lane; EOP is never stored), ``lengths [m]`` their counts,
    ``step_probs [T, m]`` each pick's probability (an EOP pick's too; 0 past the
    end) and ``stop [m]`` why the row stopped: "eop", "max_len" (``T`` steps
    without EOP) or "dead_end" (a node with no candidates). :meth:`row` gives a row."""

    tokens: np.ndarray
    lengths: np.ndarray
    step_probs: np.ndarray
    stop: np.ndarray

    def row(self, i: int) -> Walk:
        n, stop = int(self.lengths[i]), str(self.stop[i])
        return Walk(tuple(self.tokens[:n, i].tolist()),
                    tuple(self.step_probs[:n + (stop == "eop"), i].tolist()), stop)


# Walks.stop, indexed by 2 * (the row picked EOP) + (it ran max_len steps)
_STOPS = np.array(["dead_end", "max_len", "eop", "eop"])


class LabelPathModel:
    """Parameters plus the candidate table for one label graph.

    Token ids: graph node ids, then START (= node count) and EOP (= START+1).
    The candidate table is built with the model: per token, the graph
    children partitioned into their groups restricted to the candidate set,
    singleton blocks for ungrouped children, and an EOP singleton when the
    token is a label node. Each entry's partition is checked and compiled to
    a one-row ``nm.Blocks`` there, once (``_entries``). ``_table`` stacks
    them in token order, each on its token's row; ``_first`` and
    ``_n_blocks`` give each token's blocks in it (none for EOP or a dead
    end), ``_key_block`` is the block of each sorted ``_keys`` entry,
    ``token * vocab_size + candidate``, and ``_key_choice`` flags the keys
    whose block has more than one member. ``_offers_eop`` flags the tokens
    whose entry holds EOP: the label nodes; ``_forced`` gives each token
    whose entry is one singleton block that block's member, and -1 for every
    other token: START's is the root, a leaf label's EOP."""

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
        d, e, h, v = self.input_dim, self.embed_dim, self.hidden, self.vocab_size
        sd_d, sd_e, sd_h = 1.0 / np.sqrt(d), 1.0 / np.sqrt(e), 1.0 / np.sqrt(h)
        self.params = p = nm.parameters({  # drawn in this order
            "enc.w1": rng.normal(0.0, sd_d, (d, h)), "enc.b1": np.zeros(h),
            "enc.w2": rng.normal(0.0, sd_h, (h, h)), "enc.b2": np.zeros(h),
            "emb": rng.normal(0.0, 0.1, (v, e)),
            "gru.w_re": rng.normal(0.0, sd_e, (e, h)), "gru.w_rf": rng.normal(0.0, sd_h, (h, h)),
            "gru.b_r": np.zeros(h),
            "gru.w_ue": rng.normal(0.0, sd_e, (e, h)), "gru.w_uf": rng.normal(0.0, sd_h, (h, h)),
            "gru.b_u": np.zeros(h),
            "gru.w_ce": rng.normal(0.0, sd_e, (e, h)), "gru.w_cf": rng.normal(0.0, sd_h, (h, h)),
            "gru.b_c": np.zeros(h),
            "out.w": rng.normal(0.0, sd_h, (h, v)), "out.b": np.zeros(v),
        })
        self.gru = nm.GruParams(*(p["gru." + f.name] for f in fields(nm.GruParams)))

        self._entries = self._candidate_table()
        toks = sorted(self._entries)
        self._table = table = nm.stack_blocks([self._entries[t] for t in toks], toks)
        block_rows = table.rows[table.starts]
        self._n_blocks = np.bincount(block_rows, minlength=self.vocab_size)
        self._first = np.cumsum(self._n_blocks) - self._n_blocks
        self._has_entry = self._n_blocks > 0
        self._offers_eop = np.zeros(self.vocab_size, dtype=bool)
        self._offers_eop[table.rows[table.cols == self.eop_token]] = True
        self._forced = np.full(self.vocab_size, -1, dtype=np.intp)
        one = np.flatnonzero(self._n_blocks == 1)
        one = one[table.sizes[self._first[one]] == 1]
        self._forced[one] = table.cols[table.starts[self._first[one]]]
        keys = table.rows * self.vocab_size + table.cols
        order = keys.argsort()
        self._keys = keys[order]
        self._key_block = np.arange(block_rows.size).repeat(table.sizes)[order]
        self._key_choice = table.sizes[self._key_block] > 1

    @property
    def encoder_param_names(self) -> tuple[str, ...]:
        return ("enc.w1", "enc.b1", "enc.w2", "enc.b2")

    # -- candidate sets -------------------------------------------------------

    def _candidate_table(self) -> dict[int, nm.Blocks]:
        root, eop = self.graph.root, self.eop_token
        parts = {self.start_token: ((root,), ((0,),))}
        for node in self.graph.nodes:
            toks = self.graph.children(node.id)
            if node.kind is NodeKind.LABEL:
                toks += (eop,)  # the largest id, so toks still ascend
            groups: dict[object, list[int]] = {}
            for i, t in enumerate(toks):
                g = self.graph.group_of(t)
                groups.setdefault(t if g is None else g, []).append(i)
            if groups:
                parts[node.id] = (toks, tuple(map(tuple, groups.values())))
        return {prev: nm.compile_blocks(blocks, toks) for prev, (toks, blocks) in parts.items()}

    def candidates(self, prev: Sequence[int] | np.ndarray) -> nm.Blocks:
        """The candidate blocks after each token of ``prev [m]``, as one
        layout on rows ``0..m-1``, each token's blocks in table order: one
        row is its token's entry, more are one ragged gather from the table.
        A token without an entry raises NoCandidates if it is a graph node (a
        dead end) and InvalidPath otherwise (EOP, or outside the vocabulary).
        """
        prev = np.asarray(prev, dtype=np.intp)
        if prev.size == 1:
            one = self._entries.get(int(prev[0]))
            if one is None:
                self._no_entry(int(prev[0]))
            return one
        n = self._n_blocks.take(prev, mode="clip")
        bad = (n == 0) | (prev < 0) | (prev >= self.vocab_size)
        if bad.any():
            self._no_entry(int(prev[bad][0]))
        ends = n.cumsum()
        ids = (self._first[prev] + n - ends).repeat(n) + np.arange(n.sum())
        return nm.gather_blocks(self._table, np.arange(prev.size).repeat(n), ids)

    def _no_entry(self, token: int) -> None:
        if 0 <= token < len(self.graph.nodes):
            name = self.graph.node(token).name
            raise NoCandidates(f"node {name!r} has no children and no EOP")
        raise InvalidPath(f"token {token} cannot start a decode step")

    # -- forward passes -------------------------------------------------------

    def _input_rows(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.input_dim:
            raise nm.ShapeMismatch(f"encode: expected [m,{self.input_dim}], got {arr.shape}")
        nm.require_finite(arr, "inputs")
        return arr

    def encode(self, x: np.ndarray) -> Tensor:
        """Feature matrix [m, hidden] for inputs [m, input_dim] (or one row)."""
        p = self.params
        h = nm.tanh(nm.affine(Tensor(self._input_rows(x)), p["enc.w1"], p["enc.b1"]))
        return nm.affine(h, p["enc.w2"], p["enc.b2"])

    def encode_values(self, x: np.ndarray) -> np.ndarray:
        """The values of :meth:`encode` as a plain array, from the same
        expressions and with no trace."""
        p = self.params
        pre = self._input_rows(x) @ p["enc.w1"].data + p["enc.b1"].data[None, :]
        return np.tanh(pre) @ p["enc.w2"].data + p["enc.b2"].data[None, :]

    def decode_logits(self, f0: Tensor, tokens: Sequence[int], parent: Sequence[int],
                      sizes: Sequence[int]) -> tuple[Tensor, Tensor]:
        """States and logits of rows fed ``tokens``: one ``gather_rows``, one
        ``gru_step`` and one ``affine``. ``tokens [N]`` are the nodes of a
        prefix forest on ``f0``'s rows, as ``nm.gru_step`` takes it (see
        :func:`prefix_forest`)."""
        e = nm.gather_rows(self.params["emb"], tokens)
        f = nm.gru_step(self.gru, e, f0, parent, sizes)
        return f, nm.affine(f, self.params["out.w"], self.params["out.b"])

    def step(self, f_prev: np.ndarray,
             prev: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray, nm.Blocks]:
        """Decode step of ``m`` rows on plain arrays: from states ``[m,h]`` and
        previous tokens ``[m]``, the next-token block softmax ``[m, vocab]``,
        the new states ``[m,h]`` and the rows' :meth:`candidates` layout. The
        values are those of ``decode_logits`` (the GRU runs through the same
        ``nm.gru_forward``), with no trace. The tokens are checked before any
        arithmetic (see :meth:`candidates`; a token outside the vocabulary
        raises IndexOutOfRange, with no wrap-around for a negative id). A
        non-finite logit raises NonFiniteValue naming the logits."""
        prev = np.asarray(prev, dtype=np.intp)
        try:
            blocks = self.candidates(prev)
        except InvalidPath:
            if ((prev < 0) | (prev >= self.vocab_size)).any():
                raise nm.IndexOutOfRange("step: token outside the vocabulary") from None
            raise
        f_t = nm.gru_forward(self.gru, self.params["emb"].data.take(prev, axis=0), f_prev)[-1]
        z = f_t @ self.params["out.w"].data + self.params["out.b"].data[None, :]
        nm.require_finite(z, "logits")
        return nm.block_softmax(z, blocks), f_t, blocks

    def score_lanes(self, f: Tensor, rows: np.ndarray, target: np.ndarray, n: np.ndarray,
                    teacher: np.ndarray) -> Tensor:
        """Differentiable summed log-probability of each lane's target tokens.

        A lane is a column of the step-major ``target [T, m]`` with its
        length in ``n [m]`` (see :func:`step_major`), and its decoder state
        is row ``rows[i]`` of ``f [b, h]``. It is fed START and then, where
        its flag in the bools ``teacher [m]`` is set, its targets, and
        otherwise its greedy :meth:`walk` from its row, which runs once per
        distinct row of those lanes and to their longest length; a lane whose
        feed has ended is fed its last token again. A first target that is
        not a candidate after START raises InvalidPath, and on a
        teacher-forced lane so does the first other one in step-major order
        (NoCandidates after a dead end). Otherwise such a target is skipped,
        as is every step after the walk's EOP.

        The lanes' steps run as the nodes of one :func:`prefix_forest`, one
        per distinct row and fed prefix that some lane reaches within its
        length, so lanes of one row that share a prefix share its states.
        Returns the per-lane totals as one ``[m]`` Tensor, from one
        ``decode_logits`` over the nodes and one ``block_log_prob`` whose
        blocks are the scored steps', each on its lane's node's logits row
        and summed into its lane in step order. A step whose target is alone
        in its block (every lane's START -> root, a closing EOP) scores
        exactly 0 with a zero gradient, so it is left out; a lane's closing
        EOP runs no node.
        """
        T, m = target.shape
        fed = np.empty_like(target)  # START, then the targets or the walks
        fed[0], fed[1:] = self.start_token, target[:-1]
        n_fed = n
        free = np.flatnonzero(~teacher)
        if free.size:
            own, back = np.unique(rows[free], return_inverse=True)  # a row's lanes walk alike
            walks = self.walk(f.data[own], max(int(n[free].max()) - 1, 2), greedy_pick)
            n_fed = n.copy()  # T - 1 fed steps: a walk's last step repeats past its end
            cut = np.minimum(np.arange(T - 1), len(walks.tokens) - 1)[:, None]
            fed[1:, free], n_fed[free] = walks.tokens[cut, back], walks.lengths[back]
        scored = np.arange(T)[:, None] < np.minimum(n, n_fed + 1)  # none after a walk's EOP
        key = fed * self.vocab_size + target  # a real pair's key for some out-of-range targets
        at = self._keys.searchsorted(key).clip(max=self._keys.size - 1)
        hit = (self._keys[at] == key) & (target >= 0) & (target < self.vocab_size)
        checked = scored & teacher  # free-running lanes: step 0 only
        checked[0] = True
        miss = np.flatnonzero(~hit & checked)
        if miss.size:
            prev = int(fed.flat[miss[0]])
            self.candidates([prev])  # NoCandidates after a dead end, InvalidPath after EOP
            raise InvalidPath(f"token {target.flat[miss[0]]} is not a candidate after {prev}")
        steps = np.flatnonzero(scored & hit & self._key_choice[at])  # t*m + lane
        closed = target[n - 1, np.arange(m)] == self.eop_token  # runs no node: see above
        node, tokens, parent, sizes = prefix_forest(fed, rows, n - closed)
        _, z = self.decode_logits(f, tokens, parent, sizes)
        nm.require_finite(z.data, "logits")
        blocks = nm.gather_blocks(self._table, node.flat[steps], self._key_block[at.flat[steps]])
        return nm.block_log_prob(z, blocks, target.flat[steps], steps % m, m)

    def walk(self, f: np.ndarray, max_len: int,
             pick: Callable[[np.ndarray | None, nm.Blocks | np.ndarray],
                            tuple[np.ndarray, np.ndarray]]) -> Walks:
        """Free-run the decoder from START for every row of the states
        ``f [m, h]`` in lockstep: one :meth:`step` over the rows still
        walking, whose probabilities and candidate layout ``pick`` turns into
        each such row's token and its probability. A row stops at EOP, after
        ``max_len`` steps, or at a dead-end augmented node (possible on
        subgraphs; its walk truncates there, with no step from it). Returns
        the rows' :class:`Walks`, ``max_len`` steps long.

        A step is forced when every such row's token has one candidate, one
        singleton block (``_forced``): START's root, a leaf label's EOP. It
        runs no head, softmax or candidate lookup: ``pick(None, tokens)``
        takes the forced tokens with probability 1.0, what the softmax of a
        singleton gives, and the GRU updates the states only if some row
        walks on to a next step. The weights are checked once per walk, so one
        that only a forced step reads, or that a gate saturates, is named.
        """
        if max_len < 2:
            raise ValueError("max_len must be at least 2")
        nm.require_finite_parameters(self.params)
        m = f.shape[0]
        toks = np.zeros((max_len, m), dtype=np.intp)  # step-major, so a step
        probs = np.zeros((max_len, m))  # writes one row of each
        n = np.full(m, max_len)  # each row's nodes: its steps, less an EOP pick
        ended = np.zeros(m, dtype=bool)
        rows = np.arange(m)  # the rows still walking
        prev = np.full(m, self.start_token, dtype=np.intp)
        for t in range(max_len):
            if not rows.size:
                break
            forced = self._forced[prev]
            if forced.min() < 0:
                p, f, blocks = self.step(f, prev)
                tok, probs[t][rows] = pick(p, blocks)
            else:  # forced: no head, softmax or candidate lookup
                tok, probs[t][rows] = pick(None, forced)
                if t + 1 < max_len and np.count_nonzero(self._has_entry[tok]):
                    f = nm.gru_forward(self.gru, self.params["emb"].data.take(prev, axis=0), f)[-1]
            toks[t][rows] = tok
            going = self._has_entry[tok]  # neither EOP nor a dead end
            if np.count_nonzero(going) != going.size:  # cheaper than .all() on few rows
                stop = rows[~going]
                ended[stop] = tok[~going] == self.eop_token
                n[stop] = t + 1 - ended[stop]
                rows, tok, f = rows[going], tok[going], f[going]
            prev = tok
        return Walks(toks[np.minimum(np.arange(max_len)[:, None], n - 1), np.arange(m)], n, probs,
                     _STOPS[2 * ended + (n == max_len)])

    def sample_path(self, x: np.ndarray, rng: np.random.Generator,
                    max_len: int) -> Walks:
        """Ancestral samples from the decoder, one per row of ``x [m, d]``,
        free-running from START in lockstep.

        Within each candidate block one member is drawn from the block's
        distribution; across blocks the drawn member with the highest
        probability wins (ties to the lowest token id). Draws are step-major:
        at each step the rows still walking, in row order, each take one
        ``rng.random()`` per block, in block order. A forced step (see
        :meth:`walk`) computes no probabilities but still takes its one draw
        per row, so the samples are those of drawing every step.
        """
        return self.walk(self.encode_values(x), max_len, lambda p, b: self._draw(p, b, rng))

    def _draw(self, p: np.ndarray | None, b: nm.Blocks | np.ndarray,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """One sampled token per row of ``p [m, vocab]``, with its
        probability, in one pass over the rows' candidate layout ``b``. Each
        block is drawn by inverse CDF on one ``rng.random()``, the arithmetic
        of ``rng.choice(size, p=q / q.sum())``; the draws go row after row,
        each row's in block order. On a forced step ``p`` is None and ``b``
        the forced tokens: each row's one singleton block takes its draw and
        gives its token, with probability 1.0."""
        if p is None:
            rng.random(b.size)
            return b, np.ones(b.size)
        nb = b.sizes.size
        u = rng.random(nb)
        q = p[b.rows, b.cols]
        entry, block = np.arange(q.size), np.arange(nb).repeat(b.sizes)
        # reduceat adds a segment's first term to the pairwise sum of the
        # rest; a leading zero per block makes that numpy's sum of a vector
        lead = np.zeros(q.size + nb)
        lead[entry + block + 1] = q
        total = np.add.reduceat(lead, b.starts + np.arange(nb))
        # zero-padded rows: a block's CDF sums in its own order, and its
        # last value fills the padding
        cdf = np.zeros((nb, int(b.sizes.max())))
        cdf[block, entry - b.starts[block]] = q / total[block]
        cdf = cdf.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        # searchsorted(side="right") on each block's ascending CDF; a
        # singleton's CDF is [1.0] and u < 1
        drawn = b.starts + (cdf <= u[:, None]).sum(axis=1)
        mass, row = q[drawn], b.rows[b.starts]
        first = row.searchsorted(np.arange(p.shape[0]))  # each row's first block
        top = np.maximum.reduceat(mass, first)
        tok = np.where(mass == top[row], b.cols[drawn], self.vocab_size)
        return np.minimum.reduceat(tok, first), top

    def sampled_path_log_prob(self, sampled: Walks) -> tuple[np.ndarray, np.ndarray]:
        """The rescoring lanes of sampled walks, as :func:`step_major`
        targets and lengths: each walk's own tokens. :meth:`score_lanes`,
        teacher-forced from the states the walks started from, gives each
        walk's log-probability along the same choices. A walk that picked
        EOP gets no closing EOP, as a teacher-forced lane gets none: EOP is a
        singleton block, so its log-probability is exactly 0. Such a walk
        whose last token offers no EOP (no label node) raises InvalidPath.
        """
        target, n = sampled.tokens[:sampled.lengths.max()], sampled.lengths
        last = target[-1]  # each lane's last token; one out of range clips to root or EOP
        bad = (sampled.stop == "eop") & ~self._offers_eop.take(last, mode="clip")
        if bad.any():
            raise InvalidPath(f"token {self.eop_token} is not a candidate after "
                              f"{int(last[bad][0])}")
        return target, n


def greedy_pick(probs: np.ndarray | None,
                blocks: nm.Blocks | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the global argmax of a :meth:`LabelPathModel.step`'s
    probabilities across every candidate block, and its probability; ties to
    the lowest token id (``argmax`` takes the first maximum, and no token off
    the candidates has mass, so ``blocks`` is not read). On a forced step of
    :meth:`LabelPathModel.walk` ``probs`` is None and ``blocks`` the forced
    tokens, each the only candidate of its row: probability 1.0."""
    if probs is None:
        return blocks, np.ones(blocks.size)
    return probs.argmax(axis=1), probs.max(axis=1)


def prefix_forest(fed: np.ndarray, rows: np.ndarray, n: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The GRU rows of lanes fed the step-major tokens ``fed [T, m]`` from
    the states ``rows [m]``, lane i for its first ``n[i]`` steps: one node
    per distinct row and fed prefix, numbered step after step. A lane
    shares the node of the lane before it at step t when both are of one
    row, both run step t and were fed alike up to it; so every shared
    prefix is found when the lanes of a row are adjacent and in
    lexicographic order, as a batch's lanes are.

    Returns each lane's node at each step ``[T, m]`` (a step past a lane's
    end holds some node, which no caller reads), and the nodes' tokens,
    parents and the sizes of the steps up to the longest lane's end, as
    ``nm.gru_step`` takes them: a node of step 0 starts from its row, one of
    step t from its lane's node of step t-1."""
    T, m = fed.shape
    runs = np.arange(T)[:, None] < n
    apart = np.ones((T, m), dtype=bool)  # lane i is not on lane i-1's node
    apart[:, 1:] = (fed[:, 1:] != fed[:, :-1]) | ~runs[:, :-1]
    apart[0, 1:] |= rows[1:] != rows[:-1]
    new = np.logical_or.accumulate(apart, axis=0) & runs
    node = new.ravel().cumsum().reshape(T, m) - 1
    sizes = np.count_nonzero(new, axis=1)
    own = node - (sizes.cumsum() - sizes)[:, None]  # counted within its step
    return (node, fed[new], np.concatenate([rows[None], own[:-1]])[new],
            sizes[:n.max(initial=0)])


def step_major(seqs: Sequence[Sequence[int]], steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Sequences of int tokens as ``[steps, len(seqs)]``, one a column, each
    last token repeated past its end; and their lengths. An empty sequence
    raises InvalidPath, and a token that is no int TypeError."""
    n = np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs))
    if not n.all():
        raise InvalidPath("empty lane")
    if not n.size:
        return np.zeros((steps, 0), dtype=np.intp), n
    flat = np.array(list(chain.from_iterable(seqs))).astype(np.intp, casting="safe")
    return flat[n.cumsum() - n + np.minimum(np.arange(steps)[:, None], n - 1)], n


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def graph_digest(graph: LabelGraph) -> str:
    """``hashlib.sha256`` of the canonical graph JSON (``labelgraph.serialize``)."""
    return hashlib.sha256(serialize(graph).encode("utf-8")).hexdigest()


def save_model(path: str, model: LabelPathModel) -> None:
    """Write the PCK1 parameter file plus the ``<path>.json`` sidecar, both
    through ``nm.written``: the sidecar first, so a checkpoint is written
    with its sidecar or not at all."""
    sidecar = {"graph_file": model.graph_file, "input_dim": model.input_dim,
               "embed_dim": model.embed_dim, "hidden": model.hidden,
               "graph_sha256": graph_digest(model.graph)}
    with nm.written(path + ".json") as write:
        write(json.dumps(sidecar, indent=2) + "\n")
        nm.save_params(path, {k: v.data for k, v in model.params.items()})


def read_sidecar(path: str) -> dict:
    """The ``<path>.json`` sidecar. Raises CorruptCheckpoint naming that file
    when it is not a JSON object with a string ``graph_file``, positive int
    ``input_dim``, ``embed_dim`` and ``hidden``, and a ``graph_sha256`` of 64
    lowercase hex digits. There is one sidecar format: one without the
    digest is rejected too."""
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
    if "graph_sha256" not in side:
        raise CorruptCheckpoint(f"{where}: missing key 'graph_sha256'")
    digest = side["graph_sha256"]
    if not isinstance(digest, str) or not re.fullmatch("[0-9a-f]{64}", digest):
        raise CorruptCheckpoint(f"{where}: 'graph_sha256' must be 64 lowercase hex digits, "
                                f"not {digest!r}")
    return side


def load_model(path: str, graph: LabelGraph | None = None) -> LabelPathModel:
    """Rebuild a model from ``save_model``'s files. Without ``graph`` the
    sidecar's ``graph_file`` is loaded, or else a file of the same basename
    next to the checkpoint. Either way, a graph whose digest differs from the
    sidecar's ``graph_sha256`` raises CorruptCheckpoint naming the sidecar.
    A missing checkpoint raises FileNotFoundError naming it, not its sidecar."""
    if not os.path.exists(path):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    side = read_sidecar(path)
    source = "the given graph"
    if graph is None:
        gpath = side["graph_file"]
        if not os.path.exists(gpath):
            local = os.path.join(os.path.dirname(os.path.abspath(path)),
                                 os.path.basename(gpath))
            if os.path.exists(local):
                gpath = local
        graph = load_graph(gpath)
        source = f"graph file {gpath}"
    digest = graph_digest(graph)
    if digest != side["graph_sha256"]:
        raise CorruptCheckpoint(f"{path}.json: {source} has sha256 {digest}, "
                                f"not the checkpoint's graph_sha256 {side['graph_sha256']}")
    model = LabelPathModel(graph, side["input_dim"], side["embed_dim"],
                           side["hidden"], graph_file=side["graph_file"])
    weights = nm.load_params(path)
    unexpected = sorted(set(weights) - set(model.params))
    if unexpected:
        raise ValueError(f"{path}: unexpected parameter {unexpected[0]!r}")
    for name, tensor in model.params.items():
        if name not in weights:
            raise ValueError(f"{path}: missing parameter {name!r}")
        if weights[name].shape != tensor.data.shape:
            raise ValueError(f"{path}: parameter {name!r} has shape "
                             f"{list(weights[name].shape)}, not {list(tensor.data.shape)}")
        tensor.data[...] = weights[name]
    return model
