"""Root-to-label path sets, the deterministic/nondeterministic split, and
the certain-node set used by the policy-gradient reward.

A groundtruth path is *nondeterministic* when some other groundtruth path for
the same label carries a different member of the same competing group: the
annotation alone cannot tell which branch the instance took. Everything here
is a pure function over an immutable graph.

On DAGs with cross-links the number of paths grows exponentially with depth,
so no function here builds them unless asked to. Every query starts from
:func:`_path_counts`, the target's counted ancestor sub-DAG: taken with
``labelgraph._closure``, sorted by the graph's one Kahn order (which
``labelgraph._topo_order`` and ``validate`` read), read against the
root-path counts over that order (:func:`_forward`), and counted backward
to the target. The certain set, the taint and the union of all paths read
those counts. :func:`all_paths_to` returns a counted :class:`Paths`
sequence: the backward count, or one more backward pass over that order
minus the avoided nodes, from which any path is unranked in time linear in
its length times the out-degree, and iteration builds each path in turn.
:func:`_tainted`, the one nondeterminism rule, reads a competing group's
taint from those counts when one of its members lies on two or more paths,
and otherwise counts the paths that touch the group, so it is polynomial
too; the split and the evaluation audit both read it. No function here
builds every path. The counts, the taint, the split and the certain set
are ``labelgraph.kept`` queries: each is built once per graph and target
and kept in the graph's one memo, which every caller reads.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from types import MappingProxyType

from .labelgraph import LabelGraph, NodeKind, _closure, _graph_order, _topo_order, kept


class NotALabelNode(ValueError):
    pass


def _require_label(graph: LabelGraph, node_id: int) -> None:
    if not 0 <= node_id < len(graph.nodes):
        raise NotALabelNode(f"node {node_id} does not exist")
    if graph.node(node_id).kind is not NodeKind.LABEL:
        raise NotALabelNode(f"node {graph.node(node_id).name!r} is not a label node")


class Paths:
    """Simple root-to-target paths of a DAG, counted, and built only when
    indexed or iterated, in lexicographic order of their id sequences.

    ``counts[v]`` is the number of paths from v to the target in the set's
    sub-DAG; nodes with no such path are left out. With ``through``, only the
    paths that meet one of its nodes belong to the set, and ``around[v]``
    counts the v-to-target paths that meet none of them. ``total`` is the
    exact size, which ``len`` also gives while it fits a machine word.
    Indexing unranks one path by walking the children in id order and
    subtracting each child's count, and keeps the path; iteration is a DFS
    in child-id order, pruned to children with a nonzero count. Both are
    loops, so the depth of the graph is not bounded by Python's recursion
    limit.
    """

    def __init__(self, graph: LabelGraph, target: int, counts: Mapping[int, int],
                 through: frozenset[int] = frozenset(), around: Mapping[int, int] | None = None):
        self.graph, self.target = graph, target
        self._counts, self._through, self._around = counts, through, around or {}
        self._built: dict[int, tuple[int, ...]] = {}
        self.total, _ = self._left(graph.root, False)

    def _left(self, node: int, met: bool) -> tuple[int, bool]:
        """Paths of the set that go on from ``node``, reached by a prefix that
        ``met`` the ``through`` nodes or not; and whether the prefix up to
        ``node`` has met them."""
        met = met or node in self._through
        return self._counts.get(node, 0) - (0 if met else self._around.get(node, 0)), met

    def _branches(self, node: int, met: bool):
        """(child, paths of the set that go on through it, met) per child of
        ``node`` that some of them go on through, in id order."""
        for child in self.graph.children(node):  # children are sorted by id
            n, child_met = self._left(child, met)
            if n:
                yield child, n, child_met

    def __len__(self) -> int:
        return self.total

    def __bool__(self) -> bool:
        return self.total > 0

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        root = self.graph.root
        if not self.total:
            return
        if root == self.target:
            yield (root,)
            return
        path, todo = [root], [self._branches(root, root in self._through)]
        while todo:
            step = next(todo[-1], None)
            if step is None:
                todo.pop()
                path.pop()
                continue
            child, _, met = step
            if child == self.target:
                yield (*path, child)
            else:
                path.append(child)
                todo.append(self._branches(child, met))

    def __getitem__(self, key: int | slice):
        """The path of rank ``key``, or a list of the paths a slice picks."""
        ranks = range(self.total)[key]  # IndexError past either end
        if isinstance(key, slice):
            return [self._path(k) for k in ranks]
        return self._path(ranks)

    def _path(self, k: int) -> tuple[int, ...]:
        # The lane table keeps det[:n_p]; random aggregation draws the same ranks again.
        if k not in self._built:
            self._built[k] = self._unrank(k)
        return self._built[k]

    def _unrank(self, k: int) -> tuple[int, ...]:
        node = self.graph.root
        met = node in self._through
        path = [node]
        while node != self.target:
            for child, n, child_met in self._branches(node, met):
                if k < n:
                    break
                k -= n
            node, met = child, child_met
            path.append(node)
        return tuple(path)


def _counts_to(graph: LabelGraph, target: int, order: Sequence[int]) -> dict[int, int]:
    """Paths from each node of ``order``, a topological order, to ``target``
    over the edges among those nodes; nodes with none are left out."""
    counts: dict[int, int] = {}
    get, children = counts.get, graph.children
    for v in reversed(order):
        if v == target:
            counts[v] = 1
            continue
        n = 0
        for c in children(v):
            n += get(c, 0)
        if n:
            counts[v] = n
    return counts


def all_paths_to(graph: LabelGraph, target: int, avoid: frozenset[int] = frozenset()) -> Paths:
    """Simple root-to-target paths that meet no node of ``avoid``, counted.

    The backward count of :func:`_path_counts`, or, with ``avoid``, one
    backward count over its order minus ``avoid`` (still a topological
    order); no path is built until the result is indexed or iterated. Works
    for any target node. Raises CycleDetected when the target's ancestors
    contain a cycle, which only an unvalidated graph can have, even one
    inside ``avoid``.
    """
    order, _, bwd = _path_counts(graph, target)
    if not avoid:
        return Paths(graph, target, bwd)
    return Paths(graph, target, _counts_to(graph, target, [v for v in order if v not in avoid]))


@kept
def _forward(graph: LabelGraph) -> tuple[Mapping[int, int], Mapping[int, int]]:
    """The rank of each node in the graph's Kahn order and the number of
    paths from the root to it, built at the first path query on the graph.
    A graph with a cycle ranks and counts only the nodes that are neither on
    nor below one."""
    root, parents = graph.root, graph.parents
    rank: dict[int, int] = {}
    fwd: dict[int, int] = {}
    for i, v in enumerate(_graph_order(graph)):
        rank[v] = i
        fwd[v] = 1 if v == root else sum(fwd[p] for p in parents(v))
    return rank, MappingProxyType(fwd)


@kept
def _path_counts(graph: LabelGraph, target: int
                 ) -> tuple[tuple[int, ...], Mapping[int, int], Mapping[int, int]]:
    """Nodes on some root-to-target path, in topological order, with the
    number of paths from the root to each (``fwd``) and from each to the
    target (``bwd``); ``fwd[v] * bwd[v]`` paths pass through v.

    The nodes are the target's ancestors that the root reaches, plus the
    target, in the graph's Kahn order; ``fwd`` is the graph's count
    (:func:`_forward`). The counts are exact ints, in read-only mappings.
    Empty when the root cannot reach the target. Kept, so each label's
    ancestors are walked once per graph. Raises CycleDetected when the
    target's ancestors contain a cycle, which only an unvalidated graph can
    have, whether or not the root reaches it.
    """
    rank, fwd = _forward(graph)
    ancestors = _closure(graph, target, up=True)
    if not rank.keys() >= ancestors:
        # An unranked ancestor lies on or below a cycle among the ancestors.
        _topo_order(graph, ancestors)
    # an ancestor the root cannot reach has no root path and is left out
    order = tuple(sorted((v for v in ancestors if fwd[v]), key=rank.__getitem__))
    return order, fwd, MappingProxyType(_counts_to(graph, target, order))


def _competing_groups(graph: LabelGraph, nodes) -> dict[str, frozenset[int]]:
    """Members among ``nodes`` of each group that has two or more of them."""
    seen: dict[str, set[int]] = {}
    for node in nodes:
        g = graph.group_of(node)
        if g is not None:
            seen.setdefault(g.name, set()).add(node)
    return {name: frozenset(members) for name, members in seen.items() if len(members) >= 2}


@kept
def _tainted(graph: LabelGraph, target: int) -> Mapping[str, frozenset[int]]:
    """The competing groups that make some of the target's paths
    nondeterministic, each with its members on those paths.

    A group taints the target when two of its members lie on its paths and
    two paths touch it: then some path carries a member that another path
    does not, which the annotation alone cannot settle. One path holding
    two members of an otherwise untouched group taints nothing: the
    pairwise definition needs another path. The counts read the test off
    at once when a member v lies on two or more paths (``fwd[v] > 1`` or
    ``bwd[v] > 1``). Only a group whose every member lies on one path is
    counted again: the paths that touch it are all paths minus those that
    avoid its members. Kept, read-only, next to the counts.
    """
    order, fwd, bwd = _path_counts(graph, target)
    total = bwd.get(graph.root, 0)
    return MappingProxyType({
        name: members for name, members in _competing_groups(graph, order).items()
        if any(fwd[v] > 1 or bwd[v] > 1 for v in members)
        or total - all_paths_to(graph, target, members).total >= 2})


@kept
def _split_paths(graph: LabelGraph, target: int) -> tuple[Paths, Paths]:
    """The target's deterministic and nondeterministic paths, counted: a
    path is nondeterministic iff it touches a group of :func:`_tainted`."""
    tainted = frozenset().union(*_tainted(graph, target).values())
    det = all_paths_to(graph, target, tainted)
    return det, Paths(graph, target, _path_counts(graph, target)[2], tainted, det._counts)


@kept
def _certain_members(graph: LabelGraph, target: int) -> frozenset[int]:
    """Reward set for a target: the nodes on every one of its paths, plus
    the target. Nodes on every groundtruth path are exactly those the
    annotation guarantees; ambiguous group members (on some paths but not
    all) are excluded so sampling them is neither rewarded nor punished."""
    order, fwd, bwd = _path_counts(graph, target)
    if not order:
        return frozenset({target})
    total = fwd[target]
    return frozenset(v for v in order if fwd[v] * bwd[v] == total)
