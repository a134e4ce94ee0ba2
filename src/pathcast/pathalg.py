"""Root-to-label path enumeration, deterministic/nondeterministic split,
and the certain-node set used by the policy-gradient reward.

A groundtruth path is *nondeterministic* when some other groundtruth path for
the same label carries a different member of the same competing group: the
annotation alone cannot tell which branch the instance took. Everything here
is a pure function over an immutable graph; results may be cached freely.

On DAGs with cross-links the number of paths grows exponentially with depth.
Only :func:`all_paths_to` and the split, which return the paths themselves,
enumerate them; the split is then linear in their total length. The certain
set, the nondeterministic groups and the union of all paths come from
:func:`_path_counts`, which is linear in the size of the label's ancestor
sub-DAG: it takes that sub-DAG with ``labelgraph._closure`` and orders it
with ``labelgraph._topo_order``, the two graph walks of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .labelgraph import LabelGraph, NodeKind, _closure, _topo_order


class NotALabelNode(ValueError):
    pass


@dataclass(frozen=True)
class PathSet:
    """All simple root-to-label paths for one label, split by determinism."""

    label: int
    deterministic: tuple[tuple[int, ...], ...]
    nondeterministic: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CertainNodeSet:
    """Nodes guaranteed correct for a label: on every groundtruth path."""

    label: int
    members: frozenset[int]


def _require_label(graph: LabelGraph, node_id: int) -> None:
    if not 0 <= node_id < len(graph.nodes):
        raise NotALabelNode(f"node {node_id} does not exist")
    if graph.node(node_id).kind is not NodeKind.LABEL:
        raise NotALabelNode(f"node {graph.node(node_id).name!r} is not a label node")


def all_paths_to(graph: LabelGraph, target: int) -> list[tuple[int, ...]]:
    """Exhaustive simple root-to-target paths, lexicographic by id sequence.

    Plain DFS without memoisation. Its output can be exponential in the
    graph's depth, so only callers that want the paths themselves use it;
    questions about the set of paths go through :func:`_path_counts`. Works
    for any non-root target node; the public :func:`enumerate_paths`
    restricts it to label nodes.
    """
    root = graph.root
    out: list[tuple[int, ...]] = []
    if target == root:
        return [(root,)]
    path = [root]
    on_path = {root}

    def dfs(node: int) -> None:
        for child in graph.children(node):  # children are sorted by id
            if child in on_path:
                continue
            if child == target:
                out.append(tuple(path) + (child,))
                continue
            path.append(child)
            on_path.add(child)
            dfs(child)
            path.pop()
            on_path.remove(child)

    dfs(root)
    out.sort()
    return out


def enumerate_paths(graph: LabelGraph, label: int) -> list[tuple[int, ...]]:
    """All simple root-to-label prediction paths for a label node."""
    _require_label(graph, label)
    return all_paths_to(graph, label)


def are_competing(graph: LabelGraph, u: int, w: int) -> bool:
    """True iff u and w belong to the same (explicit or implicit) group."""
    if u == w:
        raise ValueError("are_competing requires two distinct nodes")
    gu = graph.group_of(u)
    return gu is not None and w in gu.members


def _path_counts(graph: LabelGraph, target: int
                 ) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """Nodes on some root-to-target path, in topological order, with the
    number of paths from the root to each (``fwd``) and from each to the
    target (``bwd``); ``fwd[v] * bwd[v]`` paths pass through v.

    The nodes are the target's ancestors that the root reaches, plus the
    target; the counts are exact ints. Empty when the root cannot reach the
    target. Raises CycleDetected when the target's ancestors contain a
    cycle, which only an unvalidated graph can have.
    """
    root = graph.root
    up = _closure(graph, target, up=True)
    if root not in up:
        return [], {}, {}
    fwd: dict[int, int] = {}
    for v in _topo_order(graph, up):
        fwd[v] = 1 if v == root else sum(fwd[p] for p in graph.parents(v))
    order = [v for v in fwd if fwd[v]]  # drops ancestors the root cannot reach
    bwd = {target: 1}
    for v in reversed(order[:-1]):
        bwd[v] = sum(bwd.get(c, 0) for c in graph.children(v))
    return order, fwd, bwd


def _competing_groups(graph: LabelGraph, nodes) -> dict[str, set[int]]:
    """Members among ``nodes`` of each group that has two or more of them."""
    seen: dict[str, set[int]] = {}
    for node in nodes:
        g = graph.group_of(node)
        if g is not None:
            seen.setdefault(g.name, set()).add(node)
    return {name: members for name, members in seen.items() if len(members) >= 2}


def _split_paths(graph: LabelGraph, target: int) -> PathSet:
    paths = all_paths_to(graph, target)
    sets = [frozenset(p) for p in paths]
    # A group taints the label when two of its members lie on its paths and
    # two paths touch it; a path is nondeterministic iff it touches a
    # tainted group. One path holding two members of an otherwise untouched
    # group stays deterministic: the pairwise definition needs another path.
    tainted: set[int] = set()
    for members in _competing_groups(graph, frozenset().union(*sets)).values():
        touching = (s for s in sets if not s.isdisjoint(members))
        if len(list(islice(touching, 2))) == 2:
            tainted |= members
    det = tuple(p for p, s in zip(paths, sets) if s.isdisjoint(tainted))
    ndet = tuple(p for p, s in zip(paths, sets) if not s.isdisjoint(tainted))
    return PathSet(label=target, deterministic=det, nondeterministic=ndet)


def classify_paths(graph: LabelGraph, label: int) -> PathSet:
    """Partition a label's groundtruth paths into deterministic/nondeterministic.

    A path P is nondeterministic iff another path P' for the same label
    contains a node w competing with some u on P with w != u; deterministic
    otherwise. Classification only depends on the set of paths, never on
    their enumeration order.
    """
    _require_label(graph, label)
    return _split_paths(graph, label)


def _certain_members(graph: LabelGraph, target: int) -> frozenset[int]:
    order, fwd, bwd = _path_counts(graph, target)
    if not order:
        return frozenset({target})
    total = fwd[target]
    return frozenset(v for v in order if fwd[v] * bwd[v] == total)


def certain_nodes(graph: LabelGraph, label: int) -> CertainNodeSet:
    """Reward set for a label: intersection of all its paths, plus the label.

    Nodes on every groundtruth path are exactly those the annotation
    guarantees; ambiguous group members (on some paths but not all) are
    excluded so sampling them is neither rewarded nor punished.
    """
    _require_label(graph, label)
    return CertainNodeSet(label=label, members=_certain_members(graph, label))
