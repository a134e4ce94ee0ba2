"""Knowledge-driven label graph: data model, construction, validation, files.

A label graph is a rooted DAG joining the label sets of several datasets.
Nodes are the root, dataset labels (tagged with the datasets that use them)
and untagged augmented nodes that bridge label sets. Mutually exclusive
alternatives are collected into competing-node groups, either declared
explicitly or derived implicitly for ungrouped siblings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import wraps
from typing import Callable, Collection, Iterable, Sequence

from .numerics import written


class NodeKind(Enum):
    ROOT = "root"
    LABEL = "label"
    AUGMENTED = "augmented"


@dataclass(frozen=True)
class GraphNode:
    id: int
    name: str
    kind: NodeKind
    tags: frozenset[str]


@dataclass(frozen=True)
class Group:
    name: str
    members: frozenset[int]


@dataclass(frozen=True)
class GraphStats:
    label_count: int
    augmented_count: int
    edge_count: int
    group_count: int
    max_depth: int


@dataclass(frozen=True)
class Violation:
    """One invariant violation; ``code`` names the broken invariant."""

    code: str
    message: str
    names: tuple[str, ...] = ()


class GraphError(ValueError):
    """Construction failure; ``names`` carries the offending node names."""

    def __init__(self, message: str, names: Iterable[str] = ()):
        super().__init__(message)
        self.names = tuple(names)


class CycleDetected(GraphError):
    pass


class UnreachableNode(GraphError):
    pass


class DuplicateGroupMembership(GraphError):
    pass


class UnknownName(GraphError):
    pass


class InvalidGraph(GraphError):
    """Catch-all for other invariant breaks found at construction time."""

    def __init__(self, violations: Sequence[Violation]):
        super().__init__("; ".join(v.message for v in violations))
        self.violations = tuple(violations)
        self.names = tuple(n for v in violations for n in v.names)


def canonical_name(name: str) -> str:
    """Canonical node-name form: lowercase, spaces collapsed to hyphens."""
    return "-".join(name.strip().lower().split())


class LabelGraph:
    """Immutable rooted DAG over label/augmented nodes with competing groups.

    Instances are cheap read-only views: adjacency, the name index and the
    node-to-group map are precomputed once. Construct through
    :func:`build_graph` or :func:`deserialize`; direct construction skips
    validation. ``_memo`` starts empty and holds every fact derived from the
    graph (its Kahn order, path counts, taint, split and certain sets), each
    built once by a :func:`kept` query.
    """

    __slots__ = ("nodes", "edges", "groups", "root", "_children", "_parents", "_by_name",
                 "_group_of", "_memo")

    def __init__(self, nodes: Sequence[GraphNode], edges: Sequence[tuple[int, int]],
                 groups: Sequence[Group], root: int = 0):
        self.nodes: tuple[GraphNode, ...] = tuple(nodes)
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted((int(a), int(b)) for a, b in edges))
        self.groups: tuple[Group, ...] = tuple(sorted(groups, key=lambda g: (g.name, sorted(g.members))))
        self.root = int(root)
        n = len(self.nodes)
        children: list[list[int]] = [[] for _ in range(n)]
        parents: list[list[int]] = [[] for _ in range(n)]
        for a, b in self.edges:
            if 0 <= a < n and 0 <= b < n:
                children[a].append(b)
                parents[b].append(a)
        self._children = tuple(tuple(sorted(set(c))) for c in children)
        self._parents = tuple(tuple(sorted(set(p))) for p in parents)
        self._by_name = {nd.name: nd.id for nd in self.nodes}
        group_of: dict[int, Group] = {}
        for g in self.groups:
            for m in g.members:
                group_of.setdefault(m, g)
        self._group_of = group_of
        self._memo: dict[tuple, object] = {}

    # -- queries ------------------------------------------------------------

    def node(self, node_id: int) -> GraphNode:
        return self.nodes[node_id]

    def children(self, node_id: int) -> tuple[int, ...]:
        return self._children[node_id]

    def parents(self, node_id: int) -> tuple[int, ...]:
        return self._parents[node_id]

    def id_of(self, name: str) -> int:
        key = canonical_name(name)
        if key not in self._by_name:
            raise UnknownName(f"unknown node name {name!r}", [name])
        return self._by_name[key]

    def has_name(self, name: str) -> bool:
        return canonical_name(name) in self._by_name

    def group_of(self, node_id: int) -> Group | None:
        return self._group_of.get(node_id)

    def __len__(self) -> int:
        return len(self.nodes)


_UNBUILT = object()


def kept(query: Callable) -> Callable:
    """``query(graph)``, or ``query(graph, key)`` when a key is given, built
    on the first call for a graph and key and kept in the graph's memo under
    ``(query, key)``; a call that raises keeps nothing. The key is one
    argument, not ``*key``: a call with a fixed arity takes CPython's fast
    path, and the path queries read the memo several times per label."""
    @wraps(query)
    def read(graph: LabelGraph, key=None):
        slot = (query, key)
        got = graph._memo.get(slot, _UNBUILT)  # one lookup, built or not
        if got is _UNBUILT:
            got = graph._memo[slot] = query(graph) if key is None else query(graph, key)
        return got
    return read


IMPLICIT_GROUP_PREFIX = "siblings-of-"


def build_graph(label_sets: Sequence[tuple[str, Iterable[str]]],
                augmented_spec: Sequence[tuple[str, Sequence[str]]] = (),
                edge_spec: Sequence[tuple[str, str]] = (),
                group_spec: Sequence[tuple[str, Sequence[str]]] = (),
                root_name: str = "root") -> LabelGraph:
    """Construct and validate a label graph from the four-step recipe.

    Starts with the root, adds every dataset's labels (labels with the same
    canonical name merge into one node whose tags are the dataset union),
    attaches augmented nodes under their named parents, then wires the
    remaining edges. Explicit groups come from ``group_spec``; afterwards
    every set of two or more still-ungrouped sibling children of a common
    parent is materialised as an implicit group, so sibling alternatives are
    always mutually exclusive.

    Raises CycleDetected / UnreachableNode / DuplicateGroupMembership /
    UnknownName (or InvalidGraph for any other invariant break) instead of
    returning an invalid graph.
    """
    nodes: list[GraphNode] = []
    by_name: dict[str, int] = {}
    edges: set[tuple[int, int]] = set()

    def add_node(name: str, kind: NodeKind, tags: frozenset[str]) -> int:
        nid = len(nodes)
        nodes.append(GraphNode(nid, name, kind, tags))
        by_name[name] = nid
        return nid

    add_node(canonical_name(root_name), NodeKind.ROOT, frozenset())

    # Step 2: dataset labels, merged across datasets by canonical name.
    for dataset, labels in label_sets:
        for raw in sorted(canonical_name(x) for x in labels):
            if raw in by_name:
                nid = by_name[raw]
                old = nodes[nid]
                if old.kind is not NodeKind.LABEL:
                    raise InvalidGraph([Violation(
                        "DuplicateName", f"label {raw!r} collides with {old.kind.value} node", (raw,))])
                nodes[nid] = GraphNode(nid, raw, NodeKind.LABEL, old.tags | {dataset})
            else:
                add_node(raw, NodeKind.LABEL, frozenset({dataset}))

    # Step 3: augmented nodes hang under already-known parents.
    for raw_name, parent_names in augmented_spec:
        name = canonical_name(raw_name)
        if name in by_name:
            raise InvalidGraph([Violation("DuplicateName", f"duplicate node name {name!r}", (name,))])
        nid = add_node(name, NodeKind.AUGMENTED, frozenset())
        for p in parent_names:
            pk = canonical_name(p)
            if pk not in by_name:
                raise UnknownName(f"augmented node {name!r}: unknown parent {p!r}", [p])
            edges.add((by_name[pk], nid))

    # Step 4: remaining links.
    for a, b in edge_spec:
        ak, bk = canonical_name(a), canonical_name(b)
        for raw, key in ((a, ak), (b, bk)):
            if key not in by_name:
                raise UnknownName(f"edge references unknown node {raw!r}", [raw])
        edges.add((by_name[ak], by_name[bk]))

    # Explicit groups first; they win over implicit sibling grouping.
    groups: list[Group] = []
    claimed: dict[int, str] = {}
    for gname, member_names in group_spec:
        members: set[int] = set()
        for m in member_names:
            mk = canonical_name(m)
            if mk not in by_name:
                raise UnknownName(f"group {gname!r} references unknown node {m!r}", [m])
            mid = by_name[mk]
            if mid in claimed:
                raise DuplicateGroupMembership(
                    f"node {mk!r} is in groups {claimed[mid]!r} and {gname!r}", [mk])
            claimed[mid] = gname
            members.add(mid)
        groups.append(Group(canonical_name(gname), frozenset(members)))

    graph = LabelGraph(nodes, sorted(edges), groups)
    graph = _materialize_implicit_groups(graph)

    violations = validate(graph)
    if violations:
        by_code = {v.code: v for v in violations}
        for code, exc in (("CycleDetected", CycleDetected),
                          ("UnreachableNode", UnreachableNode),
                          ("DuplicateGroupMembership", DuplicateGroupMembership)):
            if code in by_code:
                v = by_code[code]
                raise exc(v.message, v.names)
        raise InvalidGraph(violations)
    return graph


def _materialize_implicit_groups(graph: LabelGraph) -> LabelGraph:
    """Group ungrouped sibling children of each parent (parents in id order).

    A node already claimed by any group (explicit or an implicit one created
    for an earlier parent) is skipped, keeping group membership disjoint.
    Running this twice is a no-op: nothing is left ungrouped the second time.
    """
    claimed = {m for g in graph.groups for m in g.members}
    new_groups = list(graph.groups)
    for parent in range(len(graph.nodes)):
        free = [c for c in graph.children(parent) if c not in claimed]
        if len(free) >= 2:
            name = IMPLICIT_GROUP_PREFIX + graph.node(parent).name
            new_groups.append(Group(name, frozenset(free)))
            claimed.update(free)
    if len(new_groups) == len(graph.groups):
        return graph
    return LabelGraph(graph.nodes, graph.edges, new_groups, graph.root)


def _contract_node(graph: LabelGraph, victim: str) -> LabelGraph:
    """Remove one node by name, rewiring its parents to its children."""
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


def validate(graph: LabelGraph) -> list[Violation]:
    """Every invariant violation in the graph; empty list iff valid."""
    out: list[Violation] = []
    n = len(graph.nodes)

    ids = [nd.id for nd in graph.nodes]
    if ids != list(range(n)):
        out.append(Violation("BadNodeIds", "node ids are not dense 0..n-1"))
        return out  # adjacency is unreliable past this point

    roots = [nd for nd in graph.nodes if nd.kind is NodeKind.ROOT]
    if len(roots) != 1 or roots[0].id != graph.root or graph.root != 0:
        out.append(Violation("RootInvariant",
                             f"expected exactly one root with id 0, found {[r.id for r in roots]}"))
    if n and graph.parents(graph.root):
        names = tuple(graph.node(p).name for p in graph.parents(graph.root))
        out.append(Violation("RootIncomingEdge", "root has incoming edges", names))

    for a, b in graph.edges:
        if not (0 <= a < n and 0 <= b < n):
            out.append(Violation("BadEdge", f"edge ({a},{b}) references missing node"))

    seen_names: dict[str, int] = {}
    for nd in graph.nodes:
        if nd.name != canonical_name(nd.name) or not nd.name:
            out.append(Violation("NonCanonicalName", f"name {nd.name!r} is not canonical", (nd.name,)))
        if nd.name in seen_names:
            out.append(Violation("DuplicateName", f"duplicate node name {nd.name!r}", (nd.name,)))
        seen_names[nd.name] = nd.id
        if nd.kind is NodeKind.LABEL and not nd.tags:
            out.append(Violation("UntaggedLabel", f"label node {nd.name!r} has no dataset tag", (nd.name,)))
        if nd.kind is not NodeKind.LABEL and nd.tags:
            out.append(Violation("TaggedNonLabel", f"{nd.kind.value} node {nd.name!r} carries tags", (nd.name,)))

    try:
        _topo_order(graph)
    except CycleDetected as exc:
        out.append(Violation("CycleDetected", str(exc), exc.names))
    else:
        reach = _closure(graph, graph.root)
        missing = [nd.name for nd in graph.nodes if nd.id not in reach]
        if missing:
            out.append(Violation("UnreachableNode",
                                 "nodes unreachable from root", tuple(missing)))

    membership: dict[int, str] = {}
    for g in graph.groups:
        for m in g.members:
            if not 0 <= m < n:
                out.append(Violation("BadGroupMember", f"group {g.name!r} references missing node {m}"))
                continue
            if m == graph.root:
                out.append(Violation("RootInGroup", f"root belongs to group {g.name!r}",
                                     (graph.node(m).name,)))
            if m in membership:
                out.append(Violation("DuplicateGroupMembership",
                                     f"node {graph.node(m).name!r} is in groups "
                                     f"{membership[m]!r} and {g.name!r}",
                                     (graph.node(m).name,)))
            membership[m] = g.name
        valid_members = [m for m in g.members if 0 <= m < n]
        if valid_members:
            # Competing nodes share an ancestor. The root is every node's
            # ancestor, so it only counts when it is a direct shared parent
            # (top-level siblings); anything else must share a deeper one.
            # A member's closure holds the member itself, which is no
            # shared ancestor.
            parents = set.intersection(*(set(graph.parents(m)) for m in valid_members))
            ancestors = set.intersection(*(_closure(graph, m, up=True) for m in valid_members))
            ancestors -= {graph.root, *valid_members}
            if not parents and not ancestors:
                out.append(Violation("GroupWithoutCommonAncestor",
                                     f"members of group {g.name!r} share no ancestor "
                                     "besides being graph nodes",
                                     tuple(graph.node(m).name for m in sorted(valid_members))))
    return out


def _closure(graph: LabelGraph, start: int, up: bool = False) -> set[int]:
    """``start`` plus every node reachable from it along child edges, or
    along parent edges when ``up`` is set."""
    step = graph.parents if up else graph.children
    seen = {start}
    todo = [start]
    while todo:
        for nxt in step(todo.pop()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def stats(graph: LabelGraph) -> GraphStats:
    """Exact counts by kind plus edge/group counts and max root-to-leaf depth."""
    label = sum(1 for nd in graph.nodes if nd.kind is NodeKind.LABEL)
    aug = sum(1 for nd in graph.nodes if nd.kind is NodeKind.AUGMENTED)
    depth = [0] * len(graph.nodes)
    for node in _topo_order(graph):
        for c in graph.children(node):
            depth[c] = max(depth[c], depth[node] + 1)
    return GraphStats(label_count=label, augmented_count=aug,
                      edge_count=len(graph.edges), group_count=len(graph.groups),
                      max_depth=max(depth) if depth else 0)


def _topo_order(graph: LabelGraph, nodes: Iterable[int] | None = None) -> Sequence[int]:
    """Kahn order of every node (the graph's memo), or of ``nodes`` over the
    edges among them.

    Raises CycleDetected naming one cycle (its first name repeated at the
    end) when some of the nodes cannot be ordered.
    """
    keep = range(len(graph.nodes)) if nodes is None else set(nodes)
    order = _graph_order(graph) if nodes is None else _kahn(graph, keep)
    if len(order) < len(keep):
        # Every node left over has a parent left over: walk up until one repeats.
        left = set(keep).difference(order)
        walk: list[int] = []
        at: dict[int, int] = {}
        v = min(left)
        while v not in at:
            at[v] = len(walk)
            walk.append(v)
            v = next(p for p in graph.parents(v) if p in left)
        names = [graph.node(i).name for i in reversed(walk[at[v]:] + [v])]
        raise CycleDetected("graph contains a cycle: " + " -> ".join(names), names)
    return order


@kept
def _graph_order(graph: LabelGraph) -> tuple[int, ...]:
    """Kahn order of every node; without the nodes on or below a cycle, when
    it has one."""
    return tuple(_kahn(graph, range(len(graph.nodes))))


def _kahn(graph: LabelGraph, keep: Collection[int]) -> list[int]:
    """The nodes of ``keep`` that Kahn's algorithm orders over the edges
    among them: all of them unless some lie on or below a cycle."""
    indeg = {v: sum(p in keep for p in graph.parents(v)) for v in keep}
    order = [v for v in keep if indeg[v] == 0]
    for v in order:
        for c in graph.children(v):
            if c in keep:
                indeg[c] -= 1
                if indeg[c] == 0:
                    order.append(c)
    return order


# ---------------------------------------------------------------------------
# Graph files
# ---------------------------------------------------------------------------

def serialize(graph: LabelGraph) -> str:
    """Canonical UTF-8 JSON: nodes by id, edges lexicographic, groups by name."""
    payload = {
        "nodes": [
            {"id": nd.id, "name": nd.name, "kind": nd.kind.value, "tags": sorted(nd.tags)}
            for nd in sorted(graph.nodes, key=lambda nd: nd.id)
        ],
        "edges": [[a, b] for a, b in sorted(graph.edges)],
        "groups": [
            {"name": g.name, "members": sorted(g.members)}
            for g in sorted(graph.groups, key=lambda g: (g.name, sorted(g.members)))
        ],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _typed(value, kind: type, what: str):
    """``value`` when its JSON type is ``kind``; a bool is not an int."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be a JSON {kind.__name__}, not {value!r}")
    return value


def deserialize(text: str) -> LabelGraph:
    """Parse a graph file without validating; run :func:`validate` to check.
    Values are not coerced: ids, edge ends and members must be ints, names
    and tags strings, and tags, members and each edge lists."""
    payload = json.loads(text)
    try:
        nodes = [GraphNode(_typed(n["id"], int, "a node id"), _typed(n["name"], str, "a name"),
                           NodeKind(n["kind"]),
                           frozenset(_typed(t, str, "a tag")
                                     for t in _typed(n.get("tags", []), list, "tags")))
                 for n in payload["nodes"]]
        nodes.sort(key=lambda nd: nd.id)
        edges = [(_typed(a, int, "an edge end"), _typed(b, int, "an edge end"))
                 for a, b in (_typed(e, list, "an edge") for e in payload["edges"])]
        groups = [Group(_typed(g["name"], str, "a name"),
                        frozenset(_typed(m, int, "a member")
                                  for m in _typed(g["members"], list, "members")))
                  for g in payload["groups"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph file: {exc}") from exc
    return LabelGraph(nodes, edges, groups)


def read_graph(path: str) -> LabelGraph:
    """Read a graph file without validating it, for callers that report its
    violations. A file that is not UTF-8 JSON of the graph-file shape raises
    InvalidGraph with one ``MalformedFile`` violation prefixed by ``<path>:``.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            return deserialize(f.read())
        except ValueError as exc:
            raise InvalidGraph([Violation("MalformedFile", f"{path}: {exc}")]) from exc


def load_graph(path: str) -> LabelGraph:
    """Read a graph file with :func:`read_graph` and validate it: any
    violation raises InvalidGraph, each message prefixed by ``<path>:``."""
    graph = read_graph(path)
    violations = validate(graph)
    if violations:
        raise InvalidGraph([Violation(v.code, f"{path}: {v.message}", v.names)
                            for v in violations])
    return graph


def save_graph(path: str, graph: LabelGraph) -> None:
    with written(path) as write:
        write(serialize(graph))
