"""Path enumeration and classification against brute-force oracles."""

import itertools
import time
from types import MappingProxyType

import numpy as np
import pytest

from pathcast import harness, labelgraph, pathalg
from pathcast.evaldecode import nondeterministic_groups
from pathcast.harness import label_set_targets
from pathcast.labelgraph import (CycleDetected, GraphNode, LabelGraph, NodeKind,
                                 build_graph, stats, validate)
from pathcast.pathalg import (NotALabelNode, _certain_members, _competing_groups,
                              _require_label, _split_paths, _tainted, all_paths_to)
from pathcast.trainer import PathBook

from reference import (cyclic_graph, figure2_subgraph, label_ids, layered_dag,
                       oracle_all_paths, oracle_classify, oracle_path_counts, random_dag,
                       stranded_graph)


def split(g, label):
    """The label's deterministic and nondeterministic paths, as two lists."""
    return tuple(map(list, _split_paths(g, label)))


class TestEnumeratePaths:
    def test_chain(self):
        g = build_graph([("d", ["x"])], augmented_spec=[("a", ["root"])],
                        edge_spec=[("a", "x")])
        paths = list(all_paths_to(g, g.id_of("x")))
        assert paths == [(0, g.id_of("a"), g.id_of("x"))]

    def test_figure2_british_shorthair_has_four_paths(self):
        g = figure2_subgraph()
        paths = list(all_paths_to(g, g.id_of("british-shorthair")))
        assert len(paths) == 4
        names = {tuple(g.node(i).name for i in p) for p in paths}
        assert ("animal", "cat", "shorthair", "british-shorthair") in names

    def test_not_a_label_node(self):
        g = figure2_subgraph()
        with pytest.raises(NotALabelNode):
            _require_label(g, g.id_of("cat"))
        with pytest.raises(NotALabelNode):
            _require_label(g, 10**6)

    def test_matches_brute_force_on_random_dags(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            g = random_dag(rng)
            for label in label_ids(g):
                assert list(all_paths_to(g, label)) == oracle_all_paths(g, label)

    def test_lexicographic_order(self):
        g = figure2_subgraph()
        paths = list(all_paths_to(g, g.id_of("british-shorthair")))
        assert paths == sorted(paths)


class TestAreCompeting:
    """Two nodes compete when they are members of one (explicit or implicit)
    group: ``_competing_groups`` of the pair holds that group."""

    def test_same_group(self):
        g = figure2_subgraph()
        pair = frozenset({g.id_of("shorthair"), g.id_of("longhair")})
        assert _competing_groups(g, pair) == {"hair": pair}

    def test_different_groups(self):
        g = figure2_subgraph()
        assert _competing_groups(g, [g.id_of("shorthair"), g.id_of("tabby-color")]) == {}

    def test_ungrouped_node_competes_with_nothing(self):
        g = figure2_subgraph()
        assert _competing_groups(g, [g.id_of("cat"), g.id_of("shorthair")]) == {}


class TestClassifyPaths:
    def test_figure2_split(self):
        g = figure2_subgraph()
        det, nd = split(g, g.id_of("british-shorthair"))
        assert len(det) == 1
        assert len(nd) == 3
        assert tuple(g.node(i).name for i in det[0]) == \
            ("animal", "cat", "shorthair", "british-shorthair")

    def test_chain_is_deterministic(self):
        g = build_graph([("d", ["x"])], augmented_spec=[("a", ["root"])],
                        edge_spec=[("a", "x")])
        det, nd = split(g, g.id_of("x"))
        assert len(det) == 1
        assert len(nd) == 0

    def test_partition_is_exhaustive(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            g = random_dag(rng)
            for label in label_ids(g):
                det, nd = split(g, label)
                assert len(det) + len(nd) == len(all_paths_to(g, label))
                assert not (set(det) & set(nd))

    def test_matches_definition_literal_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            g = random_dag(rng)
            for label in label_ids(g):
                det, nd = split(g, label)
                assert (sorted(det), sorted(nd)) == oracle_classify(g, label)

    def test_order_independence(self):
        g = figure2_subgraph()
        label = g.id_of("british-shorthair")
        got_det, got_nd = split(g, label)
        det, nd = oracle_classify(g, label)
        for perm in itertools.permutations(range(4)):
            # the per-path verdict never depends on enumeration order
            assert set(got_det) == set(det)
            assert set(got_nd) == set(nd)

    def test_not_a_label_node(self):
        g = figure2_subgraph()
        with pytest.raises(NotALabelNode):
            _require_label(g, g.id_of("shorthair"))

    def test_layered_dags_match_oracle(self):
        rng = np.random.default_rng(15)
        mixed = 0
        for singleton in (False, True):
            for depth in (1, 2, 3, 4, 5, 6):
                for g in [layered_dag(depth, singleton=singleton)] + [
                        layered_dag(depth, rng, singleton) for _ in range(20)]:
                    det, nd = oracle_classify(g, g.id_of("x"))
                    assert split(g, g.id_of("x")) == (det, nd)
                    mixed += bool(det) and bool(nd)
        assert mixed >= 5  # the sweep includes labels with both verdicts

    def test_full_layered_split_closed_form(self):
        for singleton in (False, True):
            g = layered_dag(6, singleton=singleton)
            det, nd = _split_paths(g, g.id_of("x"))
            want = (64, 0) if singleton else (0, 64)
            assert (len(det), len(nd)) == want

    def test_one_path_holding_two_members_stays_deterministic(self):
        # root -> c -> a -> b -> x and c -> x; the group {a, b} lies on one
        # path only, so no other path offers a competing member
        spec = dict(augmented_spec=[("c", ["root"]), ("a", ["c"]), ("b", ["a"])],
                    group_spec=[("pair", ["a", "b"])])
        g = build_graph([("d", ["x"])], edge_spec=[("b", "x"), ("c", "x")], **spec)
        det, nd = split(g, g.id_of("x"))
        assert len(det) == 2 and nd == []
        assert oracle_classify(g, g.id_of("x")) == (det, [])
        # a second path through b makes both group paths nondeterministic
        g = build_graph([("d", ["x"])], edge_spec=[("b", "x"), ("c", "x"), ("c", "b")],
                        **spec)
        det, nd = oracle_classify(g, g.id_of("x"))
        assert split(g, g.id_of("x")) == (det, nd)
        assert sorted(map(len, nd)) == [4, 5] and det == [(0, g.id_of("c"), g.id_of("x"))]

    def test_group_tainted_only_by_the_count(self, monkeypatch):
        # root -> a -> x and root -> b -> x with the group {a, b}: each member
        # lies on one path, so only the paths that touch the group, counted
        # again, show that two of them do
        g = build_graph([("d", ["x"])], augmented_spec=[("a", ["root"]), ("b", ["root"])],
                        edge_spec=[("a", "x"), ("b", "x")], group_spec=[("pair", ["a", "b"])])
        x = g.id_of("x")
        avoided = []
        counts_to = pathalg._counts_to

        def counting(graph, target, order):
            avoided.append(sorted(set(range(len(g.nodes))) - set(order)))
            return counts_to(graph, target, order)

        monkeypatch.setattr(pathalg, "_counts_to", counting)
        det, nd = split(g, x)
        assert oracle_classify(g, x) == (det, nd) == ([], nd)
        assert len(nd) == 2
        # the sub-DAG, the count around the group and the deterministic count
        pair = sorted([g.id_of("a"), g.id_of("b")])
        assert avoided == [[], pair, pair]

    def test_the_audit_reads_the_split_s_taint(self):
        # root -> c -> a -> b -> x: one path holds both members of {a, b},
        # so the split keeps it deterministic and the audit finds no group
        g = build_graph([("d", ["x"])], [("c", ["root"]), ("a", ["c"]), ("b", ["a"])],
                        [("b", "x")], [("ab", ["a", "b"])])
        x = g.id_of("x")
        det, nd = split(g, x)
        assert (len(det), nd) == (1, [])
        assert nondeterministic_groups(g, x) == {}
        assert nondeterministic_groups(g, x) is _tainted(g, x) is g._memo[_tainted.__wrapped__, x]


class TestCertainNodes:
    def test_chain(self):
        g = build_graph([("d", ["x"])], augmented_spec=[("a", ["root"])],
                        edge_spec=[("a", "x")])
        assert _certain_members(g, g.id_of("x")) == frozenset({0, g.id_of("a"), g.id_of("x")})

    def test_figure2_excludes_ambiguous_members(self):
        g = figure2_subgraph()
        names = {g.node(i).name for i in _certain_members(g, g.id_of("british-shorthair"))}
        assert names == {"animal", "cat", "british-shorthair"}

    def test_disjoint_routes_leave_root_and_label(self):
        g = build_graph([("d", ["x"])],
                        augmented_spec=[("a", ["root"]), ("b", ["root"])],
                        edge_spec=[("a", "x"), ("b", "x")])
        assert _certain_members(g, g.id_of("x")) == frozenset({0, g.id_of("x")})

    def test_matches_intersection_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            g = random_dag(rng)
            for label in label_ids(g):
                paths = oracle_all_paths(g, label)
                want = set(paths[0])
                for p in paths[1:]:
                    want &= set(p)
                want |= {label}
                assert _certain_members(g, label) == frozenset(want)

    def test_layered_dags_match_intersection_oracle(self):
        rng = np.random.default_rng(16)
        for depth in (1, 3, 5):
            for _ in range(10):
                g = layered_dag(depth, rng)
                paths = oracle_all_paths(g, g.id_of("x"))
                want = set(paths[0]).intersection(*paths[1:])
                assert _certain_members(g, g.id_of("x")) == frozenset(want)

    def test_million_paths_in_polynomial_time(self):
        g = layered_dag(20)
        x = g.id_of("x")
        t0 = time.perf_counter()
        certain = _certain_members(g, x)
        groups = nondeterministic_groups(g, x)
        elapsed = time.perf_counter() - t0
        assert certain == frozenset({g.root, x})
        want = sorted(sorted(g.id_of(n) for n in (f"a{k}", f"b{k}")) for k in range(1, 21))
        assert sorted(map(sorted, groups.values())) == want
        assert elapsed < 1.0

    def test_cycle_on_a_path_is_rejected(self):
        g = cyclic_graph()
        for fn in (lambda: _certain_members(g, 3), lambda: nondeterministic_groups(g, 3),
                   lambda: label_set_targets(g, "x")):
            with pytest.raises(CycleDetected):
                fn()
        # a cycle off every path of the label does not matter
        assert _certain_members(g, 6) == frozenset({0, 6})
        assert nondeterministic_groups(g, 6) == {}

    def test_members_on_every_path(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            g = random_dag(rng)
            for label in label_ids(g):
                members = _certain_members(g, label)
                for p in all_paths_to(g, label):
                    assert members <= set(p) | {label}


def kept_keys(g, query):
    """The keys of ``query``'s results kept in the graph's memo."""
    return {key for q, key in g._memo if q is query.__wrapped__}


def copy_of(g):
    """The same graph built again from its parts, with an empty memo."""
    return LabelGraph(g.nodes, g.edges, g.groups, g.root)


def answers(g, label):
    """Every path query of one label, as plain values."""
    det, nd = PathBook(g).split(label)
    groups = nondeterministic_groups(g, label)
    return (list(det), list(nd), _certain_members(g, label), groups,
            label_set_targets(g, g.node(label).name).tolist(),
            {name: list(all_paths_to(g, label, frozenset(m))) for name, m in groups.items()})


def count_walks(monkeypatch):
    """Counts of the graph walks from here on: Kahn passes, in validation
    and path queries alike, and the path queries' ancestor closures."""
    walks = {"closure_up": 0, "kahn": 0}
    closure, kahn = pathalg._closure, labelgraph._kahn

    def counted_closure(graph, start, up=False):
        walks["closure_up"] += up
        return closure(graph, start, up)

    def counted_kahn(graph, keep):
        walks["kahn"] += 1
        return kahn(graph, keep)

    monkeypatch.setattr(pathalg, "_closure", counted_closure)
    monkeypatch.setattr(labelgraph, "_kahn", counted_kahn)
    return walks


class TestCountedSubDag:
    @pytest.mark.parametrize("singleton", [False, True])
    def test_each_label_is_walked_once_per_graph(self, monkeypatch, singleton):
        walks = count_walks(monkeypatch)
        g = layered_dag(8, singleton=singleton)  # validation orders the graph once
        x = g.id_of("x")
        for _ in range(2):  # a fresh PathBook per pass, as the benchmark's taxonomy phase
            book = PathBook(g)
            det, nd = book.split(x)
            certain = book.reward_members(x, "certain")
            groups = nondeterministic_groups(g, x)
            stats(g)
        assert walks == {"closure_up": 1, "kahn": 1}
        assert (len(det), len(nd)) == ((256, 0) if singleton else (0, 256))
        assert certain == frozenset({g.root, x})
        assert len(groups) == (0 if singleton else 8)

    @pytest.mark.parametrize("singleton", [False, True])
    def test_a_split_counts_the_sub_dag_at_most_twice(self, monkeypatch, singleton):
        # every member of a layer lies on two or more paths, so no group is
        # counted again: the sub-DAG, then the paths that avoid every
        # tainted group (none without one)
        g = layered_dag(8, singleton=singleton)
        calls = [0]
        counts_to = pathalg._counts_to

        def counting(*args):
            calls[0] += 1
            return counts_to(*args)

        monkeypatch.setattr(pathalg, "_counts_to", counting)
        det, nd = PathBook(g).split(g.id_of("x"))
        assert calls[0] == (1 if singleton else 2)
        assert (len(det), len(nd)) == ((256, 0) if singleton else (0, 256))

    def test_a_graph_built_from_the_same_parts_starts_with_an_empty_memo(self, monkeypatch):
        g = layered_dag(4)
        x = g.id_of("x")
        _split_paths(g, x)
        assert kept_keys(g, pathalg._path_counts) == kept_keys(g, _tainted) == {x}
        walks = count_walks(monkeypatch)
        again = copy_of(g)
        assert again._memo == {}
        assert _certain_members(again, x) == _certain_members(g, x)
        assert walks == {"closure_up": 1, "kahn": 1}

    @pytest.mark.parametrize("singleton", [False, True])
    def test_a_second_book_on_the_graph_builds_no_split(self, monkeypatch, singleton):
        g = layered_dag(6, singleton=singleton)
        x = g.id_of("x")
        first = PathBook(g)
        split_once, certain = first.split(x), first.reward_members(x, "certain")
        built = {"all_paths_to": 0, "counts_to": 0}
        paths_to, counts_to = pathalg.all_paths_to, pathalg._counts_to

        def counted(name, fn):
            return lambda *args: built.__setitem__(name, built[name] + 1) or fn(*args)

        monkeypatch.setattr(pathalg, "all_paths_to", counted("all_paths_to", paths_to))
        monkeypatch.setattr(pathalg, "_counts_to", counted("counts_to", counts_to))
        second = PathBook(g)
        split_again, certain_again = second.split(x), second.reward_members(x, "certain")
        assert built == {"all_paths_to": 0, "counts_to": 0}
        assert split_again is split_once
        assert certain_again is certain == frozenset({g.root, x})

    @pytest.mark.parametrize("seed", [18, 19])
    def test_one_kahn_pass_per_graph_and_one_closure_per_label(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        walks = count_walks(monkeypatch)
        graphs = [figure2_subgraph(), layered_dag(5, rng)] + [random_dag(rng) for _ in range(8)]
        want = {"closure_up": 0, "kahn": len(graphs)}
        for g in graphs:
            for _ in range(2):
                for label in label_ids(g):
                    answers(g, label)
            want["closure_up"] += len(label_ids(g))
        assert walks == want

    def test_memoised_and_fresh_results_agree_with_the_oracles(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            g = random_dag(rng)
            for label in label_ids(g):
                first, memoised = answers(g, label), answers(g, label)
                assert first == memoised == answers(copy_of(g), label)
                det, nd = oracle_classify(g, label)
                assert (sorted(first[0]), sorted(first[1])) == (det, nd)
                paths = oracle_all_paths(g, label)
                assert first[2] == frozenset(set(paths[0]).intersection(*paths[1:]) | {label})

    def test_mutating_a_result_cannot_change_a_later_one(self):
        g = figure2_subgraph()
        label = g.id_of("british-shorthair")
        want = answers(copy_of(g), label)
        det, nd, certain, groups, hot, avoiding = answers(g, label)
        det.clear()
        nd.append((0,))
        with pytest.raises(TypeError):  # the groups are the graph's read-only memo
            groups["color"] = frozenset()
        assert all(isinstance(members, frozenset) for members in groups.values())
        hot[0] = 7.0
        avoiding.clear()
        order, fwd, bwd = pathalg._path_counts(g, label)
        assert isinstance(order, tuple)
        with pytest.raises(TypeError):
            fwd[label] = 0
        with pytest.raises(TypeError):
            bwd[g.root] = 0
        assert answers(g, label) == want

    def test_cycles_among_the_ancestors_are_still_rejected(self):
        g = cyclic_graph()
        for _ in range(2):  # a failed count is not kept
            for fn in (lambda: all_paths_to(g, 3), lambda: PathBook(g).split(3),
                       lambda: _certain_members(g, 3)):
                with pytest.raises(CycleDetected):
                    fn()
        assert not any(kept_keys(g, query) for query in (pathalg._path_counts, _tainted,
                                                        _split_paths, _certain_members))
        # the cycle a <-> b is rejected even when every path must avoid it
        with pytest.raises(CycleDetected):
            all_paths_to(g, 3, frozenset({1, 2}))

    def test_a_cycle_above_a_label_the_root_cannot_reach_is_rejected(self):
        kinds = [NodeKind.ROOT, NodeKind.AUGMENTED, NodeKind.AUGMENTED, NodeKind.LABEL]
        nodes = [GraphNode(i, n, k, frozenset({"d"}) if k is NodeKind.LABEL else frozenset())
                 for i, (n, k) in enumerate(zip(["root", "c", "d", "z"], kinds))]
        g = LabelGraph(nodes, [(1, 2), (2, 1), (2, 3)], [])
        for fn in (lambda: all_paths_to(g, 3), lambda: _certain_members(g, 3),
                   lambda: nondeterministic_groups(g, 3)):
            with pytest.raises(CycleDetected):
                fn()


def oracle_cases():
    """(graph, label) over random DAGs, both flavours of layered DAG and a
    graph with nodes the root cannot reach."""
    rng = np.random.default_rng(20)
    graphs = [random_dag(rng) for _ in range(30)]
    for singleton in (False, True):
        for depth in (1, 3, 6):
            graphs += [layered_dag(depth, singleton=singleton)] + [
                layered_dag(depth, rng, singleton) for _ in range(5)]
    graphs.append(stranded_graph())
    return [(g, label) for g in graphs for label in label_ids(g)]


class TestSharedOrder:
    """Every label's counted sub-DAG reads the graph's one Kahn order and
    forward count; they agree with the sub-DAG counted for that label alone."""

    def test_counts_match_the_per_target_oracle(self):
        for g, label in oracle_cases():
            order, fwd, bwd = pathalg._path_counts(g, label)
            want_order, want_fwd, want_bwd = oracle_path_counts(g, label)
            assert set(order) == set(want_order) and len(order) == len(want_order)
            rank = {v: i for i, v in enumerate(order)}
            assert all(rank[a] < rank[b] for a, b in g.edges if a in rank and b in rank)
            assert {v: fwd[v] for v in order} == {v: want_fwd[v] for v in want_order}
            assert dict(bwd) == want_bwd

    def test_answers_match_those_read_from_the_oracle(self, monkeypatch):
        cases = oracle_cases()
        want = [answers(g, label) for g, label in cases]

        def oracle(graph, target):
            order, fwd, bwd = oracle_path_counts(graph, target)
            return tuple(order), MappingProxyType(fwd), MappingProxyType(bwd)

        monkeypatch.setattr(pathalg, "_path_counts", oracle)
        monkeypatch.setattr(harness, "_path_counts", oracle)
        assert [answers(copy_of(g), label) for g, label in cases] == want

    def test_a_label_the_root_cannot_reach_has_no_paths(self):
        g = stranded_graph()
        z = g.id_of("z")
        assert pathalg._path_counts(g, z)[0] == ()
        assert not all_paths_to(g, z) and split(g, z) == ([], [])
        assert _certain_members(g, z) == frozenset({z})
        x = g.id_of("x")
        assert list(all_paths_to(g, x)) == [(0, g.id_of("a"), x)]

    def test_a_validated_cyclic_graph_keeps_its_partial_order(self):
        g = cyclic_graph()
        assert [v.message for v in validate(g)] == ["graph contains a cycle: a -> b -> a"]
        # Kahn's partial order: every other node is on or below a cycle
        assert g._memo[labelgraph._graph_order.__wrapped__, None] == (0, 6)
        fresh = cyclic_graph()
        assert _certain_members(g, 6) == _certain_members(fresh, 6) == frozenset({0, 6})
        assert nondeterministic_groups(g, 6) == nondeterministic_groups(fresh, 6) == {}
        for _ in range(2):  # a failed query is not kept
            for fn in (lambda: _certain_members(g, 3), lambda: PathBook(g).split(3),
                       lambda: all_paths_to(g, 3), lambda: nondeterministic_groups(g, 3),
                       lambda: stats(g)):
                with pytest.raises(CycleDetected, match="^graph contains a cycle: a -> b -> a$"):
                    fn()
        assert kept_keys(g, pathalg._path_counts) == kept_keys(g, _tainted) == {6}
