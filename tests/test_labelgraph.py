"""Graph construction, validation, stats and canonical serialization."""

import json

import numpy as np
import pytest

from pathcast import cli
from pathcast.labelgraph import (CycleDetected, DuplicateGroupMembership,
                                 GraphNode, Group, InvalidGraph, LabelGraph,
                                 NodeKind, UnknownName, _topo_order, build_graph,
                                 canonical_name, deserialize, load_graph,
                                 save_graph, serialize, stats, validate)

from reference import figure2_subgraph, figure2_with_back_edge, label_ids, random_dag


class TestCanonicalName:
    def test_lowercase_and_hyphens(self):
        assert canonical_name("British  Shorthair") == "british-shorthair"
        assert canonical_name(" Tabby Color ") == "tabby-color"


class TestBuildGraph:
    def test_minimal_graph(self):
        g = build_graph([("a", ["x"])], edge_spec=[("root", "x")])
        assert len(g.nodes) == 2
        assert len(g.edges) == 1
        assert g.groups == ()

    def test_figure2_shape(self):
        g = figure2_subgraph()
        assert len(g.nodes) == 9
        by_name = {gr.name: gr for gr in g.groups}
        assert len(by_name["hair"].members) == 2
        assert len(by_name["color"].members) == 3
        assert validate(g) == []

    def test_shared_label_merges_tags(self):
        g = build_graph([("dataset-a", ["daffodil"]), ("dataset-b", ["daffodil", "rose"])],
                        edge_spec=[("root", "daffodil"), ("root", "rose")])
        node = g.node(g.id_of("daffodil"))
        assert node.tags == frozenset({"dataset-a", "dataset-b"})
        assert sum(1 for nd in g.nodes if nd.kind is NodeKind.LABEL) == 2

    def test_implicit_sibling_group(self):
        g = figure2_subgraph()
        gb = g.group_of(g.id_of("bengal"))
        assert gb is not None and gb.name.startswith("siblings-of-")
        assert gb.members == frozenset({g.id_of("bengal"), g.id_of("british-shorthair")})

    def test_implicit_grouping_idempotent(self):
        g1 = figure2_subgraph()
        g2 = figure2_subgraph()
        assert {(gr.name, gr.members) for gr in g1.groups} == \
               {(gr.name, gr.members) for gr in g2.groups}

    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            build_graph([("a", ["x"])],
                        augmented_spec=[("m", ["root"]), ("n", ["m"])],
                        edge_spec=[("n", "m"), ("m", "x")])

    def test_unknown_name_rejected(self):
        with pytest.raises(UnknownName):
            build_graph([("a", ["x"])], edge_spec=[("root", "x"), ("ghost", "x")])
        with pytest.raises(UnknownName):
            build_graph([("a", ["x"])], edge_spec=[("root", "x")],
                        group_spec=[("g", ["ghost", "x"])])

    def test_duplicate_group_membership_rejected(self):
        with pytest.raises(DuplicateGroupMembership):
            build_graph([("a", ["x", "y"])],
                        edge_spec=[("root", "x"), ("root", "y")],
                        group_spec=[("g1", ["x", "y"]), ("g2", ["x"])])

    def test_unreachable_rejected(self):
        from pathcast.labelgraph import GraphError
        with pytest.raises(GraphError):
            build_graph([("a", ["x"])])  # no edge root -> x

    def test_validate_of_built_graph_is_empty(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            assert validate(random_dag(rng)) == []


class TestValidate:
    def test_cycle_detected_code(self):
        g = figure2_subgraph()
        bad = LabelGraph(g.nodes, g.edges + ((g.id_of("bengal"), g.id_of("cat")),),
                        g.groups, g.root)
        codes = {v.code for v in validate(bad)}
        assert "CycleDetected" in codes

    def test_cycle_names_one_real_cycle(self):
        bad = figure2_with_back_edge()
        [v] = [v for v in validate(bad) if v.code == "CycleDetected"]
        # closed by repeating its first node
        ids = [bad.id_of(name) for name in v.names]
        assert len(ids) >= 3 and ids[0] == ids[-1]
        assert len(set(ids)) == len(ids) - 1
        assert all(b in bad.children(a) for a, b in zip(ids, ids[1:]))

    def test_duplicate_membership_code(self):
        g = figure2_subgraph()
        extra = Group("again", frozenset({g.id_of("shorthair")}))
        bad = LabelGraph(g.nodes, g.edges, g.groups + (extra,), g.root)
        codes = {v.code for v in validate(bad)}
        assert "DuplicateGroupMembership" in codes

    def test_unreachable_code(self):
        nodes = [GraphNode(0, "root", NodeKind.ROOT, frozenset()),
                 GraphNode(1, "x", NodeKind.LABEL, frozenset({"d"})),
                 GraphNode(2, "stranded", NodeKind.AUGMENTED, frozenset())]
        bad = LabelGraph(nodes, [(0, 1)], [])
        out = validate(bad)
        assert any(v.code == "UnreachableNode" and "stranded" in v.names for v in out)

    def test_root_with_incoming_edge(self):
        g = figure2_subgraph()
        bad = LabelGraph(g.nodes, g.edges + ((g.id_of("cat"), 0),), g.groups)
        codes = {v.code for v in validate(bad)}
        # the back edge to the root also closes a cycle
        assert "RootIncomingEdge" in codes

    def test_untagged_label_flagged(self):
        nodes = [GraphNode(0, "root", NodeKind.ROOT, frozenset()),
                 GraphNode(1, "x", NodeKind.LABEL, frozenset())]
        out = validate(LabelGraph(nodes, [(0, 1)], []))
        assert any(v.code == "UntaggedLabel" for v in out)

    def test_tagged_augmented_flagged(self):
        nodes = [GraphNode(0, "root", NodeKind.ROOT, frozenset()),
                 GraphNode(1, "x", NodeKind.LABEL, frozenset({"d"})),
                 GraphNode(2, "m", NodeKind.AUGMENTED, frozenset({"d"}))]
        out = validate(LabelGraph(nodes, [(0, 1), (0, 2), (2, 1)], []))
        assert any(v.code == "TaggedNonLabel" for v in out)

    def test_group_without_common_ancestor(self):
        # members only related through the root: not a competing set
        nodes = [GraphNode(0, "root", NodeKind.ROOT, frozenset()),
                 GraphNode(1, "a", NodeKind.AUGMENTED, frozenset()),
                 GraphNode(2, "b", NodeKind.AUGMENTED, frozenset()),
                 GraphNode(3, "x", NodeKind.LABEL, frozenset({"d"})),
                 GraphNode(4, "y", NodeKind.LABEL, frozenset({"d"}))]
        edges = [(0, 1), (0, 2), (1, 3), (2, 4)]
        bad = LabelGraph(nodes, edges, [Group("g", frozenset({3, 4}))])
        assert any(v.code == "GroupWithoutCommonAncestor" for v in validate(bad))

    def test_group_of_root_siblings_is_valid(self):
        # top-level siblings share the root as a parent, which does count
        nodes = [GraphNode(0, "root", NodeKind.ROOT, frozenset()),
                 GraphNode(1, "a", NodeKind.LABEL, frozenset({"d"})),
                 GraphNode(2, "b", NodeKind.LABEL, frozenset({"d"}))]
        g = LabelGraph(nodes, [(0, 1), (0, 2)], [Group("g", frozenset({1, 2}))])
        assert not [v for v in validate(g) if v.code == "GroupWithoutCommonAncestor"]

    def test_deep_shared_ancestor_is_valid(self):
        # a curated group whose members share an ancestor, not a parent
        g = build_graph(
            label_sets=[("d", ["x", "y"])],
            augmented_spec=[("mid", ["root"]), ("a", ["mid"]), ("b", ["mid"])],
            edge_spec=[("a", "x"), ("b", "y")],
            group_spec=[("pair", ["x", "y"])])
        assert validate(g) == []

    def test_root_in_group(self):
        g = figure2_subgraph()
        bad = LabelGraph(g.nodes, g.edges,
                         g.groups + (Group("badg", frozenset({0})),), g.root)
        assert any(v.code == "RootInGroup" for v in validate(bad))


class TestStats:
    def test_minimal(self):
        g = build_graph([("a", ["x"])], edge_spec=[("root", "x")])
        s = stats(g)
        assert (s.label_count, s.augmented_count, s.edge_count,
                s.group_count, s.max_depth) == (1, 0, 1, 0, 1)

    def test_figure2(self):
        s = stats(figure2_subgraph())
        assert s.label_count == 2
        assert s.augmented_count == 6
        assert s.edge_count == 12
        assert s.max_depth == 3

    def test_pet_scale_graph_file(self):
        # a file encoding 39 labels, 14 augmented nodes and 119 edges reports
        # exactly those counts back
        nodes = [{"id": 0, "name": "root", "kind": "root", "tags": []}]
        edges = []
        for i in range(14):
            nodes.append({"id": 1 + i, "name": f"aug-{i}", "kind": "augmented", "tags": []})
            edges.append([0, 1 + i])
        for i in range(39):
            nodes.append({"id": 15 + i, "name": f"label-{i}", "kind": "label", "tags": ["ds"]})
            edges.append([1 + i % 14, 15 + i])
        extra = 0
        i = 0
        while len(edges) < 119:
            a, b = 1 + i % 14, 15 + (i * 7 + 3) % 39
            if [a, b] not in edges:
                edges.append([a, b])
            i += 1
        g = deserialize(json.dumps({"nodes": nodes, "edges": edges, "groups": []}))
        s = stats(g)
        assert (s.label_count, s.augmented_count, s.edge_count) == (39, 14, 119)

    def test_cyclic_graph_raises(self):
        with pytest.raises(CycleDetected):
            stats(figure2_with_back_edge())

    def test_topo_order_puts_every_edge_forward(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = random_dag(rng)
            order = _topo_order(g)
            pos = {v: i for i, v in enumerate(order)}
            assert sorted(order) == list(range(len(g.nodes)))
            assert all(pos[a] < pos[b] for a, b in g.edges)

    def test_random_graph_counts_match_recount(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_dag(rng)
            s = stats(g)
            blob = json.loads(serialize(g))
            assert s.label_count == sum(1 for n in blob["nodes"] if n["kind"] == "label")
            assert s.augmented_count == sum(1 for n in blob["nodes"] if n["kind"] == "augmented")
            assert s.edge_count == len(blob["edges"])
            assert s.group_count == len(blob["groups"])


class TestSerialization:
    def test_round_trip_byte_identical(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = random_dag(rng)
            text = serialize(g)
            assert serialize(deserialize(text)) == text

    def test_figure2_round_trip(self):
        g = figure2_subgraph()
        text = serialize(g)
        g2 = deserialize(text)
        assert serialize(g2) == text
        assert validate(g2) == []

    def test_exact_format_keys(self):
        g = build_graph([("a", ["x"])], edge_spec=[("root", "x")])
        blob = json.loads(serialize(g))
        assert set(blob) == {"nodes", "edges", "groups"}
        assert list(blob["nodes"][0]) == ["id", "name", "kind", "tags"]
        assert blob["nodes"][0]["kind"] == "root"
        assert blob["edges"] == [[0, 1]]

    def test_scrambled_input_normalizes(self):
        g = figure2_subgraph()
        blob = json.loads(serialize(g))
        blob["edges"] = list(reversed(blob["edges"]))
        blob["nodes"] = list(reversed(blob["nodes"]))
        assert serialize(deserialize(json.dumps(blob))) == serialize(g)

    def test_label_reachability_via_paths(self):
        rng = np.random.default_rng(3)
        from pathcast.pathalg import all_paths_to
        for _ in range(10):
            g = random_dag(rng)
            for label in label_ids(g):
                assert all_paths_to(g, label)


class TestLoadGraph:
    """``load_graph`` validates; ``deserialize`` still reads a bad file."""

    def write_bad(self, tmp_path, edit):
        g = figure2_subgraph()
        blob = json.loads(serialize(g))
        edit(g, blob)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(blob))
        return path

    def assert_rejected(self, path, code):
        with pytest.raises(InvalidGraph) as info:
            load_graph(str(path))
        assert code in {v.code for v in info.value.violations}
        assert all(v.message.startswith(f"{path}: ") for v in info.value.violations)
        assert str(info.value).startswith(f"{path}: ")
        assert code in {v.code for v in validate(deserialize(path.read_text()))}
        return info.value

    def test_valid_file_loads(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(str(path), figure2_subgraph())
        assert serialize(load_graph(str(path))) == serialize(figure2_subgraph())

    def test_unreachable_node_rejected(self, tmp_path):
        def drop_edges_into_bengal(g, blob):
            blob["edges"] = [e for e in blob["edges"] if e[1] != g.id_of("bengal")]

        exc = self.assert_rejected(self.write_bad(tmp_path, drop_edges_into_bengal),
                                   "UnreachableNode")
        assert "bengal" in exc.names

    def test_bad_node_ids_rejected(self, tmp_path):
        def move_last_id(g, blob):
            blob["nodes"][-1]["id"] = len(blob["nodes"]) + 5

        self.assert_rejected(self.write_bad(tmp_path, move_last_id), "BadNodeIds")

    def test_cycle_rejected(self, tmp_path):
        def add_back_edge(g, blob):
            blob["edges"].append([g.id_of("bengal"), g.id_of("cat")])

        exc = self.assert_rejected(self.write_bad(tmp_path, add_back_edge), "CycleDetected")
        assert "bengal" in exc.names

    @pytest.mark.parametrize("where, value", [
        (("nodes", 1, "tags"), "pet-a"),  # once read as the tags {p, e, t, -, a}
        (("nodes", 1, "tags"), ["pet-a", 7]),
        (("nodes", 3, "name"), 3),
        (("nodes", 0, "id"), 0.9),  # once read as 0
        (("nodes", 1, "id"), True),  # once read as 1
        (("edges", 0), "03"),  # once read as the edge (0, 3)
        (("edges", 0, 1), 3.7),  # once read as 3
        (("edges", 0), [0, 3, 4]),
        (("groups", 1, "name"), 5),
        (("groups", 2, "members"), "12"),  # once read as {1, 2}
        (("groups", 0, "members"), [6, 7, 8.0]),
        (("groups", 1, "members"), [4, "5"]),
    ])
    def test_values_of_another_json_type_are_rejected(self, tmp_path, capsys, where, value):
        # each of these edits was coerced into a graph that validates clean
        def put(g, blob):
            *keys, last = where
            for k in keys:
                blob = blob[k]
            blob[last] = value

        path = self.write_bad(tmp_path, put)
        with pytest.raises(InvalidGraph) as info:
            load_graph(str(path))
        assert [v.code for v in info.value.violations] == ["MalformedFile"]
        assert str(info.value).startswith(f"{path}: malformed graph file: ")
        assert cli.main(["graph", "validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"pathcast: error: {path}: ")
