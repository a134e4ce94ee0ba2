"""End-to-end CLI coverage through subprocess invocations."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pathcast.labelgraph import save_graph, serialize

from reference import (figure2_subgraph, label_ids, layered_dag, oracle_all_paths,
                       oracle_classify)


def run_cli(*args, expect=0):
    proc = subprocess.run([sys.executable, "-m", "pathcast", *args],
                          capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr + proc.stdout
    return proc


def without(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


def assert_config_errors(tmp_path, command, cases):
    """Each ``(config, fragment)`` case, a dict or raw text, makes ``command``
    exit 1 with one error line that names the config file, and no traceback."""
    for i, (cfg, fragment) in enumerate(cases):
        path = tmp_path / f"bad-{i}.json"
        path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
        proc = run_cli(*command, "--config", str(path), expect=1)
        assert proc.stderr.startswith(f"pathcast: error: {path}: {fragment}"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Tiny synthetic task written to disk plus a train config."""
    root = tmp_path_factory.mktemp("cli")
    spec = {"n_train_fine": 150, "n_train_coarse": 60, "n_test": 80, "seed": 3}
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec))
    run_cli("synth", "--spec", str(spec_path), "--out-dir", str(root))
    cfg = {
        "graph": str(root / "graph.json"),
        "train": str(root / "fine.jsonl"),
        "dev": str(root / "test.jsonl"),
        "batch_size": 32, "max_len": 6, "r_tf": 1.0,
        "alpha": 1.0, "beta": 1.0, "path_agg": "mean", "n_p": 4,
        "reward_set": "certain", "lr_e": 0.01, "lr": 0.01,
        "schedule": {"kind": "fixed", "n": 10}, "epochs": 3, "seed": 3,
        "embed_dim": 8, "hidden": 16,
    }
    cfg_path = root / "train.json"
    cfg_path.write_text(json.dumps(cfg))
    return root, cfg_path


class TestGraphCommands:
    def test_validate_ok(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(str(path), figure2_subgraph())
        proc = run_cli("graph", "validate", str(path))
        assert json.loads(proc.stdout) == []

    def test_validate_reports_violations(self, tmp_path):
        g = figure2_subgraph()
        blob = json.loads(serialize(g))
        blob["edges"].append([g.id_of("bengal"), g.id_of("cat")])  # cycle
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(blob))
        proc = run_cli("graph", "validate", str(path), expect=1)
        codes = {v["code"] for v in json.loads(proc.stdout)}
        assert "CycleDetected" in codes

    def test_stats(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(str(path), figure2_subgraph())
        proc = run_cli("graph", "stats", str(path))
        s = json.loads(proc.stdout)
        assert s["label_count"] == 2
        assert s["augmented_count"] == 6
        assert s["edge_count"] == 12

    def test_missing_file_fails(self):
        run_cli("graph", "stats", "/nonexistent/g.json", expect=1)

    def test_malformed_file_is_named(self, tmp_path):
        # a file that is not JSON, or lacks a key, fails with its path named
        trunc = tmp_path / "trunc.json"
        trunc.write_text('{"nodes": [\n')
        keyless = tmp_path / "keyless.json"
        keyless.write_text('{"nodes": []}')
        for path in (trunc, keyless):
            for cmd in (("paths", str(path), "--label", "cat"),
                        ("graph", "validate", str(path)), ("graph", "stats", str(path))):
                proc = run_cli(*cmd, expect=1)
                assert proc.stdout == ""
                assert proc.stderr.startswith(f"pathcast: error: {path}: "), proc.stderr
                assert "Traceback" not in proc.stderr

    def test_stats_on_cyclic_file_fails(self, tmp_path):
        g = figure2_subgraph()
        blob = json.loads(serialize(g))
        blob["edges"].append([g.id_of("bengal"), g.id_of("cat")])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(blob))
        proc = run_cli("graph", "stats", str(path), expect=1)
        assert proc.stdout == ""
        assert f"pathcast: error: {path}: graph contains a cycle: " in proc.stderr
        assert "bengal -> cat" in proc.stderr  # every cycle uses the added edge

    def test_stats_on_non_dense_ids_fails(self, tmp_path):
        # ids {0, 5}: the edge (0, 5) would be dropped and the counts printed
        blob = {"nodes": [{"id": 0, "name": "root", "kind": "root", "tags": []},
                          {"id": 5, "name": "x", "kind": "label", "tags": ["d"]}],
                "edges": [[0, 5]], "groups": []}
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(blob))
        proc = run_cli("graph", "stats", str(path), expect=1)
        assert proc.stdout == ""
        assert proc.stderr == f"pathcast: error: {path}: node ids are not dense 0..n-1\n"


class TestPathsCommand:
    def test_figure2_paths(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(str(path), figure2_subgraph())
        proc = run_cli("paths", str(path), "--label", "british-shorthair")
        blob = json.loads(proc.stdout)
        assert len(blob["deterministic"]) == 1
        assert len(blob["nondeterministic"]) == 3
        assert blob["deterministic"][0] == ["animal", "cat", "shorthair",
                                            "british-shorthair"]
        assert blob["certain"] == ["animal", "british-shorthair", "cat"]

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(str(path), figure2_subgraph())
        run_cli("paths", str(path), "--label", "gryphon", expect=1)

    def test_an_unknown_label_names_the_graph_file(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(str(path), figure2_subgraph())
        proc = run_cli("paths", str(path), "--label", "nope", expect=1)
        assert proc.stderr == f"pathcast: error: {path}: unknown node name 'nope'\n"
        assert proc.stdout == ""

    def test_a_node_that_is_not_a_label_names_the_graph_file(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(str(path), figure2_subgraph())
        for name in ("cat", "shorthair"):
            proc = run_cli("paths", str(path), "--label", name, expect=1)
            assert proc.stderr == f"pathcast: error: {path}: node {name!r} is not a label node\n"
            assert proc.stdout == ""

    @pytest.mark.parametrize("singleton", [False, True])
    def test_output_is_the_oracles_in_lexicographic_order(self, tmp_path, singleton):
        g = layered_dag(7, np.random.default_rng(5), singleton)
        path = tmp_path / "g.json"
        save_graph(str(path), g)

        def names(nodes):
            return [g.node(i).name for i in nodes]

        for label in label_ids(g):
            paths = oracle_all_paths(g, label)
            det, nd = oracle_classify(g, label)
            assert (det or nd) == paths and (bool(det), bool(nd)) == (singleton, not singleton)
            want = {"deterministic": [names(p) for p in sorted(det)],
                    "nondeterministic": [names(p) for p in sorted(nd)],
                    "certain": sorted(names(set(paths[0]).intersection(*paths[1:]) | {label}))}
            proc = run_cli("paths", str(path), "--label", g.node(label).name)
            assert proc.stdout == json.dumps(want, indent=2) + "\n"


class TestSynthAndFuse:
    def test_synth_outputs(self, workdir):
        root, _ = workdir
        for name in ("graph.json", "fine.jsonl", "coarse.jsonl", "test.jsonl"):
            assert (root / name).exists()
        run_cli("graph", "validate", str(root / "graph.json"))

    def test_synth_seed_reproducible(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_train_fine": 30, "n_train_coarse": 10,
                                    "n_test": 10}))
        run_cli("synth", "--spec", str(spec), "--out-dir", str(tmp_path / "a"),
                "--seed", "9")
        run_cli("synth", "--spec", str(spec), "--out-dir", str(tmp_path / "b"),
                "--seed", "9")
        for name in ("graph.json", "fine.jsonl", "coarse.jsonl", "test.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_a_failed_synth_leaves_none_of_its_files(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_train_fine": 30, "n_train_coarse": 10, "n_test": 10}))
        out = tmp_path / "out"
        out.mkdir()
        (out / "test.jsonl").symlink_to("/dev/full")
        proc = run_cli("synth", "--spec", str(spec), "--out-dir", str(out), expect=1)
        assert proc.stderr == f"pathcast: error: {out / 'test.jsonl'}: No space left on device\n"
        assert proc.stdout == ""
        assert [p.name for p in out.iterdir()] == ["test.jsonl"]
        assert (out / "test.jsonl").is_symlink()  # the link and its device are not removed

    def test_spec_errors_name_the_file(self, tmp_path):
        for i, (text, fragment, *args) in enumerate([
                ('{"n_coarse": 2,\n', "Expecting property name"),
                ("[]", "a spec must be a JSON object"),
                ('{"n_coarse": "x"}', "'n_coarse' must be an int, not 'x'"),
                ('{"n_coarse": 1.7}', "'n_coarse' must be an int, not 1.7"),
                ('{"noise_sigma": true}', "'noise_sigma' must be a float, not True"),
                ('{"noise_sigma": NaN}', "'noise_sigma' must be a finite number, not nan"),
                ('{"wild_scale": -Infinity}', "'wild_scale' must be a finite number, not -inf"),
                ('{"wild_scale": 0.0}', "'wild_scale' must be positive, not 0.0"),
                ('{"branch_scale": -1.0}', "'branch_scale' must be positive, not -1.0"),
                ('{"group_sizes": [3, 1.5]}', "'group_sizes' must be an int, not 1.5"),
                ('{"label_profiles": [[0, 0, 0.5]]}', "'label_profiles' must be an int, not 0.5"),
                ('{"n_coarse": 5}', "n_fine_labels must divide evenly"),
                ('{"n_test": -3}', "'n_test' must be a non-negative int, not -3"),
                ("{}", "'seed' must be a non-negative int, not -1", "--seed", "-1"),
                ('{"n_train_fien": 5}', "unknown spec key 'n_train_fien'")]):
            spec = tmp_path / f"spec-{i}.json"
            spec.write_text(text)
            out = tmp_path / f"out-{i}"
            proc = run_cli("synth", "--spec", str(spec), "--out-dir", str(out), *args,
                           expect=1)
            assert proc.stderr.startswith(f"pathcast: error: {spec}: {fragment}"), proc.stderr
            assert "Traceback" not in proc.stderr
            assert not out.exists()

    def test_fuse(self, workdir, tmp_path):
        root, _ = workdir
        out = tmp_path / "fused.jsonl"
        proc = run_cli("fuse", "--fine", str(root / "fine.jsonl"),
                       "--coarse", str(root / "coarse.jsonl"),
                       "--graph", str(root / "graph.json"),
                       "--out", str(out))
        blob = json.loads(proc.stdout)
        assert blob["size"] == 150 + 60
        assert blob["k"] == 12 + 2
        assert len(out.read_text().splitlines()) == 210

    def test_a_fuse_to_a_full_device_names_it(self, workdir):
        root, _ = workdir
        proc = run_cli("fuse", "--fine", str(root / "fine.jsonl"),
                       "--coarse", str(root / "coarse.jsonl"), "--graph", str(root / "graph.json"),
                       "--out", "/dev/full", expect=1)
        assert proc.stderr == "pathcast: error: /dev/full: No space left on device\n"
        assert proc.stdout == ""
        assert os.path.exists("/dev/full")  # a device is not removed


class TestTrainEvalCycle:
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_a_checkpoint_to_a_full_device_leaves_no_file(self, workdir, tmp_path):
        # a link, so that the metrics file and the sidecar land in tmp_path
        _, cfg_path = workdir
        cfg = tmp_path / "one-epoch.json"
        cfg.write_text(json.dumps({**json.loads(cfg_path.read_text()), "epochs": 1}))
        link = tmp_path / "m.pck"
        link.symlink_to("/dev/full")
        proc = run_cli("train", "--config", str(cfg), "--out", str(link), expect=1)
        assert proc.stderr == f"pathcast: error: {link}: No space left on device\n"
        assert proc.stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.pck", "one-epoch.json"]

    def test_train_eval_inspect_and_determinism(self, workdir, tmp_path):
        root, cfg_path = workdir
        ck1 = tmp_path / "run1.pck"
        ck2 = tmp_path / "run2.pck"
        run_cli("train", "--config", str(cfg_path), "--out", str(ck1))
        run_cli("train", "--config", str(cfg_path), "--out", str(ck2))
        m1 = (str(ck1) + ".metrics.jsonl", str(ck2) + ".metrics.jsonl")
        assert open(m1[0], "rb").read() == open(m1[1], "rb").read()
        assert open(ck1, "rb").read() == open(ck2, "rb").read()

        proc = run_cli("model", "inspect", str(ck1))
        side = json.loads(proc.stdout)
        assert side["hidden"] == 16

        dump = tmp_path / "paths.jsonl"
        proc = run_cli("eval", "--ckpt", str(ck1), "--data", str(root / "test.jsonl"),
                       "--max-len", "6", "--dump-paths", str(dump))
        report = json.loads(proc.stdout)
        assert 0.0 <= report["accuracy"] <= 1.0
        lines = dump.read_text().splitlines()
        assert len(lines) == 80
        rec = json.loads(lines[0])
        assert set(rec) == {"input_id", "path", "terminated_by", "pred", "gold"}

        proc2 = run_cli("eval", "--ckpt", str(ck1), "--data", str(root / "test.jsonl"),
                        "--max-len", "6")
        assert proc2.stdout == proc.stdout  # byte-identical metrics

    def test_empty_training_file_is_rejected(self, workdir, tmp_path):
        _, cfg_path = workdir
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        cfg = json.loads(cfg_path.read_text())
        cfg["train"] = str(empty)
        bad_cfg = tmp_path / "train.json"
        bad_cfg.write_text(json.dumps(cfg))
        proc = run_cli("train", "--config", str(bad_cfg), "--out", str(tmp_path / "m.pck"),
                       expect=1)
        assert f"pathcast: error: dataset {str(empty)!r} has no samples" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "m.pck").exists()

    def test_non_finite_training_row_is_rejected(self, workdir, tmp_path):
        root, cfg_path = workdir
        rows = (root / "fine.jsonl").read_text().splitlines()
        bad_row = json.loads(rows[2])
        bad_row["x"][0] = float("nan")
        rows[2] = json.dumps(bad_row)
        bad = tmp_path / "nan.jsonl"
        bad.write_text("\n".join(rows) + "\n")
        cfg = json.loads(cfg_path.read_text())
        cfg["train"] = str(bad)
        bad_cfg = tmp_path / "train.json"
        bad_cfg.write_text(json.dumps(cfg))
        out = tmp_path / "m.pck"
        proc = run_cli("train", "--config", str(bad_cfg), "--out", str(out), expect=1)
        assert f"pathcast: error: {bad}:3: 'x' has a non-finite value" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()
        assert not (tmp_path / "m.pck.metrics.jsonl").exists()

    def test_invalid_graph_file_is_rejected(self, workdir, tmp_path):
        root, cfg_path = workdir
        blob = json.loads((root / "graph.json").read_text())
        leaf = next(n["id"] for n in blob["nodes"] if n["name"] == "cat-breed-0")
        blob["edges"] = [e for e in blob["edges"] if e[1] != leaf]
        bad = tmp_path / "graph.json"
        bad.write_text(json.dumps(blob))
        cfg = json.loads(cfg_path.read_text())
        cfg["graph"] = str(bad)
        bad_cfg = tmp_path / "train.json"
        bad_cfg.write_text(json.dumps(cfg))
        out = tmp_path / "m.pck"
        proc = run_cli("train", "--config", str(bad_cfg), "--out", str(out), expect=1)
        assert f"pathcast: error: {bad}: nodes unreachable from root" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()
        run_cli("paths", str(bad), "--label", "cat-breed-0", expect=1)
        codes = {v["code"] for v in json.loads(
            run_cli("graph", "validate", str(bad), expect=1).stdout)}
        assert "UnreachableNode" in codes

    @pytest.mark.parametrize("kind", ["fixed", "dynamic"])
    def test_empty_dev_file_is_rejected(self, workdir, tmp_path, kind):
        _, cfg_path = workdir
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        cfg = json.loads(cfg_path.read_text())
        cfg["dev"] = str(empty)
        cfg["schedule"] = {"kind": kind, "n": 2}
        bad_cfg = tmp_path / "train.json"
        bad_cfg.write_text(json.dumps(cfg))
        out = tmp_path / "m.pck"
        proc = run_cli("train", "--config", str(bad_cfg), "--out", str(out), expect=1)
        assert "pathcast: error: dev set has no samples" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()
        assert not (tmp_path / "m.pck.metrics.jsonl").exists()

    def test_config_errors_name_the_file_before_training(self, workdir, tmp_path):
        _, cfg_path = workdir
        cfg = json.loads(cfg_path.read_text())
        out = tmp_path / "m.pck"
        assert_config_errors(tmp_path, ("train", "--out", str(out)), [
            ('{"graph": ', "Expecting value"),
            ("[]", "a config must be a JSON object"),
            (without(cfg, "batch_size"), "missing key 'batch_size'"),
            (without(cfg, "train"), "missing key 'train'"),
            ({**cfg, "graph": 3}, "'graph' must name a file"),
            ({**cfg, "epochs": "x"}, "'epochs' must be an int, not 'x'"),
            ({**cfg, "epochs": -1}, "batch_size/max_len/n_p/epochs out of range"),
            ({**cfg, "schedule": {"kind": "dynamic", "n": 0}}, "schedule n must be at least 1"),
            ({**cfg, "schedule": {"knd": "dynamic"}}, "unknown schedule key 'knd'"),
            ({**cfg, "embed_dim": "wide"}, "'embed_dim' must be an int, not 'wide'"),
            ({**cfg, "hidden": 0}, "embed_dim and hidden must be at least 1"),
            ({**cfg, "epochs": 1.9}, "'epochs' must be an int, not 1.9"),
            ({**cfg, "epochs": "2"}, "'epochs' must be an int, not '2'"),
            ({**cfg, "lr": "0.01"}, "'lr' must be a float, not '0.01'"),
            ({**cfg, "hidden": 8.9}, "'hidden' must be an int, not 8.9"),
            ({**cfg, "embed_dim": True}, "'embed_dim' must be an int, not True"),
            ({**cfg, "lr": float("nan")}, "'lr' must be a finite number"),
            ({**cfg, "alpha": float("inf")}, "'alpha' must be a finite number"),
        ])
        assert not out.exists()
        assert not (tmp_path / "m.pck.metrics.jsonl").exists()

    def test_non_string_dev_is_rejected_before_training(self, workdir, tmp_path):
        _, cfg_path = workdir
        cfg = json.loads(cfg_path.read_text())
        out = tmp_path / "m.pck"
        assert_config_errors(tmp_path, ("train", "--out", str(out)), [
            ({**cfg, "dev": 5}, "'dev' must name a file"),
            ({**cfg, "dev": None}, "'dev' must name a file"),
        ])
        assert not out.exists()
        assert not (tmp_path / "m.pck.metrics.jsonl").exists()

    def test_metrics_lines_are_json(self, workdir, tmp_path):
        root, cfg_path = workdir
        ck = tmp_path / "m.pck"
        run_cli("train", "--config", str(cfg_path), "--out", str(ck))
        lines = open(str(ck) + ".metrics.jsonl").read().splitlines()
        assert len(lines) == 3
        for line in lines:
            rec = json.loads(line)
            assert "epoch" in rec and "loss_d" in rec and "dev_accuracy" in rec


@pytest.fixture(scope="module")
def checkpoint(workdir):
    """A one-epoch checkpoint of the workdir task."""
    root, cfg_path = workdir
    cfg = root / "one-epoch.json"
    cfg.write_text(json.dumps({**json.loads(cfg_path.read_text()), "epochs": 1}))
    ck = root / "one-epoch.pck"
    run_cli("train", "--config", str(cfg), "--out", str(ck))
    return ck


def rewritten(src, dst, edit):
    """``src`` with ``edit`` applied to every row, written to ``dst``."""
    rows = [json.loads(line) for line in src.read_text().splitlines()]
    dst.write_text("".join(json.dumps(edit(i, row)) + "\n" for i, row in enumerate(rows)))
    return dst


class TestDatasetChecks:
    """A dataset that cannot be used fails where it is read, before any
    training, with one error line that names its file."""

    @pytest.mark.parametrize("command", ["train", "eval", "baseline", "ablate", "fuse"])
    def test_a_wider_dataset_is_rejected(self, workdir, checkpoint, tmp_path, command):
        root, cfg_path = workdir
        wide = rewritten(root / "test.jsonl", tmp_path / "wide.jsonl",
                         lambda i, row: {**row, "x": row["x"] + [0.0]})
        cfg = {**json.loads(cfg_path.read_text()), "dev": str(wide), "test": str(wide)}
        if command == "baseline":
            cfg = {k: cfg[k] for k in ("graph", "train", "test", "hidden", "epochs", "lr")}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        out = tmp_path / "m.pck"
        args = {"train": ("train", "--config", str(cfg_file), "--out", str(out)),
                "eval": ("eval", "--ckpt", str(checkpoint), "--data", str(wide)),
                "baseline": ("baseline", "ffn", "--config", str(cfg_file)),
                "ablate": ("ablate", "--config", str(cfg_file)),
                "fuse": ("fuse", "--fine", str(root / "fine.jsonl"), "--coarse", str(wide),
                         "--graph", str(root / "graph.json"), "--out", str(out))}[command]
        proc = run_cli(*args, expect=1)
        assert proc.stderr == f"pathcast: error: {wide}:1: 'x' has 12 values, not 11\n"
        assert proc.stdout == ""
        assert not out.exists()
        assert not (tmp_path / "m.pck.metrics.jsonl").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_a_label_not_in_the_graph_names_the_file_and_row(self, workdir, checkpoint,
                                                              tmp_path, command):
        root, cfg_path = workdir
        bad = rewritten(root / "fine.jsonl", tmp_path / "zebra.jsonl",
                        lambda i, row: {**row, "label": "zebra"} if i == 1 else row)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({**json.loads(cfg_path.read_text()), "train": str(bad)}))
        out = tmp_path / "m.pck"
        args = {"train": ("train", "--config", str(cfg_file), "--out", str(out)),
                "eval": ("eval", "--ckpt", str(checkpoint), "--data", str(bad))}[command]
        proc = run_cli(*args, expect=1)
        assert proc.stderr == f"pathcast: error: {bad}: row 2: label 'zebra' not in graph\n"
        assert not out.exists()

    def test_a_file_that_is_not_utf8_names_its_line(self, workdir, tmp_path):
        root, _ = workdir
        bad = tmp_path / "latin1.jsonl"
        lines = (root / "fine.jsonl").read_bytes().splitlines(keepends=True)
        bad.write_bytes(b"".join(lines[:2]) + lines[2].replace(b'"label": "',
                                                               b'"label": "\xe9'))
        out = tmp_path / "fused.jsonl"
        proc = run_cli("fuse", "--fine", str(bad), "--coarse", str(root / "coarse.jsonl"),
                       "--graph", str(root / "graph.json"), "--out", str(out), expect=1)
        assert proc.stderr.startswith(f"pathcast: error: {bad}:3: not UTF-8: "
                                      "invalid continuation byte at column ")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_an_empty_file_is_rejected_by_eval(self, checkpoint, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        dump = tmp_path / "paths.jsonl"
        proc = run_cli("eval", "--ckpt", str(checkpoint), "--data", str(empty),
                       "--dump-paths", str(dump), expect=1)
        assert proc.stderr == f"pathcast: error: dataset {str(empty)!r} has no samples\n"
        assert proc.stdout == ""
        assert not dump.exists()


class TestNonFiniteTraining:
    def test_a_non_finite_adam_step_is_one_error_line(self, workdir, tmp_path, monkeypatch,
                                                      capsys):
        from pathcast import cli, numerics, trainer

        def poisoned(state, params, lr_scale=1.0):
            params["gru.b_r"].grad = np.full(params["gru.b_r"].shape, np.inf)
            numerics.adam_step(state, params, lr_scale)

        _, cfg_path = workdir
        monkeypatch.setattr(trainer, "adam_step", poisoned)
        out = tmp_path / "m.pck"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("pathcast: error: epoch 1, batch 1: adam step 1: parameter 'gru.b_r' "
                       "is not finite\n")
        assert not out.exists()
        assert not (tmp_path / "m.pck.metrics.jsonl").exists()

    def test_an_overflowing_learning_rate_names_the_epoch_and_batch(self, workdir, tmp_path):
        # the first step takes the weights to about 1e308, still finite; the
        # next batch's forward pass overflows
        _, cfg_path = workdir
        cfg = tmp_path / "lr.json"
        cfg.write_text(json.dumps({**json.loads(cfg_path.read_text()), "lr": 1e308}))
        out = tmp_path / "m.pck"
        proc = run_cli("train", "--config", str(cfg), "--out", str(out), expect=1)
        # the overflow warns nothing: the one line is all of stderr
        assert proc.stderr == "pathcast: error: epoch 1, batch 2: non-finite logits\n"
        assert not out.exists()
        assert not (tmp_path / "m.pck.metrics.jsonl").exists()

    def test_an_overflow_first_met_by_the_dev_evaluation_names_the_epoch(self, workdir,
                                                                         tmp_path):
        # one batch per epoch: the step to about 1e308 is the epoch's last,
        # so the dev evaluation runs the first overflowing forward pass
        _, cfg_path = workdir
        cfg = tmp_path / "lr.json"
        cfg.write_text(json.dumps({**json.loads(cfg_path.read_text()), "lr": 1e308,
                                   "batch_size": 256}))
        out = tmp_path / "m.pck"
        proc = run_cli("train", "--config", str(cfg), "--out", str(out), expect=1)
        assert proc.stderr == "pathcast: error: epoch 1, dev evaluation: non-finite logits\n"
        assert not out.exists()
        assert not (tmp_path / "m.pck.metrics.jsonl").exists()


    def test_an_overflowing_baseline_prints_one_line(self, workdir, tmp_path):
        root, _ = workdir
        cfg = tmp_path / "bl.json"
        cfg.write_text(json.dumps({"graph": str(root / "graph.json"),
                                   "train": str(root / "fine.jsonl"),
                                   "test": str(root / "test.jsonl"), "lr": 1e308}))
        proc = run_cli("baseline", "ffn", "--config", str(cfg), expect=1)
        assert proc.stderr == "pathcast: error: non-finite logits\n"

    def test_an_eval_that_overflows_prints_one_line(self, workdir, checkpoint, tmp_path):
        # 1e308 is finite, so the checkpoint loads; the first decode step overflows
        from pathcast.numerics import load_params, save_params
        root, _ = workdir
        ckpt = tmp_path / "big.pck"
        (tmp_path / "big.pck.json").write_text(Path(f"{checkpoint}.json").read_text())
        weights = load_params(str(checkpoint))
        save_params(str(ckpt), {**weights, "out.w": np.full_like(weights["out.w"], 1e308)})
        proc = run_cli("eval", "--ckpt", str(ckpt), "--data", str(root / "test.jsonl"), expect=1)
        assert proc.stderr == "pathcast: error: non-finite logits\n"


class TestClosedStdout:
    @pytest.mark.parametrize("command", ["graph stats", "eval"])
    def test_a_closed_stdout_is_one_error_line(self, workdir, checkpoint, command):
        root, _ = workdir
        args = {"graph stats": ("graph", "stats", str(root / "graph.json")),
                "eval": ("eval", "--ckpt", str(checkpoint), "--data", str(root / "test.jsonl"),
                         "--audit")}[command]
        read, write = os.pipe()
        os.close(read)  # no reader from the start: the first write to stdout fails
        try:
            proc = subprocess.run([sys.executable, "-m", "pathcast", *args], stdout=write,
                                  stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == "pathcast: error: stdout: Broken pipe\n"


class TestEvalAudit:
    def test_eval_with_audit_reports_path_correctness(self, workdir, tmp_path):
        root, cfg_path = workdir
        ck = tmp_path / "aud.pck"
        run_cli("train", "--config", str(cfg_path), "--out", str(ck))
        proc = run_cli("eval", "--ckpt", str(ck), "--data", str(root / "test.jsonl"),
                       "--max-len", "6", "--audit")
        report = json.loads(proc.stdout)
        assert report["path_correctness"] is not None
        assert 0.0 <= report["path_correctness"] <= 1.0

    @pytest.mark.parametrize("attrs", [["cat-hair"], "cat-hair-0", {"cat-hair": 0}])
    def test_malformed_attrs_are_rejected(self, workdir, tmp_path, attrs):
        root, cfg_path = workdir
        ck = tmp_path / "aud.pck"
        run_cli("train", "--config", str(cfg_path), "--out", str(ck))
        rows = (root / "test.jsonl").read_text().splitlines()
        bad_row = json.loads(rows[1])
        bad_row["attrs"] = attrs
        rows[1] = json.dumps(bad_row)
        bad = tmp_path / "attrs.jsonl"
        bad.write_text("\n".join(rows) + "\n")
        proc = run_cli("eval", "--ckpt", str(ck), "--data", str(bad), "--max-len", "6",
                       "--audit", expect=1)
        assert (f"pathcast: error: {bad}:2: 'attrs' must map group names to member names"
                in proc.stderr)
        assert "Traceback" not in proc.stderr

    def test_nothing_auditable_names_the_data_file(self, workdir, checkpoint, tmp_path):
        root, _ = workdir
        data, dump = root / "fine.jsonl", tmp_path / "paths.jsonl"  # rows without attrs
        proc = run_cli("eval", "--ckpt", str(checkpoint), "--data", str(data), "--audit",
                       "--dump-paths", str(dump), expect=1)
        assert proc.stderr == (f"pathcast: error: {data}: no decoded nondeterministic "
                               "group traversals\n")
        assert proc.stdout == ""
        assert not dump.exists()


    def test_an_upper_cased_file_reads_as_the_lower_cased_one(self, workdir, checkpoint,
                                                               tmp_path):
        # labels, group names and members all resolve through their canonical form
        root, _ = workdir
        lower = root / "test.jsonl"
        upper = rewritten(lower, tmp_path / "upper.jsonl", lambda i, row: {
            **row, "label": row["label"].upper(),
            "attrs": {k.upper(): v.upper() for k, v in row["attrs"].items()}})
        runs = []
        for data in (lower, upper):
            dump = tmp_path / f"{data.stem}.paths.jsonl"
            proc = run_cli("eval", "--ckpt", str(checkpoint), "--data", str(data), "--audit",
                           "--dump-paths", str(dump))
            runs.append((json.loads(proc.stdout), dump.read_text()))
        assert runs[0][0]["path_correctness"] > 0
        assert runs[1] == runs[0]


class TestEvalDecodesOnce:
    def test_dump_paths_reuses_the_evaluation_decodes(self, workdir, tmp_path,
                                                      monkeypatch):
        from pathcast import cli, evaldecode
        from pathcast.harness import load_dataset
        from pathcast.labelgraph import load_graph
        from pathcast.model import LabelPathModel

        root, cfg_path = workdir
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_train_fine": 150, "n_train_coarse": 60,
                                    "n_test": 200, "seed": 3}))
        assert cli.main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        ck = tmp_path / "m.pck"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(ck)]) == 0
        calls, rows = [], []
        decode, walk = evaldecode.greedy_decode, LabelPathModel.walk

        def counting(*args, **kwargs):
            calls.append(1)
            return decode(*args, **kwargs)

        def counting_walk(model, x, *args, **kwargs):
            rows.append(len(x))
            return walk(model, x, *args, **kwargs)

        monkeypatch.setattr(evaldecode, "greedy_decode", counting)
        monkeypatch.setattr(LabelPathModel, "walk", counting_walk)
        dump = tmp_path / "paths.jsonl"
        assert cli.main(["eval", "--ckpt", str(ck), "--data", str(tmp_path / "test.jsonl"),
                         "--max-len", "6", "--audit", "--dump-paths", str(dump)]) == 0
        graph = load_graph(str(root / "graph.json"))
        samples = load_dataset(str(tmp_path / "test.jsonl")).samples
        audited = sum(1 for s in samples if s.attrs and
                      evaldecode.nondeterministic_groups(graph, graph.id_of(s.label)))
        assert len(samples) == 200 and 0 < audited < 200
        # every row decoded once, through the lockstep engine
        assert sum(rows) == len(samples) and not calls
        assert len(dump.read_text().splitlines()) == len(samples)


class TestEvalOptions:
    @pytest.mark.parametrize("value", ["1", "0", "-3", "2.5", "six"])
    def test_a_bad_max_len_is_rejected_before_any_file_is_read(self, tmp_path, value):
        # neither file exists: reading either would fail naming it instead
        proc = run_cli("eval", "--ckpt", str(tmp_path / "none.pck"),
                       "--data", str(tmp_path / "none.jsonl"), "--max-len", value, expect=2)
        errors = [line for line in proc.stderr.splitlines() if "error" in line]
        assert errors == [f"pathcast eval: error: argument --max-len: must be an int of at "
                          f"least 2, not {value!r}"]
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    def test_an_unwritable_dump_path_fails_before_decoding(self, workdir, checkpoint, tmp_path,
                                                           monkeypatch, capsys):
        from pathcast import cli, evaldecode

        def no_decode(*args, **kwargs):
            raise AssertionError("decoded before the dump path was opened")

        monkeypatch.setattr(evaldecode, "decode_rows", no_decode)
        monkeypatch.setattr(evaldecode, "evaluate", no_decode)
        root, _ = workdir
        dump = tmp_path / "nodir" / "paths.jsonl"
        assert cli.main(["eval", "--ckpt", str(checkpoint), "--data", str(root / "test.jsonl"),
                         "--dump-paths", str(dump)]) == 1
        out = capsys.readouterr()
        assert out.err == f"pathcast: error: {dump}: No such file or directory\n"
        assert out.out == ""

    def test_a_failure_after_the_dump_opens_leaves_no_dump(self, workdir, checkpoint, tmp_path,
                                                           monkeypatch, capsys):
        from pathcast import cli, evaldecode

        def failing(*args, **kwargs):
            assert dump.exists()  # opened, and empty
            raise evaldecode.EmptyDataset("stopped after the dump was opened")

        monkeypatch.setattr(evaldecode, "evaluate", failing)
        root, _ = workdir
        dump = tmp_path / "paths.jsonl"
        assert cli.main(["eval", "--ckpt", str(checkpoint), "--data", str(root / "test.jsonl"),
                         "--dump-paths", str(dump)]) == 1
        assert capsys.readouterr().err == "pathcast: error: stopped after the dump was opened\n"
        assert not dump.exists()

    @pytest.mark.parametrize("command", [("eval", "--data", "x.jsonl", "--ckpt"),
                                         ("model", "inspect")])
    def test_a_missing_checkpoint_is_named(self, tmp_path, command):
        # the sidecar is read first, and is missing too: the error names the checkpoint
        ckpt = tmp_path / "nope.pck"
        proc = run_cli(*command, str(ckpt), expect=1)
        assert proc.stderr == (f"pathcast: error: [Errno 2] No such file or directory: "
                               f"'{ckpt}'\n")
        assert proc.stdout == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_a_dump_to_a_full_device_names_it(self, workdir, checkpoint):
        root, _ = workdir
        proc = run_cli("eval", "--ckpt", str(checkpoint), "--data", str(root / "test.jsonl"),
                       "--dump-paths", "/dev/full", expect=1)
        assert proc.stderr == "pathcast: error: /dev/full: No space left on device\n"
        assert proc.stdout == ""
        assert os.path.exists("/dev/full")  # a device is not removed


class TestAblateCommand:
    def test_ablate_emits_variant_rows(self, workdir, tmp_path):
        root, _ = workdir
        cfg = {
            "graph": str(root / "graph.json"),
            "train": str(root / "fine.jsonl"),
            "dev": str(root / "test.jsonl"),
            "test": str(root / "test.jsonl"),
            "batch_size": 32, "max_len": 6, "r_tf": 1.0,
            "alpha": 1.0, "beta": 1.0, "path_agg": "mean", "n_p": 4,
            "reward_set": "certain", "lr_e": 0.01, "lr": 0.01,
            "schedule": {"kind": "fixed", "n": 10}, "epochs": 1, "seed": 2,
            "embed_dim": 8, "hidden": 16,
            "trim_fractions": [0.36], "aggregations": ["sum"],
        }
        p = tmp_path / "ablate.json"
        p.write_text(json.dumps(cfg))
        proc = run_cli("ablate", "--config", str(p))
        rows = json.loads(proc.stdout)
        variants = {r["variant"] for r in rows}
        assert variants == {"full", "trim-36", "agg-sum"}
        full = next(r for r in rows if r["variant"] == "full")
        assert full["delta"] == 0.0
        for r in rows:
            assert 0.0 <= r["accuracy"] <= 1.0

    def test_config_errors_name_the_file(self, workdir, tmp_path):
        root, cfg_path = workdir
        cfg = {**json.loads(cfg_path.read_text()), "test": str(root / "test.jsonl")}
        assert_config_errors(tmp_path, ("ablate",), [
            ("{", "Expecting property name"),
            (without(cfg, "test"), "missing key 'test'"),
            (without(cfg, "lr"), "missing key 'lr'"),
            ({**cfg, "epochs": "x"}, "'epochs' must be an int, not 'x'"),
            ({**cfg, "trim_fractions": 0.5}, "'trim_fractions' must be a list, not 0.5"),
            ({**cfg, "r_tf": 2.0}, "r_tf must lie in [0,1]"),
            ({**cfg, "epochs": 1.9}, "'epochs' must be an int, not 1.9"),
            ({**cfg, "hidden": 8.9}, "'hidden' must be an int, not 8.9"),
            ({**cfg, "aggregations": ["nope"]},
             "'aggregations' must hold path aggregations ('mean', 'sum', 'random'), not 'nope'"),
            ({**cfg, "aggregations": "sum"}, "'aggregations' must be a list, not 'sum'"),
            ({**cfg, "trim_fractions": [1.5]}, "'trim_fractions' must hold numbers in [0,1], not 1.5"),
            ({**cfg, "trim_fractions": [0.3, -0.1]},
             "'trim_fractions' must hold numbers in [0,1], not -0.1"),
            ({**cfg, "trim_fractions": ["0.3"]},
             "'trim_fractions' must hold numbers in [0,1], not '0.3'"),
        ])


class TestBaselineCommand:
    def test_ffn_baseline_runs(self, workdir, tmp_path):
        root, _ = workdir
        cfg = {"graph": str(root / "graph.json"), "train": str(root / "fine.jsonl"),
               "test": str(root / "test.jsonl"), "hidden": 16, "epochs": 3,
               "batch_size": 32, "lr": 0.02,
               "schedule": {"kind": "fixed", "n": 10}, "seed": 0}
        p = tmp_path / "bl.json"
        p.write_text(json.dumps(cfg))
        proc = run_cli("baseline", "ffn", "--config", str(p))
        report = json.loads(proc.stdout)
        assert "accuracy" in report and "macro_f1" in report

    def test_pseudo_baseline_runs(self, workdir, tmp_path):
        root, _ = workdir
        cfg = {"graph": str(root / "graph.json"), "fine": str(root / "fine.jsonl"),
               "coarse": str(root / "coarse.jsonl"), "test": str(root / "test.jsonl"),
               "hidden": 16, "epochs": 2, "batch_size": 32, "lr": 0.02,
               "schedule": {"kind": "fixed", "n": 10}, "seed": 0}
        p = tmp_path / "ps.json"
        p.write_text(json.dumps(cfg))
        proc = run_cli("baseline", "pseudo", "--config", str(p))
        first, rest = proc.stdout.split("\n", 1)
        info = json.loads(first)
        assert info["kept"] + info["dropped"] == 60
        assert "accuracy" in json.loads(rest)

    def test_labelset_baseline_rejects_fused_training_set(self, workdir, tmp_path):
        root, _ = workdir
        fused = tmp_path / "fused.jsonl"
        run_cli("fuse", "--fine", str(root / "fine.jsonl"),
                "--coarse", str(root / "coarse.jsonl"),
                "--graph", str(root / "graph.json"), "--out", str(fused))
        cfg = {"graph": str(root / "graph.json"), "train": str(fused),
               "test": str(root / "test.jsonl"), "hidden": 16, "epochs": 3,
               "batch_size": 32, "lr": 0.02,
               "schedule": {"kind": "fixed", "n": 10}, "seed": 0}
        p = tmp_path / "ls.json"
        p.write_text(json.dumps(cfg))
        proc = run_cli("baseline", "labelset", "--config", str(p), expect=1)
        assert f"pathcast: error: {fused}: label " in proc.stderr
        assert "labelset baseline" in proc.stderr

    @pytest.mark.parametrize("kind, key", [("labelset", "train"), ("pseudo", "fine")])
    def test_a_label_not_in_the_graph_fails_before_training(self, workdir, tmp_path,
                                                             monkeypatch, capsys, kind, key):
        from pathcast import cli, harness
        root, _ = workdir
        bad = rewritten(root / "fine.jsonl", tmp_path / "bad.jsonl",
                        lambda i, row: {**row, "label": "no-such-breed"} if i == 4 else row)
        cfg = tmp_path / "bl.json"
        cfg.write_text(json.dumps({"graph": str(root / "graph.json"), key: str(bad),
                                   "coarse": str(root / "coarse.jsonl"),
                                   "test": str(root / "test.jsonl")}))
        trained = []
        monkeypatch.setattr(harness, "_fit_classifier", lambda *a: trained.append(a))
        assert cli.main(["baseline", kind, "--config", str(cfg)]) == 1
        assert capsys.readouterr() == (
            "", f"pathcast: error: {bad}: row 5: label 'no-such-breed' not in graph\n")
        assert not trained

    def test_config_errors_name_the_file(self, workdir, tmp_path):
        root, _ = workdir
        cfg = {"graph": str(root / "graph.json"), "fine": str(root / "fine.jsonl"),
               "coarse": str(root / "coarse.jsonl"), "test": str(root / "test.jsonl"),
               "hidden": 16, "epochs": 2, "batch_size": 32, "lr": 0.02, "seed": 0}
        assert_config_errors(tmp_path, ("baseline", "pseudo"), [
            ("not json", "Expecting value"),
            (without(cfg, "graph"), "missing key 'graph'"),
            (without(cfg, "coarse"), "missing key 'coarse'"),
            ({**cfg, "epochs": "x"}, "'epochs' must be an int, not 'x'"),
            ({**cfg, "schedule": "dynamic"}, "schedule must be an object, not 'dynamic'"),
            ({**cfg, "hidden": 0}, "hidden/batch_size/epochs out of range"),
            ({**cfg, "epochs": 1.9}, "'epochs' must be an int, not 1.9"),
            ({**cfg, "hidden": 8.9}, "'hidden' must be an int, not 8.9"),
            ({**cfg, "lr": "0.02"}, "'lr' must be a float, not '0.02'"),
            ({**cfg, "lr": float("inf")}, "'lr' must be a finite number"),
        ])

    def test_bad_values_fail_before_training(self, workdir, tmp_path):
        # the train file does not exist: a run that got past the config
        # would fail on it instead, and before that the config is all it read
        root, _ = workdir
        cfg = {"graph": str(root / "graph.json"), "train": str(tmp_path / "absent.jsonl"),
               "test": str(root / "test.jsonl")}
        assert_config_errors(tmp_path, ("baseline", "ffn"), [
            ({**cfg, "schedule": {"n": 0}}, "schedule n must be at least 1"),
            ({**cfg, "schedule": {"kind": "nope"}}, "unknown schedule kind 'nope'"),
            ({**cfg, "batch_size": 0}, "hidden/batch_size/epochs out of range"),
            ({**cfg, "epochs": -3}, "hidden/batch_size/epochs out of range"),
            ({**cfg, "lr": -0.5}, "lr must be positive"),
            ({**cfg, "hidden": 0}, "hidden/batch_size/epochs out of range"),
        ])


PARAMETER_ERRORS = [
    (lambda w: {**w, "extra": np.zeros(2)}, "unexpected parameter 'extra'"),
    (lambda w: without(w, "out.b"), "missing parameter 'out.b'"),
    (lambda w: {**w, "emb": np.zeros((w["emb"].shape[0], 3))},
     "parameter 'emb' has shape [{v}, 3], not [{v}, 4]"),
]


class TestCorruptSidecar:
    @pytest.mark.parametrize("command", [("model", "inspect"), ("eval", "--data", "x.jsonl",
                                                                 "--ckpt")])
    def test_sidecar_errors_name_the_file(self, tmp_path, command):
        from pathcast.model import LabelPathModel, save_model
        ckpt = tmp_path / "m.pck"
        save_model(str(ckpt), LabelPathModel(figure2_subgraph(), 5, 4, 6))
        good = json.loads((tmp_path / "m.pck.json").read_text())
        for text, message in [
                ('{"graph_file": "g.json", "input_dim"', "malformed JSON: Expecting ':' delimiter"),
                (json.dumps(without(good, "input_dim")), "missing key 'input_dim'"),
                (json.dumps({**good, "hidden": "many"}), "'hidden' must be a positive int")]:
            (tmp_path / "m.pck.json").write_text(text)
            proc = run_cli(*command, str(ckpt), expect=1)
            assert proc.stderr.startswith(f"pathcast: error: {ckpt}.json: {message}"), proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stdout == ""

    def test_graph_that_differs_from_the_digest_names_the_sidecar(self, tmp_path):
        from pathcast.labelgraph import build_graph
        from pathcast.model import LabelPathModel, save_model
        gpath = tmp_path / "g.json"
        ckpt = tmp_path / "m.pck"
        save_model(str(ckpt), LabelPathModel(figure2_subgraph(), 5, 4, 6, graph_file=str(gpath)))
        save_graph(str(gpath), build_graph([("d", ["x"])], [("a", ["root"])], [("a", "x")]))
        proc = run_cli("eval", "--data", "x.jsonl", "--ckpt", str(ckpt), expect=1)
        assert proc.stderr.startswith(f"pathcast: error: {ckpt}.json: graph file {gpath} "
                                      f"has sha256 "), proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


    @pytest.mark.parametrize("edit, message", PARAMETER_ERRORS)
    def test_parameter_errors_name_the_checkpoint(self, tmp_path, edit, message):
        from pathcast.model import LabelPathModel, save_model
        from pathcast.numerics import load_params, save_params
        gpath, ckpt, dump = tmp_path / "g.json", tmp_path / "m.pck", tmp_path / "paths.jsonl"
        save_graph(str(gpath), figure2_subgraph())
        model = LabelPathModel(figure2_subgraph(), 5, 4, 6, graph_file=str(gpath))
        save_model(str(ckpt), model)
        save_params(str(ckpt), edit(load_params(str(ckpt))))
        proc = run_cli("eval", "--data", "x.jsonl", "--ckpt", str(ckpt),
                       "--dump-paths", str(dump), expect=1)
        assert proc.stderr == (f"pathcast: error: {ckpt}: "
                               f"{message.format(v=model.vocab_size)}\n")
        assert proc.stdout == ""
        assert not dump.exists()

    @pytest.mark.parametrize("edit, message", PARAMETER_ERRORS)
    def test_model_inspect_checks_the_parameters_as_eval_does(self, tmp_path, edit, message):
        from pathcast.model import LabelPathModel, save_model
        from pathcast.numerics import load_params, save_params
        gpath, ckpt = tmp_path / "g.json", tmp_path / "m.pck"
        save_graph(str(gpath), figure2_subgraph())
        model = LabelPathModel(figure2_subgraph(), 5, 4, 6, graph_file=str(gpath))
        save_model(str(ckpt), model)
        assert json.loads(run_cli("model", "inspect", str(ckpt)).stdout)["embed_dim"] == 4
        save_params(str(ckpt), edit(load_params(str(ckpt))))
        proc = run_cli("model", "inspect", str(ckpt), expect=1)
        assert proc.stderr == (f"pathcast: error: {ckpt}: "
                               f"{message.format(v=model.vocab_size)}\n")
        assert proc.stdout == ""


class TestModelDims:
    def test_defaults_and_ints_are_accepted(self):
        from pathcast.cli import _model_dims
        assert _model_dims({}) == (16, 32)
        assert _model_dims({"embed_dim": 4, "hidden": 9}) == (4, 9)

    @pytest.mark.parametrize("raw, message", [
        ({"hidden": 8.9}, "'hidden' must be an int, not 8.9"),
        ({"embed_dim": "8"}, "'embed_dim' must be an int, not '8'"),
        ({"hidden": False}, "'hidden' must be an int, not False"),
    ])
    def test_wrong_types_are_rejected(self, raw, message):
        from pathcast.cli import _model_dims
        with pytest.raises(ValueError, match=message):
            _model_dims(raw)
