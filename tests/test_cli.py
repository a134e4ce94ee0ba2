"""End-to-end CLI coverage through subprocess invocations."""

import json
import subprocess
import sys

import pytest

from pathcast.labelgraph import save_graph, serialize

from test_labelgraph import figure2_subgraph


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
        assert "pathcast: error: graph contains a cycle: " in proc.stderr
        assert "bengal -> cat" in proc.stderr  # every cycle uses the added edge


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


class TestTrainEvalCycle:
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
            ({**cfg, "epochs": "x"}, "invalid literal for int()"),
            ({**cfg, "epochs": -1}, "batch_size/max_len/n_p/epochs out of range"),
            ({**cfg, "schedule": {"kind": "dynamic", "n": 0}}, "schedule n must be at least 1"),
            ({**cfg, "embed_dim": "wide"}, "invalid literal for int()"),
            ({**cfg, "hidden": 0}, "embed_dim and hidden must be at least 1"),
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


class TestEvalDecodesOnce:
    def test_dump_paths_reuses_the_evaluation_decodes(self, workdir, tmp_path,
                                                      monkeypatch):
        from pathcast import cli, evaldecode
        from pathcast.harness import load_dataset
        from pathcast.labelgraph import load_graph

        root, cfg_path = workdir
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_train_fine": 150, "n_train_coarse": 60,
                                    "n_test": 200, "seed": 3}))
        assert cli.main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        ck = tmp_path / "m.pck"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(ck)]) == 0
        calls = []
        decode = evaldecode.greedy_decode

        def counting(*args, **kwargs):
            calls.append(1)
            return decode(*args, **kwargs)

        monkeypatch.setattr(evaldecode, "greedy_decode", counting)
        dump = tmp_path / "paths.jsonl"
        assert cli.main(["eval", "--ckpt", str(ck), "--data", str(tmp_path / "test.jsonl"),
                         "--max-len", "6", "--audit", "--dump-paths", str(dump)]) == 0
        graph = load_graph(str(root / "graph.json"))
        samples = load_dataset(str(tmp_path / "test.jsonl")).samples
        audited = sum(1 for s in samples if s.attrs and
                      evaldecode.nondeterministic_groups(graph, graph.id_of(s.label)))
        assert len(samples) == 200 and 0 < audited < 200
        assert len(calls) == len(samples)
        assert len(dump.read_text().splitlines()) == len(samples)


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
            ({**cfg, "epochs": "x"}, "invalid literal for int()"),
            ({**cfg, "trim_fractions": 0.5}, "'float' object is not iterable"),
            ({**cfg, "r_tf": 2.0}, "r_tf must lie in [0,1]"),
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

    def test_config_errors_name_the_file(self, workdir, tmp_path):
        root, _ = workdir
        cfg = {"graph": str(root / "graph.json"), "fine": str(root / "fine.jsonl"),
               "coarse": str(root / "coarse.jsonl"), "test": str(root / "test.jsonl"),
               "hidden": 16, "epochs": 2, "batch_size": 32, "lr": 0.02, "seed": 0}
        assert_config_errors(tmp_path, ("baseline", "pseudo"), [
            ("not json", "Expecting value"),
            (without(cfg, "graph"), "missing key 'graph'"),
            (without(cfg, "coarse"), "missing key 'coarse'"),
            ({**cfg, "epochs": "x"}, "invalid literal for int()"),
            ({**cfg, "schedule": "dynamic"}, "schedule must be an object, not 'dynamic'"),
            ({**cfg, "hidden": 0}, "hidden/batch_size/epochs out of range"),
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
