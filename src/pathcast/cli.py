"""Command line entry points for graph tooling, training, evaluation and the
synthetic-experiment harness. Every command exits 0 only when it completes
and its outputs validate."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from . import evaldecode, harness, labelgraph
from .model import load_model, read_sidecar, save_model
from .trainer import TrainConfig


class InvalidConfig(ValueError):
    """A config file that cannot be used; the message starts ``<path>:``."""


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


@contextmanager
def _naming(path: str):
    """Re-raise a missing key or a bad value as InvalidConfig naming ``path``."""
    try:
        yield
    except KeyError as exc:
        raise InvalidConfig(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"{path}: {exc}") from None


def _config(args, cls, files: tuple[str, ...]):
    """The training commands' prologue: ``(raw, cfg, graph)`` from
    ``args.config``, with ``--seed`` applied to ``cfg``. ``graph`` and each
    key in ``files`` must name a file."""
    with _naming(args.config):
        raw = _read_json(args.config)
        if not isinstance(raw, dict):
            raise ValueError("a config must be a JSON object")
        for key in ("graph", *files):
            if not isinstance(raw[key], str):
                raise ValueError(f"{key!r} must name a file")
        cfg = cls.from_dict(raw)
    if args.seed is not None:
        cfg.seed = args.seed
    return raw, cfg, labelgraph.load_graph(raw["graph"])


def _model_dims(raw: dict) -> tuple[int, int]:
    """``(embed_dim, hidden)`` of a path-model config."""
    dims = int(raw.get("embed_dim", 16)), int(raw.get("hidden", 32))
    if min(dims) < 1:
        raise ValueError("embed_dim and hidden must be at least 1")
    return dims


def cmd_graph_validate(args) -> int:
    graph = labelgraph.read_graph(args.file)
    violations = labelgraph.validate(graph)
    print(json.dumps([{"code": v.code, "message": v.message, "names": list(v.names)}
                      for v in violations], indent=2))
    return 0 if not violations else 1


def cmd_graph_stats(args) -> int:
    graph = labelgraph.read_graph(args.file)
    s = labelgraph.stats(graph)
    print(json.dumps({"label_count": s.label_count, "augmented_count": s.augmented_count,
                      "edge_count": s.edge_count, "group_count": s.group_count,
                      "max_depth": s.max_depth}, indent=2, sort_keys=True))
    return 0


def cmd_paths(args) -> int:
    from .pathalg import certain_nodes, classify_paths

    graph = labelgraph.load_graph(args.graph)
    label = graph.id_of(args.label)
    ps = classify_paths(graph, label)
    certain = certain_nodes(graph, label)

    def names(path):
        return [graph.node(i).name for i in path]

    print(json.dumps({
        "deterministic": [names(p) for p in ps.deterministic],
        "nondeterministic": [names(p) for p in ps.nondeterministic],
        "certain": sorted(graph.node(i).name for i in certain.members),
    }, indent=2))
    return 0


def cmd_model_inspect(args) -> int:
    print(json.dumps(read_sidecar(args.ckpt), indent=2, sort_keys=True))
    return 0


def cmd_train(args) -> int:
    raw, cfg, graph = _config(args, TrainConfig, ("train",))
    with _naming(args.config):
        embed_dim, hidden = _model_dims(raw)
    train_ds = harness.load_dataset(raw["train"])
    dev_ds = harness.load_dataset(raw["dev"]) if raw.get("dev") else None
    model = harness.fit_model(graph, train_ds, dev_ds, cfg, embed_dim, hidden,
                              graph_file=raw["graph"], metrics_path=args.out + ".metrics.jsonl")
    save_model(args.out, model)
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.ckpt)
    graph = model.graph
    ds = harness.load_dataset(args.data)
    samples = harness.resolve_samples(ds, graph)
    decoded: list[evaldecode.DecodedResult] = []
    report = evaldecode.evaluate(model, samples, args.max_len, decoded)
    if args.audit:
        triples = [(s.x, graph.id_of(s.label), s.attrs) for s in ds.samples]
        report.path_correctness = evaldecode.audit_nondeterministic(
            model, triples, args.max_len, decoded)
    if args.dump_paths:
        with open(args.dump_paths, "w", encoding="utf-8") as f:
            for i, (s, r) in enumerate(zip(ds.samples, decoded)):
                f.write(json.dumps({
                    "input_id": i,
                    "path": [graph.node(t).name for t in r.path],
                    "terminated_by": r.terminated_by,
                    "pred": graph.node(r.predicted_label).name
                            if r.predicted_label is not None else None,
                    "gold": s.label,
                }, sort_keys=True) + "\n")
    print(report.to_json())
    return 0


def cmd_synth(args) -> int:
    import os

    raw = _read_json(args.spec)
    if args.seed is not None:
        raw["seed"] = args.seed
    spec = harness.SynthSpec.from_dict(raw)
    graph, fine, coarse, test = harness.synth_generate(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    labelgraph.save_graph(os.path.join(args.out_dir, "graph.json"), graph)
    harness.save_dataset(os.path.join(args.out_dir, "fine.jsonl"), fine)
    harness.save_dataset(os.path.join(args.out_dir, "coarse.jsonl"), coarse)
    harness.save_dataset(os.path.join(args.out_dir, "test.jsonl"), test)
    if labelgraph.validate(graph):
        return 1
    s = labelgraph.stats(graph)
    print(json.dumps({"out_dir": args.out_dir, "labels": s.label_count,
                      "augmented": s.augmented_count, "edges": s.edge_count,
                      "fine": len(fine.samples), "coarse": len(coarse.samples),
                      "test": len(test.samples)}, indent=2, sort_keys=True))
    return 0


def cmd_fuse(args) -> int:
    graph = labelgraph.load_graph(args.graph)
    fine = harness.load_dataset(args.fine, granularity="fine")
    coarse = harness.load_dataset(args.coarse, granularity="coarse")
    result = harness.fuse(fine, coarse, graph)
    harness.save_dataset(args.out, result.dataset)
    print(json.dumps({"out": args.out, "size": len(result.dataset.samples),
                      "k": result.dataset.k}, indent=2, sort_keys=True))
    return 0


def cmd_baseline(args) -> int:
    files = ("fine", "coarse") if args.kind == "pseudo" else ("train",)
    raw, cfg, graph = _config(args, harness.BaselineConfig, ("test", *files))
    test_ds = harness.load_dataset(raw["test"])
    if args.kind == "ffn":
        report = harness.baseline_ffn(cfg, harness.load_dataset(raw["train"]), test_ds)
    elif args.kind == "labelset":
        report = harness.baseline_label_set(cfg, harness.load_dataset(raw["train"]),
                                            test_ds, graph)
    else:
        report, info = harness.baseline_pseudo_label(
            cfg, harness.load_dataset(raw["fine"]),
            harness.load_dataset(raw["coarse"], granularity="coarse"),
            test_ds, graph)
        summary = {k: v for k, v in info.items() if k != "survivors"}
        print(json.dumps(summary, sort_keys=True))
    print(report.to_json())
    return 0


def cmd_ablate(args) -> int:
    raw, cfg, graph = _config(args, TrainConfig, ("train", "dev", "test"))
    with _naming(args.config):
        embed_dim, hidden = _model_dims(raw)
        trims = tuple(float(f) for f in raw.get("trim_fractions", (0.36, 0.63)))
        aggs = tuple(raw.get("aggregations", ("sum", "random")))
    rows = harness.ablate(graph, harness.load_dataset(raw["train"]),
                          harness.load_dataset(raw["dev"]), harness.load_dataset(raw["test"]),
                          cfg, embed_dim, hidden, trims, aggs)
    print(json.dumps(rows, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pathcast")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph", help="graph file tooling")
    gsub = g.add_subparsers(dest="graph_command", required=True)
    gv = gsub.add_parser("validate")
    gv.add_argument("file")
    gv.set_defaults(func=cmd_graph_validate)
    gs = gsub.add_parser("stats")
    gs.add_argument("file")
    gs.set_defaults(func=cmd_graph_stats)

    pp = sub.add_parser("paths", help="enumerate and classify prediction paths")
    pp.add_argument("graph")
    pp.add_argument("--label", required=True)
    pp.set_defaults(func=cmd_paths)

    m = sub.add_parser("model", help="checkpoint tooling")
    msub = m.add_subparsers(dest="model_command", required=True)
    mi = msub.add_parser("inspect")
    mi.add_argument("ckpt")
    mi.set_defaults(func=cmd_model_inspect)

    t = sub.add_parser("train", help="train a path prediction model")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--audit", action="store_true")
    e.add_argument("--dump-paths", default=None)
    e.add_argument("--max-len", type=int, default=8)
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("synth", help="generate the synthetic task")
    s.add_argument("--spec", required=True)
    s.add_argument("--out-dir", required=True)
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(func=cmd_synth)

    f = sub.add_parser("fuse", help="fuse fine and coarse training sets")
    f.add_argument("--fine", required=True)
    f.add_argument("--coarse", required=True)
    f.add_argument("--graph", required=True)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_fuse)

    b = sub.add_parser("baseline", help="run a reference baseline")
    b.add_argument("kind", choices=("ffn", "labelset", "pseudo"))
    b.add_argument("--config", required=True)
    b.add_argument("--seed", type=int, default=None)
    b.set_defaults(func=cmd_baseline)

    a = sub.add_parser("ablate", help="graph-size and minibatch ablations")
    a.add_argument("--config", required=True)
    a.add_argument("--seed", type=int, default=None)
    a.set_defaults(func=cmd_ablate)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"pathcast: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
