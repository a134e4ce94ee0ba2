"""Command line entry points for graph tooling, training, evaluation and the
synthetic-experiment harness. Every command exits 0 only when it completes
and its outputs validate."""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import replace

import numpy as np

from . import evaldecode, harness, labelgraph
from .model import load_model, read_sidecar, save_model
from .numerics import removed_on_error, written
from .pathalg import NotALabelNode, _certain_members, _require_label, _split_paths
from .trainer import PATH_AGGS, TrainConfig, read_config, typed_value


class InvalidConfig(ValueError):
    """A config file that cannot be used; the message starts ``<path>:``."""


# every key of a config that names a file
_FILE_KEYS = ("graph", "train", "dev", "test", "fine", "coarse")


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


def _config(args, cls, files: tuple[str, ...], required: bool):
    """The training commands' prologue: ``(raw, cfg, graph)`` from
    ``args.config``, where ``cfg`` is the dataclass ``cls`` read from the
    open config by :func:`read_config` (``required`` passed on) with
    ``--seed`` applied. ``graph`` and each key in ``files`` must name a
    file, and so must any other file key that is present."""
    with _naming(args.config):
        raw = _read_json(args.config)
        if not isinstance(raw, dict):
            raise ValueError("a config must be a JSON object")
        for key in _FILE_KEYS:
            if (key in ("graph", *files) or key in raw) and not isinstance(raw[key], str):
                raise ValueError(f"{key!r} must name a file")
        cfg = read_config(cls, raw, "config", required, closed=False)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
    return raw, cfg, labelgraph.load_graph(raw["graph"])


def _max_len(text: str) -> int:
    """The ``--max-len`` option: an int of at least 2, as decoding needs."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be an int of at least 2, not {text!r}")
    return value


def _model_dims(raw: dict) -> tuple[int, int]:
    """``(embed_dim, hidden)`` of a path-model config."""
    dims = (typed_value("embed_dim", raw.get("embed_dim", 16), int),
            typed_value("hidden", raw.get("hidden", 32), int))
    if min(dims) < 1:
        raise ValueError("embed_dim and hidden must be at least 1")
    return dims


def _listed(raw: dict, key: str, default: list, what: str, ok) -> tuple:
    """The list ``raw[key]`` (or ``default``) as a tuple; an item that fails
    ``ok`` raises ValueError naming ``key`` and ``what`` it must hold."""
    items = raw.get(key, default)
    if not isinstance(items, list):
        raise ValueError(f"{key!r} must be a list, not {items!r}")
    for item in items:
        if not ok(item):
            raise ValueError(f"{key!r} must hold {what}, not {item!r}")
    return tuple(items)


def cmd_graph_validate(args) -> int:
    graph = labelgraph.read_graph(args.file)
    violations = labelgraph.validate(graph)
    print(json.dumps([{"code": v.code, "message": v.message, "names": list(v.names)}
                      for v in violations], indent=2))
    return 0 if not violations else 1


def cmd_graph_stats(args) -> int:
    graph = labelgraph.load_graph(args.file)
    s = labelgraph.stats(graph)
    print(json.dumps({"label_count": s.label_count, "augmented_count": s.augmented_count,
                      "edge_count": s.edge_count, "group_count": s.group_count,
                      "max_depth": s.max_depth}, indent=2, sort_keys=True))
    return 0


def cmd_paths(args) -> int:
    graph = labelgraph.load_graph(args.graph)
    try:
        label = graph.id_of(args.label)
    except labelgraph.UnknownName as exc:
        raise labelgraph.UnknownName(f"{args.graph}: {exc}", exc.names) from None
    try:
        _require_label(graph, label)
    except NotALabelNode as exc:
        raise NotALabelNode(f"{args.graph}: {exc}") from None
    det, nd = _split_paths(graph, label)

    def names(path):
        return [graph.node(i).name for i in path]

    print(json.dumps({
        "deterministic": [names(p) for p in det],
        "nondeterministic": [names(p) for p in nd],
        "certain": sorted(graph.node(i).name for i in _certain_members(graph, label)),
    }, indent=2))
    return 0


def cmd_model_inspect(args) -> int:
    load_model(args.ckpt)  # the checks of eval: the sidecar, the graph and the parameters
    print(json.dumps(read_sidecar(args.ckpt), indent=2, sort_keys=True))
    return 0


def cmd_train(args) -> int:
    raw, cfg, graph = _config(args, TrainConfig, ("train",), required=True)
    with _naming(args.config):
        embed_dim, hidden = _model_dims(raw)
    train_ds = harness.load_dataset(raw["train"])
    dev_ds = (harness.load_dataset(raw["dev"], width=train_ds.input_dim)
              if raw.get("dev") else None)
    metrics = args.out + ".metrics.jsonl"
    model = harness.fit_model(graph, train_ds, dev_ds, cfg, embed_dim, hidden,
                              graph_file=raw["graph"], metrics_path=metrics)
    with removed_on_error(metrics):  # a failed train leaves none of its three files
        save_model(args.out, model)
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.ckpt)
    graph = model.graph
    ds = harness.load_dataset(args.data, width=model.input_dim)
    if not ds.samples:
        raise evaldecode.EmptyDataset(f"dataset {args.data!r} has no samples")
    samples = harness.resolve_samples(ds, graph)
    with written(args.dump_paths) as write:  # opened before the decodes
        decoded = evaldecode.decode_rows(model, [s.x for s in samples], args.max_len)
        report = evaldecode.evaluate(model, samples, args.max_len, decoded)
        if args.audit:
            triples = [(s.x, t.label, s.attrs) for s, t in zip(ds.samples, samples)]
            try:
                report.path_correctness = evaldecode.audit_nondeterministic(
                    model, triples, args.max_len, decoded)
            except evaldecode.NoAuditableSamples as exc:
                raise evaldecode.NoAuditableSamples(f"{args.data}: {exc}") from None
        if write is not None:
            names = [nd.name for nd in graph.nodes]
            for i, (s, tokens, n, stop, pred) in enumerate(zip(
                    samples, decoded.tokens.T.tolist(), decoded.lengths.tolist(),
                    decoded.stop.tolist(), evaldecode.predicted_labels(model, decoded))):
                write(json.dumps({"input_id": i, "path": [names[t] for t in tokens[:n]],
                                  "terminated_by": stop, "pred": pred, "gold": names[s.label]},
                                 sort_keys=True) + "\n")
    print(report.to_json())
    return 0


def cmd_synth(args) -> int:
    with _naming(args.spec):
        raw = _read_json(args.spec)
        if not isinstance(raw, dict):
            raise ValueError("a spec must be a JSON object")
        spec = read_config(harness.SynthSpec, raw, "spec", required=False, closed=True)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
    graph, fine, coarse, test = harness.synth_generate(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    with ExitStack() as outputs:  # a failed write removes the files written before it
        for name, save, data in (("graph.json", labelgraph.save_graph, graph),
                                 ("fine.jsonl", harness.save_dataset, fine),
                                 ("coarse.jsonl", harness.save_dataset, coarse),
                                 ("test.jsonl", harness.save_dataset, test)):
            path = os.path.join(args.out_dir, name)
            outputs.enter_context(removed_on_error(path))
            save(path, data)
    s = labelgraph.stats(graph)
    print(json.dumps({"out_dir": args.out_dir, "labels": s.label_count,
                      "augmented": s.augmented_count, "edges": s.edge_count,
                      "fine": len(fine.samples), "coarse": len(coarse.samples),
                      "test": len(test.samples)}, indent=2, sort_keys=True))
    return 0


def cmd_fuse(args) -> int:
    graph = labelgraph.load_graph(args.graph)
    fine = harness.load_dataset(args.fine)
    coarse = harness.load_dataset(args.coarse, width=fine.input_dim)
    result = harness.fuse(fine, coarse, graph)
    harness.save_dataset(args.out, result.dataset)
    print(json.dumps({"out": args.out, "size": len(result.dataset.samples),
                      "k": result.dataset.k}, indent=2, sort_keys=True))
    return 0


def cmd_baseline(args) -> int:
    files = ("fine", "coarse") if args.kind == "pseudo" else ("train",)
    raw, cfg, graph = _config(args, harness.BaselineConfig, ("test", *files), required=False)
    train_ds = harness.load_dataset(raw[files[0]])
    test_ds = harness.load_dataset(raw["test"], width=train_ds.input_dim)
    if args.kind == "ffn":
        report = harness.baseline_ffn(cfg, train_ds, test_ds)
    elif args.kind == "labelset":
        report = harness.baseline_label_set(cfg, train_ds, test_ds, graph)
    else:
        coarse = harness.load_dataset(raw["coarse"], width=train_ds.input_dim)
        report, info = harness.baseline_pseudo_label(cfg, train_ds, coarse, test_ds, graph)
        summary = {k: v for k, v in info.items() if k != "survivors"}
        print(json.dumps(summary, sort_keys=True))
    print(report.to_json())
    return 0


def cmd_ablate(args) -> int:
    raw, cfg, graph = _config(args, TrainConfig, ("train", "dev", "test"), required=True)
    with _naming(args.config):
        embed_dim, hidden = _model_dims(raw)
        trims = _listed(raw, "trim_fractions", [0.36, 0.63], "numbers in [0,1]",
                        lambda f: type(f) in (int, float) and 0 <= f <= 1)
        aggs = _listed(raw, "aggregations", ["sum", "random"],
                       f"path aggregations {PATH_AGGS}", lambda a: a in PATH_AGGS)
    train_ds = harness.load_dataset(raw["train"])
    dev_ds = harness.load_dataset(raw["dev"], width=train_ds.input_dim)
    test_ds = harness.load_dataset(raw["test"], width=train_ds.input_dim)
    rows = harness.ablate(graph, train_ds, dev_ds, test_ds, cfg, embed_dim, hidden,
                          tuple(map(float, trims)), aggs)
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
    e.add_argument("--max-len", type=_max_len, default=8)
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
    try:
        args = build_parser().parse_args(argv)
        # every non-finite value raises at its boundary, so numpy's warnings
        # on the way there would only precede the one error line
        with np.errstate(over="ignore", invalid="ignore"):
            code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the report was not delivered: one error line naming stdout, and its
        # fd pointed at /dev/null so the exit's flush drops what is left
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"pathcast: error: stdout: {os.strerror(errno.EPIPE)}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"pathcast: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
