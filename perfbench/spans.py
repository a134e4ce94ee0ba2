"""Spans and counters recorded from outside pathcast, by wrapping its functions.

``install`` replaces each instrumented function at every place it is looked
up: the defining module, every pathcast module that bound it with
``from ... import``, or the class for methods. A name that no longer exists
raises ``LookupError``, so a rename shows up as an error, never as a silent
zero. Nothing inside ``src/`` is edited.

A span records its duration and its self time (duration minus the time of the
spans it caused). Count-only wrappers add one to a counter and record no span,
for functions called too often to time cheaply.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter

TIME, COUNT = "time", "count"
PHASES = ("setup", "train", "checkpoint", "eval", "taxonomy")

# (metric prefix, "module:qualname" in pathcast, kind)
INSTRUMENTS = (
    ("numerics.tensors_created", "numerics:Tensor.__init__", COUNT),
    ("numerics.block_log_prob", "numerics:block_log_prob", COUNT),
    ("numerics.block_softmax", "numerics:block_softmax", COUNT),
    ("numerics.backward", "numerics:backward", TIME),
    ("numerics.adam_step", "numerics:adam_step", TIME),
    ("numerics.gru_step", "numerics:gru_step", TIME),
    ("numerics.save_params", "numerics:save_params", TIME),
    ("numerics.load_params", "numerics:load_params", TIME),
    ("model.candidates", "model:LabelPathModel.candidates", COUNT),
    ("model.encode", "model:LabelPathModel.encode", TIME),
    ("model.decode_logits", "model:LabelPathModel.decode_logits", TIME),
    ("model.step", "model:LabelPathModel.step", TIME),
    ("model.sample_path", "model:LabelPathModel.sample_path", TIME),
    ("model.sampled_path_log_prob", "model:LabelPathModel.sampled_path_log_prob", TIME),
    ("model.save_model", "model:save_model", TIME),
    ("model.load_model", "model:load_model", TIME),
    ("trainer.train_epoch", "trainer:train_epoch", TIME),
    ("trainer.build_batch", "trainer:build_batch", TIME),
    ("trainer.deterministic_loss", "trainer:deterministic_loss", TIME),
    ("trainer.policy_gradient_loss", "trainer:policy_gradient_loss", TIME),
    ("trainer.PathBook.split", "trainer:PathBook.split", TIME),
    ("trainer.PathBook.reward_members", "trainer:PathBook.reward_members", TIME),
    ("pathalg.all_paths_to", "pathalg:all_paths_to", TIME),
    ("pathalg.split_paths", "pathalg:_split_paths", TIME),
    ("pathalg.certain_members", "pathalg:_certain_members", TIME),
    ("evaldecode.evaluate", "evaldecode:evaluate", TIME),
    ("evaldecode.audit_nondeterministic", "evaldecode:audit_nondeterministic", TIME),
    ("evaldecode.greedy_decode", "evaldecode:greedy_decode", TIME),
    ("evaldecode.nondeterministic_groups", "evaldecode:nondeterministic_groups", TIME),
    ("labelgraph.build_graph", "labelgraph:build_graph", TIME),
    ("harness.synth_generate", "harness:synth_generate", TIME),
    ("harness.fuse", "harness:fuse", TIME),
    ("harness.resolve_samples", "harness:resolve_samples", TIME),
)

# Wrapped names expected to stay at zero calls on a workload; every other
# wrapped name must fire on every workload.
SILENT_ON = {
    "model.sample_path": {"tf-fused"},
    "model.sampled_path_log_prob": {"tf-fused"},
    "numerics.save_params": {"pg-mixed"},
    "numerics.load_params": {"pg-mixed"},
    "model.save_model": {"pg-mixed"},
    "model.load_model": {"pg-mixed"},
    "harness.fuse": {"pg-mixed"},
}
# The taxonomy phase builds no model: these layers must not run in it.
MODEL_FREE_PHASE, MODEL_LAYERS = "taxonomy", ("numerics", "model")
TAXONOMY_FIRES = ("trainer.PathBook.split", "trainer.PathBook.reward_members",
                  "evaldecode.nondeterministic_groups", "pathalg.all_paths_to")


class Tracer:
    """Spans and counters of one process, kept in memory until the run ends."""

    def __init__(self):
        self.phase = "none"
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.calls: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.covered: dict[str, float] = defaultdict(float)
        self.sites: dict[str, list[str]] = {}
        self._open: list[float] = []  # child time accumulated per open span

    def timed(self, name: str, fn, hook=None):
        def wrapper(*args, **kwargs):
            self.calls[self.phase][name] += 1
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = self._open.pop()
                self.durations[name].append(dur)
                self.self_s[name] += dur - child
                if self._open:
                    self._open[-1] += dur
                else:
                    self.covered[self.phase] += dur
            if hook is not None:
                hook(self, args, kwargs, out)
            return out
        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[self.phase][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def total_calls(self, name: str) -> int:
        return sum(per.get(name, 0) for per in self.calls.values())


# -- hooks: counts derived from a call's arguments or result ------------------

def _encode_rows(tr, args, kwargs, out):
    tr.counters["model.encode.rows"] += out.data.shape[0]


def _batch_lanes(tr, args, kwargs, batch):
    tr.counters["trainer.lanes"] += sum(len(p) for p in batch.target_paths)


def _pg_rewards(tr, args, kwargs, out):
    rewards = out[1]
    tr.counters["trainer.pg_trajectories"] += len(rewards)
    tr.counters["trainer.pg_zero_rewards"] += sum(1 for r in rewards if r == 0.0)
    tr.counters["trainer.pg_reward_sum"] += sum(rewards)


def _decode_end(tr, args, kwargs, result):
    max_len = args[2] if len(args) > 2 else kwargs["max_len"]
    steps = len(result.step_probs)
    tr.counters["evaldecode.greedy_decode.steps"] += steps
    if result.terminated_by == "eop":
        tr.counters["evaldecode.term.eop"] += 1
    elif steps < max_len:  # greedy_decode stops early only at a dead end
        tr.counters["evaldecode.term.dead_end"] += 1
    else:
        tr.counters["evaldecode.term.max_len"] += 1


def _paths_found(tr, args, kwargs, paths):
    tr.counters["pathalg.all_paths_to.paths"] += len(paths)


HOOKS = {
    "model.encode": _encode_rows,
    "trainer.build_batch": _batch_lanes,
    "trainer.policy_gradient_loss": _pg_rewards,
    "evaldecode.greedy_decode": _decode_end,
    "pathalg.all_paths_to": _paths_found,
}


def _pathcast_modules() -> list:
    import pathcast
    for info in pkgutil.iter_modules(pathcast.__path__):
        if info.name != "__main__":  # importing it would run the CLI
            importlib.import_module(f"pathcast.{info.name}")
    return [m for n, m in sorted(sys.modules.items())
            if n == "pathcast" or n.startswith("pathcast.")]


def install() -> Tracer:
    """Wrap every instrumented function at each place it is looked up."""
    tracer = Tracer()
    modules = _pathcast_modules()
    for name, target, kind in INSTRUMENTS:
        mod_name, qualname = target.split(":")
        owner = importlib.import_module(f"pathcast.{mod_name}")
        *path, attr = qualname.split(".")
        for part in path:
            if part not in vars(owner):
                raise LookupError(f"pathcast.{mod_name}:{qualname}: no {part!r}")
            owner = vars(owner)[part]
        if attr not in vars(owner):
            raise LookupError(f"pathcast.{mod_name}:{qualname} does not exist")
        original = vars(owner)[attr]
        wrapper = (tracer.timed(name, original, HOOKS.get(name)) if kind == TIME
                   else tracer.counted(name, original))
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            sites = [f"{owner.__module__}.{owner.__name__}"]
        else:
            sites = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        sites.append(f"{mod.__name__}.{key}")
        tracer.sites[name] = sites
    return tracer


def check_expectations(tracer: Tracer, workload: str) -> list[tuple[str, bool, str]]:
    """One check per wrapped name: fired where predicted, silent elsewhere."""
    checks = []
    for name, _, _ in INSTRUMENTS:
        n = tracer.total_calls(name)
        if workload in SILENT_ON.get(name, ()):
            checks.append((f"silent:{name}", n == 0, f"{n} calls"))
        else:
            checks.append((f"fires:{name}", n > 0, f"{n} calls"))
        if name.split(".")[0] in MODEL_LAYERS:
            n_free = tracer.calls[MODEL_FREE_PHASE].get(name, 0)
            checks.append((f"silent-in-{MODEL_FREE_PHASE}:{name}", n_free == 0,
                           f"{n_free} calls"))
    for name in TAXONOMY_FIRES:
        n = tracer.calls[MODEL_FREE_PHASE].get(name, 0)
        checks.append((f"fires-in-{MODEL_FREE_PHASE}:{name}", n > 0, f"{n} calls"))
    n_pg = tracer.counters["trainer.pg_trajectories"]
    want_pg = workload != "tf-fused"
    checks.append(("pg-trajectories", (n_pg > 0) == want_pg, f"{n_pg:.0f} trajectories"))
    return checks


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sorted list."""
    k = math.ceil(q / 100.0 * len(sorted_vals)) - 1
    return sorted_vals[min(max(k, 0), len(sorted_vals) - 1)]


def tail(durations: list[float]) -> tuple[str, float]:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    vals = sorted(durations)
    for q in (99.9, 99.0, 90.0, 50.0):
        if len(vals) * (100.0 - q) / 100.0 >= 10:
            return f"p{q:g}", _percentile(vals, q)
    return ("max", vals[-1]) if vals else ("none", 0.0)


def summarize(tracer: Tracer, phase_wall: dict[str, float], accuracy: float,
              audit: float | None, loss_d: float) -> dict:
    """Per-layer values of one traced process, keyed by metric name.

    The layers' own results ride along: test accuracy, audit accuracy (0 when
    nothing was auditable) and the epoch's teacher-forcing loss.
    """
    out: dict[str, float] = {}
    levels: dict[str, str] = {}
    for name, _, kind in INSTRUMENTS:
        calls = tracer.total_calls(name)
        out[f"{name}.calls"] = calls
        if kind != TIME:
            continue
        durs = tracer.durations.get(name, [])
        out[f"{name}.s"] = sum(durs)
        out[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
        out[f"{name}.p50_ms"] = 1e3 * _percentile(sorted(durs), 50.0) if durs else 0.0
        levels[name], t = tail(durs)
        out[f"{name}.tail_ms"] = 1e3 * t
    c = tracer.counters
    out["numerics.tensors_created"] = out.pop("numerics.tensors_created.calls")
    enc = tracer.total_calls("model.encode")
    out["model.encode.rows_per_call"] = c["model.encode.rows"] / enc if enc else 0.0
    for key in ("trainer.lanes", "trainer.pg_trajectories", "evaldecode.greedy_decode.steps",
                "evaldecode.term.eop", "evaldecode.term.max_len", "evaldecode.term.dead_end",
                "pathalg.all_paths_to.paths"):
        out[key] = c[key]
    n_pg = c["trainer.pg_trajectories"]
    out["trainer.pg_zero_reward_frac"] = c["trainer.pg_zero_rewards"] / n_pg if n_pg else 0.0
    out["trainer.pg_mean_reward"] = c["trainer.pg_reward_sum"] / n_pg if n_pg else 0.0
    out["trainer.final_loss_d"] = loss_d
    out["evaldecode.test_accuracy"] = accuracy
    out["evaldecode.audit_accuracy"] = audit if audit is not None else 0.0
    for phase in PHASES:  # 0 for a phase the workload does not run
        wall = phase_wall.get(phase, 0.0)
        out[f"trace.unaccounted_frac.{phase}"] = (
            1.0 - tracer.covered.get(phase, 0.0) / wall if wall > 0 else 0.0)
    return {"values": out, "tail_levels": levels, "sites": tracer.sites}
