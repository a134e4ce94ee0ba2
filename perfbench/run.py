"""pathcast benchmark: one command, one thread per process, closed loop.

    python3 perfbench/run.py --workload tf-fused --seed 1 --seconds 45 --trace 0

Runs repeats of the workload one after another, each in a fresh interpreter
(``worker.py``) with BLAS pinned to one thread, until ``--seconds`` have
passed and at least three repeats are done. With ``--trace 0`` it reports the
median of every end-to-end metric over the repeats. With ``--trace 1`` it
alternates untraced and traced repeats and reports the per-layer metrics of
the traced ones, plus the tracing overhead against the untraced ones. Times
are scaled to a nominal machine speed (see ``worker.REF_NOMINAL_S``); the raw
wall seconds per phase are in the ``detail`` line. Metric names and units come
from ``BENCHMARK.json``. The last line of standard output is the result as
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_REPEATS = 3
DEADLINE_S = 165.0  # a run must end within 180 s
PINNED = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def run_repeat(workload: str, seed: int, trace: int, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **PINNED),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repeat did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"repeat exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_repeats(workload: str, seed: int, seconds: int, trace: int) -> list[dict]:
    """Repeats in sequence until ``seconds`` have passed and the minimum is met.

    With tracing, each untraced repeat is followed by a traced one, so both
    kinds see the same machine conditions.
    """
    kinds = (0, 1) if trace else (0,)
    min_rounds = 1 if trace else MIN_REPEATS
    start = perf_counter()
    repeats: list[dict] = []
    longest = 0.0
    while True:
        t0 = perf_counter()
        for kind in kinds:
            out = run_repeat(workload, seed, kind, DEADLINE_S - (perf_counter() - start))
            out["traced"] = bool(kind)
            repeats.append(out)
        longest = max(longest, perf_counter() - t0)
        elapsed = perf_counter() - start
        enough = len(repeats) // len(kinds) >= min_rounds
        if enough and elapsed >= seconds:
            return repeats
        if elapsed + longest > DEADLINE_S:
            if enough:
                return repeats
            raise BenchError(f"too slow: {len(repeats)} repeats took {elapsed:.0f} s")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def aggregate(spec: dict, repeats: list[dict], trace: int) -> tuple[dict, dict]:
    untraced = [r for r in repeats if not r["traced"]]
    traced = [r for r in repeats if r["traced"]]
    if trace:
        per_layer = [r["trace"]["values"] for r in traced]
        work = [sum(r["phase_scaled"].values()) for r in untraced]
        work_traced = [sum(r["phase_scaled"].values()) for r in traced]
        overhead = statistics.median(work_traced) / statistics.median(work) - 1.0
        for values in per_layer:
            values["trace.overhead_frac"] = overhead
        table, wanted = per_layer, spec["per_layer"]
    else:
        table, wanted = [r["metrics"] for r in untraced], spec["end_to_end"]
    metrics, spread = {}, {}
    for m in wanted:
        name = m["name"]
        if name not in table[0]:
            raise BenchError(f"no repeat reports metric {name!r}")
        values = [row[name] for row in table]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
        spread[name] = values
    return metrics, spread


def checks_of(repeats: list[dict]) -> list[tuple[str, bool, str]]:
    """Worker checks, plus: every repeat of one seed, traced or not, trains to
    the same per-epoch losses and evaluates to the same results."""
    checks = []
    for i, r in enumerate(repeats):
        checks += [(f"repeat{i}:{name}", ok, detail) for name, ok, detail in r["checks"]]
    first = json.dumps([repeats[0]["records"], repeats[0]["quality"]], sort_keys=True)
    for i, r in enumerate(repeats[1:], 1):
        same = json.dumps([r["records"], r["quality"]], sort_keys=True) == first
        checks.append((f"repeat{i}:identical-to-repeat0", same,
                       "per-epoch losses, accuracy and audit"))
    return checks


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "pathcast" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a pathcast checkout (src/pathcast and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    try:
        repeats = run_repeats(args.workload, args.seed, args.seconds, args.trace)
        metrics, spread = aggregate(spec, repeats, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    checks = checks_of(repeats)
    attempted = sum(r["ops"] for r in repeats) + len(checks)
    failed = sum(1 for _, ok, _ in checks if not ok)

    env = {"python": platform.python_version(), "numpy": repeats[0]["numpy"],
           "nproc": os.cpu_count(), "loadavg_before": load_before,
           "loadavg_after": os.getloadavg(), "threads_pinned": PINNED}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"repeats={len(repeats)} env={json.dumps(env)}")
    for name, values in spread.items():
        q1, q2, q3 = quartiles(values)
        print(f"{name:48s} {metrics[name]['value']:14.6g} {metrics[name]['unit']:8s}"
              f" q1={q1:.6g} q3={q3:.6g} n={len(values)}")
    for name, ok, detail in checks:
        if not ok:
            print(f"FAILED {name}: {detail}")
    detail = {
        "env": env,
        "failed_frac": failed / attempted,
        "quality": [r["quality"] for r in repeats if not r["traced"]],
        "phase_wall": [r["phase_wall"] for r in repeats],
        "phase_scaled": [r["phase_scaled"] for r in repeats],
    }
    traced = [r for r in repeats if r["traced"]]
    if traced:
        detail["tail_levels"] = traced[0]["trace"]["tail_levels"]
        detail["patched_sites"] = traced[0]["trace"]["sites"]
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
