#!/usr/bin/env python3
"""stdialog benchmark: four closed-loop workloads, end-to-end or traced.

Usage, from the repository root:

    python3 bench/run.py --workload pretrain-short --seed 0 --seconds 28 \
        --trace 0

``--trace 0`` runs the named workload with tracing off and prints its
end-to-end metrics.  ``--trace 1`` runs all four workloads with span
tracing around the program's layers and prints the per-layer metrics of
each; see bench/README.md.  The last line of standard output is the
result as one JSON object; the lines before it describe the machine and
the run.  BLAS is pinned to one thread before numpy is imported.  Gated
times are scaled to a reference host speed (``workloads.REFERENCE_S``),
so that the shared host's changes of speed do not read as changes of
the program.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path[:0] = [str(REPO / "src"), str(BENCH_DIR)]

import numpy as np                                          # noqa: E402
import scipy                                                # noqa: E402

import stdialog.trainer  # noqa: E402,F401  (load every module before patching)
from tracer import (Tracer, count_graph_nodes, layer_patches,  # noqa: E402
                    patched, self_times)
from workloads import WORKLOADS, Ops                        # noqa: E402

DEFAULT_SEED = 0
OUT_DIR = BENCH_DIR / "out"

# Per-layer metrics reported by the traced run: (workload, op kind) ->
# (layers with self time and calls, layers with self time only).
STEP_LAYERS = (
    "autodiff.backward", "encoders.encode_text", "encoders.encode_speech",
    "encoders.fuse", "frontend.extract_features", "frontend.project_features",
    "model.prepare_sample", "text.tokenize_sample", "text.mask_tokens",
    "masking.draw_mask_plan", "objectives.make_crs_sample",
    "objectives.tpp_loss", "objectives.crs_loss", "objectives.cmlm_loss",
    "objectives.cmam_loss", "optim.step")
FINETUNE_STEP_LAYERS = (
    "autodiff.backward", "encoders.encode_text", "encoders.encode_speech",
    "encoders.fuse", "frontend.extract_features", "frontend.project_features",
    "model.prepare_sample", "text.tokenize_sample", "finetune.predict",
    "finetune.task_loss", "optim.step")
EVAL_LAYERS = (
    "model.eval_fused", "model.prepare_sample", "text.tokenize_sample",
    "encoders.encode_text", "encoders.encode_speech", "encoders.fuse",
    "frontend.extract_features", "frontend.project_features",
    "finetune.predict")
REPORTED_LAYERS = {
    ("pretrain-short", "step"): (STEP_LAYERS, ()),
    ("pretrain-short", "setup"): ((), ("corpus.generate_synthetic",
                                       "shards.write_shards",
                                       "shards.load_corpus")),
    ("pretrain-long", "step"): ((), STEP_LAYERS),
    ("finetune-eval", "step"): (FINETUNE_STEP_LAYERS, ()),
    ("finetune-eval", "eval"): (EVAL_LAYERS, ()),
    ("finetune-eval", "setup"): ((), ("finetune.make_cross_modal_task",
                                      "shards.write_shards",
                                      "shards.load_corpus",
                                      "trainer.save_checkpoint",
                                      "trainer.load_checkpoint")),
    ("masking-mc", "step"): (("masking.draw_mask_plan",),
                             ("masking.estimate_mask_rate",)),
}
# derived per-layer metrics, by (workload, op kind)
UNATTRIBUTED = {("pretrain-short", "step"), ("pretrain-long", "step"),
                ("finetune-eval", "step"), ("finetune-eval", "eval")}
GRAPH_COUNTED = ("pretrain-short", "pretrain-long")


def tail(values: list) -> tuple:
    """(value, percentile) of the highest percentile with at least ten
    values beyond it; the maximum when there are fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 11) / (n - 1)


def git_commit() -> str:
    head = REPO / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (REPO / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
    }


class Run:
    """One workload's closed loop: episode outputs by index, and failures.

    An episode index run twice must give the same output bit for bit (the
    determinism contract: all randomness comes from the seeds)."""

    def __init__(self, workload, ops: Ops):
        self.workload, self.ops = workload, ops
        self.outputs: dict = {}
        self.problems: list = []
        self.failed = 0

    def episode(self, state, index: int) -> bool:
        try:
            out = self.workload.episode(state, self.ops, index)
        except Exception:                # a failed op ends the run
            traceback.print_exc()
            self.problems.append(f"episode {index} raised")
            self.failed += 1
            return False
        if self.outputs.setdefault(index, out) != out:
            self.problems.append(f"episode {index} did not repeat exactly")
            self.failed += 1
        return True

    def checked(self, state) -> None:
        problems, failed = self.workload.check(state,
                                               list(self.outputs.values()))
        self.problems += problems
        self.failed += failed


def run_untraced(name: str, seed: int, seconds: float, workdir: Path):
    """End-to-end metrics of one workload, with tracing off.

    Every episode starts from a set-up of its own, so ``setup_s``, their
    median, samples the machine across the whole run.  Episode 0 runs
    first and again last, so every run checks that an episode repeats
    exactly.  Set-ups and ops are timed at reference host speed (see
    ``workloads.REFERENCE_S``); the raw wall-clock percentiles go to the
    ``run:`` line."""
    workload = WORKLOADS[name]()
    ops = Ops(Tracer(), calibrate=True)
    run = Run(workload, ops)
    setups: list = []
    state = None

    def episode(index: int) -> bool:
        nonlocal state
        start = perf_counter()
        state = workload.setup(seed, workdir)
        setups.append((perf_counter() - start) * ops.host_scale())
        return run.episode(state, index)

    with patched(workload.patches(ops)):
        start = perf_counter()
        ok = episode(0)
        index, last = 1, 0.0
        while ok and perf_counter() - start + 2 * last < seconds:
            began = perf_counter()
            ok = episode(index)
            last = perf_counter() - began
            index += 1
        ok = ok and episode(0)
    run.checked(state)
    steps, evals = ops.scaled("step"), ops.scaled("eval")
    if not ok or not steps:
        return run, {}, {}
    # samples (training samples, held-out items or Monte Carlo trials) per
    # second of op time, every op taken at its kind's median
    busy = len(steps) * statistics.median(steps)
    if evals:
        busy += len(evals) * statistics.median(evals)
    samples_per_s = (workload.samples_per_step * len(steps) + len(evals)) \
        / busy
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "samples_per_s": (samples_per_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    scales = [k for kind in ops.scales for k in ops.scales[kind]]
    info = {"episodes": len(setups),
            "host_scale.p50": statistics.median(scales)}
    for kind in ("step", "eval"):
        times = ops.seconds(kind)
        if times:
            value, percentile = tail(times)
            info.update({f"{kind}_count": len(times),
                         f"{kind}_ms.p50": 1e3 * statistics.median(times),
                         f"{kind}_ms.tail": 1e3 * value,
                         f"{kind}_ms.tail_percentile": round(percentile, 1)})
    if evals:
        info["eval_items_per_s"] = 1.0 / statistics.median(evals)
    if name == "masking-mc":
        info["trials_per_s"] = samples_per_s
    return run, metrics, info


def trace_workload(name: str, seed: int, seconds: float, workdir: Path,
                   tracer: Tracer, graph: list) -> tuple:
    """Per-layer metrics of one workload.

    After an untimed warm-up, each episode index runs untraced and then
    traced (the pair gives the tracing overhead, and their outputs must
    agree) until ``seconds`` pass; episode 1 then runs traced once more,
    and its graph node and call counts must repeat exactly."""
    workload = WORKLOADS[name]()
    tracer.enabled = True
    setup_op = tracer.op
    state = workload.setup(seed, workdir)
    tracer.enabled = False
    tracer.end_op()
    ops = Ops(tracer)
    run = Run(workload, ops)
    step_s = {False: [], True: []}
    traced_ops: dict = {}
    counts: list = []                    # exact counts of each traced episode

    def episode(index: int, enabled: bool) -> bool:
        ops.reset_timing()
        first_graph = len(graph)
        tracer.enabled = enabled
        ok = run.episode(state, index)
        tracer.enabled = False
        if ok:
            step_s[enabled] += ops.seconds("step")
        if ok and enabled:
            for kind, records in ops.records.items():
                traced_ops.setdefault(kind, []).extend(records)
            ids = {op for op, _ in ops.records.get("step", ())}
            _, _, calls, _ = self_times(tracer.spans, ids)
            counts.append((graph[first_graph:], dict(calls)))
        return ok

    with patched(workload.patches(ops)):
        ok = run.episode(state, 0)
        start = perf_counter()
        index = 1
        while ok and (index == 1 or perf_counter() - start < seconds):
            ok = episode(index, False) and episode(index, True)
            index += 1
        ok = ok and episode(1, True)
    run.checked(state)
    if not ok:
        return run, {}
    if counts[-1] != counts[0]:
        run.problems.append("graph node or call counts of episode 1 did not "
                            "repeat exactly")
        run.failed += 1
    metrics = {}
    for kind in ("setup", "step", "eval"):
        ops_of_kind = ({setup_op: 0.0} if kind == "setup"
                       else dict(traced_ops.get(kind, ())))
        if (name, kind) not in REPORTED_LAYERS or not ops_of_kind:
            continue
        self_s, total_s, calls, top = self_times(tracer.spans,
                                                 set(ops_of_kind))
        n = len(ops_of_kind)
        with_calls, self_only = REPORTED_LAYERS[(name, kind)]
        for layer in with_calls + self_only:
            metrics[f"{name}.{kind}.{layer}.self_ms"] = (
                1e3 * self_s[layer] / n, "ms")
        for layer in with_calls:
            metrics[f"{name}.{kind}.{layer}.calls"] = (calls[layer] / n,
                                                       "count")
        if (name, kind) == ("pretrain-short", "step"):
            metrics[f"{name}.step.model.prepare_sample.total_ms"] = (
                1e3 * total_s["model.prepare_sample"] / n, "ms")
        if (name, kind) in UNATTRIBUTED:
            op_s = sum(ops_of_kind.values())
            uncovered = op_s - sum(top[op] for op in ops_of_kind)
            metrics[f"{name}.{kind}.trainer.unattributed.self_ms"] = (
                1e3 * uncovered / n, "ms")
            if kind == "step" and name in GRAPH_COUNTED:
                walk = self_s["trace.graph_walk"]
                metrics[f"{name}.step.trace.coverage"] = (
                    1.0 - uncovered / (op_s - walk), "ratio")
    if name in GRAPH_COUNTED:
        nodes = [n for episode, _ in counts for n in episode]
        metrics[f"{name}.step.autodiff.graph_nodes_per_sample"] = (
            statistics.mean(nodes) / workload.samples_per_step, "count")
    metrics[f"{name}.trace.overhead_share"] = (
        statistics.mean(step_s[True]) / statistics.mean(step_s[False]) - 1.0,
        "ratio")
    return run, metrics


class GraphCounter:
    """Graph size of each loss reaching backward, on the workloads whose
    ``graph_nodes_per_sample`` is reported."""

    def __init__(self):
        self.enabled = False
        self.nodes: list = []

    def count(self, loss) -> None:
        if self.enabled:
            self.nodes.append(count_graph_nodes(loss))


def run_traced(first: str, seed: int, seconds: float, workdir: Path,
               spans_path: Path):
    """Per-layer metrics of all four workloads, ``first`` first.

    Every traced run covers every workload, because each per-layer metric
    belongs to the workload that exercises its layer."""
    tracer = Tracer()
    graph = GraphCounter()
    order = [first] + [w for w in WORKLOADS if w != first]
    runs, by_workload = [], {}
    with patched(layer_patches(
            tracer, tracer.wrap("trace.graph_walk", graph.count))):
        for name in order:
            graph.enabled = name in GRAPH_COUNTED
            run, by_workload[name] = trace_workload(
                name, seed, seconds / len(order), workdir / name, tracer,
                graph.nodes)
            runs.append(run)
    metrics = {key: value for name in WORKLOADS
               for key, value in by_workload[name].items()}
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return runs, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        if args.trace:
            spans_path = OUT_DIR / (f"spans-{args.workload}-seed{args.seed}"
                                    ".jsonl")
            runs, metrics = run_traced(args.workload, args.seed, args.seconds,
                                       Path(tmp), spans_path)
            info = {"spans": str(spans_path.relative_to(REPO))}
        else:
            run, metrics, info = run_untraced(args.workload, args.seed,
                                              args.seconds, Path(tmp))
            runs = [run]
    problems = [f"{r.workload.name}: {p}" for r in runs for p in r.problems]
    attempted = sum(r.ops.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    info.update({"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "error_rate": failed / max(attempted, 1),
                 "problems": problems})
    print("machine: " + json.dumps(machine()))
    print("run: " + json.dumps(info))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
