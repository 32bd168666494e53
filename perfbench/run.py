"""domusfm benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {pretrain,finetune,inference} \
        --seed N --seconds S --trace {0,1} [--size {desk,tiny}]

With ``--trace 0`` the run spreads ``--seconds`` over three fresh worker
processes (this script with ``--worker``), one after another, each waited for. Each sets the workload up once (``setup_s`` is
the median of the three) and repeats its timed operation for its share of the
time; the run reports the end-to-end metrics of BENCHMARK.json. With
``--trace 1`` one worker alternates untraced and traced repeats and the run
reports the per-layer metrics, with the tracing overhead. Every run checks the
pinned inputs and the outputs (see README.md). A table for people comes
first; the last line of standard output is one JSON object. Spans, the
per-span summary and the full result go to ``perfbench/out/``. The exit code
is 0 only when every correctness check passed.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 3
# Every worker of one run must have ended by then, or the run fails.
RUN_TIMEOUT_S = 170.0
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
PINNED = HERE / "pinned_inputs.json"
# Input layers that pretrain and finetune use only while setting up: their
# per-layer values come from the traced set-up there.
SETUP_LAYERS = ("ingest.parse", "segmentation.segment", "event_encoder.featurize")
DEFAULT_SEED = 0


def tag(args) -> str:
    return f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"


def import_package():
    """domusfm from this checkout's ``src/`` and nowhere else."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import domusfm
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import domusfm from {ROOT / 'src'}: {exc}")
    if Path(domusfm.__file__).resolve().parent != ROOT / "src" / "domusfm":
        sys.exit(f"perfbench: domusfm came from {domusfm.__file__}, not this checkout")


def tail(samples_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile with >= 10 beyond."""
    import numpy as np

    n = len(samples_ms)
    for p in TAIL_PERCENTILES:
        beyond = int(n * (100.0 - p) / 100.0)
        if beyond >= 10:
            return float(np.percentile(samples_ms, p)), p, beyond
    return float(max(samples_ms)), 100.0, 0


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get(field) for k in ("blas", "lapack")
                for field in ("name", "version", "openblas configuration")
                if deps.get(k, {}).get(field)}
    except TypeError:  # numpy < 1.26 has no mode argument
        blas = {"show_config": "unavailable"}
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": os.cpu_count(), "affinity": affinity, "cpu": cpu,
            "platform": platform.platform()}


def check_pins(workload, size_name: str) -> list[str]:
    """Inputs of the default seed must hash to the digests pinned in the repo."""
    from workloads import sha256

    pins = json.loads(PINNED.read_text())
    if size_name not in pins:
        return []
    expected = pins[size_name][workload.name]
    actual = {name: sha256(blob) for name, blob in workload.inputs(DEFAULT_SEED).items()}
    if actual != expected:
        return [f"pinned inputs changed for {workload.name} seed {DEFAULT_SEED}: "
                f"expected {expected}, got {actual}"]
    return []


def measure(args, index: int, budget: float) -> dict:
    """One worker process: set up once, then repeat the timed operation for ``budget`` s.

    Returns plain data, so that it can travel back from the worker process as JSON.
    """
    import_package()
    import tracing
    import workloads

    outdir = Path(args.out) / tag(args)
    wl = workloads.WORKLOADS[args.workload](workloads.SIZES[args.size], args.seed,
                                            str(outdir))
    clock = tracing.StepClock()
    tracer = tracing.Tracer() if args.trace else None
    clock.install()
    try:
        # a traced run traces its set-up, for the layers only set-up uses
        if tracer is not None:
            tracer.run_id = "setup"
            tracer.install()
        t0 = perf_counter()
        try:
            state = wl.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_s = perf_counter() - t0
        # timed repeats; a traced run alternates untraced and traced ones. Another
        # repeat starts while it would end nearer the budget than stopping now.
        repeats, traced_flags = [], []
        started = perf_counter()
        while not repeats or (tracer is not None and len(repeats) < 2) \
                or perf_counter() - started + repeats[-1].wall_s / 2 <= budget:
            traced = tracer is not None and len(repeats) % 2 == 1
            if traced:
                tracer.run_id = f"r{len(repeats)}"
                tracer.install()
            try:
                repeats.append(wl.run_once(state, clock))
            finally:
                if traced:
                    tracer.uninstall()
            traced_flags.append(traced)
    finally:
        clock.uninstall()

    out = {"setup_s": setup_s,
           "input_sha256": {n: workloads.sha256(b) for n, b in wl.inputs(args.seed).items()},
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "repeats": [{**{k: v for k, v in vars(r).items() if k != "model"}, "traced": t}
                       for r, t in zip(repeats, traced_flags)]}
    if index == 0 and hasattr(wl, "probe"):
        scored = wl.probe(state, repeats[0])
        out["probe"] = {"problems": scored.problems,
                        "quality": {"adl_f1": scored.adl_f1, "next30_f1": scored.next30_f1},
                        "digest": workloads.digest(scored.adl_pred.tobytes(),
                                                   scored.next_counts.tobytes())}
    if tracer is not None:
        out["layers"], out["spans"] = layer_metrics(tracer, repeats, traced_flags)
        out["nesting"] = tracer.check_nesting()
        tracer.write(str(outdir / "spans.jsonl"))
    return out


def spawn_worker(args, index: int, budget: float, outdir: Path, timeout: float):
    """Run ``measure`` in a fresh process of this script and wait for it to end.

    Returns (the worker's result, None) or (None, a problem). The child's
    standard output goes to standard error, so that the last line of this
    process's standard output stays the result. On a timeout or any other
    way out, ``subprocess.run`` kills the child and waits for it.
    """
    import subprocess

    result_file = outdir / f"worker{index}.json"
    result_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--out", str(args.out),
           "--worker", str(index), "--budget", repr(budget)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"worker {index} did not end within {timeout:.0f} s"
    if proc.returncode != 0 or not result_file.exists():
        return None, f"worker {index} exited with code {proc.returncode}"
    return json.loads(result_file.read_text()), None


def run_worker(args) -> int:
    """Worker mode: measure once and write the result next to the run's other output."""
    outdir = Path(args.out) / tag(args)
    out = measure(args, args.worker, args.budget)
    (outdir / f"worker{args.worker}.json").write_text(json.dumps(out, default=float))
    return 0


def run(args) -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    outdir = Path(args.out) / tag(args)
    outdir.mkdir(parents=True, exist_ok=True)
    problems = check_pins(workloads.WORKLOADS[args.workload](
        workloads.SIZES[args.size], args.seed, str(outdir)), args.size)
    if problems:
        print(f"PROBLEM: {problems[0]}", file=sys.stderr)
        return 1
    # Untraced runs spread their time over fresh processes, one after another:
    # speed differs between processes as well as over time, and set-up is
    # measured once per process.
    n = 1 if args.trace else WORKERS
    workers = []
    deadline = perf_counter() + RUN_TIMEOUT_S
    for i in range(n):
        worker, problem = spawn_worker(args, i, args.seconds / n, outdir,
                                       deadline - perf_counter())
        if problem:
            print(f"PROBLEM: {problem}", file=sys.stderr)
            return 1
        workers.append(worker)

    repeats = [r for w in workers for r in w["repeats"]]
    if any(w["input_sha256"] != workers[0]["input_sha256"] for w in workers):
        problems.append("inputs differ between set-ups of one seed")
    problems += [f"repeat {i}: {p}" for i, r in enumerate(repeats) for p in r["problems"]]
    digests = {r["digest"] for r in repeats}
    if len(digests) != 1 or "" in digests:
        problems.append(f"output digests differ between repeats, processes, or traced "
                        f"and untraced runs: {sorted(digests)}")
    quality = repeats[0]["quality"]
    if any(r["quality"] != quality for r in repeats):
        problems.append("quality guards differ between repeats")
    digest = repeats[0]["digest"]
    probe = workers[0].get("probe")
    if probe:
        problems += [f"probe: {p}" for p in probe["problems"]]
        quality = {**quality, **probe["quality"]}
        digest = workloads.digest(digest.encode(), probe["digest"].encode())
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")

    # -- metrics
    med = statistics.median
    untraced = [r for r in repeats if not r["traced"]]
    steps_ms = [1000.0 * s for r in untraced for s in r["step_s"]]
    tail_ms, tail_p, tail_n = tail(steps_ms) if steps_ms else (0.0, 0.0, 0)
    notes = {"step_ms.samples": len(steps_ms), "step_ms.tail_percentile": tail_p,
             "step_ms.tail_samples_beyond": tail_n, "processes": len(workers),
             "error_rate": failed / attempted if attempted else 1.0,
             "setup_s.samples": [w["setup_s"] for w in workers],
             "wall_s.samples": [[r["wall_s"] for r in w["repeats"]] for w in workers]}
    if args.trace:
        values = {**workers[0]["layers"], **quality}
        problems += workers[0]["nesting"]
        (outdir / "summary.json").write_text(json.dumps(workers[0]["spans"], indent=1))
        print_spans(workers[0]["spans"])
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        per_worker = [w["repeats"] for w in workers]
        values = {
            "setup_s": med(w["setup_s"] for w in workers),
            "wall_s": med(med(r["wall_s"] for r in rs) for rs in per_worker),
            "windows_per_s": med(med(r["windows"] / r["wall_s"] for r in rs)
                                 for rs in per_worker),
            "step_ms.p50": med(steps_ms) if steps_ms else 0.0,
            "step_ms.tail": tail_ms,
            "peak_rss_mb": med(w["rss_mb"] for w in workers),
            "success_rate": 1.0 - failed / attempted if attempted else 0.0,
            **quality,
        }
        wanted = [m["name"] for m in spec["end_to_end"]]
    missing = [name for name in wanted if name not in values]
    if missing:
        problems.append(f"metrics not measured: {missing}")

    correct = not problems
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": units[name]}
               for name in wanted}
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace, "correct": correct,
              "problems": problems, "output_digest": digest,
              "input_sha256": workers[0]["input_sha256"], "notes": notes,
              "metrics": metrics, "environment": environment()}
    (outdir / "result.json").write_text(json.dumps(record, indent=1))

    print(f"# {tag(args)}: {len(repeats)} repeats in {len(workers)} processes, "
          f"output digest {digest}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:14.6g} {m['unit']}")
    for name, value in notes.items():
        print(f"{'(' + name + ')':44s} {value}")
    for p in problems:
        print(f"PROBLEM: {p}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def layer_metrics(tracer, repeats, traced_flags):
    """Per-layer metrics (medians over traced repeats) and the per-span table."""
    import tracing

    runs = [f"r{i}" for i, t in enumerate(traced_flags) if t]
    med = tracing.median_or_zero
    totals = [tracer.totals(run) for run in runs]
    setup = tracer.totals("setup")

    def span_s(name, phase=None):
        per_run = [tracer.totals(run, phase)[name] for run in runs] if phase else \
            [t.get(name, 0.0) for t in totals]
        if not any(per_run) and name in SETUP_LAYERS:
            return setup.get(name, 0.0)
        return med(per_run)

    def count(key):
        per_run = [tracer.counts[run][key] for run in runs]
        if not any(per_run) and key == "segmentation.windows":
            return tracer.counts["setup"][key]
        return med(per_run)

    def ratio(prefix):
        rows = count(f"{prefix}.rows")
        return (1.0 - count(f"{prefix}.encoded") / rows) if rows else 0.0, rows

    walls = [r.wall_s for r, t in zip(repeats, traced_flags) if t]
    plain = [r.wall_s for r, t in zip(repeats, traced_flags) if not t]
    anchor, anchor_rows = ratio("pretraining.anchor_cache")
    rep_hit, rep_rows = ratio("downstream.rep_cache")
    untraced = [r for r, t in zip(repeats, traced_flags) if not t]
    values = {
        "trace.overhead_ratio": med(walls) / med(plain) - 1.0,
        "trace.unattributed_share": med(
            1.0 - tracer.attributed(run) / r.wall_s
            for run, r in zip(runs, [r for r, t in zip(repeats, traced_flags) if t])),
        "pretraining.anchor_cache.hit_ratio": anchor,
        "pretraining.anchor_cache.rows": anchor_rows,
        "downstream.rep_cache.hit_ratio": rep_hit,
        "downstream.rep_cache.rows": rep_rows,
        "downstream.backbone_forward_s": med(
            tracer.nested_total(run, "model.window_tensors", "downstream.finetune")
            for run in runs),
        "phase1_windows_per_s": med(r.phase_rates.get("phase1_windows_per_s", 0.0)
                                    for r in untraced),
        "phase2_windows_per_s": med(r.phase_rates.get("phase2_windows_per_s", 0.0)
                                    for r in untraced),
    }
    for key in ("event_encoder.rows_encoded", "autodiff.tape_nodes",
                "segmentation.windows", "checkpoint.bytes"):
        values[key] = count(key)
    for name in ("autodiff.gelu", "autodiff.backward", "context_encoder.forward",
                 "context_encoder.attention", "context_encoder.ffn",
                 "event_encoder.forward", "event_encoder.attention",
                 "event_encoder.build_batch", "event_encoder.featurize", "ingest.parse",
                 "segmentation.segment", "downstream.finetune", "downstream.decode",
                 "evaluation.batched_pooled", "evaluation.metrics", "nn.adam",
                 "pretraining.infonce", "pretraining.augment", "checkpoint.save",
                 "checkpoint.load"):
        values[f"{name}_s"] = span_s(name)
    for phase, name in (("phase1", "event_encoder.forward"), ("phase1", "autodiff.backward"),
                        ("phase2", "autodiff.gelu"), ("phase2", "context_encoder.forward"),
                        ("phase2", "event_encoder.forward"), ("phase2", "autodiff.backward")):
        values[f"{phase}.{name}_s"] = span_s(name, phase)
    table = {f"{phase or '-'}|{name}": {"calls": c / len(runs), "total_s": t / len(runs),
                                        "self_s": s / len(runs)}
             for (phase, name), (c, t, s) in tracer.summary(runs).items()}
    table.update({f"setup|{name}": {"calls": c, "total_s": t, "self_s": s}
                  for (_, name), (c, t, s) in tracer.summary(["setup"]).items()})
    return values, table


def print_spans(table: dict):
    print("# spans, per traced repeat (setup: the traced set-up)")
    print(f"{'phase|span':48s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
    for key, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{key:48s} {row['calls']:9.1f} {row['total_s']:10.4f} {row['self_s']:10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pretrain", "finetune",
                                                              "inference"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("desk", "tiny"), default="desk")
    parser.add_argument("--out", default=str(HERE / "out"))
    # internal: the index and time budget of one worker process
    parser.add_argument("--worker", type=int, default=-1, help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_package()
    return run_worker(args) if args.worker >= 0 else run(args)


if __name__ == "__main__":
    sys.exit(main())
