"""Benchmark of the karcher library.

    python3 perfbench/run.py --workload fem-ladder --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the library from its
``src`` directory.  The process pins BLAS and OpenMP to one thread, so
every figure is a single-threaded baseline.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` is the
median of several fresh interpreters that import the library and build
the workload's inputs; then whole passes run back to back until the next
one would end after ``--seconds`` (at least one pass runs).  ``wall_s`` is
the median pass time, ``task_p50_s`` and ``task_tail_s`` come from the
latencies of successful tasks, ``peak_rss_mb`` is the process's
``ru_maxrss``.  Pass and task times are at the reference speed of the
speed probe (see workloads.py); the measured times are printed beside
them.

With ``--trace 1`` it runs two traced passes and one untraced pass with
the same inputs, checks that the traced counts agree, and reports the
per-layer metrics of the second traced pass; ``trace.overhead_s`` is that
pass minus the untraced one, both at reference speed; ``--seconds`` does
not apply.  distortion-sweep also runs its position probe.  Spans are
written to ``perfbench/out``.

Every task's outputs are checked (see workloads.py); for the seed stored
in ``reference.json`` they are also compared with the stored outputs.
The last line of stdout is the JSON result.  Exit code 0 means a result
was printed; 2 means the library or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = {"full": 3, "smoke": 2}
SETUP_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s",
              "task_tail_s": "s", "peak_rss_mb": "MiB"}

_SETUP_CHILD = (
    "import sys; sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1] + '/perfbench']\n"
    "import workloads\n"
    "workloads.WORKLOADS[sys.argv[2]].make_inputs(int(sys.argv[3]), sys.argv[4])\n"
)


def per_layer_metrics() -> dict[str, str]:
    """Names and units of the traced per-layer metrics.  Self time is
    given as a share of the traced pass's time, ``trace.wall_s``: in
    seconds, a layer a workload never enters would read 0 s on every run.
    The seconds are in the run's report under ``perfbench/out``."""
    from spans import MANIFOLD_CLASSES, MANIFOLD_METHODS
    out = {}

    def span(name, calls=True):
        if calls:
            out[f"{name}.calls"] = "count"
        out[f"{name}.self_frac"] = "ratio"

    for cls in MANIFOLD_CLASSES:
        for meth in MANIFOLD_METHODS:
            span(f"manifolds.{cls}.{meth}")
    span("integrate.solve_ode")
    out["integrate.nfev"] = "count"
    for name in ("solve_bvp", "parallel_frame"):
        span(f"jacobi.{name}")
    for name in ("flat_metric_from_lengths", "fullness"):
        span(f"flat_simplex.{name}")
    for name in ("karcher_mean", "differential", "hessian", "sigma", "pullback_metric"):
        span(f"barycentric.{name}")
    out["barycentric.mean_iters_mean"] = "iterations"
    out["barycentric.mean_iters_max"] = "iterations"
    out["barycentric.failed"] = "count"
    for name in ("generate_geodesic_simplex", "measure_distortion",
                 "run_distortion_sweep", "fit_slope"):
        span(f"harness.{name}", calls=False)
    out["harness.monotone_warnings"] = "count"
    out["harness.position_probe_failed"] = "count"
    for name in ("build_triangulation", "quad_data", "assemble.flat",
                 "assemble.pulled-back", "solve_poisson", "error_norms"):
        span(f"fem.{name}")
    out["fem.quad_nodes"] = "count"
    out["fem.solve_rel_residual"] = "ratio"
    out["trace.wall_s"] = "s"
    out["trace.overhead_s"] = "s"
    out["trace.uncovered_frac"] = "ratio"
    return out


def tail_percentile(tasks_per_pass: int) -> float:
    """Highest of a fixed set of percentiles that leaves at least ten tasks
    of one pass beyond it; the maximum when a pass has fewer than 20.
    Fixed per workload size, so it does not change with speed."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if tasks_per_pass * (1.0 - p / 100.0) >= 10.0:
            return p
    return 100.0


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "machine": platform.machine(), "processor": platform.processor(),
        "system": platform.platform(), "nproc": os.cpu_count(),
        "nproc_available": affinity, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_sha": _git_sha(), "seed": seed, "blas": blas,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "threads": "single-threaded: BLAS/OpenMP pinned to 1 thread in this process",
    }


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def measure_setup(workload: str, seed: int, size: str) -> list[float]:
    """Seconds from starting a fresh interpreter to built inputs.  Not
    scaled by the speed probe: the probe's own noise exceeded the gain."""
    times = []
    for _ in range(SETUP_REPEATS[size]):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(ROOT), workload,
                        str(seed), size], check=True, stdout=subprocess.DEVNULL,
                       timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


def load_reference(workload: str, seed: int, size: str):
    """Stored outputs and tolerances when this run matches the reference."""
    if size != "full" or not REFERENCE.is_file():
        return None
    ref = json.loads(REFERENCE.read_text())
    entry = ref["workloads"].get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["tasks"], ref["rtol"], ref["atol"]


def timed_pass(wl, inputs, clock, tracer=None):
    """Time of one pass (the sum of its task latencies, so the probes
    between tasks are left out), the same at reference speed, and its
    tasks."""
    tasks = wl.run_pass(inputs, clock, tracer)
    clock.scale(tasks)
    return (sum(t.latency for t in tasks), sum(t.ref_latency for t in tasks),
            tasks)


def check(wl, inputs, tasks, reference):
    """The workload's own checks, then the stored reference if any; run
    outside the timed pass and with tracing off."""
    import workloads
    wl.check(inputs, tasks)
    if reference is not None:
        workloads.compare_reference(tasks, *reference)


def run_untraced(wl, inputs, seconds, reference):
    import workloads
    clock = workloads.SpeedClock()
    walls, ref_walls, tasks = [], [], []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        wall, ref_wall, ptasks = timed_pass(wl, inputs, clock)
        check(wl, inputs, ptasks, reference)
        walls.append(wall)
        ref_walls.append(ref_wall)
        tasks.extend(ptasks)
        now = time.perf_counter()
        if now - begin + (now - started) > seconds:  # the next pass would overrun
            return walls, ref_walls, tasks, clock.samples


def _counts(summary: dict) -> dict:
    return {"calls": {k: v["calls"] for k, v in summary["per_name"].items()},
            "nfev": summary["nfev"], "mean_iters": summary["mean_iters"],
            "quad_nodes": summary["quad_nodes"], "raised": summary["raised"]}


def run_traced(wl, inputs, reference, spans_path):
    """Two traced passes, then one untraced pass for the overhead.  The
    first traced pass also absorbs one-time warm-up costs."""
    from spans import Tracer
    from workloads import SpeedClock
    clock = SpeedClock(ticks=False)
    tracer = Tracer()
    walls, ref_walls, traced_tasks, counts = [], [], [], []
    tracer.install()
    try:
        for _ in range(2):
            tracer.reset()
            wall, ref_wall, ptasks = timed_pass(wl, inputs, clock, tracer)
            walls.append(wall)
            ref_walls.append(ref_wall)
            traced_tasks.append(ptasks)
            counts.append(_counts(tracer.summary()))
    finally:
        tracer.uninstall()
    _, untraced_ref_wall, tasks = timed_pass(wl, inputs, clock)
    for ptasks in [tasks] + traced_tasks:
        check(wl, inputs, ptasks, reference)
    tasks = tasks + traced_tasks[0] + traced_tasks[1]
    summary = tracer.summary()
    stages = None
    if hasattr(wl, "stages"):
        stages = {t.label: tracer.task_stages(i, wl.stages)
                  for i, t in enumerate(traced_tasks[-1])}
    tracer.save(spans_path)
    return {"overhead": ref_walls[-1] - untraced_ref_wall, "walls": walls,
            "ref_walls": ref_walls, "tasks": tasks,
            "counts_equal": counts[0] == counts[1], "counts": counts,
            "summary": summary, "last_tasks": traced_tasks[-1], "stages": stages}


def layer_values(trace: dict, probe_failed: int) -> dict[str, float]:
    summary = trace["summary"]
    wall = trace["walls"][-1]
    per_name = summary["per_name"]
    iters = summary["mean_iters"]
    last = [t for t in trace["last_tasks"] if t.ok]
    values = {}
    for name in per_layer_metrics():
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = per_name.get(base, {}).get("calls", 0)
        elif stat == "self_frac":
            values[name] = per_name.get(base, {}).get("self_s", 0.0) / wall
    values.update({
        "integrate.nfev": summary["nfev"],
        "barycentric.mean_iters_mean": statistics.fmean(iters) if iters else 0.0,
        "barycentric.mean_iters_max": max(iters, default=0),
        "barycentric.failed": summary["raised"].get("barycentric", 0),
        "harness.monotone_warnings": sum(t.diagnostics.get("monotone_warnings", 0)
                                         for t in last),
        "harness.position_probe_failed": probe_failed,
        "fem.quad_nodes": summary["quad_nodes"],
        "fem.solve_rel_residual": max(
            (v for t in last for k, v in t.diagnostics.items() if k.endswith(".residual")),
            default=0.0),
        "trace.wall_s": wall,
        "trace.overhead_s": trace["overhead"],
        "trace.uncovered_frac": 1.0 - summary["top_level_s"] / wall,
    })
    return values


def latency_stats(latencies, pct):
    """Median and ``pct`` percentile."""
    import numpy as np
    return statistics.median(latencies), float(np.percentile(latencies, pct))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fem-ladder", "distortion-sweep", "chart-ode"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a tiny size of the workload, for the "
                             "benchmark's own test")
    parser.add_argument("--write-reference", action="store_true",
                        help="run one full-size pass and store its outputs "
                             "as the reference for this seed")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    # Before numpy is imported: one BLAS/OpenMP thread, also for children.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "karcher" / "__init__.py").is_file():
        print(f"error: no karcher sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import karcher
    if Path(karcher.__file__).resolve().parent != (src / "karcher").resolve():
        print(f"error: imported karcher from {karcher.__file__}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.write_reference:
        return write_reference(wl, args.seed)

    env = environment(args.seed)
    reference = load_reference(wl.name, args.seed, args.size)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-{args.size}-trace{args.trace}"
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {wl.name} seed {args.seed} size {args.size}; "
          f"{env['threads']}; reference check "
          f"{'on' if reference else 'off (orders and oracle only)'}")

    report = {"env": env, "args": vars(args)}
    inputs = wl.make_inputs(args.seed, args.size)
    if args.trace:
        metrics, tasks, correct = traced_metrics(
            wl, inputs, args, reference, OUT_DIR / f"{stem}-spans.npz", report)
    else:
        metrics, tasks, correct = untraced_metrics(wl, inputs, args, reference, report)

    failed = [t for t in tasks if not t.ok]
    print(f"failed_frac = {len(failed)}/{len(tasks)}")
    for t in failed:
        print(f"failed task {t.label}: {'; '.join(t.errors)}")
    result = {"correct": not failed and correct, "attempted": len(tasks),
              "failed": len(failed),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    report.update({"result": result,
                   "tasks": [{"label": t.label, "latency_s": t.latency,
                              "ref_latency_s": t.ref_latency, "errors": t.errors}
                             for t in tasks]})
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    print(json.dumps(result))
    return 0


def untraced_metrics(wl, inputs, args, reference, report):
    import workloads
    setup = measure_setup(wl.name, args.seed, args.size)
    walls, ref_walls, tasks, probes = run_untraced(wl, inputs, args.seconds, reference)
    # Successful tasks only; all tasks when none succeeded.
    timed = [t for t in tasks if t.ok] or tasks
    pct = tail_percentile(wl.tasks_per_pass(args.size))
    p50, tail = latency_stats([t.ref_latency for t in timed], pct)
    raw_p50, raw_tail = latency_stats([t.latency for t in timed], pct)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": statistics.median(setup),
              "wall_s": statistics.median(ref_walls),
              "task_p50_s": p50, "task_tail_s": tail, "peak_rss_mb": rss}
    print(f"setup_s = {values['setup_s']:.4f} s (median of {len(setup)})")
    print(f"wall_s = {values['wall_s']:.4f} s (median of {len(walls)} "
          f"passes; measured {statistics.median(walls):.4f} s)")
    print(f"task_p50_s = {p50:.4f} s (median of {len(timed)} successful "
          f"tasks; measured {raw_p50:.4f} s)")
    print(f"task_tail_s = {tail:.4f} s (p{pct:g} of {len(timed)} successful "
          f"tasks; measured {raw_tail:.4f} s)")
    print(f"peak_rss_mb = {rss:.1f} MiB")
    print(f"speed probe: median {statistics.median(probes) * 1e3:.3f} ms over "
          f"{len(probes)} samples (reference {workloads.PROBE_NOMINAL_S * 1e3:g} ms)")
    report.update({"setup_s": setup, "pass_walls_s": walls,
                   "ref_pass_walls_s": ref_walls, "tail_percentile": pct,
                   "probe_s": probes})
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, tasks, True


def traced_metrics(wl, inputs, args, reference, spans_path, report):
    trace = run_traced(wl, inputs, reference, spans_path)
    probe = wl.probe(args.seed, args.size) if hasattr(wl, "probe") else []
    units = per_layer_metrics()
    values = layer_values(trace, sum(bool(p["errors"]) for p in probe))
    print(f"traced counts equal across two traced passes: {trace['counts_equal']}")
    for label, split in (trace["stages"] or {}).items():
        print(f"stage split {label}: " + ", ".join(
            f"{k} {v:.4f} s" for k, v in split.items()))
    for p in probe:
        print(f"position probe d={p['distance']}: "
              f"{'; '.join(p['errors']) if p['errors'] else 'ok'}")
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    report.update({"probe": probe, "stages": trace["stages"],
                   "counts": trace["counts"],
                   "per_name": trace["summary"]["per_name"],
                   "traced_walls_s": trace["walls"],
                   "traced_ref_walls_s": trace["ref_walls"]})
    metrics = {name: (value, units[name]) for name, value in values.items()}
    return metrics, trace["tasks"], trace["counts_equal"]


def write_reference(wl, seed: int) -> int:
    import workloads
    inputs = wl.make_inputs(seed, "full")
    tasks = wl.run_pass(inputs, workloads.SpeedClock(enabled=False))
    wl.check(inputs, tasks)
    if not all(t.ok for t in tasks):
        print("error: refusing to store failing outputs as reference", file=sys.stderr)
        return 1
    ref = (json.loads(REFERENCE.read_text()) if REFERENCE.is_file()
           else {"rtol": 1e-6, "atol": 1e-10, "workloads": {}})
    ref["workloads"][wl.name] = {"seed": seed, "tasks": [t.output for t in tasks]}
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"stored {len(tasks)} reference outputs for {wl.name} seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
