"""figp benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload table2 --seed 1 --seconds 20 --trace 0

Run from the root of a figp checkout; the package is imported from the
checkout's `src/`.  With `--trace 0` the run times whole passes with no
instrumentation and prints the end-to-end metrics.  With `--trace 1` it
alternates untraced and traced passes and prints the per-layer metrics,
including the tracing overhead.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Metric names
and units come from `BENCHMARK.json` at the checkout's root.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from time import perf_counter

# One BLAS thread, set before numpy loads: on a small shared machine a
# second OpenBLAS thread adds CPU time and makes pass times less steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def keep_freed_memory() -> bool:
    """Have glibc serve blocks up to 32 MiB from its heap and keep freed
    memory, instead of mapping and unmapping each large numpy temporary.

    With the defaults every pass spends much of its time in the kernel
    zeroing fresh pages (1.6 million page faults per `table2` pass), and
    that cost drifts with the load on a shared machine.  Returns False
    where the C library is not glibc.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    return bool(mallopt(M_MMAP_THRESHOLD, 32 << 20)
                and mallopt(M_TRIM_THRESHOLD, 1 << 30))


MALLOC_TUNED = keep_freed_memory()

from spans import Tracer, aggregate, median, tail_percentile  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# Set-ups per run: one in this process, the rest each in a fresh
# interpreter, so every sample includes a cold `import figp`.
SETUP_REPS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-sample", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def timed_setup(workload: str, seed: int, work_dir: str):
    """Import figp and set `workload` up in `work_dir`.

    Returns (seconds, workload object, state).
    """
    os.makedirs(work_dir, exist_ok=True)
    t0 = perf_counter()
    import numpy as np

    import figp  # noqa: F401
    import workloads

    w = workloads.WORKLOADS[workload]
    state = w.setup(work_dir, np.random.default_rng(seed))
    return perf_counter() - t0, w, state


def setup_in_child(args, work_dir: str) -> float:
    """One set-up in a fresh interpreter; returns its seconds."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--setup-sample", work_dir],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import glob

    import figp
    import numpy as np
    import scipy

    def blas_threads(package, symbol):
        libs = os.path.join(os.path.dirname(package.__file__), "..",
                            f"{package.__name__}.libs", "lib*openblas*")
        for path in glob.glob(libs):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
        return None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy_blas_threads": blas_threads(
            np, "scipy_openblas_get_num_threads64_"),
        "scipy_blas_threads": blas_threads(
            scipy, "scipy_openblas_get_num_threads"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "figp": figp.__version__,
        "malloc_keeps_freed_memory": MALLOC_TUNED,
    }


def timing_line(name, samples, unit="s") -> str:
    if not samples:
        return f"  {name:<18} none in this workload"
    line = f"  {name:<18} {median(samples):.6g} {unit} median of {len(samples)}"
    tail = tail_percentile(samples)
    if tail is None:
        return line + "; no percentile has 10 samples beyond it"
    p, value, n = tail
    return line + f"; p{p} {value:.6g} {unit} over {n} samples"


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "figp", "__init__.py")):
        print(f"error: no figp sources under {SRC}; run from a figp checkout",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{names}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_sample:
        print(timed_setup(args.workload, args.seed, args.setup_sample)[0])
        return 0

    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        seconds, w, state = timed_setup(args.workload, args.seed, work_dir)
        import figp
        if not os.path.abspath(figp.__file__).startswith(SRC + os.sep):
            print(f"error: imported figp from {figp.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        setup_times = [seconds] + [
            setup_in_child(args, os.path.join(work_dir, f"setup{i}"))
            for i in range(1, SETUP_REPS)]
        return measure(args, bench, w, state, setup_times)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def checked_pass(w, state, log):
    """Run one pass; a raised FigpError ends it and counts one failure."""
    import figp

    try:
        return w.run_pass(state, log)
    except figp.FigpError as exc:
        if not any(op.failed for op in log.ops):  # not yet counted
            log.check("pass", False, f"{type(exc).__name__}: {exc}")
        return None


def measure(args, bench: dict, w, state, setup_times) -> int:
    import figp

    import workloads

    ref = workloads.load_reference()

    tracer = Tracer() if args.trace else None
    logs, walls, traced_walls, layer_passes = [], [], [], []
    first_spans = None
    start = perf_counter()
    while True:
        traced = tracer is not None and len(traced_walls) < len(walls)
        log = workloads.PassLog()
        if traced:
            tracer.install(figp)
        t = perf_counter()
        out = checked_pass(w, state, log)
        dt = perf_counter() - t
        if traced:
            tracer.uninstall()
            pass_spans = tracer.take()
            layer_passes.append(aggregate(pass_spans))
            traced_walls.append(dt)
            first_spans = first_spans or pass_spans
        else:
            walls.append(dt)
        if out is not None:
            w.check(out, ref, log)
        logs.append((traced, log))
        elapsed = perf_counter() - start
        need_traced = tracer is not None and not traced_walls
        if (not need_traced
                and elapsed + median(walls + traced_walls) > args.seconds):
            break

    ops = [op for _, log in logs for op in log.ops]
    checks = [c for _, log in logs for c in log.checks]
    attempted = len(ops) + len(checks)
    failed = sum(op.failed for op in ops) + sum(not ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        if not ok:
            print(f"check failed: {w.name}.{name}: {detail}")

    # end-to-end figures come from untraced passes only
    untraced = [log for traced, log in logs if not traced]
    ops = [op for log in untraced for op in log.ops]
    mode = "traced" if tracer else "untraced"
    print(f"workload {w.name} seed {args.seed}: {len(logs)} passes ({mode})")
    setup_s = median(setup_times)
    print(f"  {'setup_s':<18} {setup_s:.6g} s median of {len(setup_times)} "
          f"set-ups, each with a cold import of figp: "
          + " ".join(f"{t:.4g}" for t in setup_times))
    print(timing_line("wall_s", walls))
    print(timing_line("fit_s", [op.seconds for op in ops if op.kind == "fit"]))
    predicts = [op for op in ops if op.kind == "predict"]
    if predicts:
        items = sum(op.items for op in predicts)
        rate = items / sum(op.seconds for op in predicts)
        print(f"  {'predict_per_s':<18} {rate:.6g} 1/s over {items} inputs")
        print(timing_line("predict_call_s", [op.seconds for op in predicts]))
    mapes = [log.mape_pct for log in untraced if log.mape_pct is not None]
    if mapes:
        print(f"  {'heldout_mape_pct':<18} {median(mapes):.6g} %")
    print(f"  {'failed_frac':<18} {failed / attempted:.6g} "
          f"({failed} of {attempted} operations and checks)")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"  {'peak_rss_mb':<18} {peak_rss_mb:.6g} MB")
    print("environment " + json.dumps(environment(), sort_keys=True))

    if tracer is None:
        values = {"setup_s": setup_s, "wall_s": median(walls),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    else:
        metrics = layer_metrics(bench["per_layer"], layer_passes, walls,
                                traced_walls)
        trace_dir = os.path.join(WORK_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{w.name}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump([s.as_dict() for s in first_spans], fh)
        print(f"spans of the first traced pass: {path}")
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(per_layer, layer_passes, walls, traced_walls) -> dict:
    metrics = {}
    for m in per_layer:
        name, unit = m["name"], m["unit"]
        if name.startswith("tracing."):
            continue
        if unit == "s":
            value = median([p.get(name, 0.0) for p in layer_passes])
        else:
            value = int(layer_passes[0].get(name, 0))
        metrics[name] = {"value": value, "unit": unit}
    traced, untraced = median(traced_walls), median(walls)
    metrics["tracing.wall_s"] = {"value": traced, "unit": "s"}
    metrics["tracing.untraced_wall_s"] = {"value": untraced, "unit": "s"}
    metrics["tracing.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
