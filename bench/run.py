"""memlab benchmark: one workload per run, end-to-end or per-module metrics.

    python3 bench/run.py --workload memorize --seed 0 --seconds 10 --trace 0

Run from the root of a memlab checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the run measures end-to-end
metrics: repetitions of the workload body fill ``--seconds`` (at least
one), and each metric is the median over them.  With ``--trace 1`` it
instead measures the body untraced the same way, then once more with every
memlab module wrapped by the span tracer, and reports per-module metrics
and the tracing overhead.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Full results and traced spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
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
sys.path.insert(0, str(HERE))

import layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("MEMLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
IMPORT_SAMPLES = 9

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("train_samples_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)


def time_import(module: str) -> float:
    """Seconds one fresh interpreter takes to import ``module`` from SRC."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import " + module + "; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def import_memlab():
    sys.path.insert(0, str(SRC))
    import memlab
    import memlab.cli  # noqa: F401  (the cli workload calls memlab.cli.dispatch)
    if Path(memlab.__file__).resolve().parent != (SRC / "memlab").resolve():
        raise ImportError(f"memlab imported from {memlab.__file__}, not {SRC}")
    return memlab


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads() -> dict:
    """Name, version and live thread count of the BLAS numpy loaded."""
    import numpy as np
    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                info["library"] = os.path.basename(path)
                return info
    return info


def machine_block(load_start) -> dict:
    import numpy as np
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_threads(),
        "env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


class Rep:
    """One timed repetition of a workload body."""

    def __init__(self, workload, memlab, inputs, state, seed):
        workdir = str(OUT / f"work-{workload.name}")
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        self.outcome = workload.body(memlab, inputs, state, seed, workdir)
        self.wall = time.perf_counter() - t0
        self.cpu = cpu_seconds() - cpu0


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    load_start = os.getloadavg()
    module = "memlab.cli" if workload.name == "cli" else "memlab"
    import_s = statistics.median(time_import(module) for _ in range(IMPORT_SAMPLES))
    memlab = import_memlab()
    inputs = workload.inputs(args.seed)

    builds, state = [], None
    for _ in range(workload.setup_builds):
        state = None  # release the previous corpus before building the next
        t0 = time.perf_counter()
        state = workload.setup(memlab, inputs)
        builds.append(time.perf_counter() - t0)
    setup_s = import_s + (statistics.median(builds) if builds else 0.0)

    reps: list[Rep] = []
    while True:
        reps.append(Rep(workload, memlab, inputs, state, args.seed))
        spent = sum(r.wall for r in reps)
        if spent + statistics.median(r.wall for r in reps) > args.seconds:
            break
    wall = statistics.median(r.wall for r in reps)

    if args.trace:
        tracer = Tracer()
        with tracer:
            t0 = time.perf_counter()
            traced_state = workload.setup(memlab, inputs)
            traced_setup = time.perf_counter() - t0
            traced = Rep(workload, memlab, inputs, traced_state, args.seed)
        del traced_state
        reps_checked = reps + [traced]
    else:
        reps_checked = reps

    attempted = sum(r.outcome.attempted for r in reps_checked)
    failures = [f for r in reps_checked for f in r.outcome.failures]
    first = reps_checked[0].outcome.digests
    for i, r in enumerate(reps_checked[1:], 2):
        if r.outcome.digests != first:
            failures.append(f"repetition {i} produced different outputs than repetition 1")

    if args.trace:
        spans = tracer.spans()
        metrics = layer_metrics.compute(tracer, spans, traced.wall, wall)
        missing = layer_metrics.missing_calls(tracer, spans, workload.name)
        if missing:
            failures.append("traced run recorded no calls of " + ", ".join(missing))
        if tracer.counts["train.samples"] != workload.samples:
            failures.append(f"traced run trained {tracer.counts['train.samples']} samples, "
                            f"workload states {workload.samples}")
        units = layer_metrics.UNITS
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": setup_s,
            "cpu_s": statistics.median(r.cpu for r in reps),
            "train_samples_per_s": workload.samples / wall,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    # run-level checks (determinism, trace coverage) can fail on top of the
    # per-operation ones; failed never exceeds attempted
    failed = min(attempted, len(failures))

    machine = machine_block(load_start)
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"workload {workload.name} (seed {args.seed}"
          f"{', pinned outputs' if args.seed == DEFAULT_SEED else ', invariants'}): "
          f"{len(reps)} untraced repetition(s), walls "
          + ", ".join(f"{r.wall:.3f}" for r in reps) + " s")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"  {'error_rate':<44} {failed / attempted:>14.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    for f in failures:
        print(f"  FAILED: {f}")
    print("digests: " + json.dumps(first, sort_keys=True))
    notes = reps_checked[0].outcome.notes
    if notes:
        print("notes: " + json.dumps(notes, sort_keys=True))
    if args.trace:
        _print_trace_extras(tracer, workload, metrics, traced_setup)

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": workload.name, "seed": args.seed, "inputs": inputs,
              "machine": machine, "metrics": metrics, "failures": failures,
              "digests": first, "notes": notes,
              "reps": [{"wall_s": r.wall, "cpu_s": r.cpu} for r in reps],
              "setup": {"import_s": import_s, "builds_s": builds}}
    if args.trace:
        import numpy as np
        np.savez_compressed(OUT / f"spans-{workload.name}.npz",
                            names=np.array(tracer.names), **spans)
        record["dense_shapes"] = {k: sorted(v) for k, v in tracer.role_shapes.items()}
        record["computed_counts"] = dict(tracer.counts)
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def _print_trace_extras(tracer, workload, metrics, traced_setup) -> None:
    print(f"trace: traced set-up {traced_setup:.3f} s, body {metrics['trace.wall_s']:.3f} s, "
          f"overhead {metrics['trace.overhead_s']:+.3f} s over the untraced median")
    for role, shapes in tracer.role_shapes.items():
        if shapes:
            print(f"  Dense {role}: {', '.join(sorted(shapes))}")
    print("computed (from shapes and parameter counts, not measured): "
          + json.dumps(dict(tracer.counts), sort_keys=True))
    if workload.name == "memorize":
        print("ROADMAP item-1 baseline vs this traced run (ms per training call):")
        for name, label, baseline in layer_metrics.ROADMAP_BASELINE:
            now = metrics[name]
            verdict = "agrees" if 0.8 <= now / baseline <= 1.25 else "DISAGREES"
            print(f"  {label:<26} ROADMAP {baseline:6.2f}  measured {now:6.2f}  "
                  f"({now / baseline:4.2f}x, {verdict})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed; {DEFAULT_SEED} checks pinned outputs")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="time budget for untraced repetitions (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    set_vars = [v for v in THREAD_VARS if v in os.environ]
    if set_vars:
        print(f"refusing to run: {', '.join(set_vars)} set; the benchmark compares "
              "runs only at the default thread settings", file=sys.stderr)
        return 2
    if not (SRC / "memlab" / "__init__.py").is_file():
        print(f"no memlab source at {SRC}: run from a memlab checkout", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
