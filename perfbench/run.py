"""persymdet benchmark: throughput, latency, memory and set-up time.

Run one workload, or all of them, from the root of a checkout:

    python3 perfbench/run.py --workload cfar-n8 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Every metric is printed as ``workload  name  value  unit``, followed by one
JSON info line (environment, sample counts, check details) and, as the last
line, a JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
repeats the run with layer spans installed and reports the per-layer ones.

Each run alternates calls on 1 worker and on ``nproc`` workers with the same
inputs until ``--seconds`` have passed, and reports medians. The inputs are
a pool of ``input_reps`` repetitions made from the seed, cycled through in
order. The verdict covers the first pass over the pool, which every run
completes, so it depends on the seed and not on how many repetitions fit
into the time. The BLAS and OpenMP pools are pinned to one thread before
numpy loads, so that workers times BLAS threads never exceeds ``nproc``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
PAR_WORKERS = NPROC
BLAS_THREADS = 1  # at PAR_WORKERS workers, more would oversubscribe the CPUs
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
NAMES = ("cfar-n8", "roc-n32", "verify-n8")
DEFAULT_SEED = 20260808
SETUP_PROBES = 9
LATENCY_INPUTS = 256  # inputs of the smallest calls, cycled through

END_TO_END = (
    ("trials_per_s", "1/s"),
    ("trials_per_s.par", "1/s"),
    ("trial_us.p50", "us"),
    ("trial_us.p99", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    args.seed &= (1 << 64) - 1  # seed sequences take non-negative words
    return args


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def _input_seed(seed: int, *index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, *index]).generate_state(1, np.uint64)[0])


class Fastest(dict):
    """Fastest latency per input, in µs, and the number of timings taken."""

    timings = 0

    def add(self, key, us: float) -> None:
        self[key] = min(us, self.get(key, us))
        self.timings += 1


def _blas_threads():
    """Threads of numpy's bundled OpenBLAS, read from the library itself."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment() -> dict:
    import platform

    import numpy as np
    import scipy

    def blas(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (TypeError, KeyError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": _blas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
        "cpu_count": NPROC,
        "par_workers": PAR_WORKERS,
        "machine": platform.machine(),
    }


def _setup_probe(name: str, seed: int) -> None:
    """Time ``import persymdet`` plus the workload's smallest call."""
    t0 = perf_counter()
    import workloads

    workloads.WORKLOADS[name].smallest(seed)
    print(repr(perf_counter() - t0))


def _setup_seconds(name: str, seed: int) -> float:
    """One set-up measurement in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name,
           "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _measure(wl, seed: int, seconds: float, tracer, probes: int):
    """Alternate serial and parallel calls on shared inputs until time is up.

    Repetition ``rep`` takes input ``rep % wl.input_reps``. The operations
    of the first pass over the inputs are judged, and the loop runs at
    least that long; later passes are only timed, and an exception in one
    of them ends the run. Trial latency is kept per input (a trial, or a
    smallest call) as the fastest of its passes: a shared machine has slow
    spells lasting seconds, and passes seconds apart rarely all meet one.
    ``probes`` set-up measurements are spread over the run, so that a slow
    spell does not catch all of them; their time is added to the deadline.
    Returns the per-call samples, the per-input latencies, the set-up
    times, the operation counts and the check details.
    """
    serial, parallel, setup = [], [], []
    best = Fastest()
    attempted = failed = 0
    small = 0.0  # time spent in smallest calls for trial latency
    small_calls = 0
    small_seeds = (
        [_input_seed(seed, i, 1) for i in range(LATENCY_INPUTS)] if wl.latency_share else []
    )
    rep_seeds = [_input_seed(seed, r) for r in range(wl.input_reps)]
    info = {}
    ops = wl.ops_per_call
    start = perf_counter()
    deadline = start + seconds
    rep = 0
    while rep < wl.input_reps or perf_counter() < deadline:
        if len(setup) < probes and perf_counter() - start >= len(setup) * seconds / probes:
            t0 = perf_counter()
            setup.append(_setup_seconds(wl.name, seed))
            spent = perf_counter() - t0
            start += spent
            deadline += spent
        s = rep_seeds[rep % wl.input_reps]
        checked = rep < wl.input_reps
        calls = [("serial", 1, serial), ("par", PAR_WORKERS, parallel)]
        if rep % 2:
            calls.reverse()
        results = {}
        for kind, workers, samples in calls:
            rec = tracer.start() if tracer else None
            t0 = perf_counter()
            try:
                res = wl.call(s, workers)
            except Exception:  # a raising call fails all its operations
                if not checked:
                    raise
                traceback.print_exc(file=sys.stderr)
                res = None
            wall = perf_counter() - t0
            results[kind] = res
            if res is not None:
                samples.append((rec, wall, wl.trials_per_call))
        if tracer is None and small < wl.latency_share * (perf_counter() - start):
            wl.smallest(s)  # untimed: the first small call after a batch runs cold
            while small < wl.latency_share * (perf_counter() - start):
                key = small_calls % LATENCY_INPUTS
                t0 = perf_counter()
                best.add(key, wl.small_call_us(small_seeds[key]))
                small += perf_counter() - t0
                small_calls += 1
        r1, rp = results["serial"], results["par"]
        if r1 is not None:
            for i, us in enumerate(getattr(r1, "latencies_us", ())):
                best.add((rep % wl.input_reps, i), us)
        rep += 1
        if not checked:
            continue
        ok1 = wl.check(r1) if r1 is not None else [False] * ops
        okp = wl.check(rp) if rp is not None else [False] * ops
        same = wl.same(r1, rp) if r1 is not None and rp is not None else [False] * ops
        attempted += 2 * ops
        failed += sum(not a for a in ok1) + sum(not (b and c) for b, c in zip(okp, same))
        if r1 is not None:
            # counts add up over calls; worst-case ratios keep their maximum
            for key, value in wl.info(r1).items():
                info[key] = info.get(key, 0) + value if isinstance(value, int) else max(
                    info.get(key, 0.0), value)
    while len(setup) < probes:
        setup.append(_setup_seconds(wl.name, seed))
    if not serial or not parallel:
        raise RuntimeError(f"{wl.name}: no call completed on one of the worker counts")
    return serial, parallel, best, setup, attempted, failed, info


def _end_to_end(serial, parallel, latencies, setup) -> dict:
    med = statistics.median
    return {
        "trials_per_s": med([t / w for _, w, t in serial]),
        "trials_per_s.par": med([t / w for _, w, t in parallel]),
        "trial_us.p50": med(latencies),
        "trial_us.p99": _percentile(latencies, 0.99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": med(setup),
    }


def run_one(args) -> int:
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload]
    wl.smallest(args.seed)  # lazy set-up and caches, outside the timed region
    tracer = None
    if args.trace:
        tracer = Tracer()
        wl.install_spans(tracer)
    probes = 0 if args.trace else SETUP_PROBES
    serial, parallel, best, setup, attempted, failed, info = _measure(
        wl, args.seed, args.seconds, tracer, probes
    )
    if args.trace:
        recs = [rec for rec, _, _ in serial + parallel]
        tracer.check_fired(recs, wl.required_spans())
        measured, notes = wl.layer_metrics(serial, parallel, PAR_WORKERS)
        info.update(notes)
        tracer.uninstall()
        measured["traced.trials_per_s"] = statistics.median(t / w for _, w, t in serial)
        units = [(name, unit) for name, unit, _ in workloads.PER_LAYER]
        metrics = {name: measured.get(name, 0.0) for name, _ in units}
        samples = {"serial_calls": len(serial), "par_calls": len(parallel)}
    else:
        units = END_TO_END
        metrics = _end_to_end(serial, parallel, list(best.values()), setup)
        samples = {
            "serial_calls": len(serial),
            "par_calls": len(parallel),
            "trial_us_inputs": len(best),
            "trial_us_samples": best.timings,
            "setup_probes": len(setup),
        }
    for name, unit in units:
        print(f"{args.workload:<10} {name:<30} {metrics[name]:>16.6f} {unit}")
    print(f"{args.workload:<10} {'failed_frac':<30} {failed / attempted:>16.6f} fraction")
    print(json.dumps({"info": {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": failed / attempted,
        "samples": samples,
        "checks": info,
        "environment": _environment(),
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            status = done.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    if status:
        return status
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "persymdet", "__init__.py")):
        print(f"persymdet sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
