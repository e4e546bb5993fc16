"""kronproj benchmark: one workload per process, closed loop, checked answers.

    python3 perfbench/run.py --workload maint-sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` times the loop untraced and prints the end-to-end metrics.
``--trace 1`` runs a fixed number of rounds three times, untraced, traced and
untraced again, prints the per-layer metrics (counts repeat exactly for a seed) and writes the
spans to ``.bench_out/``.  The last line of standard output is one JSON
object; the exit code is 1 when any check failed.  ``--workload all`` runs
every workload in its own process and prints a table.

BLAS is pinned to one thread before numpy loads, for a single-threaded
baseline; on a 2-core box one thread was also faster than two (see README.md).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("maint-uniform", "maint-sparse", "adaptive-setquery", "sketch-ce")


def environment(seed):
    """What a result depends on besides the code: machine, BLAS, versions."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "L2": caches.get("L2", "unknown"),
        "L3": caches.get("L3", "unknown"),
        "seed": seed,
    }


def _blas_threads():
    """Thread count reported by each OpenBLAS library loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def end_to_end(run):
    """Every end-to-end metric as name -> (value, unit, sample count).

    Percentiles are Harrell-Davis estimates, which weight every order
    statistic instead of one or two, so they move less between runs where
    a percentile falls between two modes of the latencies.  The throughput
    is the median of the per-round rates, so that one slow stretch of a
    shared machine does not move it.
    """
    from scipy.stats.mstats import hdquantiles

    def ms(samples, q):
        return float(hdquantiles(samples, prob=[q])[0]) * 1e3 if samples else 0.0

    rates = [steps / busy for steps, busy in run.rounds if busy > 0]
    return {
        "setup_s": (statistics.median(run.setup_s) if run.setup_s else 0.0, "s", len(run.setup_s)),
        "steps_per_s": (statistics.median(rates) if rates else 0.0, "1/s", len(rates)),
        "step_ms.p50": (ms(run.step_s, 0.5), "ms", len(run.step_s)),
        "step_ms.p90": (ms(run.step_s, 0.9), "ms", len(run.step_s)),
        "update_ms.p50": (ms(run.update_s, 0.5), "ms", len(run.update_s)),
        "update_ms.p90": (ms(run.update_s, 0.9), "ms", len(run.update_s)),
        "query_ms.p50": (ms(run.query_s, 0.5), "ms", len(run.query_s)),
        "query_ms.p90": (ms(run.query_s, 0.9), "ms", len(run.query_s)),
        "peak_rss_mb": (run.peak_rss_mb, "MB", 1),
    }


def run_one(workload, seed, seconds, trace):
    from workloads import TRACE_ROUNDS, WORKLOADS, Budget

    env = environment(seed)
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {workload} seed {seed} seconds {seconds} trace {trace}")
    fn = WORKLOADS[workload]
    if not trace:
        run = fn(seed, Budget(seconds=seconds))
        metrics = end_to_end(run)
        attempted, failed = run.attempted, run.failed
        for name, (value, unit, n) in metrics.items():
            print(f"{name:<16} {value:>12.4f} {unit:<6} (n={n})")
    else:
        from spans import Tracer, layer_metrics

        rounds = TRACE_ROUNDS[workload]
        before = fn(seed, Budget(rounds=rounds))
        tracer = Tracer()
        budget = Budget(rounds=rounds)
        with tracer.installed():
            run = fn(seed, budget)
        after = fn(seed, Budget(rounds=rounds))
        # untraced on both sides, so warm-up and drift do not read as overhead
        untraced = (_steps_per_s(before) + _steps_per_s(after)) / 2.0
        overhead = 1.0 - _steps_per_s(run) / untraced if untraced else 0.0
        layers = layer_metrics(tracer.spans, budget.started, run, overhead)
        metrics = {name: (value, unit, None) for name, (value, unit) in layers.items()}
        attempted = before.attempted + run.attempted + after.attempted
        failed = before.failed + run.failed + after.failed
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(path, dict(env, workload=workload, rounds=rounds))
        for name, (value, unit, _) in metrics.items():
            print(f"{name:<40} {value:>14.4f} {unit}")
        print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    print(f"fail_frac {failed / attempted if attempted else 1.0:.4f} ({failed} of {attempted} steps)")
    correct = attempted > 0 and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


def _steps_per_s(run):
    busy = sum(run.step_s)
    return len(run.step_s) / busy if busy else 0.0


def run_all(seed, seconds, trace):
    """Each workload in a fresh process; a table of every metric at the end."""
    results, code = {}, 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[workload] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        code = code or proc.returncode or (0 if results[workload]["correct"] else 1)
    names = list(next(iter(results.values()))["metrics"]) if results else []
    print(f"\n{'metric':<40}" + "".join(f"{w:>20}" for w in results))
    for name in names:
        row = "".join(f"{r['metrics'].get(name, {}).get('value', float('nan')):>20.4f}" for r in results.values())
        print(f"{name:<40}{row}")
    print(f"{'fail_frac':<40}" + "".join(
        f"{(r['failed'] / r['attempted'] if r['attempted'] else 1.0):>20.4f}" for r in results.values()))
    print(json.dumps(results))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kronproj" / "__init__.py").is_file():
        print(f"error: no kronproj sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path[:0] = [str(SRC), str(HERE)]
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
