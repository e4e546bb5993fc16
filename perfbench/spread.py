"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 perfbench/spread.py --workloads maint-uniform sketch-ce --seeds 1 2 3 4 5 \
        --out .bench_out/spread.json [--against .bench_out/earlier.json]

Runs ``run.py`` once per workload and seed, one after another, for the
benchmark's ``run_seconds``.  For each metric it prints the median, the
quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the spread
(Q3 - Q1) / median beside the metric's bound.  ``--against`` adds the change
of each median against an earlier ``--out`` file, oriented so that a positive
share is a regression.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def collect(workloads, seeds, seconds):
    results = {}
    for workload in workloads:
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: failed checks ({result['failed']} "
                      f"of {result['attempted']})", file=sys.stderr)
            results.setdefault(workload, []).append(
                {name: m["value"] for name, m in result["metrics"].items()}
            )
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
    return results


def report(results, against=None):
    worst = 0.0
    for workload, runs in results.items():
        print(f"\n{workload} ({len(runs)} runs)")
        print(f"{'metric':<16}{'median':>12}{'Q1':>12}{'Q3':>12}{'spread':>9}{'bound':>7}"
              + (f"{'vs earlier':>12}" if against else ""))
        for metric in BENCHMARK["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bound)
            line = f"{name:<16}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{spread:>9.3f}{bound:>7.2f}"
            if against and workload in against:
                before = statistics.median(r[name] for r in against[workload])
                change = (med - before) / before if before else float("inf")
                if metric["better"] == "higher":
                    change = -change
                line += f"{change:>+12.3f}"
            print(line + ("  <- over a third of the bound" if spread > bound / 3 else ""))
    print(f"\nlargest spread / bound, setup_s aside: {worst:.3f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    results = collect(args.workloads, args.seeds, BENCHMARK["run_seconds"])
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    against = json.loads(args.against.read_text()) if args.against else None
    report(results, against)
    return 0


if __name__ == "__main__":
    sys.exit(main())
