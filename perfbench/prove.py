"""Check that the benchmark is steady: run it on several seeds and compare.

    python3 perfbench/prove.py [--workloads sweep,paired_k1,cli] [--runs 10]
        [--first-seed 1] [--trace 0|1]

Runs ``run.py`` once per seed and workload, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``.  With ``--trace 0`` it prints, for each
end-to-end metric, the median and the spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, beside the metric's bound.  With ``--trace 1`` it checks that every
exact count reads the same on every run.  Exits 1 when a run fails or is not
correct, a spread other than ``setup_s``'s exceeds its bound, or a count
differs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from layers import EXACT  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=None)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    ok = True
    for workload in names:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(workload, seed, spec["run_seconds"], args.trace)
            results.append(res)
            if set(res["metrics"]) != expected:
                print(f"{workload} seed {seed}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(res['metrics']) ^ expected)}")
                ok = False
            if not res["correct"] or res["failed"]:
                print(f"{workload} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}")
                ok = False
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                if not args.trace or k in EXACT), flush=True)
        metrics = results[0]["metrics"]
        if args.trace:
            for name in sorted(EXACT & set(metrics)):
                values = {r["metrics"][name]["value"] for r in results}
                if len(values) != 1:
                    ok = False
                    print(f"  {workload} {name}: counts differ across runs: {sorted(values)}")
            continue
        for name in metrics:
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values) if len(values) > 1 else 0.0
            bound = bounds[name]
            verdict = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            if s > bound and name != "setup_s":
                ok = False
            print(f"  {workload:10s} {name:12s} median={statistics.median(values):.6g} "
                  f"spread={s:.4f} bound={bound} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
