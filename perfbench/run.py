"""The semshot system benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {sweep,paired_k1,cli} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout: semshot is imported from the
checkout's ``src/`` and nowhere else.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the environment and the details (timing medians with their
tail percentile and sample count, accuracies, failure ratio).

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median of
three set-ups, each timed from process start to the first timed operation:
two set-up-only processes and the measuring process itself.  ``--trace 1``
wraps the package's public functions (see ``tracer.py``) and reports the
per-layer metrics of ``layers.py``, after re-running the first repeat with
tracing switched the other way to check the results are byte-identical.

Metric definitions live in ``README.md`` next to this file.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 2
DEADLINE_S = 175.0
READY = "perfbench-ready"
CLI_IMPORT_SAMPLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sweep", "paired_k1", "cli"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--role", default="parent", choices=("parent", "probe", "worker"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# statistics


def _median(values) -> float:
    """Median, or 0.0 when every operation failed (the run is then incorrect)."""
    return statistics.median(values) if values else 0.0


def timing(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    values = sorted(values)
    n = len(values)
    out = {"p50": statistics.median(values) if values else None, "n": n}
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            idx = min(n - 1, math.ceil(n * pct / 100) - 1)
            out[f"p{pct}"] = values[idx]
            break
    return out


# ---------------------------------------------------------------------------
# environment


def _tree_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "semshot").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(semshot) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        import numba  # noqa: F401

        numba_ok = True
    except ImportError:
        numba_ok = False
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "backend": semshot.kernels.BACKEND,
        "numba_importable": numba_ok,
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(),
        "semshot_file": semshot.__file__,
    }


def import_semshot():
    """Import semshot from this checkout's ``src/``; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import semshot
    import semshot.kernels  # noqa: F401

    where = Path(semshot.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"perfbench: semshot resolves to {where}, outside {SRC}; "
                         "a stale installed copy would be measured instead")
    return semshot


# ---------------------------------------------------------------------------
# the measuring process


def _window(wl, seconds: float, tracer=None) -> list:
    """Whole repeats until ``seconds`` have passed, at least one.  A repeat
    starts only if, at the pace of the last one, it would end before the
    window is more than half a repeat over."""
    repeats = []
    t0 = time.perf_counter()
    last = 0.0
    while not repeats or time.perf_counter() - t0 + last / 2 < seconds:
        if tracer is not None:
            tracer.unit_id = len(repeats)
        start = time.perf_counter()
        repeats.append(wl.measure(len(repeats)))
        last = time.perf_counter() - start
    return repeats


def _cli_import_samples() -> list:
    from workloads import child_env

    samples = []
    for _ in range(CLI_IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import semshot.cli"], env=child_env(),
                       cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return samples


def worker(args) -> int:
    semshot = import_semshot()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        wl.setup()
        print(READY, flush=True)
        if args.role == "probe":
            return 0
        result = _measure(wl, args, semshot)
    finally:
        wl.close()
    print(json.dumps(result), flush=True)
    return 0


def _measure(wl, args, semshot) -> dict:
    import layers
    import tracer as tr
    from workloads import OUT

    tracer = None
    if args.trace:
        if args.workload == "cli":
            wl.traced = True
        else:
            tracer = tr.install(tr.Tracer())
    repeats = _window(wl, args.seconds, tracer)

    attempted = sum(r.attempted for r in repeats)
    failed = sum(r.failed for r in repeats)
    detail = {}
    if args.trace:
        if tracer is not None:
            tracer.uninstall()
        check = wl.rerun(0)
        attempted += check.attempted
        identical = check.results == repeats[0].results
        if not identical:
            failed += max(1, check.failed)
            print("perfbench: traced and untraced results differ:\n"
                  + "\n".join(f"  {a}\n  {b}" for a, b in
                              zip(repeats[0].results, check.results) if a != b),
                  file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        if tracer is not None:
            stores = [tracer.store()]
            tracer.save(OUT / f"spans-{args.workload}.npz")
        else:
            files = wl.span_files()
            stores = [tr.load_spans(f) for f in files]
            dest = OUT / "spans-cli"
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir()
            for f in files:
                shutil.copy(f, dest / f"{f.parent.name}-{f.name}")
        walls = {}
        for r in repeats:
            for cmd, w in r.command_walls.items():
                walls.setdefault(cmd, []).append(w)
        metrics, uneven = layers.layer_metrics(
            stores, len(repeats), walls, _cli_import_samples(),
            repeats[0].busy / check.busy,
        )
        detail.update({
            "traced_equals_untraced": identical,
            "counts_uneven": uneven,
            "unwrapped": sorted({u for s in stores for u in s["unwrapped"]}),
        })
    else:
        cells = sum(len(r.novel) for r in repeats)
        total = sum(r.busy for r in repeats)
        cell_walls = [w for r in repeats for w in r.cell_walls]
        chain_walls = [r.wall for r in repeats]
        if args.workload == "cli":
            peak = max(r.peak_rss_mb for r in repeats)
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "cells_per_s": {"value": cells / total if total else 0.0, "unit": "cells/s"},
            "cell_s_p50": {"value": _median(cell_walls), "unit": "s"},
            "chain_s": {"value": _median(chain_walls), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
        detail.update({
            "repeats": len(repeats),
            "cell_s": timing(cell_walls),
            "chain_s": timing(chain_walls),
        })
        if args.workload == "cli":
            detail["command_s"] = {
                c: timing([r.command_walls[c] for r in repeats if c in r.command_walls])
                for c in wl.commands
            }
            detail["closure_s"] = dict(detail["command_s"]["closure"], unit="s")
    novel = [x for r in repeats for x in r.novel]
    base = [x for r in repeats for x in r.base]
    detail.update({
        "novel_acc": {"value": statistics.fmean(novel) if novel else None,
                      "unit": "fraction", "cells": len(novel)},
        "base_acc": {"value": statistics.fmean(base) if base else None,
                     "unit": "fraction", "cells": len(base)},
        "failed_ratio": {"value": failed / attempted, "unit": "failed/attempted"},
    })
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
        "env": environment(semshot),
    }


# ---------------------------------------------------------------------------
# the parent: set-up samples, the measuring process, the result line


def _spawn(args, role: str, deadline: float):
    """Start a worker; return (process, seconds from start to its ready line)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--role", role]
    t0 = time.perf_counter()
    # its own process group, so a stop also ends the commands it started
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline().strip() if ready else ""
    except BaseException:
        _stop(proc)
        raise
    setup = time.perf_counter() - t0
    if line != READY:
        _stop(proc)
        raise RuntimeError(f"{role} process failed during set-up (exit {proc.returncode})")
    return proc, setup


def _stop(proc):
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def _probe(args, deadline: float, setups: list) -> bool:
    """One set-up-only process; append its set-up time."""
    proc, setup = _spawn(args, "probe", deadline)
    proc.stdout.read()
    if proc.wait() != 0:
        print("perfbench: set-up probe failed", file=sys.stderr)
        return False
    setups.append(setup)
    return True


def parent(args) -> int:
    if not (SRC / "semshot" / "__init__.py").is_file():
        print(f"perfbench: no semshot sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    probes = 0 if args.trace else SETUP_PROBES
    # set-up samples taken at the start, by the measuring process itself and
    # after it, so they do not all fall into one phase of a noisy machine
    for _ in range(probes // 2):
        if not _probe(args, deadline, setups):
            return 1
    proc, setup = _spawn(args, "worker", deadline)
    setups.append(setup)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        print(f"perfbench: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: measuring process exited {proc.returncode}", file=sys.stderr)
        return 1
    for _ in range(probes - probes // 2):
        if not _probe(args, deadline, setups):
            return 1
    result = json.loads(out.strip().splitlines()[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
        result["detail"]["setup_s"] = {"samples": setups}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "env": result["env"], "detail": result["detail"]}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.role == "parent":
        return parent(args)
    return worker(args)


if __name__ == "__main__":
    raise SystemExit(main())
