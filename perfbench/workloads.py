"""The three workloads: `sweep`, `paired_k1` (in-process) and `cli` (files).

Each workload turns the benchmark seed into fresh cell seeds, runs whole
repeats until the measuring window ends, checks every output, and reports
its timings, its failures and, when traced, the spans of every repeat.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WARM_SEED = 999_999_937


class SeedPlan:
    """Fresh cell seeds from the workload seed, with the fresh-seed guard.

    A (workload, seed, k, head) tuple may run once per run: a cache can then
    profit only from sharing that real traffic has, never from replaying an
    identical call.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self._next = 1_000 + seed * 100_000
        self._seen = set()

    def fresh(self) -> int:
        self._next += 1
        return self._next

    def claim(self, seed: int, k: int, head: str):
        key = (self.workload, seed, k, head)
        if key in self._seen:
            raise RuntimeError(f"fresh-seed guard: {key} repeats within one run")
        self._seen.add(key)


def _fraction_ok(x) -> bool:
    return isinstance(x, float) and math.isfinite(x) and 0.0 <= x <= 1.0


@dataclass
class Repeat:
    """One repeat of a workload: its wall time, cells and checks."""

    wall: float = 0.0
    cell_walls: list = field(default_factory=list)
    results: list = field(default_factory=list)  # one text line per cell/output
    novel: list = field(default_factory=list)
    base: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    command_walls: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    reported = 0  # failures printed so far in this process (class-wide)

    @property
    def busy(self) -> float:
        """Seconds the repeat kept the program busy, closure included."""
        return self.wall + self.command_walls.get("closure", 0.0)

    def cell(self, line: str, novel: float, base: float):
        self.attempted += 1
        if _fraction_ok(novel) and _fraction_ok(base):
            self.results.append(line)
            self.novel.append(novel)
            self.base.append(base)
        else:
            self.failed += 1
            self.results.append("FAILED " + line)

    def fail(self, what: str, exc: BaseException):
        self.attempted += 1
        self.failed += 1
        self.results.append(f"FAILED {what}: {type(exc).__name__}: {exc}")
        Repeat.reported += 1
        if Repeat.reported <= 5:
            print(f"perfbench: {what} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


class Workload:
    """What every workload shares: the seed plan and the seeds of each repeat."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.plan = SeedPlan(self.name, seed)
        self.plans = []  # the seeds of each repeat, for the traced/untraced check

    def close(self):
        pass


# ---------------------------------------------------------------------------
# in-process workloads


class InProcess(Workload):
    """Calls `semshot.pipeline` directly in the benchmark process."""

    modes = ()

    def setup(self):
        from semshot import pipeline

        self.pipeline = pipeline
        self.cfg = {m: pipeline.bundled_benchmark(mode=m, graph_mode="dynamic")
                    for m in self.modes}
        # warm-up: one tiny untimed cell per head on a seed no repeat uses
        for m in self.modes:
            tiny = pipeline.bundled_benchmark(
                mode=m, graph_mode="dynamic", base_steps=5, finetune_steps=5,
                train_per_class=8, test_per_class=2, base_shots=1,
            )
            pipeline.run_cell(tiny, 1, WARM_SEED)

    def measure(self, index: int) -> Repeat:
        seeds = self.new_seeds()
        self.plans.append(seeds)
        return self.run(seeds)

    def rerun(self, index: int) -> Repeat:
        """Repeat ``index`` again, outside the fresh-seed guard."""
        return self.run(self.plans[index])


class Sweep(InProcess):
    """One `shot_sweep` call over shots {1, 5, 10} on a fresh seed."""

    name = "sweep"
    modes = ("srr",)
    shots = (1, 5, 10)
    seeds_per_sweep = 1

    def new_seeds(self):
        seeds = [self.plan.fresh() for _ in range(self.seeds_per_sweep)]
        for s in seeds:
            for k in self.shots:
                self.plan.claim(s, k, "srr")
        return seeds

    def run(self, seeds) -> Repeat:
        rep = Repeat()
        t0 = time.perf_counter()
        try:
            result = self.pipeline.shot_sweep(self.cfg["srr"], self.shots, seeds)
        except Exception as exc:  # counted, never dropped
            rep.wall += time.perf_counter() - t0
            rep.fail(f"shot_sweep seeds={seeds}", exc)
            return rep
        rep.wall += time.perf_counter() - t0
        for r in result.rows:
            rep.cell(
                f"k={r.k} seed={r.seed} srr novel={r.novel_accuracy!r} "
                f"base={r.base_accuracy!r} before={r.base_accuracy_before!r}",
                r.novel_accuracy, r.base_accuracy,
            )
        cells = len(self.shots) * len(seeds)
        if len(result.rows) != cells:
            rep.fail(f"shot_sweep seeds={seeds}",
                     ValueError(f"{len(result.rows)} rows for {cells} cells"))
        rep.cell_walls = [rep.wall / cells]
        return rep


class PairedK1(InProcess):
    """Criterion 7's traffic: baseline, ssp and srr at k=1 on one fresh seed."""

    name = "paired_k1"
    modes = ("baseline", "ssp", "srr")

    def new_seeds(self):
        seed = self.plan.fresh()
        for m in self.modes:
            self.plan.claim(seed, 1, m)
        return [seed]

    def run(self, seeds) -> Repeat:
        (seed,) = seeds
        rep = Repeat()
        for m in self.modes:
            t0 = time.perf_counter()
            try:
                cell = self.pipeline.run_cell(self.cfg[m], 1, seed)
            except Exception as exc:  # counted, never dropped
                rep.wall += time.perf_counter() - t0
                rep.fail(f"run_cell {m} seed={seed}", exc)
                continue
            dt = time.perf_counter() - t0
            rep.wall += dt
            rep.cell_walls.append(dt)
            rep.cell(
                f"k=1 seed={seed} {m} novel={cell.novel_accuracy!r} "
                f"base={cell.base_accuracy!r} before={cell.base_accuracy_before!r} "
                f"params={cell.head.param_hash()}",
                cell.novel_accuracy, cell.base_accuracy,
            )
        return rep


# ---------------------------------------------------------------------------
# the CLI workload


# level widths of the generated hypernym tree: 1 + 20 + 400 + 4000 + 76000
# = 80421 nodes, about WordNet's noun count
_TREE_WIDTHS = (20, 20, 10, 19)
_CROSS_EVERY = 10
_CLOSURE_ROOTS = 3


def hypernym_tree(seed: int):
    """A WordNet-scale hypernym DAG drawn from ``seed``.

    The shape is fixed and only ids and line order come from the seed, so the
    edge count and every level-1 closure size are the same for every seed.
    Every tenth leaf gets a second hypernym, a sibling of its parent, which
    keeps each level-1 subtree closed.  Returns (tsv text, level-1 node ids,
    children by id).
    """
    rng = np.random.default_rng([seed, 0x7E])
    levels = [[0]]
    children = {}
    n = 1
    for width in _TREE_WIDTHS:
        nxt = []
        for parent in levels[-1]:
            kids = list(range(n, n + width))
            n += width
            children[parent] = kids
            nxt.extend(kids)
        levels.append(nxt)
    edges = [(p, c) for p, kids in children.items() for c in kids]
    leaf_parents = levels[-2]
    width3 = _TREE_WIDTHS[-2]
    for j, parent in enumerate(leaf_parents):
        group = j - j % width3
        sibling = leaf_parents[group + (j + 1) % width3]
        for leaf in children[parent][::_CROSS_EVERY]:
            edges.append((sibling, leaf))
    ids = [f"n{10_000_000 + int(v):08d}" for v in rng.permutation(n)]
    order = rng.permutation(len(edges))
    lines = [f"{ids[edges[i][0]]}\t{ids[edges[i][1]]}" for i in order]
    by_id = {}
    for p, c in edges:
        by_id.setdefault(ids[p], []).append(ids[c])
    return "\n".join(lines) + "\n", [ids[v] for v in levels[1]], by_id


def _closure(children: dict, roots) -> list:
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(children.get(node, ()))
    return sorted(seen)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(argv, cwd: Path, log_stem: Path, env=None) -> tuple:
    """Run one process to completion: (exit code, wall seconds, peak RSS MB)."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err,
                                env=env or child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Cli(Workload):
    """The file-based path, one `semshot.cli` process per command.

    synth (300-d embeddings) -> train (srr) -> finetune (registry expansion,
    k=5) -> eval -> export correlate, then closure over a WordNet-scale TSV.
    """

    name = "cli"
    k = 5
    commands = ("synth", "train", "finetune", "eval", "export", "closure")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.work = WORK / f"cli-{seed}-{os.getpid()}"
        self.traced = False

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        text, self.level1, self.children = hypernym_tree(self.seed)
        self.tsv = self.work / "hypernyms.tsv"
        self.tsv.write_text(text, encoding="utf-8")
        self.roots_rng = np.random.default_rng([self.seed, 0x7F])
        # the first child import doubles as the check that children resolve
        # semshot inside this checkout
        probe = subprocess.run(
            [sys.executable, "-c", "import semshot.cli, semshot; print(semshot.__file__)"],
            cwd=self.work, env=child_env(), capture_output=True, text=True, check=True,
        )
        where = Path(probe.stdout.strip()).resolve()
        if SRC.resolve() not in where.parents:
            raise RuntimeError(f"child processes import semshot from {where}, not {SRC}")

    def new_seeds(self):
        seed = self.plan.fresh()
        self.plan.claim(seed, self.k, "srr")
        picks = self.roots_rng.choice(len(self.level1), _CLOSURE_ROOTS, replace=False)
        return [seed, [self.level1[i] for i in sorted(picks)]]

    def measure(self, index: int) -> Repeat:
        seeds = self.new_seeds()
        self.plans.append(seeds)
        return self.run(seeds, self.work / f"r{index}", traced=self.traced, unit=index)

    def rerun(self, index: int) -> Repeat:
        """Repeat ``index`` again with tracing switched the other way, outside
        the fresh-seed guard."""
        return self.run(self.plans[index], self.work / f"check{index}",
                        traced=not self.traced, unit=index)

    def span_files(self) -> list:
        return sorted(self.work.glob("r*/spans-*.npz"))

    def _argv(self, traced: bool, spans: Path, args):
        if traced:
            return [sys.executable, str(BENCH_DIR / "launch.py"), str(spans), *args]
        return [sys.executable, "-m", "semshot.cli", *args]

    def _command_args(self, cmd: str, seed: int, roots) -> list:
        s = str(seed)
        data = "synth"
        return {
            "synth": ["synth", "--out-dir", "synth", "--seed", s, "--embed-dim", "300"],
            "train": ["train", "--out-dir", "train", "--seed", s, "--mode", "srr",
                      "--data", f"{data}/base_train.jsonl",
                      "--registry", "base_registry.json",
                      "--embeddings", f"{data}/embeddings.txt"],
            "finetune": ["finetune", "--out-dir", "finetune", "--seed", s,
                         "--checkpoint", "train/head.json",
                         "--registry", f"{data}/registry.json",
                         "--embeddings", f"{data}/embeddings.txt",
                         "--base-data", f"{data}/base_train.jsonl",
                         "--novel-data", f"{data}/novel_train.jsonl",
                         "--k", str(self.k), "--lr", "0.005"],
            "eval": ["eval", "--out-dir", "eval", "--checkpoint", "finetune/head.json",
                     "--data", f"{data}/test.jsonl"],
            "export": ["export", "correlate", "--out-dir", "export",
                       "--checkpoint", "finetune/head.json"],
            "closure": ["closure", "--edges", str(self.tsv), "--roots", ",".join(roots),
                        "--class-name", "held_out", "--out", "closure.txt"],
        }[cmd]

    def run(self, seeds, d: Path, traced: bool, unit: int) -> Repeat:
        seed, roots = seeds
        rep = Repeat()
        d.mkdir(parents=True, exist_ok=True)
        env = child_env()
        env["PERFBENCH_UNIT"] = str(unit)
        broken = None
        for cmd in self.commands:
            rep.attempted += 1
            if broken is not None and cmd != "closure":  # closure needs no chain output
                rep.failed += 1
                rep.results.append(f"FAILED {cmd}: skipped after {broken} failed")
                continue
            argv = self._argv(traced, d / f"spans-{cmd}.npz",
                              self._command_args(cmd, seed, roots))
            rc, wall, rss = run_child(argv, d, d / cmd, env)
            rep.command_walls[cmd] = wall
            rep.peak_rss_mb = max(rep.peak_rss_mb, rss)
            try:
                if rc != 0:
                    err = (d / f"{cmd}.err").read_text(errors="replace")[-2000:]
                    raise RuntimeError(f"exit code {rc}: {err}")
                self._check(cmd, d, roots, rep)
            except (RuntimeError, ValueError, OSError, KeyError) as exc:
                rep.attempted -= 1  # `fail` counts the attempt itself
                rep.fail(f"cli {cmd} seed={seed}", exc)
                broken = cmd
                continue
            if cmd == "synth":
                registry = json.loads((d / "synth" / "registry.json").read_text())
                (d / "base_registry.json").write_text(
                    json.dumps({"base": registry["base"], "novel": []})
                )
        chain = [c for c in self.commands if c != "closure"]
        rep.wall = sum(rep.command_walls.get(c, 0.0) for c in chain)
        rep.cell_walls = [sum(rep.command_walls.get(c, 0.0)
                              for c in ("train", "finetune", "eval"))]
        return rep

    def _check(self, cmd: str, d: Path, roots, rep: Repeat):
        """Check one command's outputs and add its result lines to ``rep``."""
        if cmd == "closure":
            text = (d / "closure.txt").read_text(encoding="utf-8")
            name, _, ids = text.rstrip("\n").partition(": ")
            expected = _closure(self.children, roots)
            if name != "held_out" or ids.split(", ") != expected:
                raise ValueError(f"closure output differs from the generated tree "
                                 f"({len(ids.split(', '))} ids, expected {len(expected)})")
            rep.results.append(f"closure {_sha256(d / 'closure.txt')}")
            return
        out_dir = d / cmd
        meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
        lines = []
        for fname, digest in sorted(meta["outputs"].items()):
            if _sha256(out_dir / fname) != digest:
                raise ValueError(f"{cmd}/{fname} does not match its meta.json hash")
            lines.append(f"{cmd}/{fname} {digest}")
        if cmd == "eval":
            metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
            novel, base = metrics["novel_accuracy"], metrics["base_accuracy"]
            if not (_fraction_ok(novel) and _fraction_ok(base)):
                raise ValueError(f"eval accuracies out of range: novel={novel} base={base}")
            rep.novel.append(novel)
            rep.base.append(base)
        rep.results.extend(lines)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


WORKLOADS = {"sweep": Sweep, "paired_k1": PairedK1, "cli": Cli}
