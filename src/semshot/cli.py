"""Command-line interface.

Every option has a dotted config key derived from its flag (``--graph-mode``
is ``graph.mode``).  Values resolve as defaults < ``--config`` file < explicit
flags; unknown file keys are an error.  Each run writes ``meta.json`` holding
the command, the fully-resolved config and output hashes, and a ``meta.json``
is itself accepted by ``--config``, which reproduces the run byte for byte.
"""

import argparse
import hashlib
import os
import shutil
import sys
import tempfile
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import relation as rel
from .diffmath import grad_check
from .embeddings import (
    DEFAULT_EMBED_DIM,
    NONNEG,
    NONNEG_INT,
    POSITIVE,
    POSITIVE_INT,
    UNIT,
    UNIT_BELOW_1,
    ClassRegistry,
    Interval,
    load_embedding_file,
    load_json,
    load_registry,
    random_embeddings,
    save_csv,
    save_embedding_file,
    save_json,
    save_registry,
)
from .evaluation import evaluate, save_sweep_csv
from .head import (
    HeadConfig,
    HeadMode,
    added_classes,
    attach_heuristic_graph,
    base_phase_config,
    build_head,
    class_rows,
    decouple_trunks,
    expand_classes,
    forward_pass,
    load_head,
    relation_graph,
    save_head,
    switch_graph_mode,
)
from .pipeline import (CLUSTER_SPREAD, PipelineConfig, bundled_benchmark,
                       clustered_embeddings, shot_sweep)
from .records import load_records, read_jsonl, save_records
from .relation import cooccurrence_graph, correlation_map
from .synthgen import SynthConfig, generate
from .training import (
    DEFAULT_BASE_LR,
    DEFAULT_FINETUNE_LR,
    DEFAULT_MOMENTUM,
    DEFAULT_SHOT_LIST,
    DEFAULT_WEIGHT_DECAY,
    TrainConfig,
    base_train,
    finetune,
    finetune_config,
    sample_episode,
    save_trace_csv,
)
from .wordnet import (
    bundled_voc_manifest,
    emit_removal_list,
    load_hypernym_edges,
    manifest_from_graph,
)


@dataclass
class Opt:
    flag: str
    default: object = None
    type: object = str  # str, or the Interval a number must lie in
    help: str = ""
    choices: tuple | None = None
    required: bool = False
    bool_flag: bool = False
    positional: bool = False

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")

    @property
    def key(self) -> str:
        return self.flag.lstrip("-").replace("-", ".")


_HEAD_MODES = tuple(m.value for m in HeadMode)
_GRAPH_MODES = tuple(m.value for m in rel.GraphMode)

_CONFIG_OPT = Opt("--config", help="JSON config file (flat dotted keys or a meta.json)")


def _build_subparser(sub, name: str, help_text: str, opts) -> None:
    p = sub.add_parser(name, help=help_text, description=help_text)
    for opt in [_CONFIG_OPT] + opts:
        if opt.positional:
            p.add_argument(opt.dest, choices=opt.choices, help=opt.help)
        elif opt.bool_flag:
            p.add_argument(
                opt.flag, dest=opt.dest, action=argparse.BooleanOptionalAction,
                default=argparse.SUPPRESS, help=opt.help,
            )
        else:
            bound = opt.type if isinstance(opt.type, Interval) else None
            note = bound and f"{bound.kind.__name__} in {bound}"
            p.add_argument(
                opt.flag, dest=opt.dest, type=bound.kind if bound else str, choices=opt.choices,
                default=argparse.SUPPRESS, help="; ".join(filter(None, (opt.help, note))),
            )


def _coerce(opt: Opt, value, where: str):
    """``value`` as ``opt`` takes it; a ValueError names ``where`` it came from."""
    if value is None:
        return None
    if opt.bool_flag:
        if not isinstance(value, bool):
            raise ValueError(f"{where} expects true/false")
        return value
    if isinstance(opt.type, Interval):
        kind = opt.type.kind
        if isinstance(value, bool) or not isinstance(value, (int, float)) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError(f"{where} expects {'an integer' if kind is int else 'a number'}")
        return opt.type.check(kind(value), where)
    value = str(value)
    if opt.choices is not None and value not in opt.choices:
        raise ValueError(f"{where} expects one of {list(opt.choices)}, got {value!r}")
    return value


def _resolve(opts, ns: argparse.Namespace) -> dict:
    by_key = {o.key: o for o in opts}
    cfg = {o.key: o.default for o in opts}

    config_path = getattr(ns, "config", None)
    if config_path:
        obj = load_json(config_path)
        if isinstance(obj, dict) and "command" in obj and isinstance(obj.get("config"), dict):
            obj = obj["config"]
        if not isinstance(obj, dict):
            raise ValueError(f"{config_path}: config must be a JSON object")
        unknown = sorted(set(obj) - set(by_key))
        if unknown:
            raise ValueError(f"{config_path}: unknown config keys {unknown}")
        for key, value in obj.items():
            cfg[key] = _coerce(by_key[key], value, f"{config_path}: key {key!r}")

    for opt in opts:
        if hasattr(ns, opt.dest):
            cfg[opt.key] = _coerce(opt, getattr(ns, opt.dest), opt.flag)

    missing = [o.key for o in opts if o.required and cfg[o.key] is None]
    if missing:
        raise ValueError(f"missing required options: {sorted(missing)}")
    return cfg


class _Run:
    """The one owner of a command's files.  ``path(name)`` stages an output in a
    hidden directory in the deepest existing directory on the way to the out
    dir, so every move stays on one file system; staging nothing publishes nothing."""

    def __init__(self, command: str, cfg: dict):
        self.command, self.cfg, self.names, self.stage = command, cfg, [], None
        self.extra = None    # the "run" block of meta.json
        self.summary = None  # a stdout line printed once the files are in place

    def path(self, name: str) -> Path:
        if self.stage is None:
            out = Path(self.cfg["out.dir"])
            root = next(p for p in (out, *out.parents) if p.is_dir())
            self.stage = Path(tempfile.mkdtemp(dir=root, prefix=f".{out.name}."))
        self.names.append(name)
        return self.stage / name

    def execute(self, fn) -> int:
        """Run ``fn(cfg, run)``; then, whatever its exit code, hash the files it
        staged into ``meta.json`` and move each into the out dir, ``meta.json``
        last.  On any error the staging directory goes, and so do the directories
        made for the out dir, with what was moved in; the error propagates."""
        made = None  # the topmost directory created on the way to the out dir
        try:
            code = fn(self.cfg, self)
            if self.stage is not None:
                meta = {"command": self.command, "config": self.cfg, "outputs": {
                    n: hashlib.sha256((self.stage / n).read_bytes()).hexdigest()
                    for n in self.names}}
                if self.extra:
                    meta["run"] = self.extra
                save_json(self.stage / "meta.json", meta)
                out = Path(self.cfg["out.dir"])
                made = next((p for p in (*reversed(out.parents), out) if not p.exists()), None)
                out.mkdir(parents=True, exist_ok=True)
                for name in [*self.names, "meta.json"]:
                    os.replace(self.stage / name, out / name)
        except BaseException:
            if made is not None:
                shutil.rmtree(made, ignore_errors=True)
            raise
        finally:
            if self.stage is not None:
                shutil.rmtree(self.stage, ignore_errors=True)
        if self.summary:
            print(self.summary)
        return code


def _unread(cfg: dict, opts, keys, why: str) -> None:
    """Refuse the options ``keys`` of ``opts`` that ``cfg`` sets off their
    defaults, naming each flag: the path ``why`` describes does not read
    them.  A default passes, so a ``meta.json``, which holds every key, replays."""
    flags = [o.flag for o in opts if o.key in keys and cfg.get(o.key) != o.default]
    if flags:
        listed = " and ".join(filter(None, (", ".join(flags[:-1]), flags[-1])))
        raise ValueError(f"{why}; {listed} cannot take effect")


def _load_embeddings(cfg: dict, registry: ClassRegistry, dim: int):
    """``registry``'s ``dim``-d random rows, or a file's; ``--embed-seed``
    seeds the rows drawn: all of them, or a file's background row."""
    if cfg["embeddings"] == "random":
        return random_embeddings(registry, dim, cfg["embed.seed"])
    return load_embedding_file(cfg["embeddings"], registry, cfg["embed.seed"])


def _load_label_sets(path, registry) -> list:
    """The label lists of a JSONL ``--cooccurrence`` file, each name a class of ``registry``."""
    sets = []
    for lineno, obj in read_jsonl(path):
        labels = obj.get("labels") if isinstance(obj, dict) else None
        if not isinstance(labels, list) or not all(isinstance(n, str) for n in labels):
            raise ValueError(f'{path}:{lineno}: expected {{"labels": [class names]}}')
        for name in labels:
            try:
                registry.index(name)
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: {exc.args[0]}") from None
        sets.append(labels)
    return sets


def _cooccurrence(cfg: dict, registry, graph_mode, carried: bool = False):
    """The graph of ``--cooccurrence`` over ``registry`` for a head of
    ``graph_mode`` (``carried``: one that already holds its graph), or None
    when the head takes none; the flag fails, naming itself, on any other head."""
    takes = rel.GRAPH in rel.STAGES[graph_mode].frozen
    if not cfg.get("cooccurrence"):
        if takes and not carried:
            raise ValueError("heuristic graph mode needs --cooccurrence label sets")
        return None
    if not takes:
        raise ValueError(f"--cooccurrence needs graph mode heuristic, the head's is "
                         f"{graph_mode.value}")
    if carried:
        raise ValueError("--cooccurrence cannot replace the heuristic graph the head carries")
    return cooccurrence_graph(_load_label_sets(cfg["cooccurrence"], registry), registry)


def _parse_int_list(text: str, what: str) -> list:
    try:
        values = [int(v) for v in str(text).split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list, got {text!r}") from None
    if not values:
        raise ValueError(f"{what} is empty")
    return [POSITIVE_INT.check(v, what) for v in values]


def _write_matrix_csv(path: Path, matrix: np.ndarray, row_names, col_names) -> None:
    save_csv(path, ["", *col_names], ([name, *row] for name, row in zip(row_names, matrix)))


# ---------------------------------------------------------------------------
# train

_EMBED_OPTS = [
    Opt("--embeddings", default="random",
        help="word2vec text file, or 'random' for seeded random rows"),
    Opt("--embed-seed", default=0, type=NONNEG_INT, help="seed of the rows semshot draws"),
]

_OPTIM_OPTS = [
    Opt("--momentum", default=DEFAULT_MOMENTUM, type=UNIT_BELOW_1),
    Opt("--weight-decay", default=DEFAULT_WEIGHT_DECAY, type=NONNEG),
    Opt("--batch-size", default=TrainConfig.batch_size, type=POSITIVE_INT),
    Opt("--reg-weight", default=TrainConfig.reg_weight, type=NONNEG,
        help="weight of the regression loss"),
]

TRAIN_OPTS = [
    Opt("--out-dir", required=True),
    Opt("--seed", default=0, type=NONNEG_INT),
    Opt("--data", required=True, help="JSONL feature records for base training"),
    Opt("--registry", required=True, help="class registry JSON"),
    *_EMBED_OPTS,
    Opt("--embed-dim", default=DEFAULT_EMBED_DIM, type=POSITIVE_INT,
        help="dim for random embeddings"),
    Opt("--mode", default=HeadConfig.mode.value, choices=_HEAD_MODES),
    Opt("--graph-mode", choices=_GRAPH_MODES,
        help="relation stage for srr heads (default: dynamic)"),
    Opt("--proj-dim", default=HeadConfig.d, type=POSITIVE_INT, help="trunk output dim d"),
    Opt("--reduced-dim", default=HeadConfig.r, type=POSITIVE_INT,
        help="attention reduced dim r"),
    Opt("--lr", default=DEFAULT_BASE_LR, type=POSITIVE),
    *_OPTIM_OPTS,
    Opt("--steps", default=TrainConfig.steps, type=POSITIVE_INT),
    Opt("--decouple", default=HeadConfig.decoupled, bool_flag=True,
        help="separate classifier and regression trunks"),
    Opt("--cooccurrence", help="JSONL label sets for the heuristic graph"),
]


def _optim_args(cfg: dict) -> dict:
    """The TrainConfig values that ``train`` and ``finetune`` share."""
    return dict(lr=cfg["lr"], momentum=cfg["momentum"], weight_decay=cfg["weight.decay"],
                steps=cfg["steps"], batch_size=cfg["batch.size"],
                reg_weight=cfg["reg.weight"], seed=cfg["seed"])


def cmd_train(cfg: dict, run: _Run) -> int:
    """Base-train the config's base-phase head (`base_phase_config`), then
    switch an srr config's relation stage on at its init, as the pipeline does."""
    registry = load_registry(cfg["registry"])
    data = _pool_records(cfg, "data", registry, novel=False)
    head_cfg = HeadConfig(mode=cfg["mode"], graph_mode=cfg.get("graph.mode"),
                          d_in=data.feat.shape[0], d=cfg["proj.dim"], r=cfg["reduced.dim"],
                          decoupled=cfg["decouple"], seed=cfg["seed"])
    graph = _cooccurrence(cfg, registry, head_cfg.graph_mode)
    we = None
    if head_cfg.mode is HeadMode.BASELINE:
        _unread(cfg, TRAIN_OPTS, ("embeddings", "embed.seed", "embed.dim"),
                "a baseline head has no embedding rows")
    else:
        if cfg["embeddings"] != "random":
            _unread(cfg, TRAIN_OPTS, ("embed.dim",), "an embedding file fixes the dimension")
        we = _load_embeddings(cfg, registry, cfg["embed.dim"])
    head = build_head(base_phase_config(head_cfg), registry, we)

    result = base_train(head, data, TrainConfig(**_optim_args(cfg)))
    trained = head.trainable_names()
    switch_graph_mode(head, head_cfg.graph_mode, seed=cfg["seed"])
    if graph is not None:
        attach_heuristic_graph(head, graph)
    save_head(head, run.path("head.json"))
    save_trace_csv(run.path("trace.csv"), result.trace)
    run.extra = {"param_hash": head.param_hash(), "final_loss": result.final_loss,
                 "trainable": trained}
    return 0


# ---------------------------------------------------------------------------
# finetune

FINETUNE_OPTS = [
    Opt("--out-dir", required=True),
    Opt("--seed", default=0, type=NONNEG_INT),
    Opt("--checkpoint", required=True, help="head.json from a train run"),
    Opt("--registry", help="expanded registry JSON (default: keep the checkpoint's)"),
    *_EMBED_OPTS,
    Opt("--base-data", required=True, help="JSONL base records to balance against"),
    Opt("--novel-data", required=True, help="JSONL novel records to sample shots from"),
    Opt("--k", default=1, type=POSITIVE_INT, help="shots per novel class"),
    Opt("--base-shots", type=NONNEG_INT, help="records per base class (default: k)"),
    Opt("--steps", type=POSITIVE_INT, help="override the step rule"),
    Opt("--lr", default=DEFAULT_FINETUNE_LR, type=POSITIVE),
    *_OPTIM_OPTS,
    Opt("--trainable", help="comma list of param groups, '' for none (default: P,relation,b "
                            "for srr, P,b for ssp, W,b for baseline)"),
    Opt("--graph-mode", choices=_GRAPH_MODES,
        help="switch the relation stage before fine-tuning"),
    Opt("--cooccurrence", help="JSONL label sets for the heuristic graph"),
    Opt("--decouple", default=False, bool_flag=True),
]


def _trainable_groups(cfg: dict, head) -> tuple | None:
    """The ``--trainable`` groups (None: the phase default), each checked
    against ``head``'s groups."""
    if cfg.get("trainable") is None:
        return None
    names = tuple(g.strip() for g in cfg["trainable"].split(",") if g.strip())
    unknown = set(names) - set(head.param_groups())
    if unknown:
        raise ValueError(f"unknown groups in --trainable: {sorted(unknown)}")
    return names


def _pool_records(cfg: dict, key: str, registry, novel: bool):
    """The records of the file option ``key``, novel (``novel``) or not; the
    first record of the other pool fails, naming the flag, the file and its line."""
    path = cfg[key]
    data = load_records(path, registry)
    stray = np.flatnonzero(np.isin(data.labels, registry.novel) != novel)
    if stray.size:
        rid, label = data.ids[stray[0]], data.labels[stray[0]]
        lineno = next(n for n, obj in read_jsonl(path) if obj["id"] == rid)
        raise ValueError(f"--{key.replace('.', '-')} {path}:{lineno}: class {label!r} is "
                         f"{'not ' if novel else ''}a novel class")
    return data


def cmd_finetune(cfg: dict, run: _Run) -> int:
    head = load_head(cfg["checkpoint"])
    if cfg.get("graph.mode"):
        switch_graph_mode(head, cfg["graph.mode"], seed=cfg["seed"])

    # only a head with embedding rows that gains classes reads embeddings
    full = load_registry(cfg["registry"]) if cfg.get("registry") else head.registry
    added_classes(head.registry, full, f"--registry {cfg.get('registry')}")
    we_full = None
    if full.n == head.registry.n:
        _unread(cfg, FINETUNE_OPTS, ("embeddings", "embed.seed"), "the head gains no class")
    elif "we" not in head.params:
        _unread(cfg, FINETUNE_OPTS, ("embeddings", "embed.seed"),
                "a baseline head has no embedding rows")
    else:
        if cfg["embeddings"] != "random":
            _unread(cfg, FINETUNE_OPTS, ("embed.seed",),
                    "expansion keeps the checkpoint's background row, not the file's")
        we_full = _load_embeddings(cfg, full, head.params["we"].value.shape[1])
    expand_classes(head, full, we_full, seed=cfg["seed"])
    graph = _cooccurrence(cfg, head.registry, head.cfg.graph_mode, rel.GRAPH in head.params)
    if graph is not None:
        attach_heuristic_graph(head, graph)

    if cfg["decouple"] and not head.cfg.decoupled:
        decouple_trunks(head)
    # the head's groups are final here; check the flags before any data loads
    trainable = _trainable_groups(cfg, head)

    base_data = _pool_records(cfg, "base.data", head.registry, novel=False)
    novel_data = _pool_records(cfg, "novel.data", head.registry, novel=True)
    episode = sample_episode(base_data, novel_data, cfg["k"], cfg.get("base.shots"), cfg["seed"],
                             names=("--k", "--base-shots"))
    result = finetune(head, episode, finetune_config(**_optim_args(cfg), trainable=trainable))
    save_head(head, run.path("head.json"))
    save_trace_csv(run.path("trace.csv"), result.trace)
    save_json(run.path("episode.json"), {"k": episode.k, "base_shots": episode.base_shots,
                                         "ids": episode.ids()})
    run.extra = {"frozen_hash": result.frozen_hash,
                 "trainable": head.trainable_names(), "steps": len(result.trace)}
    return 0


# ---------------------------------------------------------------------------
# sweep

SWEEP_OPTS = [
    Opt("--out-dir", required=True),
    Opt("--seed", default=0, type=NONNEG_INT, help="first seed of the batch"),
    Opt("--mode", default=PipelineConfig.mode.value, choices=_HEAD_MODES),
    Opt("--graph-mode", choices=_GRAPH_MODES),
    Opt("--alpha", default=PipelineConfig.alpha, type=UNIT,
        help="embedding-to-feature coupling of the bundled generator"),
    Opt("--shots", default=",".join(map(str, DEFAULT_SHOT_LIST))),
    Opt("--seeds", default=20, type=POSITIVE_INT, help="number of seeds"),
    Opt("--base-classes", default=PipelineConfig.n_base, type=POSITIVE_INT),
    Opt("--novel-classes", default=PipelineConfig.n_novel, type=POSITIVE_INT),
]


def cmd_sweep(cfg: dict, run: _Run) -> int:
    HeadConfig(mode=cfg["mode"], graph_mode=cfg.get("graph.mode"))  # reject a bad pair
    shots = _parse_int_list(cfg["shots"], "--shots")
    pcfg = bundled_benchmark(
        mode=cfg["mode"], graph_mode=cfg.get("graph.mode"), alpha=cfg["alpha"],
        n_base=cfg["base.classes"], n_novel=cfg["novel.classes"],
    )
    seeds = [cfg["seed"] + i for i in range(cfg["seeds"])]
    result = shot_sweep(pcfg, shots, seeds)
    save_sweep_csv(run.path("sweep.csv"), result.rows)
    save_json(run.path("summary.json"), result.summary())
    return 0


# ---------------------------------------------------------------------------
# eval

EVAL_OPTS = [
    Opt("--out-dir", required=True),
    Opt("--checkpoint", required=True),
    Opt("--data", required=True, help="JSONL records to score"),
]


def cmd_eval(cfg: dict, run: _Run) -> int:
    head = load_head(cfg["checkpoint"])
    report = evaluate(head, load_records(cfg["data"], head.registry))
    save_json(run.path("metrics.json"), report.to_json())
    _write_matrix_csv(
        run.path("confusion.csv"), report.confusion.astype(float),
        report.class_names, report.class_names,
    )
    run.summary = (f"overall {report.overall_accuracy:.4f}  base {report.base_accuracy:.4f}  "
                   f"novel {report.novel_accuracy:.4f}  ({report.record_count} records)")
    return 0


# ---------------------------------------------------------------------------
# gradcheck

GRADCHECK_OPTS = [
    Opt("--out-dir", help="optional; writes gradcheck.json when given"),
    Opt("--seed", default=0, type=NONNEG_INT),
    Opt("--mode", default="all", choices=("all", *_HEAD_MODES)),
    Opt("--eps", default=1e-4, type=POSITIVE),
    Opt("--threshold", default=1e-5, type=POSITIVE),
]


# class counts, embedding, feature and head dims, and batch size of a gradient
# audit's head; `gradcheck` audits one instance, criterion 1's
GradcheckShape = namedtuple("GradcheckShape", "n_base n_novel d_e d_in d r batch")
GRADCHECK_SHAPE = GradcheckShape(n_base=3, n_novel=2, d_e=16, d_in=10, d=8, r=4, batch=3)


def run_gradcheck(mode: str, shape: GradcheckShape, seed: int, eps: float):
    """Build a ``shape`` head, randomize every parameter but the frozen embedding
    rows, and compare analytic gradients of the full loss against central differences."""
    registry = ClassRegistry.numbered(shape.n_base, shape.n_novel)
    we = random_embeddings(registry, shape.d_e, seed)
    head = build_head(HeadConfig(mode=mode, d_in=shape.d_in, d=shape.d, r=shape.r, seed=seed),
                      registry, we)

    # gradients must be live everywhere: move every param (t_l included) off
    # its init point, and keep relu pre-activations away from the kink
    rng = np.random.default_rng([seed, 0x6C])
    params = [p for p in head.params.values() if p.trainable]
    for p in params:
        p.value[:] = rng.normal(0.0, 0.3, p.value.shape)

    x = rng.standard_normal((shape.d_in, shape.batch))
    labels = rng.integers(0, registry.n, size=shape.batch)
    regs = rng.standard_normal((4, shape.batch))

    def loss_fn():
        return forward_pass(head, x, labels=labels, reg_targets=regs, reg_weight=0.5).loss

    return grad_check(loss_fn, params, eps=eps)


def cmd_gradcheck(cfg: dict, run: _Run) -> int:
    modes = _HEAD_MODES if cfg["mode"] == "all" else (cfg["mode"],)
    threshold = cfg["threshold"]
    results = {}
    for mode in modes:
        report = run_gradcheck(mode, GRADCHECK_SHAPE, cfg["seed"], cfg["eps"])
        ok = report.passed(threshold)
        results[mode] = {
            "max_rel_err": report.max_rel_err,
            "passed": ok,
            "params": {e.name: e.max_rel_err for e in report.entries},
        }
        print(f"[{mode}]")
        print(report.format_table())
        print(f"{mode}: max rel err {report.max_rel_err:.3e} "
              f"{'PASS' if ok else 'FAIL'} (threshold {threshold:g})")
    if cfg.get("out.dir"):
        save_json(run.path("gradcheck.json"), results)
    return 0 if all(r["passed"] for r in results.values()) else 1


# ---------------------------------------------------------------------------
# export

EXPORT_OPTS = [
    Opt("kind", positional=True, choices=("graph", "correlate"),
        help="what to export from the checkpoint"),
    Opt("--out-dir", required=True),
    Opt("--checkpoint", required=True),
]


def cmd_export(cfg: dict, run: _Run) -> int:
    head = load_head(cfg["checkpoint"])
    names = head.registry.names

    if cfg["kind"] == "graph":
        _write_matrix_csv(run.path("graph.csv"), relation_graph(head), names, names)
        return 0

    if "we" not in head.params:
        raise ValueError("baseline heads have no embedding rows to correlate")
    cm = correlation_map(head.params["we"].value, class_rows(head), head.registry)
    base = list(cm.base_names)
    novel = list(cm.novel_names)
    for name, matrix in (("before", cm.before), ("after", cm.after), ("diff", cm.difference)):
        _write_matrix_csv(run.path(f"correlate_{name}.csv"), matrix, novel, base)
    return 0


# ---------------------------------------------------------------------------
# closure

CLOSURE_OPTS = [
    Opt("--edges", help="TSV hypernym<TAB>hyponym edge file"),
    Opt("--roots", help="comma list of root synset ids"),
    Opt("--class-name", default="roots", help="label for the computed closure"),
    Opt("--golden", default=False, bool_flag=True,
        help="emit the bundled 11-class removal manifest"),
    Opt("--format", default="text", choices=("text", "json")),
    Opt("--out", help="output file (default: stdout)"),
]


def cmd_closure(cfg: dict, run: _Run) -> int:
    if cfg["golden"]:
        _unread(cfg, CLOSURE_OPTS, ("edges", "roots", "class.name"),
                "--golden emits the bundled manifest")
        manifest = bundled_voc_manifest()
    else:
        if cfg.get("edges") is None or cfg.get("roots") is None:
            raise ValueError("closure needs --edges and --roots (or --golden)")
        roots = [r.strip() for r in cfg["roots"].split(",") if r.strip()]
        if not roots:
            raise ValueError(f"--roots holds no synset id, got {cfg['roots']!r}")
        graph = load_hypernym_edges(cfg["edges"])
        if (missing := next((r for r in roots if r not in graph.nodes), None)) is not None:
            raise ValueError(f"--roots {missing!r} is not a node of --edges {cfg['edges']}")
        if graph.cyclic:
            print("warning: hypernym graph contains a cycle; closure still terminates",
                  file=sys.stderr)
        manifest = manifest_from_graph(
            graph, {cfg["class.name"]: roots}, provenance=f"computed:{cfg['edges']}"
        )
    text = emit_removal_list(manifest, cfg["format"])
    if cfg.get("out"):
        Path(cfg["out"]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# synth

SYNTH_OPTS = [
    Opt("--out-dir", required=True),
    Opt("--seed", default=0, type=NONNEG_INT),
    Opt("--alpha", default=SynthConfig.alpha, type=UNIT),
    Opt("--sigma", type=NONNEG, help="feature noise (default: margin rule)"),
    Opt("--margin-scale", default=SynthConfig.margin_scale, type=NONNEG),
    Opt("--base-classes", default=PipelineConfig.n_base, type=POSITIVE_INT),
    Opt("--novel-classes", default=PipelineConfig.n_novel, type=NONNEG_INT),
    Opt("--embed-dim", default=PipelineConfig.d_e, type=POSITIVE_INT),
    Opt("--feat-dim", default=SynthConfig.d_in, type=POSITIVE_INT),
    Opt("--train-per-class", default=SynthConfig.train_per_class, type=POSITIVE_INT),
    Opt("--test-per-class", default=SynthConfig.test_per_class, type=POSITIVE_INT),
    Opt("--embeddings", default="clustered", choices=("clustered", "random")),
    Opt("--clusters", default=PipelineConfig.n_clusters, type=POSITIVE_INT),
    Opt("--spread", default=CLUSTER_SPREAD, type=NONNEG),
]


def cmd_synth(cfg: dict, run: _Run) -> int:
    # generate derives the noise level from the margin between classes
    if cfg.get("sigma") is None and cfg["base.classes"] + cfg["novel.classes"] == 1:
        raise ValueError("a single class has no margin to derive a noise level from; "
                         "set --sigma")
    if cfg["embeddings"] == "random":
        _unread(cfg, SYNTH_OPTS, ("clusters", "spread"), "--embeddings random draws no clusters")
    if cfg.get("sigma") is not None:
        _unread(cfg, SYNTH_OPTS, ("margin.scale",), "--sigma sets the noise level")
    registry = ClassRegistry.numbered(cfg["base.classes"], cfg["novel.classes"])
    if cfg["embeddings"] == "clustered":
        we = clustered_embeddings(
            registry, cfg["embed.dim"], cfg["clusters"], cfg["spread"], cfg["seed"]
        )
    else:
        we = random_embeddings(registry, cfg["embed.dim"], cfg["seed"])
    ds = generate(
        we, registry,
        SynthConfig(
            d_in=cfg["feat.dim"], train_per_class=cfg["train.per.class"],
            test_per_class=cfg["test.per.class"], alpha=cfg["alpha"],
            noise_std=cfg.get("sigma"), margin_scale=cfg["margin.scale"],
            seed=cfg["seed"],
        ),
    )
    save_registry(registry, run.path("registry.json"))
    class_names = registry.base + registry.novel
    save_embedding_file(run.path("embeddings.txt"), class_names, we[: len(class_names)])
    save_records(run.path("base_train.jsonl"), ds.train.with_labels(registry.base))
    save_records(run.path("novel_train.jsonl"), ds.train.with_labels(registry.novel))
    save_records(run.path("test.jsonl"), ds.test)
    run.extra = {"sigma": ds.sigma, "min_margin": ds.min_margin}
    return 0


# ---------------------------------------------------------------------------
# entry

_COMMANDS = {
    "train": ("base-train a head on base-class records", TRAIN_OPTS, cmd_train),
    "finetune": ("expand with novel classes and fine-tune on a k-shot episode",
                 FINETUNE_OPTS, cmd_finetune),
    "sweep": ("run the bundled benchmark over shots and seeds", SWEEP_OPTS, cmd_sweep),
    "eval": ("score a checkpoint on labeled records", EVAL_OPTS, cmd_eval),
    "gradcheck": ("finite-difference audit of analytic gradients",
                  GRADCHECK_OPTS, cmd_gradcheck),
    "export": ("dump the relation graph or embedding correlation maps",
               EXPORT_OPTS, cmd_export),
    "closure": ("hyponym closure and removal manifests", CLOSURE_OPTS, cmd_closure),
    "synth": ("generate a synthetic feature corpus", SYNTH_OPTS, cmd_synth),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, its subcommands' too, whose errors raise, so a flag
    it cannot parse fails like any other bad input."""

    def error(self, message):
        raise ValueError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="semshot",
        description="few-shot classification heads over precomputed features",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, opts, _) in _COMMANDS.items():
        _build_subparser(sub, name, help_text, opts)
    try:
        try:
            ns = parser.parse_args(argv)
        except SystemExit as exc:  # --help printed the usage
            return int(exc.code or 0)
        _, opts, fn = _COMMANDS[ns.command]
        return _Run(ns.command, _resolve(opts, ns)).execute(fn)
    except (ValueError, KeyError, OSError, FloatingPointError) as exc:
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
