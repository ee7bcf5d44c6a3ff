"""Command-line interface.

Every option has a dotted config key derived from its flag (``--graph-mode``
is ``graph.mode``).  Values resolve as defaults < ``--config`` file < explicit
flags; unknown file keys are an error.  Each run writes ``meta.json`` holding
the command, the fully-resolved config and output hashes, and a ``meta.json``
is itself accepted by ``--config``, which reproduces the run byte for byte.
"""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import relation as rel
from .diffmath import grad_check
from .embeddings import (
    DEFAULT_EMBED_DIM,
    ClassRegistry,
    load_embedding_file,
    load_json,
    load_registry,
    random_embeddings,
    save_embedding_file,
    save_json,
    save_registry,
)
from .evaluation import evaluate, save_sweep_csv
from .head import (
    HeadConfig,
    HeadMode,
    attach_heuristic_graph,
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
from .pipeline import PipelineConfig, bundled_benchmark, clustered_embeddings, shot_sweep
from .records import load_records, save_records
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
    default_finetune_groups,
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
    type: object = str
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
            p.add_argument(
                opt.flag, dest=opt.dest, type=opt.type, choices=opt.choices,
                default=argparse.SUPPRESS, help=opt.help,
            )


def _coerce(opt: Opt, value, source: str):
    if value is None:
        return None
    if opt.bool_flag:
        if not isinstance(value, bool):
            raise ValueError(f"{source}: key {opt.key!r} expects true/false")
        return value
    if opt.type is int:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError(f"{source}: key {opt.key!r} expects an integer")
        value = int(value)
    elif opt.type is float:
        value = float(value)
    else:
        value = str(value)
    if opt.choices is not None and value not in opt.choices:
        raise ValueError(
            f"{source}: key {opt.key!r} expects one of {list(opt.choices)}, got {value!r}"
        )
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
            cfg[key] = _coerce(by_key[key], value, config_path)

    for opt in opts:
        if hasattr(ns, opt.dest):
            cfg[opt.key] = getattr(ns, opt.dest)

    missing = [o.key for o in opts if o.required and cfg[o.key] is None]
    if missing:
        raise ValueError(f"missing required options: {sorted(missing)}")
    return cfg


def _write_meta(out_dir: Path, command: str, cfg: dict, written, extra=None) -> None:
    meta = {
        "command": command,
        "config": cfg,
        "outputs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written},
    }
    if extra:
        meta["run"] = extra
    save_json(out_dir / "meta.json", meta)


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out.dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_embeddings(cfg: dict, registry: ClassRegistry):
    source = cfg["embeddings"]
    if source == "random":
        return random_embeddings(registry, cfg["embed.dim"], cfg["embed.seed"])
    return load_embedding_file(source, registry, cfg["background.seed"])


def _load_label_sets(path) -> list:
    sets = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            labels = obj.get("labels") if isinstance(obj, dict) else None
            if not isinstance(labels, list) or not all(isinstance(n, str) for n in labels):
                raise ValueError(f'{path}:{lineno}: expected {{"labels": [class names]}}')
            sets.append(labels)
    return sets


def _attach_cooccurrence(cfg: dict, head) -> None:
    """Give a heuristic head without a graph the one of ``--cooccurrence``."""
    if head.cfg.graph_mode is not rel.GraphMode.HEURISTIC or head.g_heur is not None:
        return
    if not cfg.get("cooccurrence"):
        raise ValueError("heuristic graph mode needs --cooccurrence label sets")
    attach_heuristic_graph(
        head, cooccurrence_graph(_load_label_sets(cfg["cooccurrence"]), head.registry)
    )


def _parse_int_list(text: str, what: str) -> list:
    try:
        values = [int(v) for v in str(text).split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list, got {text!r}") from None
    if not values:
        raise ValueError(f"{what} is empty")
    return values


def _write_matrix_csv(path: Path, matrix: np.ndarray, row_names, col_names) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("," + ",".join(col_names) + "\n")
        for name, row in zip(row_names, matrix):
            fh.write(name + "," + ",".join(f"{v:.9g}" for v in row) + "\n")


# ---------------------------------------------------------------------------
# train

_EMBED_OPTS = [
    Opt("--embeddings", default="random",
        help="word2vec text file, or 'random' for seeded random rows"),
    Opt("--embed-dim", default=DEFAULT_EMBED_DIM, type=int, help="dim for random embeddings"),
    Opt("--embed-seed", default=0, type=int, help="seed for random embeddings"),
    Opt("--background-seed", default=0, type=int, help="seed of the background row"),
]

_OPTIM_OPTS = [
    Opt("--momentum", default=DEFAULT_MOMENTUM, type=float),
    Opt("--weight-decay", default=DEFAULT_WEIGHT_DECAY, type=float),
    Opt("--batch-size", default=TrainConfig.batch_size, type=int),
    Opt("--reg-weight", default=TrainConfig.reg_weight, type=float,
        help="weight of the regression loss"),
]

TRAIN_OPTS = [
    Opt("--out-dir", required=True),
    Opt("--seed", default=0, type=int),
    Opt("--data", required=True, help="JSONL feature records for base training"),
    Opt("--registry", required=True, help="class registry JSON"),
    *_EMBED_OPTS,
    Opt("--mode", default="ssp", choices=("baseline", "ssp", "srr")),
    Opt("--graph-mode", choices=("none", "dynamic", "heuristic", "tt"),
        help="relation stage for srr heads (default: dynamic)"),
    Opt("--proj-dim", default=HeadConfig.d, type=int, help="trunk output dim d"),
    Opt("--reduced-dim", default=HeadConfig.r, type=int, help="attention reduced dim r"),
    Opt("--lr", default=DEFAULT_BASE_LR, type=float),
    *_OPTIM_OPTS,
    Opt("--steps", default=TrainConfig.steps, type=int),
    Opt("--scaled-attention", default=HeadConfig.scaled_attention, bool_flag=True,
        help="divide attention scores by sqrt(r)"),
    Opt("--graph-in-base", default=HeadConfig.graph_in_base, bool_flag=True,
        help="apply the relation stage during base training"),
    Opt("--decouple", default=HeadConfig.decoupled, bool_flag=True,
        help="separate classifier and regression trunks"),
    Opt("--cooccurrence", help="JSONL label sets for the heuristic graph"),
]


def _optim_args(cfg: dict) -> dict:
    """The TrainConfig values that ``train`` and ``finetune`` share."""
    return dict(lr=cfg["lr"], momentum=cfg["momentum"], weight_decay=cfg["weight.decay"],
                steps=cfg["steps"], batch_size=cfg["batch.size"],
                reg_weight=cfg["reg.weight"], seed=cfg["seed"])


def cmd_train(cfg: dict) -> int:
    out = _out_dir(cfg)
    registry = load_registry(cfg["registry"])
    data = load_records(cfg["data"])
    mode = HeadMode(cfg["mode"])
    we = None if mode is HeadMode.BASELINE else _load_embeddings(cfg, registry)
    head = build_head(
        HeadConfig(mode=mode, graph_mode=cfg.get("graph.mode"), d_in=data.feat.shape[0],
                   d=cfg["proj.dim"], r=cfg["reduced.dim"],
                   scaled_attention=cfg["scaled.attention"],
                   graph_in_base=cfg["graph.in.base"], decoupled=cfg["decouple"],
                   seed=cfg["seed"]),
        registry, we,
    )
    _attach_cooccurrence(cfg, head)

    result = base_train(head, data, TrainConfig(**_optim_args(cfg)))
    save_head(head, out / "head.json")
    save_trace_csv(out / "trace.csv", result.trace)
    _write_meta(
        out, "train", cfg, [out / "head.json", out / "trace.csv"],
        extra={"we_hash": result.we_hash, "param_hash": head.param_hash(),
               "final_loss": result.final_loss},
    )
    return 0


# ---------------------------------------------------------------------------
# finetune

FINETUNE_OPTS = [
    Opt("--out-dir", required=True),
    Opt("--seed", default=0, type=int),
    Opt("--checkpoint", required=True, help="head.json from a train run"),
    Opt("--registry", help="expanded registry JSON (default: keep the checkpoint's)"),
    *_EMBED_OPTS,
    Opt("--base-data", required=True, help="JSONL base records to balance against"),
    Opt("--novel-data", required=True, help="JSONL novel records to sample shots from"),
    Opt("--k", default=1, type=int, help="shots per novel class"),
    Opt("--base-shots", type=int, help="records per base class (default: k)"),
    Opt("--steps", type=int, help="override the step rule"),
    Opt("--lr", default=DEFAULT_FINETUNE_LR, type=float),
    *_OPTIM_OPTS,
    Opt("--trainable", help="comma list of param groups (default: P,relation,b for srr, "
                            "P,b for ssp, W,b for baseline)"),
    Opt("--freeze", help="'all', or groups to drop from the trainable set"),
    Opt("--graph-mode", choices=("none", "dynamic", "heuristic", "tt"),
        help="switch the relation stage before fine-tuning"),
    Opt("--cooccurrence", help="JSONL label sets for the heuristic graph"),
    Opt("--decouple", default=False, bool_flag=True),
]


def _trainable_groups(cfg: dict, head) -> tuple | None:
    """The ``--trainable`` groups (None: the phase default) less the
    ``--freeze`` ones, each checked against ``head``'s groups."""
    named = {flag: tuple(g.strip() for g in cfg[flag].split(",") if g.strip())
             for flag in ("trainable", "freeze") if cfg.get(flag) is not None}
    if named.get("freeze") == ("all",):
        return ()
    for flag, names in named.items():
        unknown = set(names) - set(head.param_groups())
        if unknown:
            raise ValueError(f"unknown groups in --{flag}: {sorted(unknown)}")
    if "freeze" not in named:
        return named.get("trainable")
    base = named.get("trainable", default_finetune_groups(head))
    return tuple(g for g in base if g not in named["freeze"])


def cmd_finetune(cfg: dict) -> int:
    out = _out_dir(cfg)
    head = load_head(cfg["checkpoint"])
    if cfg.get("graph.mode"):
        switch_graph_mode(head, cfg["graph.mode"], seed=cfg["seed"])

    if cfg.get("registry"):
        full = load_registry(cfg["registry"])
        # only heads with embedding rows read the embeddings
        we_full = _load_embeddings(cfg, full) if head.we is not None else None
        expand_classes(head, full, we_full, seed=cfg["seed"])
    _attach_cooccurrence(cfg, head)

    if cfg["decouple"] and not head.cfg.decoupled:
        decouple_trunks(head)
    # the head's groups are final here; check the flags before any data loads
    trainable = _trainable_groups(cfg, head)

    base_data = load_records(cfg["base.data"])
    novel_data = load_records(cfg["novel.data"])
    episode = sample_episode(base_data, novel_data, cfg["k"], cfg.get("base.shots"), cfg["seed"])
    result = finetune(head, episode, finetune_config(**_optim_args(cfg), trainable=trainable))
    save_head(head, out / "head.json")
    save_trace_csv(out / "trace.csv", result.trace)
    save_json(out / "episode.json", {"k": episode.k, "base_shots": episode.base_shots,
                                     "ids": episode.ids()})
    _write_meta(
        out, "finetune", cfg,
        [out / "head.json", out / "trace.csv", out / "episode.json"],
        extra={"we_hash": result.we_hash,
               "frozen_hash": result.frozen_hash,
               "trainable": head.trainable_names(),
               "steps": len(result.trace)},
    )
    return 0


# ---------------------------------------------------------------------------
# sweep

SWEEP_OPTS = [
    Opt("--out-dir", required=True),
    Opt("--seed", default=0, type=int, help="first seed of the batch"),
    Opt("--mode", default="srr", choices=("baseline", "ssp", "srr")),
    Opt("--graph-mode", choices=("none", "dynamic", "heuristic", "tt")),
    Opt("--alpha", default=PipelineConfig.alpha, type=float,
        help="embedding-to-feature coupling of the bundled generator"),
    Opt("--shots", default=",".join(map(str, DEFAULT_SHOT_LIST))),
    Opt("--seeds", default=20, type=int, help="number of seeds"),
    Opt("--base-classes", default=PipelineConfig.n_base, type=int),
    Opt("--novel-classes", default=PipelineConfig.n_novel, type=int),
]


def cmd_sweep(cfg: dict) -> int:
    HeadConfig(mode=cfg["mode"], graph_mode=cfg.get("graph.mode"))  # reject a bad pair
    shots = _parse_int_list(cfg["shots"], "--shots")
    out = _out_dir(cfg)
    pcfg = bundled_benchmark(
        mode=cfg["mode"], graph_mode=cfg.get("graph.mode"), alpha=cfg["alpha"],
        n_base=cfg["base.classes"], n_novel=cfg["novel.classes"],
    )
    seeds = [cfg["seed"] + i for i in range(cfg["seeds"])]
    result = shot_sweep(pcfg, shots, seeds)
    save_sweep_csv(out / "sweep.csv", result.rows)
    save_json(out / "summary.json", result.summary())
    _write_meta(out, "sweep", cfg, [out / "sweep.csv", out / "summary.json"])
    return 0


# ---------------------------------------------------------------------------
# eval

EVAL_OPTS = [
    Opt("--out-dir", required=True),
    Opt("--checkpoint", required=True),
    Opt("--data", required=True, help="JSONL records to score"),
]


def cmd_eval(cfg: dict) -> int:
    out = _out_dir(cfg)
    head = load_head(cfg["checkpoint"])
    report = evaluate(head, load_records(cfg["data"]))
    save_json(out / "metrics.json", report.to_json())
    _write_matrix_csv(
        out / "confusion.csv", report.confusion.astype(float),
        report.class_names, report.class_names,
    )
    _write_meta(out, "eval", cfg, [out / "metrics.json", out / "confusion.csv"])
    print(
        f"overall {report.overall_accuracy:.4f}  base {report.base_accuracy:.4f}  "
        f"novel {report.novel_accuracy:.4f}  ({report.record_count} records)"
    )
    return 0


# ---------------------------------------------------------------------------
# gradcheck

GRADCHECK_OPTS = [
    Opt("--out-dir", help="optional; writes gradcheck.json when given"),
    Opt("--seed", default=0, type=int),
    Opt("--mode", default="all", choices=("all", "baseline", "ssp", "srr")),
    Opt("--base-classes", default=3, type=int),
    Opt("--novel-classes", default=2, type=int),
    Opt("--embed-dim", default=16, type=int),
    Opt("--proj-dim", default=8, type=int),
    Opt("--reduced-dim", default=4, type=int),
    Opt("--feat-dim", default=10, type=int),
    Opt("--batch", default=3, type=int),
    Opt("--eps", default=1e-4, type=float),
    Opt("--threshold", default=1e-5, type=float),
]


def run_gradcheck(mode: str, cfg: dict):
    """Build a small head, randomize every parameter, and compare analytic
    gradients of the full loss against central differences."""
    registry = ClassRegistry.numbered(cfg["base.classes"], cfg["novel.classes"])
    we = random_embeddings(registry, cfg["embed.dim"], cfg["seed"])
    head_cfg = HeadConfig(
        mode=mode,
        d_in=cfg["feat.dim"], d=cfg["proj.dim"], r=cfg["reduced.dim"],
        seed=cfg["seed"],
    )
    head = build_head(head_cfg, registry, we)

    # gradients must be live everywhere: move every param (t_l included) off
    # its init point, and keep relu pre-activations away from the kink
    rng = np.random.default_rng([cfg["seed"], 0x6C])
    for p in head.param_list():
        p.value[:] = rng.normal(0.0, 0.3, p.value.shape)
        p.trainable = True

    x = rng.standard_normal((cfg["feat.dim"], cfg["batch"]))
    labels = rng.integers(0, registry.n, size=cfg["batch"])
    regs = rng.standard_normal((4, cfg["batch"]))

    def loss_fn():
        return forward_pass(head, x, labels=labels, reg_targets=regs, reg_weight=0.5).loss

    return grad_check(loss_fn, head.param_list(), eps=cfg["eps"])


def cmd_gradcheck(cfg: dict) -> int:
    for key in ("eps", "threshold"):
        if not (math.isfinite(cfg[key]) and cfg[key] > 0):
            raise ValueError(f"--{key} must be finite and positive, got {cfg[key]}")
    if cfg["batch"] < 1:
        raise ValueError(f"--batch must be at least 1, got {cfg['batch']}")
    modes = ("baseline", "ssp", "srr") if cfg["mode"] == "all" else (cfg["mode"],)
    threshold = cfg["threshold"]
    all_ok = True
    results = {}
    for mode in modes:
        report = run_gradcheck(mode, cfg)
        ok = report.passed(threshold)
        all_ok &= ok
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
        out = _out_dir(cfg)
        save_json(out / "gradcheck.json", results)
        _write_meta(out, "gradcheck", cfg, [out / "gradcheck.json"])
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# export

EXPORT_OPTS = [
    Opt("kind", positional=True, choices=("graph", "correlate"),
        help="what to export from the checkpoint"),
    Opt("--out-dir", required=True),
    Opt("--checkpoint", required=True),
]


def cmd_export(cfg: dict) -> int:
    out = _out_dir(cfg)
    head = load_head(cfg["checkpoint"])
    names = head.registry.names

    if cfg["kind"] == "graph":
        _write_matrix_csv(out / "graph.csv", relation_graph(head), names, names)
        _write_meta(out, "export", cfg, [out / "graph.csv"])
        return 0

    if head.we is None:
        raise ValueError("baseline heads have no embedding rows to correlate")
    cm = correlation_map(head.we.matrix, class_rows(head), head.registry)
    base = list(cm.base_names)
    novel = list(cm.novel_names)
    _write_matrix_csv(out / "correlate_before.csv", cm.before, novel, base)
    _write_matrix_csv(out / "correlate_after.csv", cm.after, novel, base)
    _write_matrix_csv(out / "correlate_diff.csv", cm.difference, novel, base)
    _write_meta(
        out, "export", cfg,
        [out / "correlate_before.csv", out / "correlate_after.csv",
         out / "correlate_diff.csv"],
    )
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


def cmd_closure(cfg: dict) -> int:
    if cfg["golden"]:
        manifest = bundled_voc_manifest()
    else:
        if not cfg.get("edges") or not cfg.get("roots"):
            raise ValueError("closure needs --edges and --roots (or --golden)")
        graph = load_hypernym_edges(cfg["edges"])
        if graph.cyclic:
            print("warning: hypernym graph contains a cycle; closure still terminates",
                  file=sys.stderr)
        roots = [r.strip() for r in cfg["roots"].split(",") if r.strip()]
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
    Opt("--seed", default=0, type=int),
    Opt("--alpha", default=SynthConfig.alpha, type=float),
    Opt("--sigma", type=float, help="feature noise (default: margin rule)"),
    Opt("--margin-scale", default=SynthConfig.margin_scale, type=float),
    Opt("--base-classes", default=15, type=int),
    Opt("--novel-classes", default=5, type=int),
    Opt("--embed-dim", default=24, type=int),
    Opt("--feat-dim", default=SynthConfig.d_in, type=int),
    Opt("--train-per-class", default=SynthConfig.train_per_class, type=int),
    Opt("--test-per-class", default=SynthConfig.test_per_class, type=int),
    Opt("--embeddings", default="clustered", choices=("clustered", "random")),
    Opt("--clusters", default=5, type=int),
    Opt("--spread", default=0.35, type=float),
]


def cmd_synth(cfg: dict) -> int:
    out = _out_dir(cfg)
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
    save_registry(registry, out / "registry.json")
    class_names = registry.base + registry.novel
    save_embedding_file(out / "embeddings.txt", class_names, we.matrix[: len(class_names)])
    save_records(out / "base_train.jsonl", ds.train.with_labels(registry.base))
    save_records(out / "novel_train.jsonl", ds.train.with_labels(registry.novel))
    save_records(out / "test.jsonl", ds.test)
    _write_meta(
        out, "synth", cfg,
        [out / "registry.json", out / "embeddings.txt", out / "base_train.jsonl",
         out / "novel_train.jsonl", out / "test.jsonl"],
        extra={"sigma": ds.sigma, "min_margin": ds.min_margin},
    )
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="semshot",
        description="few-shot classification heads over precomputed features",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, opts, _) in _COMMANDS.items():
        _build_subparser(sub, name, help_text, opts)
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _, opts, fn = _COMMANDS[ns.command]
    try:
        cfg = _resolve(opts, ns)
        return fn(cfg)
    except (ValueError, KeyError, OSError, FloatingPointError) as exc:
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
