"""Per-layer metrics from the spans and counters of a traced run.

Every metric is given per repeat of the workload (one `shot_sweep` call, one
seed's paired cells, one CLI chain), so runs that complete a different number
of repeats stay comparable.  Counts are exact: each repeat does the same work,
so their per-repeat values must read identically on every run.  Times are
inclusive of the spans a layer calls, except ``head.forward_s``, which is the
self time of ``forward_pass`` and ``batch_forward`` (they enclose every other
layer of a training step).
"""

import statistics

import numpy as np

from tracer import KERNELS, span_totals

CLI_COMMANDS = ("synth", "train", "finetune", "eval", "export", "closure")

# name, unit, better
PER_LAYER = [
    ("synthgen.generate_s", "s", "lower"),
    ("training.base_train_s", "s", "lower"),
    ("training.finetune_s", "s", "lower"),
    ("training.sgd_step_s", "s", "lower"),
    ("training.steps", "count", "lower"),
    ("training.step_us_p50", "us", "lower"),
    ("training.step_us_p99", "us", "lower"),
    ("training.base_train_calls", "count", "lower"),
    ("training.base_train_unique_ratio", "ratio", "higher"),
    ("head.forward_s", "s", "lower"),
    ("head.forward_calls", "count", "lower"),
    ("head.save_s", "s", "lower"),
    ("head.load_s", "s", "lower"),
    ("head.checkpoint_bytes", "bytes", "lower"),
    ("relation.forward_s", "s", "lower"),
    ("relation.forward_calls", "count", "lower"),
    ("diffmath.backward_s", "s", "lower"),
    ("diffmath.loss_s", "s", "lower"),
    *[
        (f"kernels.{k}.{m}", unit, "lower")
        for k in KERNELS
        for m, unit in (("calls", "count"), ("s", "s"), ("gflop", "GFLOP"),
                        ("mb", "MB-computed"))
    ],
    ("evaluation.evaluate_s", "s", "lower"),
    ("evaluation.records_scored", "count", "higher"),
    ("records.batch_features_s", "s", "lower"),
    ("records.load_s", "s", "lower"),
    ("records.load_mb", "MB", "lower"),
    ("records.save_s", "s", "lower"),
    ("embeddings.registry_index_calls", "count", "lower"),
    ("embeddings.registry_index_s", "s", "lower"),
    ("embeddings.load_s", "s", "lower"),
    ("wordnet.parse_s", "s", "lower"),
    ("wordnet.closure_s", "s", "lower"),
    ("wordnet.edges", "count", "lower"),
    ("wordnet.nodes_visited", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    *[(f"cli.{c}_s", "s", "lower") for c in CLI_COMMANDS],
    ("trace.overhead_ratio", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}

# metrics that count work rather than time it; they must repeat exactly
EXACT = {
    name for name, unit, _ in PER_LAYER
    if unit in ("count", "GFLOP", "MB-computed")
} | {"training.base_train_unique_ratio"}

# inclusive-time metrics: metric -> span name
_INCLUSIVE = {
    "synthgen.generate_s": "synthgen.generate",
    "training.base_train_s": "training.base_train",
    "training.finetune_s": "training.finetune",
    "training.sgd_step_s": "training.sgd_step",
    "head.save_s": "head.save",
    "head.load_s": "head.load",
    "relation.forward_s": "relation.forward",
    "diffmath.backward_s": "diffmath.backward",
    "diffmath.loss_s": "diffmath.loss",
    "evaluation.evaluate_s": "evaluation.evaluate",
    "records.batch_features_s": "records.batch_features",
    "records.load_s": "records.load",
    "records.save_s": "records.save",
    "embeddings.registry_index_s": "embeddings.registry_index",
    "embeddings.load_s": "embeddings.load",
    "wordnet.parse_s": "wordnet.parse",
    "wordnet.closure_s": "wordnet.closure",
    **{f"kernels.{k}.s": f"kernels.{k}" for k in KERNELS},
}

# call-count metrics: metric -> span name
_CALLS = {
    "training.steps": "training.sgd_step",
    "training.base_train_calls": "training.base_train",
    "head.forward_calls": "head.forward_pass",
    "relation.forward_calls": "relation.forward",
    "embeddings.registry_index_calls": "embeddings.registry_index",
    **{f"kernels.{k}.calls": f"kernels.{k}" for k in KERNELS},
}

# counter metrics: metric -> (counter key, divisor)
_COUNTED = {
    "evaluation.records_scored": ("evaluation.records_scored", 1),
    "head.checkpoint_bytes": ("head.checkpoint_bytes", 1),
    "records.load_mb": ("records.load_bytes", 1e6),
    "wordnet.edges": ("wordnet.edges", 1),
    "wordnet.nodes_visited": ("wordnet.nodes_visited", 1),
    **{f"kernels.{k}.gflop": (f"kernels.{k}.flop", 1e9) for k in KERNELS},
    **{f"kernels.{k}.mb": (f"kernels.{k}.bytes", 1e6) for k in KERNELS},
}


def _per_repeat(total, repeats: int, uneven: list, name: str):
    """An exact integer total spread over identical repeats."""
    if total % repeats:
        uneven.append(name)
    return total / repeats if total % repeats else total // repeats


def layer_metrics(stores, repeats: int, cli_walls: dict, import_s: list,
                  overhead_ratio: float) -> tuple:
    """Per-layer metric values and the names whose counts were not a whole
    multiple of the repeat count (repeats that did unequal work)."""
    calls, incl, self_s = {}, {}, {}
    counts = {}
    base_keys = []
    steps = []
    for store in stores:
        for name, (c, i, s) in span_totals(store).items():
            calls[name] = calls.get(name, 0) + c
            incl[name] = incl.get(name, 0.0) + i
            self_s[name] = self_s.get(name, 0.0) + s
        for key, value in store["counts"].items():
            counts[key] = counts.get(key, 0) + value
        base_keys.extend(store["base_keys"])
        steps.append(store["step_s"])
    steps = np.concatenate(steps) if steps else np.zeros(0)

    uneven = []
    out = {}
    for metric, span in _INCLUSIVE.items():
        out[metric] = incl.get(span, 0.0) / repeats
    for metric, span in _CALLS.items():
        out[metric] = _per_repeat(calls.get(span, 0), repeats, uneven, metric)
    for metric, (key, div) in _COUNTED.items():
        per = _per_repeat(counts.get(key, 0), repeats, uneven, metric)
        out[metric] = per / div if div != 1 else per
    out["head.forward_s"] = (
        self_s.get("head.forward_pass", 0.0) + self_s.get("head.batch_forward", 0.0)
    ) / repeats
    out["training.step_us_p50"] = float(np.percentile(steps, 50) * 1e6) if steps.size else 0.0
    out["training.step_us_p99"] = float(np.percentile(steps, 99) * 1e6) if steps.size else 0.0
    out["training.base_train_unique_ratio"] = (
        len(set(base_keys)) / len(base_keys) if base_keys else 0.0
    )
    for cmd in CLI_COMMANDS:
        walls = cli_walls.get(cmd, [])
        out[f"cli.{cmd}_s"] = sum(walls) / repeats if walls else 0.0
    out["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    missing = [name for name, _, _ in PER_LAYER if name not in out]
    if missing:
        raise AssertionError(f"per-layer metrics without a value: {missing}")
    return {name: {"value": out[name], "unit": unit} for name, unit, _ in PER_LAYER}, uneven
