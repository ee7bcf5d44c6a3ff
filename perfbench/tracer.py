"""Span tracing of semshot from the outside.

`install` replaces the package's public functions, at the names their callers
bind, with wrappers that record one span per call: a name, start, end, the
enclosing span and the id of the unit of work (a cell, a sweep, a CLI
command) the span belongs to.  Spans live in flat arrays while the run lasts
and are written out once at the end; nothing inside ``src/`` changes.

Self time is a span's duration minus the time its direct child spans cover.
A few wrappers also count work at the same boundary (kernel FLOPs and bytes
computed from operand shapes, records scored, checkpoint bytes, graph edges).
"""

import importlib
import os
import time
from array import array
from collections import Counter

import numpy as np

KERNELS = ("matmul", "mix_matmul", "row_softmax", "ce_cols", "relu", "sgd_update")

_F64 = 8


def _kernel_work(name, args):
    """(flop, bytes) of one kernel call, computed from its operand shapes.

    Bytes are the float64 operands read plus results written, counted once;
    they are computed, not measured.
    """
    if name in ("matmul", "mix_matmul"):
        (n, k), m = args[0].shape, args[1].shape[1]
        return 2 * n * k * m, _F64 * (n * k + k * m + n * m)
    if name == "row_softmax":
        size = args[0].size
        return 4 * size, _F64 * 2 * size
    if name == "ce_cols":
        n, b = args[0].shape
        return 4 * n * b, _F64 * (2 * n * b + b)
    if name == "relu":
        size = args[0].size
        return size, _F64 * 2 * size
    if name == "sgd_update":
        size = args[0].size
        return 6 * size, _F64 * 5 * size
    raise KeyError(name)


def base_phase_key(head, train_cfg) -> tuple:
    """Content key of a base-training call: seed, base-phase head config and
    TrainConfig.  With ``graph_in_base`` off, an srr head trains exactly the
    projection head's base phase, so both map to the same key."""
    cfg = head.cfg
    mode = cfg.mode.value
    relation = ()
    if mode == "srr" and cfg.graph_in_base:
        relation = (cfg.graph_mode.value, cfg.r, cfg.scaled_attention, cfg.attention_gain)
    elif mode == "srr":
        mode = "ssp"
    we = head.we.content_hash() if head.we is not None and mode != "baseline" else ""
    return (
        cfg.seed, mode, relation, cfg.d_in, cfg.d, cfg.decoupled,
        head.registry.names, we, repr(train_cfg),
    )


class Tracer:
    """Flat in-memory span store plus boundary counters."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.unit = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.unit_id = -1
        self.counts = Counter()
        self.base_keys = []
        self.step_s = array("d")
        self._step_start = None
        self._undo = []
        self.unwrapped = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self.unit_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # -- wrapping -----------------------------------------------------------

    def wrap(self, module: str, attr: str, span_name: str, after=None):
        """Replace ``module.attr`` (``attr`` may be ``Class.method``) with a
        recording wrapper.  A name the program no longer has is skipped and
        listed in ``unwrapped``."""
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None) if owner is not None else None
        if fn is None:
            self.unwrapped.append(f"{module}.{attr}")
            return
        nid = self.name_id(span_name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, idx, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", leaf)
        setattr(owner, leaf, wrapper)
        self._undo.append((owner, leaf, fn))

    def uninstall(self):
        while self._undo:
            owner, leaf, fn = self._undo.pop()
            setattr(owner, leaf, fn)

    # -- output -------------------------------------------------------------

    def store(self) -> dict:
        """The spans and counters as arrays, the form `load_spans` returns."""
        return {
            "names": list(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "unit": np.frombuffer(self.unit, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "step_s": np.frombuffer(self.step_s, dtype=np.float64),
            "counts": Counter(self.counts),
            "base_keys": [repr(k) for k in self.base_keys],
            "unwrapped": list(self.unwrapped),
        }

    def save(self, path):
        """Write the spans and counters out as ``.npz``."""
        s = self.store()
        keys = sorted(s["counts"])
        np.savez(
            path,
            names=np.array(s["names"], dtype=str),
            name=s["name"], parent=s["parent"], unit=s["unit"],
            start=s["start"], end=s["end"], step_s=s["step_s"],
            count_keys=np.array(keys, dtype=str),
            count_values=np.array([s["counts"][k] for k in keys], dtype=np.int64),
            base_keys=np.array(s["base_keys"], dtype=str),
            unwrapped=np.array(s["unwrapped"], dtype=str),
        )


def load_spans(path) -> dict:
    with np.load(path, allow_pickle=False) as z:
        return {
            "names": [str(n) for n in z["names"]],
            "name": z["name"], "parent": z["parent"], "unit": z["unit"],
            "start": z["start"], "end": z["end"], "step_s": z["step_s"],
            "counts": Counter(dict(zip((str(k) for k in z["count_keys"]),
                                       (int(v) for v in z["count_values"])))),
            "base_keys": [str(k) for k in z["base_keys"]],
            "unwrapped": [str(k) for k in z["unwrapped"]],
        }


def span_totals(spans: dict) -> dict:
    """name -> (calls, inclusive seconds, self seconds) over a span store."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    n = len(spans["names"])
    calls = np.bincount(spans["name"], minlength=n)
    incl = np.bincount(spans["name"], weights=dur, minlength=n)
    excl = np.bincount(spans["name"], weights=self_s, minlength=n)
    return {
        name: (int(calls[i]), float(incl[i]), float(excl[i]))
        for i, name in enumerate(spans["names"])
    }


# ---------------------------------------------------------------------------
# the wrap table


def _count_kernel(name):
    def after(tracer, idx, args, kwargs, result):
        flop, nbytes = _kernel_work(name, args)
        tracer.counts[f"kernels.{name}.flop"] += flop
        tracer.counts[f"kernels.{name}.bytes"] += nbytes

    return after


def _count_base_key(tracer, idx, args, kwargs, result):
    head = args[0] if args else kwargs["head"]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    tracer.base_keys.append(base_phase_key(head, cfg))


def _step_begin(tracer, idx, args, kwargs, result):
    tracer._step_start = tracer.start[idx]


def _step_end(tracer, idx, args, kwargs, result):
    if tracer._step_start is not None:
        tracer.step_s.append(tracer.end[idx] - tracer._step_start)
        tracer._step_start = None


def _count_records(tracer, idx, args, kwargs, result):
    records = args[1] if len(args) > 1 else kwargs["records"]
    tracer.counts["evaluation.records_scored"] += len(records)


def _count_file(key, pos):
    def after(tracer, idx, args, kwargs, result):
        tracer.counts[key] += os.path.getsize(args[pos])

    return after


def _count_edges(tracer, idx, args, kwargs, result):
    tracer.counts["wordnet.edges"] += sum(len(c) for c in result.children.values())


def _count_visited(tracer, idx, args, kwargs, result):
    tracer.counts["wordnet.nodes_visited"] += len(result)


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced boundary of semshot.  Returns the tracer."""
    w = tracer.wrap
    w("semshot.pipeline", "run_cell", "pipeline.run_cell")
    for mod in ("semshot.pipeline", "semshot.cli"):
        w(mod, "generate", "synthgen.generate")
        w(mod, "base_train", "training.base_train", _count_base_key)
        w(mod, "finetune", "training.finetune")
        w(mod, "evaluate", "evaluation.evaluate", _count_records)
    w("semshot.training", "batch_forward", "head.batch_forward", _step_begin)
    w("semshot.training", "sgd_step", "training.sgd_step", _step_end)
    for mod in ("semshot.head", "semshot.evaluation"):
        w(mod, "forward_pass", "head.forward_pass")
        w(mod, "batch_features", "records.batch_features")
    w("semshot.relation", "relation_forward_t", "relation.forward")
    w("semshot.diffmath", "Tape.backward", "diffmath.backward")
    for fn in ("cross_entropy_cols", "squared_error_cols", "weighted_sum"):
        w("semshot.diffmath", fn, "diffmath.loss")
    for k in KERNELS:
        w("semshot.kernels", k, f"kernels.{k}", _count_kernel(k))
    w("semshot.embeddings", "ClassRegistry.index", "embeddings.registry_index")
    w("semshot.cli", "load_embedding_file", "embeddings.load")
    w("semshot.cli", "load_records", "records.load", _count_file("records.load_bytes", 0))
    w("semshot.cli", "save_records", "records.save")
    w("semshot.cli", "save_head", "head.save", _count_file("head.checkpoint_bytes", 1))
    w("semshot.cli", "load_head", "head.load")
    w("semshot.cli", "load_hypernym_edges", "wordnet.parse", _count_edges)
    w("semshot.wordnet", "hyponym_closure", "wordnet.closure", _count_visited)
    return tracer
