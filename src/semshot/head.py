"""Few-shot classification heads over precomputed feature vectors.

Three interchangeable heads share a small 2-layer trunk:

* BASELINE: logits = W v + b, one learned row per class.
* SSP: logits = We P v + b.  The class rows are fixed word-embedding vectors;
  only the projection P from embedding space to feature space is learned, so
  a class can score without any visual training sample.
* SRR: like SSP, but We is first refined by the relation module:
  logits = (G We Th Tl + We) P v + b for the dynamic graph.

A parallel linear regression branch (4 outputs) rides on the trunk; it can be
decoupled into its own trunk copy so classifier gradients and regression
gradients touch disjoint parameters.
"""

import enum
import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import diffmath as dm
from . import relation as rel
from .diffmath import Param, Tape
from .embeddings import ClassRegistry, EmbeddingMatrix, load_json
from .records import REG_DIM, FeatureSet, batch_features


class HeadMode(enum.Enum):
    BASELINE = "baseline"
    SSP = "ssp"
    SRR = "srr"


@dataclass
class HeadConfig:
    mode: HeadMode = HeadMode.SSP
    graph_mode: rel.GraphMode | None = None  # None: dynamic for srr, else none
    d_in: int = 32
    d: int = 64
    r: int = rel.DEFAULT_REDUCED_DIM
    scaled_attention: bool = True
    attention_gain: float = rel.DEFAULT_ATTENTION_GAIN
    graph_in_base: bool = True
    decoupled: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("d_in", "d", "r"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"head dimension {name} must be at least 1, got {value}")
        if isinstance(self.mode, str):
            self.mode = HeadMode(self.mode)
        if isinstance(self.graph_mode, str):
            self.graph_mode = rel.GraphMode(self.graph_mode)
        srr = self.mode is HeadMode.SRR
        if self.graph_mode is None:
            self.graph_mode = rel.GraphMode.DYNAMIC if srr else rel.GraphMode.NONE
        if srr and self.graph_mode is rel.GraphMode.NONE:
            raise ValueError("graph mode 'none' conflicts with mode 'srr', "
                             "which needs a relation stage")
        if not srr and self.graph_mode is not rel.GraphMode.NONE:
            raise ValueError(f"graph mode {self.graph_mode.value!r} requires mode 'srr'")


_TRUNK_SUFFIXES = ("w1", "b1", "w2", "b2")


@dataclass
class Head:
    cfg: HeadConfig
    registry: ClassRegistry
    we: EmbeddingMatrix | None
    params: dict
    g_heur: np.ndarray | None = None

    @property
    def mode(self) -> HeadMode:
        return self.cfg.mode

    @property
    def n_classes(self) -> int:
        return self.registry.n

    def param_list(self) -> list:
        return list(self.params.values())

    def trunk_names(self, branch: str) -> list:
        prefix = f"{branch}_trunk_" if self.cfg.decoupled else "trunk_"
        return [prefix + s for s in _TRUNK_SUFFIXES]

    def param_groups(self) -> dict:
        """Friendly group names used by training/CLI trainable selections."""
        groups = {}
        if self.mode is HeadMode.BASELINE:
            groups["W"] = ["W"]
        else:
            groups["P"] = ["P"]
        groups["b"] = ["b"]
        relation_names = rel.map_names(self.cfg.graph_mode)
        if relation_names:
            groups["relation"] = list(relation_names)
        if self.cfg.decoupled:
            groups["cls_trunk"] = self.trunk_names("cls")
            groups["reg_trunk"] = self.trunk_names("reg")
            groups["trunk"] = groups["cls_trunk"] + groups["reg_trunk"]
        else:
            groups["trunk"] = self.trunk_names("cls")
        groups["reg"] = ["reg_w", "reg_b"]
        return groups

    def resolve_groups(self, names) -> set:
        groups = self.param_groups()
        out = set()
        for name in names:
            if name not in groups:
                raise ValueError(
                    f"unknown parameter group {name!r}; available: {sorted(groups)}"
                )
            out.update(groups[name])
        return out

    def set_trainable(self, param_names):
        wanted = set(param_names)
        unknown = wanted - set(self.params)
        if unknown:
            raise ValueError(f"unknown parameter names: {sorted(unknown)}")
        for name, p in self.params.items():
            p.trainable = name in wanted

    def trainable_names(self) -> list:
        return [name for name, p in self.params.items() if p.trainable]

    def param_hash(self, names=None) -> str:
        h = hashlib.sha256()
        for name in sorted(names if names is not None else self.params):
            p = self.params[name]
            h.update(name.encode())
            h.update(np.ascontiguousarray(p.value).tobytes())
        return h.hexdigest()

    def we_hash(self) -> str:
        return self.we.content_hash() if self.we is not None else ""


def _trunk_params(rng, prefix: str, d_in: int, d: int) -> dict:
    # relu-aware fan-in scaling; biases start at zero
    return {
        f"{prefix}w1": Param(f"{prefix}w1", rng.normal(0.0, np.sqrt(2.0 / d_in), (d, d_in))),
        f"{prefix}b1": Param(f"{prefix}b1", np.zeros((d, 1))),
        f"{prefix}w2": Param(f"{prefix}w2", rng.normal(0.0, np.sqrt(2.0 / d), (d, d))),
        f"{prefix}b2": Param(f"{prefix}b2", np.zeros((d, 1))),
    }


def build_head(cfg: HeadConfig, registry: ClassRegistry,
               we: EmbeddingMatrix | None = None) -> Head:
    """Allocate a head. SSP/SRR require an embedding matrix matching the registry."""
    rng = np.random.default_rng([cfg.seed, 0x4D])
    n = registry.n
    params = {}

    if cfg.mode is HeadMode.BASELINE:
        params["W"] = Param("W", rng.normal(0.0, 1.0 / np.sqrt(cfg.d), (n, cfg.d)))
        we = None
    else:
        if we is None:
            raise ValueError(f"mode {cfg.mode.value!r} needs an embedding matrix")
        if we.n != n:
            raise ValueError(
                f"embedding rows ({we.n}) do not match registry size ({n})"
            )
        params["P"] = Param("P", rng.normal(0.0, 1.0 / np.sqrt(cfg.d), (we.dim, cfg.d)))
        params.update(rel.init_maps(
            cfg.graph_mode, we.dim, cfg.r, seed=cfg.seed, scaled=cfg.scaled_attention,
            gain=cfg.attention_gain,
        ))

    params["b"] = Param("b", np.zeros((n, 1)))
    if cfg.decoupled:
        params.update(_trunk_params(rng, "cls_trunk_", cfg.d_in, cfg.d))
        params.update(_trunk_params(rng, "reg_trunk_", cfg.d_in, cfg.d))
    else:
        params.update(_trunk_params(rng, "trunk_", cfg.d_in, cfg.d))
    params["reg_w"] = Param("reg_w", rng.normal(0.0, 1.0 / np.sqrt(cfg.d), (REG_DIM, cfg.d)))
    params["reg_b"] = Param("reg_b", np.zeros((REG_DIM, 1)))

    # a heuristic stage's co-occurrence graph is attached by the caller
    return Head(cfg=cfg, registry=registry, we=we, params=params)


def attach_heuristic_graph(head: Head, graph: np.ndarray):
    g = dm.as_matrix(graph)
    if g.shape != (head.n_classes, head.n_classes):
        raise ValueError(
            f"heuristic graph shape {g.shape} does not match {head.n_classes} classes"
        )
    head.g_heur = g


# ---------------------------------------------------------------------------
# forward passes


@dataclass
class ForwardResult:
    tape: Tape
    logits: "dm.Tensor"
    loss_cls: "dm.Tensor | None" = None
    loss_reg: "dm.Tensor | None" = None
    loss: "dm.Tensor | None" = None


def _trunk_t(tape: Tape, head: Head, branch: str, x_t):
    names = head.trunk_names(branch)
    w1, b1, w2, b2 = (tape.param(head.params[n]) for n in names)
    h = dm.relu(dm.add_bias(dm.matmul(w1, x_t), b1))
    return dm.add_bias(dm.matmul(w2, h), b2)


def _maps_t(tape: Tape, head: Head) -> dict:
    return {n: tape.param(head.params[n]) for n in rel.map_names(head.cfg.graph_mode)}


def _effective_rows_t(tape: Tape, head: Head):
    """Class rows on the tape: W, raw We, or relation-refined We."""
    if head.mode is HeadMode.BASELINE:
        return tape.param(head.params["W"])
    we_t = tape.leaf(head.we.matrix)
    if head.mode is HeadMode.SSP:
        return we_t
    gm = head.cfg.graph_mode
    if gm is rel.GraphMode.HEURISTIC:
        if head.g_heur is None:
            raise ValueError("heuristic graph mode without an attached co-occurrence graph")
        return dm.matmul(tape.leaf(head.g_heur), we_t)
    maps_t = _maps_t(tape, head)
    if gm is rel.GraphMode.TRAINABLE_TRANSFORM:
        return rel.trainable_transform_t(we_t, maps_t)
    return rel.relation_forward_t(we_t, maps_t, head.cfg.scaled_attention)


def _class_scores_t(tape: Tape, head: Head, v_t, use_graph: bool = True):
    b = tape.param(head.params["b"])
    if head.mode is HeadMode.BASELINE:
        rows = tape.param(head.params["W"])
        return dm.add_bias(dm.matmul(rows, v_t), b)
    p = tape.param(head.params["P"])
    projected = dm.matmul(p, v_t)
    if head.mode is HeadMode.SRR and not use_graph:
        rows = tape.leaf(head.we.matrix)
    else:
        rows = _effective_rows_t(tape, head)
    return dm.add_bias(dm.matmul(rows, projected), b)


def forward_pass(head: Head, x, labels=None, reg_targets=None,
                 reg_weight: float = 1.0, use_graph: bool = True) -> ForwardResult:
    """Run trunk + classifier (and regression when targets given) on a batch.

    ``x`` is (d_in, batch) with features as columns.  Losses are attached when
    the corresponding targets are present; ``loss`` is their weighted sum.
    """
    tape = Tape()
    x_t = tape.leaf(dm.as_matrix(x))
    if x_t.value.shape[0] != head.cfg.d_in:
        raise ValueError(
            f"feature dim {x_t.value.shape[0]} does not match head d_in={head.cfg.d_in}"
        )
    v_cls = _trunk_t(tape, head, "cls", x_t)
    logits = _class_scores_t(tape, head, v_cls, use_graph=use_graph)

    result = ForwardResult(tape=tape, logits=logits)
    terms = []
    if labels is not None:
        result.loss_cls = dm.cross_entropy_cols(logits, labels)
        terms.append((result.loss_cls, 1.0))
    if reg_targets is not None:
        v_reg = _trunk_t(tape, head, "reg", x_t) if head.cfg.decoupled else v_cls
        reg_w = tape.param(head.params["reg_w"])
        reg_b = tape.param(head.params["reg_b"])
        pred = dm.add_bias(dm.matmul(reg_w, v_reg), reg_b)
        result.loss_reg = dm.squared_error_cols(pred, reg_targets)
        terms.append((result.loss_reg, reg_weight))
    if terms:
        result.loss = dm.weighted_sum(terms)
    return result


def batch_forward(head: Head, data: FeatureSet, y, cols, reg_weight: float = 1.0,
                  use_graph: bool = True) -> ForwardResult:
    """Forward columns ``cols`` of ``data``; ``y`` holds every record's class index."""
    if not len(cols):
        raise ValueError("empty batch")
    return forward_pass(
        head, batch_features(data, cols), labels=y[cols],
        reg_targets=None if data.reg is None else data.reg.take(cols, axis=1),
        reg_weight=reg_weight, use_graph=use_graph,
    )


# ---------------------------------------------------------------------------
# array-level questions about a head


def class_scores(head: Head, v) -> np.ndarray:
    """Class scores of one post-trunk feature vector ``v`` (length d)."""
    v = dm.as_matrix(v)
    if v.shape != (head.cfg.d, 1):
        raise ValueError(f"expected a ({head.cfg.d},) feature vector, got shape {v.shape}")
    tape = Tape()
    v_t = tape.leaf(v)
    return _class_scores_t(tape, head, v_t).value.reshape(-1)


def class_rows(head: Head) -> np.ndarray:
    """The class score rows after the relation stage: W, We, or refined We."""
    return _effective_rows_t(Tape(), head).value


def relation_graph(head: Head) -> np.ndarray:
    """The row-stochastic class graph of the relation stage: the attached
    heuristic graph, or the dynamic stage's attention graph."""
    if head.g_heur is not None:
        return head.g_heur
    if head.cfg.graph_mode is not rel.GraphMode.DYNAMIC:
        raise ValueError(
            f"head mode {head.mode.value!r} with graph mode "
            f"{head.cfg.graph_mode.value!r} has no relation graph to export"
        )
    tape = Tape()
    we_t = tape.leaf(head.we.matrix)
    return rel.extract_graph_t(we_t, _maps_t(tape, head), head.cfg.scaled_attention).value


# ---------------------------------------------------------------------------
# structural edits


def expand_classes(head: Head, new_registry: ClassRegistry,
                   we_full: EmbeddingMatrix | None = None, seed: int = 0) -> Head:
    """Grow a head to ``new_registry``, which appends novel classes to its own.

    The added classes slide in at the old background index, and the
    background row moves to the end.  An SSP/SRR head takes their embedding
    rows (unit-normalized here) from ``we_full``, which is aligned with
    ``new_registry``.  A baseline head draws fresh W rows (rng ``[seed,
    0xE1]``) at the RMS magnitude of the trained rows, so comparisons against
    embedding-anchored heads measure what the anchor *directions* are worth
    rather than a head start in row norm.  Biases for the added classes start
    at the mean of the base biases, so a fresh class enters with the average
    class prior rather than an artificially depressed one.  Every existing
    parameter is untouched, so base-class scores shift only through whatever
    the relation graph now mixes in.  A registry that adds nothing leaves
    the head as it is.
    """
    if new_registry.base != head.registry.base:
        raise ValueError("expanded registry must keep the same base classes")
    old_novel = head.registry.novel
    if new_registry.novel[: len(old_novel)] != old_novel:
        raise ValueError("expanded registry must keep existing novel classes in order")
    added = new_registry.novel[len(old_novel):]
    if not added:
        return head
    bg = head.registry.background_index
    if head.mode is HeadMode.BASELINE:
        w = head.params["W"].value
        std = float(np.sqrt((w[:bg] ** 2).mean())) if bg else 0.01
        rows = np.random.default_rng([seed, 0xE1]).normal(0.0, std, (len(added), head.cfg.d))
        head.params["W"] = Param("W", _insert_rows(w, bg, rows))
    else:
        want = (new_registry.n, head.we.dim)
        if we_full is None or we_full.matrix.shape != want:
            got = "none" if we_full is None else f"shape {we_full.matrix.shape}"
            raise ValueError(
                f"mode {head.mode.value!r} needs an embedding matrix of shape {want} "
                f"for the expanded registry, got {got}"
            )
        rows = dm.l2_normalize_rows(we_full.matrix[bg: bg + len(added)])
        prov = head.we.provenance
        if prov:
            prov = prov[:bg] + tuple(f"expanded:{n}" for n in added) + prov[bg:]
        head.we = EmbeddingMatrix(_insert_rows(head.we.matrix, bg, rows), prov)
    b = head.params["b"].value
    fill = np.full((len(added), 1), float(b[:bg].mean()) if bg else 0.0)
    head.params["b"] = Param("b", _insert_rows(b, bg, fill))
    head.registry = new_registry
    # a heuristic graph no longer matches the class count; force a re-attach
    head.g_heur = None
    return head


def _insert_rows(rows: np.ndarray, at: int, new: np.ndarray) -> np.ndarray:
    """``rows`` with ``new`` inserted before row ``at``."""
    return np.vstack([rows[:at], new, rows[at:]])


def decouple_trunks(head: Head) -> Head:
    """Split the shared trunk into independent classifier and regression
    copies (both start from the shared weights)."""
    if head.cfg.decoupled:
        raise ValueError("trunks are already decoupled")
    shared = {s: head.params.pop("trunk_" + s) for s in _TRUNK_SUFFIXES}
    for branch in ("cls", "reg"):
        for s in _TRUNK_SUFFIXES:
            name = f"{branch}_trunk_{s}"
            head.params[name] = Param(name, shared[s].value.copy())
    head.cfg = replace(head.cfg, decoupled=True)
    return head


def switch_graph_mode(head: Head, graph_mode, seed: int = 0) -> Head:
    """Give an SSP head the relation stage ``graph_mode``, making it SRR.

    The new maps start at the identity-module init of ``rel.init_maps``
    (drawn with ``seed`` and the head's attention settings) and are appended
    after the existing parameters.  Asking a head for the stage it already
    has, or an SSP head for none, leaves it as it is.
    """
    target = rel.GraphMode(graph_mode)
    if head.mode is HeadMode.SRR:
        if target is head.cfg.graph_mode:
            return head
        raise ValueError(
            f"head already has relation stage {head.cfg.graph_mode.value!r}; "
            "build a new head to change it"
        )
    if head.mode is HeadMode.BASELINE:
        raise ValueError("baseline heads have no relation stage to switch on")
    if target is rel.GraphMode.NONE:
        return head
    head.cfg = replace(head.cfg, mode=HeadMode.SRR, graph_mode=target)
    head.params.update(rel.init_maps(
        target, head.we.dim, head.cfg.r, seed=seed,
        scaled=head.cfg.scaled_attention, gain=head.cfg.attention_gain,
    ))
    return head


# ---------------------------------------------------------------------------
# checkpoints

_CHECKPOINT_FORMAT = "semshot-head-v1"


def head_state(head: Head) -> dict:
    state = {
        "format": _CHECKPOINT_FORMAT,
        "mode": head.cfg.mode.value,
        "graph_mode": head.cfg.graph_mode.value,
        "dims": {"d_in": head.cfg.d_in, "d": head.cfg.d, "r": head.cfg.r},
        "scaled_attention": head.cfg.scaled_attention,
        "attention_gain": head.cfg.attention_gain,
        "graph_in_base": head.cfg.graph_in_base,
        "decoupled": head.cfg.decoupled,
        "seed": head.cfg.seed,
        "registry": head.registry.to_json(),
        "params": {name: p.value.tolist() for name, p in head.params.items()},
        "trainable": {name: p.trainable for name, p in head.params.items()},
        "we": None,
        "g_heur": head.g_heur.tolist() if head.g_heur is not None else None,
    }
    if head.we is not None:
        state["we"] = {
            "matrix": head.we.matrix.tolist(),
            "provenance": list(head.we.provenance),
            "hash": head.we.content_hash(),
        }
    return state


def head_from_state(state: dict) -> Head:
    fmt = state.get("format") if isinstance(state, dict) else None
    if fmt != _CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format {fmt!r}")
    cfg = HeadConfig(
        mode=state["mode"],
        graph_mode=state["graph_mode"],
        d_in=state["dims"]["d_in"],
        d=state["dims"]["d"],
        r=state["dims"]["r"],
        scaled_attention=state["scaled_attention"],
        attention_gain=state["attention_gain"],
        graph_in_base=state["graph_in_base"],
        decoupled=state["decoupled"],
        seed=state["seed"],
    )
    registry = ClassRegistry.from_json(state["registry"])
    we = None
    if state["we"] is not None:
        we = EmbeddingMatrix(
            np.array(state["we"]["matrix"]), tuple(state["we"]["provenance"])
        )
        if we.content_hash() != state["we"]["hash"]:
            raise ValueError("embedding matrix hash mismatch in checkpoint")
    found = {name: np.array(values) for name, values in state["params"].items()}
    # the shapes a freshly built head of this config has are the only valid ones
    expected = {name: p.value.shape for name, p in build_head(cfg, registry, we).params.items()}
    for name in sorted(expected.keys() | found.keys()):
        want = expected.get(name)
        got = found[name].shape if name in found else None
        if want != got:
            raise ValueError(
                f"checkpoint parameter {name!r}: expected {_shape_text(want)}, "
                f"found {_shape_text(got)}"
            )
    params = {
        name: Param(name, value, trainable=state["trainable"][name])
        for name, value in found.items()
    }
    head = Head(cfg=cfg, registry=registry, we=we, params=params)
    if state.get("g_heur") is not None:
        g_heur = np.array(state["g_heur"])
        if g_heur.shape != (registry.n, registry.n):
            raise ValueError(
                f"checkpoint heuristic graph: expected shape {(registry.n, registry.n)}, "
                f"found shape {g_heur.shape}"
            )
        head.g_heur = g_heur
    return head


def _shape_text(shape) -> str:
    return "no such parameter" if shape is None else f"shape {shape}"


def save_head(head: Head, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(head_state(head), fh, sort_keys=True)
        fh.write("\n")


def load_head(path) -> Head:
    return load_json(path, head_from_state)
