"""Few-shot classification heads over precomputed feature vectors.

Three interchangeable heads share a small 2-layer trunk:

* BASELINE: logits = W v + b, one learned row per class.
* SSP: logits = We P v + b.  The class rows are fixed word-embedding vectors,
  the frozen param ``we``; only the projection P from embedding space to
  feature space is learned, so a class can score without any visual training
  sample.
* SRR: like SSP, but We is first refined by the relation module:
  logits = (G We Th Tl + We) P v + b for the dynamic graph.

A parallel linear regression branch (4 outputs) rides on the trunk; it can be
decoupled into its own trunk copy so classifier gradients and regression
gradients touch disjoint parameters.
"""

import enum
import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from . import diffmath as dm
from . import relation as rel
from .diffmath import Param, Tape
from .embeddings import NONNEG, NONNEG_INT, POSITIVE_INT, ClassRegistry, EmbeddingMatrix, load_json
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
    attention_gain: float = rel.DEFAULT_ATTENTION_GAIN
    decoupled: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("d_in", "d", "r"):
            POSITIVE_INT.check(getattr(self, name), f"head dimension {name}")
        NONNEG.check(self.attention_gain, "attention_gain")
        NONNEG_INT.check(self.seed, "seed")
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
    params: dict

    @property
    def we(self) -> EmbeddingMatrix | None:
        """The embedding rows: the param ``we``, which no group names, so it
        stays frozen; None for a baseline head."""
        return EmbeddingMatrix(self.params["we"].value) if "we" in self.params else None

    @we.setter
    def we(self, rows: EmbeddingMatrix):
        self.params["we"] = Param("we", rows.matrix, trainable=False)

    @property
    def mode(self) -> HeadMode:
        return self.cfg.mode

    @property
    def n_classes(self) -> int:
        return self.registry.n

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
        if maps := rel.STAGES[self.cfg.graph_mode].maps:
            groups["relation"] = list(maps)
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
        """sha256 of the params ``names`` (default: every param)."""
        h = hashlib.sha256()
        for name in sorted(names if names is not None else self.params):
            p = self.params[name]
            h.update(name.encode())
            h.update(np.ascontiguousarray(p.value).tobytes())
        return h.hexdigest()


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
    else:
        if we is None:
            raise ValueError(f"mode {cfg.mode.value!r} needs an embedding matrix")
        if we.n != n:
            raise ValueError(
                f"embedding rows ({we.n}) do not match registry size ({n})"
            )
        params["we"] = Param("we", we.matrix, trainable=False)
        params["P"] = Param("P", rng.normal(0.0, 1.0 / np.sqrt(cfg.d), (we.dim, cfg.d)))
        params.update(rel.init_maps(cfg.graph_mode, we.dim, cfg.r, seed=cfg.seed,
                                    gain=cfg.attention_gain))

    params["b"] = Param("b", np.zeros((n, 1)))
    if cfg.decoupled:
        params.update(_trunk_params(rng, "cls_trunk_", cfg.d_in, cfg.d))
        params.update(_trunk_params(rng, "reg_trunk_", cfg.d_in, cfg.d))
    else:
        params.update(_trunk_params(rng, "trunk_", cfg.d_in, cfg.d))
    params["reg_w"] = Param("reg_w", rng.normal(0.0, 1.0 / np.sqrt(cfg.d), (REG_DIM, cfg.d)))
    params["reg_b"] = Param("reg_b", np.zeros((REG_DIM, 1)))

    # a heuristic stage's co-occurrence graph is attached by the caller
    return Head(cfg=cfg, registry=registry, params=params)


def attach_heuristic_graph(head: Head, graph: np.ndarray):
    """Give ``head`` the (n, n) heuristic graph as the frozen param ``rel.GRAPH``,
    which no parameter group names; a head whose stage reads no graph refuses it."""
    if rel.GRAPH not in rel.STAGES[head.cfg.graph_mode].frozen:
        raise ValueError(f"head mode {head.mode.value!r} with graph mode "
                         f"{head.cfg.graph_mode.value!r} reads no heuristic graph")
    g = dm.as_matrix(graph)
    if g.shape != (head.n_classes, head.n_classes):
        raise ValueError(f"heuristic graph shape {g.shape} does not match "
                         f"{head.n_classes} classes")
    head.params[rel.GRAPH] = Param(rel.GRAPH, g, trainable=False)


# ---------------------------------------------------------------------------
# forward passes


@dataclass
class ForwardResult:
    """The logits, with targets the 1x1 ``loss`` tensor and its ``terms`` (ce,
    reg), and for a recorded step the ``inputs``, the leaves a rerun rebinds."""

    logits: "dm.Tensor"
    loss: "dm.Tensor | None" = None
    terms: list | tuple = (None, None)
    inputs: tuple = ()
    loss_cls = property(lambda self: self.terms[0])
    loss_reg = property(lambda self: self.terms[1])


def _trunk_t(tape: Tape, head: Head, branch: str, x_t):
    names = head.trunk_names(branch)
    w1, b1, w2, b2 = (tape.param(head.params[n]) for n in names)
    return dm.matmul(w2, dm.relu(dm.matmul(w1, x_t, b1)), b2)


def _effective_rows_t(tape: Tape, head: Head):
    """Class rows on the tape: W, or We after the head's relation stage."""
    if head.mode is HeadMode.BASELINE:
        return tape.param(head.params["W"])
    we_t, stage = tape.param(head.params["we"]), rel.STAGES[head.cfg.graph_mode]
    if missing := [n for n in stage.frozen if n not in head.params]:
        raise ValueError(f"graph mode {head.cfg.graph_mode.value!r} without an attached "
                         f"graph {missing[0]!r}")
    return stage.rows(we_t, {n: tape.param(head.params[n]) for n in stage.maps + stage.frozen})


def _class_scores_t(tape: Tape, head: Head, v_t):
    b = tape.param(head.params["b"])
    if head.mode is not HeadMode.BASELINE:
        v_t = dm.matmul(tape.param(head.params["P"]), v_t)
    return dm.matmul(_effective_rows_t(tape, head), v_t, b)


def _trunk_half(tape: Tape, head: Head, x_t, with_reg: bool):
    """Trunk output ``v`` of the (d_in, batch) feature leaf ``x_t`` and,
    with ``with_reg``, the regression prediction, which a decoupled head
    takes from its reg trunk."""
    if x_t.value.shape[0] != head.cfg.d_in:
        raise ValueError(
            f"feature dim {x_t.value.shape[0]} does not match head d_in={head.cfg.d_in}"
        )
    v_cls = _trunk_t(tape, head, "cls", x_t)
    if not with_reg:
        return v_cls, None
    v_reg = _trunk_t(tape, head, "reg", x_t) if head.cfg.decoupled else v_cls
    reg_w, reg_b = (tape.param(head.params[n]) for n in ("reg_w", "reg_b"))
    return v_cls, dm.matmul(reg_w, v_reg, reg_b)


def _score_half(tape: Tape, head: Head, v_t, pred_t, labels, reg_targets,
                reg_weight: float) -> ForwardResult:
    """Class scores of the trunk output ``v_t``, then the losses whose
    targets are present and their weighted sum."""
    logits = _class_scores_t(tape, head, v_t)
    result = ForwardResult(logits=logits)
    if labels is not None:
        result.loss, result.terms = dm.cross_entropy_cols(
            logits, labels, pred_t, reg_targets, reg_weight)
    elif reg_targets is not None:
        reg = dm.squared_error_cols(pred_t, reg_targets)
        result.loss, result.terms = dm.weighted_sum([(reg, reg_weight)]), (None, reg.item())
    return result


def forward_pass(head: Head, x, labels=None, reg_targets=None,
                 reg_weight: float = 1.0) -> ForwardResult:
    """Run trunk + classifier (and regression when targets given) on a batch.

    ``x`` is (d_in, batch) with features as columns.  Losses are attached when
    the corresponding targets are present; ``loss`` is their weighted sum.
    Without targets the pass records nothing for a backward pass.
    """
    tape = Tape(backward=labels is not None or reg_targets is not None)
    v_t, pred_t = _trunk_half(tape, head, tape.leaf(x), reg_targets is not None)
    return _score_half(tape, head, v_t, pred_t, labels, reg_targets, reg_weight)


@dataclass(frozen=True)
class TrunkFeatures:
    """The trunk half over every column of a FeatureSet: ``v`` (d, n) and the
    regression prediction ``pred`` (4, n), or None when the set has no reg."""

    v: np.ndarray
    pred: np.ndarray | None


def trunk_features(head: Head, data: FeatureSet) -> TrunkFeatures:
    """Run the trunk half once over all of ``data``.  Valid for as long as
    the trunk and reg parameters stay put."""
    tape = Tape(backward=False)
    v_t, pred_t = _trunk_half(tape, head, tape.leaf(batch_features(data)), data.reg is not None)
    return TrunkFeatures(v_t.value, None if pred_t is None else pred_t.value)


def batch_forward(head: Head, data: FeatureSet, y, cols, reg_weight: float = 1.0,
                  trunk: TrunkFeatures | None = None,
                  recorded: ForwardResult | None = None) -> ForwardResult:
    """Forward columns ``cols`` of ``data``; ``y`` holds every record's class index.

    With ``trunk`` (``trunk_features`` of this head and ``data``) the batch
    gathers its columns of the trunk half and runs only the score half.  The
    bits match the full pass: each output column of ``kernels.matmul`` is
    independent of the other columns, and the rest of the trunk is
    elementwise.  Given this result as ``recorded``, a later step rebinds
    its ``inputs`` and reruns its ``Tape(keep=True)``, which the caller
    releases.
    """
    if not len(cols):
        raise ValueError("empty batch")
    feats = ([batch_features(data, cols)] if trunk is None else
             [m.take(cols, axis=1) for m in (trunk.v, trunk.pred) if m is not None])
    targets = [] if data.reg is None else [data.reg.take(cols, axis=1)]
    if recorded is not None:
        if len(cols) != (width := recorded.logits.value.shape[1]):
            raise ValueError(f"batch of {len(cols)} for a step recorded on {width} columns")
        for leaf, value in zip(recorded.inputs, feats + [y[cols]] + targets):
            leaf.value = value
        recorded.loss.tape.rerun()
        return recorded
    tape = Tape(keep=True)
    leaves = [*map(tape.leaf, feats), tape.labels(y[cols]), *map(tape.leaf, targets)]
    v_t, pred_t = (_trunk_half(tape, head, leaves[0], bool(targets)) if trunk is None
                   else (leaves[0], leaves[1] if trunk.pred is not None else None))
    result = _score_half(tape, head, v_t, pred_t, leaves[len(feats)],
                         leaves[-1] if targets else None, reg_weight)
    result.inputs = tuple(leaves)
    return result


# ---------------------------------------------------------------------------
# array-level questions about a head


def divergence_cause(params, kind: str) -> str:
    """Name the first non-finite of the ``kind`` parameters ``params``, or
    else the largest one (finite parameters can still overflow a forward pass)."""
    largest, peak = None, -1.0
    for p in params:
        if not np.isfinite(p.value).all():
            return f"{kind} parameter {p.name!r} holds a non-finite value"
        m = float(np.abs(p.value).max(initial=0.0))
        if m > peak:
            largest, peak = p.name, m
    return f"all {kind} parameters are finite; the largest is {largest!r} (|max| {peak:.3g})"


def check_finite(head: Head, values: np.ndarray, what: str) -> np.ndarray:
    """``values``, unless one is not finite: then a FloatingPointError that
    names ``what`` and the head's largest parameter."""
    if not np.isfinite(values).all():
        raise FloatingPointError(f"{what} hold a non-finite value; "
                                 + divergence_cause(head.params.values(), "head"))
    return values


def class_scores(head: Head, v) -> np.ndarray:
    """Class scores of one post-trunk feature vector ``v`` (length d)."""
    v = dm.as_matrix(v)
    if v.shape != (head.cfg.d, 1):
        raise ValueError(f"expected a ({head.cfg.d},) feature vector, got shape {v.shape}")
    tape = Tape(backward=False)
    scores = _class_scores_t(tape, head, tape.leaf(v)).value.reshape(-1)
    return check_finite(head, scores, "class scores")


def class_rows(head: Head) -> np.ndarray:
    """The class score rows after the relation stage: W, We, or refined We."""
    return check_finite(head, _effective_rows_t(Tape(backward=False), head).value,
                        "class rows")


def relation_graph(head: Head) -> np.ndarray:
    """The row-stochastic class graph of the relation stage: the attached
    heuristic graph, or the dynamic stage's attention graph."""
    stage = rel.STAGES[head.cfg.graph_mode]
    if stage.graph is None or not head.params.keys() >= set(stage.frozen):
        raise ValueError(f"head mode {head.mode.value!r} with graph mode "
                         f"{head.cfg.graph_mode.value!r} has no relation graph to export")
    values = {n: head.params[n].value for n in stage.maps + stage.frozen}
    return check_finite(head, stage.graph(head.params["we"].value, values),
                        "relation graph rows")


# ---------------------------------------------------------------------------
# structural edits


def added_classes(registry: ClassRegistry, new_registry: ClassRegistry,
                  what: str = "expanded registry") -> tuple:
    """The novel classes ``new_registry`` appends to ``registry``; a
    ValueError that names ``what`` unless it keeps the base classes, then
    the novel ones, in order."""
    if new_registry.base != registry.base:
        raise ValueError(f"{what} must keep the same base classes")
    if new_registry.novel[: len(registry.novel)] != registry.novel:
        raise ValueError(f"{what} must keep existing novel classes in order")
    return new_registry.novel[len(registry.novel):]


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
    added = added_classes(head.registry, new_registry)
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
        head.we = EmbeddingMatrix(_insert_rows(head.we.matrix, bg, rows))
    b = head.params["b"].value
    fill = np.full((len(added), 1), float(b[:bg].mean()) if bg else 0.0)
    head.params["b"] = Param("b", _insert_rows(b, bg, fill))
    head.registry = new_registry
    # a heuristic graph no longer matches the class count; force a re-attach
    for name in rel.STAGES[head.cfg.graph_mode].frozen:
        head.params.pop(name, None)
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


def base_phase_config(cfg: HeadConfig) -> HeadConfig:
    """The config of the head that ``cfg``'s base phase trains: an SRR head's
    relation stage, whichever its graph mode, joins after base training through
    `switch_graph_mode`, so it base-trains its projection (SSP) head."""
    if cfg.mode is not HeadMode.SRR:
        return cfg
    return replace(cfg, mode=HeadMode.SSP, graph_mode=None)


def switch_graph_mode(head: Head, graph_mode, seed: int = 0) -> Head:
    """Give an SSP head the relation stage ``graph_mode``, making it SRR.

    The new maps start at the identity-module init of ``rel.init_maps``
    (drawn with ``seed`` and the head's attention gain) and are appended
    after the existing parameters.
    Asking any head for the stage it already has (none, for a baseline or
    SSP head) leaves it as it is.
    """
    target = rel.GraphMode(graph_mode)
    if target is head.cfg.graph_mode:
        return head
    if head.mode is HeadMode.SRR:
        raise ValueError(
            f"head already has relation stage {head.cfg.graph_mode.value!r}; "
            "build a new head to change it"
        )
    if head.mode is HeadMode.BASELINE:
        raise ValueError("baseline heads have no relation stage to switch on")
    head.cfg = replace(head.cfg, mode=HeadMode.SRR, graph_mode=target)
    head.params.update(rel.init_maps(target, head.we.dim, head.cfg.r, seed=seed,
                                     gain=head.cfg.attention_gain))
    return head


# ---------------------------------------------------------------------------
# checkpoints

_CHECKPOINT_FORMAT = "semshot-head-v3"


def head_state(head: Head) -> dict:
    return {
        "format": _CHECKPOINT_FORMAT,
        "mode": head.cfg.mode.value,
        "graph_mode": head.cfg.graph_mode.value,
        "dims": {"d_in": head.cfg.d_in, "d": head.cfg.d, "r": head.cfg.r},
        "attention_gain": head.cfg.attention_gain,
        "decoupled": head.cfg.decoupled,
        "seed": head.cfg.seed,
        "registry": head.registry.to_json(),
        "params": {name: p.value.tolist() for name, p in head.params.items()},
        "param_hash": head.param_hash(),
    }


_JSON_TYPES = {str: "a string", bool: "true or false", int: "an integer", float: "a number",
               dict: "an object", list: "a list", type(None): "null"}


def _field(obj: dict, name: str, *kinds, prefix: str = ""):
    """``obj[name]`` if it is one of the JSON types ``kinds``; otherwise a
    ValueError that names the checkpoint field."""
    label = f"checkpoint field {prefix + name!r}"
    if name not in obj:
        raise ValueError(f"{label} is missing")
    value = obj[name]
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        want = " or ".join(_JSON_TYPES[k] for k in kinds)
        raise ValueError(f"{label} must be {want}, got {_JSON_TYPES[type(value)]}")
    return value


def _matrix(value, name: str) -> np.ndarray:
    """The checkpoint field ``name`` as a float64 matrix; a ValueError names
    the field unless ``value`` holds equal-length rows of finite numbers."""
    try:
        m = np.array(value)
    except ValueError:  # rows of different lengths
        m = np.array(None)
    if m.ndim != 2 or not m.size or m.dtype.kind not in "iuf" or not np.isfinite(m).all():
        raise ValueError(f"checkpoint field {name!r} must be a matrix of finite numbers")
    return m.astype(np.float64)


def _enum_field(obj: dict, name: str, kind: type[enum.Enum]):
    """``obj[name]`` as a member of ``kind``; a ValueError names the field and
    the allowed values."""
    value = _field(obj, name, str)
    try:
        return kind(value)
    except ValueError:
        allowed = ", ".join(m.value for m in kind)
        raise ValueError(f"checkpoint field {name!r} must be one of {allowed}, "
                         f"got {value!r}") from None


def head_from_state(state: dict) -> Head:
    fmt = state.get("format") if isinstance(state, dict) else None
    if fmt != _CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format {fmt!r}")
    dims = _field(state, "dims", dict)
    cfg = HeadConfig(
        mode=_enum_field(state, "mode", HeadMode),
        graph_mode=_enum_field(state, "graph_mode", rel.GraphMode),
        **{name: _field(dims, name, int, prefix="dims.") for name in ("d_in", "d", "r")},
        attention_gain=_field(state, "attention_gain", int, float),
        decoupled=_field(state, "decoupled", bool),
        seed=_field(state, "seed", int),
    )
    registry_state = _field(state, "registry", dict)
    for key in ("base", "novel"):
        _field(registry_state, key, list, prefix="registry.")
    registry = ClassRegistry.from_json(registry_state)
    found = {name: _matrix(values, f"params.{name}")
             for name, values in _field(state, "params", dict).items()}
    # a freshly built head's shapes are the only valid ones, and the (n, n)
    # graphs its stage reads; the embedding width is the rows' own, else the projection's
    width = found["we"].shape[1] if "we" in found else found["P"].shape[0] if "P" in found else 0
    if not width and cfg.mode is not HeadMode.BASELINE:
        raise ValueError(f"checkpoint parameter 'we': expected {registry.n} rows, "
                         "found no such parameter")
    template = build_head(cfg, registry, EmbeddingMatrix(np.zeros((registry.n, width))))
    expected = {name: p.value.shape for name, p in template.params.items()}
    expected.update((name, (registry.n, registry.n)) for name in rel.STAGES[cfg.graph_mode].frozen)
    for name in sorted(expected.keys() | found.keys()):
        want = expected.get(name)
        got = found[name].shape if name in found else None
        if want != got:
            shaped_by_we = "we" in found and name != "we" and width in (want or ())
            source = f"; 'we' holds {width}-d rows" if shaped_by_we else ""
            raise ValueError(f"checkpoint parameter {name!r}: expected {_shape_text(want)}, "
                             f"found {_shape_text(got)}{source}")
    # the flags of a freshly built head: a param that no group names (the
    # embedding rows, a heuristic graph) is frozen; a phase sets its own
    grouped = template.resolve_groups(template.param_groups())
    params = {name: Param(name, value, trainable=name in grouped) for name, value in found.items()}
    head = Head(cfg=cfg, registry=registry, params=params)
    # last, so a malformed field is named rather than reported as a mismatch
    if head.param_hash() != _field(state, "param_hash", str):
        raise ValueError("checkpoint field 'param_hash' does not match 'params'")
    return head


def _shape_text(shape) -> str:
    return "no such parameter" if shape is None else f"shape {shape}"


def save_head(head: Head, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head_state(head), sort_keys=True) + "\n")  # dumps: C encoder


def load_head(path) -> Head:
    return load_json(path, head_from_state)
