"""Two-phase episodic training: base training, then balanced k-shot fine-tune.

Phase one trains every grouped head parameter on base-class records (the
embedding rows are a param that no group names, so they never move; both
phases assert by content hash that every frozen parameter stays put).  Phase two
freezes everything except a small trainable set (by default the output layer:
see ``default_finetune_groups``) and trains on class-balanced batches from the
k-shot episode's base and novel records.

The optimizer is classic SGD with momentum and coupled weight decay:
v <- mu v + g + wd p;  p <- p - lr v.
"""

import itertools
import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import kernels
from .embeddings import NONNEG, NONNEG_INT, POSITIVE, POSITIVE_INT, UNIT_BELOW_1, save_csv
from .head import Head, HeadMode, batch_forward, divergence_cause, trunk_features
from .records import FeatureSet, concat

DEFAULT_BASE_LR = 0.02
DEFAULT_MOMENTUM = 0.9
DEFAULT_WEIGHT_DECAY = 0.0001
DEFAULT_FINETUNE_LR = 0.001
DEFAULT_SHOT_LIST = (1, 2, 3, 5, 10)

# fine-tune budget: 300 optimizer steps per novel training sample, shrunk by a
# fixed divisor so desk-scale corpora finish in seconds
FINETUNE_STEPS_PER_SAMPLE = 300
FINETUNE_STEP_DIVISOR = 25

# base-phase lr decays by gamma at these fractions of the step budget
DEFAULT_MILESTONES = (2.0 / 3.0, 5.0 / 6.0)
DEFAULT_GAMMA = 0.1

_STREAM_BATCH = 5
_STREAM_EPISODE = 6
_STREAM_BALANCE = 7


@dataclass
class TrainConfig:
    lr: float = DEFAULT_BASE_LR
    momentum: float = DEFAULT_MOMENTUM
    weight_decay: float = DEFAULT_WEIGHT_DECAY
    steps: int | None = 200
    batch_size: int = 16
    reg_weight: float = 1.0
    trainable: tuple | None = None  # parameter-group names; None = phase default
    seed: int = 0

    def __post_init__(self):
        for name, bound in (("lr", POSITIVE), ("momentum", UNIT_BELOW_1), ("seed", NONNEG_INT),
                            ("weight_decay", NONNEG), ("reg_weight", NONNEG)):
            bound.check(getattr(self, name), name)


def finetune_config(**overrides) -> TrainConfig:
    """TrainConfig with fine-tune defaults: small lr, steps derived from the
    episode size unless given."""
    base = {"lr": DEFAULT_FINETUNE_LR, "steps": None}
    base.update(overrides)
    return TrainConfig(**base)


class ParamBlock:
    """The optimizer state of one phase: its trainable ``params``, their
    values packed into the one array ``value``, and one zero ``velocity``.

    Packing copies each param's value into its slice of ``value`` and rebinds
    ``p.value`` to that slice, so one elementwise update moves every param
    and gives the same bits as an update per param.  Each param keeps its own
    gradient buffer; a step gathers them into ``gathered``.
    """

    def __init__(self, params):
        self.params = list(params)
        sizes = [p.value.size for p in self.params]
        self.value = np.zeros(sum(sizes))
        self.gathered = np.zeros_like(self.value)
        self.velocity = np.zeros_like(self.value)
        self.grad_views = [p.grad.reshape(-1) for p in self.params]
        end = 0
        for p, size in zip(self.params, sizes):
            view = self.value[end:end + size].reshape(p.value.shape)
            view[...] = p.value
            p.value = view
            end += size


def sgd_step(block: ParamBlock, cfg: TrainConfig, lr: float):
    """One coupled-momentum update of every param in ``block`` from its
    gradient buffer."""
    if block.grad_views:
        np.concatenate(block.grad_views, out=block.gathered)
    kernels.sgd_update(block.value, block.gathered, block.velocity, lr, cfg.momentum,
                       cfg.weight_decay)


def lr_at(lr: float, milestones, step: int, total_steps: int) -> float:
    """Step-decayed learning rate: DEFAULT_GAMMA kicks in at each milestone fraction."""
    for frac in milestones:
        if step >= frac * total_steps:
            lr *= DEFAULT_GAMMA
    return lr


# ---------------------------------------------------------------------------
# episode sampling


@dataclass
class Episode:
    """The fixed record sets one fine-tune phase trains on."""

    base: FeatureSet
    novel: FeatureSet
    k: int
    base_shots: int

    def ids(self) -> dict:
        return {"base": sorted(self.base.ids), "novel": sorted(self.novel.ids)}


def sample_episode(base_data: FeatureSet, novel_data: FeatureSet, k: int,
                   base_shots: int | None = None, seed: int = 0,
                   names=("k", "base_shots")) -> Episode:
    """Pick k records per novel class and base_shots (default: k) per base class.

    Selection uses one seeded permutation per class, so the same seed with a
    larger k extends the smaller episode instead of reshuffling it.  A class
    with fewer than the requested records is an error naming the shortfall
    and the setting that asked for it, called as ``names`` says.
    """
    k_name, shots_name = names
    POSITIVE_INT.check(k, k_name)
    if base_shots is None:
        base_shots, shots_name = k, f"{shots_name}, which defaults to {k_name}"
    NONNEG_INT.check(base_shots, shots_name)
    rng = np.random.default_rng([seed, _STREAM_EPISODE])

    def pick(data, count, kind, setting):
        chosen = []
        for label, cols in data.label_columns().items():
            perm = rng.permutation(len(cols))
            if len(cols) < count:
                raise ValueError(f"{kind} class {label!r} has {len(cols)} records, "
                                 f"needs {count} ({setting})")
            chosen.extend(cols[perm[:count]])
        return data.take(chosen)

    if not len(novel_data):
        raise ValueError("no novel records to sample an episode from")
    # draw base picks first so novel picks do not shift when base data changes
    base = pick(base_data, base_shots, "base", shots_name)
    return Episode(base, pick(novel_data, k, "novel", k_name), k, base_shots)


def balanced_batch_iter(data: FeatureSet, batch_size: int, seed: int):
    """Endless batches of column indices into ``data``; each slot draws a
    class uniformly, then one of that class's records uniformly.

    Balancing over classes (rather than over the base/novel pools) keeps the
    label prior of the fine-tuning stream equal to the evaluation prior, so
    class biases stay calibrated no matter how lopsided the pool sizes are.
    A batch is two ``rng.integers`` calls: every slot's class, then every
    slot's record within that class's pool (a pool of one record draws 0).
    """
    if not len(data):
        raise ValueError("balanced batches need a non-empty pool")
    POSITIVE_INT.check(batch_size, "batch_size")
    pools = list(data.label_columns().values())
    sizes = np.array([len(p) for p in pools])
    starts = np.cumsum(sizes) - sizes
    flat = np.concatenate(pools)
    rng = np.random.default_rng([seed, _STREAM_BALANCE])
    classes = (rng.integers(0, len(pools), size=batch_size) for _ in itertools.count())
    return (flat[starts[c] + rng.integers(0, sizes[c])] for c in classes)


# ---------------------------------------------------------------------------
# training phases


@dataclass
class TraceRow:  # one line of trace.csv, in column order
    step: int
    lr: float
    loss: float
    loss_cls: float
    loss_reg: float


@dataclass
class TrainResult:
    trace: list
    frozen_hash: str  # the parameters the phase froze, unchanged by it

    @property
    def final_loss(self) -> float:
        return self.trace[-1].loss if self.trace else math.nan


def _run_phase(phase: str, head: Head, data: FeatureSet, allowed_indices, default_groups,
               steps: int, milestones, batches, cfg: TrainConfig) -> TrainResult:
    """The loop both phases share.

    Resolves every record's label once and checks it against the phase,
    trains ``cfg.trainable`` (else ``default_groups``) for ``steps``
    steps, decaying lr at ``milestones``, over ``batches`` of columns of
    ``data``, and raises if a frozen parameter (the embedding rows among
    them) ends the phase different from how it began: any drift is a bug,
    not a tolerance question.  A phase that freezes every trunk and reg
    parameter runs the trunk half of the forward pass once over ``data``
    and gives each step its columns.

    The phase owns its optimizer state: a ``ParamBlock`` of the trainable
    params in ``head.params`` order, which leaves each trainable ``p.value``
    a view of the phase's block; frozen values stay the arrays they were.
    It zeroes every param's own gradient buffer in place, frozen ones too,
    so none holds a gradient left over from an earlier phase.
    """
    y = data.label_indices(head.registry)
    stray = np.flatnonzero(~np.isin(y, list(allowed_indices)))
    if stray.size:
        raise ValueError(f"{phase}: record {data.ids[stray[0]]!r} has out-of-phase label "
                         f"{data.labels[stray[0]]!r}")
    trainable = head.resolve_groups(cfg.trainable if cfg.trainable is not None
                                    else default_groups)
    head.set_trainable(trainable)
    frozen = [n for n in head.params if n not in trainable]
    frozen_hash = head.param_hash(frozen)
    trunk = (None if trainable & head.resolve_groups(("trunk", "reg"))
             else trunk_features(head, data))
    for p in head.params.values():
        p.grad.fill(0.0)
    block = ParamBlock(p for p in head.params.values() if p.trainable)
    trace, result = [], None
    try:
        for step in range(1, steps + 1):
            lr = lr_at(cfg.lr, milestones, step - 1, steps)
            # batch_forward and sgd_step bound a step for the benchmark tracer
            result = batch_forward(head, data, y, next(batches), cfg.reg_weight, trunk, result)
            loss = result.loss.item()
            if not math.isfinite(loss):
                raise FloatingPointError(f"{phase}: loss is {loss} at step {step} (lr {lr:g}); "
                                         + divergence_cause(block.params, "trainable"))
            result.loss.backward()
            sgd_step(block, cfg, lr)
            trace.append(TraceRow(step, lr, loss, result.loss_cls,
                                  result.loss_reg if result.loss_reg is not None else 0.0))
    finally:  # drop the recorded step, also when the phase fails
        if result is not None:
            result.loss.tape.release()
    # each loss was finite before its update; the last update is checked here
    if not np.isfinite(block.value).all():
        raise FloatingPointError(f"{phase}: a parameter is not finite after step {steps} "
                                 f"(lr {lr:g}); " + divergence_cause(block.params, "trainable"))
    if head.param_hash(frozen) != frozen_hash:
        raise RuntimeError(f"{phase}: a frozen parameter moved")
    return TrainResult(trace=trace, frozen_hash=frozen_hash)


def _uniform_batches(data: FeatureSet, batch_size: int, seed: int):
    POSITIVE_INT.check(batch_size, "batch_size")
    rng = np.random.default_rng([seed, _STREAM_BATCH])
    return (rng.integers(0, len(data), size=batch_size) for _ in itertools.count())


def base_train(head: Head, base_data: FeatureSet, cfg: TrainConfig) -> TrainResult:
    """Phase one: uniform batches over base-class records, every param trains."""
    if not len(base_data):
        raise ValueError("base_train needs at least one record")
    POSITIVE_INT.check(cfg.steps, "base_train steps")
    return _run_phase(
        "base_train", head, base_data,
        head.registry.base_indices() + [head.registry.background_index], head.param_groups(),
        cfg.steps, DEFAULT_MILESTONES, _uniform_batches(base_data, cfg.batch_size, cfg.seed), cfg,
    )


def default_finetune_groups(head: Head) -> tuple:
    """What moves during fine-tuning unless overridden: the whole output
    layer.  Every mode trains its class biases (fresh novel rows start at
    the mean base bias and must be able to calibrate against confident
    base logits); baseline heads train their classifier rows, embedding
    heads train the semantic projection plus, when present, the relation
    maps."""
    if head.mode is HeadMode.BASELINE:
        return ("W", "b")
    if "relation" in head.param_groups():
        return ("P", "relation", "b")
    return ("P", "b")


def finetune_steps_for(episode: Episode) -> int:
    return max(1, (FINETUNE_STEPS_PER_SAMPLE * len(episode.novel)) // FINETUNE_STEP_DIVISOR)


def finetune(head: Head, episode: Episode, cfg: TrainConfig) -> TrainResult:
    """Phase two: balanced base/novel batches, frozen except the chosen groups."""
    steps = POSITIVE_INT.check(cfg.steps if cfg.steps is not None
                               else finetune_steps_for(episode), "finetune steps")
    data = concat(episode.base, episode.novel)
    return _run_phase(
        "finetune", head, data, range(head.registry.n), default_finetune_groups(head), steps, (),
        balanced_batch_iter(data, cfg.batch_size, cfg.seed), cfg,
    )


def save_trace_csv(path, trace):
    save_csv(path, [f.name for f in fields(TraceRow)], map(astuple, trace))
