"""Two-phase episodic training: base training, then balanced k-shot fine-tune.

Phase one trains every head parameter on base-class records (the embedding
matrix itself is fixed by construction and never moves; both phases assert
this, and that every frozen parameter stays put, by content hash).  Phase two
freezes everything except a small trainable set (by default the output layer:
see ``default_finetune_groups``) and trains on class-balanced batches from the
k-shot episode's base and novel records.

The optimizer is classic SGD with momentum and coupled weight decay:
v <- mu v + g + wd p;  p <- p - lr v.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
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

# lr decays by gamma at these fractions of the step budget
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
    milestones: tuple = DEFAULT_MILESTONES
    reg_weight: float = 1.0
    trainable: tuple | None = None  # parameter-group names; None = phase default
    seed: int = 0

    def __post_init__(self):
        for name, ok, want in (("lr", self.lr > 0, "positive"),
                               ("momentum", 0 <= self.momentum < 1, "in [0, 1)"),
                               ("weight_decay", self.weight_decay >= 0, "at least 0"),
                               ("reg_weight", self.reg_weight >= 0, "at least 0")):
            value = getattr(self, name)
            if not (ok and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and {want}, got {value}")


def finetune_config(**overrides) -> TrainConfig:
    """TrainConfig with fine-tune defaults: small lr, no decay schedule,
    steps derived from the episode size unless given."""
    base = {"lr": DEFAULT_FINETUNE_LR, "milestones": (), "steps": None}
    base.update(overrides)
    return TrainConfig(**base)


def sgd_step(params, velocities, cfg: TrainConfig, lr: float):
    """One coupled-momentum update of each of ``params`` from its ``grad``
    buffer; ``velocities`` holds one array per param, in the same order."""
    for p, vel in zip(params, velocities, strict=True):
        kernels.sgd_update(p.value, p.grad, vel, lr, cfg.momentum, cfg.weight_decay)


def lr_at(cfg: TrainConfig, step: int, total_steps: int) -> float:
    """Step-decayed learning rate: DEFAULT_GAMMA kicks in at each milestone fraction."""
    lr = cfg.lr
    for frac in cfg.milestones:
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
                   base_shots: int | None = None, seed: int = 0) -> Episode:
    """Pick k records per novel class and base_shots (default: k) per base class.

    Selection uses one seeded permutation per class, so the same seed with a
    larger k extends the smaller episode instead of reshuffling it.  A class
    with fewer than the requested records is an error naming the shortfall.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    base_shots = base_shots if base_shots is not None else k
    rng = np.random.default_rng([seed, _STREAM_EPISODE])

    def pick(data, count, kind):
        chosen = []
        for label, cols in data.label_columns().items():
            perm = rng.permutation(len(cols))
            if len(cols) < count:
                raise ValueError(f"{kind} class {label!r} has {len(cols)} records, "
                                 f"needs {count}")
            chosen.extend(cols[perm[:count]])
        return data.take(chosen)

    if not len(novel_data):
        raise ValueError("no novel records to sample an episode from")
    # draw base picks first so novel picks do not shift when base data changes
    base = pick(base_data, base_shots, "base")
    return Episode(base, pick(novel_data, k, "novel"), k, base_shots)


def _check_batch_size(batch_size: int) -> None:
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")


def balanced_batch_iter(data: FeatureSet, batch_size: int, seed: int):
    """Endless batches of column indices into ``data``; each slot draws a
    class uniformly, then one of that class's records uniformly.

    Balancing over classes (rather than over the base/novel pools) keeps the
    label prior of the fine-tuning stream equal to the evaluation prior, so
    class biases stay calibrated no matter how lopsided the pool sizes are.
    """
    if not len(data):
        raise ValueError("balanced batches need a non-empty pool")
    _check_batch_size(batch_size)
    pools = list(data.label_columns().values())
    rng = np.random.default_rng([seed, _STREAM_BALANCE])

    def gen():
        while True:
            batch = np.empty(batch_size, dtype=np.intp)
            for i in range(batch_size):
                pool = pools[rng.integers(0, len(pools))]
                batch[i] = pool[rng.integers(0, len(pool))]
            yield batch

    return gen()


# ---------------------------------------------------------------------------
# training phases


@dataclass
class TraceRow:
    step: int
    lr: float
    loss: float
    loss_cls: float
    loss_reg: float


@dataclass
class TrainResult:
    trace: list
    we_hash: str  # the embedding matrix, unchanged by the phase
    frozen_hash: str  # the parameters the phase froze, unchanged by it

    @property
    def final_loss(self) -> float:
        return self.trace[-1].loss if self.trace else math.nan


def _run_phase(phase: str, head: Head, data: FeatureSet, allowed_indices, default_groups,
               steps: int, batches, cfg: TrainConfig, use_graph: bool = True) -> TrainResult:
    """The loop both phases share.

    Resolves every record's label once and checks it against the phase,
    trains ``cfg.trainable`` (else ``default_groups``) for ``steps``
    lr-scheduled steps over ``batches`` of columns of ``data``, and raises if
    the embedding matrix or a frozen parameter ends the phase different from
    how it began: any drift is a bug, not a tolerance question.  A phase that
    freezes every trunk and reg parameter runs the trunk half of the forward
    pass once over ``data`` and gives each step its columns.

    The phase owns its optimizer state: the trainable params in
    ``head.params`` order, each with a zero velocity.  It zeroes every
    param's own gradient buffer in place, frozen ones too, so none holds a
    gradient left over from an earlier phase.
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
    we_hash, frozen_hash = head.we_hash(), head.param_hash(frozen)
    trunk = (None if trainable & head.resolve_groups(("trunk", "reg"))
             else trunk_features(head, data))
    for p in head.params.values():
        p.grad.fill(0.0)
    params = [p for p in head.params.values() if p.trainable]
    velocities = [np.zeros(p.value.shape) for p in params]
    trace = []
    for step in range(1, steps + 1):
        lr = lr_at(cfg, step - 1, steps)
        # batch_forward and sgd_step bound a step for the benchmark tracer
        result = batch_forward(head, data, y, next(batches), cfg.reg_weight, use_graph, trunk)
        loss = result.loss.item()
        if not math.isfinite(loss):
            raise FloatingPointError(f"{phase}: loss is {loss} at step {step} (lr {lr:g}); "
                                     + divergence_cause(params, "trainable"))
        result.loss.backward()
        sgd_step(params, velocities, cfg, lr)
        trace.append(TraceRow(step, lr, loss, result.loss_cls.item(),
                              result.loss_reg.item() if result.loss_reg is not None else 0.0))
    if head.we_hash() != we_hash:
        raise RuntimeError(f"{phase}: the embedding matrix changed")
    if head.param_hash(frozen) != frozen_hash:
        raise RuntimeError(f"{phase}: a frozen parameter moved")
    return TrainResult(trace=trace, we_hash=we_hash, frozen_hash=frozen_hash)


def _uniform_batches(data: FeatureSet, batch_size: int, seed: int):
    _check_batch_size(batch_size)
    rng = np.random.default_rng([seed, _STREAM_BATCH])
    return (rng.integers(0, len(data), size=batch_size) for _ in itertools.count())


def base_train(head: Head, base_data: FeatureSet, cfg: TrainConfig) -> TrainResult:
    """Phase one: uniform batches over base-class records, every param trains.

    When the head was configured with graph_in_base=False, the relation stage
    is bypassed (and its params frozen) until fine-tuning.
    """
    if not len(base_data):
        raise ValueError("base_train needs at least one record")
    if cfg.steps is None or cfg.steps < 1:
        raise ValueError("base_train needs an explicit positive step budget")
    use_graph = head.cfg.graph_in_base
    groups = [g for g in head.param_groups() if use_graph or g != "relation"]
    return _run_phase(
        "base_train", head, base_data,
        head.registry.base_indices() + [head.registry.background_index], groups,
        cfg.steps, _uniform_batches(base_data, cfg.batch_size, cfg.seed), cfg, use_graph,
    )


def default_finetune_groups(head: Head) -> tuple:
    """What moves during fine-tuning unless overridden: the whole output
    layer.  Every mode trains its class biases (fresh novel rows start with
    zero bias and must be able to calibrate against confident base logits);
    baseline heads train their classifier rows, embedding heads train the
    semantic projection plus, when present, the relation maps."""
    if head.mode is HeadMode.BASELINE:
        return ("W", "b")
    if "relation" in head.param_groups():
        return ("P", "relation", "b")
    return ("P", "b")


def finetune_steps_for(episode: Episode) -> int:
    return max(1, (FINETUNE_STEPS_PER_SAMPLE * len(episode.novel)) // FINETUNE_STEP_DIVISOR)


def finetune(head: Head, episode: Episode, cfg: TrainConfig) -> TrainResult:
    """Phase two: balanced base/novel batches, frozen except the chosen groups."""
    steps = cfg.steps if cfg.steps is not None else finetune_steps_for(episode)
    if steps < 1:
        raise ValueError("finetune needs a positive step budget")
    data = concat(episode.base, episode.novel)
    return _run_phase(
        "finetune", head, data, range(head.registry.n), default_finetune_groups(head), steps,
        balanced_batch_iter(data, cfg.batch_size, cfg.seed), cfg,
    )


def save_trace_csv(path, trace):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("step,lr,loss,loss_cls,loss_reg\n")
        for row in trace:
            fh.write(
                f"{row.step},{row.lr:.9g},{row.loss:.9g},{row.loss_cls:.9g},{row.loss_reg:.9g}\n"
            )
