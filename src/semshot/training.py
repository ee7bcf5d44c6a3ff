"""Two-phase episodic training: base training, then balanced k-shot fine-tune.

Phase one trains every head parameter on base-class records (the embedding
matrix itself is fixed by construction and never moves; both phases assert
this, and that every frozen parameter stays put, by content hash).  Phase two freezes everything except a small trainable
set (by default the embedding projection and the relation maps) and trains on
class-balanced batches from the k-shot episode's base and novel records.

The optimizer is classic SGD with momentum and coupled weight decay:
v <- mu v + g + wd p;  p <- p - lr v.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .head import Head, HeadMode, batch_forward
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


def finetune_config(**overrides) -> TrainConfig:
    """TrainConfig with fine-tune defaults: small lr, no decay schedule,
    steps derived from the episode size unless given."""
    base = {"lr": DEFAULT_FINETUNE_LR, "milestones": (), "steps": None}
    base.update(overrides)
    return TrainConfig(**base)


@dataclass
class OptState:
    velocities: dict = field(default_factory=dict)
    step: int = 0

    def velocity_for(self, name: str, shape) -> np.ndarray:
        v = self.velocities.get(name)
        if v is None or v.shape != shape:
            v = np.zeros(shape)
            self.velocities[name] = v
        return v


def sgd_step(params, grads, state: OptState, cfg: TrainConfig, lr: float):
    """One coupled-momentum update over ``params`` using ``grads`` (name -> array)."""
    for p in params:
        if not p.trainable:
            continue
        g = grads[p.name]
        if g.shape != p.value.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match param {p.name!r} {p.value.shape}"
            )
        vel = state.velocity_for(p.name, p.value.shape)
        kernels.sgd_update(p.value, g, vel, lr, cfg.momentum, cfg.weight_decay)
    state.step += 1


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


@dataclass
class EpisodeConfig:
    k: int = 1
    base_shots: int | None = None  # None = same count as k
    seed: int = 0


def sample_episode(base_data: FeatureSet, novel_data: FeatureSet,
                   cfg: EpisodeConfig) -> Episode:
    """Pick k records per novel class (and base_shots per base class).

    Selection uses one seeded permutation per class, so the same seed with a
    larger k extends the smaller episode instead of reshuffling it.  A class
    with fewer than the requested records is an error naming the shortfall.
    """
    if cfg.k < 1:
        raise ValueError("k must be at least 1")
    base_shots = cfg.base_shots if cfg.base_shots is not None else cfg.k
    rng = np.random.default_rng([cfg.seed, _STREAM_EPISODE])

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
    return Episode(base, pick(novel_data, cfg.k, "novel"), cfg.k, base_shots)


def balanced_batch_iter(data: FeatureSet, batch_size: int, seed: int):
    """Endless batches of column indices into ``data``; each slot draws a
    class uniformly, then one of that class's records uniformly.

    Balancing over classes (rather than over the base/novel pools) keeps the
    label prior of the fine-tuning stream equal to the evaluation prior, so
    class biases stay calibrated no matter how lopsided the pool sizes are.
    """
    if not len(data):
        raise ValueError("balanced batches need a non-empty pool")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
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
    head: Head
    trace: list
    we_hash: str  # the embedding matrix, unchanged by the phase
    frozen_hash: str  # the parameters the phase froze, unchanged by it

    @property
    def final_loss(self) -> float:
        return self.trace[-1].loss if self.trace else math.nan


def _collect_grads(head: Head) -> dict:
    return {name: p.grad for name, p in head.params.items() if p.trainable}


def _divergence_cause(head: Head) -> str:
    """Name the first non-finite trainable parameter, or else the largest one
    (finite parameters can still overflow the forward pass)."""
    largest, peak = None, -1.0
    for name, p in head.params.items():
        if not p.trainable:
            continue
        if not np.isfinite(p.value).all():
            return f"trainable parameter {name!r} holds a non-finite value"
        m = float(np.abs(p.value).max(initial=0.0))
        if m > peak:
            largest, peak = name, m
    return f"all trainable parameters are finite; the largest is {largest!r} (|max| {peak:.3g})"


def _step(head: Head, data: FeatureSet, y, cols, cfg: TrainConfig, state: OptState,
          lr: float, use_graph: bool, phase: str) -> TraceRow:
    result = batch_forward(head, data, y, cols, cfg.reg_weight, use_graph)
    loss = result.loss.item()
    if not math.isfinite(loss):
        raise FloatingPointError(
            f"{phase}: loss is {loss} at step {state.step + 1} (lr {lr:g}); "
            + _divergence_cause(head)
        )
    result.loss.backward()
    sgd_step(head.param_list(), _collect_grads(head), state, cfg, lr)
    return TraceRow(
        step=state.step,
        lr=lr,
        loss=loss,
        loss_cls=result.loss_cls.item() if result.loss_cls is not None else 0.0,
        loss_reg=result.loss_reg.item() if result.loss_reg is not None else 0.0,
    )


def _run_phase(phase: str, head: Head, data: FeatureSet, allowed_indices, default_groups,
               steps: int, batches, cfg: TrainConfig, use_graph: bool = True) -> TrainResult:
    """The loop both phases share.

    Resolves every record's label once and checks it against the phase,
    trains ``cfg.trainable`` (else ``default_groups``) for ``steps``
    lr-scheduled steps over ``batches`` of columns of ``data``, and raises if
    the embedding matrix or a frozen parameter ends the phase different from
    how it began: any drift is a bug, not a tolerance question.
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
    state = OptState()
    trace = [_step(head, data, y, next(batches), cfg, state, lr_at(cfg, step, steps),
                   use_graph, phase)
             for step in range(steps)]
    if head.we_hash() != we_hash:
        raise RuntimeError(f"{phase}: the embedding matrix changed")
    if head.param_hash(frozen) != frozen_hash:
        raise RuntimeError(f"{phase}: a frozen parameter moved")
    return TrainResult(head=head, trace=trace, we_hash=we_hash, frozen_hash=frozen_hash)


def _uniform_batches(data: FeatureSet, batch_size: int, seed: int):
    rng = np.random.default_rng([seed, _STREAM_BATCH])
    while True:
        yield rng.integers(0, len(data), size=batch_size)


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
