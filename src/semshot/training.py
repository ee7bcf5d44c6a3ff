"""Two-phase episodic training: base training, then balanced k-shot fine-tune.

Phase one trains every head parameter on base-class records (the embedding
matrix itself is fixed by construction and never moves; both phases assert
this by content hash).  Phase two freezes everything except a small trainable
set (by default the embedding projection and the relation maps) and trains on
batches drawn half from base records, half from the k-shot novel episode.

The optimizer is classic SGD with momentum and coupled weight decay:
v <- mu v + g + wd p;  p <- p - lr v.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .head import Head, HeadMode, batch_forward

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
    gamma: float = DEFAULT_GAMMA
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


def sgd_step(params, grads, state: OptState, cfg: TrainConfig, lr: float | None = None):
    """One coupled-momentum update over ``params`` using ``grads`` (name -> array)."""
    step_lr = cfg.lr if lr is None else lr
    for p in params:
        if not p.trainable:
            continue
        g = grads[p.name]
        if g.shape != p.value.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match param {p.name!r} {p.value.shape}"
            )
        vel = state.velocity_for(p.name, p.value.shape)
        kernels.sgd_update(p.value, g, vel, step_lr, cfg.momentum, cfg.weight_decay)
    state.step += 1


def lr_at(cfg: TrainConfig, step: int, total_steps: int) -> float:
    """Step-decayed learning rate: gamma kicks in at each milestone fraction."""
    lr = cfg.lr
    for frac in cfg.milestones:
        if step >= frac * total_steps:
            lr *= cfg.gamma
    return lr


# ---------------------------------------------------------------------------
# episode sampling


@dataclass
class Episode:
    """The fixed record sets one fine-tune phase trains on."""

    base_records: list
    novel_records: list
    k: int
    base_shots: int
    seed: int

    def __post_init__(self):
        if not self.novel_records:
            raise ValueError("episode has no novel records")

    @property
    def novel_size(self) -> int:
        return len(self.novel_records)

    def ids(self) -> dict:
        return {
            "base": sorted(r.id for r in self.base_records),
            "novel": sorted(r.id for r in self.novel_records),
        }


@dataclass
class EpisodeConfig:
    k: int = 1
    base_shots: int | None = None  # None = same count as k
    seed: int = 0


def _group_by_label(records) -> dict:
    out = {}
    for rec in records:
        out.setdefault(rec.label, []).append(rec)
    return out


def sample_episode(base_data, novel_data, cfg: EpisodeConfig) -> Episode:
    """Pick k records per novel class (and base_shots per base class).

    Selection uses one seeded permutation per class, so the same seed with a
    larger k extends the smaller episode instead of reshuffling it.  A class
    with fewer than the requested records is an error naming the shortfall.
    """
    if cfg.k < 1:
        raise ValueError("k must be at least 1")
    base_shots = cfg.base_shots if cfg.base_shots is not None else cfg.k
    rng = np.random.default_rng([cfg.seed, _STREAM_EPISODE])

    def pick(groups, count, kind):
        chosen = []
        for label in sorted(groups):
            recs = groups[label]
            perm = rng.permutation(len(recs))
            if len(recs) < count:
                raise ValueError(
                    f"{kind} class {label!r} has {len(recs)} records, needs {count}"
                )
            chosen.extend(recs[i] for i in perm[:count])
        return chosen

    novel_groups = _group_by_label(novel_data)
    if not novel_groups:
        raise ValueError("no novel records to sample an episode from")
    base_groups = _group_by_label(base_data)
    # draw base picks first so novel picks do not shift when base data changes
    base_chosen = pick(base_groups, base_shots, "base") if base_groups else []
    novel_chosen = pick(novel_groups, cfg.k, "novel")
    return Episode(
        base_records=base_chosen, novel_records=novel_chosen,
        k=cfg.k, base_shots=base_shots, seed=cfg.seed,
    )


def balanced_batch_iter(base_records, novel_records, batch_size: int, seed: int):
    """Endless batches where each slot draws a class uniformly, then one of
    that class's records uniformly.

    Balancing over classes (rather than over the base/novel pools) keeps the
    label prior of the fine-tuning stream equal to the evaluation prior, so
    class biases stay calibrated no matter how lopsided the pool sizes are.
    """
    if not base_records or not novel_records:
        raise ValueError("balanced batches need non-empty base and novel pools")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    by_label = _group_by_label(list(base_records) + list(novel_records))
    labels = sorted(by_label)
    rng = np.random.default_rng([seed, _STREAM_BALANCE])

    def gen():
        while True:
            batch = []
            for _ in range(batch_size):
                pool = by_label[labels[rng.integers(0, len(labels))]]
                batch.append(pool[rng.integers(0, len(pool))])
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
    we_hash_before: str
    we_hash_after: str
    frozen_hash_before: str = ""
    frozen_hash_after: str = ""

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


def _step(head: Head, batch, cfg: TrainConfig, state: OptState, lr: float,
          use_graph: bool, phase: str) -> TraceRow:
    result = batch_forward(head, batch, reg_weight=cfg.reg_weight, use_graph=use_graph)
    loss = result.loss.item()
    if not math.isfinite(loss):
        raise FloatingPointError(
            f"{phase}: loss is {loss} at step {state.step + 1} (lr {lr:g}); "
            + _divergence_cause(head)
        )
    result.loss.backward()
    sgd_step(head.param_list(), _collect_grads(head), state, cfg, lr=lr)
    return TraceRow(
        step=state.step,
        lr=lr,
        loss=loss,
        loss_cls=result.loss_cls.item() if result.loss_cls is not None else 0.0,
        loss_reg=result.loss_reg.item() if result.loss_reg is not None else 0.0,
    )


def _check_labels(head: Head, records, allowed_indices, phase: str):
    allowed = set(allowed_indices)
    for rec in records:
        idx = head.registry.index(rec.label)
        if idx not in allowed:
            raise ValueError(f"{phase}: record {rec.id!r} has out-of-phase label {rec.label!r}")


def base_train(head: Head, base_data, cfg: TrainConfig) -> TrainResult:
    """Phase one: uniform batches over base-class records, every param trains.

    When the head was configured with graph_in_base=False, the relation stage
    is bypassed (and its params left untouched) until fine-tuning.
    """
    if not base_data:
        raise ValueError("base_train needs at least one record")
    if cfg.steps is None or cfg.steps < 1:
        raise ValueError("base_train needs an explicit positive step budget")
    _check_labels(
        head, base_data,
        head.registry.base_indices() + [head.registry.background_index],
        "base_train",
    )
    use_graph = head.cfg.graph_in_base
    trainable = set(head.params)
    if not use_graph:
        trainable -= set(head.param_groups().get("relation", ()))
    if cfg.trainable is not None:
        trainable = head.resolve_groups(cfg.trainable)
    head.set_trainable(trainable)

    we_before = head.we_hash()
    rng = np.random.default_rng([cfg.seed, _STREAM_BATCH])
    state = OptState()
    trace = []
    for step in range(cfg.steps):
        idx = rng.integers(0, len(base_data), size=cfg.batch_size)
        batch = [base_data[i] for i in idx]
        trace.append(_step(head, batch, cfg, state, lr_at(cfg, step, cfg.steps), use_graph,
                           "base_train"))
    we_after = head.we_hash()
    if we_before != we_after:
        raise RuntimeError("embedding matrix changed during base training")
    return TrainResult(head=head, trace=trace, we_hash_before=we_before, we_hash_after=we_after)


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
    return max(1, (FINETUNE_STEPS_PER_SAMPLE * episode.novel_size) // FINETUNE_STEP_DIVISOR)


def finetune(head: Head, episode: Episode, cfg: TrainConfig) -> TrainResult:
    """Phase two: balanced base/novel batches, frozen except the chosen groups.

    Frozen parameters are hash-checked before and after; any drift is a bug,
    not a tolerance question.
    """
    _check_labels(head, episode.base_records + episode.novel_records,
                  range(head.registry.n), "finetune")
    groups = cfg.trainable if cfg.trainable is not None else default_finetune_groups(head)
    trainable = head.resolve_groups(groups)
    head.set_trainable(trainable)
    frozen = [n for n in head.params if n not in trainable]

    steps = cfg.steps if cfg.steps is not None else finetune_steps_for(episode)
    if steps < 1:
        raise ValueError("finetune needs a positive step budget")

    we_before = head.we_hash()
    frozen_before = head.param_hash(frozen)
    batches = balanced_batch_iter(
        episode.base_records, episode.novel_records, cfg.batch_size, cfg.seed
    )
    state = OptState()
    trace = []
    for step in range(steps):
        trace.append(_step(head, next(batches), cfg, state,
                           lr_at(cfg, step, steps), use_graph=True, phase="finetune"))
    we_after = head.we_hash()
    frozen_after = head.param_hash(frozen)
    if we_before != we_after:
        raise RuntimeError("embedding matrix changed during fine-tuning")
    if frozen_before != frozen_after:
        raise RuntimeError("a frozen parameter moved during fine-tuning")
    return TrainResult(
        head=head, trace=trace,
        we_hash_before=we_before, we_hash_after=we_after,
        frozen_hash_before=frozen_before, frozen_hash_after=frozen_after,
    )


def save_trace_csv(path, trace):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("step,lr,loss,loss_cls,loss_reg\n")
        for row in trace:
            fh.write(
                f"{row.step},{row.lr:.9g},{row.loss:.9g},{row.loss_cls:.9g},{row.loss_reg:.9g}\n"
            )
